// Color-split storage: the red ((coordinate sum) even) and black (odd)
// points of a 3D grid stored as two contiguous blocks of half-pencils, so a
// red-black half-sweep walks each color with unit stride instead of the
// stride-2 hops the interleaved layout forces. The layout is a solver-side
// staging format, not a replacement for Grid: kernels Pack the strided grid
// in, run their sweeps on the split blocks, and Unpack the result out at the
// solve boundary. (A 2D edition existed until the strided 2D sweeps
// overtook it; see stencil/split.go.)
//
// Indexing. Each (i, j) pencil of n points splits into its red and black
// subsequences, stored padded to w = (n+1)/2 entries. With s = (i+j)&1 the
// parity of the pencil's first red point, the point at column k maps to
// half-index k>>1 in the red block when (k&1) == s, and to k>>1 in the
// black block otherwise. Pencils with s == 0 hold w red and w−1 black
// values; pencils with s == 1 hold w−1 red and w black (the last pad cell of
// the short color is unused). The uniform k>>1 mapping means a point's
// half-index never depends on its own color, which keeps neighbour offsets
// in the sweep kernels constant per pencil.
package grid

// SplitG holds one 3D grid's values in color-split layout: red points first,
// then black, each as n² half-pencils of w values of the grid's storage
// precision.
type SplitG[T Float] struct {
	n, w  int
	red   []T
	black []T
}

// Split is the float64 color-split buffer.
type Split = SplitG[float64]

// NewSplitOf returns a zeroed color-split buffer of precision T for a 3D
// grid of side n.
func NewSplitOf[T Float](n int) *SplitG[T] {
	w := (n + 1) / 2
	return &SplitG[T]{n: n, w: w,
		red:   make([]T, n*n*w),
		black: make([]T, n*n*w),
	}
}

// NewSplit returns a zeroed float64 color-split buffer for a 3D grid of
// side n.
func NewSplit(n int) *Split { return NewSplitOf[float64](n) }

// N returns the grid side length.
func (s *SplitG[T]) N() int { return s.n }

// W returns the half-pencil width (n+1)/2.
func (s *SplitG[T]) W() int { return s.w }

// Red3 returns pencil (i,j)'s red half.
func (s *SplitG[T]) Red3(i, j int) []T {
	base := (i*s.n + j) * s.w
	return s.red[base : base+s.w]
}

// Black3 returns pencil (i,j)'s black half.
func (s *SplitG[T]) Black3(i, j int) []T {
	base := (i*s.n + j) * s.w
	return s.black[base : base+s.w]
}

// Pack copies g into the split layout. g must be a 3D grid of the split's
// side.
func (s *SplitG[T]) Pack(g *G[T]) {
	if g.N() != s.n || g.Dim() != 3 {
		panic("grid: Split.Pack shape mismatch")
	}
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			packRow(s.Red3(i, j), s.Black3(i, j), g.Row3(i, j), (i+j)&1)
		}
	}
}

// Unpack copies the split values back into g.
func (s *SplitG[T]) Unpack(g *G[T]) {
	if g.N() != s.n || g.Dim() != 3 {
		panic("grid: Split.Unpack shape mismatch")
	}
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			unpackRow(s.Red3(i, j), s.Black3(i, j), g.Row3(i, j), (i+j)&1)
		}
	}
}

// packRow splits one strided row into its red and black halves; s is the
// column parity of the row's first red point.
func packRow[T Float](red, black, row []T, s int) {
	n := len(row)
	for j := s; j < n; j += 2 {
		red[j>>1] = row[j]
	}
	for j := 1 - s; j < n; j += 2 {
		black[j>>1] = row[j]
	}
}

// unpackRow merges red and black halves back into a strided row.
func unpackRow[T Float](red, black, row []T, s int) {
	n := len(row)
	for j := s; j < n; j += 2 {
		row[j] = red[j>>1]
	}
	for j := 1 - s; j < n; j += 2 {
		row[j] = black[j>>1]
	}
}
