// Package grid provides the square/cubic grid container used throughout the
// multigrid solver, together with norms and the random training-data
// distributions from the paper's evaluation (§4).
//
// A grid is either a 2D N×N square or a 3D N×N×N cube of values, tagged by
// Dim and stored in a single flat slice (row-major in 2D; plane-major, then
// row-major in 3D) so that relaxation and transfer kernels stream through
// memory. The container is generic over the storage precision: G[float64]
// (aliased Grid) is the working type of every solver path, and G[float32]
// (aliased Grid32) is what the float32 kernel instances and the benchmark's
// kernel rows run on. Multigrid levels use sizes N = 2^k + 1;
// Level/SizeOfLevel convert between the two conventions and are
// dimension-independent (only the side length recurses).
//
// Dimension-specific accessors are guarded: calling a 2D accessor (At, Set,
// Row, ...) on a 3D grid — or vice versa — panics with an explicit dimension
// error instead of silently mis-indexing the flat slice.
package grid

import "fmt"

// Float constrains the storage precisions a grid can carry.
type Float interface {
	~float32 | ~float64
}

// G is a square N×N (Dim 2) or cubic N×N×N (Dim 3) grid of T values stored
// in one flat slice. The zero value is not usable; construct grids with New,
// NewDim, or the precision-generic NewOf.
type G[T Float] struct {
	n    int
	dim  int // 2 or 3
	data []T
}

// Grid is the default float64-backed grid, the working type of every f64
// solver path.
type Grid = G[float64]

// Grid32 is the float32-backed grid of the float32 kernel instances. Kept
// for `bench/`; goes with ROADMAP item 0's benchmark PR.
type Grid32 = G[float32]

// NewOf returns a zero-filled grid of the given dimension (2 or 3), side n,
// and storage precision T.
func NewOf[T Float](dim, n int) *G[T] {
	if n < 1 {
		panic(fmt.Sprintf("grid: invalid size %d", n))
	}
	points := n * n
	switch dim {
	case 2:
	case 3:
		points *= n
	default:
		panic(fmt.Sprintf("grid: invalid dimension %d (want 2 or 3)", dim))
	}
	return &G[T]{n: n, dim: dim, data: make([]T, points)}
}

// New returns a zero-filled 2D n×n float64 grid. It panics if n < 1.
func New(n int) *Grid { return NewOf[float64](2, n) }

// NewDim returns a zero-filled float64 grid of the given dimension (2 or 3)
// and side n, the constructor used by dimension-generic layers.
func NewDim(dim, n int) *Grid { return NewOf[float64](dim, n) }

// FromSlice wraps an existing slice in grid layout (row-major; plane-major,
// then row-major in 3D) as a float64 grid of the given dimension (2 or 3) and
// side n. The grid aliases data; mutations are visible both ways.
func FromSlice(dim, n int, data []float64) *Grid {
	points := n * n
	if dim == 3 {
		points *= n
	}
	if (dim != 2 && dim != 3) || n < 1 || len(data) != points {
		panic(fmt.Sprintf("grid: FromSlice: %d values are not a %dD grid of side %d", len(data), dim, n))
	}
	return &Grid{n: n, dim: dim, data: data}
}

// ConvertInto overwrites dst with src converted element-wise between
// precisions. Sizes and dimensions must match. Converting float64 → float32
// rounds to nearest; float32 → float64 is exact. Kept for `bench/`; goes
// with ROADMAP item 0's benchmark PR.
func ConvertInto[D, S Float](dst *G[D], src *G[S]) {
	if dst.n != src.n || dst.dim != src.dim {
		panic(fmt.Sprintf("grid: ConvertInto mismatch %dD/%d != %dD/%d", dst.dim, dst.n, src.dim, src.n))
	}
	dd, sd := dst.data, src.data
	for i, v := range sd {
		dd[i] = D(v)
	}
}

// Bits reports the storage width of T in bits (32 or 64), the precision tag
// of benchmark cell labels. Kept for `bench/`; goes with ROADMAP item 0's
// benchmark PR.
func Bits[T Float]() int {
	var z T
	if _, is32 := any(z).(float32); is32 {
		return 32
	}
	return 64
}

// N returns the number of points per side.
func (g *G[T]) N() int { return g.n }

// Dim returns the grid's spatial dimension (2 or 3).
func (g *G[T]) Dim() int { return g.dim }

// Points returns the total number of grid points (N² or N³).
func (g *G[T]) Points() int { return len(g.data) }

// Data returns the backing flat slice. The slice aliases the grid.
func (g *G[T]) Data() []T { return g.data }

// mustDim panics unless the grid has the expected dimension — the explicit
// guard that turns a mixed-dimension bug into an error instead of silent
// index corruption.
func (g *G[T]) mustDim(want int, what string) {
	if g.dim != want {
		panic(fmt.Sprintf("grid: %s needs a %dD grid, got %dD (N=%d)", what, want, g.dim, g.n))
	}
}

// At returns the value at row i, column j (2D only).
func (g *G[T]) At(i, j int) T {
	g.mustDim(2, "At")
	return g.data[i*g.n+j]
}

// Set stores v at row i, column j (2D only).
func (g *G[T]) Set(i, j int, v T) {
	g.mustDim(2, "Set")
	g.data[i*g.n+j] = v
}

// Set3 stores v at plane i, row j, column k (3D only).
func (g *G[T]) Set3(i, j, k int, v T) {
	g.mustDim(3, "Set3")
	g.data[(i*g.n+j)*g.n+k] = v
}

// Row returns the i-th row as a sub-slice aliasing the grid (2D only).
func (g *G[T]) Row(i int) []T {
	g.mustDim(2, "Row")
	return g.data[i*g.n : (i+1)*g.n]
}

// Plane returns the i-th n×n plane as a sub-slice aliasing the grid
// (3D only).
func (g *G[T]) Plane(i int) []T {
	g.mustDim(3, "Plane")
	n2 := g.n * g.n
	return g.data[i*n2 : (i+1)*n2]
}

// Row3 returns row (i, j) of a 3D grid as a sub-slice aliasing the grid.
func (g *G[T]) Row3(i, j int) []T {
	g.mustDim(3, "Row3")
	base := (i*g.n + j) * g.n
	return g.data[base : base+g.n]
}

// Clone returns a deep copy of g.
func (g *G[T]) Clone() *G[T] {
	c := NewOf[T](g.dim, g.n)
	copy(c.data, g.data)
	return c
}

// CopyFrom overwrites g with the contents of src. Sizes and dimensions must
// match.
func (g *G[T]) CopyFrom(src *G[T]) {
	if g.n != src.n || g.dim != src.dim {
		panic(fmt.Sprintf("grid: CopyFrom mismatch %dD/%d != %dD/%d", g.dim, g.n, src.dim, src.n))
	}
	copy(g.data, src.data)
}

// Fill sets every entry of g to v.
func (g *G[T]) Fill(v T) {
	for i := range g.data {
		g.data[i] = v
	}
}

// Zero sets every entry of g to zero.
func (g *G[T]) Zero() { g.Fill(0) }

// zeroBoundary2 zeroes the border of one n×n plane stored at p.
func zeroBoundary2[T Float](p []T, n int) {
	for j := 0; j < n; j++ {
		p[j], p[(n-1)*n+j] = 0, 0
	}
	for i := 1; i < n-1; i++ {
		p[i*n] = 0
		p[i*n+n-1] = 0
	}
}

// ZeroBoundary zeroes the border entries (the 2D frame or the six 3D
// faces), leaving the interior intact.
func (g *G[T]) ZeroBoundary() {
	n := g.n
	if g.dim == 3 {
		first, last := g.Plane(0), g.Plane(n-1)
		for i := range first {
			first[i], last[i] = 0, 0
		}
		for i := 1; i < n-1; i++ {
			zeroBoundary2(g.Plane(i), n)
		}
		return
	}
	zeroBoundary2(g.data, n)
}

// Level returns k such that n = 2^k + 1, or -1 if n is not of that form.
func Level(n int) int {
	m := n - 1
	if m < 2 || m&(m-1) != 0 {
		return -1
	}
	k := 0
	for m > 1 {
		m >>= 1
		k++
	}
	return k
}

// SizeOfLevel returns the grid side length N = 2^k + 1 for level k ≥ 1.
func SizeOfLevel(k int) int {
	if k < 1 || k > 30 {
		panic(fmt.Sprintf("grid: invalid level %d", k))
	}
	return (1 << uint(k)) + 1
}

// Coarsen returns the side length of the next-coarser multigrid level,
// (n+1)/2, panicking unless n = 2^k + 1 with k ≥ 2.
func Coarsen(n int) int {
	if Level(n) < 2 {
		panic(fmt.Sprintf("grid: cannot coarsen size %d", n))
	}
	return (n + 1) / 2
}
