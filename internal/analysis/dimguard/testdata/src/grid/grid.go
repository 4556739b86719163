// Package grid is a dimguard fixture dependency: the constructor and
// accessor surface of the real grid package, with the same 2D/3D split.
package grid

type G struct {
	dim, n int
	data   []float64
}

func New(n int) *G                         { return &G{dim: 2, n: n} }
func New3(n int) *G                        { return &G{dim: 3, n: n} }
func NewDim(dim, n int) *G                 { return &G{dim: dim, n: n} }
func FromSlice(dim, n int, s []float64) *G { return &G{dim: dim, n: n, data: s} }

func (g *G) At(i, j int) float64     { return 0 }
func (g *G) Set(i, j int, v float64) {}
func (g *G) Row(i int) []float64     { return nil }

func (g *G) At3(i, j, k int) float64     { return 0 }
func (g *G) Set3(i, j, k int, v float64) {}
func (g *G) Row3(i, j int) []float64     { return nil }
func (g *G) Plane(i int) []float64       { return nil }

func (g *G) N() int   { return g.n }
func (g *G) Dim() int { return g.dim }
