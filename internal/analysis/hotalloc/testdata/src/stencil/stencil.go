// Package stencil is a hotalloc fixture: a miniature kernel layer whose
// root-named functions exercise every allocation class the analyzer flags
// and every exemption it grants.
package stencil

import "fmt"

type G struct {
	data []float64
	n    int
}

func (g *G) Row(i int) []float64 { return g.data[i*g.n : (i+1)*g.n] }

// SweepRed is a kernel root: direct allocations inside it are findings.
func SweepRed(g *G) {
	buf := make([]float64, g.n) // want "hotalloc: make call"
	_ = buf
	tmp := new(G) // want "hotalloc: new call"
	_ = tmp
	s := []float64{1, 2} // want "hotalloc: slice literal allocation"
	s = append(s, 3)     // want "hotalloc: append call"
	_ = s
	m := map[int]int{} // want "hotalloc: map literal allocation"
	_ = m
}

// SweepBlack reaches helper through the intra-package call graph, so
// helper's allocation is a finding attributed to this root.
func SweepBlack(g *G) { helper(g) }

func helper(g *G) {
	_ = make([]float64, 1) // want "hotalloc: make call"
}

// SweepFirst and SweepSecond both reach shared: its finding names the
// root declared first.
func SweepFirst(g *G) { shared(g) }

func SweepSecond(g *G) { shared(g) }

func shared(g *G) {
	_ = make([]float64, 2) // want "reachable from SweepFirst\\)"
}

// OpResidual returns its row closure: a per-invocation closure allocation.
func OpResidual(g *G) func(int) {
	return func(i int) { _ = g.Row(i) } // want "hotalloc: closure allocation"
}

// SweepLocal binds its closure to a local and calls it in place: the
// literal stays on the stack and is not flagged.
func SweepLocal(g *G) {
	f := func(i int) { _ = g.Row(i) }
	f(0)
}

// ResidualNorm calls fmt outside a panic: boxing its operands allocates.
func ResidualNorm(g *G) {
	fmt.Println(g.n) // want "hotalloc: fmt.Println call"
}

// SweepGuarded formats only inside a panic call: guard paths are cold and
// exempt.
func SweepGuarded(g *G) {
	if g.n < 3 {
		panic(fmt.Sprintf("stencil: side %d too small", g.n))
	}
}

// NormBox converts a concrete float to an interface: a boxing allocation.
// The any(x).(Y) probe two lines later is compiler-resolved and exempt.
func NormBox(g *G, x float64) any {
	v := any(x) // want "hotalloc: boxing conversion to interface"
	if f, ok := any(x).(float64); ok {
		_ = f
	}
	return v
}

// Scale converts to its type parameter: instantiates concrete, no boxing.
func Scale[T float64 | float32](v float64) T { return T(v) }

// Pack carries an allow annotation: suppressed with a recorded reason.
func Pack(g *G) {
	b := make([]float64, 4) //mglint:allow hotalloc — fixture: sanctioned setup buffer
	_ = b
}

// setup is not reachable from any kernel root, so it may allocate freely.
func setup(n int) *G {
	return &G{data: make([]float64, n*n), n: n}
}
