package grid

import "math/rand"

// The paper trains and benchmarks on matrices whose entries are drawn
// uniformly from [−2³², 2³²] ("unbiased") or from the same distribution
// shifted by +2³¹ ("biased"). Entries populate the right-hand side b and
// the boundary of x (§4).

// UniformScale is the half-width 2³² of the paper's training distribution.
const UniformScale = 1 << 32

// BiasShift is the +2³¹ shift applied by the biased distribution.
const BiasShift = 1 << 31

// Distribution identifies one of the paper's two training distributions.
type Distribution int

const (
	// Unbiased draws uniformly from [−2³², 2³²].
	Unbiased Distribution = iota
	// Biased draws uniformly from [−2³²+2³¹, 2³²+2³¹].
	Biased
	// PointSources places a small number of random ±1 impulses, the third
	// distribution the paper experimented with (§4).
	PointSources
)

// String returns the distribution's name.
func (d Distribution) String() string {
	switch d {
	case Unbiased:
		return "unbiased"
	case Biased:
		return "biased"
	case PointSources:
		return "point-sources"
	default:
		return "unknown"
	}
}

// ParseDistribution returns the distribution whose String is s, and false
// for a name String does not produce. It returns no error: building one
// would add a heap escape to this kernel package (ESCAPES.allow), so
// pbmg.ParseDistribution words it.
func ParseDistribution(s string) (Distribution, bool) {
	for _, d := range []Distribution{Unbiased, Biased, PointSources} {
		if s == d.String() {
			return d, true
		}
	}
	return 0, false
}

// Sample draws one value from the distribution.
func (d Distribution) Sample(rng *rand.Rand) float64 {
	switch d {
	case Biased:
		return (rng.Float64()*2-1)*UniformScale + BiasShift
	default:
		return (rng.Float64()*2 - 1) * UniformScale
	}
}

// FillRandom fills every entry of g with samples from d.
func FillRandom(g *Grid, d Distribution, rng *rand.Rand) {
	if d == PointSources {
		fillPointSources(g, rng)
		return
	}
	data := g.Data()
	for i := range data {
		data[i] = d.Sample(rng)
	}
}

// FillBoundaryRandom fills only the border of g (the 2D frame or the six 3D
// faces) with samples from d, leaving the interior untouched.
func FillBoundaryRandom(g *Grid, d Distribution, rng *rand.Rand) {
	n := g.N()
	if g.Dim() == 3 {
		// Walk only the boundary points, in lexicographic (i, j, k) order:
		// the two full end planes, and per interior plane the first and last
		// rows plus the two end columns of each interior row.
		fillRow := func(row []float64) {
			for k := range row {
				row[k] = d.Sample(rng)
			}
		}
		fillRow(g.Plane(0))
		for i := 1; i < n-1; i++ {
			fillRow(g.Row3(i, 0))
			for j := 1; j < n-1; j++ {
				row := g.Row3(i, j)
				row[0] = d.Sample(rng)
				row[n-1] = d.Sample(rng)
			}
			fillRow(g.Row3(i, n-1))
		}
		fillRow(g.Plane(n - 1))
		return
	}
	for j := 0; j < n; j++ {
		g.Set(0, j, d.Sample(rng))
		g.Set(n-1, j, d.Sample(rng))
	}
	for i := 1; i < n-1; i++ {
		g.Set(i, 0, d.Sample(rng))
		g.Set(i, n-1, d.Sample(rng))
	}
}

// fillPointSources zeroes g then places ~sqrt(N) random point sources and
// sinks of magnitude 2³² in the interior.
func fillPointSources(g *Grid, rng *rand.Rand) {
	g.Zero()
	n := g.N()
	if n < 3 {
		return
	}
	k := 1
	for k*k < n {
		k++
	}
	for s := 0; s < k; s++ {
		i := 1 + rng.Intn(n-2)
		j := 1 + rng.Intn(n-2)
		v := float64(UniformScale)
		if rng.Intn(2) == 0 {
			v = -v
		}
		if g.Dim() == 3 {
			g.Set3(i, j, 1+rng.Intn(n-2), v)
		} else {
			g.Set(i, j, v)
		}
	}
}
