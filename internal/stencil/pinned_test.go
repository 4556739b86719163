package stencil

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// TestCycleKernelBitsPinned holds every cycle entry point to the bits it
// produced when testdata/cycle_bits.txt was recorded: the other suites prove
// the drivers agree with each other and with the oracles in one build; this
// one proves a kernel rewrite moved no bit across commits. One line of the
// table is FNV-64a over the outputs (x, r, coarse, norm — whichever the entry
// point has) of one entry point × family × N × precision, folded over the
// four weights of pinnedOmegas; the serial driver and a 3-worker pool must
// both reproduce it. Inputs come from a generator written out below (no
// math/rand, no libm), carry a non-zero Dirichlet boundary, and every output
// grid starts dirty.
//
// The table holds for builds that round every product before adding (the
// amd64 default); where the compiler fuses multiply-adds the test skips.
// Regenerate — only for a change that means to move bits — with
//
//	go test ./internal/stencil -run TestCycleKernelBitsPinned -update-cycle-bits

var updateCycleBits = flag.Bool("update-cycle-bits", false, "rewrite testdata/cycle_bits.txt from the current kernels")

const cycleBitsFile = "testdata/cycle_bits.txt"

var pinnedOmegas = []float64{0.8, 1, 1 + 5e-4, 1.15}

// splitmix is the input generator: SplitMix64, uniform in [−1, 1).
type splitmix uint64

func (s *splitmix) next() float64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return 2*(float64(z>>11)/(1<<53)) - 1
}

// randomOf fills a fresh grid, boundary included, from s.
func randomOf[T grid.Float](s *splitmix, dim, n int) *grid.G[T] {
	g := grid.NewOf[T](dim, n)
	for i := range g.Data() {
		g.Data()[i] = T(s.next())
	}
	return g
}

// pinnedFamilies builds the four operators from generated data only: the
// variable coefficient field is 1 + u/2 per node, not CoefField's exp·sin.
func pinnedFamilies() []fusedCase {
	return []fusedCase{
		{"poisson", func(int) *Operator { return Poisson() }, []int{5, 9, 17, 33, 65}, 2},
		{"aniso", func(int) *Operator { return Anisotropic(0.01) }, []int{5, 9, 17, 33, 65}, 2},
		{"varcoef", func(n int) *Operator {
			s := splitmix(n)
			c := randomOf[float64](&s, 2, n)
			for i, v := range c.Data() {
				c.Data()[i] = 1 + v/2
			}
			return VarCoefOperator(c, 0)
		}, []int{5, 9, 17, 33, 65}, 2},
		{"poisson3d", func(int) *Operator { return Poisson3D() }, []int{5, 9, 17, 33}, 3},
	}
}

// fusesMulAdd reports whether this build contracts x*y + z into one rounding.
//
//go:noinline
func fusesMulAdd(x, y, z float64) bool { return x*y+z != float64(x*y)+z }

type bitsHash struct{ h hash.Hash64 }

func (b bitsHash) float(v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	b.h.Write(buf[:])
}

func hashGrid[T grid.Float](b bitsHash, g *grid.G[T]) {
	for _, v := range g.Data() {
		b.float(float64(v)) // exact for float32, so distinct bits stay distinct
	}
}

// cycleBits runs every entry point on one family × N at precision T and
// returns its hashes by entry-point name.
func cycleBits[T grid.Float](op *Operator, dim, n int, pool *sched.Pool) map[string]uint64 {
	const junk = 7
	src := splitmix(1000*n + dim)
	nc := grid.Coarsen(n)
	x0, b, cx := randomOf[T](&src, dim, n), randomOf[T](&src, dim, n), randomOf[T](&src, dim, nc)
	dirty := func(side int) *grid.G[T] { return filledOf[T](dim, side, junk) }
	h := T(1 / float64(n-1))

	entries := []struct {
		name string
		run  func(bh bitsHash, omega T)
	}{
		{"OpSORSweepRB", func(bh bitsHash, omega T) {
			x := x0.Clone()
			OpSORSweepRB(op, pool, x, b, h, omega)
			hashGrid(bh, x)
		}},
		{"OpSmoothResidualRestrict", func(bh bitsHash, omega T) {
			x, r, coarse := x0.Clone(), dirty(n), dirty(nc)
			OpSmoothResidualRestrict(op, pool, coarse, x, b, r, h, omega)
			hashGrid(bh, x)
			hashGrid(bh, r)
			hashGrid(bh, coarse)
		}},
		{"OpResidualRestrict", func(bh bitsHash, _ T) {
			coarse := dirty(nc)
			OpResidualRestrict(op, pool, coarse, x0, b, dirty(n), dirty(n), h)
			hashGrid(bh, coarse)
		}},
		{"OpUpstroke", func(bh bitsHash, omega T) {
			x := x0.Clone()
			OpUpstroke(op, pool, x, b, cx, dirty(n), h, omega)
			hashGrid(bh, x)
		}},
		{"OpInterpolateCorrectSmooth+OpFinishSmooth", func(bh bitsHash, omega T) {
			x := x0.Clone()
			OpInterpolateCorrectSmooth(op, pool, x, b, cx, h, omega)
			hashGrid(bh, x)
			OpFinishSmooth(op, pool, x, b, h, omega)
			hashGrid(bh, x)
		}},
		{"OpResidualNorm", func(bh bitsHash, _ T) {
			bh.float(OpResidualNorm(op, pool, x0, b, h))
		}},
		{"OpResidual", func(bh bitsHash, _ T) {
			r := dirty(n)
			OpResidual(op, pool, r, x0, b, h)
			hashGrid(bh, r)
		}},
	}
	got := make(map[string]uint64, len(entries))
	for _, e := range entries {
		bh := bitsHash{fnv.New64a()}
		for _, omega := range pinnedOmegas {
			e.run(bh, T(omega))
		}
		got[e.name] = bh.h.Sum64()
	}
	return got
}

func TestCycleKernelBitsPinned(t *testing.T) {
	if fusesMulAdd(1+0x1p-30, 1+0x1p-30, -1) {
		t.Skip("this build fuses multiply-adds; the table was recorded with every product rounded")
	}
	pool := sched.NewPool(3)
	defer pool.Close()

	got := make(map[string]uint64)
	for _, fam := range pinnedFamilies() {
		for _, n := range fam.ns {
			op := fam.mk(n)
			for _, prec := range []string{"f64", "f32"} {
				run := cycleBits[float64]
				if prec == "f32" {
					run = cycleBits[float32]
				}
				serial, pooled := run(op, fam.dim, n, nil), run(op, fam.dim, n, pool)
				for entry, bits := range serial {
					key := fmt.Sprintf("%s %s n=%d %s", entry, fam.name, n, prec)
					if pooled[entry] != bits {
						t.Errorf("%s: serial %016x, 3 workers %016x", key, bits, pooled[entry])
					}
					got[key] = bits
				}
			}
		}
	}

	if *updateCycleBits {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %016x\n", k, got[k])
		}
		if err := os.WriteFile(cycleBitsFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(keys), cycleBitsFile)
		return
	}

	f, err := os.Open(cycleBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		cut := strings.LastIndexByte(line, ' ')
		key, want := line[:cut], line[cut+1:]
		bits, ok := got[key]
		if !ok {
			t.Errorf("%s: in the table, not produced by this build", key)
			continue
		}
		seen++
		if have := fmt.Sprintf("%016x", bits); have != want {
			t.Errorf("%s: bits %s, recorded %s", key, have, want)
		}
	}
	if seen != len(got) {
		t.Errorf("table pins %d of the %d cases this build produces", seen, len(got))
	}
}
