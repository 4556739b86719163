// Electrostatics: compute the potential field of point charges in a
// grounded box — one of the physical processes Poisson's equation describes
// (§2 of the paper) — with a solver tuned on point-source training data,
// shaped like the workload.
//
// The domain is the unit square with the boundary held at zero potential
// (a grounded box); charges appear as point sources in the right-hand side.
//
// Run with:
//
//	go run ./examples/electrostatics
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"pbmg"
)

const size = 129

// charge is a point charge at grid coordinates (i, j).
type charge struct {
	i, j int
	q    float64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("electrostatics: ")

	charges := []charge{
		{i: size / 4, j: size / 4, q: +1},
		{i: 3 * size / 4, j: 3 * size / 4, q: +1},
		{i: size / 4, j: 3 * size / 4, q: -1},
		{i: 3 * size / 4, j: size / 4, q: -1},
	}
	// Assemble −∇²φ = ρ: charges become delta functions scaled by cell area.
	b := pbmg.NewGrid(size)
	h := 1.0 / float64(size-1)
	for _, c := range charges {
		b.Set(c.i, c.j, c.q/(h*h))
	}

	solver, err := pbmg.Tune(pbmg.Options{
		MaxSize:      size,
		Distribution: pbmg.PointSources, // train on data shaped like the workload
		Workers:      runtime.NumCPU(),
		Seed:         3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()

	phi := pbmg.NewGrid(size) // zero boundary: grounded box
	start := time.Now()
	if err := solver.Solve(phi, b, 1e7); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved %d-charge potential on %dx%d grid in %v\n",
		len(charges), size, size, time.Since(start).Round(time.Microsecond))

	// Sanity physics: the potential must peak near the positive charges and
	// dip near the negative ones.
	fmt.Println("\npotential along the main diagonal (+q at 1/4, −q region influence visible):")
	for frac := 1; frac <= 7; frac++ {
		i := frac * size / 8
		fmt.Printf("  φ(%.3f, %.3f) = %+.4f\n", float64(i)*h, float64(i)*h, phi.At(i, i))
	}
	quadrupole := phi.At(size/4, size/4) - phi.At(size/4, 3*size/4)
	if quadrupole <= 0 {
		log.Fatal("potential does not separate positive and negative charges")
	}

	// Render a coarse contour map of the field.
	fmt.Println("\nfield map (+/− is sign, letter depth is magnitude):")
	max := 0.0
	for _, v := range phi.Data() {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	const rows = 17
	for r := 0; r < rows; r++ {
		i := r * (size - 1) / (rows - 1)
		line := make([]byte, 0, 2*rows)
		for c := 0; c < rows; c++ {
			j := c * (size - 1) / (rows - 1)
			v := phi.At(i, j) / max
			line = append(line, glyph(v), ' ')
		}
		fmt.Printf("  %s\n", line)
	}
}

// glyph maps a normalized potential to a character.
func glyph(v float64) byte {
	a := math.Abs(v)
	var depth byte
	switch {
	case a < 0.02:
		return '.'
	case a < 0.1:
		depth = 'a'
	case a < 0.3:
		depth = 'b'
	default:
		depth = 'c'
	}
	if v > 0 {
		return depth - 'a' + 'A'
	}
	return depth
}
