// Quickstart: tune a solver for this machine, list the accuracy targets it
// was tuned for, solve a random Poisson problem at two of them under a
// deadline, and show the tuned cycle shapes.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"pbmg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	const size = 129 // grid side, 2^7 + 1

	// Tune for the host machine. In a real deployment you would do this
	// once and Save/Load the configuration.
	start := time.Now()
	solver, err := pbmg.Tune(pbmg.Options{
		MaxSize:      size,
		Distribution: pbmg.Unbiased,
		Workers:      runtime.NumCPU(),
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()
	fmt.Printf("tuned for %s up to N=%d in %v\n\n", solver.Machine(), size, time.Since(start).Round(time.Millisecond))

	// A random problem from the paper's unbiased distribution.
	p := pbmg.NewProblem(size, pbmg.Unbiased, 42)
	pbmg.Reference(p) // compute the exact solution so we can grade ourselves

	// The tables hold one tuned algorithm per accuracy target; a request is
	// served by the smallest target that meets it.
	fmt.Printf("tuned accuracy targets: %g\n", solver.Accuracies())

	for _, accuracy := range []float64{1e3, 1e9} {
		x := p.NewState()
		// A deadline bounds the solve: once it passes, SolveContext aborts
		// within about one cycle with an error wrapping pbmg.ErrCancelled.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start = time.Now()
		err := solver.SolveContext(ctx, x, p.B, accuracy)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("accuracy %8.0e: solved in %10v, achieved %.3g\n",
			accuracy, elapsed.Round(time.Microsecond), p.AccuracyOf(x))
	}

	// The tuned algorithm is a cycle shape, not a fixed V: show how it
	// differs between a crude and a precise solve.
	fmt.Println("\ntuned cycle for accuracy 1e3 (o relax, \\ restrict, / interpolate, D direct, ~k~ SOR):")
	shape, err := solver.CycleShape(size, 1e3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(shape)
	fmt.Println("\ntuned cycle for accuracy 1e9:")
	if shape, err = solver.CycleShape(size, 1e9); err != nil {
		log.Fatal(err)
	}
	fmt.Print(shape)
}
