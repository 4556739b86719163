package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"pbmg"
	"pbmg/internal/grid"
	"pbmg/internal/mixload"
)

// The serve experiment is the per-PR serving-path tracker: it builds a
// multi-family Registry on the deterministic harpertown cost model (so the
// tuned tables are reproducible), then wall-clock measures a mixed workload
// — concurrent clients issuing requests round-robin across the served
// families through the shared admission limit. With -json the result also
// lands in BENCH_serve.json so successive PRs can diff the serving
// trajectory; the per-family request counts are deterministic, the wall
// times are the host's.

// serveLevelCap bounds the 2D request size of the serve benchmark (N=65):
// the point is routing/admission overhead and mixed-family cache behavior,
// not big-grid kernels, which BENCH_<family>.json already tracks.
const serveLevelCap = 6

// serve3DSize is the 3D request side of the benchmark.
const serve3DSize = 17

// serveFamilyCell is one family's share of the mixed workload.
type serveFamilyCell struct {
	Family       string  `json:"family"`
	Eps          float64 `json:"eps,omitempty"`
	Dim          int     `json:"dim"`
	N            int     `json:"n"`
	Requests     int     `json:"requests"`
	SolvesPerSec float64 `json:"solvesPerSec"`
	P50NS        int64   `json:"p50Ns"`
	P90NS        int64   `json:"p90Ns"`
	P99NS        int64   `json:"p99Ns"`
	MaxNS        int64   `json:"maxNs"`
}

// serveReport is the machine-readable mixed-workload baseline.
type serveReport struct {
	Families     []serveFamilyCell `json:"families"`
	Clients      int               `json:"clients"`
	Requests     int               `json:"requests"`
	MaxInFlight  int               `json:"maxInFlight"`
	Workers      int               `json:"workers"`
	Acc          float64           `json:"acc"`
	WallNS       int64             `json:"wallNs"`
	SolvesPerSec float64           `json:"solvesPerSec"`
	// Steals is the shared worker pool's successful-steal count across the
	// run — scheduler visibility (0 for serial runs).
	Steals  int64  `json:"steals"`
	Machine string `json:"machine"`
	GoOS    string `json:"goos"`
	GoArch  string `json:"goarch"`
}

// runServe tunes a registry for the requested families and drives the mixed
// workload, optionally writing BENCH_serve.json.
func runServe(familiesSpec string, level, workers int, seed int64, writeJSON bool, logf func(string, ...any)) error {
	keys, err := pbmg.ParseFamilySpecs(familiesSpec)
	if err != nil {
		return err
	}
	if level > serveLevelCap {
		level = serveLevelCap
	}
	n2 := grid.SizeOfLevel(level)

	r := pbmg.NewRegistry(pbmg.RegistryOptions{Workers: workers})
	defer r.Close()
	for _, k := range keys {
		size := n2
		if k.Dim == 3 {
			size = serve3DSize
		}
		if logf != nil {
			logf("serve: tuning %s for N=%d", k, size)
		}
		if _, err := r.Tune(pbmg.Options{
			MaxSize: size, Family: k.Family, Epsilon: k.Epsilon,
			Machine: "intel-harpertown", Seed: seed, Logf: logf,
		}); err != nil {
			return err
		}
	}
	services := r.Services()

	const clients = 8
	const acc = 1e5
	const perFamilyRequests = 80
	total := perFamilyRequests * len(services)
	reqN := make([]int, len(services))
	for i, svc := range services {
		reqN[i] = n2
		if svc.Solver().Dim() == 3 {
			reqN[i] = serve3DSize
		}
	}

	// Mixed workload: clients issue requests round-robin across the families
	// from a pre-drawn per-family problem rotation, all through the shared
	// admission limit.
	res, err := mixload.Run(mixload.Options{
		Services: services,
		ReqN:     reqN,
		Clients:  clients,
		Requests: total,
		Acc:      acc,
		Dist:     pbmg.Unbiased,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	elapsed := res.Elapsed
	n := len(res.All)

	rep := serveReport{
		Clients:      clients,
		Requests:     n,
		MaxInFlight:  r.MaxInFlight(),
		Workers:      workers,
		Acc:          acc,
		WallNS:       elapsed.Nanoseconds(),
		SolvesPerSec: float64(n) / elapsed.Seconds(),
		Machine:      "intel-harpertown",
		GoOS:         runtime.GOOS,
		GoArch:       runtime.GOARCH,
	}
	fmt.Printf("serve: %d families, %d clients, ≤%d in flight, %d kernel workers\n",
		len(services), clients, r.MaxInFlight(), workers)
	fmt.Printf("%-14s %6s %8s %12s %12s %12s %12s\n", "family", "N", "reqs", "p50", "p90", "p99", "solves/s")
	for fi, svc := range services {
		ls := res.PerFamily[fi]
		cell := serveFamilyCell{
			Family:       svc.Family().String(),
			Dim:          svc.Solver().Dim(),
			N:            reqN[fi],
			Requests:     len(ls),
			SolvesPerSec: float64(len(ls)) / elapsed.Seconds(),
			P50NS:        mixload.Percentile(ls, 0.50).Nanoseconds(),
			P90NS:        mixload.Percentile(ls, 0.90).Nanoseconds(),
			P99NS:        mixload.Percentile(ls, 0.99).Nanoseconds(),
			MaxNS:        ls[len(ls)-1].Nanoseconds(),
		}
		if pbmg.FamilyHasParam(svc.Family()) {
			cell.Eps = svc.Epsilon()
		}
		rep.Families = append(rep.Families, cell)
		fmt.Printf("%-14s %6d %8d %12v %12v %12v %12.1f\n",
			svc.Key(), cell.N, cell.Requests,
			time.Duration(cell.P50NS), time.Duration(cell.P90NS), time.Duration(cell.P99NS),
			cell.SolvesPerSec)
	}
	fmt.Printf("aggregate: %d solves in %v, %.1f solves/sec\n",
		n, elapsed.Round(time.Millisecond), rep.SolvesPerSec)

	m := r.Metrics()
	if m.Aggregate.Completed != int64(n) || m.Aggregate.Failed != 0 || m.Aggregate.Shed != 0 {
		return fmt.Errorf("serve: registry metrics disagree with workload: %+v for %d solves", m.Aggregate, n)
	}
	rep.Steals = r.PoolSteals()

	if writeJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_serve.json", append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote BENCH_serve.json")
	}
	return nil
}
