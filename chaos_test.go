//go:build faultinject

// Chaos suite: every injected failure mode from internal/faultinject,
// driven first in-process against the Solver/Service stack and then
// against a real mgserved process built with the faultinject tag. The
// scenarios solve at n=33 on purpose — the shared tuned table's n≤17
// plans are pure direct solves that execute no cycles, no SOR sweeps, and
// no pool checkouts, so none of the solver fault points would fire.
package pbmg

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pbmg/internal/faultinject"
	"pbmg/internal/mg"
)

// armFaults arms a spec with guaranteed cleanup; the registry is process
// global, so a leaked fault would poison every later test in the binary.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	faultinject.Clear()
	t.Cleanup(faultinject.Clear)
	if err := faultinject.ArmSpec(spec); err != nil {
		t.Fatal(err)
	}
}

// requireSnapshotting asserts the solver takes the per-solve escalation
// snapshot, so that the scratch ledger a chaos scenario checks afterwards
// (assertScratchClean) covers the snapshot's arena checkout too.
func requireSnapshotting(t *testing.T, s *Solver) {
	t.Helper()
	if !s.reducedPrec {
		t.Fatal("tuned table has no reduced-precision plan: solves take no snapshot and the scenario would not cover its release")
	}
}

func chaosProblem(t *testing.T, s *Solver, seed int64) *Problem {
	t.Helper()
	p, err := s.NewFamilyProblem(33, Unbiased, seed)
	if err != nil {
		t.Fatal(err)
	}
	Reference(p)
	return p
}

// TestChaosSlowKernelCancellation: a delay fault stretching every SOR
// sweep makes the solve overrun its context deadline; the solve aborts
// with ErrCancelled at the next cycle checkpoint and returns all pooled
// scratch.
func TestChaosSlowKernelCancellation(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	requireSnapshotting(t, s)
	p := chaosProblem(t, s, 51)

	// 10ms per sweep means the first cycle alone overruns the 30ms budget;
	// accuracy 1e9 wants several cycles, so a checkpoint runs after it.
	armFaults(t, "stencil.sweep:delay,delay=10ms")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.SolveContext(ctx, p.NewState(), p.B, 1e9)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("slow solve under a deadline: err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancellation cause lost: %v", err)
	}
	assertScratchClean(t, s, "after cancelled slow solve")

	faultinject.Clear()
	assertNextSolveClean(t, s, 52)
}

// TestChaosPoolStarvation: a delay fault on every scratch-pool checkout
// slows the solve but must not break it — the answer still converges and
// the scratch ledger still balances.
func TestChaosPoolStarvation(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	p := chaosProblem(t, s, 53)

	armFaults(t, "mg.pool.checkout:delay,delay=2ms")
	x := p.NewState()
	if err := s.SolveV(x, p.B, 1e3); err != nil {
		t.Fatalf("solve under pool starvation: %v", err)
	}
	if got := p.AccuracyOf(x); got < 1e3 {
		t.Errorf("starved solve accuracy %.3g, want ≥ 1e3", got)
	}
	assertScratchClean(t, s, "after starved solve")
}

// TestChaosNaNEscalation: a one-shot NaN poisoning of the V-cycle makes
// the float32-planned first attempt diverge; the solver escalates to
// float64 (where the spent fault no longer fires), completes, and counts
// one escalation.
func TestChaosNaNEscalation(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	requireSnapshotting(t, s)
	p := chaosProblem(t, s, 54)

	armFaults(t, "mg.cycle.nan:nan,count=1")
	before := s.Escalations()
	x := p.NewState()
	if err := s.SolveV(x, p.B, 1e3); err != nil {
		t.Fatalf("poisoned solve did not recover through escalation: %v", err)
	}
	if d := s.Escalations() - before; d != 1 {
		t.Errorf("escalations delta = %d, want 1", d)
	}
	if got := p.AccuracyOf(x); got < 1e3 {
		t.Errorf("escalated solve accuracy %.3g, want ≥ 1e3", got)
	}
	assertScratchClean(t, s, "after escalated solve")
}

// TestChaosEscalationRestartsFromCallerBits: mg.f32.nan poisons the first
// float32 cell of the solve, so the attempt diverges after scribbling on x
// and the solver escalates. The escalated answer must be, bit for bit, the
// forced-float64 solve of the caller's original state — i.e. the snapshot,
// which now lives in arena scratch that earlier solves left dirty, was
// restored exactly — and that scratch must be back in the arena.
func TestChaosEscalationRestartsFromCallerBits(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	requireSnapshotting(t, s)
	p := chaosProblem(t, s, 56)

	for _, acc := range s.Accuracies() {
		idx, err := s.accIndex(acc)
		if err != nil {
			t.Fatal(err)
		}
		want := p.NewState()
		ex := mg.Executor{WS: s.ws, V: s.tuned.V, F: s.tuned.F, ForceF64: true}
		if err := mg.Catch(func() { ex.SolveV(want, p.B, idx) }); err != nil {
			t.Fatal(err)
		}

		armFaults(t, "mg.f32.nan:nan,count=1")
		before := s.Escalations()
		x := p.NewState()
		if err := s.SolveV(x, p.B, acc); err != nil {
			t.Fatalf("acc %g: poisoned solve did not recover through escalation: %v", acc, err)
		}
		assertScratchClean(t, s, "after escalated solve")
		if s.Escalations() == before {
			continue // this accuracy's plan runs no float32 cell at n=33
		}
		for i, v := range x.Data() {
			if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("acc %g: escalated answer differs from the forced-float64 solve of the original state at %d: %v vs %v",
					acc, i, v, want.Data()[i])
			}
		}
		return
	}
	t.Fatal("no tuned accuracy runs a float32 cell at n=33: mg.f32.nan never fired")
}

// TestChaosServicePanic: an injected kernel panic surfaces from the
// Service as a typed PanicError, counts in the panic class, and leaves
// the service healthy for the next request.
func TestChaosServicePanic(t *testing.T) {
	s := tuneFamily(t, FamilyPoisson, 0)
	requireSnapshotting(t, s)
	sv := newService(s, 2, BreakerConfig{})
	p := chaosProblem(t, s, 55)

	armFaults(t, "mg.cycle:panic,count=1")
	err := sv.Do(context.Background(), func() error { return s.SolveV(p.NewState(), p.B, 1e3) })
	var pe *PanicError
	if !errors.As(err, &pe) || !errors.Is(err, ErrPanicked) {
		t.Fatalf("injected panic: err = %v, want PanicError", err)
	}
	if !strings.Contains(pe.Error(), "injected panic") {
		t.Errorf("panic error %q lost the injected payload", pe.Error())
	}
	m := sv.Metrics()
	if m.Panicked != 1 || m.Failed != 1 {
		t.Errorf("metrics after injected panic = %+v", m)
	}
	assertScratchClean(t, s, "after injected panic")

	x := p.NewState()
	if err := sv.Do(context.Background(), func() error { return s.SolveV(x, p.B, 1e3) }); err != nil {
		t.Fatalf("solve after contained panic: %v", err)
	}
	if got := p.AccuracyOf(x); got < 1e3 {
		t.Errorf("post-panic accuracy %.3g, want ≥ 1e3", got)
	}
}

// TestMGServedChaos drives the real daemon, built with the faultinject
// tag, through a kernel panic pre-armed via PBMG_FAULTS and a reload
// failure armed over POST /-/fault: the poisoned solve answers 500, the
// daemon survives to serve the next request, the broken reload leaves the
// catalog intact, and SIGTERM still drains cleanly.
func TestMGServedChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mgserved")
	cmd := exec.Command("go", "build", "-tags", "faultinject", "-o", bin, "./cmd/mgserved")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build mgserved -tags faultinject: %v\n%s", err, out)
	}

	tables := filepath.Join(dir, "tables")
	if err := os.Mkdir(tables, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tuneFamily(t, FamilyPoisson, 0).Save(filepath.Join(tables, "poisson.json")); err != nil {
		t.Fatal(err)
	}

	srv := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-configdir", tables, "-workers", "1",
		"-drain-timeout", "30s")
	srv.Env = append(os.Environ(), "PBMG_FAULTS=mg.cycle:panic,count=1")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	var addr string
	var logTail strings.Builder
	logLines := make(chan struct{})
	scanner := bufio.NewScanner(stderr)
	for scanner.Scan() {
		line := scanner.Text()
		if _, a, ok := strings.Cut(line, "listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatal("mgserved never reported its listen address")
	}
	go func() {
		defer close(logLines)
		for scanner.Scan() {
			logTail.WriteString(scanner.Text())
			logTail.WriteString("\n")
		}
	}()
	base := "http://" + addr

	solve := func(seed int64) int {
		t.Helper()
		p := chaosProblem(t, tuneFamily(t, FamilyPoisson, 0), seed)
		body, err := json.Marshal(map[string]any{
			"family": "poisson", "n": 33, "accuracy": 1e3,
			"b": p.B.Data(), "x": p.NewState().Data(),
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// The PBMG_FAULTS-armed panic kills the first solve with a 500 — and
	// only that solve: the daemon survives and the next request succeeds.
	if code := solve(61); code != http.StatusInternalServerError {
		t.Fatalf("pre-armed panic solve = %d, want 500", code)
	}
	if code := solve(62); code != http.StatusOK {
		t.Fatalf("solve after contained panic = %d, want 200", code)
	}

	// Readiness survived the contained panic.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after contained panic = %d, want 200", resp.StatusCode)
	}

	// Arm a reload failure over the chaos endpoint: the reload answers 409
	// and the old catalog keeps serving; with the fault spent, the next
	// reload lands.
	resp, err = http.Post(base+"/-/fault", "text/plain",
		strings.NewReader("serve.reload:error,count=1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arm fault = %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/-/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("broken reload = %d, want 409", resp.StatusCode)
	}
	if code := solve(63); code != http.StatusOK {
		t.Fatalf("solve on surviving catalog = %d, want 200", code)
	}
	resp, err = http.Post(base+"/-/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload after fault spent = %d, want 200", resp.StatusCode)
	}

	// After all that chaos, SIGTERM still drains cleanly.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-logLines
	if err := srv.Wait(); err != nil {
		t.Fatalf("mgserved exited uncleanly after SIGTERM: %v\n%s", err, logTail.String())
	}
	if !strings.Contains(logTail.String(), "drained cleanly") {
		t.Fatalf("drain not logged:\n%s", logTail.String())
	}
}
