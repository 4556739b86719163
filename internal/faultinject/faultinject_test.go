//go:build faultinject

package faultinject

import (
	"strings"
	"testing"
	"time"
)

// The registry is process-global, so every test clears it on the way in and
// out; the package's tests run sequentially within the test binary.

func reset(t *testing.T) {
	t.Helper()
	Clear()
	t.Cleanup(Clear)
}

func TestPointPanicAfterCount(t *testing.T) {
	reset(t)
	// Skip 2 hits, then fire at most once.
	Arm("p", Fault{Kind: KindPanic, After: 2, Count: 1})
	fired := 0
	hit := func() {
		defer func() {
			if recover() != nil {
				fired++
			}
		}()
		Point("p")
	}
	for i := 0; i < 6; i++ {
		hit()
	}
	if fired != 1 {
		t.Fatalf("after=2,count=1 fired %d times over 6 hits, want 1", fired)
	}

	// Count ≤ 0 fires on every hit past After.
	Clear()
	Arm("p", Fault{Kind: KindPanic, After: 1})
	fired = 0
	for i := 0; i < 4; i++ {
		hit()
	}
	if fired != 3 {
		t.Fatalf("after=1 unbounded fired %d times over 4 hits, want 3", fired)
	}
}

func TestPointDelaySleeps(t *testing.T) {
	reset(t)
	Arm("d", Fault{Kind: KindDelay, Delay: 30 * time.Millisecond})
	start := time.Now()
	Point("d")
	if took := time.Since(start); took < 25*time.Millisecond {
		t.Fatalf("armed delay slept only %v", took)
	}
	// A point of another name is untouched.
	start = time.Now()
	Point("other")
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Fatalf("unarmed point slept %v", took)
	}
}

func TestPointLevelFilter(t *testing.T) {
	reset(t)
	Arm("nan", Fault{Kind: KindNaN, Level: 4})
	if PointLevel("nan", 3) {
		t.Error("level-4 fault fired at level 3")
	}
	if !PointLevel("nan", 4) {
		t.Error("level-4 fault did not fire at level 4")
	}
	// The zero Level means any level.
	Clear()
	Arm("nan", Fault{Kind: KindNaN})
	if !PointLevel("nan", 2) || !PointLevel("nan", 7) {
		t.Error("any-level fault filtered by level")
	}
	// A non-nan fault never answers PointLevel.
	Clear()
	Arm("nan", Fault{Kind: KindPanic})
	if PointLevel("nan", 4) {
		t.Error("panic fault answered PointLevel")
	}
}

func TestPointErr(t *testing.T) {
	reset(t)
	if err := PointErr("e"); err != nil {
		t.Fatalf("unarmed PointErr = %v", err)
	}
	Arm("e", Fault{Kind: KindError, Count: 1})
	err := PointErr("e")
	if err == nil || !strings.Contains(err.Error(), "injected error at e") {
		t.Fatalf("armed PointErr = %v", err)
	}
	if err := PointErr("e"); err != nil {
		t.Fatalf("count=1 error fired twice: %v", err)
	}
}

func TestArmSpec(t *testing.T) {
	reset(t)
	err := ArmSpec("stencil.sweep:delay,delay=50ms; mg.cycle:panic,count=1,after=2;serve.reload:error;mg.cycle.nan:nan,level=5")
	if err != nil {
		t.Fatal(err)
	}
	names := Armed()
	if len(names) != 4 {
		t.Fatalf("Armed() = %v, want 4 faults", names)
	}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, want := range []string{"stencil.sweep", "mg.cycle", "serve.reload", "mg.cycle.nan"} {
		if !got[want] {
			t.Errorf("Armed() missing %q: %v", want, names)
		}
	}
	// The parsed fields drive behavior: level filtering and the error kind.
	if PointLevel("mg.cycle.nan", 4) {
		t.Error("level=5 fault fired at level 4")
	}
	if !PointLevel("mg.cycle.nan", 5) {
		t.Error("level=5 fault did not fire at level 5")
	}
	if err := PointErr("serve.reload"); err == nil {
		t.Error("spec-armed error fault did not fire")
	}
}

func TestArmSpecErrors(t *testing.T) {
	reset(t)
	for _, bad := range []string{
		"",                        // no faults at all
		"  ;  ",                   // only separators
		"noseparator",             // missing :kind
		"p:frobnicate",            // unknown kind
		"p:panic,count",           // key without value
		"p:panic,count=x",         // bad int
		"p:delay,delay=fast",      // bad duration
		"p:panic,unknownkey=1",    // unknown key
		"ok:panic;bad:frobnicate", // all-or-nothing: one bad item
	} {
		if err := ArmSpec(bad); err == nil {
			t.Errorf("ArmSpec(%q) accepted", bad)
		}
		if n := Armed(); len(n) != 0 {
			t.Fatalf("ArmSpec(%q) armed %v despite failing", bad, n)
		}
	}
}
