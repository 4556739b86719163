package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"pbmg/internal/stencil"
)

// sharedEntry reports whether the shared-operator index holds an entry for
// key, live or awaiting its cleanup.
func sharedEntry(key opKey) bool {
	operatorsMu.Lock()
	defer operatorsMu.Unlock()
	_, ok := liveOperators[key]
	return ok
}

func mustShared(t *testing.T, f stencil.Family, eps float64, n int) *stencil.Operator {
	t.Helper()
	op, err := SharedOperator(f, eps, n)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestSharedOperatorIsItsKey: equal keys give one pointer, a different N or
// σ another; the size-independent families share across N, the Poisson
// operators are the package singletons, and an operator on a caller's own
// field is never the shared one.
func TestSharedOperatorIsItsKey(t *testing.T) {
	a := mustShared(t, stencil.FamilyVarCoef, 2, 33)
	if b := mustShared(t, stencil.FamilyVarCoef, 2, 33); b != a {
		t.Error("two calls for varcoef(σ=2, N=33) returned different operators")
	}
	if b := mustShared(t, stencil.FamilyVarCoef, 2, 65); b == a {
		t.Error("varcoef at N=65 shares the N=33 operator")
	}
	if b := mustShared(t, stencil.FamilyVarCoef, 1.5, 33); b == a {
		t.Error("varcoef σ=1.5 shares the σ=2 operator")
	}
	own := stencil.VarCoefOperator(stencil.CoefField(33, 2), 2)
	if own == a {
		t.Error("an operator on a caller's own field is the shared one")
	}
	if b := mustShared(t, stencil.FamilyVarCoef, 2, 33); b != a {
		t.Error("building an operator on a caller's own field replaced the shared one")
	}

	an := mustShared(t, stencil.FamilyAnisotropic, 0.1, 33)
	if b := mustShared(t, stencil.FamilyAnisotropic, 0.1, 129); b != an {
		t.Error("aniso(ε=0.1) at N=129 is not the N=33 operator: it is valid at every size")
	}
	if b := mustShared(t, stencil.FamilyAnisotropic, 0.01, 33); b == an {
		t.Error("aniso ε=0.01 shares the ε=0.1 operator")
	}
	if p := mustShared(t, stencil.FamilyPoisson, 0, 33); p != stencil.Poisson() {
		t.Error("poisson is not the package singleton")
	}
	if p := mustShared(t, stencil.FamilyPoisson3D, 0, 17); p != stencil.Poisson3D() {
		t.Error("poisson3d is not the package singleton")
	}
	for _, bad := range []struct {
		f   stencil.Family
		eps float64
		n   int
	}{{stencil.FamilyVarCoef, 0, 33}, {stencil.FamilyVarCoef, 2, 30}, {stencil.FamilyAnisotropic, -1, 33}} {
		if _, err := SharedOperator(bad.f, bad.eps, bad.n); err == nil {
			t.Errorf("SharedOperator(%v, %g, %d) succeeded", bad.f, bad.eps, bad.n)
		}
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(an)
}

// TestSharedOperatorDiesWithLastHolder: the index never keeps an operator
// alive. Once the last holder drops it and a collection runs, its cleanup
// removes the entry, and the next call builds a fresh operator.
func TestSharedOperatorDiesWithLastHolder(t *testing.T) {
	const sigma, n = 2.75, 17 // a key no other test uses
	key := opKey{f: stencil.FamilyVarCoef, eps: sigma, n: n}
	func() {
		op := mustShared(t, stencil.FamilyVarCoef, sigma, n)
		op.At(5) // build the coarse hierarchy too
		if !sharedEntry(key) {
			t.Fatal("no index entry for a live shared operator")
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sharedEntry(key) {
		if time.Now().After(deadline) {
			t.Fatal("index entry still present 5s after its operator's last holder let go")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if op := mustShared(t, stencil.FamilyVarCoef, sigma, n); !sharedEntry(key) || op == nil {
		t.Error("a rebuilt operator has no index entry")
	}
}

// TestSharedOperatorConcurrentFirstCalls: goroutines racing the first call
// for one key all get the one operator built.
func TestSharedOperatorConcurrentFirstCalls(t *testing.T) {
	const sigma, n, racers = 3.25, 65, 8 // a key no other test uses
	ops := make([]*stencil.Operator, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			op, err := SharedOperator(stencil.FamilyVarCoef, sigma, n)
			if err != nil {
				t.Error(err)
				return
			}
			ops[i] = op
		}()
	}
	close(start)
	wg.Wait()
	for i, op := range ops {
		if op == nil || op != ops[0] {
			t.Fatalf("racer %d got operator %p, racer 0 got %p", i, op, ops[0])
		}
	}
}
