package stencil

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// indexed reports whether the operator index holds an entry for key, live
// or awaiting its cleanup.
func indexed(key operatorKey) bool {
	operatorsMu.Lock()
	defer operatorsMu.Unlock()
	_, ok := operators[key]
	return ok
}

// awaitDropped collects until key's entry is gone from the index: the
// operator's last holder has let go and its cleanup has run.
func awaitDropped(t *testing.T, key operatorKey) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for indexed(key) {
		if time.Now().After(deadline) {
			t.Fatalf("index entry for %+v still present 5s after its operator's last holder let go", key)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

func mustOperator(t *testing.T, f Family, eps float64, n int) *Operator {
	t.Helper()
	op, err := NewOperator(f, eps, n)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestNewOperatorIsItsKey: equal keys give one pointer, a different N or σ
// another; the size-independent families share across N, the Poisson
// operators are the package singletons, and an operator on a caller's own
// field is never the interned one.
func TestNewOperatorIsItsKey(t *testing.T) {
	a := mustOperator(t, FamilyVarCoef, 2, 33)
	if b := mustOperator(t, FamilyVarCoef, 2, 33); b != a {
		t.Error("two calls for varcoef(σ=2, N=33) returned different operators")
	}
	if b := mustOperator(t, FamilyVarCoef, 2, 65); b == a {
		t.Error("varcoef at N=65 shares the N=33 operator")
	}
	if b := mustOperator(t, FamilyVarCoef, 1.5, 33); b == a {
		t.Error("varcoef σ=1.5 shares the σ=2 operator")
	}
	own := VarCoefOperator(CoefField(33, 2), 2)
	if own == a {
		t.Error("an operator on a caller's own field is the interned one")
	}
	if b := mustOperator(t, FamilyVarCoef, 2, 33); b != a {
		t.Error("building an operator on a caller's own field replaced the interned one")
	}

	an := mustOperator(t, FamilyAnisotropic, 0.1, 33)
	if b := mustOperator(t, FamilyAnisotropic, 0.1, 129); b != an {
		t.Error("aniso(ε=0.1) at N=129 is not the N=33 operator: it is valid at every size")
	}
	if b := Anisotropic(0.1); b != an {
		t.Error("Anisotropic(0.1) is not NewOperator's aniso(ε=0.1)")
	}
	if b := mustOperator(t, FamilyAnisotropic, 0.01, 33); b == an {
		t.Error("aniso ε=0.01 shares the ε=0.1 operator")
	}
	if p := mustOperator(t, FamilyPoisson, 0, 33); p != Poisson() {
		t.Error("poisson is not the package singleton")
	}
	if p := mustOperator(t, FamilyPoisson3D, 0, 17); p != Poisson3D() {
		t.Error("poisson3d is not the package singleton")
	}
	for _, bad := range []struct {
		f   Family
		eps float64
		n   int
	}{{FamilyVarCoef, 0, 33}, {FamilyVarCoef, 2, 30}, {FamilyAnisotropic, -1, 33}} {
		if _, err := NewOperator(bad.f, bad.eps, bad.n); err == nil {
			t.Errorf("NewOperator(%v, %g, %d) succeeded", bad.f, bad.eps, bad.n)
		}
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(an)
}

// TestNewOperatorDiesWithLastHolder: the index never keeps an operator
// alive, nor a coarse level past the finer operator that holds it. Once
// the last holder drops the operator and a collection runs, the cleanups
// remove both entries, and the next call builds a fresh operator.
func TestNewOperatorDiesWithLastHolder(t *testing.T) {
	const sigma, n = 2.75, 17 // a key no other test uses
	key := operatorKey{f: FamilyVarCoef, eps: sigma, n: n}
	coarseKey := operatorKey{f: FamilyVarCoef, eps: sigma, n: 9}
	func() {
		op := mustOperator(t, FamilyVarCoef, sigma, n)
		op.At(5) // build the coarse hierarchy too
		if !indexed(key) || !indexed(coarseKey) {
			t.Fatal("no index entry for a live operator or its coarse level")
		}
	}()
	awaitDropped(t, key)
	awaitDropped(t, coarseKey)
	if op := mustOperator(t, FamilyVarCoef, sigma, n); !indexed(key) || op == nil {
		t.Error("a rebuilt operator has no index entry")
	}
}

// TestNewOperatorConcurrentFirstCalls: goroutines racing the first call for
// one key all get the one operator built.
func TestNewOperatorConcurrentFirstCalls(t *testing.T) {
	const sigma, n, racers = 3.25, 65, 8 // a key no other test uses
	ops := make([]*Operator, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			op, err := NewOperator(FamilyVarCoef, sigma, n)
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

// TestCoarseLevelsAreShared: a varcoef operator at N = 129 is the N = 257
// operator's At(129), whichever of the two is built first.
func TestCoarseLevelsAreShared(t *testing.T) {
	const sigma = 2
	for _, order := range []string{"257-first", "129-first"} {
		t.Run(order, func(t *testing.T) {
			awaitDropped(t, operatorKey{f: FamilyVarCoef, eps: sigma, n: 257})
			awaitDropped(t, operatorKey{f: FamilyVarCoef, eps: sigma, n: 129})
			var fine, coarse *Operator
			if order == "257-first" {
				fine = mustOperator(t, FamilyVarCoef, sigma, 257)
				coarse = mustOperator(t, FamilyVarCoef, sigma, 129)
			} else {
				coarse = mustOperator(t, FamilyVarCoef, sigma, 129)
				fine = mustOperator(t, FamilyVarCoef, sigma, 257)
			}
			if fine.At(129) != coarse {
				t.Errorf("NewOperator(varcoef, 2, 129) = %p, the N=257 operator's At(129) = %p", coarse, fine.At(129))
			}
			if fine.At(17) != coarse.At(17) {
				t.Error("the N=257 and N=129 operators reach different N=17 levels")
			}
		})
	}
}

// TestOwnFieldIsSingleLevel: an operator on a caller's own field serves its
// own side and refuses to coarsen, rather than coarsening onto some other
// field.
func TestOwnFieldIsSingleLevel(t *testing.T) {
	own := VarCoefOperator(CoefField(17, 2), 2)
	if own.At(17) != own {
		t.Fatal("At at its own side is not the operator")
	}
	for name, coarsen := range map[string]func(){
		"Coarse": func() { own.Coarse() },
		"At(9)":  func() { own.At(9) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "single-level") {
					t.Errorf("%s on a caller's own field: panic %q, want one saying it is single-level", name, msg)
				}
			}()
			coarsen()
		}()
	}
}
