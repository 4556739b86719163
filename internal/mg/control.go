package mg

import (
	"errors"
	"fmt"
)

// This file is the solve control plane: cooperative cancellation and
// divergence detection. Both abort a running cycle by panicking with a
// solveAbort, which unwinds through every `defer release` on the recursion
// path — so each level's pooled scratch goes back to the arena — and is
// converted back into its error by Catch at the solve boundary. The panic
// never crosses a goroutine: checkpoints and divergence guards run only on
// the calling goroutine, between kernels, never inside a pool loop chunk.

// ErrCancelled reports a solve aborted between cycles or levels because
// the executor's context was done — a client deadline expired or the
// client disconnected mid-solve. The returned error also wraps the
// context's own error, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) still answer which it was.
var ErrCancelled = errors.New("mg: solve cancelled")

// ErrDiverged reports a solve whose iterate went non-finite or whose
// residual blew up instead of contracting — the signature of a
// reduced-precision plan out of its depth (f32 dynamic range exceeded,
// refinement not contracting) or of poisoned input. The abort path
// releases all pooled scratch before a caller can retry at float64.
var ErrDiverged = errors.New("mg: solve diverged")

// divergenceGrowth is the residual growth factor past which an iterative
// loop counts as diverging: a healthy step contracts the residual, so
// growing it 10⁶× over the starting norm is unambiguous blow-up (transient
// non-monotonicity stays far below it) while still firing long before the
// iterate reaches Inf.
const divergenceGrowth = 1e6

// solveAbort is the panic payload carrying a control-plane error out of a
// running cycle. Only raise it through checkpoint/abortDiverged and only
// on the solve's calling goroutine.
type solveAbort struct{ err error }

// Catch runs f, converting a cancellation or divergence abort raised inside
// it back into the error it carries. Other panics — genuine bugs, injected
// faults — propagate unchanged; the Service boundary owns those (see
// pbmg.PanicError). The tuner runs every candidate step under it: an edition
// that diverges on training data is priced out, not a crash.
func Catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(solveAbort)
			if !ok {
				panic(r)
			}
			err = a.err
		}
	}()
	f()
	return nil
}

// checkpoint aborts the solve when the executor's context is done. It is
// called between V-cycle iterations and between levels of deep cycles —
// never inside a kernel — so a cancelled solve stops within one cycle's
// worth of latency at its current level. With no context armed it is two
// instructions.
func (e *Executor) checkpoint() {
	if e.Ctx == nil {
		return
	}
	select {
	case <-e.Ctx.Done():
		panic(solveAbort{fmt.Errorf("%w: %w", ErrCancelled, e.Ctx.Err())})
	default:
	}
}

// abortDiverged raises an ErrDiverged solve abort with a formatted detail.
func abortDiverged(format string, args ...any) {
	panic(solveAbort{fmt.Errorf("%w: %s", ErrDiverged, fmt.Sprintf(format, args...))})
}

// nonFinite reports whether a float64 is NaN or ±Inf, without the math
// package's boxing: v != v catches NaN, and subtracting a finite value
// from ±Inf yields NaN.
func nonFinite(v float64) bool {
	return v != v || v-v != 0
}
