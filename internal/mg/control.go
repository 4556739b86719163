package mg

import (
	"errors"
	"fmt"
)

// This file is the solve control plane: cooperative cancellation aborts a
// running cycle by panicking with a solveAbort, which unwinds through every
// `defer release` on the recursion path — so each level's pooled scratch
// goes back to the arena — and is converted back into its error by Catch at
// the solve boundary. The panic never crosses a goroutine: checkpoints run
// only on the calling goroutine, between kernels, never inside a pool loop
// chunk.

// ErrCancelled reports a solve aborted between cycles or levels because
// the executor's context was done — a client deadline expired or the
// client disconnected mid-solve. The returned error also wraps the
// context's own error, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) still answer which it was.
var ErrCancelled = errors.New("mg: solve cancelled")

// ErrDiverged reports a solve whose answer came out non-finite — the
// signature of poisoned input or of values past float64's range. The
// solver vets every answer once, after the cycles have run.
var ErrDiverged = errors.New("mg: solve diverged")

// solveAbort is the panic payload carrying a control-plane error out of a
// running cycle. Only raise it through checkpoint and only on the solve's
// calling goroutine.
type solveAbort struct{ err error }

// Catch runs f, converting a cancellation abort raised inside it back into
// the error it carries. Other panics — genuine bugs, injected faults —
// propagate unchanged; the Service boundary owns those (see
// pbmg.PanicError).
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
