package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"pbmg"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/serve"
)

// The traced pass walks ops up the ladder: the same request is executed at
// every rung — mg cycle, Solver.Solve, Service.Solve, the serve handler,
// loopback HTTP — purely from outside, by timing calls into each layer's
// public functions. A layer's cost is the difference between two rungs.
//
// Per request the spans form one chain and two side trees:
//
//	net.roundtrip > serve.handler > { serve.decode, service.solve > solver.solve, serve.encode }
//	solver.solve_traced > mg.<event>...   (the same solve with a recorder: where solver.solve's time goes)
//	mg.vcycle                             (Solver.SolveV: the tuned V-cycle alone)
//
// The chain uses the untraced solve so that recorder overhead stays out of
// the rung differences; the traced twin carries the kernel breakdown.

// rig is a second copy of every layer, built from the run's saved tables with
// the workload's pool and admission settings, so that every workload — also
// the ones that normally stop at Solver.Solve — can be driven at every rung.
type rig struct {
	reg     *pbmg.Registry
	svc     map[pbmg.Family]*pbmg.Service
	srv     *serve.Server
	handler http.Handler
	lb      *loopback
	loadMs  float64
}

func newRig(ev *env) (*rig, error) {
	r := &rig{
		reg: pbmg.NewRegistry(pbmg.RegistryOptions{Workers: ev.spec.workers, MaxInFlight: ev.spec.maxInFlight}),
		svc: make(map[pbmg.Family]*pbmg.Service),
	}
	t0 := time.Now()
	services, err := r.reg.LoadDir(ev.dir)
	r.loadMs = ms(time.Since(t0))
	if err != nil {
		r.reg.Close()
		return nil, err
	}
	for _, svc := range services {
		r.svc[svc.Family()] = svc
	}
	if r.srv, err = ev.newServer(); err != nil {
		r.reg.Close()
		return nil, err
	}
	r.handler = r.srv.Handler()
	if r.lb, err = newLoopback(r.handler); err != nil {
		closeServer(r.srv)
		r.reg.Close()
		return nil, err
	}
	return r, nil
}

func (r *rig) close() {
	r.lb.close()
	closeServer(r.srv)
	r.reg.Close()
}

// stampRecorder is an mg.Recorder that timestamps events. The executors
// record an event when its kernel returns, so each event's span runs from
// the previous event (or the solve's start) to its own record call; a fused
// kernel that records several events is charged to the first of them.
type stampRecorder struct {
	tr         *tracer
	parent, op int
	finest     int // multigrid level of the solve's own grid
	last       int64
	counts     *mg.OpTrace
	share      *timeShares
}

// timeShares accumulates kernel-event time over the whole traced pass.
type timeShares struct {
	total, finest, relax, direct time.Duration
}

func (r *stampRecorder) Record(kind mg.EventKind, level, count int) {
	now := r.tr.now()
	r.tr.add(span{Name: "mg." + kind.String(), StartNs: r.last, EndNs: now, Parent: r.parent, Op: r.op, Level: level, Count: count})
	d := time.Duration(now - r.last)
	r.last = now
	r.counts.Record(kind, level, count)
	r.share.total += d
	if level == r.finest {
		r.share.finest += d
	}
	switch kind {
	case mg.EvRelax, mg.EvIterSolve:
		r.share.relax += d
	case mg.EvDirect:
		r.share.direct += d
	}
}

// opTimes are one traced op's rung durations, summed over its requests.
type opTimes struct {
	net, handler, decode, encode, service, solver time.Duration
	traced, events, vcycle                        time.Duration
	chainSelf                                     time.Duration // clamped self times over the chain
}

type ladder struct {
	rig   *rig
	g     *grader
	tr    *tracer
	share timeShares
	reqB  int // request bytes of the last op
	respB int // response bytes of the last op
}

func newStates(e *element) []*pbmg.Grid {
	xs := make([]*pbmg.Grid, len(e.probs))
	for k, p := range e.probs {
		xs[k] = p.NewState()
	}
	return xs
}

func dataOf(xs []*pbmg.Grid) [][]float64 {
	out := make([][]float64, len(xs))
	for k, x := range xs {
		out[k] = x.Data()
	}
	return out
}

// sameAs checks a rung's solutions against the graded ones bit for bit.
func sameAs(rung string, e *element, got, ref [][]float64) error {
	if err := checkLengths(e, got); err != nil {
		return fmt.Errorf("%s: %w", rung, err)
	}
	for k := range ref {
		if !slices.Equal(got[k], ref[k]) {
			return fmt.Errorf("%s: %s n=%d acc=%g differs from Solver.Solve", rung, e.family, e.n, e.acc)
		}
	}
	return nil
}

// wireLen is an answer's length with the digits of solveNs — the one field
// the server fills from its clock — counted as one, so the byte count of an
// op repeats exactly.
func wireLen(body []byte) int {
	const field = `"solveNs":`
	i := bytes.LastIndex(body, []byte(field))
	if i < 0 {
		return len(body)
	}
	digits := 0
	for _, c := range body[i+len(field):] {
		if c < '0' || c > '9' {
			break
		}
		digits++
	}
	return len(body) - digits + 1
}

// element walks one request up the ladder, bottom rung first, and adds its
// rung durations to ot.
func (l *ladder) element(op int, e *element, ot *opTimes, counts *mg.OpTrace) error {
	tr := l.tr
	svc := l.rig.svc[e.family]
	s := svc.Solver()
	var err error
	each := func(xs []*pbmg.Grid, solve func(x, b *pbmg.Grid) error) {
		for k, p := range e.probs {
			if serr := solve(xs[k], p.B); serr != nil && err == nil {
				err = serr
			}
		}
	}
	// Parents are reserved first: children run before them.
	netID, handlerID, serviceID := tr.reserve(), tr.reserve(), tr.reserve()

	xs := newStates(e)
	ot.vcycle += tr.timed(tr.reserve(), "mg.vcycle", 0, op, func() {
		each(xs, func(x, b *pbmg.Grid) error { return s.SolveV(x, b, e.acc) })
	})

	// One discarded solve, so that the traced and the untraced twin both run
	// with the full-multigrid plan's buffers warm and differ by the recorder
	// alone.
	each(newStates(e), func(x, b *pbmg.Grid) error { return s.Solve(x, b, e.acc) })
	xs = newStates(e)
	tracedID := tr.reserve()
	rec := &stampRecorder{tr: tr, parent: tracedID, op: op, finest: grid.Level(e.n), counts: counts, share: &l.share}
	before := l.share.total
	ot.traced += tr.timed(tracedID, "solver.solve_traced", 0, op, func() {
		rec.last = tr.now()
		each(xs, func(x, b *pbmg.Grid) error { return s.SolveTraced(x, b, e.acc, rec) })
	})
	ot.events += l.share.total - before

	xs = newStates(e)
	ot.solver += tr.timed(tr.reserve(), "solver.solve", serviceID, op, func() {
		each(xs, func(x, b *pbmg.Grid) error { return s.Solve(x, b, e.acc) })
	})
	if err != nil {
		return err
	}
	ref := dataOf(xs)
	if err := l.g.check(e, ref); err != nil {
		return err
	}

	xs = newStates(e)
	ot.service += tr.timed(serviceID, "service.solve", handlerID, op, func() {
		if !e.batch {
			err = svc.Solve(xs[0], e.probs[0].B, e.acc)
			return
		}
		batch := make([]pbmg.BatchProblem, len(xs))
		for k, p := range e.probs {
			batch[k] = pbmg.BatchProblem{X: xs[k], B: p.B}
		}
		err = svc.SolveBatch(batch, e.acc)
	})
	if err == nil {
		err = sameAs("Service.Solve", e, dataOf(xs), ref)
	}
	if err != nil {
		return err
	}

	// The codec alone: the request into its wire struct and the answer out of
	// one, through encoding/json as the handler does.
	var resp any
	ot.decode += tr.timed(tr.reserve(), "serve.decode", handlerID, op, func() {
		if e.batch {
			err = json.Unmarshal(e.body, new(serve.BatchRequest))
		} else {
			err = json.Unmarshal(e.body, new(serve.SolveRequest))
		}
	})
	if err != nil {
		return err
	}
	if e.batch {
		br := serve.BatchResponse{Family: e.family.String(), N: e.n, Precision: "f64"}
		for _, x := range ref {
			br.Results = append(br.Results, serve.BatchResult{X: x})
		}
		resp = br
	} else {
		resp = serve.SolveResponse{X: ref[0], Family: e.family.String(), N: e.n, Precision: "f64", SolveNs: 1}
	}
	ot.encode += tr.timed(tr.reserve(), "serve.encode", handlerID, op, func() {
		_, err = json.Marshal(resp)
	})
	if err != nil {
		return err
	}

	hrec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, e.path(), bytes.NewReader(e.body))
	ot.handler += tr.timed(handlerID, "serve.handler", netID, op, func() {
		l.rig.handler.ServeHTTP(hrec, hreq)
	})
	if hrec.Code != http.StatusOK {
		return fmt.Errorf("handler %s: HTTP %d: %.200s", e.path(), hrec.Code, hrec.Body.String())
	}
	l.reqB += len(e.body)
	l.respB += wireLen(hrec.Body.Bytes())
	got, err := decodeSolutions(e, hrec.Body.Bytes())
	if err == nil {
		err = sameAs("serve handler", e, got, ref)
	}
	if err != nil {
		return err
	}

	ot.net += tr.timed(netID, "net.roundtrip", 0, op, func() {
		if !e.batch {
			var sr *serve.SolveResponse
			if sr, err = l.rig.lb.client.SolveBytes(context.Background(), e.body); err == nil {
				got = [][]float64{sr.X}
			}
			return
		}
		var raw []byte
		if raw, err = l.rig.lb.post(e.path(), e.body); err == nil {
			got, err = decodeSolutions(e, raw)
		}
	})
	if err == nil {
		err = sameAs("loopback HTTP", e, got, ref)
	}
	return err
}

// tracedPass runs the first tracedOps ops again with spans on, derives the
// per-layer metrics into pl, and writes the trace file.
func tracedPass(ev *env, inst *instance, g *grader, o options, pl map[string]float64) error {
	for _, e := range inst.distinct {
		if err := e.marshalBody(); err != nil {
			return err
		}
	}
	rg, err := newRig(ev)
	if err != nil {
		return err
	}
	defer rg.close()
	l := &ladder{rig: rg, g: g, tr: newTracer()}
	// The rig's solvers are cold: factor their direct levels and fill their
	// scratch arenas before anything is timed.
	for _, e := range inst.distinct {
		s := rg.svc[e.family].Solver()
		for _, p := range e.probs {
			if err := s.SolveV(p.NewState(), p.B, e.acc); err != nil {
				return err
			}
			if err := s.Solve(p.NewState(), p.B, e.acc); err != nil {
				return err
			}
		}
	}

	var ops []opTimes
	var counts mg.OpTrace
	for op := 0; op < ev.spec.tracedOps; op++ {
		var ot opTimes
		counts.Reset()
		l.reqB, l.respB = 0, 0
		first := len(l.tr.spans)
		for _, e := range inst.op {
			if err := l.element(op+1, e, &ot, &counts); err != nil {
				return err
			}
		}
		// Ladder closure: the chain's clamped self times against the top rung.
		opSpans := l.tr.spans[first:]
		self := selfTimes(opSpans)
		for _, s := range opSpans {
			if s.Name == "net.roundtrip" {
				ot.chainSelf += subtreeSelf(opSpans, self, s.ID)
			}
		}
		ops = append(ops, ot)
	}

	med := func(f func(ot opTimes) time.Duration) float64 {
		vs := make([]float64, len(ops))
		for i, ot := range ops {
			vs[i] = ms(f(ot))
		}
		return median(vs)
	}
	pl["mg.vcycle_ms"] = med(func(ot opTimes) time.Duration { return ot.vcycle })
	pl["solver.solve_ms"] = med(func(ot opTimes) time.Duration { return ot.solver })
	pl["solver.self_ms"] = med(func(ot opTimes) time.Duration { return ot.traced - ot.events })
	pl["service.overhead_us"] = 1e3 * med(func(ot opTimes) time.Duration { return ot.service - ot.solver })
	pl["serve.decode_ms"] = med(func(ot opTimes) time.Duration { return ot.decode })
	pl["serve.encode_ms"] = med(func(ot opTimes) time.Duration { return ot.encode })
	pl["serve.handler_ms"] = med(func(ot opTimes) time.Duration { return ot.handler })
	pl["serve.handler_overhead_ms"] = med(func(ot opTimes) time.Duration {
		return ot.handler - ot.service - ot.decode - ot.encode
	})
	pl["net.roundtrip_overhead_ms"] = med(func(ot opTimes) time.Duration { return ot.net - ot.handler })
	overhead, closure := make([]float64, len(ops)), make([]float64, len(ops))
	for i, ot := range ops {
		overhead[i] = 100 * float64(ot.traced-ot.solver) / float64(ot.solver)
		closure[i] = 100 * float64((ot.chainSelf - ot.net).Abs()) / float64(ot.net)
	}
	pl["harness.tracing_overhead_pct"] = median(overhead)
	pl["harness.ladder_closure_pct"] = median(closure)

	// Counts of the last op (every op does identical work, so they repeat).
	pl["mg.relax_sweeps_per_op"] = float64(counts.Total(mg.EvRelax))
	pl["mg.residuals_per_op"] = float64(counts.Total(mg.EvResidual))
	pl["mg.restricts_per_op"] = float64(counts.Total(mg.EvRestrict))
	pl["mg.interps_per_op"] = float64(counts.Total(mg.EvInterp))
	pl["mg.itersolve_sweeps_per_op"] = float64(counts.Total(mg.EvIterSolve))
	pl["direct.solves_per_op"] = float64(counts.Total(mg.EvDirect))
	pl["serve.request_bytes_per_op"] = float64(l.reqB)
	pl["serve.response_bytes_per_op"] = float64(l.respB)
	if l.share.total > 0 {
		pl["mg.time_share_finest"] = 100 * float64(l.share.finest) / float64(l.share.total)
		pl["mg.time_share_relax"] = 100 * float64(l.share.relax) / float64(l.share.total)
		pl["mg.time_share_direct"] = 100 * float64(l.share.direct) / float64(l.share.total)
	}
	pl["solver.achieved_accuracy_min"] = g.minRatio

	if err := l.counters(ev, inst, pl); err != nil {
		return err
	}
	if err := kernelMetrics(ev, rg, inst, pl); err != nil {
		return err
	}
	return l.tr.write(o.outDir, ev.spec.name, o.seed)
}

// counters reads the gauges and counters at the layer boundaries once the
// ladder has quiesced.
func (l *ladder) counters(ev *env, inst *instance, pl map[string]float64) error {
	rm := l.rig.reg.Metrics().Aggregate
	sm, err := handlerMetrics(l.rig.handler)()
	if err != nil {
		return err
	}
	pl["service.admitted"] = float64(rm.Admitted + sm.Aggregate.Admitted)
	pl["service.completed"] = float64(rm.Completed + sm.Aggregate.Completed)
	pl["service.shed"] = float64(rm.Shed + sm.Aggregate.Shed)
	pl["service.failed"] = float64(rm.Failed + sm.Aggregate.Failed)
	// Sheds count on the rig's server and on the workload's own.
	servers := []*serve.Metrics{sm}
	if inst.serverMetrics != nil {
		m, err := inst.serverMetrics()
		if err != nil {
			return err
		}
		servers = append(servers, m)
	}
	var escalations, scratch int64
	for _, m := range servers {
		pl["serve.shed_503"] += float64(m.ShedDraining)
		for _, f := range m.Families {
			pl["serve.shed_429"] += float64(f.ShedQueueFull)
			pl["serve.shed_503"] += float64(f.ShedDeadline)
			escalations += f.Escalations
		}
	}
	solvers := slices.Clone(inst.solvers)
	for _, s := range l.g.serial {
		solvers = append(solvers, s)
	}
	var cells, f32, mixed int
	for _, svc := range l.rig.svc {
		solvers = append(solvers, svc.Solver())
		for _, row := range svc.Solver().Tuned().V.Plans {
			for _, p := range row {
				cells++
				switch p.Precision {
				case mg.PrecF32:
					f32++
				case mg.PrecMixed:
					mixed++
				}
			}
		}
		// One factor cache is shared by every family of the registry.
		pl["direct.factorizations"] = float64(svc.Solver().Workspace().FactorCache.Len())
	}
	for _, s := range solvers {
		escalations += s.Escalations()
		scratch += s.Workspace().ScratchOutstanding()
	}
	pl["solver.escalations"] = float64(escalations)
	pl["mg.scratch_outstanding"] = float64(scratch)
	pl["core.plan_cells"] = float64(cells)
	pl["core.plan_f32_cells"] = float64(f32)
	pl["core.plan_mixed_cells"] = float64(mixed)
	pl["core.load_ms"] = l.rig.loadMs
	for _, s := range ev.tuneS {
		pl["core.tune_s"] += s
	}
	return nil
}
