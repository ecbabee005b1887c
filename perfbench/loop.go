package main

import (
	"fmt"
	"time"

	"mozart/internal/core"
	"mozart/internal/obs"
)

// evalSample is one timed Mozart evaluation and what was checked about it.
type evalSample struct {
	clk      evalClock
	stats    core.StatsSnapshot
	mismatch string // output check failure, "" when the outputs match
	guard    string // workload guard violation, "" when the intended path ran
}

// reqNS is the caller's view: the whole program run. evalNS is the
// runtime's: from the first annotated call until every result is forced.
func (s evalSample) reqNS() int64  { return s.clk.end.Sub(s.clk.start).Nanoseconds() }
func (s evalSample) evalNS() int64 { return s.clk.end.Sub(s.clk.captureLo).Nanoseconds() }

// captureNS is the time spent capturing annotated calls: measured around
// the calls when the program marks them, else the session's ClientNS.
func (s evalSample) captureNS() int64 {
	if s.clk.captureHi.IsZero() {
		return s.stats.ClientNS
	}
	return s.clk.captureHi.Sub(s.clk.captureLo).Nanoseconds()
}

// batchRun is a closed loop with one caller around a batch program: a
// Mozart evaluation and the same program through the base library.
type batchRun struct {
	elems  int64 // input elements per evaluation
	mozart func(tr obs.Tracer) (evalSample, error)
	base   func() (time.Duration, error)
}

// minEvals is the fewest timed evaluations behind a p90 (10 beyond it).
const minEvals = 100

// minBase is the fewest base-library runs behind base_ms_p50.
const minBase = 10

// warm runs one untimed evaluation so lazy initialisation and the first
// heap growth happen in set-up, and checks it like a timed one.
func (b *batchRun) warm() error {
	smp, err := b.mozart(nil)
	if err != nil {
		return fmt.Errorf("warm-up evaluation: %w", err)
	}
	if smp.mismatch != "" || smp.guard != "" {
		return fmt.Errorf("warm-up evaluation: %s%s", smp.mismatch, smp.guard)
	}
	return nil
}

// run measures the workload: the base library for 10% of the run, the
// Mozart loop for 80% (at least minEvals evaluations), and the base library
// again for the last 10%. Splitting the base time around the loop exposes it
// to the same stretch of host noise. With tracing, evaluations alternate
// between untraced and traced, so the per-layer figures and the tracing
// overhead come from the same stretch of time.
func (b *batchRun) run(p params, rep *report) error {
	baseMS, err := b.timeBase(0.1 * p.seconds)
	if err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var (
		untraced, traced []evalSample
		tracedSpans      [][]tspan
		perEvalRT        []rtDelta
		log              eventLog
	)
	window := time.Duration(0.8 * p.seconds * float64(time.Second))
	before := readRT()
	start := time.Now()
	for i := 0; time.Since(start) < window || (!p.trace && len(untraced) < minEvals); i++ {
		var tr obs.Tracer
		withTrace := p.trace && i%2 == 1
		if withTrace {
			tr = &log
		}
		var r0 rtSample
		if p.trace && !withTrace {
			r0 = readRT()
		}
		smp, err := b.mozart(tr)
		rep.attempted++
		if err != nil {
			rep.fail("evaluation %d: %v", i, err)
			continue
		}
		if p.trace && !withTrace {
			perEvalRT = append(perEvalRT, readRT().delta(r0))
		}
		if smp.mismatch != "" {
			rep.fail("evaluation %d: output mismatch: %s", i, smp.mismatch)
			continue
		}
		if smp.guard != "" {
			rep.fail("evaluation %d: guard: %s", i, smp.guard)
			continue
		}
		if withTrace {
			traced = append(traced, smp)
			tracedSpans = append(tracedSpans, spansFromEvents(log.take()))
		} else {
			untraced = append(untraced, smp)
		}
	}
	loop := readRT().delta(before)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	more, err := b.timeBase(0.1 * p.seconds)
	if err != nil {
		return err
	}
	baseMS = append(baseMS, more...)
	if len(untraced) == 0 {
		return fmt.Errorf("no evaluation succeeded")
	}

	evalMS, reqMS := make([]float64, len(untraced)), make([]float64, len(untraced))
	var reqTotal float64
	for i, s := range untraced {
		evalMS[i], reqMS[i] = ms(s.evalNS()), ms(s.reqNS())
		reqTotal += reqMS[i]
	}
	evalP50, baseP50 := median(evalMS), median(baseMS)
	rep.note("%d timed evaluations, %d base runs; speedup_vs_base = base_ms_p50 / eval_ms_p50 = %.3f",
		len(untraced), len(baseMS), baseP50/evalP50)

	if !p.trace {
		evalP90, err := percentile(evalMS, 90)
		if err != nil {
			return err
		}
		reqP90, err := percentile(reqMS, 90)
		if err != nil {
			return err
		}
		n := float64(len(untraced))
		rep.set("eval_ms_p50", evalP50)
		rep.set("eval_ms_p90", evalP90)
		rep.set("melem_per_s", n*float64(b.elems)/1e6/(reqTotal/1e3))
		rep.set("base_ms_p50", baseP50)
		rep.set("alloc_mb_per_eval", loop.allocBytes/1e6/float64(rep.attempted))
		rep.set("peak_rss_mb", rss)
		rep.set("req_ms_p50", median(reqMS))
		rep.set("req_ms_p90", reqP90)
		rep.set("sat_rps", n/(reqTotal/1e3))
		return nil
	}
	b.layers(rep, untraced, traced, tracedSpans, perEvalRT, loop)
	return nil
}

// timeBase times the base program for the given seconds (at least minBase/2
// runs), after one untimed run that sizes the heap for it.
func (b *batchRun) timeBase(seconds float64) ([]float64, error) {
	if _, err := b.base(); err != nil {
		return nil, fmt.Errorf("base run: %w", err)
	}
	var out []float64
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < window || len(out) < minBase/2 {
		d, err := b.base()
		if err != nil {
			return nil, fmt.Errorf("base run: %w", err)
		}
		out = append(out, msDur(d))
	}
	return out, nil
}

// layers reports the per-layer metrics of a traced batch run: medians per
// traced evaluation for times, means per evaluation for counts.
func (b *batchRun) layers(rep *report, untraced, traced []evalSample, spans [][]tspan, perEval []rtDelta, loop rtDelta) {
	n := len(traced)
	if n == 0 {
		rep.fail("no traced evaluation succeeded")
		return
	}
	col := func(f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	st := func(f func(core.StatsSnapshot) int64) []float64 {
		return col(func(i int) float64 { return float64(f(traced[i].stats)) })
	}
	sums := make([]layerSums, n)
	gaps := gapTally{}
	unattr := make([]float64, n)
	var wallTotal, unattrTotal float64
	for i, sp := range spans {
		sums[i] = sumLayers(sp)
		s := traced[i]
		wall := interval{s.clk.captureLo.UnixNano(), s.clk.end.UnixNano()}
		parts := layerParts(sp)
		if !s.clk.captureHi.IsZero() {
			parts = append(parts, labeled{interval{wall.lo, s.clk.captureHi.UnixNano()}, "capture"})
		}
		u, gap := attribute(wall, "program start", "results forced", parts)
		if s.clk.captureHi.IsZero() {
			// Capture was not bracketed on the timeline; its ClientNS is
			// still attributed, just without a position.
			u = max(0, u-s.stats.ClientNS)
		}
		unattr[i] = ms(u)
		wallTotal += ms(wall.hi - wall.lo)
		unattrTotal += ms(u)
		gaps.add(gap)
	}
	ls := func(f func(layerSums) int64) []float64 {
		return col(func(i int) float64 { return float64(f(sums[i])) })
	}
	nsMed := func(xs []float64) float64 { return median(xs) / 1e6 }

	rep.set("core.capture_ms", nsMed(col(func(i int) float64 { return float64(traced[i].captureNS()) })))
	rep.set("core.plan_ms", nsMed(st(func(s core.StatsSnapshot) int64 { return s.PlannerNS })))
	rep.set("core.stages", mean(st(func(s core.StatsSnapshot) int64 { return s.Stages })))
	rep.set("core.batches", mean(st(func(s core.StatsSnapshot) int64 { return s.Batches })))
	rep.set("core.calls", mean(st(func(s core.StatsSnapshot) int64 { return s.Calls })))
	rep.set("core.split_ms", nsMed(st(func(s core.StatsSnapshot) int64 { return s.SplitNS })))
	rep.set("core.task_ms", nsMed(st(func(s core.StatsSnapshot) int64 { return s.TaskNS })))
	rep.set("core.premerge_ms", nsMed(ls(func(s layerSums) int64 { return s.premergeNS })))
	rep.set("core.final_merge_ms", nsMed(ls(func(s layerSums) int64 { return s.finalMergeNS })))
	rep.set("core.worker_idle_ms", nsMed(ls(func(s layerSums) int64 { return s.idleNS })))
	rep.set("core.view_splits", mean(st(func(s core.StatsSnapshot) int64 { return s.ViewSplits })))
	rep.set("core.pool_tasks", mean(st(func(s core.StatsSnapshot) int64 { return s.PoolTasks })))
	rep.set("core.worker_spawns", mean(st(func(s core.StatsSnapshot) int64 { return s.WorkerSpawns })))
	rep.set("core.admission_wait_ms", nsMed(st(func(s core.StatsSnapshot) int64 { return s.AdmissionWaitNS })))
	rep.set("core.streamed_stages", mean(st(func(s core.StatsSnapshot) int64 { return s.StreamedStages })))
	rep.set("spill.mb", mean(st(func(s core.StatsSnapshot) int64 { return s.SpilledBytes }))/1e6)
	rep.set("spill.frames", mean(st(func(s core.StatsSnapshot) int64 { return s.SpilledFrames })))
	rep.set("lib.moved_mb", mean(ls(func(s layerSums) int64 { return s.movedBytes }))/1e6)
	setRT(rep, perEval, loop)
	rep.set("eval.unattributed_ms", median(unattr))
	pct := 100 * (1 - unattrTotal/wallTotal)
	rep.set("eval.attributed_pct", pct)
	noteAttribution(rep, pct, gaps)

	tracedMS := col(func(i int) float64 { return ms(traced[i].evalNS()) })
	untracedMS := make([]float64, len(untraced))
	for i, s := range untraced {
		untracedMS[i] = ms(s.evalNS())
	}
	rep.set("obs.trace_overhead_pct", 100*(median(tracedMS)/median(untracedMS)-1))
	setBypassed(rep, "gen.", "serve.")
}

// setRT reports the Go runtime layer per evaluation or request.
func setRT(rep *report, perEval []rtDelta, loop rtDelta) {
	col := func(f func(rtDelta) float64) []float64 {
		out := make([]float64, len(perEval))
		for i, d := range perEval {
			out[i] = f(d)
		}
		return out
	}
	rep.set("rt.alloc_mb", mean(col(func(d rtDelta) float64 { return d.allocBytes }))/1e6)
	rep.set("rt.gc_cycles", mean(col(func(d rtDelta) float64 { return d.gcCycles })))
	rep.set("rt.gc_pause_ms", mean(col(func(d rtDelta) float64 { return d.gcPauseSec }))*1e3)
	rep.set("rt.sched_lat_p99_us", loop.schedLatP99*1e6)
}
