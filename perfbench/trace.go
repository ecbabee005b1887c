package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mozart/internal/obs"
)

// eventLog is the benchmark's in-memory obs.Tracer: it keeps every event
// of the traced evaluations and is analysed after the loop ends.
type eventLog struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (l *eventLog) Emit(e obs.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, e)
	l.mu.Unlock()
}

// take returns the events recorded so far and empties the log.
func (l *eventLog) take() []obs.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.evs
	l.evs = nil
	return evs
}

// interval is a closed-open time range in Unix nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (parallel workers) or stick out of the
// parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - covered(children, parent.lo, parent.hi)
}

// Span kinds the layer analysis distinguishes. They match the span names
// obs.SpanRecorder gives runtime events, so the benchmark's own event log
// and mozartd's OTLP span trees are analysed by the same code.
const (
	kPlan      = "plan"
	kStage     = "stage"
	kBatch     = "batch"
	kMerge     = "merge"
	kAdmission = "admission"
	kSpill     = "spill"
	kOther     = "other"
)

// tspan is one runtime span reduced to what the layer analysis needs.
type tspan struct {
	kind       string
	stage      string // key of the stage a stage-scoped span belongs to
	worker     int
	iv         interval
	bytes      int64 // batch: moved bytes; spill: frame bytes
	splitNS    int64 // batch
	taskNS     int64 // batch
	workers    int   // stage
	calls      int64 // stage: annotated calls in its pipeline
	stageLabel string
}

// spansFromEvents turns a runtime event stream into tspans. Stage keys are
// made unique across evaluations by prefixing the evaluation's sequence
// number, since every evaluation numbers its stages from 0.
func spansFromEvents(evs []obs.Event) []tspan {
	var out []tspan
	evalSeq := 0
	workers := map[string]int{}
	key := func(stage int) string { return fmt.Sprintf("%d.%d", evalSeq, stage) }
	for _, e := range evs {
		end := e.Time.UnixNano()
		iv := interval{end - int64(e.Dur), end}
		switch e.Kind {
		case obs.EvSessionBegin:
			evalSeq++
		case obs.EvPlan:
			out = append(out, tspan{kind: kPlan, iv: iv})
		case obs.EvStageBegin:
			workers[key(e.Stage)] = e.Workers
		case obs.EvStageEnd:
			out = append(out, tspan{kind: kStage, stage: key(e.Stage), iv: iv,
				workers: workers[key(e.Stage)], stageLabel: fmt.Sprintf("stage %d", e.Stage)})
		case obs.EvBatch:
			out = append(out, tspan{kind: kBatch, stage: key(e.Stage), worker: e.Worker, iv: iv,
				bytes: e.Bytes, splitNS: e.SplitNS, taskNS: e.TaskNS})
		case obs.EvMerge:
			out = append(out, tspan{kind: kMerge, stage: key(e.Stage), worker: e.Worker, iv: iv})
		case obs.EvAdmission:
			out = append(out, tspan{kind: kAdmission, stage: key(e.Stage), iv: iv})
		case obs.EvSpill:
			if e.Detail == "append" {
				out = append(out, tspan{kind: kSpill, stage: key(e.Stage), iv: iv, bytes: e.Bytes})
			}
		}
	}
	return out
}

// layerSums totals one evaluation's (or request's) spans per layer.
type layerSums struct {
	planNS, admissionNS, premergeNS, finalMergeNS, idleNS int64
	splitNS, taskNS                                       int64
	stages, batches, spillFrames                          int64
	movedBytes, spillBytes                                int64
}

func sumLayers(spans []tspan) layerSums {
	var s layerSums
	busy := map[string]int64{}
	for _, sp := range spans {
		d := sp.iv.hi - sp.iv.lo
		switch sp.kind {
		case kPlan:
			s.planNS += d
		case kAdmission:
			s.admissionNS += d
		case kStage:
			s.stages++
		case kBatch:
			s.batches++
			s.movedBytes += sp.bytes
			s.splitNS += sp.splitNS
			s.taskNS += sp.taskNS
			busy[sp.stage] += d
		case kMerge:
			if sp.worker == obs.RuntimeLane {
				s.finalMergeNS += d
			} else {
				s.premergeNS += d
				busy[sp.stage] += d
			}
		case kSpill:
			s.spillFrames++
			s.spillBytes += sp.bytes
		}
	}
	// Worker idle time: what the stage's workers could have done over the
	// stage span, minus what they were busy with (batches and pre-merges).
	for _, sp := range spans {
		if sp.kind == kStage && sp.workers > 0 {
			s.idleNS += max(0, int64(sp.workers)*(sp.iv.hi-sp.iv.lo)-busy[sp.stage])
		}
	}
	return s
}

// labeled is an attributed interval with the name of the layer it
// belongs to, for naming the gaps between them.
type labeled struct {
	iv    interval
	label string
}

// gapReport names the largest stretch of wall time no layer accounts for.
type gapReport struct {
	ns            int64
	after, before string
}

// attribute covers the wall interval with the attributed layer intervals
// and returns the uncovered time and its largest single gap. Gaps at either
// end are named after the wall's own start and end labels.
func attribute(wall interval, startLabel, endLabel string, parts []labeled) (unattributed int64, gap gapReport) {
	sort.Slice(parts, func(i, j int) bool { return parts[i].iv.lo < parts[j].iv.lo })
	ivs := make([]interval, len(parts))
	for i, p := range parts {
		ivs[i] = p.iv
	}
	unattributed = selfTime(wall, ivs)
	cursor, last := wall.lo, startLabel
	consider := func(upTo int64, next string) {
		if upTo-cursor > gap.ns {
			gap = gapReport{ns: upTo - cursor, after: last, before: next}
		}
	}
	for _, p := range parts {
		lo, hi := max(p.iv.lo, wall.lo), min(p.iv.hi, wall.hi)
		if hi <= lo {
			continue
		}
		if lo > cursor {
			consider(lo, p.label)
		}
		if hi > cursor {
			cursor, last = hi, p.label
		}
	}
	if wall.hi > cursor {
		consider(wall.hi, endLabel)
	}
	return unattributed, gap
}

// layerParts is the attributed timeline of one evaluation: plan and stage
// spans (stage spans include admission and the final merge).
func layerParts(spans []tspan) []labeled {
	var parts []labeled
	for _, sp := range spans {
		switch sp.kind {
		case kPlan:
			parts = append(parts, labeled{sp.iv, "plan"})
		case kStage:
			parts = append(parts, labeled{sp.iv, sp.stageLabel})
		}
	}
	return parts
}

// gapTally counts which gap was the largest across evaluations, so the
// report can name the usual residue rather than one sample's.
type gapTally map[string]int

func (t gapTally) add(g gapReport) {
	if g.ns > 0 {
		t["between "+g.after+" and "+g.before]++
	}
}

func (t gapTally) top() string {
	best, n := "", 0
	for k, v := range t {
		if v > n || (v == n && k < best) {
			best, n = k, v
		}
	}
	return best
}

// noteAttribution prints eval.attributed_pct and, below 90%, the gap that
// was most often the largest unattributed one.
func noteAttribution(rep *report, pct float64, gaps gapTally) {
	if pct < 90 {
		rep.note("eval.attributed_pct %.1f%% < 90%%: the largest unattributed gap is usually %s", pct, gaps.top())
		return
	}
	rep.note("eval.attributed_pct %.1f%%; the largest remaining gap is usually %s", pct, gaps.top())
}

// stageName folds a span name like "stage 3 [a -> b]" to "stage 3".
func stageName(name string) string {
	if i := strings.Index(name, " ["); i > 0 {
		return name[:i]
	}
	return name
}

func ms(ns int64) float64           { return float64(ns) / 1e6 }
func msDur(d time.Duration) float64 { return float64(d) / 1e6 }
