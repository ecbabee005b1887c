package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"mozart/internal/plan"
)

// defaultFlightRecordings is the ring size when the caller passes a
// non-positive capacity.
const defaultFlightRecordings = 8

// Recording is one completed evaluation as the flight recorder retains
// it: the span tree SpanRecorder built from its events (bounded by the
// recorder's span cap), the plan IR rendering, and the outcome.
// Recordings are immutable once added.
type Recording struct {
	Seq   int64     `json:"seq"`   // recorder-wide sequence number
	Begin time.Time `json:"begin"` // the trace's root span start
	End   time.Time `json:"end"`   // the trace's root span end
	Err   string    `json:"err,omitempty"`
	Plan  string    `json:"plan,omitempty"` // plan.Render of the evaluation's IR
	// TraceID is the request trace the evaluation ran under (hex), empty
	// for untraced sessions. A 500/504 response carrying a trace id
	// resolves to its recording through FlightRecorder.Find.
	TraceID string `json:"trace_id,omitempty"`
	Trace   *Trace `json:"trace"` // the evaluation's span tree
}

// FlightRecorder retains the last N evaluations' span trees in a bounded
// ring, for post-hoc inspection of recent behaviour without paying for
// unbounded trace retention. It is the black-box counterpart to the
// Metrics sink: Metrics keeps aggregates forever, the recorder keeps
// detail briefly.
//
// The recorder itself is not a Tracer. A caller that already records a
// trace (a serving layer's per-request SpanRecorder) commits it with Add;
// library sessions get a per-session handle via Session(), which records
// each of its evaluations and adds it. Recordings from every source land
// in the one shared ring.
type FlightRecorder struct {
	mu      sync.Mutex
	max     int
	seq     int64
	ring    []Recording // oldest first, len <= max
	onFault func(Recording)
}

// NewFlightRecorder returns a recorder retaining the last n evaluations
// (n <= 0 selects the default of 8).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = defaultFlightRecordings
	}
	return &FlightRecorder{max: n}
}

// OnFault registers fn to run whenever a recording completes with an
// error (an evaluation that ended in a StageError or cancellation). fn is
// called synchronously from Add, outside the recorder's lock; keep it
// bounded.
func (r *FlightRecorder) OnFault(fn func(Recording)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onFault = fn
}

// AutoDump arranges for every faulting evaluation's recording to be
// written to w as JSON (a convenience OnFault). Writes are serialized.
func (r *FlightRecorder) AutoDump(w io.Writer) {
	var mu sync.Mutex
	r.OnFault(func(rec Recording) {
		mu.Lock()
		defer mu.Unlock()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rec)
	})
}

// Add commits a completed recording: it stamps the sequence number and
// derives Begin, End and TraceID from rec.Trace, pushes the recording into
// the ring (evicting the oldest at capacity), and runs the fault hook when
// the recording carries an error.
func (r *FlightRecorder) Add(rec Recording) {
	if rec.Trace != nil {
		root := rec.Trace.RootSpan()
		rec.Begin, rec.End = root.Start, root.End
		if !rec.Trace.TraceID.IsZero() {
			rec.TraceID = rec.Trace.TraceID.String()
		}
	}
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	if len(r.ring) == r.max {
		copy(r.ring, r.ring[1:])
		r.ring[len(r.ring)-1] = rec
	} else {
		r.ring = append(r.ring, rec)
	}
	onFault := r.onFault
	r.mu.Unlock()
	if rec.Err != "" && onFault != nil {
		onFault(rec)
	}
}

// Session returns a handle for one session's evaluations. Wire the handle
// into the session as both Tracer and OnPlan callback; see
// mozart.WithFlightRecorder for the packaged form.
func (r *FlightRecorder) Session() *FlightHandle {
	return &FlightHandle{rec: r}
}

// Recordings returns the retained recordings, oldest first.
func (r *FlightRecorder) Recordings() []Recording {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Recording(nil), r.ring...)
}

// Len reports the number of retained recordings.
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Find returns the newest retained recording whose evaluation ran under
// the given trace id (lowercase hex).
func (r *FlightRecorder) Find(traceID string) (Recording, bool) {
	if traceID == "" {
		return Recording{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.ring) - 1; i >= 0; i-- {
		if r.ring[i].TraceID == traceID {
			return r.ring[i], true
		}
	}
	return Recording{}, false
}

// Dump writes every retained recording to w as indented JSON.
func (r *FlightRecorder) Dump(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Recordings())
}

// FlightHandle records one session's evaluations into its parent
// FlightRecorder: it opens a SpanRecorder at each EvSessionBegin (under
// the event's trace context, if any), forwards the evaluation's events to
// it, and adds the finished trace at EvSessionEnd. Emit is safe for
// concurrent use (workers emit batch events in parallel); evaluations on
// one session are sequential, so the handle tracks a single in-flight
// recorder.
type FlightHandle struct {
	rec *FlightRecorder

	mu   sync.Mutex
	cur  *SpanRecorder
	plan string
}

// Emit implements Tracer.
func (h *FlightHandle) Emit(e Event) {
	h.mu.Lock()
	if e.Kind == EvSessionBegin {
		var tc TraceContext
		if e.Trace != nil {
			tc = *e.Trace
		}
		h.cur, h.plan = NewSpanRecorder(tc, "evaluate"), ""
	}
	cur, rendered := h.cur, h.plan
	if e.Kind == EvSessionEnd {
		h.cur = nil
	}
	h.mu.Unlock()
	if cur == nil {
		return
	}
	cur.Emit(e)
	if e.Kind == EvSessionEnd {
		h.rec.Add(Recording{Err: e.Detail, Plan: rendered, Trace: cur.Finish(e.Detail)})
	}
}

// OnPlan captures the evaluation's plan IR rendering. Wire it into the
// session's OnPlan option (the runtime invokes it between EvSessionBegin
// and the first stage); it is safe to combine with a user callback.
func (h *FlightHandle) OnPlan(p *plan.Plan) {
	rendered := plan.Render(p)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur != nil {
		h.plan = rendered
	}
}
