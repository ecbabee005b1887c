package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedFeed is a deterministic event stream covering every kind, shaped
// like a one-stage, two-worker evaluation.
func fixedFeed(base time.Time) []Event {
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	return []Event{
		{Kind: EvSessionBegin, Time: at(0), Stage: -1, Worker: RuntimeLane, Elems: 3},
		{Kind: EvPlan, Time: at(1), Dur: time.Millisecond, Stage: -1, Worker: RuntimeLane,
			Stages: 1, Detail: "stage[a -> b]"},
		{Kind: EvStageBegin, Time: at(1), Stage: 0, Worker: RuntimeLane, Calls: "a -> b",
			Split: "SizeSplit<100>", Elems: 100, Bytes: 16, BatchElems: 50, Workers: 2,
			CacheBytes: 1 << 20},
		{Kind: EvAdmission, Time: at(1), Dur: 0, Stage: 0, Worker: RuntimeLane,
			Calls: "a -> b", Bytes: 1600, BatchElems: 50, Workers: 2},
		{Kind: EvBatch, Time: at(4), Dur: 3 * time.Millisecond, Stage: 0, Worker: 0,
			Start: 0, End: 50, Calls: "a -> b", Split: "SizeSplit<100>",
			SplitNS: int64(time.Millisecond), TaskNS: int64(2 * time.Millisecond),
			Bytes: 800, Attempt: 1},
		{Kind: EvRetry, Time: at(5), Stage: 0, Worker: 1, Start: 50, End: 100,
			Calls: "a -> b", Attempt: 1, Detail: "flaky device"},
		{Kind: EvBatch, Time: at(8), Dur: 3 * time.Millisecond, Stage: 0, Worker: 1,
			Start: 50, End: 100, Calls: "a -> b", Split: "SizeSplit<100>",
			SplitNS: int64(time.Millisecond), TaskNS: int64(2 * time.Millisecond),
			Bytes: 800, Attempt: 2},
		{Kind: EvMerge, Time: at(9), Dur: time.Millisecond, Stage: 0, Worker: 1,
			Calls: "a -> b", Split: "SizeSplit<100>"},
		{Kind: EvMerge, Time: at(10), Dur: time.Millisecond, Stage: 0, Worker: RuntimeLane,
			Calls: "a -> b", Split: "SizeSplit<100>"},
		{Kind: EvBreaker, Time: at(10), Stage: -1, Worker: RuntimeLane, Calls: "b",
			Detail: "open"},
		{Kind: EvFallback, Time: at(12), Dur: 2 * time.Millisecond, Stage: 0,
			Worker: RuntimeLane, Calls: "a -> b", Detail: "split failed"},
		{Kind: EvStageEnd, Time: at(12), Dur: 11 * time.Millisecond, Stage: 0,
			Worker: RuntimeLane, Calls: "a -> b"},
		{Kind: EvSessionEnd, Time: at(12), Dur: 12 * time.Millisecond, Stage: -1,
			Worker: RuntimeLane},
	}
}

// fixedTrace records fixedFeed into a SpanRecorder under a fixed trace
// context, with the root span's wall-clock times normalized to the feed.
func fixedTrace(base time.Time) *Trace {
	tc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rec := NewSpanRecorder(tc, "evaluate")
	for _, e := range fixedFeed(base) {
		rec.Emit(e)
	}
	tr := rec.Finish("")
	tr.Spans[0].Start, tr.Spans[0].End = base, base.Add(12*time.Millisecond)
	return tr
}

// TestChromeTraceGolden locks the exact Chrome trace_event JSON rendering
// of a recorded trace covering the full event taxonomy. Regenerate with
// `go test ./internal/obs -update` after an intentional format change, and
// re-check the new file loads in Perfetto.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedTrace(time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrometrace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON differs from %s;\ngot:\n%s", golden, buf.String())
	}
}

// TestChromeTraceWellFormed checks the structural invariants Perfetto needs:
// parseable JSON, a thread_name metadata record per lane, batch spans on
// the right worker lanes, and split/task phases nested inside each batch.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedTrace(time.Unix(0, 0)).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	type record struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var doc struct {
		TraceEvents []record `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	lanes := map[int]string{}
	var batches, phases []record
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			lanes[e.Tid], _ = e.Args["name"].(string)
		}
		if strings.HasPrefix(e.Name, "batch ") {
			batches = append(batches, e)
		}
		if e.Name == "split" || e.Name == "task" {
			phases = append(phases, e)
		}
	}
	if lanes[0] != "runtime" {
		t.Errorf("tid 0 should be the runtime lane, got %q", lanes[0])
	}
	if lanes[1] != "worker 0" || lanes[2] != "worker 1" {
		t.Errorf("worker lanes misnamed: %v", lanes)
	}
	batchLanes := map[int]bool{}
	for _, b := range batches {
		batchLanes[b.Tid] = true
	}
	if len(batches) != 2 || !batchLanes[1] || !batchLanes[2] {
		t.Errorf("batch spans should land on worker lanes 1 and 2, got %v", batchLanes)
	}
	// Each batch holds a split then a task phase on its own lane, inside
	// its [ts, ts+dur] window.
	if len(phases) != 2*len(batches) {
		t.Fatalf("phase spans = %d, want split+task per batch", len(phases))
	}
	for _, b := range batches {
		var inside []string
		for _, p := range phases {
			if p.Tid == b.Tid && p.Ts >= b.Ts && p.Ts+p.Dur <= b.Ts+b.Dur {
				inside = append(inside, p.Name)
			}
		}
		if strings.Join(inside, ",") != "split,task" {
			t.Errorf("batch %q on tid %d nests %v, want [split task]", b.Name, b.Tid, inside)
		}
	}
}

func TestMetricsAggregation(t *testing.T) {
	base := time.Unix(0, 0)
	m := NewMetrics()
	for _, e := range fixedFeed(base) {
		m.Emit(e)
	}
	sn := m.Snapshot()
	if sn.Evaluations != 1 {
		t.Errorf("evaluations = %d, want 1", sn.Evaluations)
	}
	if len(sn.Stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(sn.Stages))
	}
	st := sn.Stages[0]
	if st.Calls != "a -> b" || st.Split != "SizeSplit<100>" {
		t.Errorf("stage identity: %+v", st)
	}
	if st.Batches != 2 || st.Elems != 100 || st.Bytes != 1600 {
		t.Errorf("batches/elems/bytes = %d/%d/%d, want 2/100/1600", st.Batches, st.Elems, st.Bytes)
	}
	if st.Retries != 1 || st.Fallbacks != 1 {
		t.Errorf("retries/fallbacks = %d/%d, want 1/1", st.Retries, st.Fallbacks)
	}
	if st.MergeNS != int64(2*time.Millisecond) {
		t.Errorf("merge ns = %d", st.MergeNS)
	}
	// 50 elems × 16 bytes over a 1 MiB target.
	wantUtil := float64(50*16) / float64(1<<20)
	if st.CacheUtilization != wantUtil {
		t.Errorf("cache utilization = %v, want %v", st.CacheUtilization, wantUtil)
	}
	if sn.Breaker["open"] != 1 {
		t.Errorf("breaker transitions = %v", sn.Breaker)
	}
	if !strings.Contains(m.String(), "a -> b") {
		t.Error("String() should render the stage table")
	}
}

func TestMetricsPublishExpvar(t *testing.T) {
	base := time.Unix(0, 0)
	m := NewMetrics()
	for _, e := range fixedFeed(base) {
		m.Emit(e)
	}
	// expvar names are process-global and cannot be unregistered; use a
	// test-unique name.
	m.Publish("mozart_obs_test_metrics")
	// The exported Func must marshal cleanly (expvar renders it as JSON).
	if _, err := json.Marshal(m.Snapshot()); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EvSessionBegin, EvSessionEnd, EvPlan, EvStageBegin,
		EvStageEnd, EvBatch, EvMerge, EvRetry, EvBreaker, EvAdmission, EvFallback,
		EvStageCounters}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d renders %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(200).String() != "unknown" {
		t.Error("out-of-range kind should render unknown")
	}
}

type countTracer struct{ n int }

func (c *countTracer) Emit(Event) { c.n++ }

func TestMulti(t *testing.T) {
	a, b := &countTracer{}, &countTracer{}
	m := Multi(a, nil, b)
	m.Emit(Event{Kind: EvSessionBegin})
	m.Emit(Event{Kind: EvSessionEnd})
	if a.n != 2 || b.n != 2 {
		t.Errorf("fan-out counts = %d/%d, want 2/2", a.n, b.n)
	}
	Multi().Emit(Event{}) // no-op, must not panic
}
