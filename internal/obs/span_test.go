package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name    string
		header  string
		ok      bool
		sampled bool
	}{
		{"valid sampled", valid, true, true},
		{"valid unsampled", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", true, false},
		{"empty", "", false, false},
		{"too few fields", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", false, false},
		{"version ff forbidden", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false, false},
		{"malformed version", "0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false, false},
		{"short version", "0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false, false},
		{"uppercase trace id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false, false},
		{"uppercase span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01", false, false},
		{"all-zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false, false},
		{"all-zero span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false, false},
		{"short trace id", "00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01", false, false},
		{"long span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7ff-01", false, false},
		{"bad flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", false, false},
		// Forward compatibility: a future version may carry extra fields…
		{"future version extra fields", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true, true},
		// …but version 00 must have exactly four.
		{"v00 extra fields", valid + "-extra", false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseTraceparent(tc.header)
			if ok != tc.ok {
				t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", tc.header, ok, tc.ok)
			}
			if !ok {
				if !got.TraceID.IsZero() || !got.SpanID.IsZero() {
					t.Errorf("rejected header returned non-zero context %+v", got)
				}
				return
			}
			if got.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
				t.Errorf("trace id = %s", got.TraceID)
			}
			if got.SpanID.String() != "00f067aa0ba902b7" {
				t.Errorf("span id = %s", got.SpanID)
			}
			if got.Sampled != tc.sampled {
				t.Errorf("sampled = %v, want %v", got.Sampled, tc.sampled)
			}
		})
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	SeedTraceIDs(42)
	tc := NewTraceContext()
	if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
		t.Fatalf("generated context has zero ids: %+v", tc)
	}
	if !tc.Sampled {
		t.Fatalf("generated context must be sampled")
	}
	back, ok := ParseTraceparent(tc.Traceparent())
	if !ok || back != tc {
		t.Fatalf("round trip: %+v -> %q -> %+v (ok=%v)", tc, tc.Traceparent(), back, ok)
	}
	// Determinism under seeding: the same seed yields the same sequence.
	SeedTraceIDs(42)
	if again := NewTraceContext(); again != tc {
		t.Fatalf("seeded generation not deterministic: %+v vs %+v", again, tc)
	}
}

func TestTraceIDJSONRoundTrip(t *testing.T) {
	tc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	blob, err := json.Marshal(tc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"`) {
		t.Fatalf("ids must marshal as hex strings: %s", blob)
	}
	var back TraceContext
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != tc {
		t.Fatalf("json round trip: %+v -> %+v", tc, back)
	}
}

// synthEvents drives a recorder through a plausible evaluation: session,
// plan, one stage with two batches, session end.
func synthEvents(r *SpanRecorder, base time.Time, errDetail string) {
	r.Emit(Event{Kind: EvSessionBegin, Time: base, Stage: -1, Worker: RuntimeLane, Elems: 3})
	r.Emit(Event{Kind: EvPlan, Time: base.Add(time.Millisecond), Dur: time.Millisecond, Stage: -1, Worker: RuntimeLane, Stages: 1})
	r.Emit(Event{Kind: EvStageBegin, Time: base.Add(time.Millisecond), Stage: 0, Calls: "a -> b", Split: "f64", Elems: 100, BatchElems: 50, Workers: 2})
	r.Emit(Event{Kind: EvBatch, Time: base.Add(2 * time.Millisecond), Dur: time.Millisecond, Stage: 0, Worker: 0, Start: 0, End: 50})
	r.Emit(Event{Kind: EvBatch, Time: base.Add(2 * time.Millisecond), Dur: time.Millisecond, Stage: 0, Worker: 1, Start: 50, End: 100})
	r.Emit(Event{Kind: EvStageEnd, Time: base.Add(3 * time.Millisecond), Dur: 2 * time.Millisecond, Stage: 0, Calls: "a -> b"})
	r.Emit(Event{Kind: EvSessionEnd, Time: base.Add(3 * time.Millisecond), Dur: 3 * time.Millisecond, Stage: -1, Worker: RuntimeLane, Detail: errDetail})
}

func TestSpanRecorderTree(t *testing.T) {
	tc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rec := NewSpanRecorder(tc, "POST /v1/eval")
	base := time.Now()
	synthEvents(rec, base, "")
	rec.Annotate("tenant", "alpha")
	tr := rec.Finish("")

	// Root + session + plan + stage + 2 batches = 6 spans.
	if len(tr.Spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(tr.Spans))
	}
	if tr.TraceID != tc.TraceID {
		t.Fatalf("trace id %s, want %s", tr.TraceID, tc.TraceID)
	}
	root := tr.RootSpan()
	if root.Name != "POST /v1/eval" || root.Parent != tc.SpanID {
		t.Fatalf("root %q parented on %s, want POST /v1/eval under %s", root.Name, root.Parent, tc.SpanID)
	}
	// The tree: session under root, stage under session, batches under stage.
	byName := map[string]Span{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	sess, stage := byName["session"], byName["stage 0 [a -> b]"]
	if sess.Parent != root.SpanID {
		t.Errorf("session parented on %s, want root %s", sess.Parent, root.SpanID)
	}
	if stage.Parent != sess.SpanID {
		t.Errorf("stage parented on %s, want session %s", stage.Parent, sess.SpanID)
	}
	if b := byName["batch [0:50]"]; b.Parent != stage.SpanID {
		t.Errorf("batch parented on %s, want stage %s", b.Parent, stage.SpanID)
	}
	if stage.Dur() != 2*time.Millisecond {
		t.Errorf("stage dur %v, want 2ms (backfilled from EvStageEnd)", stage.Dur())
	}
	// Span ids must be unique and non-zero.
	seen := map[SpanID]bool{}
	for _, s := range tr.Spans {
		if s.SpanID.IsZero() || seen[s.SpanID] {
			t.Fatalf("bad span id %s (zero or duplicate)", s.SpanID)
		}
		seen[s.SpanID] = true
	}
	// Finish is idempotent.
	if tr2 := rec.Finish("late"); len(tr2.Spans) != len(tr.Spans) || tr2.RootSpan().Err != "" {
		t.Fatalf("second Finish mutated the trace")
	}

	var buf bytes.Buffer
	tr.RenderTree(&buf)
	tree := buf.String()
	for _, want := range []string{"trace 4bf92f3577b34da6a3ce929d0e0e4736 (6 spans", "- POST /v1/eval", "  - session", "    - stage 0 [a -> b]", "      - batch [0:50]", `tenant="alpha"`} {
		if !strings.Contains(tree, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, tree)
		}
	}
}

func TestSpanRecorderErrorPropagation(t *testing.T) {
	SeedTraceIDs(7)
	rec := NewSpanRecorder(NewTraceContext(), "req")
	synthEvents(rec, time.Now(), "stage 0: boom")
	tr := rec.Finish("boom")
	if tr.RootSpan().Err != "boom" {
		t.Errorf("root err %q, want boom", tr.RootSpan().Err)
	}
	var sessionErr string
	for _, s := range tr.Spans {
		if s.Name == "session" {
			sessionErr = s.Err
		}
	}
	if sessionErr != "stage 0: boom" {
		t.Errorf("session err %q, want the EvSessionEnd detail", sessionErr)
	}
}

func TestSpanRingEvictionAndLookup(t *testing.T) {
	SeedTraceIDs(1)
	ring := NewSpanRing(2)
	var ids []string
	for i := 0; i < 3; i++ {
		rec := NewSpanRecorder(NewTraceContext(), "req")
		ids = append(ids, rec.TraceID().String())
		ring.Add(rec.Finish(""))
	}
	if ring.Len() != 2 {
		t.Fatalf("len = %d, want 2", ring.Len())
	}
	if _, ok := ring.Get(ids[0]); ok {
		t.Errorf("oldest trace %s should have been evicted", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := ring.Get(id); !ok {
			t.Errorf("trace %s missing", id)
		}
	}
	if _, ok := ring.Get("zz"); ok {
		t.Errorf("malformed id must miss")
	}
	sums := ring.Summaries()
	if len(sums) != 2 || sums[0].TraceID != ids[1] || sums[1].TraceID != ids[2] {
		t.Errorf("summaries out of order: %+v", sums)
	}
}

func TestWriteOTLPShape(t *testing.T) {
	tc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rec := NewSpanRecorder(tc, "POST /v1/eval")
	synthEvents(rec, time.Now(), "")
	tr := rec.Finish("")

	var buf bytes.Buffer
	if err := tr.WriteOTLP(&buf, "mozartd"); err != nil {
		t.Fatal(err)
	}
	var export struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID           string `json:"traceId"`
					SpanID            string `json:"spanId"`
					ParentSpanID      string `json:"parentSpanId"`
					Kind              int    `json:"kind"`
					StartTimeUnixNano string `json:"startTimeUnixNano"`
					Status            struct {
						Code int `json:"code"`
					} `json:"status"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &export); err != nil {
		t.Fatalf("OTLP output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(export.ResourceSpans) != 1 {
		t.Fatalf("want 1 resourceSpans, got %d", len(export.ResourceSpans))
	}
	rs := export.ResourceSpans[0]
	if got := rs.Resource.Attributes[0].Value.StringValue; got != "mozartd" {
		t.Errorf("service.name = %q", got)
	}
	spans := rs.ScopeSpans[0].Spans
	if len(spans) != 6 {
		t.Fatalf("want 6 spans, got %d", len(spans))
	}
	var sawServer bool
	for _, s := range spans {
		if s.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("span trace id %q", s.TraceID)
		}
		if len(s.SpanID) != 16 {
			t.Errorf("span id %q not 16 hex digits", s.SpanID)
		}
		if s.StartTimeUnixNano == "" {
			t.Errorf("span missing stringified start time")
		}
		if s.Kind == 2 {
			sawServer = true
		}
		if s.Status.Code != 1 {
			t.Errorf("ok span status code %d, want 1", s.Status.Code)
		}
	}
	if !sawServer {
		t.Errorf("root span must have SERVER kind (2)")
	}
}

// TestSpanRecorderSpanCap: beyond maxSpans a recorder counts drops on the
// root instead of buffering, session and stage spans are kept regardless,
// and kept spans' ids do not depend on how many were dropped.
func TestSpanRecorderSpanCap(t *testing.T) {
	tc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rec := NewSpanRecorder(tc, "req")
	base := time.Unix(0, 0)
	const batches = maxSpans + 10
	rec.Emit(Event{Kind: EvSessionBegin, Time: base, Stage: -1, Worker: RuntimeLane})
	rec.Emit(Event{Kind: EvStageBegin, Time: base, Stage: 0, Calls: "a"})
	for i := 0; i < batches; i++ {
		rec.Emit(Event{Kind: EvBatch, Time: base.Add(time.Millisecond), Dur: time.Millisecond,
			Stage: 0, Start: int64(i), End: int64(i + 1)})
	}
	rec.Emit(Event{Kind: EvStageEnd, Time: base.Add(time.Second), Dur: time.Second, Stage: 0})
	rec.Emit(Event{Kind: EvStageBegin, Time: base.Add(time.Second), Stage: 1, Calls: "b"})
	rec.Emit(Event{Kind: EvStageEnd, Time: base.Add(2 * time.Second), Dur: time.Second, Stage: 1})
	rec.Emit(Event{Kind: EvSessionEnd, Time: base.Add(2 * time.Second), Dur: 2 * time.Second, Stage: -1, Worker: RuntimeLane})
	tr := rec.Finish("")

	// root + session + stage 0 + (maxSpans-2) batches + stage 1
	if len(tr.Spans) != maxSpans+2 {
		t.Fatalf("got %d spans, want %d", len(tr.Spans), maxSpans+2)
	}
	var dropped int64 = -1
	for _, a := range tr.RootSpan().Attrs {
		if a.Key == "dropped_spans" {
			dropped = a.Int
		}
	}
	if want := int64(batches - (maxSpans - 2)); dropped != want {
		t.Errorf("dropped_spans = %d, want %d", dropped, want)
	}
	last := tr.Spans[len(tr.Spans)-1]
	if last.Name != "stage 1 [b]" || last.Dur() != time.Second {
		t.Fatalf("stage past the cap = %q (%v), want stage 1 [b] closed after 1s", last.Name, last.Dur())
	}
	// root=1, session=2, stage 0=3, batches 4.., stage 1 after all of them.
	var want SpanID
	binary.BigEndian.PutUint64(want[:], binary.BigEndian.Uint64(tc.TraceID[8:16])^uint64(4+batches))
	if last.SpanID != want {
		t.Errorf("stage 1 id = %s, want %s (dropped spans keep their sequence numbers)", last.SpanID, want)
	}
	for _, s := range tr.Spans {
		if s.Name == "session" && s.Dur() != 2*time.Second {
			t.Errorf("session span not closed past the cap: %v", s.Dur())
		}
	}
}

// TestSpanRecorderConcurrent exercises Emit from parallel workers under
// -race: batch events race the stage bookkeeping.
func TestSpanRecorderConcurrent(t *testing.T) {
	SeedTraceIDs(99)
	rec := NewSpanRecorder(NewTraceContext(), "req")
	base := time.Now()
	rec.Emit(Event{Kind: EvSessionBegin, Time: base, Stage: -1, Worker: RuntimeLane})
	rec.Emit(Event{Kind: EvStageBegin, Time: base, Stage: 0, Calls: "a", Split: "f64"})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				rec.Emit(Event{Kind: EvBatch, Time: base.Add(time.Millisecond), Dur: time.Millisecond,
					Stage: 0, Worker: w, Start: int64(i), End: int64(i + 1)})
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	rec.Emit(Event{Kind: EvStageEnd, Time: base.Add(time.Second), Dur: time.Second, Stage: 0})
	rec.Emit(Event{Kind: EvSessionEnd, Time: base.Add(time.Second), Dur: time.Second, Stage: -1, Worker: RuntimeLane})
	tr := rec.Finish("")
	// root + session + stage + 200 batches
	if len(tr.Spans) != 203 {
		t.Fatalf("got %d spans, want 203", len(tr.Spans))
	}
}

// TestSpanRecorderGolden pins the span names, attrs, ids and tree shape
// SpanRecorder derives from every event kind: fixedFeed plus the kinds it
// lacks (counters, pressure, spill, tune), under a fixed trace context.
// The root span's wall-clock times are normalized; everything else comes
// from the feed. Both renderings are locked, since OTLP/JSON is what
// serving clients parse. Regenerate with `go test ./internal/obs -update`
// only after an intentional change to the span model.
func TestSpanRecorderGolden(t *testing.T) {
	base := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	feed := fixedFeed(base)
	end := feed[len(feed)-1]
	feed = append(feed[:len(feed)-1],
		Event{Kind: EvStageCounters, Time: at(12), Stage: 0, Worker: RuntimeLane, Calls: "a -> b",
			Counters: CacheCounters{L1Hits: 10, L1Misses: 2, DRAMBytes: 4096, ModelNS: 1500}},
		Event{Kind: EvPressure, Time: at(12), Stage: 0, Worker: RuntimeLane, Calls: "a -> b",
			Detail: "constrained", Bytes: 1 << 20},
		Event{Kind: EvSpill, Time: at(12), Stage: 0, Worker: RuntimeLane, Start: 0, End: 50,
			Detail: "append", Bytes: 400},
		Event{Kind: EvTune, Time: at(12), Dur: 11 * time.Millisecond, Stage: -1, Worker: RuntimeLane,
			Detail: "calibrated", BatchElems: 50, Workers: 2, Elems: 100, Bytes: 1600},
		end)

	tc, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rec := NewSpanRecorder(tc, "POST /v1/eval")
	for _, e := range feed {
		rec.Emit(e)
	}
	rec.Annotate("tenant", "alpha")
	rec.AnnotateInt("http.status_code", 200)
	tr := rec.Finish("")
	if tr.Spans[0].SpanID != tr.Root {
		t.Fatal("root span must lead the trace")
	}
	tr.Spans[0].Start, tr.Spans[0].End = base, at(13)

	var buf bytes.Buffer
	if _, err := tr.RenderTree(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("---\n")
	if err := tr.WriteOTLP(&buf, "mozartd"); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "spanrecorder.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("span recorder output differs from %s;\ngot:\n%s", golden, buf.String())
	}
}
