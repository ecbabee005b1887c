package httpdebug_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mozart/internal/obs"
	"mozart/internal/obs/httpdebug"
)

// smokeTrace builds one completed trace rooted on a fixed traceparent.
func smokeTrace(t *testing.T) (*obs.Trace, string) {
	t.Helper()
	tc, ok := obs.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("fixed traceparent must parse")
	}
	rec := obs.NewSpanRecorder(tc, "POST /v1/eval")
	base := time.Now()
	rec.Emit(obs.Event{Kind: obs.EvSessionBegin, Time: base, Stage: -1, Worker: obs.RuntimeLane})
	rec.Emit(obs.Event{Kind: obs.EvStageBegin, Time: base, Stage: 0, Calls: "scale", Split: "f64"})
	rec.Emit(obs.Event{Kind: obs.EvBatch, Time: base.Add(time.Millisecond), Dur: time.Millisecond, Stage: 0, Start: 0, End: 8})
	rec.Emit(obs.Event{Kind: obs.EvStageEnd, Time: base.Add(time.Millisecond), Dur: time.Millisecond, Stage: 0})
	rec.Emit(obs.Event{Kind: obs.EvSessionEnd, Time: base.Add(time.Millisecond), Dur: time.Millisecond, Stage: -1, Worker: obs.RuntimeLane})
	return rec.Finish(""), tc.TraceID.String()
}

// TestSpansEndpoints round-trips the span index and the per-trace
// renderings through a live server.
func TestSpansEndpoints(t *testing.T) {
	ring := obs.NewSpanRing(4)
	tr, traceID := smokeTrace(t)
	ring.Add(tr)

	mux := http.NewServeMux()
	httpdebug.Mount(mux, httpdebug.Options{Spans: ring, Service: "mozartd-test"})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	// The index lists the retained trace.
	code, body, ctype := get("/debug/mozart/spans")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("index: %d %q", code, ctype)
	}
	var sums []obs.TraceSummary
	if err := json.Unmarshal([]byte(body), &sums); err != nil {
		t.Fatalf("index not JSON: %v", err)
	}
	if len(sums) != 1 || sums[0].TraceID != traceID || sums[0].Name != "POST /v1/eval" {
		t.Fatalf("index rows: %+v", sums)
	}

	// Default rendering: the indented tree.
	code, body, ctype = get("/debug/mozart/spans/" + traceID)
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("tree: %d %q", code, ctype)
	}
	for _, want := range []string{"trace " + traceID, "- POST /v1/eval", "- session", "- stage 0 [scale]", "- batch [0:8]"} {
		if !strings.Contains(body, want) {
			t.Errorf("tree missing %q:\n%s", want, body)
		}
	}

	// OTLP rendering: valid JSON naming the mounted service.
	code, body, ctype = get("/debug/mozart/spans/" + traceID + "?format=otlp")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("otlp: %d %q", code, ctype)
	}
	if !strings.Contains(body, `"mozartd-test"`) || !strings.Contains(body, `"traceId": "`+traceID+`"`) {
		t.Errorf("otlp body:\n%s", body)
	}

	// Chrome rendering: trace_event JSON with the batch on worker lane 1.
	code, body, ctype = get("/debug/mozart/spans/" + traceID + "?format=chrome")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("chrome: %d %q", code, ctype)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("chrome body not JSON: %v", err)
	}
	batchTid := -1
	for _, e := range doc.TraceEvents {
		if e.Name == "batch [0:8]" {
			batchTid = e.Tid
		}
	}
	if batchTid != 1 {
		t.Errorf("chrome batch span on tid %d, want worker lane 1:\n%s", batchTid, body)
	}

	// Unknown format and unknown trace fail cleanly.
	if code, _, _ = get("/debug/mozart/spans/" + traceID + "?format=protobuf"); code != http.StatusBadRequest {
		t.Errorf("unknown format = %d, want 400", code)
	}
	if code, _, _ = get("/debug/mozart/spans/ffffffffffffffffffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", code)
	}
}

// TestMetricsContentNegotiation: the /metrics endpoint serves classic
// Prometheus text by default and OpenMetrics (with exemplars and the # EOF
// terminator) when the scraper asks for it.
func TestMetricsContentNegotiation(t *testing.T) {
	metrics := obs.NewMetrics()
	_, traceID := smokeTrace(t) // unused trace ring; we only need the id shape
	tc, _ := obs.ParseTraceparent("00-" + traceID + "-00f067aa0ba902b7-01")
	metrics.Emit(obs.Event{Kind: obs.EvSessionBegin, Time: time.Now(), Stage: -1, Worker: obs.RuntimeLane, Trace: &tc})
	metrics.Emit(obs.Event{Kind: obs.EvSessionEnd, Time: time.Now(), Dur: 3 * time.Millisecond, Stage: -1, Worker: obs.RuntimeLane, Trace: &tc})

	mux := http.NewServeMux()
	httpdebug.Mount(mux, httpdebug.Options{Metrics: metrics})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(accept string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	// No Accept header: classic text format, no exemplars, no EOF marker.
	body, ctype := get("")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("plain content type %q", ctype)
	}
	if strings.Contains(body, "# EOF") || strings.Contains(body, "trace_id=") {
		t.Errorf("plain exposition leaked OpenMetrics syntax:\n%s", body)
	}

	// A Prometheus-style Accept header negotiating OpenMetrics.
	om, ctype := get("application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5")
	if !strings.HasPrefix(ctype, "application/openmetrics-text") {
		t.Errorf("openmetrics content type %q", ctype)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Errorf("openmetrics exposition missing # EOF terminator")
	}
	if !strings.Contains(om, `# {trace_id="`+traceID+`"}`) {
		t.Errorf("openmetrics exposition missing the latency exemplar:\n%s", om)
	}

	// Accept headers that do not name OpenMetrics stay on the classic path.
	if body, _ := get("text/plain, */*"); strings.Contains(body, "# EOF") {
		t.Error("*/* must not negotiate OpenMetrics")
	}
}
