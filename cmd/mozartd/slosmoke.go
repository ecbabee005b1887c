package main

// The observability smoke scenario behind -slo-smoke: boots a server on an
// ephemeral port and checks the tracing/SLO contract end to end — a
// traceparent-carrying request is echoed and leaves a full span tree, the
// latency histogram carries the trace id as an OpenMetrics exemplar, a
// tenant with an unmeetable latency objective shows non-zero multi-window
// burn rates, a deadline-exceeded request's trace id resolves to its
// flight recording, and the structured request log names the trace.
// `make slo-smoke` wires it into CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"mozart/internal/serve"
)

// smokeTraceparent is the fixed inbound trace context the scenario
// propagates; the trace id below must surface everywhere.
const (
	smokeTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	smokeTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
)

func runSLOSmoke(logf func(string, ...any)) error {
	// The structured server log lands in a buffer so the scenario can
	// assert the request summary line carries the trace id.
	var logBuf bytes.Buffer
	srv, err := serve.New(serve.Config{
		GlobalBudgetBytes: 128 << 20,
		DefaultTimeout:    5 * time.Second,
		DrainTimeout:      3 * time.Second,
		Tenants: []serve.TenantConfig{
			{Name: "alpha", BudgetBytes: 64 << 20},
			// Every 200 misses a 1ns objective: all of strict's successes
			// are SLO-bad, so burn rates must go non-zero immediately.
			{Name: "strict", BudgetBytes: 32 << 20,
				SLO: &serve.SLOConfig{LatencyObjective: time.Nanosecond, Availability: 0.999}},
		},
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	base := "http://" + ln.Addr().String()
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	post := func(tenant, traceparent, body string) (*http.Response, []byte, error) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/eval", bytes.NewReader([]byte(body)))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("X-Mozart-Tenant", tenant)
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b, nil
	}
	get := func(path, accept string) (*http.Response, []byte, error) {
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			return nil, nil, err
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b, nil
	}

	// 1. A traced evaluation: the inbound trace id must come back in the
	// response header and body.
	resp, body, err := post("alpha", smokeTraceparent, `{"workload":"blackscholes-numpy","scale":16384,"timeout_ms":4000}`)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("traced eval: got %d (%s), want 200", resp.StatusCode, body)
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, smokeTraceID) {
		return fmt.Errorf("traced eval: response traceparent %q does not carry trace id %s", tp, smokeTraceID)
	}
	var er struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		return fmt.Errorf("traced eval: bad body %s: %w", body, err)
	}
	if er.TraceID != smokeTraceID {
		return fmt.Errorf("traced eval: body trace_id %q, want %s", er.TraceID, smokeTraceID)
	}
	logf("slo-smoke: traced eval echoed trace id %s", smokeTraceID)

	// 2. The span tree: admission → plan → stages → batches, all under the
	// request's trace id, in both renderings.
	resp, body, err = get("/debug/mozart/spans/"+smokeTraceID, "")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("span tree: got %d (%s), want 200", resp.StatusCode, body)
	}
	tree := string(body)
	for _, want := range []string{"trace " + smokeTraceID, "POST /v1/eval", "session", "plan", "stage 0", "batch ["} {
		if !strings.Contains(tree, want) {
			return fmt.Errorf("span tree missing %q:\n%s", want, tree)
		}
	}
	resp, body, err = get("/debug/mozart/spans/"+smokeTraceID+"?format=otlp", "")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("otlp export: got %d, want 200", resp.StatusCode)
	}
	var otlp struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID string `json:"traceId"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(body, &otlp); err != nil {
		return fmt.Errorf("otlp export: bad JSON: %w", err)
	}
	if len(otlp.ResourceSpans) == 0 || len(otlp.ResourceSpans[0].ScopeSpans) == 0 ||
		len(otlp.ResourceSpans[0].ScopeSpans[0].Spans) < 3 ||
		otlp.ResourceSpans[0].ScopeSpans[0].Spans[0].TraceID != smokeTraceID {
		return fmt.Errorf("otlp export: implausible span payload: %s", body)
	}
	logf("slo-smoke: span tree renders %d OTLP spans", len(otlp.ResourceSpans[0].ScopeSpans[0].Spans))

	// 3. OpenMetrics negotiation: the latency histogram's buckets carry the
	// trace id as an exemplar, and the exposition is properly terminated.
	resp, body, err = get("/metrics", "application/openmetrics-text")
	if err != nil {
		return err
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		return fmt.Errorf("openmetrics scrape: content type %q", ct)
	}
	om := string(body)
	if !strings.HasSuffix(om, "# EOF\n") {
		return fmt.Errorf("openmetrics scrape: missing # EOF terminator")
	}
	if !strings.Contains(om, `# {trace_id="`+smokeTraceID+`"}`) {
		return fmt.Errorf("openmetrics scrape: no exemplar carrying trace id %s", smokeTraceID)
	}
	logf("slo-smoke: OpenMetrics exemplar carries the trace id")

	// 4. Burn rates: traffic against strict's unmeetable objective must
	// push its multi-window burn rates above zero, on /v1/tenants and in
	// the mozart_slo_* families.
	for i := 0; i < 5; i++ {
		if resp, body, err = post("strict", "", `{"workload":"blackscholes-numpy","scale":4096,"timeout_ms":4000}`); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("strict eval %d: got %d (%s), want 200", i, resp.StatusCode, body)
		}
	}
	resp, body, err = get("/v1/tenants", "")
	if err != nil {
		return err
	}
	var statuses []serve.TenantStatus
	if err := json.Unmarshal(body, &statuses); err != nil {
		return fmt.Errorf("tenants: bad body %s: %w", body, err)
	}
	var strictOK bool
	for _, st := range statuses {
		if st.Name != "strict" {
			continue
		}
		if st.SLOBad < 5 || st.SLOBurnRate5m <= 0 || st.SLOBurnRate1h <= 0 {
			return fmt.Errorf("strict SLO row implausible: bad=%d burn5m=%g burn1h=%g",
				st.SLOBad, st.SLOBurnRate5m, st.SLOBurnRate1h)
		}
		if st.SLOWorstTrace == "" {
			return fmt.Errorf("strict SLO row missing worst trace")
		}
		strictOK = true
	}
	if !strictOK {
		return fmt.Errorf("no strict tenant in /v1/tenants: %s", body)
	}
	resp, body, err = get("/metrics", "")
	if err != nil {
		return err
	}
	plain := string(body)
	if !strings.Contains(plain, `mozart_slo_burn_rate{tenant="strict",window="5m"}`) ||
		!strings.Contains(plain, `mozart_slo_requests_total{outcome="bad",tenant="strict"} 5`) {
		return fmt.Errorf("plain scrape missing strict SLO families")
	}
	logf("slo-smoke: strict tenant burns budget on both windows")

	// 5. A deadline-exceeded request's trace id resolves to its flight
	// recording: every evaluated request is recorded, so every 504 has
	// one. The 1ms deadline can occasionally be beaten; retry with fresh
	// trace ids until a request times out.
	var timedOutTrace string
	for i := 0; i < 10 && timedOutTrace == ""; i++ {
		resp, body, err = post("alpha", "", `{"workload":"blackscholes-numpy","scale":1048576,"timeout_ms":1}`)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusGatewayTimeout {
			continue
		}
		var ed struct {
			Error struct {
				TraceID string `json:"trace_id"`
				Flight  string `json:"flight"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &ed); err != nil {
			return fmt.Errorf("timeout body %s: %w", body, err)
		}
		if ed.Error.TraceID == "" || !strings.Contains(ed.Error.Flight, "?trace="+ed.Error.TraceID) {
			return fmt.Errorf("timeout body lacks trace-keyed flight ref: %s", body)
		}
		if resp, body, err = get(ed.Error.Flight, ""); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("flight lookup for 504 trace %s: %d %s", ed.Error.TraceID, resp.StatusCode, body)
		}
		var rec struct {
			TraceID string `json:"trace_id"`
			Err     string `json:"err"`
		}
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("flight lookup: bad body %s: %w", body, err)
		}
		if rec.TraceID != ed.Error.TraceID || rec.Err == "" {
			return fmt.Errorf("flight recording mismatch: trace %q err %q", rec.TraceID, rec.Err)
		}
		timedOutTrace = ed.Error.TraceID
	}
	if timedOutTrace == "" {
		return fmt.Errorf("no deadline-exceeded request produced a trace-resolvable flight recording")
	}
	logf("slo-smoke: 504 trace %s resolved to its flight recording", timedOutTrace)

	// 6. The structured request log names the traced request.
	if !strings.Contains(logBuf.String(), `"trace_id":"`+smokeTraceID+`"`) {
		return fmt.Errorf("request log missing trace id %s:\n%s", smokeTraceID, logBuf.String())
	}
	logf("slo-smoke: structured log carries the trace id")

	// 7. Clean drain, as ever.
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr
	return nil
}
