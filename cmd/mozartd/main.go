// Command mozartd serves Mozart evaluations over HTTP to multiple tenants
// with overload protection, deadlines, and graceful degradation.
//
// Usage:
//
//	mozartd -addr :8080 -budget 1024 -tenants alpha=512,beta=256
//
// declares two tenants whose memory budgets (in MiB) are carved out of a
// 1 GiB shared governor. Requests then evaluate named workloads:
//
//	curl -s -X POST localhost:8080/v1/eval -H 'X-Mozart-Tenant: alpha' \
//	  -d '{"workload":"blackscholes-numpy","scale":65536,"timeout_ms":500}'
//
// Overloaded tenants are shed with 429 + Retry-After (never queued) —
// unless the request opts in with "degrade": true, in which case an
// over-budget evaluation runs out of core instead: streamed in
// admission-sized windows with merge partials spilled under -spill-dir,
// reported back as "mode" and "spill_bytes" in the response. Expired
// deadlines surface as 504 with the partial work cancelled, and
// SIGTERM/SIGINT triggers a graceful drain: admission stops (readyz flips
// 503), in-flight evaluations get -drain to finish, stragglers are force-
// cancelled at batch boundaries, and the process exits 0 only if every
// budget byte was returned and every spill file reclaimed.
//
// The telemetry mux rides on the same listener: GET /metrics (plain
// Prometheus text, or OpenMetrics with exemplars under Accept:
// application/openmetrics-text), /debug/mozart/plans, per-request span
// trees under /debug/mozart/spans/<trace-id> (?format=tree|otlp|chrome),
// and per-tenant flight recorders under /debug/mozart/flight/<tenant>.
//
// Every /v1/eval request is traced end to end: a W3C traceparent header is
// honoured (or one is minted), echoed back on the response, stamped into
// the JSON body, and every runtime event of the evaluation becomes a span
// in the request's tree. One structured log line summarizes each request
// (-log-json switches it to JSON); per-tenant SLOs (-slo-latency,
// -slo-availability) drive the mozart_slo_* burn-rate metric families.
//
// -smoke runs a self-contained boot → evaluate → shed → drain scenario on
// an ephemeral port (including a real SIGTERM round-trip) and exits
// non-zero on any violation; `make serve-smoke` wires it into CI.
// -slo-smoke does the same for the observability contract: traced
// requests, span trees, exemplars, burn rates, and trace→flight lookup;
// `make slo-smoke` wires it into CI.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mozart/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		budgetMiB  = flag.Int64("budget", 1024, "shared memory budget in MiB, carved across tenants")
		tenantSpec = flag.String("tenants", "", "comma-separated name=budgetMiB[:maxInFlight] tenant declarations (empty: one 'default' tenant owning the whole budget)")
		maxFlight  = flag.Int("max-in-flight", 32, "global concurrent-evaluation cap; excess requests shed with 429")
		timeout    = flag.Duration("timeout", 2*time.Second, "default per-request evaluation deadline")
		maxTimeout = flag.Duration("max-timeout", 10*time.Second, "clamp on client-supplied timeout_ms")
		drain      = flag.Duration("drain", 5*time.Second, "graceful-drain deadline after SIGTERM before force-cancel")
		maxWorkers = flag.Int("max-workers", 8, "clamp on per-request worker threads")
		spillDir   = flag.String("spill-dir", "", "directory for out-of-core spill stores (empty: the OS temp dir)")
		tuneOn     = flag.Bool("tune", false, "give each tenant a calibrating batch tuner: repeated plans sweep batch sizes online and pin the winner")
		smoke      = flag.Bool("smoke", false, "run the boot/shed/drain smoke scenario on an ephemeral port and exit")
		sloSmoke   = flag.Bool("slo-smoke", false, "run the tracing/SLO smoke scenario (span trees, exemplars, burn rates) on an ephemeral port and exit")
		logJSON    = flag.Bool("log-json", false, "emit the server's log lines (per-request summaries, lifecycle errors) as JSON (default: logfmt-style text)")
		sloLatency = flag.Duration("slo-latency", 500*time.Millisecond, "per-tenant SLO latency objective: a 200 slower than this spends error budget")
		sloAvail   = flag.Float64("slo-availability", 0.999, "per-tenant SLO availability objective in (0,1); 1-it is the error budget")
	)
	flag.Parse()

	logf := log.New(os.Stderr, "mozartd: ", log.LstdFlags).Printf
	if *smoke {
		if err := runSmoke(logf); err != nil {
			logf("SMOKE FAIL: %v", err)
			os.Exit(1)
		}
		logf("SMOKE PASS")
		return
	}
	if *sloSmoke {
		if err := runSLOSmoke(logf); err != nil {
			logf("SLO-SMOKE FAIL: %v", err)
			os.Exit(1)
		}
		logf("SLO-SMOKE PASS")
		return
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}

	tenants, err := parseTenants(*tenantSpec)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	cfg := serve.Config{
		GlobalBudgetBytes: *budgetMiB << 20,
		MaxInFlight:       *maxFlight,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		DrainTimeout:      *drain,
		MaxWorkers:        *maxWorkers,
		SpillDir:          *spillDir,
		Tenants:           tenants,
		Tune:              *tuneOn,
		SLO:               serve.SLOConfig{LatencyObjective: *sloLatency, Availability: *sloAvail},
		Logger:            slog.New(handler),
	}
	srv, err := serve.New(cfg)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	if err := run(srv, ln, *drain, logf); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// run serves until SIGTERM/SIGINT, then walks the drain state machine and
// reports whether the server quiesced cleanly.
func run(srv *serve.Server, ln net.Listener, drainTimeout time.Duration, logf func(string, ...any)) error {
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logf("serving on http://%s (%d tenants: %s)", ln.Addr(), len(srv.TenantNames()), strings.Join(srv.TenantNames(), ", "))

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-serveErr:
		return fmt.Errorf("mozartd: listener failed: %w", err)
	case <-sigCtx.Done():
	}
	logf("signal received; draining (deadline %v, %d in flight)", drainTimeout, srv.InFlight())
	drainErr := srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = hs.Shutdown(shutCtx)
	if drainErr != nil {
		return fmt.Errorf("mozartd: unclean drain: %w", drainErr)
	}
	logf("drained cleanly: in-flight 0, all tenant budgets returned")
	return nil
}

// parseTenants parses "name=budgetMiB[:maxInFlight],...".
func parseTenants(spec string) ([]serve.TenantConfig, error) {
	if spec == "" {
		return nil, nil // serve.Config defaults to one tenant owning the budget
	}
	var out []serve.TenantConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mozartd: bad tenant %q (want name=budgetMiB[:maxInFlight])", part)
		}
		budgetStr, flightStr, hasFlight := strings.Cut(rest, ":")
		budget, err := strconv.ParseInt(budgetStr, 10, 64)
		if err != nil || budget <= 0 {
			return nil, fmt.Errorf("mozartd: bad budget in tenant %q", part)
		}
		tc := serve.TenantConfig{Name: name, BudgetBytes: budget << 20}
		if hasFlight {
			n, err := strconv.Atoi(flightStr)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("mozartd: bad maxInFlight in tenant %q", part)
			}
			tc.MaxInFlight = n
		}
		out = append(out, tc)
	}
	return out, nil
}

// ---- smoke scenario --------------------------------------------------------

// runSmoke boots a two-tenant server on an ephemeral port and checks the
// robustness contract end to end: a normal evaluation succeeds, an
// over-budget tenant is shed with 429 + Retry-After, a real SIGTERM flips
// readyz and drains cleanly with every budget byte returned.
func runSmoke(logf func(string, ...any)) error {
	const (
		bigBudget  = 64 << 20
		tinyBudget = 4 << 10 // smaller than any modeled request: always sheds
	)
	srv, err := serve.New(serve.Config{
		GlobalBudgetBytes: 128 << 20,
		DefaultTimeout:    5 * time.Second,
		DrainTimeout:      3 * time.Second,
		Tenants: []serve.TenantConfig{
			{Name: "alpha", BudgetBytes: bigBudget},
			{Name: "tiny", BudgetBytes: tinyBudget},
		},
		// Lifecycle errors (a passed drain deadline, a handler panic) only:
		// the smoke's own lines narrate the scenario.
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})),
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

	post := func(tenant string, body string) (*http.Response, []byte, error) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/eval", bytes.NewReader([]byte(body)))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("X-Mozart-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b, nil
	}

	// 1. Liveness and readiness.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: got %d, want 200", resp.StatusCode)
	}
	logf("smoke: readyz 200")

	// 2. A normal evaluation on the well-provisioned tenant succeeds.
	resp, body, err := post("alpha", `{"workload":"blackscholes-numpy","scale":16384,"timeout_ms":4000}`)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("alpha eval: got %d (%s), want 200", resp.StatusCode, body)
	}
	var er struct {
		Checksum float64 `json:"checksum"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		return fmt.Errorf("alpha eval: bad body %s: %w", body, err)
	}
	logf("smoke: alpha evaluated blackscholes-numpy, checksum %g", er.Checksum)

	// 3. The over-budget tenant is shed: 429, Retry-After, never queued.
	resp, body, err = post("tiny", `{"workload":"blackscholes-numpy","scale":65536}`)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		return fmt.Errorf("tiny eval: got %d (%s), want 429", resp.StatusCode, body)
	}
	if serve.RetryAfter(resp.Header) <= 0 {
		return fmt.Errorf("tiny eval: 429 without Retry-After")
	}
	logf("smoke: tiny shed with 429 Retry-After=%s", resp.Header.Get("Retry-After"))

	// 3b. The same tenant, opting into degradation: an evaluation whose
	// working set dwarfs the 4 KiB carve completes out of core instead of
	// shedding, and reports the pressure episode and spill volume.
	resp, body, err = post("tiny", `{"workload":"blackscholes-ooc","scale":65536,"degrade":true}`)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("tiny degrade eval: got %d (%s), want 200", resp.StatusCode, body)
	}
	var dg struct {
		Mode       string `json:"mode"`
		SpillBytes int64  `json:"spill_bytes"`
	}
	if err := json.Unmarshal(body, &dg); err != nil {
		return fmt.Errorf("tiny degrade eval: bad body %s: %w", body, err)
	}
	if dg.Mode != "out-of-core" || dg.SpillBytes <= 0 {
		return fmt.Errorf("tiny degrade eval: mode %q spill_bytes %d, want out-of-core with spill", dg.Mode, dg.SpillBytes)
	}
	logf("smoke: tiny degraded to out-of-core, spilled %d bytes", dg.SpillBytes)

	// 4. Tenant accounting shows up on the status endpoint.
	resp, err = http.Get(base + "/v1/tenants")
	if err != nil {
		return err
	}
	var statuses []serve.TenantStatus
	err = json.NewDecoder(resp.Body).Decode(&statuses)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var sawShed bool
	for _, st := range statuses {
		if st.Name == "tiny" && st.Shed == 1 {
			sawShed = true
		}
	}
	if !sawShed {
		return fmt.Errorf("tenant status did not record tiny's shed request: %+v", statuses)
	}

	// 5. A real SIGTERM round-trip: admission stops, drain completes, every
	// budget byte returns to the shared governor.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return err
	}
	<-sigCtx.Done()
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("readyz after drain: got %d, want 503", resp.StatusCode)
	}
	if got := srv.GlobalGovernor().InUse(); got != 0 {
		return fmt.Errorf("shared governor holds %d bytes after drain", got)
	}
	logf("smoke: SIGTERM drained cleanly, readyz 503, shared governor empty")

	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr
	return nil
}
