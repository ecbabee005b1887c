package serve_test

// The chaos soak: mozartd's robustness contract exercised end to end under
// -race. Two tenants with disjoint budget carves run the Listing-1 vector
// pipeline concurrently; the "noisy" tenant's library functions go through
// a fault injector arming seeded latency jitter and a transient splitter
// outage, while the "quiet" tenant runs clean. The soak then asserts the
// whole contract at once:
//
//   - overload is shed deterministically (429 + Retry-After, never queued),
//   - tight deadlines surface as 504 mapped from context.DeadlineExceeded,
//   - the noisy tenant's faults trip only its own breaker group — the
//     quiet tenant sees zero trips and zero 5xx (fault isolation),
//   - a mid-evaluation budget squeeze pushes the noisy tenant into memory
//     pressure; degrade-opted requests keep completing out of core (and the
//     spilling workload reports CRC-checked spill volume) instead of
//     shedding, and once the squeeze clears, plain traffic returns to
//     baseline goodput,
//   - drain leaves every governor (tenant and shared) at zero bytes, the
//     quiesce check passes, and no spill stores or files survive.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/faultinject"
	"mozart/internal/serve"
	"mozart/internal/spill"
	"mozart/internal/vmath"
)

// pipelineRegistry builds a registry whose "pipeline" workload runs the
// Listing-1 vector chain (log1p, add) through inj-wrapped annotated calls,
// inside a session carrying the tenant options the server threaded in.
func pipelineRegistry(inj *faultinject.Injector) map[string]serve.EvalFunc {
	arrOf := func(site string) core.TypeExpr {
		return core.Concrete("ArraySplit", inj.WrapSplitter(site, vmathsa.ArraySplitter{}), func(args []any) (core.SplitType, error) {
			return core.NewSplitType("ArraySplit", int64(args[0].(int))), nil
		})
	}
	log1pFn := inj.WrapFunc("vdLog1p", func(args []any) (any, error) {
		vmath.Log1p(args[0].(int), args[1].([]float64), args[2].([]float64))
		return nil, nil
	})
	log1pArr := arrOf("vdLog1p")
	log1pSA := &core.Annotation{FuncName: "vdLog1p", Params: []core.Param{
		{Name: "size", Type: vmathsa.SizeSplit(0)},
		{Name: "a", Type: log1pArr},
		{Name: "out", Mut: true, Type: log1pArr},
	}}
	addFn := inj.WrapFunc("vdAdd", func(args []any) (any, error) {
		vmath.Add(args[0].(int), args[1].([]float64), args[2].([]float64), args[3].([]float64))
		return nil, nil
	})
	addArr := arrOf("vdAdd")
	addSA := &core.Annotation{FuncName: "vdAdd", Params: []core.Param{
		{Name: "size", Type: vmathsa.SizeSplit(0)},
		{Name: "a", Type: addArr},
		{Name: "b", Type: addArr},
		{Name: "out", Mut: true, Type: addArr},
	}}
	return map[string]serve.EvalFunc{
		"pipeline": func(ctx context.Context, p serve.EvalParams, opts core.Options) (float64, error) {
			n := p.Scale
			d1 := make([]float64, n)
			tmp := make([]float64, n)
			for i := 0; i < n; i++ {
				d1[i] = float64(i%100)/100 + 0.1
				tmp[i] = float64(i%37)/37 + 0.1
			}
			s := core.NewSession(opts)
			s.Call(log1pFn, log1pSA, n, d1, d1)
			s.Call(addFn, addSA, n, d1, tmp, d1)
			if err := s.EvaluateContext(ctx); err != nil {
				return 0, err
			}
			return d1[0] + d1[n-1], nil
		},
	}
}

func TestChaosSoak(t *testing.T) {
	const (
		tenantBudget = 8 << 20 // noisy and quiet each carve 8 MiB
		scale        = 1 << 14 // 16k elements per request: ~256 KiB modeled
		clientsPer   = 3
		reqsPer      = 6
	)

	// The noisy tenant's injector: seeded latency jitter on every vdLog1p
	// call, plus a transient splitter outage that trips its breaker.
	noisyInj := faultinject.New(7)
	noisyInj.LatencyOnCalls("vdLog1p", 200*time.Microsecond, 2*time.Millisecond)
	noisyInj.TransientErrorOnSplits("vdLog1p", 1, 2)
	quietInj := faultinject.New(0) // nothing armed: clean passthrough

	// The noisy tenant also carries the default registry, so the recovery
	// phase can drive the spilling blackscholes-ooc workload through the
	// same carve the injected pipeline squeezes.
	noisyReg := pipelineRegistry(noisyInj)
	for name, fn := range serve.WorkloadRegistry() {
		if _, ok := noisyReg[name]; !ok {
			noisyReg[name] = fn
		}
	}

	spillDir := t.TempDir()
	srv, err := serve.New(serve.Config{
		GlobalBudgetBytes: 32 << 20,
		MaxInFlight:       8,
		DefaultTimeout:    5 * time.Second,
		MaxTimeout:        5 * time.Second,
		DrainTimeout:      3 * time.Second,
		Fallback:          core.FallbackQuarantine,
		Breaker:           core.BreakerPolicy{Threshold: 1, Cooldown: time.Minute},
		SpillDir:          spillDir,
		Tenants: []serve.TenantConfig{
			{Name: "noisy", BudgetBytes: tenantBudget, MaxInFlight: 2, Registry: noisyReg},
			{Name: "quiet", BudgetBytes: tenantBudget, MaxInFlight: 2, Registry: pipelineRegistry(quietInj)},
		},
		Logger: slog.New(slog.NewTextHandler(testLogWriter{t}, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	postTraced := func(tenant, traceparent, body string) (int, []byte, error) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/eval", strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("X-Mozart-Tenant", tenant)
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b, nil
	}
	post := func(tenant, body string) (int, []byte, error) {
		return postTraced(tenant, "", body)
	}
	get := func(path string) (int, []byte, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b, nil
	}

	type tally struct {
		ok, shed, timeout, canceled, other5xx atomic.Int64
	}
	counts := map[string]*tally{"noisy": {}, "quiet": {}}

	var wg sync.WaitGroup
	for _, tenant := range []string{"noisy", "quiet"} {
		tenant := tenant
		for c := 0; c < clientsPer; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < reqsPer; r++ {
					status, body, err := post(tenant, `{"workload":"pipeline","scale":16384,"session":"soak","timeout_ms":4000}`)
					if err != nil {
						t.Errorf("%s: transport error: %v", tenant, err)
						return
					}
					tl := counts[tenant]
					switch status {
					case http.StatusOK:
						tl.ok.Add(1)
					case http.StatusTooManyRequests:
						tl.shed.Add(1)
					case http.StatusGatewayTimeout:
						tl.timeout.Add(1)
					case 499:
						tl.canceled.Add(1)
					default:
						tl.other5xx.Add(1)
						t.Errorf("%s: unexpected status %d (%s)", tenant, status, body)
					}
				}
			}()
		}
	}
	wg.Wait()

	// Deterministic shed: a request modeling more bytes than the whole
	// tenant carve can never be admitted. The shed path keeps the caller's
	// trace identity — the 429 body names the inbound trace id and the
	// request still leaves a (root-only) span in the ring.
	const shedTraceparent = "00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa1-0102030405060708-01"
	const shedTraceID = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa1"
	status, body, err := postTraced("noisy", shedTraceparent, `{"workload":"pipeline","scale":4194304}`)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d (%s), want 429", status, body)
	}
	var shedBody struct {
		Error struct {
			Origin  string
			TraceID string `json:"trace_id"`
		}
	}
	if err := json.Unmarshal(body, &shedBody); err != nil || shedBody.Error.Origin != "shed" {
		t.Fatalf("over-budget body %s (err %v), want origin shed", body, err)
	}
	if shedBody.Error.TraceID != shedTraceID {
		t.Fatalf("shed body trace %q, want %s", shedBody.Error.TraceID, shedTraceID)
	}
	if status, body, err = get("/debug/mozart/spans/" + shedTraceID); err != nil || status != http.StatusOK ||
		!strings.Contains(string(body), `outcome="shed"`) {
		t.Fatalf("shed request left no span tree: %d %s (%v)", status, body, err)
	}

	// Deterministic deadline: a 1ms budget cannot cover the pipeline (the
	// noisy tenant's vdLog1p calls each sleep at least 200µs), and must
	// surface as 504 mapped from context.DeadlineExceeded.
	saw504 := false
	for i := 0; i < 25 && !saw504; i++ {
		status, body, err = post("noisy", `{"workload":"pipeline","scale":16384,"timeout_ms":1}`)
		if err != nil {
			t.Fatal(err)
		}
		switch status {
		case http.StatusGatewayTimeout:
			saw504 = true
			var eb struct {
				Error struct {
					Origin  string
					TraceID string `json:"trace_id"`
					Flight  string `json:"flight"`
				}
			}
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Origin != "timeout" {
				t.Fatalf("504 body %s (err %v), want origin timeout", body, err)
			}
			// The deadline-exceeded trace resolves to its flight recording:
			// the body's flight ref is keyed by the minted trace id, and
			// every evaluated request is recorded.
			if eb.Error.TraceID == "" || !strings.Contains(eb.Error.Flight, "?trace="+eb.Error.TraceID) {
				t.Fatalf("504 body lacks trace-keyed flight ref: %s", body)
			}
			fstatus, fbody, ferr := get(eb.Error.Flight)
			if ferr != nil {
				t.Fatal(ferr)
			}
			var frec struct {
				TraceID string `json:"trace_id"`
			}
			if err := json.Unmarshal(fbody, &frec); fstatus != http.StatusOK || err != nil || frec.TraceID != eb.Error.TraceID {
				t.Fatalf("flight lookup %d: recording trace %q (err %v), want %s", fstatus, frec.TraceID, err, eb.Error.TraceID)
			}
		case http.StatusTooManyRequests:
			time.Sleep(5 * time.Millisecond) // shed by leftover in-flight; retry
		case http.StatusOK:
			// Interleaving-dependent: once vdLog1p is quarantined the whole
			// run makes a single latency draw from [200µs, 2ms] and can beat
			// the 1ms deadline; draw again.
		default:
			t.Fatalf("1ms-deadline request: status %d (%s), want 504", status, body)
		}
	}
	if !saw504 {
		t.Fatalf("no 504 after 25 tight-deadline attempts")
	}

	// Both tenants made real progress despite the chaos.
	for name, tl := range counts {
		if tl.ok.Load() == 0 {
			t.Errorf("tenant %s: no successful evaluations (shed=%d timeout=%d canceled=%d)",
				name, tl.shed.Load(), tl.timeout.Load(), tl.canceled.Load())
		}
	}
	// Fault isolation: the quiet tenant saw no evaluation failures and —
	// the cross-tenant invariant — zero breaker trips, while the noisy
	// tenant's splitter outage tripped its own group.
	if got := counts["quiet"].other5xx.Load(); got != 0 {
		t.Errorf("quiet tenant saw %d 5xx responses", got)
	}
	if got := srv.Tenant("noisy").Breakers().Trips(); got == 0 {
		t.Errorf("noisy tenant's splitter outage tripped no breaker")
	}
	if got := srv.Tenant("quiet").Breakers().Trips(); got != 0 {
		t.Errorf("quiet tenant's breaker group tripped %d times; want full isolation", got)
	}

	// ---- overload and recovery -----------------------------------------
	// Arm the budget-squeeze fault on the pipeline's vdAdd site: the next
	// vdAdd library call shrinks the noisy tenant's governor to 64 KiB
	// mid-evaluation, waking any blocked admissions so they re-clamp.
	noisyGov := srv.Tenant("noisy").Governor()
	squeezeAt := noisyInj.Count("vdAdd", faultinject.AspectCall) + 1
	noisyInj.SqueezeBudgetOnNthCall("vdAdd", squeezeAt, noisyGov, 64<<10)

	// The triggering request observes the squeeze mid-run; its own outcome
	// is interleaving-dependent (it may finish, or die on a later stage that
	// cannot be admitted while its pre-squeeze hold is live), so only the
	// squeeze itself is asserted here.
	if _, _, err := post("noisy", `{"workload":"pipeline","scale":16384,"session":"soak","timeout_ms":4000,"degrade":true}`); err != nil {
		t.Fatal(err)
	}
	if got := noisyGov.Budget(); got != 64<<10 {
		t.Fatalf("budget-squeeze fault did not fire: noisy budget %d, want %d", got, 64<<10)
	}

	// Under pressure, degrade-opted traffic keeps completing instead of
	// shedding: the modeled demand no longer fits the squeezed carve, so the
	// requests run without a hold. (The pipeline's own calls are quarantined
	// from the earlier chaos — their breakers are open — so these run whole;
	// the streaming proof comes from the unfaulted workload below.)
	for i := 0; i < 3; i++ {
		status, body, err := post("noisy", `{"workload":"pipeline","scale":16384,"session":"soak","timeout_ms":4000,"degrade":true}`)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("degrade request %d under squeeze: status %d (%s), want 200", i, status, body)
		}
	}
	if got := srv.Tenant("noisy").DegradedRuns(); got == 0 {
		t.Fatal("squeeze phase recorded no degraded runs")
	}

	// The spilling workload under the same squeeze: blackscholes-ooc has no
	// faults armed, so it takes the real streaming path — its window
	// partials go through the CRC-checked spill store (a corrupt frame
	// would fail the replay and the request), and the response reports the
	// pressure episode and the spilled volume.
	const spillTraceparent = "00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa2-0102030405060708-01"
	const spillTraceID = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa2"
	status, body, err = postTraced("noisy", spillTraceparent, `{"workload":"blackscholes-ooc","scale":65536,"timeout_ms":4000,"degrade":true}`)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("spilling workload under squeeze: status %d (%s), want 200", status, body)
	}
	var sr degradeResult
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("spill body %s: %v", body, err)
	}
	if sr.Mode != "out-of-core" || sr.SpillBytes <= 0 {
		t.Fatalf("spilling workload: mode %q spill_bytes %d, want out-of-core with spill", sr.Mode, sr.SpillBytes)
	}
	// The trace survives the degradation path end to end: the streaming
	// run's span tree is retrievable by the inbound trace id and records
	// the spill activity as spans.
	if status, body, err = get("/debug/mozart/spans/" + spillTraceID); err != nil || status != http.StatusOK {
		t.Fatalf("degraded request's span tree: %d (%v)", status, err)
	}
	spillTree := string(body)
	for _, want := range []string{"trace " + spillTraceID, `outcome="ok"`, "spill "} {
		if !strings.Contains(spillTree, want) {
			t.Errorf("degraded span tree missing %q:\n%s", want, spillTree)
		}
	}

	// Recovery: the squeeze clears and plain traffic returns to baseline —
	// a sequential round of full-budget requests all succeed at normal
	// pressure with no degradation and no shedding.
	noisyGov.SetBudget(tenantBudget)
	for i := 0; i < 4; i++ {
		status, body, err := post("noisy", `{"workload":"pipeline","scale":16384,"session":"soak","timeout_ms":4000}`)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("recovery request %d: status %d (%s), want 200", i, status, body)
		}
		var dr degradeResult
		if err := json.Unmarshal(body, &dr); err != nil {
			t.Fatalf("recovery body %s: %v", body, err)
		}
		if dr.Mode != core.PressureNormal.String() {
			t.Fatalf("recovery request %d ran at pressure %q, want normal", i, dr.Mode)
		}
	}

	// Graceful drain: nothing in flight, every carve returned.
	if err := srv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, name := range []string{"noisy", "quiet"} {
		if got := srv.Tenant(name).Governor().InUse(); got != 0 {
			t.Errorf("tenant %s governor holds %d bytes after drain", name, got)
		}
	}
	if got := srv.GlobalGovernor().InUse(); got != 0 {
		t.Errorf("shared governor holds %d bytes after drain", got)
	}
	if got := srv.InFlight(); got != 0 {
		t.Errorf("%d evaluations in flight after drain", got)
	}
	// Byte-clean quiesce with no spill leakage: every store closed, every
	// spill directory reclaimed.
	if err := srv.Quiesced(); err != nil {
		t.Errorf("Quiesced after drain: %v", err)
	}
	if got := spill.OpenStores(); got != 0 {
		t.Errorf("%d spill stores still open after drain", got)
	}
	assertNoSpillFiles(t, spillDir)
	t.Logf("soak: noisy ok=%d shed=%d timeout=%d | quiet ok=%d shed=%d | noisy trips=%d",
		counts["noisy"].ok.Load(), counts["noisy"].shed.Load(), counts["noisy"].timeout.Load(),
		counts["quiet"].ok.Load(), counts["quiet"].shed.Load(), srv.Tenant("noisy").Breakers().Trips())
}

// testLogWriter routes the server's slog output into the test log.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
