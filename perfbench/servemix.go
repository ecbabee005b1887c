package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mozart/internal/serve"
	"mozart/internal/workloads"
)

// serve-mix: an in-process mozartd (serve.Server) behind a loopback HTTP
// listener with two tenants. Phase 1 is an open loop at serveRate with
// Poisson arrivals; phase 2 is a closed loop with nproc connections. The
// seed draws the order of the mix, the tenants and the arrival times; every
// mix member appears equally often. Workload inputs are built inside workloads' Spec.Run
// from seeds fixed in each workload.

// serveRate is phase 1's arrival rate. On the commit that introduced the
// benchmark (2-core Xeon VM, go1.24), phase 2's sat_rps read 117-200 req/s.
// 60 req/s is about half the lowest reading, so the open loop stays below
// saturation when the shared host slows down. The rate is frozen, so later
// commits get the same load.
const serveRate = 60.0

// serveMinReqs is the fewest phase-1 requests behind a p99.
const serveMinReqs = 1000

// serveLimit is the latency limit a request must meet to count as served
// in time; a failed request misses it whatever its latency.
const serveLimit = 500 * time.Millisecond

// serveRelTol bounds the relative difference allowed between a response
// checksum and the base library's. Base and Mozart sum reductions in
// different orders, which moves the last bits (about 1e-14 here).
const serveRelTol = 1e-9

type mixMember struct {
	workload string
	scale    int
}

var serveMix = []mixMember{
	{"blackscholes-mkl", 1 << 16},
	{"haversine-numpy", 1 << 16},
	{"datacleaning-pandas", 1 << 14},
	{"crimeindex-pandas", 1 << 14},
}

var serveTenants = []string{"alpha", "beta"}

// mixReq is one drawn request.
type mixReq struct {
	member int
	tenant string
}

// drawMix returns n requests (n a multiple of len(serveMix)) in blocks that
// each hold every member once, in an order drawn from rng, with tenants
// drawn from rng. Any prefix of whole blocks has the mix's exact
// proportions, so a seed changes the sequence but not the share of work.
func drawMix(rng *rand.Rand, n int) []mixReq {
	k := len(serveMix)
	out := make([]mixReq, n)
	for b := 0; b < n; b += k {
		for i, m := range rng.Perm(k) {
			out[b+i] = mixReq{member: m, tenant: serveTenants[rng.Intn(len(serveTenants))]}
		}
	}
	return out
}

// poissonDue returns n send times with exponential gaps at rate per second.
func poissonDue(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// ---- the open loop ------------------------------------------------------

// shot is one open-loop request's timeline, relative to the loop's start.
type shot struct {
	due, sent, done time.Duration
}

// latency is charged from when the request was due, not when it was sent,
// so a stall also costs every request that waited behind it.
func (s shot) latency() time.Duration { return s.done - s.due }

// late is how far behind its schedule the generator sent the request.
func (s shot) late() time.Duration { return s.sent - s.due }

// openLoop sends request i at due[i] from one of conns senders. A sender
// claims requests in order; when every sender is busy, a due request waits
// and is sent late.
func openLoop(due []time.Duration, conns int, send func(i int)) []shot {
	shots := make([]shot, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if d := time.Until(start.Add(due[i])); d > 0 {
					time.Sleep(d)
				}
				shots[i].due = due[i]
				shots[i].sent = time.Since(start)
				send(i)
				shots[i].done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return shots
}

// ---- outcomes -----------------------------------------------------------

// outcome is what came back for one request.
type outcome struct {
	status    int
	err       error // transport or decoding error
	mismatch  string
	elapsedMS float64 // the body's elapsed_ms
	traceID   string
	elems     int64
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK && o.mismatch == "" }

// tally counts outcomes. Every failure — a transport error, any non-200
// status and an output mismatch — counts as failed and as a miss of the
// latency limit.
type tally struct {
	attempted, failed, shed, timedOut, mismatched, limitMisses int64
}

func (t *tally) add(o outcome, latency time.Duration) {
	t.attempted++
	if !o.ok() {
		t.failed++
		t.limitMisses++
	} else if latency > serveLimit {
		t.limitMisses++
	}
	switch {
	case o.err != nil:
	case o.status == http.StatusTooManyRequests:
		t.shed++
	case o.status == http.StatusGatewayTimeout:
		t.timedOut++
	case o.mismatch != "":
		t.mismatched++
	}
}

// ---- the server and its client ------------------------------------------

type serveMixRun struct {
	p      params
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	refs   []float64 // base checksum per mix member
	phase1 []mixReq
	phase2 []mixReq
	due    []time.Duration
	specs  []workloads.Spec
}

func setupServeMix(p params) (func(*report) error, func(), error) {
	rng := rand.New(rand.NewSource(p.seed))
	n1 := int(math.Ceil(serveRate*0.6*p.seconds/4)) * 4
	n1 = max(n1, serveMinReqs)
	m := &serveMixRun{p: p, phase1: drawMix(rng, n1), phase2: drawMix(rng, 1<<16)}
	m.due = poissonDue(rng, n1, serveRate)
	for _, mm := range serveMix {
		spec, err := workloads.ByName(mm.workload)
		if err != nil {
			return nil, nil, err
		}
		ref, err := spec.Run(workloads.Base, workloads.Config{Scale: mm.scale, Threads: 1})
		if err != nil {
			return nil, nil, fmt.Errorf("base reference %s: %w", mm.workload, err)
		}
		m.specs = append(m.specs, spec)
		m.refs = append(m.refs, ref)
	}
	if err := m.boot(n1); err != nil {
		return nil, nil, err
	}
	// Warm-up: every member on every tenant, checked like timed requests.
	for i := range serveMix {
		for _, t := range serveTenants {
			if o := m.send(mixReq{member: i, tenant: t}); !o.ok() {
				m.close()
				return nil, nil, fmt.Errorf("warm-up %s on %s: %s", serveMix[i].workload, t, o.describe())
			}
		}
	}
	return m.run, m.close, nil
}

// boot starts the server on a loopback listener. The span ring holds every
// phase-1 request's span tree, so a traced run can fetch them afterwards.
func (m *serveMixRun) boot(n1 int) error {
	srv, err := serve.New(serve.Config{
		GlobalBudgetBytes: 1 << 30,
		Tenants: []serve.TenantConfig{
			{Name: serveTenants[0], BudgetBytes: 512 << 20},
			{Name: serveTenants[1], BudgetBytes: 512 << 20},
		},
		SpillDir:        m.p.workDir,
		RetryJitterSeed: m.p.seed,
		SpanDepth:       n1 + 64,
	})
	if err != nil {
		return fmt.Errorf("start mozartd: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	m.srv = srv
	m.hs = &http.Server{Handler: srv.Handler()}
	m.served = make(chan error, 1)
	go func() { m.served <- m.hs.Serve(ln) }()
	m.url = "http://" + ln.Addr().String()
	m.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: nproc,
		MaxConnsPerHost:     nproc,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the listener, waits for the serving goroutine, and drains
// the server.
func (m *serveMixRun) close() {
	_ = m.hs.Close() // in-flight requests are done by now; Serve returns ErrServerClosed
	<-m.served
	m.client.CloseIdleConnections()
	_ = m.srv.Drain()
}

type evalReq struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	Threads  int    `json:"threads"`
	Tenant   string `json:"tenant"`
}

type evalResp struct {
	Checksum  float64 `json:"checksum"`
	ElapsedMS float64 `json:"elapsed_ms"`
	TraceID   string  `json:"trace_id"`
}

// send posts one request, reads the whole response and checks its checksum
// against the base library's.
func (m *serveMixRun) send(r mixReq) outcome {
	mm := serveMix[r.member]
	// Marshal cannot fail on a struct of strings and ints.
	body, _ := json.Marshal(evalReq{Workload: mm.workload, Scale: mm.scale, Threads: 1, Tenant: r.tenant})
	o := outcome{elems: int64(mm.scale)}
	resp, err := m.client.Post(m.url+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	o.status = resp.StatusCode
	if err != nil {
		o.err = err
		return o
	}
	if o.status != http.StatusOK {
		return o
	}
	var er evalResp
	if err := json.Unmarshal(b, &er); err != nil {
		o.err = fmt.Errorf("decode response: %w", err)
		return o
	}
	o.elapsedMS, o.traceID = er.ElapsedMS, er.TraceID
	if want := m.refs[r.member]; !checksumMatches(er.Checksum, want) {
		o.mismatch = fmt.Sprintf("%s checksum %v, base gives %v", mm.workload, er.Checksum, want)
	}
	return o
}

func checksumMatches(got, want float64) bool {
	return math.Abs(got-want) <= serveRelTol*(1+math.Abs(want))
}

func (o outcome) describe() string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case o.mismatch != "":
		return "output mismatch: " + o.mismatch
	}
	return "HTTP " + strconv.Itoa(o.status)
}

// record adds an outcome to the tally and the report. A mismatch or an
// evaluation error makes the run incorrect; sheds, timeouts and transport
// errors count as failures only.
func record(rep *report, t *tally, o outcome, latency time.Duration, what string) {
	t.add(o, latency)
	rep.attempted++
	switch {
	case o.ok():
	case o.mismatch != "" || (o.status >= 500 && o.status != http.StatusGatewayTimeout):
		rep.fail("%s: %s", what, o.describe())
	default:
		rep.failed++
		if len(rep.failures) < 20 {
			rep.failures = append(rep.failures, what+": "+o.describe())
		}
	}
}

// ---- measuring ----------------------------------------------------------

func (m *serveMixRun) run(rep *report) error {
	// Base-library timing takes 5% of the run before serving and 5% after.
	baseMS := make([][]float64, len(serveMix))
	if err := m.timeBase(baseMS, 0.05*m.p.seconds); err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var all tally

	// Phase 1: open loop.
	outs := make([]outcome, len(m.phase1))
	before := readRT()
	shots := openLoop(m.due, nproc, func(i int) { outs[i] = m.send(m.phase1[i]) })
	rt1 := readRT().delta(before)
	perMember := make([][]float64, len(serveMix))
	evalPer := make([][]float64, len(serveMix))
	var reqMS, evalMS, lateMS, httpMS []float64
	for i, o := range outs {
		lat := shots[i].latency()
		record(rep, &all, o, lat, fmt.Sprintf("phase 1 request %d", i))
		lateMS = append(lateMS, msDur(shots[i].late()))
		// A failed request is counted as failed and as a latency-limit miss;
		// its latency (a fast 429, say) does not enter the percentiles.
		if o.ok() {
			reqMS = append(reqMS, msDur(lat))
			k := m.phase1[i].member
			perMember[k] = append(perMember[k], msDur(lat))
			evalPer[k] = append(evalPer[k], o.elapsedMS)
			evalMS = append(evalMS, o.elapsedMS)
			httpMS = append(httpMS, msDur(shots[i].done-shots[i].sent)-o.elapsedMS)
		}
	}
	var trees []reqTree
	if m.p.trace {
		var err error
		if trees, err = m.fetchTrees(outs); err != nil {
			return err
		}
	}

	// Phase 2: closed loop with nproc connections. Completions are counted
	// in half-second slots, and the throughputs are the interquartile mean
	// over slots, so a short stall of the shared host does not set them.
	const slot = 500 * time.Millisecond
	nslots := max(1, int(0.3*m.p.seconds*float64(time.Second)/float64(slot)))
	window := time.Duration(nslots) * slot
	reqs, elems := make([]float64, nslots), make([]float64, nslots)
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				i := int(next.Add(1)-1) % len(m.phase2)
				t0 := time.Now()
				o := m.send(m.phase2[i])
				mu.Lock()
				record(rep, &all, o, time.Since(t0), fmt.Sprintf("phase 2 request %d", i))
				if k := int(time.Since(start) / slot); o.ok() && k < nslots {
					reqs[k]++
					elems[k] += float64(o.elems)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	perSec := float64(time.Second) / float64(slot)
	satRPS, melemPerS := iqMean(reqs)*perSec, iqMean(elems)*perSec/1e6
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	if err := m.timeBase(baseMS, 0.05*m.p.seconds); err != nil {
		return err
	}
	rep.note("phase 1: %d requests at %.0f req/s open loop; phase 2: %d requests over %v on %d connections",
		len(outs), serveRate, all.attempted-int64(len(outs)), window, nproc)
	rep.note("latency limit %v missed by %d of %d requests; %d shed, %d timed out, %d mismatched",
		serveLimit, all.limitMisses, all.attempted, all.shed, all.timedOut, all.mismatched)
	if len(evalMS) == 0 || satRPS == 0 {
		return fmt.Errorf("no request succeeded")
	}
	baseP50, evalP50 := memberMedianMean(baseMS), memberMedianMean(evalPer)
	rep.note("speedup_vs_base = base_ms_p50 / eval_ms_p50 = %.3f (mean of per-member medians)", baseP50/evalP50)

	if !m.p.trace {
		evalP90, err := percentile(evalMS, 90)
		if err != nil {
			return err
		}
		reqP90, err := percentile(reqMS, 90)
		if err != nil {
			return err
		}
		rep.set("eval_ms_p50", evalP50)
		rep.set("eval_ms_p90", evalP90)
		rep.set("melem_per_s", melemPerS)
		rep.set("base_ms_p50", baseP50)
		rep.set("alloc_mb_per_eval", rt1.allocBytes/1e6/float64(len(outs)))
		rep.set("peak_rss_mb", rss)
		rep.set("req_ms_p50", memberMedianMean(perMember))
		rep.set("req_ms_p90", reqP90)
		rep.set("sat_rps", satRPS)
		return nil
	}

	lateP99, err := percentile(lateMS, 99)
	if err != nil {
		return err
	}
	reqP99, err := percentile(reqMS, 99)
	if err != nil {
		return err
	}
	rep.set("gen.late_ms_p99", lateP99)
	rep.set("serve.req_ms_p99", reqP99)
	rep.set("serve.http_ms_p50", median(httpMS))
	rep.set("serve.eval_ms_p50", median(evalMS))
	rep.set("serve.shed", float64(all.shed))
	rep.set("serve.timed_out", float64(all.timedOut))
	n := float64(len(outs))
	rep.set("rt.alloc_mb", rt1.allocBytes/1e6/n)
	rep.set("rt.gc_cycles", rt1.gcCycles/n)
	rep.set("rt.gc_pause_ms", rt1.gcPauseSec*1e3/n)
	rep.set("rt.sched_lat_p99_us", rt1.schedLatP99*1e6)
	rep.set("obs.trace_overhead_pct", 0) // mozartd records spans on every request
	treeLayers(rep, trees)
	return nil
}

// memberMedianMean is the mean over mix members of each member's median:
// the mix's equal weights applied to per-member medians, which does not
// jump between members the way one median over the mixture can.
func memberMedianMean(per [][]float64) float64 {
	var t float64
	var k int
	for _, xs := range per {
		if len(xs) > 0 {
			t += median(xs)
			k++
		}
	}
	if k == 0 {
		return 0
	}
	return t / float64(k)
}

// timeBase runs each mix member through the base library, round robin,
// for the given seconds (at least minBase/2 runs per member), and appends
// the times to per.
func (m *serveMixRun) timeBase(per [][]float64, seconds float64) error {
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 0; time.Since(start) < window || i < minBase/2*len(serveMix); i++ {
		k := i % len(serveMix)
		t0 := time.Now()
		if _, err := m.specs[k].Run(workloads.Base, workloads.Config{Scale: serveMix[k].scale, Threads: 1}); err != nil {
			return fmt.Errorf("base %s: %w", serveMix[k].workload, err)
		}
		per[k] = append(per[k], msDur(time.Since(t0)))
	}
	return nil
}

// ---- span trees ---------------------------------------------------------

// reqTree is one request's span tree from /debug/mozart/spans.
type reqTree struct {
	root  interval
	spans []tspan
	count int
}

type otlpDoc struct {
	ResourceSpans []struct {
		ScopeSpans []struct {
			Spans []otlpSpan `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
}

type otlpSpan struct {
	SpanID     string `json:"spanId"`
	Parent     string `json:"parentSpanId"`
	Name       string `json:"name"`
	Kind       int    `json:"kind"`
	Start      string `json:"startTimeUnixNano"`
	End        string `json:"endTimeUnixNano"`
	Attributes []struct {
		Key   string `json:"key"`
		Value struct {
			IntValue *string `json:"intValue"`
		} `json:"value"`
	} `json:"attributes"`
}

func (s otlpSpan) intAttr(key string) int64 {
	for _, a := range s.Attributes {
		if a.Key == key && a.Value.IntValue != nil {
			v, _ := strconv.ParseInt(*a.Value.IntValue, 10, 64)
			return v
		}
	}
	return 0
}

// fetchTrees reads the OTLP span tree of every successful phase-1 request,
// after the load has ended.
func (m *serveMixRun) fetchTrees(outs []outcome) ([]reqTree, error) {
	var trees []reqTree
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		resp, err := m.client.Get(m.url + "/debug/mozart/spans/" + o.traceID + "?format=otlp")
		if err != nil {
			return nil, fmt.Errorf("fetch spans: %w", err)
		}
		var doc otlpDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("fetch spans %s: HTTP %d", o.traceID, resp.StatusCode)
		}
		if err != nil {
			return nil, fmt.Errorf("decode spans %s: %w", o.traceID, err)
		}
		t, err := treeFromOTLP(doc)
		if err != nil {
			return nil, fmt.Errorf("spans %s: %w", o.traceID, err)
		}
		trees = append(trees, t)
	}
	return trees, nil
}

const otlpKindServer = 2

func treeFromOTLP(doc otlpDoc) (reqTree, error) {
	var t reqTree
	var raw []otlpSpan
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			raw = append(raw, ss.Spans...)
		}
	}
	rootFound := false
	for _, s := range raw {
		lo, err1 := strconv.ParseInt(s.Start, 10, 64)
		hi, err2 := strconv.ParseInt(s.End, 10, 64)
		if err := errors.Join(err1, err2); err != nil {
			return t, fmt.Errorf("span %s times: %w", s.Name, err)
		}
		iv := interval{lo, hi}
		ts := tspan{kind: kOther, stage: s.Parent, worker: int(s.intAttr("worker")), iv: iv}
		switch {
		case s.Kind == otlpKindServer:
			t.root, rootFound = iv, true
			continue
		case s.Name == "plan":
			ts.kind = kPlan
		case strings.HasPrefix(s.Name, "stage "):
			ts.kind, ts.stage = kStage, s.SpanID
			ts.workers = int(s.intAttr("workers"))
			ts.stageLabel = stageName(s.Name)
			ts.calls = int64(strings.Count(s.Name, " -> ") + 1)
		case strings.HasPrefix(s.Name, "batch "):
			ts.kind = kBatch
			ts.bytes, ts.splitNS, ts.taskNS = s.intAttr("bytes"), s.intAttr("split_ns"), s.intAttr("task_ns")
		case s.Name == "merge":
			ts.kind = kMerge
		case s.Name == "admission":
			ts.kind = kAdmission
		case s.Name == "spill append":
			ts.kind, ts.bytes = kSpill, s.intAttr("bytes")
		}
		t.spans = append(t.spans, ts)
	}
	if !rootFound {
		return t, fmt.Errorf("no request span")
	}
	t.count = len(raw)
	return t, nil
}

// treeLayers reports the per-layer metrics of serve-mix from the span
// trees. Each request's span is split into admission, plan and stage time
// (stage spans enclose their admission; that part counts as admission) and
// what none of them covers, the request's unattributed self time.
func treeLayers(rep *report, trees []reqTree) {
	n := len(trees)
	if n == 0 {
		rep.fail("no span tree fetched")
		return
	}
	var adm, plan, stage, unattr, spans []float64
	var sums []layerSums
	var calls []float64
	var rootTotal, unattrTotal float64
	gaps := gapTally{}
	for _, t := range trees {
		var a, p, all []interval
		var parts []labeled
		var c int64
		batches := map[string]int64{}
		for _, s := range t.spans {
			if s.kind == kBatch {
				batches[s.stage]++
			}
		}
		for _, s := range t.spans {
			switch s.kind {
			case kAdmission:
				a = append(a, s.iv)
				parts = append(parts, labeled{s.iv, "admission"})
			case kPlan:
				p = append(p, s.iv)
			case kStage:
				// A stage's calls run once per batch, or once when unsplit.
				c += s.calls * max(1, batches[s.stage])
			default:
				continue
			}
			all = append(all, s.iv)
		}
		parts = append(parts, layerParts(t.spans)...)
		ap := append(append([]interval(nil), a...), p...)
		ca := covered(a, t.root.lo, t.root.hi)
		cp := covered(ap, t.root.lo, t.root.hi)
		u, gap := attribute(t.root, "request start", "response written", parts)
		adm = append(adm, ms(ca))
		plan = append(plan, ms(cp-ca))
		stage = append(stage, ms(covered(all, t.root.lo, t.root.hi)-cp))
		unattr = append(unattr, ms(u))
		spans = append(spans, float64(t.count))
		sums = append(sums, sumLayers(t.spans))
		calls = append(calls, float64(c))
		rootTotal += ms(t.root.hi - t.root.lo)
		unattrTotal += ms(u)
		gaps.add(gap)
	}
	col := func(f func(layerSums) int64) []float64 {
		out := make([]float64, n)
		for i, s := range sums {
			out[i] = float64(f(s))
		}
		return out
	}
	nsMed := func(xs []float64) float64 { return median(xs) / 1e6 }
	rep.set("serve.admission_ms_p50", median(adm))
	rep.set("serve.plan_ms_p50", median(plan))
	rep.set("serve.stage_ms_p50", median(stage))
	rep.set("serve.unattributed_ms_p50", median(unattr))
	rep.set("serve.spans_per_req", mean(spans))

	rep.set("core.plan_ms", nsMed(col(func(s layerSums) int64 { return s.planNS })))
	rep.set("core.stages", mean(col(func(s layerSums) int64 { return s.stages })))
	rep.set("core.batches", mean(col(func(s layerSums) int64 { return s.batches })))
	rep.set("core.calls", mean(calls))
	rep.set("core.split_ms", nsMed(col(func(s layerSums) int64 { return s.splitNS })))
	rep.set("core.task_ms", nsMed(col(func(s layerSums) int64 { return s.taskNS })))
	rep.set("core.premerge_ms", nsMed(col(func(s layerSums) int64 { return s.premergeNS })))
	rep.set("core.final_merge_ms", nsMed(col(func(s layerSums) int64 { return s.finalMergeNS })))
	rep.set("core.worker_idle_ms", nsMed(col(func(s layerSums) int64 { return s.idleNS })))
	rep.set("core.admission_wait_ms", nsMed(col(func(s layerSums) int64 { return s.admissionNS })))
	rep.set("spill.mb", mean(col(func(s layerSums) int64 { return s.spillBytes }))/1e6)
	rep.set("spill.frames", mean(col(func(s layerSums) int64 { return s.spillFrames })))
	rep.set("lib.moved_mb", mean(col(func(s layerSums) int64 { return s.movedBytes }))/1e6)
	// Not visible through mozartd's public surfaces: capture happens inside
	// the workload, and the pool and streaming counters live in Stats.
	for _, name := range []string{"core.capture_ms", "core.view_splits", "core.pool_tasks",
		"core.worker_spawns", "core.streamed_stages"} {
		rep.set(name, 0)
	}
	rep.set("eval.unattributed_ms", median(unattr))
	pct := 100 * (1 - unattrTotal/rootTotal)
	rep.set("eval.attributed_pct", pct)
	noteAttribution(rep, pct, gaps)
}
