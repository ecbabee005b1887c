// Observability: trace, meter, and serve a pipelined evaluation.
//
// The quickstart pipeline runs again, this time with the runtime fully
// instrumented: a SpanRecorder records the evaluation as one span tree,
// written out as a Chrome trace with one timeline lane per worker (plus a
// runtime lane for planning, admission, and the final merge), a Metrics
// sink aggregates per-stage batch counts, bytes moved under the paper's
// §5.2 model, and cache-batch utilization, and a FlightRecorder keeps the
// last evaluations' span trees (plus the rendered plan) for post-mortem
// dumps. SimulateCounters additionally lowers each
// evaluation's real plan into the memsim cache model and folds simulated
// L1/L2/LLC hit/miss counts and DRAM traffic into the same metrics rows.
//
// Run it, then load mozart-trace.json in https://ui.perfetto.dev (or
// chrome://tracing) to see each worker pulling cache-sized batches through
// the fused three-call stage. Pass -serve :8080 to keep the process alive
// serving the debug surfaces:
//
//	curl localhost:8080/metrics              # Prometheus text exposition
//	curl localhost:8080/debug/mozart/plans   # recent EXPLAIN trees
//	curl localhost:8080/debug/mozart/spans   # recorded traces (index)
//	curl 'localhost:8080/debug/mozart/spans/<trace-id>?format=chrome'
//	curl localhost:8080/debug/mozart/flight  # flight-recorder ring
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"mozart"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/obs"
	"mozart/internal/obs/httpdebug"
)

func main() {
	serve := flag.String("serve", "", "address to serve /metrics and /debug/mozart/* on (e.g. :8080); empty = run once and print")
	flag.Parse()

	const n = 1 << 20
	d1 := make([]float64, n)
	tmp := make([]float64, n)
	vol := make([]float64, n)
	for i := range d1 {
		d1[i] = float64(i%100)/100 + 0.5
		tmp[i] = 1.0
		vol[i] = 2.0
	}

	trace := mozart.NewSpanRecorder(mozart.NewTraceContext(), "observability")
	metrics := mozart.NewMetrics()
	recorder := mozart.NewFlightRecorder(4)
	plans := httpdebug.NewPlanLog(4)
	opts := mozart.WithTracer(
		mozart.Options{Workers: 4, ProfileLabels: true, SimulateCounters: true},
		mozart.MultiTracer(trace, metrics))
	opts = mozart.WithFlightRecorder(opts, recorder)
	prevOnPlan := opts.OnPlan
	opts.OnPlan = func(p *mozart.Plan) {
		prevOnPlan(p)
		plans.OnPlan(p)
	}
	s := mozart.NewSession(opts)

	// d1 = (log1p(d1) + tmp) / vol, then reduce.
	vmathsa.Log1p(s, n, d1, d1)
	vmathsa.Add(s, n, d1, tmp, d1)
	vmathsa.Div(s, n, d1, vol, d1)
	mean := vmathsa.Sum(s, n, d1)

	if err := s.EvaluateContext(context.Background()); err != nil {
		log.Fatal(err)
	}
	total, err := mean.Float64()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean = %.6f\n", total/n)

	tr := trace.Finish("")
	f, err := os.Create("mozart-trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.WriteChrome(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote mozart-trace.json (%d spans) — open in https://ui.perfetto.dev\n\n", len(tr.Spans))
	fmt.Print(metrics.String())

	if *serve == "" {
		fmt.Println("\n--- /metrics (Prometheus text exposition; -serve :8080 to scrape live) ---")
		fmt.Print(metrics.PrometheusText())
		return
	}
	spans := obs.NewSpanRing(4)
	spans.Add(tr)
	mux := http.NewServeMux()
	httpdebug.Mount(mux, httpdebug.Options{
		Metrics: metrics, Plans: plans, Recorder: recorder, Spans: spans,
	})
	fmt.Printf("\nserving /metrics and /debug/mozart/{plans,spans,flight} on %s (trace %s)\n",
		*serve, tr.TraceID)
	log.Fatal(http.ListenAndServe(*serve, mux))
}
