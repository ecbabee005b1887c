package mozart_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"mozart"
	"mozart/internal/annotations/vmathsa"
)

// EvaluateContext is the primary evaluation entrypoint: the caller's context
// bounds the run, and cancellation (or a deadline) stops workers at the next
// batch boundary with context.Canceled in the error chain.
func ExampleSession_EvaluateContext() {
	const n = 1 << 12
	a, out := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = float64(i) / n
	}

	s := mozart.NewSession(mozart.Options{Workers: 2})
	vmathsa.Log1p(s, n, a, out)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.EvaluateContext(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("out[0] = %.1f, stages = %d\n", out[0], s.Stats().Stages)
	// Output: out[0] = 0.0, stages = 1
}

// WithTracer attaches observability sinks to a session: here a span
// recorder (its trace renders as Chrome trace JSON, loadable in
// https://ui.perfetto.dev) and a Metrics aggregator share the event stream
// through MultiTracer.
func ExampleWithTracer() {
	const n = 1 << 12
	a, tmp := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], tmp[i] = 1, 1
	}

	rec := mozart.NewSpanRecorder(mozart.TraceContext{}, "evaluate")
	metrics := mozart.NewMetrics()
	s := mozart.NewSession(mozart.WithTracer(
		mozart.Options{Workers: 2, BatchElems: 1 << 10},
		mozart.MultiTracer(rec, metrics)))

	// Two elementwise calls over matching split types pipeline into one
	// stage; each of the 4 batches flows through both calls.
	vmathsa.Log1p(s, n, a, a)
	vmathsa.Add(s, n, a, tmp, a)
	if err := s.EvaluateContext(context.Background()); err != nil {
		log.Fatal(err)
	}

	// After the run, rec.Finish("").WriteChrome(f) saves a Perfetto-loadable
	// timeline with one lane per worker.
	sn := metrics.Snapshot()
	fmt.Printf("stages = %d, batches = %d, spans = %d\n",
		len(sn.Stages), sn.Stages[0].Batches, len(rec.Finish("").Spans))

	// Output: stages = 1, batches = 4, spans = 9
}
