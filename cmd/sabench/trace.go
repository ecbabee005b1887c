package main

import (
	"encoding/json"
	"fmt"
	"os"

	"mozart/internal/obs"
	"mozart/internal/workloads"
)

// trace runs a vector-math workload and a dataframe workload under the
// observability layer: a span recorder, whose finished trace is written as
// Chrome trace_event JSON (one lane per worker, loadable in
// chrome://tracing or https://ui.perfetto.dev), plus the aggregating
// metrics sink, whose per-stage table is printed after each run. The
// emitted JSON is re-read and parsed as a smoke check; a trace that does
// not parse or has no events fails the process.
func trace(scaleDiv int) {
	fmt.Println("=== Trace: runtime observability (Chrome trace + per-stage metrics) ===")
	for _, name := range []string{"blackscholes-mkl", "datacleaning-pandas"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			fatalf("trace: %v", err)
		}
		rec := obs.NewSpanRecorder(obs.TraceContext{}, name)
		metrics := obs.NewMetrics()
		cfg := workloads.Config{
			Scale:   spec.DefaultScale / scaleDiv,
			Threads: 4,
			Tracer:  obs.Multi(rec, metrics),
		}
		if _, err := spec.Run(workloads.Mozart, cfg); err != nil {
			fatalf("trace: %s: %v", name, err)
		}

		path := fmt.Sprintf("sabench-trace-%s.json", name)
		tr := rec.Finish("")
		if err := writeChromeFile(tr, path); err != nil {
			fatalf("trace: %s: writing %s: %v", name, path, err)
		}
		events, err := validateTraceFile(path)
		if err != nil {
			fatalf("trace: %s: %v", name, err)
		}
		fmt.Printf("--- %s: %d spans, %d trace events -> %s (open in https://ui.perfetto.dev) ---\n",
			name, len(tr.Spans), events, path)
		fmt.Print(metrics.String())
		fmt.Println()
	}
}

// writeChromeFile writes tr to path as Chrome trace_event JSON.
func writeChromeFile(tr *obs.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateTraceFile re-reads an emitted trace, checks it is well-formed
// Chrome trace_event JSON with at least one event, and returns the event
// count.
func validateTraceFile(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, fmt.Errorf("%s is not valid trace JSON: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("%s contains no trace events", path)
	}
	return len(doc.TraceEvents), nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
