package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"mozart/internal/core"
	"mozart/internal/obs"
	"mozart/internal/workloads"
)

// bs-ooc: workloads' blackscholes-ooc, run whole through its Spec. Its
// input is a lazy option generator whose seed is fixed inside the
// workload, so the benchmark's seed does not reach it.

const (
	oocOptions = 1 << 20
	// oocBudget is the Governor budget: far below the 24 MiB nominal
	// working set, so every evaluation streams in admission-sized windows
	// and spills its merge partials.
	oocBudget = 8 << 20
)

func oocWorkload(spillDir string) (*batchRun, error) {
	spec, err := workloads.ByName("blackscholes-ooc")
	if err != nil {
		return nil, err
	}
	want, err := spec.Run(workloads.Base, workloads.Config{Scale: oocOptions, Threads: 1})
	if err != nil {
		return nil, fmt.Errorf("base reference: %w", err)
	}
	gov := core.NewGovernor(oocBudget)
	b := &batchRun{
		elems: oocOptions,
		mozart: func(tr obs.Tracer) (evalSample, error) {
			var s *core.Session
			cfg := workloads.Config{
				Scale: oocOptions, Threads: nproc, Tracer: tr,
				Governor: gov, OutOfCore: true, SpillDir: spillDir,
				OnSession: func(ss *core.Session) { s = ss },
			}
			var clk evalClock
			clk.start = time.Now()
			clk.captureLo = clk.start
			got, err := spec.Run(workloads.Mozart, cfg)
			clk.end = time.Now()
			if err != nil {
				return evalSample{}, err
			}
			smp := evalSample{clk: clk, stats: s.Stats()}
			if math.Float64bits(got) != math.Float64bits(want) {
				smp.mismatch = fmt.Sprintf("checksum %v, base chunked stream gives %v", got, want)
			}
			smp.guard = oocGuard(smp.stats, spillDir)
			return smp, nil
		},
		base: func() (time.Duration, error) {
			t0 := time.Now()
			_, err := spec.Run(workloads.Base, workloads.Config{Scale: oocOptions, Threads: 1})
			return time.Since(t0), err
		},
	}
	return b, b.warm()
}

// oocGuard checks that an evaluation took the out-of-core path: it
// streamed, it spilled, and it left its spill directory empty.
func oocGuard(st core.StatsSnapshot, spillDir string) string {
	if st.StreamedStages == 0 || st.SpilledFrames == 0 {
		return fmt.Sprintf("%d streamed stages and %d spill frames; every evaluation must stream and spill",
			st.StreamedStages, st.SpilledFrames)
	}
	left, err := os.ReadDir(spillDir)
	if err != nil {
		return fmt.Sprintf("read spill directory: %v", err)
	}
	if len(left) != 0 {
		return fmt.Sprintf("spill directory holds %d entries after the evaluation", len(left))
	}
	return ""
}
