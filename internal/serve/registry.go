package serve

import (
	"context"
	"fmt"

	"mozart/internal/core"
	"mozart/internal/workloads"
)

// EvalParams is one evaluation request, already validated and defaulted by
// the server: which workload and variant, at what scale, with how many
// workers, for which logical session.
type EvalParams struct {
	Workload string
	Variant  string
	Scale    int
	Threads  int
	Session  string
}

// EvalFunc executes one evaluation. ctx carries the request deadline (and
// dies on client disconnect or forced drain); opts arrives pre-loaded with
// the tenant's scoped machinery — Governor, BreakerGroup, retry/fallback
// policies, tracer, plan hook, and a BaseContext mirroring ctx — and must
// be passed into every core.Session the function builds. Those sessions
// evaluate one at a time and finish before the function returns: the
// tracer and plan hook record one request. The returned float64 is the
// workload's result checksum.
type EvalFunc func(ctx context.Context, p EvalParams, opts core.Options) (float64, error)

// WorkloadRegistry builds the default registry: the paper's 15 evaluation
// workloads by name, run through internal/workloads with the tenant's
// options threaded into every session.
func WorkloadRegistry() map[string]EvalFunc {
	out := map[string]EvalFunc{}
	for _, spec := range workloads.All() {
		spec := spec
		out[spec.Name] = func(ctx context.Context, p EvalParams, opts core.Options) (float64, error) {
			v := workloads.Variant(p.Variant)
			if p.Variant == "" {
				v = workloads.Mozart
			}
			if !spec.HasVariant(v) {
				return 0, fmt.Errorf("workload %s has no variant %q", spec.Name, v)
			}
			cfg := workloads.Config{
				Scale:        p.Scale,
				Threads:      p.Threads,
				Ctx:          ctx,
				Tracer:       opts.Tracer,
				OnPlan:       opts.OnPlan,
				Governor:     opts.Governor,
				Breakers:     opts.Breakers,
				Fallback:     opts.FallbackPolicy,
				Retry:        opts.RetryPolicy,
				StageTimeout: opts.StageTimeout,
				OutOfCore:    opts.OutOfCore,
				SpillDir:     opts.SpillDir,
				Tuner:        opts.Tuner,
				Trace:        opts.Trace,
			}
			if cfg.Scale <= 0 {
				cfg.Scale = spec.DefaultScale
			}
			return spec.Run(v, cfg)
		}
	}
	return out
}
