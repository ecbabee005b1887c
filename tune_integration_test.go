package mozart_test

import (
	"strings"
	"testing"
	"time"

	"mozart"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/tune"
)

// buildChain registers the canonical three-call chain on a session and
// returns the lazy total (sum(a) when b is all twos).
func buildChain(s *mozart.Session, n int) *mozart.Future {
	a := make([]float64, n)
	b := make([]float64, n)
	out := make([]float64, n)
	for i := range a {
		a[i] = float64(i + 1)
		b[i] = 2
	}
	vmathsa.Div(s, n, a, b, out)
	vmathsa.Add(s, n, out, out, out)
	return vmathsa.Sum(s, n, out)
}

// TestZeroValueTunerPlansIdentical pins the tentpole's compatibility
// contract: a session carrying a zero-value (inert) Tuner must plan byte
// for byte like a session with no BatchSource at all — same Explain tree,
// same provenance, same signature.
func TestZeroValueTunerPlansIdentical(t *testing.T) {
	const n = 1 << 12
	base := mozart.NewSession(mozart.Options{Workers: 2})
	buildChain(base, n)
	want, err := mozart.Explain(base)
	if err != nil {
		t.Fatal(err)
	}

	var inert tune.Tuner // zero value: never enabled
	tuned := mozart.NewSession(mozart.WithTuner(mozart.Options{Workers: 2}, &inert))
	buildChain(tuned, n)
	got, err := mozart.Explain(tuned)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("zero-value Tuner changed the plan:\n--- no tuner ---\n%s--- zero tuner ---\n%s", want, got)
	}
	if !strings.Contains(want, "[static]") {
		t.Errorf("untuned plan header missing [static] provenance:\n%s", want)
	}
}

// TestTunerProvenanceLoop drives one session through the full state
// machine and watches it in Explain: the first plan is [static], the plans
// after the baseline measurement are [sweeping], and once the sweep
// converges the header reads [calibrated] with the tuner's batch override.
func TestTunerProvenanceLoop(t *testing.T) {
	clock := time.Unix(0, 0)
	tu := tune.New(tune.Config{
		Clock: func() time.Time { clock = clock.Add(time.Second); return clock },
		Seed:  1,
		// A small budget keeps the loop short; the grid for 2^15 elements
		// spans 512..32768.
		Budget: 8,
		// The in-process timings below are noisy; accept any sweep winner.
		Hysteresis: 1e-9,
	})
	const n = 1 << 15

	provenance := func() string {
		s := mozart.NewSession(mozart.WithTuner(mozart.Options{Workers: 2}, tu))
		total := buildChain(s, n)
		text, err := mozart.Explain(s)
		if err != nil {
			t.Fatal(err)
		}
		header := strings.SplitN(text, "\n", 2)[0]
		open, close := strings.LastIndexByte(header, '['), strings.LastIndexByte(header, ']')
		if open < 0 || close < open {
			t.Fatalf("no provenance bracket in header %q", header)
		}
		v, err := total.Float64()
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(n) * float64(n+1) / 2; v != want {
			t.Fatalf("sum = %v, want %v (tuned plan must stay correct)", v, want)
		}
		return header[open+1 : close]
	}

	if got := provenance(); got != "static" {
		t.Fatalf("first evaluation provenance = %q, want static", got)
	}
	if got := provenance(); got != "sweeping" {
		t.Fatalf("post-baseline provenance = %q, want sweeping", got)
	}
	// Run evaluations until the tuner reports a terminal phase for the
	// chain's signature. The header cannot be the stop condition: a sweep
	// that does not beat the baseline reverts, and a reverted signature
	// plans with the zero decision, whose header reads [static].
	phase := func() tune.Phase {
		sts := tu.States()
		if len(sts) != 1 {
			t.Fatalf("tuner tracks %d signatures, want 1 (same chain every round)", len(sts))
		}
		return sts[0].Phase
	}
	terminal := func(p tune.Phase) bool { return p == tune.PhaseCalibrated || p == tune.PhaseReverted }
	for i := 0; i < 20 && !terminal(phase()); i++ {
		provenance()
	}
	p := phase()
	if !terminal(p) {
		t.Fatalf("sweep never converged; tuner phase = %v", p)
	}
	// The next plan is built under that terminal phase (its own
	// observation lands only after Explain), so its header must match it.
	want := map[tune.Phase]string{tune.PhaseCalibrated: "calibrated", tune.PhaseReverted: "static"}[p]
	if got := provenance(); got != want {
		t.Errorf("provenance after %v = %q, want %q", p, got, want)
	}
}

// TestPlanSignatureStable: the exported structural signature must be
// identical across sessions running the same chain, and must not depend on
// the worker count — that is what lets one Tuner serve many sessions.
func TestPlanSignatureStable(t *testing.T) {
	sig := func(workers int) string {
		s := mozart.NewSession(mozart.Options{Workers: workers})
		buildChain(s, 1<<12)
		p, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return mozart.PlanSignature(p)
	}
	s2, s8 := sig(2), sig(8)
	if s2 == "" {
		t.Fatal("empty signature")
	}
	if s2 != s8 {
		t.Errorf("signature depends on workers:\n2: %s\n8: %s", s2, s8)
	}
}
