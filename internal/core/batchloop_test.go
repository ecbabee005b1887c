package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"mozart/internal/annotations/imagesa"
	"mozart/internal/annotations/tensorsa"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/faultinject"
	"mozart/internal/imagelib"
	"mozart/internal/tensor"
	"mozart/internal/vmath"
)

// The differential suite for the batch loop: every configuration the
// runtime exposes — batch size, worker count, view vs. copy splitters,
// out-of-core streaming, batch retry — must reproduce whole-call execution
// of the plain library element by element, in order.

const diffN = 1000

var (
	diffBatches = []int64{1, 7, 257, diffN + 1}
	diffWorkers = []int{1, 2, 8}
)

func diffVec(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, diffN)
	for i := range v {
		v[i] = rng.Float64()*4 + 0.25
	}
	return v
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func evaluate(t *testing.T, s *core.Session) {
	t.Helper()
	if err := s.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A chain registers a pipeline on s and returns the check that forces it
// and compares every result against whole-call execution of the plain
// library.
type chain func(t *testing.T, s *core.Session) (check func())

// vmathChain is the Listing 1 shape on view splitters: three in-place calls
// pipelined into one stage plus a reduction.
func vmathChain(t *testing.T, s *core.Session) func() {
	return vmathCalls(t, s, vmathsa.Log1p)
}

// vmathCalls is vmathChain with the first call registered by log1p.
func vmathCalls(t *testing.T, s *core.Session, log1p func(*core.Session, int, any, any)) func() {
	a, b := diffVec(1), diffVec(2)
	want := make([]float64, diffN)
	vmath.Log1p(diffN, a, want)
	vmath.Add(diffN, want, b, want)
	vmath.Mul(diffN, want, b, want)

	out := make([]float64, diffN)
	log1p(s, diffN, a, out)
	vmathsa.Add(s, diffN, out, b, out)
	vmathsa.Mul(s, diffN, out, b, out)
	sum := vmathsa.Sum(s, diffN, out)
	return func() {
		evaluate(t, s)
		sameFloats(t, "out", out, want)
		got, err := sum.Float64()
		if err != nil {
			t.Fatal(err)
		}
		if ref := vmath.Sum(diffN, want); math.Abs(got-ref) > 1e-9*math.Abs(ref) {
			t.Fatalf("sum = %v, want %v", got, ref)
		}
	}
}

// tensorChain runs an out-of-place NumPy-style chain; NdSplitter merges by
// concatenation, so the result is a copy stitched from every batch.
func tensorChain(t *testing.T, s *core.Session) func() {
	a, b := tensor.New(diffN), tensor.New(diffN)
	copy(a.Data, diffVec(3))
	copy(b.Data, diffVec(4))
	want := tensor.Div(tensor.Add(tensor.Log1p(a), b), tensor.Sqrt(b))

	z := tensorsa.Div(s, tensorsa.Add(s, tensorsa.Log1p(s, a), b), tensorsa.Sqrt(s, b))
	return func() {
		v, err := z.Get()
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, "tensor", v.(*tensor.NDArray).Data, want.Data)
	}
}

// imageCopyChain runs gamma over BandCopySplitter: every batch is a cropped
// copy and the merge appends the bands back into a fresh image.
func imageCopyChain(t *testing.T, s *core.Session) func() {
	img := &imagelib.Image{W: 2, H: diffN, Pix: make([]uint8, 2*diffN*4)}
	rand.New(rand.NewSource(5)).Read(img.Pix)
	want := img.Clone()
	imagelib.Gamma(want, 0.5)
	imagelib.Gamma(want, 1.3)

	sa := &core.Annotation{FuncName: "gammaCopy", Params: []core.Param{
		{Name: "img", Mut: true, Type: imagesa.ImageCopySplit(0)},
		{Name: "g", Type: core.Missing()},
	}}
	fn := func(args []any) (any, error) {
		imagelib.Gamma(args[0].(*imagelib.Image), args[1].(float64))
		return nil, nil
	}
	fut := s.Track(img)
	s.Call(fn, sa, img, 0.5)
	s.Call(fn, sa, img, 1.3)
	return func() {
		v, err := fut.Get()
		if err != nil {
			t.Fatal(err)
		}
		got := v.(*imagelib.Image)
		if got.W != want.W || got.H != want.H {
			t.Fatalf("image %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
		}
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("pixel byte %d = %d, want %d", i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

// undersized returns a Governor whose budget is a quarter of c's §5.2
// working set, as planned.
func undersized(t *testing.T, c chain) *core.Governor {
	probe := core.NewSession(core.Options{})
	c(t, probe)
	p, err := probe.Plan()
	if err != nil {
		t.Fatal(err)
	}
	st := &p.Stages[0]
	return core.NewGovernor(st.WorkingSetBytes() * st.Elems() / 4)
}

func TestBatchLoopMatchesWholeCall(t *testing.T) {
	retry := func(t *testing.T, s *core.Session) func() {
		inj := faultinject.New(7)
		inj.TransientErrorOnCalls("vdLog1p", 1, 2)
		fn := inj.WrapFunc("vdLog1p", func(args []any) (any, error) {
			vmath.Log1p(args[0].(int), args[1].([]float64), args[2].([]float64))
			return nil, nil
		})
		arr := vmathsa.ArraySplit(0)
		sa := &core.Annotation{FuncName: "vdLog1p", Params: []core.Param{
			{Name: "size", Type: vmathsa.SizeSplit(0)},
			{Name: "a", Type: arr},
			{Name: "out", Mut: true, Type: arr},
		}}
		check := vmathCalls(t, s, func(s *core.Session, n int, a, out any) { s.Call(fn, sa, n, a, out) })
		return func() {
			check()
			if got := s.Stats().RetriedBatches; got != 2 {
				t.Fatalf("retried batches = %d, want 2 (two injected transients)", got)
			}
		}
	}
	cases := []struct {
		name  string
		chain chain
		ooc   bool
		retry bool
	}{
		{name: "view", chain: vmathChain},
		{name: "copy-tensor", chain: tensorChain},
		{name: "copy-image", chain: imageCopyChain},
		// The vmath chain spills its reduction through the array codec;
		// the tensor chain folds its concatenation.
		{name: "out-of-core-view", chain: vmathChain, ooc: true},
		{name: "out-of-core-tensor", chain: tensorChain, ooc: true},
		{name: "retry", chain: retry, retry: true},
	}
	for _, c := range cases {
		for _, batch := range diffBatches {
			for _, w := range diffWorkers {
				t.Run(fmt.Sprintf("%s/batch=%d/workers=%d", c.name, batch, w), func(t *testing.T) {
					o := core.Options{Workers: w, BatchElems: batch}
					if c.ooc {
						o.OutOfCore, o.Governor = true, undersized(t, c.chain)
					}
					if c.retry {
						o.RetryPolicy = core.RetryPolicy{MaxAttempts: 4, JitterSeed: 7, Sleep: func(time.Duration) {}}
					}
					s := core.NewSession(o)
					c.chain(t, s)()
					if c.ooc && s.Stats().StreamedStages != 1 {
						t.Fatalf("streamed stages = %d, want 1", s.Stats().StreamedStages)
					}
				})
			}
		}
	}
}

// TestReductionBitIdenticalAcrossWorkers: batch boundaries are fixed
// multiples of the batch size, so a reduction's per-batch partials — and
// their merge in batch order — do not depend on how many workers ran them.
// The inputs span many magnitudes so any change in the summation order
// shows in the low bits.
func TestReductionBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := make([]float64, diffN)
	for i := range a {
		a[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)))
	}
	for _, batch := range diffBatches {
		var first float64
		for i, w := range diffWorkers {
			s := core.NewSession(core.Options{Workers: w, BatchElems: batch})
			got, err := vmathsa.Sum(s, diffN, a).Float64()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = got
				continue
			}
			if math.Float64bits(got) != math.Float64bits(first) {
				t.Errorf("batch %d: sum with %d workers = %v (%#x), with %d = %v (%#x)",
					batch, w, got, math.Float64bits(got), diffWorkers[0], first, math.Float64bits(first))
			}
		}
	}
}
