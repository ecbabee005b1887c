package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"mozart/internal/annotations/tensorsa"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/obs"
	"mozart/internal/tensor"
	"mozart/internal/vmath"
)

// Black Scholes, written twice the way the paper's Fig. 4 runs it: the
// NumPy-style program over out-of-place tensor ops, and the MKL-style
// program over in-place vmath buffers. Each program is written once over a
// small backend table, so the Mozart run and the base-library run execute
// the same call sequence as internal/workloads' blackscholes-numpy and
// blackscholes-mkl, on inputs the benchmark builds outside the timed
// region.

const (
	bsRiskFree = 0.02
	bsVol      = 0.3
	invSqrt2Pi = 0.3989422804014327
)

// bsOptions is the number of options priced per evaluation: three 8 MiB
// input arrays, 4× the 2 MiB per-core L2.
const bsOptions = 1 << 20

// bsInputs holds one seed's option grid.
type bsInputs struct {
	price, strike, tt []float64
}

func newBSInputs(seed int64) *bsInputs {
	p, k, t := data.OptionsData(bsOptions, seed)
	return &bsInputs{price: p, strike: k, tt: t}
}

// bsOutputs are call, put, vega and gamma.
type bsOutputs [4][]float64

// firstMismatch compares got with want element by element, in order, and
// describes the first difference ("" when bit-identical).
func (want bsOutputs) firstMismatch(got bsOutputs) string {
	names := [4]string{"call", "put", "vega", "gamma"}
	for o := range want {
		if len(got[o]) != len(want[o]) {
			return fmt.Sprintf("%s: %d elements, want %d", names[o], len(got[o]), len(want[o]))
		}
		for i, w := range want[o] {
			if math.Float64bits(got[o][i]) != math.Float64bits(w) {
				return fmt.Sprintf("%s[%d] = %v, want %v", names[o], i, got[o][i], w)
			}
		}
	}
	return ""
}

// evalClock marks one program run: its start, the first and last
// annotated call (the capture window), and when every result was forced.
type evalClock struct {
	start, captureLo, captureHi, end time.Time
}

// ---- NumPy-style program -------------------------------------------------

// tensorOps is the tensor backend: unary, binary and scalar ops by name
// over *tensor.NDArray (base) or lazy *core.Future values (Mozart).
type tensorOps struct {
	un  func(op string, a any) any
	bin func(op string, a, b any) any
	sc  func(op string, a any, c float64) any
}

// bsTensorProgram is runBSTensor's call sequence.
func bsTensorProgram(o tensorOps, price, strike, tt any) [4]any {
	n := bsOptions
	cdf := func(x any) any {
		return o.sc("muls", o.sc("adds", o.un("erf", o.sc("divs", x, math.Sqrt2)), 1), 0.5)
	}
	vst := o.sc("muls", o.un("sqrt", tt), bsVol)
	d1 := o.bin("div", o.bin("add", o.un("log", o.bin("div", price, strike)), o.sc("muls", tt, bsRiskFree+bsVol*bsVol/2)), vst)
	d2 := o.bin("sub", d1, vst)
	nd1, nd2 := cdf(d1), cdf(d2)
	e := o.bin("mul", strike, o.un("exp", o.sc("muls", tt, -bsRiskFree)))
	call := o.bin("maximum", o.bin("sub", o.bin("mul", price, nd1), o.bin("mul", e, nd2)), tensor.New(n))
	put := o.bin("maximum", o.bin("sub", o.bin("mul", e, o.sc("rsubs", nd2, 1)), o.bin("mul", price, o.sc("rsubs", nd1, 1))), tensor.New(n))
	pdf := o.sc("muls", o.un("exp", o.sc("muls", o.un("square", d1), -0.5)), invSqrt2Pi)
	vega := o.bin("mul", o.bin("mul", price, pdf), vst)
	gamma := o.bin("div", o.bin("div", pdf, vst), price)
	return [4]any{call, put, vega, gamma}
}

var (
	tensorUn = map[string]func(*tensor.NDArray) *tensor.NDArray{
		"sqrt": tensor.Sqrt, "log": tensor.Log, "exp": tensor.Exp, "erf": tensor.Erf, "square": tensor.Square,
	}
	tensorBin = map[string]func(a, b *tensor.NDArray) *tensor.NDArray{
		"add": tensor.Add, "sub": tensor.Sub, "mul": tensor.Mul, "div": tensor.Div, "maximum": tensor.Maximum,
	}
	tensorSc = map[string]func(*tensor.NDArray, float64) *tensor.NDArray{
		"muls": tensor.MulS, "adds": tensor.AddS, "divs": tensor.DivS, "rsubs": tensor.RSubS,
	}
	tensorsaUn = map[string]func(*core.Session, any) *core.Future{
		"sqrt": tensorsa.Sqrt, "log": tensorsa.Log, "exp": tensorsa.Exp, "erf": tensorsa.Erf, "square": tensorsa.Square,
	}
	tensorsaBin = map[string]func(*core.Session, any, any) *core.Future{
		"add": tensorsa.Add, "sub": tensorsa.Sub, "mul": tensorsa.Mul, "div": tensorsa.Div, "maximum": tensorsa.Maximum,
	}
	tensorsaSc = map[string]func(*core.Session, any, float64) *core.Future{
		"muls": tensorsa.MulS, "adds": tensorsa.AddS, "divs": tensorsa.DivS, "rsubs": tensorsa.RSubS,
	}
)

func baseTensorOps() tensorOps {
	return tensorOps{
		un:  func(op string, a any) any { return tensorUn[op](a.(*tensor.NDArray)) },
		bin: func(op string, a, b any) any { return tensorBin[op](a.(*tensor.NDArray), b.(*tensor.NDArray)) },
		sc:  func(op string, a any, c float64) any { return tensorSc[op](a.(*tensor.NDArray), c) },
	}
}

func mozartTensorOps(s *core.Session) tensorOps {
	return tensorOps{
		un:  func(op string, a any) any { return tensorsaUn[op](s, a) },
		bin: func(op string, a, b any) any { return tensorsaBin[op](s, a, b) },
		sc:  func(op string, a any, c float64) any { return tensorsaSc[op](s, a, c) },
	}
}

func tensorArgs(in *bsInputs) (price, strike, tt *tensor.NDArray) {
	return tensor.FromSlice(in.price, bsOptions), tensor.FromSlice(in.strike, bsOptions), tensor.FromSlice(in.tt, bsOptions)
}

func bsNumpyBase(in *bsInputs, clk *evalClock) bsOutputs {
	p, k, t := tensorArgs(in)
	clk.captureLo = time.Now()
	res := bsTensorProgram(baseTensorOps(), p, k, t)
	var out bsOutputs
	for i, r := range res {
		out[i] = r.(*tensor.NDArray).Data
	}
	clk.end = time.Now()
	return out
}

func bsNumpyMozart(s *core.Session, in *bsInputs, clk *evalClock) (bsOutputs, error) {
	p, k, t := tensorArgs(in)
	clk.captureLo = time.Now()
	res := bsTensorProgram(mozartTensorOps(s), p, k, t)
	clk.captureHi = time.Now()
	var out bsOutputs
	for i, r := range res {
		v, err := r.(*core.Future).Get()
		if err != nil {
			return out, err
		}
		out[i] = v.(*tensor.NDArray).Data
	}
	return out, nil
}

// ---- MKL-style program ---------------------------------------------------

// vmathOps is the vmath backend: in-place kernels writing into out.
type vmathOps struct {
	un  func(op string, n int, a, out []float64)
	bin func(op string, n int, a, b, out []float64)
	sc  func(op string, n int, a []float64, c float64, out []float64)
}

// bsVmathProgram is bsVmathProgram's call sequence in internal/workloads:
// nine full-length buffers reused across the 31 annotated calls. The zeros
// buffer is filled eagerly, as the Mozart backend there does.
func bsVmathProgram(o vmathOps, in *bsInputs, clk *evalClock) bsOutputs {
	n := len(in.price)
	price, strike, tt := in.price, in.strike, in.tt
	alloc := func() []float64 { return make([]float64, n) }
	d1, d2, t1, t2, zeros := alloc(), alloc(), alloc(), alloc(), alloc()
	call, put, vega, gamma := alloc(), alloc(), alloc(), alloc()
	vmath.Fill(n, 0, zeros)

	clk.captureLo = time.Now()
	o.bin("div", n, price, strike, d1)
	o.un("ln", n, d1, d1)
	o.un("sqrt", n, tt, t1)
	o.sc("mulc", n, t1, bsVol, t1)
	o.sc("mulc", n, tt, bsRiskFree+bsVol*bsVol/2, t2)
	o.bin("add", n, d1, t2, d1)
	o.bin("div", n, d1, t1, d1)
	o.bin("sub", n, d1, t1, d2)
	o.un("sqr", n, d1, gamma)
	o.sc("mulc", n, gamma, -0.5, gamma)
	o.un("exp", n, gamma, gamma)
	o.sc("mulc", n, gamma, invSqrt2Pi, gamma)
	o.bin("mul", n, price, gamma, vega)
	o.bin("mul", n, vega, t1, vega)
	o.bin("div", n, gamma, t1, gamma)
	o.bin("div", n, gamma, price, gamma)
	o.un("cdfnorm", n, d1, d1)
	o.un("cdfnorm", n, d2, d2)
	o.sc("mulc", n, tt, -bsRiskFree, t2)
	o.un("exp", n, t2, t2)
	o.bin("mul", n, strike, t2, t2)
	o.bin("mul", n, price, d1, call)
	o.bin("mul", n, t2, d2, put)
	o.bin("sub", n, call, put, call)
	o.sc("subcrev", n, d1, 1, d1)
	o.sc("subcrev", n, d2, 1, d2)
	o.bin("mul", n, t2, d2, d2)
	o.bin("mul", n, price, d1, d1)
	o.bin("sub", n, d2, d1, put)
	o.bin("fmax", n, call, zeros, call)
	o.bin("fmax", n, put, zeros, put)
	clk.captureHi = time.Now()
	return bsOutputs{call, put, vega, gamma}
}

var (
	vmathUn = map[string]func(int, []float64, []float64){
		"ln": vmath.Ln, "sqrt": vmath.Sqrt, "cdfnorm": vmath.CdfNorm, "exp": vmath.Exp, "sqr": vmath.Sqr,
	}
	vmathBin = map[string]func(int, []float64, []float64, []float64){
		"div": vmath.Div, "add": vmath.Add, "sub": vmath.Sub, "mul": vmath.Mul, "fmax": vmath.MaxV,
	}
	vmathSc = map[string]func(int, []float64, float64, []float64){
		"mulc": vmath.MulC, "subcrev": vmath.SubCRev,
	}
	vmathsaUn = map[string]func(*core.Session, int, any, any){
		"ln": vmathsa.Ln, "sqrt": vmathsa.Sqrt, "cdfnorm": vmathsa.CdfNorm, "exp": vmathsa.Exp, "sqr": vmathsa.Sqr,
	}
	vmathsaBin = map[string]func(*core.Session, int, any, any, any){
		"div": vmathsa.Div, "add": vmathsa.Add, "sub": vmathsa.Sub, "mul": vmathsa.Mul, "fmax": vmathsa.MaxV,
	}
	vmathsaSc = map[string]func(*core.Session, int, any, float64, any){
		"mulc": vmathsa.MulC, "subcrev": vmathsa.SubCRev,
	}
)

func baseVmathOps() vmathOps {
	return vmathOps{
		un:  func(op string, n int, a, out []float64) { vmathUn[op](n, a, out) },
		bin: func(op string, n int, a, b, out []float64) { vmathBin[op](n, a, b, out) },
		sc:  func(op string, n int, a []float64, c float64, out []float64) { vmathSc[op](n, a, c, out) },
	}
}

func mozartVmathOps(s *core.Session) vmathOps {
	return vmathOps{
		un:  func(op string, n int, a, out []float64) { vmathsaUn[op](s, n, a, out) },
		bin: func(op string, n int, a, b, out []float64) { vmathsaBin[op](s, n, a, b, out) },
		sc:  func(op string, n int, a []float64, c float64, out []float64) { vmathsaSc[op](s, n, a, c, out) },
	}
}

// bsMKLBase runs the program on the library's own threads, as MKL does.
func bsMKLBase(in *bsInputs, clk *evalClock) bsOutputs {
	old := vmath.NumThreads()
	vmath.SetNumThreads(nproc)
	defer vmath.SetNumThreads(old)
	out := bsVmathProgram(baseVmathOps(), in, clk)
	clk.end = time.Now()
	return out
}

func bsMKLMozart(s *core.Session, in *bsInputs, clk *evalClock) (bsOutputs, error) {
	out := bsVmathProgram(mozartVmathOps(s), in, clk)
	return out, s.EvaluateContext(context.Background())
}

// ---- the two batch workloads ---------------------------------------------

// bsWorkload builds bs-numpy or bs-mkl: inputs from the seed, reference
// outputs from the base library, and one warm-up Mozart evaluation.
func bsWorkload(seed int64, base func(*bsInputs, *evalClock) bsOutputs,
	mozart func(*core.Session, *bsInputs, *evalClock) (bsOutputs, error)) (*batchRun, error) {
	in := newBSInputs(seed)
	want := base(in, &evalClock{})
	b := &batchRun{
		elems: bsOptions,
		mozart: func(tr obs.Tracer) (evalSample, error) {
			var clk evalClock
			clk.start = time.Now()
			s := core.NewSession(core.Options{Workers: nproc, Tracer: tr})
			got, err := mozart(s, in, &clk)
			clk.end = time.Now()
			if err != nil {
				return evalSample{}, err
			}
			st := s.Stats()
			smp := evalSample{clk: clk, stats: st, mismatch: want.firstMismatch(got)}
			if st.StreamedStages != 0 {
				smp.guard = fmt.Sprintf("%d stages streamed; this workload must stay in memory", st.StreamedStages)
			}
			return smp, nil
		},
		base: func() (time.Duration, error) {
			var clk evalClock
			base(in, &clk)
			return clk.end.Sub(clk.captureLo), nil
		},
	}
	return b, b.warm()
}
