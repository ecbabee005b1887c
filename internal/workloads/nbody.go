package workloads

import (
	"mozart/internal/annotations/tensorsa"
	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/memsim"
	"mozart/internal/tensor"
	"mozart/internal/vmath"
	"mozart/internal/weldsim"
)

// nBody (Figure 4c/4l): Newtonian gravity over pairwise-interaction
// matrices. The O(n^2) pairwise elementwise chain pipelines; the outer
// differences that build the matrices read whole vectors and cannot be
// split, which is where the stage breaks land (§8.2).

const (
	nbG   = 1.0
	nbEps = 1e-3
	nbDt  = 0.01
)

const nbOperators = 29

// runNBodyVmath is the MKL variant.
func runNBodyVmath(v Variant, cfg Config) (float64, error) {
	n := cfg.Scale
	x, y, z, mass := data.Bodies(n, 31)
	vx, vy, vz := make([]float64, n), make([]float64, n), make([]float64, n)
	mat := func() *vmath.Matrix { return vmath.NewMatrix(n, n) }
	dx, dy, dz, r2, t1 := mat(), mat(), mat(), mat(), mat()
	fx, fy, fz := mat(), mat(), mat()
	ax, ay, az := make([]float64, n), make([]float64, n), make([]float64, n)
	tmp := make([]float64, n)

	switch v {
	case Base:
		old := vmath.NumThreads()
		vmath.SetNumThreads(cfg.Threads)
		defer vmath.SetNumThreads(old)
		vmath.OuterDiff(x, dx)        // 1
		vmath.OuterDiff(y, dy)        // 2
		vmath.OuterDiff(z, dz)        // 3
		vmath.MatMulElem(dx, dx, r2)  // 4
		vmath.MatMulElem(dy, dy, t1)  // 5
		vmath.MatAdd(r2, t1, r2)      // 6
		vmath.MatMulElem(dz, dz, t1)  // 7
		vmath.MatAdd(r2, t1, r2)      // 8
		vmath.MatAddC(r2, nbEps, r2)  // 9
		vmath.MatPowC(r2, -1.5, r2)   // 10
		vmath.MulRowVec(r2, mass, r2) // 11
		vmath.MatMulElem(dx, r2, fx)  // 12
		vmath.MatMulElem(dy, r2, fy)  // 13
		vmath.MatMulElem(dz, r2, fz)  // 14
		vmath.RowSums(fx, ax)         // 15
		vmath.RowSums(fy, ay)         // 16
		vmath.RowSums(fz, az)         // 17
		for i, upd := range [][2][]float64{{ax, vx}, {ay, vy}, {az, vz}} {
			_ = i
			vmath.MulC(n, upd[0], -nbG*nbDt, tmp) // 18, 20, 22
			vmath.Add(n, upd[1], tmp, upd[1])     // 19, 21, 23
		}
		for _, upd := range [][2][]float64{{vx, x}, {vy, y}, {vz, z}} {
			vmath.MulC(n, upd[0], nbDt, tmp)  // 24, 26, 28
			vmath.Add(n, upd[1], tmp, upd[1]) // 25, 27, 29
		}
		return sumOf(x) + sumOf(y) + sumOf(z) + sumOf(vx) + sumOf(vy) + sumOf(vz), nil
	case Mozart, MozartNoPipe:
		s := cfg.session()
		if v == MozartNoPipe {
			s = cfg.sessionNoPipe()
		}
		vmathsa.OuterDiff(s, x, dx)
		vmathsa.OuterDiff(s, y, dy)
		vmathsa.OuterDiff(s, z, dz)
		vmathsa.MatMulElem(s, dx, dx, r2)
		vmathsa.MatMulElem(s, dy, dy, t1)
		vmathsa.MatAdd(s, r2, t1, r2)
		vmathsa.MatMulElem(s, dz, dz, t1)
		vmathsa.MatAdd(s, r2, t1, r2)
		vmathsa.MatAddC(s, r2, nbEps, r2)
		vmathsa.MatPowC(s, r2, -1.5, r2)
		vmathsa.MulRowVec(s, r2, mass, r2)
		vmathsa.MatMulElem(s, dx, r2, fx)
		vmathsa.MatMulElem(s, dy, r2, fy)
		vmathsa.MatMulElem(s, dz, r2, fz)
		vmathsa.RowSums(s, fx, ax)
		vmathsa.RowSums(s, fy, ay)
		vmathsa.RowSums(s, fz, az)
		for _, upd := range [][2][]float64{{ax, vx}, {ay, vy}, {az, vz}} {
			vmathsa.MulC(s, n, upd[0], -nbG*nbDt, tmp)
			vmathsa.Add(s, n, upd[1], tmp, upd[1])
		}
		for _, upd := range [][2][]float64{{vx, x}, {vy, y}, {vz, z}} {
			vmathsa.MulC(s, n, upd[0], nbDt, tmp)
			vmathsa.Add(s, n, upd[1], tmp, upd[1])
		}
		if err := s.EvaluateContext(cfg.ctx()); err != nil {
			return 0, err
		}
		return sumOf(x) + sumOf(y) + sumOf(z) + sumOf(vx) + sumOf(vy) + sumOf(vz), nil
	case Weld:
		return nbodyWeld(x, y, z, vx, vy, vz, mass, cfg.Threads), nil
	}
	return 0, errUnsupported(v)
}

// nbodyWeld computes the pairwise chain as fused expressions; the outer
// differences and the row-sum reductions are "captured" eagerly, the way
// Bohrium handles indexing operations.
func nbodyWeld(x, y, z, vx, vy, vz, mass []float64, threads int) float64 {
	n := len(x)
	dx, dy, dz := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	mm := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dx[i*n+j] = x[i] - x[j]
			dy[i*n+j] = y[i] - y[j]
			dz[i*n+j] = z[i] - z[j]
			mm[i*n+j] = mass[j]
		}
	}
	vdx, vdy, vdz := weldsim.Source(dx), weldsim.Source(dy), weldsim.Source(dz)
	inv := vdx.Square().Add(vdy.Square()).Add(vdz.Square()).AddS(nbEps).Pow(weldsim.Const(-1.5, n*n)).Mul(weldsim.Source(mm))
	outs := weldsim.Eval(threads, vdx.Mul(inv), vdy.Mul(inv), vdz.Mul(inv))
	sum := 0.0
	for i := 0; i < n; i++ {
		var axr, ayr, azr float64
		for j := 0; j < n; j++ {
			axr += outs[0][i*n+j]
			ayr += outs[1][i*n+j]
			azr += outs[2][i*n+j]
		}
		vx[i] += -nbG * nbDt * axr
		vy[i] += -nbG * nbDt * ayr
		vz[i] += -nbG * nbDt * azr
		x[i] += vx[i] * nbDt
		y[i] += vy[i] * nbDt
		z[i] += vz[i] * nbDt
		sum += x[i] + y[i] + z[i] + vx[i] + vy[i] + vz[i]
	}
	return sum
}

// runNBodyTensor is the NumPy variant; the mass broadcast matrix is built
// with an outer op, and per-row reductions use SumAxis1.
func runNBodyTensor(v Variant, cfg Config) (float64, error) {
	n := cfg.Scale
	xs, ys, zs, ms := data.Bodies(n, 31)
	x := tensor.FromSlice(xs, n)
	y := tensor.FromSlice(ys, n)
	z := tensor.FromSlice(zs, n)
	mass := tensor.FromSlice(ms, n)
	zerov := tensor.New(n)
	vx, vy, vz := tensor.New(n), tensor.New(n), tensor.New(n)

	switch v {
	case Base:
		dx := tensor.OuterSub(x, x)
		dy := tensor.OuterSub(y, y)
		dz := tensor.OuterSub(z, z)
		mm := tensor.OuterSub(zerov, tensor.Neg(mass)) // mm[i][j] = mass[j]
		r2 := tensor.AddS(tensor.Add(tensor.Add(tensor.Square(dx), tensor.Square(dy)), tensor.Square(dz)), nbEps)
		inv := tensor.Mul(tensor.PowS(r2, -1.5), mm)
		ax := tensor.SumAxis1(tensor.Mul(dx, inv))
		ay := tensor.SumAxis1(tensor.Mul(dy, inv))
		az := tensor.SumAxis1(tensor.Mul(dz, inv))
		vx = tensor.Add(vx, tensor.MulS(ax, -nbG*nbDt))
		vy = tensor.Add(vy, tensor.MulS(ay, -nbG*nbDt))
		vz = tensor.Add(vz, tensor.MulS(az, -nbG*nbDt))
		x = tensor.Add(x, tensor.MulS(vx, nbDt))
		y = tensor.Add(y, tensor.MulS(vy, nbDt))
		z = tensor.Add(z, tensor.MulS(vz, nbDt))
		return tensor.Sum(x) + tensor.Sum(y) + tensor.Sum(z) + tensor.Sum(vx) + tensor.Sum(vy) + tensor.Sum(vz), nil
	case Mozart, MozartNoPipe:
		s := cfg.session()
		if v == MozartNoPipe {
			s = cfg.sessionNoPipe()
		}
		dx := tensorsa.OuterSub(s, x, x)
		dy := tensorsa.OuterSub(s, y, y)
		dz := tensorsa.OuterSub(s, z, z)
		mm := tensorsa.OuterSub(s, zerov, tensorsa.Neg(s, mass))
		r2 := tensorsa.AddS(s, tensorsa.Add(s, tensorsa.Add(s, tensorsa.Square(s, dx), tensorsa.Square(s, dy)), tensorsa.Square(s, dz)), nbEps)
		inv := tensorsa.Mul(s, tensorsa.PowS(s, r2, -1.5), mm)
		ax := tensorsa.SumAxis(s, tensorsa.Mul(s, dx, inv), 1)
		ay := tensorsa.SumAxis(s, tensorsa.Mul(s, dy, inv), 1)
		az := tensorsa.SumAxis(s, tensorsa.Mul(s, dz, inv), 1)
		fvx := tensorsa.Add(s, vx, tensorsa.MulS(s, ax, -nbG*nbDt))
		fvy := tensorsa.Add(s, vy, tensorsa.MulS(s, ay, -nbG*nbDt))
		fvz := tensorsa.Add(s, vz, tensorsa.MulS(s, az, -nbG*nbDt))
		fx := tensorsa.Add(s, x, tensorsa.MulS(s, fvx, nbDt))
		fy := tensorsa.Add(s, y, tensorsa.MulS(s, fvy, nbDt))
		fz := tensorsa.Add(s, z, tensorsa.MulS(s, fvz, nbDt))
		sum := 0.0
		for _, f := range []*core.Future{fx, fy, fz, fvx, fvy, fvz} {
			v, err := f.Get()
			if err != nil {
				return 0, err
			}
			sum += tensor.Sum(v.(*tensor.NDArray))
		}
		return sum, nil
	case Weld:
		vxs, vys, vzs := make([]float64, n), make([]float64, n), make([]float64, n)
		return nbodyWeld(xs, ys, zs, vxs, vys, vzs, ms, cfg.Threads), nil
	}
	return 0, errUnsupported(v)
}

// nbModel builds the memsim plan: whole outer stages over n^2 elements,
// one pipelined pairwise stage, and a small vector stage. alloc marks the
// out-of-place (NumPy) flavor whose intermediates are batch-local.
func nbModel(alloc bool) func(v Variant, cfg Config) *memsim.Workload {
	return func(v Variant, cfg Config) *memsim.Workload {
		n := int64(cfg.Scale)
		pair := n * n
		const (
			dx, dy, dz, r2, t1, mm = 0, 1, 2, 3, 4, 5
			fx, fy, fz             = 6, 7, 8
		)
		outer := memsim.Stage{
			Ops: []memsim.Op{
				{Name: "outer", CyclesPerElem: cycAdd, Writes: []int{dx}},
				{Name: "outer", CyclesPerElem: cycAdd, Writes: []int{dy}},
				{Name: "outer", CyclesPerElem: cycAdd, Writes: []int{dz}},
				{Name: "outer", CyclesPerElem: cycAdd, Writes: []int{mm}},
			},
			Elems: pair, ElemBytes: 8,
		}
		pairOps := []opSpec{
			op("mul", cycMul, []int{dx, dx}, []int{r2}),
			op("mul", cycMul, []int{dy, dy}, []int{t1}),
			op("add", cycAdd, []int{r2, t1}, []int{r2}),
			op("mul", cycMul, []int{dz, dz}, []int{t1}),
			op("add", cycAdd, []int{r2, t1}, []int{r2}),
			op("addc", cycAdd, []int{r2}, []int{r2}),
			op("pow", cycExp, []int{r2}, []int{r2}),
			op("mulrow", cycMul, []int{r2, mm}, []int{r2}),
			op("mul", cycMul, []int{dx, r2}, []int{fx}),
			op("mul", cycMul, []int{dy, r2}, []int{fy}),
			op("mul", cycMul, []int{dz, r2}, []int{fz}),
			op("rowsum", cycAdd, []int{fx}, nil),
			op("rowsum", cycAdd, []int{fy}, nil),
			op("rowsum", cycAdd, []int{fz}, nil),
		}
		chain := chainModel("nbody-pair", pairOps, pair, 8, v, cfg.Batch)
		if alloc {
			chain = chainModelAlloc("nbody-pair", pairOps, pair, 8, v, cfg.Batch)
		}
		vec := memsim.Stage{
			Ops:   []memsim.Op{{Name: "integrate", CyclesPerElem: 12 * cycMul, Reads: []int{20}, Writes: []int{21}}},
			Elems: n, ElemBytes: 8,
		}
		w := &memsim.Workload{Name: "nbody", Elems: pair}
		w.Stages = append(w.Stages, outer)
		w.Stages = append(w.Stages, chain.Stages...)
		w.Stages = append(w.Stages, vec)
		return w
	}
}

func init() {
	register(Spec{
		Name:         "nbody-numpy",
		Library:      "NumPy",
		Description:  "Newtonian n-body step over pairwise matrices (Fig. 4c)",
		Operators:    nbOperators,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Run:          runNBodyTensor,
		DefaultScale: 1024,
		Model:        nbModel(true),
	})
	register(Spec{
		Name:         "nbody-mkl",
		Library:      "MKL",
		Description:  "Newtonian n-body step over MKL-style matrices (Fig. 4l)",
		Operators:    nbOperators,
		BaseParallel: true,
		Variants:     []Variant{Base, Mozart, MozartNoPipe, Weld},
		Run:          runNBodyVmath,
		DefaultScale: 1024,
		Model:        nbModel(false),
	})
}
