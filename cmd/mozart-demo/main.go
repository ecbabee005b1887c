// Command mozart-demo shows the Mozart runtime working on a small pipeline
// with optional piece logging: graph capture, stage planning, batched
// pipelined execution, and lazy evaluation on access.
package main

import (
	"flag"
	"fmt"
	"log"

	"mozart/internal/annotations/vmathsa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/obs"
	"mozart/internal/plan"
)

// pieceLog is the -v tracer: one line per executed batch, naming the
// stage's pipelined calls and the batch's element range.
type pieceLog struct{}

func (pieceLog) Emit(e obs.Event) {
	if e.Kind == obs.EvBatch {
		log.Printf("mozart: stage %d calls %s on elements [%d,%d)", e.Stage, e.Calls, e.Start, e.End)
	}
}

func main() {
	n := flag.Int("n", 1<<16, "vector length")
	workers := flag.Int("workers", 4, "worker threads")
	batch := flag.Int64("batch", 0, "batch elements (0 = C*L2 heuristic)")
	verbose := flag.Bool("v", false, "log every batch's calls and element range")
	flag.Parse()

	opts := core.Options{Workers: *workers, BatchElems: *batch}
	if *verbose {
		opts.Tracer = pieceLog{}
	}
	s := core.NewSession(opts)

	price, strike, tt := data.OptionsData(*n, 1)
	d1 := make([]float64, *n)

	fmt.Printf("capturing 4 annotated vector calls over %d elements...\n", *n)
	vmathsa.Div(s, *n, price, strike, d1) // d1 = price / strike
	vmathsa.Ln(s, *n, d1, d1)             // d1 = ln(d1)
	vmathsa.Add(s, *n, d1, tt, d1)        // d1 += t
	total := vmathsa.Sum(s, *n, d1)       // reduction

	fmt.Printf("pending calls before access: %d (nothing has executed)\n", s.Pending())

	// Show the planner's output before anything runs: Session.Plan builds
	// the plan IR read-only, so the evaluation below is unaffected.
	p, err := s.Plan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Render(p))

	v, err := total.Float64()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sum = %.4f (forced evaluation)\n", v)

	st := s.Stats()
	fmt.Printf("stages: %d  batches: %d  piece calls: %d\n", st.Stages, st.Batches, st.Calls)
	fmt.Printf("time breakdown: %s\n", st.String())
	fmt.Println("the 4 calls pipelined into one stage: each batch of the arrays")
	fmt.Println("went through div -> ln -> add -> sum while resident in cache.")
}
