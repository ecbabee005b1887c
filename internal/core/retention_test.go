//go:build go1.24

package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"
	"weak"
)

// viewArraySplitter is arraySplitter with the zero-copy SplitView
// capability: an identical reuse view comes back unchanged.
type viewArraySplitter struct{ arraySplitter }

func (viewArraySplitter) SplitView(v any, t SplitType, start, end int64, reuse any) (any, error) {
	a := v.([]float64)
	if r, ok := reuse.([]float64); ok && int64(len(r)) == end-start && end > start && &r[0] == &a[start] {
		return reuse, nil
	}
	return a[start:end], nil
}

func saViewUnary(name string) *Annotation {
	arr := Concrete("ArraySplit", viewArraySplitter{}, func(args []any) (SplitType, error) {
		return NewSplitType("ArraySplit", int64(args[0].(int))), nil
	})
	return &Annotation{FuncName: name, Params: []Param{
		{Name: "size", Type: sizeSplitOf(0)},
		{Name: "a", Type: arr},
		{Name: "out", Mut: true, Type: arr},
	}}
}

const retainN = 4096

// TestDeadSessionBuffersFreeInOneGC: the session's scratch — including the
// view reuse slots that alias the evaluated buffers — is owned by the
// session and registered with nothing else, so one GC cycle after the
// session becomes unreachable the buffers are gone. (Scratch in a
// runtime-registered pool survives one more cycle in its victim cache.)
func TestDeadSessionBuffersFreeInOneGC(t *testing.T) {
	ptrs := func() []weak.Pointer[[retainN]float64] {
		a, b := seq(retainN), make([]float64, retainN)
		s := NewSession(Options{Workers: 2, BatchElems: 256})
		for i := 0; i < 2; i++ { // the second evaluation runs on warm slots
			s.Call(testLog1p, saViewUnary("log1p"), retainN, a, b)
			if err := s.EvaluateContext(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if s.Stats().ViewSplits == 0 {
			t.Fatal("inputs were not view-split")
		}
		return []weak.Pointer[[retainN]float64]{
			weak.Make((*[retainN]float64)(a)), weak.Make((*[retainN]float64)(b)),
		}
	}()
	runtime.GC()
	for i, p := range ptrs {
		if p.Value() != nil {
			t.Errorf("buffer %d still reachable one GC cycle after its session died", i)
		}
	}
}

// within reports whether p is a view into buf's storage.
func within(p, buf []float64) bool {
	if len(p) == 0 || len(buf) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(&buf[0]))
	x := uintptr(unsafe.Pointer(&p[0]))
	return x >= lo && x < lo+uintptr(len(buf))*8
}

// TestViewSlotsHoldOnlyLatestEvaluation: a long-lived session evaluating
// K times over fresh buffers of the same shape keeps one set of reuse
// slots per view-split input, each slot a view of the latest evaluation's
// buffers — so the slots never pin earlier evaluations' data. An
// evaluation with fewer batches drops the slots past its batch count.
func TestViewSlotsHoldOnlyLatestEvaluation(t *testing.T) {
	const k, batch = 8, 256
	s := NewSession(Options{Workers: 2, BatchElems: batch})
	check := func(eval string, n int, a, b []float64) {
		t.Helper()
		if got := len(s.pools.views); got != 2 {
			t.Fatalf("%s: %d view slot sets, want 2 (one per view-split input)", eval, got)
		}
		for key, vs := range s.pools.views {
			if len(vs.slots) != n/batch {
				t.Fatalf("%s: input %d has %d slots, want %d", eval, key.in, len(vs.slots), n/batch)
			}
			for j, piece := range vs.slots[:cap(vs.slots)] {
				if j >= n/batch {
					if piece != nil {
						t.Fatalf("%s: input %d keeps a stale slot %d past the batch count", eval, key.in, j)
					}
					continue
				}
				p, _ := piece.([]float64)
				if !within(p, a) && !within(p, b) {
					t.Fatalf("%s: slot %d of input %d is not a view of the latest buffers", eval, j, key.in)
				}
			}
		}
	}
	run := func(n int) ([]float64, []float64) {
		a, b := seq(n), make([]float64, n)
		s.Call(testLog1p, saViewUnary("log1p"), n, a, b)
		if err := s.EvaluateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	for i := 0; i < k; i++ {
		a, b := run(retainN)
		check(fmt.Sprintf("evaluation %d", i), retainN, a, b)
	}
	a, b := run(retainN / 2)
	check("smaller evaluation", retainN/2, a, b)
}
