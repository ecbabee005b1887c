package core

import "sync"

// sessionPools is the session-owned scratch reuse layer for the hot path.
// Per-worker scratch (env map, output and argument buffers) and the
// per-stage batch piece tables cycle through plain free lists instead of
// being allocated per batch, so a session's second and later evaluations
// run the split→call→merge loop without heap growth. The free lists are
// ordinary slices behind a mutex that the runtime does not register (no
// victim cache), so when a session becomes unreachable its scratch — and
// the buffers its view slots alias — are garbage at the next GC cycle.
// Buffers can never migrate between sessions; the poison mode exists to
// prove no code path *retains* a buffer after returning it.
type sessionPools struct {
	// poison, when true (Options.PoisonPools), overwrites the slots of
	// every returned buffer with a sentinel value before reuse. Any code
	// path that kept a reference past the put sees poisonedBuffer{}
	// instead of its data and fails loudly (type asserts miss, results
	// corrupt deterministically). Debug mode for the leak tests.
	poison bool

	mu      sync.Mutex
	scratch []*workerScratch
	anys    [][]any

	// views holds the SplitView reuse slots per stage input, indexed by
	// batch. Only the evaluating goroutine touches the map (before a stage
	// fans out, and in sweepViews); workers write only the slots of the
	// batches they claimed. gen numbers evaluations so sweepViews can drop
	// slots the latest evaluation did not use.
	views map[viewKey]viewSlots
	gen   uint64
}

// poisonedBuffer is the sentinel written into returned buffers under
// poison mode. No real piece ever has this type, so any consumer of a
// leaked buffer trips an assertion or comparison failure immediately.
type poisonedBuffer struct{}

func newSessionPools(poison bool) *sessionPools {
	return &sessionPools{poison: poison, views: map[viewKey]viewSlots{}}
}

// viewKey names one stage input's SplitView reuse slots.
type viewKey struct{ stage, in int }

// viewSlots are one stage input's reuse slots, one per batch index: the
// piece most recently produced for that batch. Batch boundaries are fixed
// multiples of the batch size, so a slot recurs across evaluations of the
// same plan shape — exactly when the previous piece is still the right
// view and comes back unboxed. Stale slots are revalidated by the splitter
// (a view of the wrong storage or range is rebuilt).
type viewSlots struct {
	gen   uint64
	slots []any
}

// viewSlotsFor returns stage si's reuse slots for input in, sized n. It is
// called on the evaluating goroutine before the stage fans out.
func (p *sessionPools) viewSlotsFor(si, in, n int) []any {
	k := viewKey{si, in}
	vs := p.views[k]
	if cap(vs.slots) < n {
		vs.slots = make([]any, n)
	} else {
		clear(vs.slots[n:cap(vs.slots)])
		vs.slots = vs.slots[:n]
	}
	vs.gen = p.gen
	p.views[k] = vs
	return vs.slots
}

// sweepViews ends an evaluation: it drops the reuse slots of stage inputs
// the evaluation did not run, so the slots pin at most the latest
// evaluation's buffers.
func (p *sessionPools) sweepViews() {
	for k, vs := range p.views {
		if vs.gen != p.gen {
			delete(p.views, k)
		}
	}
	p.gen++
}

// workerScratch is the reusable per-worker state for the batch hot loop:
// the env map threading pieces between pipelined calls, the per-batch
// output pieces, and per-call argument buffers.
type workerScratch struct {
	env  map[int]any
	out  []any
	args [][]any
}

// argsFor returns the scratch argument slice for call index ci, sized n.
func (sc *workerScratch) argsFor(ci, n int) []any {
	for len(sc.args) <= ci {
		sc.args = append(sc.args, nil)
	}
	if cap(sc.args[ci]) < n {
		sc.args[ci] = make([]any, n)
	}
	sc.args[ci] = sc.args[ci][:n]
	return sc.args[ci]
}

// outFor returns the scratch output slice, sized n (one piece per stage
// output).
func (sc *workerScratch) outFor(n int) []any {
	if cap(sc.out) < n {
		sc.out = make([]any, n)
	}
	sc.out = sc.out[:n]
	return sc.out
}

func (p *sessionPools) getScratch() *workerScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.scratch); n > 0 {
		sc := p.scratch[n-1]
		p.scratch[n-1] = nil
		p.scratch = p.scratch[:n-1]
		return sc
	}
	return &workerScratch{env: map[int]any{}}
}

func (p *sessionPools) putScratch(sc *workerScratch) {
	clear(sc.env)
	p.scrub(sc.out[:cap(sc.out)])
	for _, args := range sc.args {
		p.scrub(args)
	}
	p.mu.Lock()
	p.scratch = append(p.scratch, sc)
	p.mu.Unlock()
}

// getAnys returns a zeroed []any of length n.
func (p *sessionPools) getAnys(n int) []any {
	p.mu.Lock()
	for i := len(p.anys) - 1; i >= 0; i-- {
		if buf := p.anys[i]; cap(buf) >= n {
			last := len(p.anys) - 1
			p.anys[i] = p.anys[last]
			p.anys[last] = nil
			p.anys = p.anys[:last]
			p.mu.Unlock()
			buf = buf[:n]
			clear(buf)
			return buf
		}
	}
	p.mu.Unlock()
	return make([]any, n)
}

func (p *sessionPools) putAnys(buf []any) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	p.scrub(buf)
	p.mu.Lock()
	p.anys = append(p.anys, buf)
	p.mu.Unlock()
}

// scrub drops a returned buffer's references: nil normally, the poison
// sentinel under poison mode.
func (p *sessionPools) scrub(buf []any) {
	if !p.poison {
		clear(buf)
		return
	}
	for i := range buf {
		buf[i] = poisonedBuffer{}
	}
}
