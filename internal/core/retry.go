package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mozart/internal/obs"
)

// ErrTransient is the sentinel for recoverable faults. A library function or
// splitter that fails transiently (lock contention, a flaky device, a
// saturated downstream service) returns an error wrapping ErrTransient; the
// default RetryPolicy classifier retries exactly those. Everything else is
// treated as permanent and escalates to the StageError/fallback path
// unchanged.
var ErrTransient = errors.New("mozart: transient fault")

// RetryPolicy enables batch-granular retry: instead of failing the whole
// stage, the runtime replays only the failed batch — the smallest unit of
// work (§5.2) — after restoring any in-place-mutated pieces of its element
// range from a pre-attempt snapshot, so replays are idempotent. Permanent
// errors (anything the classifier rejects, plus merge faults, panics outside
// Split/Call, pedantic errors, timeouts, and cancellations) still escalate
// to the fallback path immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per batch (first attempt
	// included). Zero or one disables retry.
	MaxAttempts int
	// BaseBackoff is the pre-jitter delay after the first failed attempt;
	// it doubles per attempt. Defaults to 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Defaults to 64ms.
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter: the delay for (batch,
	// attempt) is a pure function of the seed, so a replayed evaluation
	// backs off identically regardless of worker interleaving.
	JitterSeed int64
	// Classify reports whether an error is transient and worth retrying.
	// Defaults to errors.Is(err, ErrTransient).
	Classify func(error) bool
	// Sleep is the backoff sleeper, injectable so tests run without
	// wall-clock delays. Defaults to time.Sleep.
	Sleep func(time.Duration)
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// transient applies the classifier (default: the ErrTransient sentinel).
func (p RetryPolicy) transient(err error) bool {
	if p.Classify != nil {
		return p.Classify(err)
	}
	return errors.Is(err, ErrTransient)
}

// retryable reports whether a batch failure is worth replaying: only faults
// in the batch's own work — the splitter's Split or the library call — can
// be undone by restoring the batch's pieces and re-running. Merge faults,
// internal errors, pedantic checks, and context errors escalate.
func (p RetryPolicy) retryable(err error) bool {
	var se *StageError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Origin {
	case OriginSplit, OriginCall:
	default:
		return false
	}
	return p.transient(err)
}

// backoff computes the delay before the given replay: exponential in the
// attempt number, capped, with deterministic seeded jitter in the upper half
// of the window (delay ∈ [cap/2, cap]).
func (p RetryPolicy) backoff(batchStart int64, attempt int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 64 * time.Millisecond
	}
	d := base << (attempt - 1)
	if d <= 0 || d > max {
		d = max
	}
	h := splitmix64(uint64(p.JitterSeed) ^ uint64(batchStart)*0x9e3779b97f4a7c15 ^ uint64(attempt)<<32)
	jitter := time.Duration(h % uint64(d/2+1))
	return d/2 + jitter
}

func (p RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash used for
// jitter so backoff needs no locked RNG shared across workers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// snapshotBatch captures pristine copies of the [start, end) pieces of every
// stage input some call mutates in place, returning one closure that
// restores them all. In-place splitters return aliasing views, so the same
// snapshot machinery the whole-call fallback uses (snapshotValue) restores
// the live range through the view without touching sibling workers' ranges.
func (s *Session) snapshotBatch(ex *stageExec, start, end int64) (func() error, error) {
	if len(ex.mutInPlace) == 0 {
		return nil, nil
	}
	restores := make([]func() error, 0, len(ex.mutInPlace))
	for _, in := range ex.mutInPlace {
		piece, err := s.safeSplit(in.r.splitter, in.val, in.r.t, start, end)
		if err != nil {
			return nil, fmt.Errorf("pre-retry split of %s: %w", in.r.t, err)
		}
		restore, err := snapshotValue(piece)
		if err != nil {
			return nil, fmt.Errorf("cannot snapshot batch piece of %s: %w", in.r.t, err)
		}
		restores = append(restores, restore)
	}
	return func() error {
		for _, r := range restores {
			if err := r(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// runBatchResilient is runBatch under the session's RetryPolicy: transient
// Split/Call faults replay the batch (after restoring its in-place-mutated
// pieces) with exponential, deterministically jittered backoff; permanent
// faults, exhausted attempts, and canceled contexts return the last error to
// the normal escalation path.
func (s *Session) runBatchResilient(ctx context.Context, ex *stageExec, sc *workerScratch, w, idx int, start, end int64) ([]any, error) {
	pol := s.opts.RetryPolicy
	if !pol.enabled() {
		return s.runBatch(ex, sc, w, idx, start, end, 1)
	}
	restore, snapErr := s.snapshotBatch(ex, start, end)
	for attempt := 1; ; attempt++ {
		out, err := s.runBatch(ex, sc, w, idx, start, end, attempt)
		if err == nil {
			return out, nil
		}
		if attempt >= pol.MaxAttempts || !pol.retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		if snapErr != nil {
			// The batch mutates in place but its pieces could not be
			// snapshotted: replaying would double-apply the mutation.
			return nil, fmt.Errorf("%w (batch retry skipped: %v)", err, snapErr)
		}
		if restore != nil {
			if rerr := restore(); rerr != nil {
				return nil, fmt.Errorf("%w (batch retry aborted, restore failed: %v)", err, rerr)
			}
		}
		s.stats.add(&s.stats.RetriedBatches, 1)
		if tr := s.opts.Tracer; tr != nil {
			tr.Emit(obs.Event{Kind: obs.EvRetry, Time: time.Now(), Stage: ex.si,
				Worker: w, Start: start, End: end, Calls: ex.calls,
				Attempt: attempt, Detail: err.Error()})
		}
		d := pol.backoff(start, attempt)
		s.stats.add(&s.stats.RetryBackoffNS, d)
		pol.sleep(d)
	}
}
