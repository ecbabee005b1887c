package main

import (
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	// One sender; request 0 stalls past the due times of 1 and 2, so both
	// go out late and their latency counts the wait behind the stall.
	const stall = 80 * time.Millisecond
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	var mu sync.Mutex
	var order []int
	shots := openLoop(due, 1, func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
	})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("send order %v, want [0 1 2]", order)
	}
	for i := 1; i < 3; i++ {
		s := shots[i]
		if s.due != due[i] {
			t.Errorf("request %d due %v, want %v", i, s.due, due[i])
		}
		if s.late() < stall-due[i]-time.Millisecond {
			t.Errorf("request %d sent %v late, want at least %v", i, s.late(), stall-due[i])
		}
		if s.latency() != s.done-s.due || s.latency() < s.done-s.sent+s.late() {
			t.Errorf("request %d latency %v not charged from its due time (sent %v, done %v)",
				i, s.latency(), s.sent, s.done)
		}
	}
	if shots[0].late() > 20*time.Millisecond {
		t.Errorf("request 0 sent %v late with an idle sender", shots[0].late())
	}
}

func TestOpenLoopUsesEverySender(t *testing.T) {
	// Two senders, two simultaneous requests that each take 50ms: neither
	// waits for the other.
	due := []time.Duration{0, 0}
	shots := openLoop(due, 2, func(int) { time.Sleep(50 * time.Millisecond) })
	for i, s := range shots {
		if s.late() > 25*time.Millisecond {
			t.Errorf("request %d sent %v late with a free sender", i, s.late())
		}
	}
}

func TestTallyCountsEveryFailureAsLimitMiss(t *testing.T) {
	var tl tally
	fast := time.Millisecond
	tl.add(outcome{status: http.StatusOK}, fast)
	tl.add(outcome{status: http.StatusTooManyRequests}, fast)
	tl.add(outcome{status: http.StatusOK, mismatch: "checksum differs"}, fast)
	tl.add(outcome{status: http.StatusGatewayTimeout}, fast)
	tl.add(outcome{err: errors.New("connection reset")}, fast)
	tl.add(outcome{status: http.StatusOK}, serveLimit+time.Millisecond)

	if tl.attempted != 6 || tl.failed != 4 {
		t.Errorf("attempted %d failed %d, want 6 and 4", tl.attempted, tl.failed)
	}
	if tl.limitMisses != 5 {
		t.Errorf("limit misses %d, want 5 (four failures and one slow success)", tl.limitMisses)
	}
	if tl.shed != 1 || tl.mismatched != 1 || tl.timedOut != 1 {
		t.Errorf("shed %d mismatched %d timed out %d, want 1 each", tl.shed, tl.mismatched, tl.timedOut)
	}
}

func TestRecordFailRatio(t *testing.T) {
	// A 429 and a mismatch both count as failed; only the mismatch makes
	// the run incorrect.
	rep := newReport()
	var tl tally
	record(rep, &tl, outcome{status: http.StatusOK}, time.Millisecond, "ok")
	record(rep, &tl, outcome{status: http.StatusTooManyRequests}, time.Millisecond, "shed")
	if rep.attempted != 2 || rep.failed != 1 || rep.incorrect {
		t.Fatalf("after a 429: attempted %d failed %d incorrect %v", rep.attempted, rep.failed, rep.incorrect)
	}
	record(rep, &tl, outcome{status: http.StatusOK, mismatch: "x"}, time.Millisecond, "mismatch")
	if rep.attempted != 3 || rep.failed != 2 || !rep.incorrect {
		t.Fatalf("after a mismatch: attempted %d failed %d incorrect %v", rep.attempted, rep.failed, rep.incorrect)
	}
	if tl.limitMisses != 2 {
		t.Errorf("limit misses %d, want 2", tl.limitMisses)
	}
}

func TestDrawMixKeepsProportions(t *testing.T) {
	a := drawMix(rand.New(rand.NewSource(1)), 400)
	b := drawMix(rand.New(rand.NewSource(2)), 400)
	counts := map[int]int{}
	same := 0
	for i := range a {
		counts[a[i].member]++
		if a[i] == b[i] {
			same++
		}
	}
	for m := range serveMix {
		if counts[m] != 100 {
			t.Errorf("member %d drawn %d times, want 100", m, counts[m])
		}
	}
	if same == len(a) {
		t.Error("two seeds drew the same sequence")
	}
}

func TestChecksumMatches(t *testing.T) {
	if !checksumMatches(6.573012404333229e+08, 6.573012404333295e+08) {
		t.Error("reduction-order difference rejected")
	}
	if checksumMatches(6.573012e+08, 6.573012404333295e+08) {
		t.Error("a wrong checksum accepted")
	}
}
