package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// The Go runtime layer, read through runtime/metrics: heap allocation,
// GC cycles and pause time, and scheduling latency.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
	mSchedLat   = "/sched/latencies:seconds"
)

// rtSample is one reading of the runtime metrics the benchmark uses.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
	schedLat   *metrics.Float64Histogram
}

func readRT() rtSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCPauses}, {Name: mSchedLat}}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		pauses:     s[2].Value.Float64Histogram(),
		schedLat:   s[3].Value.Float64Histogram(),
	}
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	allocBytes  float64
	gcCycles    float64
	gcPauseSec  float64 // Σ bucket midpoint × count
	schedLatP99 float64 // seconds; upper edge of the bucket holding p99
}

func (b rtSample) delta(a rtSample) rtDelta {
	pauses := histDelta(b.pauses, a.pauses)
	lat := histDelta(b.schedLat, a.schedLat)
	d := rtDelta{
		allocBytes: float64(b.allocBytes - a.allocBytes),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
	}
	for i, c := range pauses {
		d.gcPauseSec += float64(c) * bucketMid(b.pauses.Buckets, i)
	}
	d.schedLatP99 = histQuantile(b.schedLat.Buckets, lat, 0.99)
	return d
}

// histDelta returns b's bucket counts minus a's (same bucket layout).
func histDelta(b, a *metrics.Float64Histogram) []uint64 {
	out := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		out[i] = b.Counts[i] - a.Counts[i]
	}
	return out
}

// bucketMid is bucket i's midpoint, clamping infinite edges to the finite one.
func bucketMid(edges []float64, i int) float64 {
	lo, hi := edges[i], edges[i+1]
	switch {
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}

// histQuantile returns the upper edge of the bucket holding quantile q of
// counts (the finite lower edge for the +Inf bucket); 0 when empty.
func histQuantile(edges []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			if math.IsInf(edges[i+1], 1) {
				return edges[i]
			}
			return edges[i+1]
		}
	}
	return edges[len(edges)-1]
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS counter, so a later peakRSSMB reads the peak of the phase that
// follows rather than of set-up.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set since the last
// reset, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}
