// Command perfbench is the repository's measured wall-clock benchmark. It
// runs one workload for one seed on this host and prints every metric by
// name with its unit, then, as its last line, a JSON summary:
//
//	go run . --workload bs-numpy --seed 1 --seconds 28 --trace 0
//
// Workloads: bs-numpy, bs-mkl and bs-ooc drive the Mozart runtime directly
// in a closed loop with one caller; serve-mix sends HTTP traffic to an
// in-process mozartd. With --trace 0 it reports the end-to-end metrics;
// with --trace 1 it reports the per-layer metrics of a traced run of the
// same length. Every output is checked; a mismatch or a workload guard
// violation makes it exit non-zero. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procStart is taken by the first package initialiser, as close to process
// start as Go code gets; the first set-up is timed from it.
var procStart = time.Now()

var nproc = runtime.NumCPU()

// memLimit is the Go heap's soft limit for the whole run. A workload whose
// heap keeps growing (bs-mkl retains each evaluation's buffers for two GC
// cycles) then collects more often instead of taking the host's memory.
const memLimit = 1 << 30

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// metricDef is one reported metric: its name, unit and which run reports it.
type metricDef struct {
	name, unit string
	perLayer   bool
}

// metricDefs lists every metric in report order. BENCHMARK.json lists the
// same names: the end-to-end ones under end_to_end, the rest under
// per_layer.
var metricDefs = []metricDef{
	{"eval_ms_p50", "ms", false},
	{"eval_ms_p90", "ms", false},
	{"melem_per_s", "Melem/s", false},
	{"base_ms_p50", "ms", false},
	{"alloc_mb_per_eval", "MB", false},
	{"peak_rss_mb", "MB", false},
	{"req_ms_p50", "ms", false},
	{"req_ms_p90", "ms", false},
	{"sat_rps", "req/s", false},
	{"setup_s", "s", false},

	{"core.capture_ms", "ms", true},
	{"core.plan_ms", "ms", true},
	{"core.stages", "count", true},
	{"core.batches", "count", true},
	{"core.calls", "count", true},
	{"core.split_ms", "ms", true},
	{"core.task_ms", "ms", true},
	{"core.premerge_ms", "ms", true},
	{"core.final_merge_ms", "ms", true},
	{"core.worker_idle_ms", "ms", true},
	{"core.view_splits", "count", true},
	{"core.pool_tasks", "count", true},
	{"core.worker_spawns", "count", true},
	{"core.admission_wait_ms", "ms", true},
	{"core.streamed_stages", "count", true},
	{"spill.mb", "MB", true},
	{"spill.frames", "count", true},
	{"lib.moved_mb", "MB", true},
	{"rt.alloc_mb", "MB", true},
	{"rt.gc_cycles", "count", true},
	{"rt.gc_pause_ms", "ms", true},
	{"rt.sched_lat_p99_us", "us", true},
	{"eval.unattributed_ms", "ms", true},
	{"eval.attributed_pct", "%", true},
	{"obs.trace_overhead_pct", "%", true},
	{"gen.late_ms_p99", "ms", true},
	{"serve.http_ms_p50", "ms", true},
	{"serve.eval_ms_p50", "ms", true},
	{"serve.req_ms_p99", "ms", true},
	{"serve.admission_ms_p50", "ms", true},
	{"serve.plan_ms_p50", "ms", true},
	{"serve.stage_ms_p50", "ms", true},
	{"serve.unattributed_ms_p50", "ms", true},
	{"serve.spans_per_req", "count", true},
	{"serve.shed", "count", true},
	{"serve.timed_out", "count", true},
	{"fail_ratio", "ratio", true},
}

// params are one run's command-line settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch space inside the checkout (spill files)
}

// metric is one JSON metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report gathers one run's metrics, notes and failures.
type report struct {
	values    map[string]float64
	notes     []string
	failures  []string
	attempted int64
	failed    int64
	incorrect bool // an output check or guard failed
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation that also makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.incorrect = true
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// setBypassed reports 0 for every per-layer metric under the given
// prefixes: the layers this workload does not exercise.
func setBypassed(r *report, prefixes ...string) {
	for _, d := range metricDefs {
		for _, p := range prefixes {
			if d.perLayer && strings.HasPrefix(d.name, p) {
				r.set(d.name, 0)
			}
		}
	}
}

// workload is one benchmark workload: set-up builds everything the timed
// region needs and returns the measuring function and a cleanup.
type workload struct {
	name  string
	setup func(p params) (run func(*report) error, cleanup func(), err error)
}

var workloadList = []workload{
	{"bs-numpy", func(p params) (func(*report) error, func(), error) {
		b, err := bsWorkload(p.seed, bsNumpyBase, bsNumpyMozart)
		return batchRunner(b, p), func() {}, err
	}},
	{"bs-mkl", func(p params) (func(*report) error, func(), error) {
		b, err := bsWorkload(p.seed, bsMKLBase, bsMKLMozart)
		return batchRunner(b, p), func() {}, err
	}},
	{"bs-ooc", func(p params) (func(*report) error, func(), error) {
		b, err := oocWorkload(p.workDir)
		return batchRunner(b, p), func() {}, err
	}},
	{"serve-mix", setupServeMix},
}

func batchRunner(b *batchRun, p params) func(*report) error {
	return func(r *report) error { return b.run(p, r) }
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var p params
	var trace int
	fs.StringVar(&p.workload, "workload", "", "workload: bs-numpy, bs-mkl, bs-ooc or serve-mix")
	fs.Int64Var(&p.seed, "seed", 1, "input seed")
	fs.Float64Var(&p.seconds, "seconds", 28, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	p.trace = trace == 1
	debug.SetMemoryLimit(memLimit)
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == p.workload {
			w = &workloadList[i]
		}
	}
	if w == nil || p.seconds <= 0 || (trace != 0 && trace != 1) {
		return 2, fmt.Errorf("usage: --workload bs-numpy|bs-mkl|bs-ooc|serve-mix --seed N --seconds S --trace 0|1")
	}
	dir, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		return 1, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	p.workDir, err = filepath.Abs(dir)
	if err != nil {
		return 1, err
	}

	rep := newReport()
	var measure func(*report) error
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		m, cleanup, err := w.setup(p)
		if err != nil {
			return 1, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setupReps-1 {
			cleanup()
			continue
		}
		defer cleanup()
		measure = m
	}
	rep.note("set-up times %.3f s; median reported", setupS)
	steal0 := readSteal()
	if err := measure(rep); err != nil {
		return 1, err
	}
	rep.note("hypervisor steal during the measured region: %.1f%% of CPU time", readSteal().since(steal0))
	if !p.trace {
		rep.set("setup_s", median(setupS))
	} else if rep.attempted > 0 {
		rep.set("fail_ratio", float64(rep.failed)/float64(rep.attempted))
	}
	return rep.print(os.Stdout, p)
}

// print writes the human-readable report and the JSON summary line, and
// returns the exit code: non-zero when an output check or guard failed.
func (r *report) print(f *os.File, p params) (int, error) {
	fmt.Fprintf(f, "perfbench %s seed=%d seconds=%g trace=%v\n", p.workload, p.seed, p.seconds, p.trace)
	fmt.Fprintf(f, "host: nproc=%d cpu=%q %s\n", nproc, cpuModel(), runtime.Version())
	for _, n := range r.notes {
		fmt.Fprintln(f, "  "+n)
	}
	for _, e := range r.failures {
		fmt.Fprintln(f, "  FAIL "+e)
	}
	fmt.Fprintf(f, "  attempted %d, failed %d\n", r.attempted, r.failed)
	out := summary{Correct: !r.incorrect, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, d := range metricDefs {
		if d.perLayer != p.trace {
			continue
		}
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		fmt.Fprintf(f, "  %-26s %14.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return 1, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		return 1, fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(f, string(line))
	if r.incorrect {
		return 1, fmt.Errorf("%d of %d operations failed an output check or guard", r.failed, r.attempted)
	}
	return 0, nil
}

// cpuTimes is the host's aggregate CPU time split from /proc/stat, in ticks.
type cpuTimes struct{ total, steal float64 }

func readSteal() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var c cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		c.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			c.steal = v
		}
	}
	return c
}

// since is the steal share of CPU time between two readings, in percent.
func (c cpuTimes) since(a cpuTimes) float64 {
	if c.total <= a.total {
		return 0
	}
	return 100 * (c.steal - a.steal) / (c.total - a.total)
}

// cpuModel reads the CPU model name for the report header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
