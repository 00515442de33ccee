// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall time through the simulator's and the
// service's public APIs, checks every simulated output, and prints each
// metric by name with its unit; the last line of standard output is one
// JSON object.
//
//	bash perfbench/run.sh --workload dense-paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload twice — once plain, once under a CPU profile — and reports
// the per-layer metrics: the profile's self time split by module, per-call
// timings of each layer's entry points replayed outside the system, the
// service's own /metrics, and the tracing overhead (see README.md).
//
// Seed 1 is the default seed: its simulated outputs must match the golden
// digests in golden.json. Any other seed is a held-out seed: golden digests
// are skipped and only the cross-path checks run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the seed whose outputs golden.json records.
const defaultSeed = 1

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir is a per-process scratch directory inside the checkout's
	// .bench_build (journals, tenant files); removed on exit.
	workDir string
	// writeGolden regenerates this workload's entry in golden.json from the
	// default seed instead of checking it.
	writeGolden bool
}

// heldOut reports whether the run uses a seed other than the default one.
func (o *options) heldOut() bool { return o.seed != defaultSeed }

// workloadFunc runs one workload and fills in its report.
type workloadFunc func(o *options, r *report) error

var workloads = map[string]workloadFunc{
	"dense-paper":   runDensePaper,
	"light-compute": runLightCompute,
	"serve-mixed":   runServeMixed,
	"fleet-sweep":   runFleetSweep,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed (the default seed is checked against golden.json)")
	fs.Float64Var(&o.seconds, "seconds", 15, "wall seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.writeGolden, "write-golden", false, "record this workload's golden digests (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if o.writeGolden && o.heldOut() {
		fmt.Fprintln(stderr, "perfbench: --write-golden needs the default seed")
		return 2
	}
	dir, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	r := newReport(o.trace)
	if err := w(&o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	if r.spans != nil {
		self := r.spans.selfTimes()
		for _, name := range sortedKeys(self) {
			r.note("span self time %-28s %.4f s", name, self[name])
		}
	}
	if err := r.spans.save(filepath.Join(buildDir(), "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := r.print(stdout, &o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildDir is the checkout-local directory for build products and run
// scratch; it is created on demand.
func buildDir() string {
	d := ".bench_build"
	_ = os.MkdirAll(d, 0o755) // MkdirTemp under it reports any failure
	return d
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the CPU time the process has used so far, all threads
// together. The kernel leaves out time the hypervisor gave this guest's
// processors to other guests (steal), so on a shared host it measures the
// program's own work where wall time also measures its neighbours.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// report collects one run's outcome: operation counts, metrics, spans and
// the human-readable lines printed before the JSON result.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	lines     []string
	spans     *spanLog
}

func newReport(traced bool) *report {
	r := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	if traced {
		r.spans = newSpanLog()
	}
	return r
}

// op counts one attempted operation; a non-nil err also counts it failed
// and records why.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 20 {
			r.lines = append(r.lines, "FAIL: "+err.Error())
		}
	}
}

// note adds a human-readable summary line.
func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the summary lines and then the JSON result line. Every
// declared metric of the run's kind is present; a per-layer metric the
// workload does not exercise reads 0.
func (r *report) print(w io.Writer, o *options) error {
	decl, vals := endToEndMetrics, r.e2e
	if o.trace {
		decl, vals = perLayerMetrics, r.layer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	res.Correct = r.failed == 0 && r.attempted > 0
	for _, m := range decl {
		v, ok := vals[m.name]
		if !ok && !o.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	fmt.Fprintf(w, "workload %s seed %d (%s) seconds %g trace %v\n", o.workload, o.seed, seedKind(o), o.seconds, o.trace)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	failedRatio := 0.0
	if r.attempted > 0 {
		failedRatio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "failed_ratio %.6f (%d of %d operations)\n", failedRatio, r.failed, r.attempted)
	for _, m := range decl {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	if res.Attempted < 1 {
		return errors.New("no operation completed")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func seedKind(o *options) string {
	if o.heldOut() {
		return "held-out: golden digests skipped, cross-path checks kept"
	}
	return "default: golden digests checked"
}

// medianSetup runs a set-up reps times and returns the median of the
// durations each run reports (the closure times only the set-up itself,
// not tearing down the previous one).
func medianSetup(r *report, reps int, setup func(i int) (time.Duration, error)) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		d, err := setup(i)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	r.note("setup_s median of %d set-ups %.6g s (p10 %.6g, p90 %.6g)", reps, median(ds), quantile(ds, 0.1), quantile(ds, 0.9))
	return median(ds), nil
}

// deadline returns the end of a measurement window of the given length.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
