// Command perfbench is the repository's end-to-end benchmark. It drives the
// PEPPA-X system through its public entry points — core.Search,
// core.RandomSearch and the peppaxd HTTP API (service.New behind a loopback
// listener) — checks that every output is correct, and prints one JSON
// result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload search|baseline|service \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1 the
// workload runs twice, untraced and then with spans recorded around every
// public call, followed by direct probes of the lower layers; the result
// holds the per-layer metrics. README.md lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON document printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one workload run: operation counts, metrics and
// correctness failures.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	errs              []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness failure; any one makes the run exit non-zero.
func (r *report) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// config is one run's settings. seed orders the kernels of each sweep and
// draws the service clients' think times; the rest is fixed by the
// benchmark definition, and the self-tests shrink it.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	// kernels are the benchmarks swept, in prog.Names order.
	kernels []string
	// ref holds the recorded search and baseline SDC bounds.
	ref reference
	// spanDir receives the traced run's span file.
	spanDir string
	// svc sizes the service workload.
	svc serviceConfig
	// mangle, when set, rewrites each service stream line before it is
	// parsed (nil drops the line); the self-tests use it to damage streams.
	mangle func(line []byte) []byte
}

// Fixed workload parameters. Workers, slots and shards are sized for two
// cores and do not follow the host's core count, so a run does the same
// work everywhere.
const (
	workers = 2
	// setupReps is how many times set-up is repeated; setup_s is the median.
	setupReps = 31
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: search, baseline or service")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	recordRef := fs.Bool("record-reference", false, "print the search and baseline SDC bounds as a reference.json document and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		kernels:  allKernels(),
		ref:      ref,
		spanDir:  filepath.Join(".bench_build", "perfbench"),
	}
	if *recordRef {
		return printReference(cfg, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	rep, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return emit(rep, stdout, stderr)
}

// runWorkload dispatches one run.
func runWorkload(cfg config, log io.Writer) (*report, error) {
	switch cfg.workload {
	case "search":
		return runSearch(cfg, log)
	case "baseline":
		return runBaseline(cfg, log)
	case "service":
		return runService(cfg, log)
	default:
		return nil, fmt.Errorf("unknown workload %q (want search, baseline or service)", cfg.workload)
	}
}

// emit prints the result line and maps correctness failures to exit 1.
func emit(rep *report, stdout, stderr io.Writer) int {
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "perfbench: INCORRECT:", e)
	}
	if rep.attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operation was attempted")
		return 1
	}
	line, err := json.Marshal(result{
		Correct:   len(rep.errs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(rep.errs) > 0 {
		return 1
	}
	return 0
}

// setE2E records the end-to-end metrics every workload reports, and logs
// the latency sample count and the peak resident set, which the traced run
// reports as a per-layer metric.
func setE2E(rep *report, log io.Writer, wall, setup time.Duration, retainedMB, sdcMean float64, latencies []time.Duration) {
	rep.set("wall_s", wall.Seconds(), "s")
	rep.set("setup_s", setup.Seconds(), "s")
	rep.set("retained_heap_mb", retainedMB, "MB")
	rep.set("ok_frac", 1-float64(rep.failed)/float64(max(rep.attempted, 1)), "frac")
	rep.set("sdc_bound_mean", sdcMean, "frac")
	rep.set("job_p50_ms", ms(percentile(latencies, 0.50)), "ms")
	rep.set("job_p95_ms", ms(percentile(latencies, 0.95)), "ms")
	logf(log, "%d latency samples; peak RSS %.1f MB", len(latencies), peakRSSMB())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// retainedHeapMB is the heap still reachable after a forced collection:
// the memory a run keeps. Sampling the live heap during the run instead
// swung by 1.5x between runs of the same service jobs, with whichever
// fault-injection trials happened to be growing the interpreter's memory
// when a collection ran.
func retainedHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// percentile returns the q-quantile of ds, interpolating linearly between
// the two nearest ranks; 0 for none.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

// median of durations.
func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup runs set-up setupReps times and returns the median duration and
// the last repetition's product; release frees every earlier product.
func timeSetup[T any](setup func() (T, error), release func(T)) (T, time.Duration, error) {
	var (
		last  T
		times []time.Duration
	)
	for i := range setupReps {
		runtime.GC() // start every repetition from a settled heap
		t0 := time.Now()
		v, err := setup()
		times = append(times, time.Since(t0))
		if err != nil {
			if i > 0 && release != nil {
				release(last)
			}
			var zero T
			return zero, 0, err
		}
		if i > 0 && release != nil {
			release(last)
		}
		last = v
	}
	return last, median(times), nil
}

// logf writes a progress line to the log.
func logf(log io.Writer, format string, args ...any) {
	fmt.Fprintf(log, "perfbench: "+format+"\n", args...)
}

// memAllocated is the cumulative heap allocation in bytes.
func memAllocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// describe renders a metric set for the log, sorted by name.
func describe(set map[string]metric) string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-40s %14.6g %s\n", n, set[n].Value, set[n].Unit)
	}
	return sb.String()
}
