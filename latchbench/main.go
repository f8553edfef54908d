// Command latchbench is the latchchar benchmark. It drives the library
// from outside, through its public functions and, for the per-layer
// ledger, the internal layers' own entry points, on four workloads:
//
//	contour  serial Characterize of TSPC and C²MOS, 40 points both ways
//	surface  Engine.BruteForce of TSPC on the 40×40 grid, Block 8, 2 workers
//	mc       MonteCarloContours of TSPC, 16 Sobol samples, fast path, 2 workers
//	serve    an in-process latchchard server with two closed-loop clients
//
// Usage (from the repository root, via run.sh which builds this binary):
//
//	bash latchbench/run.sh --workload contour --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the traced flow and reports per-layer metrics. Diagnostics go to stderr;
// the last line of stdout is the JSON result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart anchors setup_s: package initialization runs first thing.
var processStart = time.Now()

// setupRounds is how many cold set-ups setup_s is the median of: this
// process's own and setupRounds-1 in fresh child processes, so one slow
// start does not decide it and none of them runs with warm code or heap.
const setupRounds = 5

// errSetupOnly ends a --setup-only child after it has reported its set-up
// time.
var errSetupOnly = errors.New("set-up only")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric. A figure no successful operation produced (NaN)
// reads 0; the failures are already counted.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) {
		v = 0
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{v, unit}
}

// fail records a failed operation; check failures also clear Correct.
func (r *result) fail(check bool, format string, args ...any) {
	r.Failed++
	if check {
		r.Correct = false
	}
	fmt.Fprintf(os.Stderr, "latchbench: "+format+"\n", args...)
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// coldSetups is how many child processes repeat the set-up for
	// setup_s; setupOnly makes this process such a child.
	coldSetups int
	setupOnly  bool
	// smoke shrinks every workload to seconds-scale sizes for the
	// benchmark's own tests; its figures are not comparable.
	smoke bool
}

var workloads = map[string]func(config) (*result, error){
	"contour": runContour,
	"surface": runSurface,
	"mc":      runMC,
	"serve":   runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: contour, surface, mc or serve")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced flow and reports per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print the set-up time and exit (the cold set-ups behind setup_s)")
	record := flag.String("record-reference", "", "trace the reference contours into this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordReference(*record); err != nil {
			fmt.Fprintln(os.Stderr, "latchbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "latchbench: need --workload (contour|surface|mc|serve), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, setupOnly: *setupOnly}
	if !cfg.trace {
		cfg.coldSetups = setupRounds - 1
	}
	res, err := run(cfg)
	if errors.Is(err, errSetupOnly) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "latchbench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		fillLayers(res)
	} else {
		res.set("max_rss_mb", maxRSSMB(), "MB")
	}
	printSummary(res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "latchbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// timeSetup sets the workload up and returns the state with setup_s: the
// median of setupRounds cold set-ups, each timed from its own process's
// start until the first timed operation could begin. This process's is
// the first; cfg.coldSetups child processes (--setup-only) add the rest,
// one after another, before any timed work. A --setup-only child prints
// its time as the last line of stdout and returns errSetupOnly.
func timeSetup[T any](cfg config, setup func() (T, error)) (T, float64, error) {
	st, err := setup()
	if err != nil {
		return st, 0, err
	}
	durs := []float64{time.Since(processStart).Seconds()}
	if cfg.setupOnly {
		fmt.Println(strconv.FormatFloat(durs[0], 'g', -1, 64))
		return st, 0, errSetupOnly
	}
	for i := 0; i < cfg.coldSetups; i++ {
		d, err := childSetup(cfg)
		if err != nil {
			return st, 0, fmt.Errorf("cold set-up %d: %w", i+1, err)
		}
		durs = append(durs, d)
	}
	for i, d := range durs {
		fmt.Fprintf(os.Stderr, "setup %d %.4f s\n", i, d)
	}
	return st, median(durs), nil
}

// childSetup runs this binary with --setup-only for cfg's workload and
// returns the set-up time it reports.
func childSetup(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	d, err := strconv.ParseFloat(lines[len(lines)-1], 64)
	if err != nil || !(d > 0) {
		return 0, fmt.Errorf("child reported %q", lines[len(lines)-1])
	}
	return d, nil
}

// logOp prints one operation's wall time to stderr.
func logOp(what string, i int, d time.Duration) {
	fmt.Fprintf(os.Stderr, "op %-14s %4d %9.4f s\n", what, i, d.Seconds())
}

// logDist prints the count, quartiles, median and 90th percentile of a
// run's per-operation figures to stderr, so a run's own spread is visible
// next to its median.
func logDist(what string, xs []float64) {
	if len(xs) < 2 {
		return
	}
	q1, q3 := quartiles(xs)
	fmt.Fprintf(os.Stderr, "dist %-14s n=%d q1=%.6g median=%.6g q3=%.6g p90=%.6g\n", what, len(xs), q1, median(xs), q3, percentile(xs, 90))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printSummary(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
