// Command perfbench is dollymp's benchmark. One invocation runs one
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object with the run's verdict and metrics:
//
//	perfbench --workload google-200 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs.
// With --trace 1 it repeats the untraced runs, then runs the workload
// again with every call into a layer recorded as a span, and reports the
// per-layer metrics and the tracing overhead. README.md gives the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// outDir holds scratch files and span dumps, relative to the directory
// the benchmark runs from; run.sh builds into the same place.
const outDir = ".bench_build"

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric, refusing one not declared in metrics.go.
func (r *result) set(name string, v float64) {
	u, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var seed string
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload: google-200, synth-2k or e2e-http")
	fs.StringVar(&seed, "seed", "1", "input seed")
	fs.IntVar(&seconds, "seconds", 30, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	n, err := strconv.ParseUint(seed, 10, 64)
	if err != nil {
		return o, fmt.Errorf("--seed: %w", err)
	}
	o.seed = n
	if seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	o.seconds = time.Duration(seconds) * time.Second
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func run(o options) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	// Scratch files (trace files, journals) live in a per-process
	// directory that is removed when the run ends.
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	switch o.workload {
	case google200.name:
		return runEngine(google200, o, dir)
	case synth2k.name:
		return runEngine(synth2k, o, dir)
	case "e2e-http":
		return runE2E(e2eHTTP, o, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (google-200, synth-2k or e2e-http)", o.workload)
}

// checkReported fails unless r carries exactly the metrics declared for
// its mode.
func checkReported(r *result, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, %d declared", len(r.Metrics), len(want))
	}
	for _, d := range want {
		if _, ok := r.Metrics[d.name]; !ok {
			return fmt.Errorf("metric %s not reported", d.name)
		}
	}
	return nil
}

// printSummary writes the metrics to stderr, one per line.
func printSummary(o options, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d failed=%d\n",
		o.workload, o.seed, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r, err := run(o)
	if err == nil {
		err = checkReported(r, o.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", o.workload, o.seed, err)
		os.Exit(1)
	}
	printSummary(o, r)
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
