// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against a real server.Server over loopback TCP,
// driving it with internal/client calls from at most GOMAXPROCS load
// goroutines, checks the coordinator's final state against a serial
// in-process reference, and prints every metric with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with
// tracing off); with -trace 1 they are the per-layer ones, from a run
// that records spans around every client call and, through a
// listener wrapper, around every server-side request, and then times
// each layer's public functions on the run's own envelopes and
// queries. README.md lists the workloads and metrics and why each
// exists. Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload site-ingest --seed 1 --seconds 10 --trace 0
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
	"strings"
	"time"
)

// DefaultSeed is the seed claims are developed on; HeldOutSeed is the
// second seed a claimed gain must also hold on.
const (
	DefaultSeed = 1
	HeldOutSeed = 2
)

// config sizes one run. The full-size values are fixed by defaults;
// the self-tests shrink them.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration // timed window
	trace    bool
	dir      string // scratch directory for logs, results and spans

	warm        time.Duration // untimed load before the timed window
	setupReps   int           // set-ups per run at least; setup_s is their median
	setupMin    time.Duration // and set-ups repeat until this much time has passed
	probeSlices int           // latency slices per probed call type at least
	probeTime   time.Duration // and the probe runs this long per call type
	minTail     int           // samples required beyond each percentile
	small       bool          // shrink inputs (self-tests)
}

func defaultConfig(workload string, seed uint64, seconds float64, trace bool) config {
	d := time.Duration(seconds * float64(time.Second))
	warm := d / 10
	if warm > time.Second {
		warm = time.Second
	}
	return config{
		workload:    workload,
		seed:        seed,
		seconds:     d,
		trace:       trace,
		dir:         filepath.Join(".bench_build", "perfbench"),
		warm:        warm,
		setupReps:   11,
		setupMin:    time.Second,
		probeSlices: 8,
		probeTime:   d / 6,
		minTail:     10,
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome: the result line plus the
// sample count behind every figure and the machine and inputs.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples map[string]int
	machine map[string]any
	gateErr error
	// context holds figures printed in the record but not declared as
	// metrics: the p95 latencies.
	context map[string]metric
}

func (r *result) set(name, unit string, v float64, samples int) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
		r.samples = make(map[string]int)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

func (r *result) note(name, unit string, v float64, samples int) {
	if r.context == nil {
		r.context = make(map[string]metric)
	}
	r.context[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", DefaultSeed, fmt.Sprintf("input seed (held-out seed for re-checking claims: %d)", HeldOutSeed))
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := defaultConfig(*workload, *seed, *seconds, *trace == 1)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", res.gateErr)
		os.Exit(1)
	}
}

// report prints the metric table and the run record, writes the
// record under the scratch directory, and ends with the result line.
func report(w *os.File, cfg config, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.6g %-8s n=%d\n", n, m.Value, m.Unit, res.samples[n])
	}
	names = names[:0]
	for n := range res.context {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.context[n]
		fmt.Fprintf(w, "%-36s %16.6g %-8s n=%d (context)\n", n, m.Value, m.Unit, res.samples[n])
	}
	record := map[string]any{
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"seconds":   cfg.seconds.Seconds(),
		"trace":     cfg.trace,
		"machine":   res.machine,
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
		"context":   res.context,
		"samples":   res.samples,
	}
	rec, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", rec)
	dir := filepath.Join(cfg.dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", cfg.workload, cfg.seed, b2i(cfg.trace), time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, name), append(rec, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// machineInfo records what the figures were measured on.
func machineInfo() map[string]any {
	m := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["commit"] = s.Value
			case "vcs.modified":
				m["dirty"] = s.Value == "true"
			}
		}
	}
	return m
}

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
