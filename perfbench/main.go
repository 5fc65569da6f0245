// Command perfbench is the repository benchmark. It drives the real
// wfserve binary as a child process over loopback with the client SDK,
// checks every answer against a BFS oracle, and prints the end-to-end
// metrics of one workload; with -trace 1 it also runs the same inputs
// in-process through each module's entry points and prints per-layer
// metrics with a reconciliation against the end-to-end figures.
//
// Run it through run.sh, which builds wfserve and this program from the
// checkout first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// The exit code is non-zero on any wrong answer or failed integrity
// check. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// Config is one invocation's parameters.
type Config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	WFServe  string // the wfserve binary
	Work     string // scratch root: trace cache and per-run data dirs
}

// workloads maps each workload name to its end-to-end driver.
var workloads = map[string]func(*Run) error{
	"ingest":  runIngest,
	"mixed":   runMixed,
	"restart": runRestart,
}

func main() {
	var cfg Config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: ingest, mixed or restart")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.Seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: also run the traced in-process pass and report per-layer metrics")
	flag.StringVar(&cfg.WFServe, "wfserve", "", "path of the wfserve binary built from the tree")
	flag.StringVar(&cfg.Work, "work", ".bench_build", "scratch directory")
	flag.Parse()
	cfg.Trace = trace == 1
	if _, ok := workloads[cfg.Workload]; !ok || cfg.WFServe == "" || cfg.Seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -wfserve BIN --workload ingest|mixed|restart --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// Stop every child on an interrupt, so no wfserve outlives the run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		KillAll()
		os.Exit(3)
	}()

	res, err := execute(cfg)
	KillAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func execute(cfg Config) (*Result, error) {
	dir, err := filepath.Abs(filepath.Join(cfg.Work, "run", fmt.Sprintf("%s-%d-%d", cfg.Workload, cfg.Seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &Run{
		cfg:   cfg,
		dir:   dir,
		cache: filepath.Join(cfg.Work, "cache"),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	// The restart fixture's trace is the slowest input to generate; make
	// it on the first run in a checkout, whichever workload that is.
	if _, err := EnsureTrace(r.cache, fixtureTrace); err != nil {
		return nil, fmt.Errorf("restart fixture trace: %w", err)
	}
	runtime.GC()

	fp := fingerprint(cfg)
	if err := workloads[cfg.Workload](r); err != nil {
		return nil, err
	}
	r.loadgenCPU = selfCPU() - r.loadgenStart
	e2e := r.endToEnd()
	printFingerprint(fp)
	printMetrics(fmt.Sprintf("end-to-end metrics, workload %s", cfg.Workload), e2e, endToEndMetrics)
	printMetrics("end-to-end tails (unresolved at this host's run-to-run spread; not in the result)", e2e, tailMetrics)
	r.printNotes()
	res := &Result{
		Correct:   r.correct(),
		Attempted: r.ops.attempted.Load(),
		Failed:    r.ops.failed(),
		Metrics:   map[string]Metric{},
	}
	for _, d := range endToEndMetrics {
		res.Metrics[d.Name] = e2e[d.Name]
	}
	fmt.Printf("ops: attempted=%d errors=%d wrong=%d failed_ops_ratio=%.6f\n",
		res.Attempted, r.ops.errors.Load(), r.ops.wrong.Load(), float64(res.Failed)/float64(max(res.Attempted, 1)))
	if cfg.Trace {
		layers, err := r.traced(e2e)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		printMetrics(fmt.Sprintf("per-layer metrics, workload %s (traced in-process run)", cfg.Workload), layers, perLayerMetrics)
		r.printNotes()
		res.Metrics = layers
	}
	return res, nil
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final JSON line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func printMetrics(title string, ms map[string]Metric, defs []MetricDef) {
	fmt.Printf("== %s\n", title)
	for _, d := range defs {
		m := ms[d.Name]
		fmt.Printf("  %-42s %14.6g %-8s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
	}
}

func defOf(defs []MetricDef, name string) *MetricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// selfCPU is this process's user plus system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
