// Command hostbench is the end-to-end benchmark of the symbiotic
// scheduling simulator. One invocation runs one workload in-process: it
// sets the workload up, runs it repeatedly for a fixed time, checks that
// every run's scenario tables match the expected digest, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {"wall_s": {"value": 3.2, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
// peak_rss_mb); with -trace 1 the run is traced and the metrics are the
// per-layer ones. README.md in this directory describes the workloads,
// the metrics and how to run them; run.sh builds and runs the command.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

const (
	// defaultSeed is the workload seed whose digests digests.json pins.
	defaultSeed = 1
	// heldOutSeed is the seed kept out of tuning: a later speed claim
	// must also hold on it.
	heldOutSeed = 20150329
	// setupReps is how many times a run builds the workload's set-up;
	// setup_s is the median.
	setupReps = 7
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks counts output checks; failed/attempted is the fail fraction.
type checks struct {
	attempted, failed int
	log               io.Writer
}

// expect records one check, logging it when it fails.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "hostbench: check failed: "+format+"\n", args...)
	}
}

// fail records one check that could not be made because its run errored.
func (c *checks) fail(err error) {
	c.expect(false, "%v", err)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed, fed to exp.Config.Seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
		seconds = fs.Float64("seconds", 10, "how long the timed phase repeats the workload")
		traced  = fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		workers = fs.Int("workers", runtime.NumCPU(), "worker count (exp.Config.Parallelism); at most the CPU count")
		pin     = fs.Bool("pin", false, "run the workload once at the default seed and write its digest to hostbench/digests.json")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "hostbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if n := runtime.NumCPU(); *workers < 1 || *workers > n {
		fmt.Fprintf(stderr, "hostbench: -workers wants 1..%d (the CPU count), got %d\n", n, *workers)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "hostbench: -trace wants 0 or 1, got %d\n", *traced)
		return 2
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 0) {
		fmt.Fprintf(stderr, "hostbench: -seconds wants a positive duration, got %v\n", *seconds)
		return 2
	}

	b := &bench{
		ctx:     ctx,
		wl:      wl,
		seed:    *seed,
		workers: *workers,
		seconds: *seconds,
		checks:  checks{log: stderr},
		out:     stdout,
		log:     stderr,
	}
	if *pin {
		return b.pin(stdout)
	}
	host := hostStamp(*seed, *workers)
	hostLine, err := json.Marshal(map[string]any{"host": host, "workload": wl.name})
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(hostLine))

	var metrics map[string]metric
	if *traced == 1 {
		metrics, err = b.tracedRun(fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", wl.name, *seed))
	} else {
		metrics, err = b.untracedRun()
	}
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", wl.name, err)
		return 1
	}
	return printReport(stdout, stderr, b.checks, metrics)
}

// printReport writes the human-readable metric lines and the final JSON
// line.
func printReport(stdout, stderr io.Writer, c checks, metrics map[string]metric) int {
	names := make([]string, 0, len(metrics))
	for n, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "hostbench: metric %s is not finite (%v)\n", n, m.Value)
			return 1
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-24s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if c.attempted == 0 {
		fmt.Fprintln(stderr, "hostbench: no output was checked")
		return 1
	}
	failFrac := float64(c.failed) / float64(c.attempted)
	fmt.Fprintf(stdout, "%-24s %14.6g (%d of %d checked outputs)\n", "fail_frac", failFrac, c.failed, c.attempted)
	line, err := json.Marshal(report{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
