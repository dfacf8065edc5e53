package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"symbiosched/internal/exp"
	"symbiosched/internal/runner"
	"symbiosched/internal/scenario"
)

// workloadSpec is one benchmark workload: an experiment configuration, the
// scenarios every pass runs (each through Scenario.Run, as `symbiosim
// run` and farmsim do), and the lazy set-up the timed phase must not pay.
type workloadSpec struct {
	name string
	// config sizes the experiment environment for a seed.
	config func(seed uint64) exp.Config
	// scenarios are run in order by every pass.
	scenarios func() []*scenario.Scenario
	// quad says whether the scenarios read the quad-core table besides
	// the SMT table.
	quad bool
	// smtSweep says whether the SMT suite analysis is set-up (fig5
	// calibrates its loads against it).
	smtSweep bool
	// sweepsInPass says whether the scenarios compute both suite
	// analyses themselves (fig1); the traced pass spans them.
	sweepsInPass bool
	// probe runs the traced run's layer probes (probes.go).
	probe func(p *prober) error
}

// megafarmOptions is the farmsim acceptance run: 100k servers, pd2, load
// 0.8, one replication, 64 shards (1M jobs via SimJobs).
var megafarmOptions = exp.FarmOptions{
	Servers:      100_000,
	Dispatchers:  []string{"pd2"},
	Loads:        []float64{0.8},
	Replications: 1,
	Shards:       64,
}

var workloads = []*workloadSpec{
	{
		name: "suite",
		config: func(seed uint64) exp.Config {
			c := exp.DefaultConfig()
			c.Seed = seed
			c.FCFSJobs = 5_000
			return c
		},
		scenarios:    func() []*scenario.Scenario { return lookup("fig1") },
		quad:         true,
		sweepsInPass: true,
		probe: func(p *prober) error {
			if err := p.coreProbe(); err != nil {
				return err
			}
			return p.lookupProbe()
		},
	},
	{
		name: "sectionvi",
		config: func(seed uint64) exp.Config {
			c := exp.DefaultConfig()
			c.Seed = seed
			c.FCFSJobs = 5_000
			c.SampleWorkloads = 24
			c.SimJobs = 4_000
			return c
		},
		scenarios: func() []*scenario.Scenario { return lookup("fig5", "online") },
		quad:      true,
		smtSweep:  true,
		probe: func(p *prober) error {
			for _, f := range []func() error{p.coreProbe, p.lookupProbe, p.replayFig5, p.replayOnline} {
				if err := f(); err != nil {
					return err
				}
			}
			return nil
		},
	},
	{
		name: "megafarm",
		config: func(seed uint64) exp.Config {
			c := exp.DefaultConfig()
			c.Seed = seed
			c.SimJobs = 1_000_000
			return c
		},
		scenarios: func() []*scenario.Scenario {
			return []*scenario.Scenario{exp.FarmScenario(megafarmOptions)}
		},
		probe: func(p *prober) error {
			if err := p.lookupProbe(); err != nil {
				return err
			}
			return p.replayMegafarm()
		},
	},
	{
		name: "farmgrid",
		config: func(seed uint64) exp.Config {
			c := exp.DefaultConfig()
			c.Seed = seed
			return c
		},
		scenarios: func() []*scenario.Scenario { return lookup("farm", "hetfarm", "slo", "burst", "resilience") },
		quad:      true,
		probe: func(p *prober) error {
			for _, f := range []func() error{p.lookupProbe, p.replayFarm, p.replayResilience} {
				if err := f(); err != nil {
					return err
				}
			}
			return nil
		},
	},
}

// lookup returns registered scenarios by name; a missing name is a bug in
// the workload table above.
func lookup(names ...string) []*scenario.Scenario {
	out := make([]*scenario.Scenario, len(names))
	for i, n := range names {
		s, ok := scenario.Lookup(n)
		if !ok {
			panic("hostbench: scenario " + n + " is not registered")
		}
		out[i] = s
	}
	return out
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (*workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// bench is one invocation's state.
type bench struct {
	ctx     context.Context
	wl      *workloadSpec
	seed    uint64
	workers int
	seconds float64
	checks  checks
	out     io.Writer // standard output, for the per-pass lines
	log     io.Writer
}

// setup builds a prepared environment: every perfdb table the workload
// reads, in process and without the gob cache, plus the SMT suite
// analysis where fig5 needs it. tr, when set, records the steps as spans.
func (b *bench) setup(tr *tracer, parent int) (*exp.Env, error) {
	cfg := b.wl.config(b.seed)
	cfg.Parallelism = b.workers
	e := exp.NewEnv(cfg)
	tr.do("perfdb.build", "smt", parent, func() { e.SMTTable() })
	if b.wl.quad {
		tr.do("perfdb.build", "quad", parent, func() { e.QuadTable() })
	}
	if b.wl.smtSweep {
		var err error
		tr.do("core.analyze", "smt", parent, func() { _, err = e.SMTSweep() })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return e, nil
}

// freshEnv returns a copy of the prepared environment that shares its
// built tables (read-only after the build) and its set-up sweeps, but
// caches nothing a pass computes: every pass starts from the same state.
// The copy is made while the prototype is idle, so its mutex is unlocked.
func freshEnv(proto *exp.Env, parallelism int) *exp.Env {
	e := new(exp.Env)
	*e = *proto
	e.Cfg.Parallelism = parallelism
	return e
}

// passResult is one run of the workload's scenarios.
type passResult struct {
	digest  string
	results []*scenario.Result
}

// pass runs every scenario of the workload once, on a fresh copy of the
// prepared environment, as `symbiosim run` does, and digests the tables.
func (b *bench) pass(proto *exp.Env, parallelism int) (*passResult, error) {
	env := freshEnv(proto, parallelism)
	rc := runner.Config{Parallelism: parallelism}
	pr := &passResult{}
	for _, s := range b.wl.scenarios() {
		res, err := s.Run(b.ctx, env, rc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		pr.results = append(pr.results, res)
	}
	pr.digest = digest(pr.results)
	return pr, nil
}

// digest hashes every scenario table's CSV bytes (the bytes `symbiosim
// run -csv` writes), in scenario and table order. The *_metrics tables
// are left out: they exist only when instrumentation is on.
func digest(results []*scenario.Result) string {
	h := sha256.New()
	for _, r := range results {
		for _, t := range r.Tables {
			if strings.HasSuffix(t.Name, "_metrics") {
				continue
			}
			fmt.Fprintf(h, "%s.csv\n", t.Name)
			w := csv.NewWriter(h)
			header := make([]string, len(t.Columns))
			for i, c := range t.Columns {
				header[i] = c.Name
			}
			_ = w.Write(header) // a hash never fails to write
			_ = w.WriteAll(t.Rows)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

//go:embed digests.json
var pinnedDigests []byte

// expectedDigest returns the digest every pass must reproduce: the pinned
// one at the default seed, otherwise that of a Parallelism = 1 pass of
// this seed.
func (b *bench) expectedDigest(proto *exp.Env) (string, error) {
	if b.seed == defaultSeed {
		var pins map[string]string
		if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
			return "", fmt.Errorf("digests.json: %w", err)
		}
		d, ok := pins[b.wl.name]
		if !ok {
			return "", fmt.Errorf("digests.json pins no digest for %s (run with -pin)", b.wl.name)
		}
		return d, nil
	}
	ref, err := b.pass(proto, 1)
	if err != nil {
		return "", fmt.Errorf("reference pass at parallelism 1: %w", err)
	}
	return ref.digest, nil
}

// pin runs one pass at the default seed and records its digest in
// hostbench/digests.json.
func (b *bench) pin(stdout io.Writer) int {
	if b.seed != defaultSeed {
		fmt.Fprintf(b.log, "hostbench: -pin records the default seed %d only\n", defaultSeed)
		return 2
	}
	proto, err := b.setup(nil, 0)
	if err != nil {
		fmt.Fprintf(b.log, "hostbench: %v\n", err)
		return 1
	}
	pr, err := b.pass(proto, 1)
	if err != nil {
		fmt.Fprintf(b.log, "hostbench: %v\n", err)
		return 1
	}
	const path = "hostbench/digests.json"
	pins := map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(b.log, "hostbench: %v\n", err)
		return 1
	}
	if err := json.Unmarshal(data, &pins); err != nil {
		fmt.Fprintf(b.log, "hostbench: digests.json: %v\n", err)
		return 1
	}
	pins[b.wl.name] = pr.digest
	out, err := json.MarshalIndent(pins, "", "  ") // map keys come out sorted
	if err != nil {
		fmt.Fprintf(b.log, "hostbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintf(b.log, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s %s\n", b.wl.name, pr.digest)
	return 0
}

// untracedRun measures the end-to-end metrics: set-ups (setup_s is the
// median) and passes (wall_s is the median pass), every pass checked
// against the expected digest. Both are host times scaled to the
// reference host speed (calib.go). Passes repeat until they have used the
// time, and all run on the first set-up's environment. The other set-ups
// are spread between the passes, so that both medians sample the whole
// run.
func (b *bench) untracedRun() (map[string]metric, error) {
	clock := newHostClock(runtime.NumCPU())
	var setups, rawSetups []float64
	timedSetup := func() (*exp.Env, error) {
		runtime.GC()
		t0 := time.Now()
		e, err := b.setup(nil, 0)
		raw := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, clock.scale(raw))
		return e, err
	}
	proto, err := timedSetup()
	if err != nil {
		return nil, err
	}
	want, err := b.expectedDigest(proto)
	if err != nil {
		return nil, err
	}
	clock.rebase()

	var walls, rawWalls, rss []float64
	measured := 0.0
	for n := 1; n == 1 || measured < b.seconds; n++ {
		// Keep the set-ups level with the share of the time used.
		for float64(len(setups)) < setupReps*min(1, measured/b.seconds) {
			if _, err := timedSetup(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		mem := startRSS()
		t0 := time.Now()
		pr, err := b.pass(proto, b.workers)
		wall := time.Since(t0).Seconds()
		peak := mem.stop()
		measured += wall
		scaled := clock.scale(wall)
		if err != nil {
			b.checks.fail(err)
			continue
		}
		rawWalls = append(rawWalls, wall)
		walls = append(walls, scaled)
		rss = append(rss, peak)
		b.checks.expect(pr.digest == want, "pass %d digest %s, want %s", n, pr.digest, want)
	}
	for len(setups) < setupReps {
		if _, err := timedSetup(); err != nil {
			return nil, err
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no pass completed")
	}
	fmt.Fprintf(b.out, "passes: %d, host s %s; setups: %d, host s %s; calibrations: %d, host s median %.4g\n",
		len(walls), fmtList(rawWalls), len(setups), fmtList(rawSetups), len(clock.calibs), median(clock.calibs))
	fmt.Fprintf(b.out, "at reference speed: wall_s %s; setup_s %s\n", fmtList(walls), fmtList(setups))
	return map[string]metric{
		"wall_s":      {median(walls), "s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {median(rss), "MB"},
	}, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
