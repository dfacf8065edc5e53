package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"symbiosched/internal/core"
	"symbiosched/internal/exp"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/runner"
	"symbiosched/internal/scenario"
)

// tracedPass is one pass of the workload's scenarios with spans around
// the calls the benchmark makes: each scenario's plan, grid cells and
// reduction, the suite analyses the scenarios read, and the table
// digest. It does the same work as an untraced pass, and its digest must
// equal the untraced one.
type tracedPass struct {
	run    string // the span run id
	digest string
	wall   float64
	rows   int
	// cells and values capture each scenario's grid cells (in
	// enumeration order) and typed result, for the probe replays.
	cells  map[string][]any
	values map[string]any
	// sweeps are the suite analyses the pass computed.
	sweeps []sweep
	// pools logs the scenario grids' runner pools.
	pools *poolLog
}

// sweep is one machine's suite analysis and the table it ran on.
type sweep struct {
	name  string
	table *perfdb.Table
	sa    *core.SuiteAnalysis
}

func (b *bench) tracedPass(proto *exp.Env, tr *tracer) (*tracedPass, error) {
	env := freshEnv(proto, b.workers)
	tp := &tracedPass{cells: map[string][]any{}, values: map[string]any{}, pools: &poolLog{}}
	t0 := time.Now()
	root := tr.begin("pass", b.wl.name, 0)
	defer tr.end(root)
	if b.wl.sweepsInPass {
		// fig1 reads these through the same Env calls and finds them
		// cached; calling them first puts the analyses under spans.
		for _, m := range []struct {
			name string
			t    func() *perfdb.Table
			run  func() (*core.SuiteAnalysis, error)
		}{{"smt", env.SMTTable, env.SMTSweep}, {"quad", env.QuadTable, env.QuadSweep}} {
			var sa *core.SuiteAnalysis
			var err error
			tr.do("core.analyze", m.name, root, func() { sa, err = m.run() })
			if err != nil {
				return nil, fmt.Errorf("%s suite analysis: %w", m.name, err)
			}
			tp.sweeps = append(tp.sweeps, sweep{m.name, m.t(), sa})
		}
	}
	var results []*scenario.Result
	for _, s := range b.wl.scenarios() {
		sid := tr.begin("scenario.run", s.Name, root)
		var p *scenario.Plan
		var err error
		tr.do("scenario.plan", s.Name, sid, func() { p, err = s.Plan(b.ctx, env) })
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		spanned := &scenario.Plan{
			Axes: p.Axes,
			Cell: func(ctx context.Context, pt scenario.Point) (any, error) {
				id := tr.begin("scenario.cell", s.Name, sid)
				defer tr.end(id)
				return p.Cell(ctx, pt)
			},
			Reduce: func(cells []any) (*scenario.Result, error) {
				tp.cells[s.Name] = cells
				id := tr.begin("scenario.reduce", s.Name, sid)
				defer tr.end(id)
				return p.Reduce(cells)
			},
		}
		res, err := spanned.Execute(b.ctx, tp.pools.config(b.workers))
		tr.end(sid)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		tp.values[s.Name] = res.Value
		results = append(results, res)
	}
	tr.do("scenario.table", "", root, func() { tp.digest = digest(results) })
	for _, r := range results {
		for _, t := range r.Tables {
			tp.rows += len(t.Rows)
		}
	}
	tp.wall = time.Since(t0).Seconds()
	return tp, nil
}

// poolLog records runner pools driven with hooks.
type poolLog struct {
	mu       sync.Mutex
	items    []time.Duration
	capacity time.Duration // sum over pools of wall x pool size
}

// add appends another log's items and capacity.
func (l *poolLog) add(o *poolLog) {
	l.items = append(l.items, o.items...)
	l.capacity += o.capacity
}

func (l *poolLog) config(workers int) runner.Config {
	return runner.Config{Parallelism: workers, Hooks: runner.Hooks{
		Item: func(_ int, d time.Duration) {
			l.mu.Lock()
			l.items = append(l.items, d)
			l.mu.Unlock()
		},
		Done: func(n int, elapsed time.Duration) {
			l.mu.Lock()
			l.capacity += elapsed * time.Duration(min(workers, n))
			l.mu.Unlock()
		},
	}}
}

// passCost is the host cost of one untraced pass.
type passCost struct {
	wall, cpu, allocMB, gcs float64
}

// tracedRun is the per-layer run: set-up once under spans, then pairs of
// an untraced and a traced pass until the time is up, then the layer
// probes. Spans go to spansPath.
func (b *bench) tracedRun(spansPath string) (map[string]metric, error) {
	tr := newTracer()
	runID := fmt.Sprintf("%s/%d", b.wl.name, b.seed)
	tr.setRun(runID + "/setup")
	setupRoot := tr.begin("setup", b.wl.name, 0)
	proto, err := b.setup(tr, setupRoot)
	tr.end(setupRoot)
	if err != nil {
		return nil, err
	}
	want, err := b.expectedDigest(proto)
	if err != nil {
		return nil, err
	}

	var costs []passCost
	var tracedWalls []float64
	var first *tracedPass
	pools := &poolLog{} // every traced pass's runner pools
	start := time.Now()
	for n := 1; n == 1 || time.Since(start).Seconds() < b.seconds; n++ {
		if c, err := b.measuredPass(proto, want); err != nil {
			b.checks.fail(err)
		} else {
			costs = append(costs, c)
		}

		runtime.GC()
		run := fmt.Sprintf("%s/traced/%d", runID, n)
		tr.setRun(run)
		tp, err := b.tracedPass(proto, tr)
		if err != nil {
			b.checks.fail(err)
			continue
		}
		tp.run = run
		b.checks.expect(tp.digest == want, "traced pass %d digest %s, want %s", n, tp.digest, want)
		tracedWalls = append(tracedWalls, tp.wall)
		pools.add(tp.pools)
		if first == nil {
			first = tp
		}
	}
	if first == nil || len(costs) == 0 {
		return nil, fmt.Errorf("no traced and untraced pass pair completed")
	}

	tr.setRun(runID + "/probe")
	probeRoot := tr.begin("probe", b.wl.name, 0)
	pr := &prober{
		ctx: b.ctx, env: proto, tr: tr, root: probeRoot, workers: b.workers,
		checks: &b.checks, pools: &poolLog{}, pass: first,
		tables: []*perfdb.Table{proto.SMTTable()},
		sweeps: first.sweeps,
	}
	if b.wl.quad {
		pr.tables = append(pr.tables, proto.QuadTable())
	}
	if b.wl.smtSweep {
		sa, err := proto.SMTSweep() // built at set-up
		if err != nil {
			return nil, err
		}
		pr.sweeps = append(pr.sweeps, sweep{"smt", proto.SMTTable(), sa})
	}
	err = b.wl.probe(pr)
	tr.end(probeRoot)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	spans, err := tr.finish(spansPath)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return b.foldLayers(spans, runID, pr, pools, costs, tracedWalls), nil
}

// measuredPass runs one untraced pass and records its host cost.
func (b *bench) measuredPass(proto *exp.Env, want string) (passCost, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	pr, err := b.pass(proto, b.workers)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return passCost{}, err
	}
	b.checks.expect(pr.digest == want, "untraced pass digest %s, want %s", pr.digest, want)
	return passCost{
		wall:    wall.Seconds(),
		cpu:     cpu.Seconds(),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcs:     float64(m1.NumGC - m0.NumGC),
	}, nil
}

// foldLayers turns the spans, probe counters, pool logs and pass costs
// into the per-layer metrics.
func (b *bench) foldLayers(spans []span, runID string, pr *prober, pools *poolLog, costs []passCost, tracedWalls []float64) map[string]metric {
	firstPass := pr.pass.run
	sum := func(run, name string, self bool) float64 {
		var ns int64
		for i := range spans {
			s := &spans[i]
			if s.Name != name || (run != "" && s.Run != run) {
				continue
			}
			if self {
				ns += s.Self
			} else {
				ns += s.dur()
			}
		}
		return float64(ns) / 1e9
	}
	var coveredNs int64
	var passWall float64
	for i := range spans {
		s := &spans[i]
		if s.Run != firstPass {
			continue
		}
		if s.Parent == 0 {
			passWall = float64(s.dur()) / 1e9
			continue
		}
		coveredNs += s.Self
	}
	analyze := sum(runID+"/setup", "core.analyze", false) + sum(firstPass, "core.analyze", false)

	st := &pr.stats
	col := func(f func(c passCost) float64) float64 {
		xs := make([]float64, len(costs))
		for i, c := range costs {
			xs[i] = f(c)
		}
		return median(xs)
	}
	untracedWall := col(func(c passCost) float64 { return c.wall })
	cpu := col(func(c passCost) float64 { return c.cpu })

	// runner.* describe the scenario grids: runner.items counts the items
	// of one pass, and the item quantiles and idle fraction pool every
	// traced pass. A workload whose grid is a single cell wrapping a suite
	// sweep (suite) reports the core probe's pool instead, which has the
	// sweep's shape and runs once.
	passItems := len(pr.pass.pools.items)
	if passItems <= 1 && len(pr.pools.items) > 1 {
		pools, passItems = pr.pools, len(pr.pools.items)
	}
	items := append([]time.Duration(nil), pools.items...)
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	var busy time.Duration
	for _, d := range items {
		busy += d
	}
	quantileMs := func(q float64) float64 {
		if len(items) == 0 {
			return 0
		}
		return float64(items[int(q*float64(len(items)-1))]) / 1e6
	}

	m := map[string]metric{
		"perfdb.build_s":   {sum(runID+"/setup", "perfdb.build", false), "s"},
		"perfdb.entries":   {float64(st.entries), "count"},
		"perfdb.lookup_ns": {st.lookupNs, "ns"},

		"core.analyze_s":       {analyze, "s"},
		"core.analyze_calls":   {float64(pr.analyzeCalls()), "count"},
		"core.lp_s":            {secs(st.lpNs), "s"},
		"core.fcfs_s":          {secs(st.fcfsNs), "s"},
		"core.fcfs_jobs_per_s": {ratio(float64(st.fcfsJobs), secs(st.fcfsNs)), "1/s"},

		"sched.select_calls":   {float64(st.selectCalls), "count"},
		"sched.select_s":       {secs(st.selectNs), "s"},
		"sched.memo_hit_ratio": {ratio(st.memoHit, st.memoHit+st.memoMiss), "ratio"},
		"sched.pruned_ratio":   {ratio(st.pruned, st.pruned+st.scored), "ratio"},

		"eventsim.run_s":  {sum("", "eventsim.Latency", false) + sum("", "eventsim.LatencyObserved", false), "s"},
		"eventsim.self_s": {sum("", "eventsim.Latency", true) + sum("", "eventsim.LatencyObserved", true), "s"},

		"online.observe_calls": {float64(st.observeCalls), "count"},
		"online.observe_s":     {secs(st.observeNs), "s"},
		"online.solves":        {st.solves, "count"},

		"farm.pick_calls":      {float64(st.pickCalls), "count"},
		"farm.pick_s":          {secs(st.pickNs), "s"},
		"farm.sharded_s":       {sum("", "farm.SimulateSharded", false), "s"},
		"farm.sharded_self_s":  {sum("", "farm.SimulateSharded", true), "s"},
		"farm.serial_s":        {sum("", "farm.Simulate", false), "s"},
		"farm.serial_self_s":   {sum("", "farm.Simulate", true), "s"},
		"farm.slabs":           {st.slabs, "count"},
		"farm.merged":          {st.merged, "count"},
		"farm.shard_advances":  {st.shardAdvances, "count"},
		"farm.events_per_slab": {ratio(st.shardedPicks+st.merged, st.slabs), "count"},
		"farm.redispatches":    {st.redispatches, "count"},
		"farm.crashes":         {st.crashes, "count"},
		"farm.parked":          {st.parked, "count"},

		"server.reschedules":    {st.reschedules, "count"},
		"server.marg_hit_ratio": {ratio(st.margHit, st.margHit+st.margMiss), "ratio"},
		"runner.items":          {float64(passItems), "count"},
		"runner.item_p50_ms":    {quantileMs(0.50), "ms"},
		"runner.item_p99_ms":    {quantileMs(0.99), "ms"},
		"runner.item_samples":   {float64(len(items)), "count"},
		"runner.idle_frac":      {max(0, 1-ratio(float64(busy), float64(pools.capacity))), "ratio"},
		"scenario.table_s":      {sum(firstPass, "scenario.table", false), "s"},
		"scenario.rows":         {float64(pr.pass.rows), "count"},
		"proc.cpu_s":            {cpu, "s"},
		"proc.parallel_eff":     {ratio(cpu, untracedWall*float64(b.workers)), "ratio"},
		"go.alloc_mb":           {col(func(c passCost) float64 { return c.allocMB }), "MB"},
		"go.gc_cycles":          {col(func(c passCost) float64 { return c.gcs }), "count"},
		"trace.coverage":        {ratio(float64(coveredNs)/1e9, passWall*float64(b.workers)), "ratio"},
		"trace.overhead":        {ratio(median(tracedWalls)+secs(st.instrNs), untracedWall+secs(st.plainNs)), "ratio"},
		"trace.wrap_overhead":   {ratio(secs(st.instrNs), secs(st.plainNs)), "ratio"},
	}
	if len(items) == 0 {
		m["runner.idle_frac"] = metric{0, "ratio"}
	}
	return m
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
