package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"time"

	"symbiosched/internal/core"
	"symbiosched/internal/eventsim"
	"symbiosched/internal/exp"
	"symbiosched/internal/farm"
	"symbiosched/internal/fault"
	"symbiosched/internal/metrics"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/runner"
	"symbiosched/internal/scenario"
	"symbiosched/internal/sched"
	"symbiosched/internal/workload"
)

// prober runs the traced run's layer probes. The replays make the same
// public calls a scenario's cells make (sched.New, eventsim.Latency*,
// farm.Simulate*, with the same seeds and rates), but through the timing
// wrappers of trace.go, and each replay's outputs must equal the cells
// the traced pass captured. The core and perfdb probes time their layer
// directly.
type prober struct {
	ctx     context.Context
	env     *exp.Env // the prepared environment (tables, set-up sweeps)
	tr      *tracer
	root    int
	workers int
	checks  *checks
	// pools logs the core probe's runner pool.
	pools  *poolLog
	pass   *tracedPass
	tables []*perfdb.Table
	sweeps []sweep
	stats  layerStats
}

// layerStats accumulates the probes' counts and times.
type layerStats struct {
	mu sync.Mutex

	entries  int
	lookupNs float64

	lpNs, fcfsNs, fcfsJobs int64

	selectCalls, selectNs   int64
	memoHit, memoMiss       float64
	scored, pruned          float64
	observeCalls, observeNs int64
	solves                  float64

	pickCalls, pickNs              int64
	instrNs, plainNs               int64
	slabs, merged, shardAdvances   float64
	shardedPicks                   float64
	redispatches, crashes, parked  float64
	reschedules, margHit, margMiss float64
}

// addLeaves adds one simulation's leaf clocks.
func (s *layerStats) addLeaves(sel, pick, obs *clock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sel != nil {
		s.selectCalls += sel.calls.Load()
		s.selectNs += sel.ns.Load()
	}
	if pick != nil {
		s.pickCalls += pick.calls.Load()
		s.pickNs += pick.ns.Load()
	}
	if obs != nil {
		s.observeCalls += obs.calls.Load()
		s.observeNs += obs.ns.Load()
	}
}

// addReplay adds the walls of one simulation replayed instrumented and
// plain.
func (s *layerStats) addReplay(instr, plain time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.instrNs += instr.Nanoseconds()
	s.plainNs += plain.Nanoseconds()
}

// addFarm adds a farm run's program counters (Config.Metrics snapshots).
func (s *layerStats) addFarm(r *farm.Result, sharded bool) {
	count := func(snap *metrics.Snapshot, name string) float64 {
		if snap == nil {
			return 0
		}
		v, _ := snap.Get(name, "count")
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reschedules += count(r.Metrics, "server_reschedules")
	s.margHit += count(r.Metrics, "server_marg_hit")
	s.margMiss += count(r.Metrics, "server_marg_miss")
	s.crashes += count(r.Metrics, "fault_crashes")
	s.redispatches += count(r.Metrics, "fault_redispatches")
	s.parked += count(r.Metrics, "fault_parked")
	if sharded {
		s.shardedPicks += count(r.Metrics, "dispatch_picks")
		s.slabs += count(r.EngineStats, "engine_slabs")
		s.merged += count(r.EngineStats, "engine_merged_completions")
		s.shardAdvances += count(r.EngineStats, "engine_shard_advances")
	}
}

func (p *prober) analyzeCalls() int {
	n := 0
	for _, s := range p.sweeps {
		n += len(s.sa.Workloads)
	}
	return n
}

// lookupProbe times Table.EntryByKey and Table.JobWIPC over every entry
// of the workload's tables; perfdb.lookup_ns is the median over five
// sweeps of the time per lookup.
func (p *prober) lookupProbe() error {
	var totalNs, totalLookups float64
	for _, t := range p.tables {
		var coss []workload.Coschedule
		for k := 1; k <= t.K(); k++ {
			coss = append(coss, workload.Multisets(len(t.Suite()), k)...)
		}
		p.checks.expect(len(coss) == t.Size(), "perfdb %s holds %d entries, want %d", t.Name(), t.Size(), len(coss))
		keys := make([]uint64, len(coss))
		for i, c := range coss {
			keys[i] = perfdb.Key(c)
		}
		var sink float64
		per := make([]float64, 5)
		lookups := 0
		id := p.tr.begin("perfdb.lookup", t.Name(), p.root)
		for rep := range per {
			lookups = 0
			t0 := time.Now()
			for i, c := range coss {
				sink += t.EntryByKey(keys[i]).InstTP
				lookups++
				for j, b := range c {
					if j > 0 && c[j-1] == b {
						continue
					}
					sink += t.JobWIPC(c, b)
					lookups++
				}
			}
			per[rep] = float64(time.Since(t0).Nanoseconds()) / float64(lookups)
		}
		p.tr.end(id)
		p.checks.expect(sink > 0 && !math.IsInf(sink, 0), "perfdb %s lookups summed to %v", t.Name(), sink)
		totalNs += median(per) * float64(lookups)
		totalLookups += float64(lookups)
		p.stats.entries += t.Size()
	}
	p.stats.lookupNs = ratio(totalNs, totalLookups)
	return nil
}

// coreProbe runs core.Optimal + core.Worst (the LP pair) and core.FCFS for
// every workload of each suite analysis the run computed, through a
// hooked runner pool like AnalyzeSuite's, and checks each throughput
// against the analysis.
func (p *prober) coreProbe() error {
	jobs := p.env.Cfg.FCFSJobs
	for _, sw := range p.sweeps {
		t := sw.table
		ws := workload.EnumerateWorkloads(len(t.Suite()), 4)
		if len(ws) != len(sw.sa.Workloads) {
			p.checks.expect(false, "%s: %d workloads, analysis has %d", sw.name, len(ws), len(sw.sa.Workloads))
			continue
		}
		type out struct {
			opt, worst, fcfs float64
			lp, fc           time.Duration
		}
		id := p.tr.begin("core.probe", sw.name, p.root)
		outs, err := runner.Map(p.ctx, p.pools.config(p.workers), len(ws), func(_ context.Context, i int) (out, error) {
			t0 := time.Now()
			opt, err := core.Optimal(t, ws[i])
			if err != nil {
				return out{}, err
			}
			worst, err := core.Worst(t, ws[i])
			if err != nil {
				return out{}, err
			}
			t1 := time.Now()
			// AnalyzeSuite seeds workload i's FCFS run with i+1.
			f := core.FCFS(t, ws[i], core.FCFSConfig{Jobs: jobs, Seed: uint64(i) + 1})
			return out{opt.Throughput, worst.Throughput, f.Throughput, t1.Sub(t0), time.Since(t1)}, nil
		})
		p.tr.end(id)
		if err != nil {
			return fmt.Errorf("core probe %s: %w", sw.name, err)
		}
		bad := 0
		for i, o := range outs {
			a := sw.sa.Workloads[i]
			ok := o.opt == a.OptimalTP && o.worst == a.WorstTP && o.fcfs == a.FCFSTP
			if !ok {
				bad++
			}
			p.checks.attempted++
			p.stats.lpNs += o.lp.Nanoseconds()
			p.stats.fcfsNs += o.fc.Nanoseconds()
			p.stats.fcfsJobs += int64(jobs)
		}
		p.checks.failed += bad
		if bad > 0 {
			fmt.Fprintf(p.checks.log, "hostbench: check failed: core probe %s: %d of %d workloads differ from the suite analysis\n", sw.name, bad, len(outs))
		}
	}
	return nil
}

// newSched makes a fresh scheduler and, for a learner, the observer
// that feeds it; instrument says whether the run is the instrumented one.
type newSched func(instrument bool) (sched.Scheduler, online.IntervalObserver, error)

// latency replays one eventsim.Latency(Observed) run twice, each time
// from a fresh scheduler: instrumented (scheduler metrics attached,
// Select and, for a learner, ObserveInterval timed, the run spanned),
// then plain. The two results must agree; their walls feed
// trace.overhead.
func (p *prober) latency(t *perfdb.Table, w workload.Workload, mk newSched, cfg eventsim.LatencyConfig) (*eventsim.Result, error) {
	s, obs, err := mk(true)
	if err != nil {
		return nil, err
	}
	sm := sched.NewMetrics(metrics.New())
	sched.AttachMetrics(s, sm)
	var sel, ob clock
	name := "eventsim.Latency"
	var tobs online.IntervalObserver
	if obs != nil {
		name = "eventsim.LatencyObserved"
		tobs = &timedObserver{o: obs, clk: &ob}
	}
	id := p.tr.begin(name, s.Name(), p.root)
	t0 := time.Now()
	res, err := eventsim.LatencyObserved(t, w, timeScheduler(s, &sel), tobs, cfg)
	instr := time.Since(t0)
	p.tr.end(id, &sel, &ob)
	if err != nil {
		return nil, err
	}
	p.stats.addLeaves(&sel, nil, &ob)
	p.stats.mu.Lock()
	p.stats.memoHit += float64(sm.MemoHit.Value())
	p.stats.memoMiss += float64(sm.MemoMiss.Value())
	p.stats.scored += float64(sm.Scored.Value())
	p.stats.pruned += float64(sm.Pruned.Value())
	p.stats.mu.Unlock()

	if s, obs, err = mk(false); err != nil {
		return nil, err
	}
	t0 = time.Now()
	plain, err := eventsim.LatencyObserved(t, w, s, obs, cfg)
	p.stats.addReplay(instr, time.Since(t0))
	if err != nil {
		return nil, err
	}
	p.checks.expect(reflect.DeepEqual(res, plain), "%s %s: instrumented replay differs from the plain one", name, s.Name())
	return res, nil
}

// sampledWorkloads is the Section VI workload sample: every
// (495/SampleWorkloads)-th N=4 workload.
func sampledWorkloads(cfg exp.Config, suite int) []workload.Workload {
	all := workload.EnumerateWorkloads(suite, 4)
	n := cfg.SampleWorkloads
	if n <= 0 || n >= len(all) {
		return all
	}
	var out []workload.Workload
	for i, step := 0, len(all)/n; i < len(all) && len(out) < n; i += step {
		out = append(out, all[i])
	}
	return out
}

// replayFig5 replays every fig5 simulation and checks the fold against
// the fig5 result of the traced pass.
func (p *prober) replayFig5() error {
	e := p.env
	t := e.SMTTable()
	sa, err := e.SMTSweep()
	if err != nil {
		return err
	}
	fcfsTP := make(map[uint64]float64, len(sa.Workloads))
	for _, a := range sa.Workloads {
		fcfsTP[perfdb.Key(workload.Coschedule(a.Workload))] = a.FCFSTP
	}
	ws := sampledWorkloads(e.Cfg, len(e.Cfg.Suite))
	type acc struct{ turn, util, empty float64 }
	locals, err := runner.Map(p.ctx, runner.Config{Parallelism: p.workers}, len(ws), func(_ context.Context, wi int) ([][]acc, error) {
		w := ws[wi]
		base, ok := fcfsTP[perfdb.Key(workload.Coschedule(w))]
		if !ok || base <= 0 {
			return nil, nil
		}
		local := make([][]acc, len(exp.SchedulerNames))
		for i := range local {
			local[i] = make([]acc, len(exp.Fig5Loads))
		}
		fcfsTurn := make([]float64, len(exp.Fig5Loads))
		for li, load := range exp.Fig5Loads {
			for si, name := range exp.SchedulerNames {
				mk := func(bool) (sched.Scheduler, online.IntervalObserver, error) {
					s, err := sched.New(name, t, w)
					return s, nil, err
				}
				res, err := p.latency(t, w, mk, eventsim.LatencyConfig{
					Lambda:    load * base,
					Jobs:      e.Cfg.SimJobs,
					SizeShape: 4,
					Seed:      e.Cfg.Seed + uint64(wi)*31 + uint64(li),
				})
				if err != nil {
					return nil, err
				}
				if name == "FCFS" {
					fcfsTurn[li] = res.MeanTurnaround
				}
				local[si][li] = acc{res.MeanTurnaround, res.Utilisation, res.EmptyFraction}
			}
		}
		for si := range local {
			for li := range local[si] {
				if fcfsTurn[li] > 0 {
					local[si][li].turn /= fcfsTurn[li]
				} else {
					local[si][li].turn = 1
				}
			}
		}
		return local, nil
	})
	if err != nil {
		return fmt.Errorf("fig5 replay: %w", err)
	}
	sums := make([][]acc, len(exp.SchedulerNames))
	for i := range sums {
		sums[i] = make([]acc, len(exp.Fig5Loads))
	}
	for _, local := range locals {
		for si := range local {
			for li := range local[si] {
				sums[si][li].turn += local[si][li].turn
				sums[si][li].util += local[si][li].util
				sums[si][li].empty += local[si][li].empty
			}
		}
	}
	got, ok := p.pass.values["fig5"].(*exp.Fig5Result)
	if !ok {
		return fmt.Errorf("traced pass has no fig5 result")
	}
	n := float64(len(ws))
	for si, name := range exp.SchedulerNames {
		for li, load := range exp.Fig5Loads {
			c, ok := got.Cell(name, load)
			a := sums[si][li]
			p.checks.expect(ok && c.TurnaroundVsFCFS == a.turn/n && c.Utilisation == a.util/n && c.EmptyFraction == a.empty/n,
				"fig5 replay %s load %v differs from the scenario", name, load)
		}
	}
	return nil
}

// The registered online scenario's scheduler and workload cap.
const (
	onlineSched     = "MAXIT"
	onlineWorkloads = 8
)

// replayOnline replays every online-scenario simulation (the learners fed
// through the timed observer) and checks the fold against the online
// result of the traced pass.
func (p *prober) replayOnline() error {
	e := p.env
	machines := []struct {
		name string
		t    *perfdb.Table
	}{{"smt", e.SMTTable()}, {"quad", e.QuadTable()}}
	ws := sampledWorkloads(e.Cfg, len(e.Cfg.Suite))
	if len(ws) > onlineWorkloads {
		step := len(ws) / onlineWorkloads
		var thinned []workload.Workload
		for i := 0; i < len(ws) && len(thinned) < onlineWorkloads; i += step {
			thinned = append(thinned, ws[i])
		}
		ws = thinned
	}
	type acc struct{ turn, tp, turnRel, tpRel float64 }
	ests, loads := online.Names, exp.OnlineLoads
	locals, err := runner.Map(p.ctx, runner.Config{Parallelism: p.workers}, len(machines)*len(ws), func(_ context.Context, idx int) ([][]acc, error) {
		mi, wi := idx/len(ws), idx%len(ws)
		m, w := machines[mi], ws[wi]
		base := core.FCFS(m.t, w, core.FCFSConfig{Jobs: e.Cfg.FCFSJobs, Seed: e.Cfg.Seed}).Throughput
		if base <= 0 {
			return nil, fmt.Errorf("workload %v has no FCFS throughput", w)
		}
		local := make([][]acc, len(ests))
		for i := range local {
			local[i] = make([]acc, len(loads))
		}
		for li, load := range loads {
			runOne := func(name string) (*eventsim.Result, error) {
				var om *online.Metrics
				mk := func(instrument bool) (sched.Scheduler, online.IntervalObserver, error) {
					est, err := online.New(name, m.t, e.Cfg.Seed+uint64(idx)*0x9e3779b97f4a7c15+uint64(li))
					if err != nil {
						return nil, nil, err
					}
					if instrument {
						om = online.NewMetrics(metrics.New())
						online.AttachMetrics(est, om)
					}
					s, err := sched.New(onlineSched, est, w)
					return s, est, err
				}
				res, err := p.latency(m.t, w, mk, eventsim.LatencyConfig{
					Lambda:    load * base,
					Jobs:      e.Cfg.SimJobs,
					SizeShape: 4,
					Seed:      e.Cfg.Seed + uint64(idx)*31 + uint64(li),
				})
				if om != nil {
					p.stats.mu.Lock()
					p.stats.solves += float64(om.Solves.Value())
					p.stats.mu.Unlock()
				}
				return res, err
			}
			oracle, err := runOne("oracle")
			if err != nil {
				return nil, err
			}
			for ei, name := range ests {
				res := oracle
				if name != "oracle" {
					if res, err = runOne(name); err != nil {
						return nil, err
					}
				}
				a := acc{turn: res.MeanTurnaround, tp: res.Throughput, turnRel: 1, tpRel: 1}
				if oracle.MeanTurnaround > 0 {
					a.turnRel = res.MeanTurnaround / oracle.MeanTurnaround
				}
				if oracle.Throughput > 0 {
					a.tpRel = res.Throughput / oracle.Throughput
				}
				local[ei][li] = a
			}
		}
		return local, nil
	})
	if err != nil {
		return fmt.Errorf("online replay: %w", err)
	}
	got, ok := p.pass.values["online"].(*exp.OnlineResult)
	if !ok {
		return fmt.Errorf("traced pass has no online result")
	}
	n := float64(len(ws))
	for mi, m := range machines {
		for ei, name := range ests {
			for li, load := range loads {
				var a acc
				for wi := range ws {
					l := locals[mi*len(ws)+wi][ei][li]
					a.turn += l.turn
					a.tp += l.tp
					a.turnRel += l.turnRel
					a.tpRel += l.tpRel
				}
				c, ok := got.Cell(m.name, name, load)
				p.checks.expect(ok && c.Turnaround == a.turn/n && c.Throughput == a.tp/n &&
					c.TurnaroundVsOracle == a.turnRel/n && c.ThroughputVsOracle == a.tpRel/n,
					"online replay %s %s load %v differs from the scenario", m.name, name, load)
			}
		}
	}
	return nil
}

// farmWorkload is the farm scenarios' workload: the first four suite
// benchmarks.
func farmWorkload(suite int) workload.Workload {
	w := make(workload.Workload, min(4, suite))
	for i := range w {
		w[i] = i
	}
	return w
}

// fcfsCapacity is the farm scenarios' load calibration for n FCFS servers
// on one table: the per-server FCFS throughput summed server by server.
func fcfsCapacity(cfg exp.Config, t *perfdb.Table, w workload.Workload, n int) float64 {
	tp := core.FCFS(t, w, core.FCFSConfig{Jobs: cfg.FCFSJobs, Seed: cfg.Seed}).Throughput
	c := 0.0
	for range n {
		c += tp
	}
	return c
}

// fcfsSpecs builds n FCFS servers on t whose Select calls are charged to
// sel, or plain ones when sel is nil.
func fcfsSpecs(t *perfdb.Table, w workload.Workload, n int, sel *clock) []farm.ServerSpec {
	mk := func(rs online.RateSource) (sched.Scheduler, error) {
		s, err := sched.New("FCFS", rs, w)
		if err != nil || sel == nil {
			return s, err
		}
		return timeScheduler(s, sel), nil
	}
	specs := make([]farm.ServerSpec, n)
	for i := range specs {
		specs[i] = farm.ServerSpec{Table: t, Sched: mk}
	}
	return specs
}

// farmRun replays one farm simulation on the serial engine (sc == nil)
// or the sharded one, three times: spanned, with the dispatcher and
// schedulers timed and instruments off; plain, for trace.overhead; and
// untimed with Config.Metrics on for the program counters, whose
// snapshots would otherwise dominate the spanned time of a 100k-server
// farm. Every result must equal want.
//
// The sharded engine calls Select on its shard workers, concurrently with
// one another and with the coordinator's Pick, so only Pick time is
// charged to its span: farm.sharded_self_s is the span minus Pick.
func (p *prober) farmRun(specs func(sel *clock) []farm.ServerSpec, disp string, w workload.Workload, cfg farm.Config, sc *farm.ShardConfig, want *farm.Result, what string) error {
	simulate := func(sp []farm.ServerSpec, d farm.Dispatcher, cfg farm.Config) (*farm.Result, error) {
		if sc == nil {
			return farm.Simulate(sp, d, w, cfg)
		}
		return farm.SimulateSharded(sp, d, w, cfg, *sc)
	}
	name := "farm.Simulate"
	if sc != nil {
		name = "farm.SimulateSharded"
	}
	d, err := farm.NewDispatcher(disp)
	if err != nil {
		return err
	}
	var sel, pick clock
	sp := specs(&sel)
	id := p.tr.begin(name, disp, p.root)
	t0 := time.Now()
	timed, err := simulate(sp, &timedDispatcher{d: d, clk: &pick}, cfg)
	instr := time.Since(t0)
	if sc == nil {
		p.tr.end(id, &sel, &pick)
	} else {
		p.tr.end(id, &pick)
	}
	if err != nil {
		return err
	}
	p.stats.addLeaves(&sel, &pick, nil)

	if d, err = farm.NewDispatcher(disp); err != nil {
		return err
	}
	t0 = time.Now()
	plain, err := simulate(specs(nil), d, cfg)
	p.stats.addReplay(instr, time.Since(t0))
	if err != nil {
		return err
	}

	if d, err = farm.NewDispatcher(disp); err != nil {
		return err
	}
	cfg.Metrics = true
	counted, err := simulate(specs(nil), d, cfg)
	if err != nil {
		return err
	}
	p.stats.addFarm(counted, sc != nil)
	p.checks.expect(sameFarm(timed, want), "%s: timed replay differs from the scenario", what)
	p.checks.expect(sameFarm(plain, want), "%s: plain replay differs from the scenario", what)
	p.checks.expect(sameFarm(counted, want), "%s: instrumented replay differs from the scenario", what)
	return nil
}

// sameFarm reports whether two farm results agree on every field but
// the instrument snapshots, which only instrumented runs carry.
func sameFarm(a, b *farm.Result) bool {
	if a == nil || b == nil {
		return false
	}
	x, y := *a, *b
	x.Metrics, x.EngineStats, y.Metrics, y.EngineStats = nil, nil, nil, nil
	return reflect.DeepEqual(x, y)
}

// replicationResult unwraps a captured farm-grid cell.
func replicationResult(cell any) *farm.Result {
	if r, ok := cell.(farm.Replication); ok {
		return r.Result
	}
	return nil
}

// replayFarm replays the farm scenario's dispatcher x load x replication
// grid on the serial engine and checks every cell.
func (p *prober) replayFarm() error {
	e := p.env
	t := e.SMTTable()
	w := farmWorkload(len(e.Cfg.Suite))
	const servers, reps = 4, 3
	capacity := fcfsCapacity(e.Cfg, t, w, servers)
	type item struct {
		disp string
		load float64
		rep  int
	}
	var items []item
	for _, d := range farm.DispatcherNames {
		for _, l := range exp.FarmLoads {
			for r := range reps {
				items = append(items, item{d, l, r})
			}
		}
	}
	cells := p.pass.cells["farm"]
	if len(cells) != len(items) {
		return fmt.Errorf("farm replay: scenario has %d cells, replay %d", len(cells), len(items))
	}
	specs := func(sel *clock) []farm.ServerSpec { return fcfsSpecs(t, w, servers, sel) }
	err := runner.ForEach(p.ctx, runner.Config{Parallelism: p.workers}, len(items), func(_ context.Context, i int) error {
		it := items[i]
		return p.farmRun(specs, it.disp, w, farm.Config{
			Lambda:    it.load * capacity,
			Jobs:      e.Cfg.SimJobs,
			SizeShape: 4,
			Seed:      farm.ReplicationSeed(e.Cfg.Seed, it.rep),
		}, nil, replicationResult(cells[i]), fmt.Sprintf("farm %s load %v rep %d", it.disp, it.load, it.rep))
	})
	if err != nil {
		return fmt.Errorf("farm replay: %w", err)
	}
	return nil
}

// replayResilience replays the resilience grid (sharded engine, faults
// on) over the scenario's own axes, so each cell draws its seed from the
// same grid point, and checks every cell.
func (p *prober) replayResilience() error {
	s, ok := scenario.Lookup("resilience")
	if !ok {
		return fmt.Errorf("resilience is not registered")
	}
	e := p.env
	plan, err := s.Plan(p.ctx, freshEnv(e, p.workers))
	if err != nil {
		return err
	}
	t := e.SMTTable()
	w := farmWorkload(len(e.Cfg.Suite))
	const servers, load = 8, 0.8
	capacity := fcfsCapacity(e.Cfg, t, w, servers)
	specs := func(sel *clock) []farm.ServerSpec { return fcfsSpecs(t, w, servers, sel) }
	want := p.pass.cells["resilience"]
	if len(want) != gridSize(plan.Axes) {
		return fmt.Errorf("resilience replay: scenario has %d cells, grid %d", len(want), gridSize(plan.Axes))
	}
	i := 0
	replay := &scenario.Plan{
		Axes: plan.Axes,
		// Cells run one at a time (each simulation already uses the
		// worker pool), so the i-th call is the i-th grid point.
		Cell: func(_ context.Context, pt scenario.Point) (any, error) {
			cell := want[i]
			i++
			mtbf, err := strconv.ParseFloat(pt.Value("mtbf"), 64)
			if err != nil {
				return nil, err
			}
			r, _ := cell.(*farm.Result)
			return nil, p.farmRun(specs, pt.Value("dispatcher"), w, farm.Config{
				Lambda:    load * capacity,
				Jobs:      e.Cfg.SimJobs,
				SizeShape: 4,
				Seed:      pt.Seed(e.Cfg.Seed, "mtbf"),
				Faults: fault.Config{
					MTBF:       mtbf,
					MTTR:       2.5,
					MaxRetries: 5,
					RetryDelay: 0.5,
					Checkpoint: fault.Policy(pt.Value("checkpoint")),
				},
			}, &farm.ShardConfig{Shards: 8, Workers: p.workers, Slab: e.Cfg.Slab}, r,
				fmt.Sprintf("resilience mtbf=%s %s/%s", pt.Value("mtbf"), pt.Value("dispatcher"), pt.Value("checkpoint")))
		},
		Reduce: func([]any) (*scenario.Result, error) { return &scenario.Result{}, nil },
	}
	if _, err := replay.Execute(p.ctx, runner.Config{Parallelism: 1}); err != nil {
		return fmt.Errorf("resilience replay: %w", err)
	}
	return nil
}

// gridSize is the number of points of a grid.
func gridSize(axes []scenario.Axis) int {
	n := 1
	for _, a := range axes {
		n *= len(a.Values)
	}
	return n
}

// replayMegafarm replays the megafarm run (one sharded simulation) and
// checks it against the scenario's cell.
func (p *prober) replayMegafarm() error {
	e := p.env
	t := e.SMTTable()
	w := farmWorkload(len(e.Cfg.Suite))
	opt := megafarmOptions
	capacity := fcfsCapacity(e.Cfg, t, w, opt.Servers)
	cells := p.pass.cells["farm"]
	if len(cells) != 1 {
		return fmt.Errorf("megafarm replay: scenario has %d cells, want 1", len(cells))
	}
	err := p.farmRun(func(sel *clock) []farm.ServerSpec { return fcfsSpecs(t, w, opt.Servers, sel) },
		opt.Dispatchers[0], w, farm.Config{
			Lambda:    opt.Loads[0] * capacity,
			Jobs:      e.Cfg.SimJobs,
			SizeShape: 4,
			Seed:      farm.ReplicationSeed(e.Cfg.Seed, 0),
		}, &farm.ShardConfig{Shards: opt.Shards, Workers: p.workers, Slab: opt.Slab},
		replicationResult(cells[0]), "megafarm")
	if err != nil {
		return fmt.Errorf("megafarm replay: %w", err)
	}
	return nil
}
