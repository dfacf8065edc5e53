package main

import (
	"reflect"
	"sync"
	"testing"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/exp"
	"symbiosched/internal/farm"
	"symbiosched/internal/online"
	"symbiosched/internal/perfdb"
	"symbiosched/internal/sched"
	"symbiosched/internal/workload"
)

var (
	tableOnce sync.Once
	smtTable  *perfdb.Table
)

func testTable(t *testing.T) *perfdb.Table {
	t.Helper()
	tableOnce.Do(func() { smtTable = exp.NewEnv(exp.DefaultConfig()).SMTTable() })
	return smtTable
}

// TestWrappedSchedulersKeepResults runs every scheduler through
// eventsim.Latency with and without the timing wrapper, and every online
// estimator through LatencyObserved with and without the timed observer:
// the Results must be identical and the clocks must have counted.
func TestWrappedSchedulersKeepResults(t *testing.T) {
	tbl := testTable(t)
	w := workload.Workload{0, 3, 5, 9}
	cfg := eventsim.LatencyConfig{Lambda: 1.2, Jobs: 1500, SizeShape: 4, Seed: 7}
	for _, name := range sched.Names {
		plain, err := sched.New(name, tbl, w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eventsim.Latency(tbl, w, plain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.New(name, tbl, w)
		if err != nil {
			t.Fatal(err)
		}
		_, observes := s.(sched.Observer)
		var sel clock
		wrapped := timeScheduler(s, &sel)
		if _, ok := wrapped.(sched.Observer); ok != observes {
			t.Errorf("%s: wrapper implements sched.Observer = %v, scheduler = %v", name, ok, observes)
		}
		got, err := eventsim.Latency(tbl, w, wrapped, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapped result %+v, want %+v", name, got, want)
		}
		if sel.calls.Load() == 0 {
			t.Errorf("%s: no Select call was timed", name)
		}
	}
	for _, est := range online.Names {
		run := func(wrap bool) *eventsim.Result {
			e, err := online.New(est, tbl, 11)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.New("MAXIT", e, w)
			if err != nil {
				t.Fatal(err)
			}
			var obs online.IntervalObserver = e
			var sel, ob clock
			if wrap {
				s = timeScheduler(s, &sel)
				obs = &timedObserver{o: e, clk: &ob}
			}
			r, err := eventsim.LatencyObserved(tbl, w, s, obs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if wrap && ob.calls.Load() == 0 {
				t.Errorf("%s: no ObserveInterval call was timed", est)
			}
			return r
		}
		if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapped result %+v, want %+v", est, got, want)
		}
	}
}

// TestWrappedDispatchersKeepResults runs every dispatcher on both farm
// engines with and without the timing wrappers (dispatcher and server
// schedulers): the Results must be identical.
func TestWrappedDispatchersKeepResults(t *testing.T) {
	tbl := testTable(t)
	w := workload.Workload{0, 1, 2, 3}
	cfg := farm.Config{Lambda: 4 * 0.8 * 1.5, Jobs: 3000, SizeShape: 4, Seed: 5}
	specs := func(name string, sel *clock) []farm.ServerSpec {
		sp := make([]farm.ServerSpec, 6)
		for i := range sp {
			sp[i] = farm.ServerSpec{Table: tbl, Sched: func(rs online.RateSource) (sched.Scheduler, error) {
				s, err := sched.New(name, rs, w)
				if err != nil || sel == nil {
					return s, err
				}
				return timeScheduler(s, sel), nil
			}}
		}
		return sp
	}
	engines := map[string]func([]farm.ServerSpec, farm.Dispatcher) (*farm.Result, error){
		"serial": func(sp []farm.ServerSpec, d farm.Dispatcher) (*farm.Result, error) {
			return farm.Simulate(sp, d, w, cfg)
		},
		"sharded": func(sp []farm.ServerSpec, d farm.Dispatcher) (*farm.Result, error) {
			return farm.SimulateSharded(sp, d, w, cfg, farm.ShardConfig{Shards: 3, Workers: 2})
		},
	}
	for _, disp := range append(append([]string(nil), farm.DispatcherNames...), "pd2") {
		for _, schedName := range []string{"FCFS", "MAXIT"} {
			for engine, run := range engines {
				d, err := farm.NewDispatcher(disp)
				if err != nil {
					t.Fatal(err)
				}
				want, err := run(specs(schedName, nil), d)
				if err != nil {
					t.Fatal(err)
				}
				if d, err = farm.NewDispatcher(disp); err != nil {
					t.Fatal(err)
				}
				var sel, pick clock
				got, err := run(specs(schedName, &sel), &timedDispatcher{d: d, clk: &pick})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%s: wrapped result differs:\n got %+v\nwant %+v", disp, schedName, engine, got, want)
				}
				if pick.calls.Load() != int64(cfg.Jobs) || sel.calls.Load() == 0 {
					t.Errorf("%s/%s/%s: timed %d picks and %d selects, want %d picks", disp, schedName, engine,
						pick.calls.Load(), sel.calls.Load(), cfg.Jobs)
				}
			}
		}
	}
}

// TestCovered checks that the time children cover is the union of their
// intervals, clipped to the parent.
func TestCovered(t *testing.T) {
	parent := &span{ID: 1, Start: 0, End: 100}
	kids := []*span{
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
	}
	if got := covered(parent, kids); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
}
