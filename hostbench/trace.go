package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"symbiosched/internal/eventsim"
	"symbiosched/internal/farm"
	"symbiosched/internal/online"
	"symbiosched/internal/sched"
	"symbiosched/internal/stats"
	"symbiosched/internal/workload"
)

// span is one traced call: a named interval with the span that caused
// it. Hot leaf calls (Select, Pick, ObserveInterval) are too many and too
// short for a span each; their summed time is charged to the enclosing
// span as Leaf.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Leaf is the time of aggregated leaf calls inside the span, and
	// LeafCalls their count.
	Leaf      int64 `json:"leaf_ns,omitempty"`
	LeafCalls int64 `json:"leaf_calls,omitempty"`
	// Self is End-Start minus the time its children cover: the union of
	// the child spans' intervals plus Leaf. Filled in by finish.
	Self int64 `json:"self_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; finish computes self times and writes
// them out. A nil *tracer records nothing, so untraced code paths share
// the calls.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   string
	spans []span // spans[id-1]; id 0 is "no parent"
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRun labels the spans begun from now on.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, label string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Label: label, Start: now})
	return len(t.spans)
}

// end closes span id, charging the given leaf clocks to it.
func (t *tracer) end(id int, leaves ...*clock) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	for _, c := range leaves {
		s.Leaf += c.ns.Load()
		s.LeafCalls += c.calls.Load()
	}
}

// do runs f under a span (or just runs it on a nil tracer).
func (t *tracer) do(name, label string, parent int, f func()) {
	id := t.begin(name, label, parent)
	f()
	t.end(id)
}

// finish computes every span's self time and writes the spans as JSON
// lines to path. It returns the spans for the metric fold.
func (t *tracer) finish(path string) ([]span, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = max(0, s.dur()-covered(s, children[s.ID])-s.Leaf)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	return spans, nil
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// clock sums the calls and time of one leaf call site. Shard workers of
// the sharded farm engine call into it concurrently, hence the atomics.
type clock struct{ calls, ns atomic.Int64 }

func (c *clock) since(t0 time.Time) {
	c.calls.Add(1)
	c.ns.Add(int64(time.Since(t0)))
}

// timedScheduler times Select and forwards everything else. It is only
// used for schedulers that do not observe time; observingScheduler adds
// Observe, so a wrapped scheduler implements sched.Observer exactly when
// the scheduler it wraps does and the event loops take the same path.
type timedScheduler struct {
	s   sched.Scheduler
	clk *clock
}

func (t *timedScheduler) Name() string { return t.s.Name() }

func (t *timedScheduler) Select(jobs []*sched.Job, k int) []int {
	t0 := time.Now()
	out := t.s.Select(jobs, k)
	t.clk.since(t0)
	return out
}

type observingScheduler struct {
	timedScheduler
	obs sched.Observer
}

func (o *observingScheduler) Observe(cos workload.Coschedule, dt float64) { o.obs.Observe(cos, dt) }

// timeScheduler wraps s so its Select calls are charged to clk.
func timeScheduler(s sched.Scheduler, clk *clock) sched.Scheduler {
	ts := timedScheduler{s: s, clk: clk}
	if o, ok := s.(sched.Observer); ok {
		return &observingScheduler{timedScheduler: ts, obs: o}
	}
	return &ts
}

// timedDispatcher times Pick and forwards Name.
type timedDispatcher struct {
	d   farm.Dispatcher
	clk *clock
}

func (t *timedDispatcher) Name() string { return t.d.Name() }

func (t *timedDispatcher) Pick(j *sched.Job, servers []*eventsim.Server, up int, rng *stats.RNG) int {
	t0 := time.Now()
	i := t.d.Pick(j, servers, up, rng)
	t.clk.since(t0)
	return i
}

// timedObserver times ObserveInterval. The rate source a scheduler reads
// is never wrapped: sched's keyed and dense fast paths assert on its
// concrete type, and a wrapper would measure a different program.
type timedObserver struct {
	o   online.IntervalObserver
	clk *clock
}

func (t *timedObserver) ObserveInterval(cos workload.Coschedule, dt float64, progress []float64) {
	t0 := time.Now()
	t.o.ObserveInterval(cos, dt, progress)
	t.clk.since(t0)
}
