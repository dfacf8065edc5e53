package main

import (
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// The measurement VM's speed drifts by a third or more over minutes, with
// every workload, every set-up and any fixed loop moving together (README,
// "Run-to-run spread"). Raw host seconds therefore spread across runs more
// than any bound worth setting. The end-to-end times are instead scaled to
// a reference host speed: a fixed calibration loop runs between the timed
// items, and each item's host time is multiplied by refCalibSeconds over
// the mean of the two calibrations around it.
//
// The loop is the benchmark's own code and runs with the garbage collector
// off, so no change to the simulator or to its heap can move it; a change
// to the simulator moves the scaled times exactly as it moves the raw
// ones.

// refCalibSeconds is a calibration time of the measurement VM (Intel(R)
// Xeon(R) Processor, 2 vCPUs, Go 1.24.0), whose run medians ranged from
// 0.020 to 0.036 s as its speed drifted. On a host where calibrate takes
// this long, scaled and raw times agree.
const refCalibSeconds = 0.032

const (
	// calibNodes is the size of the linked ring each worker builds per
	// round: about 3 MiB of small heap objects, beyond L2 and within a
	// shared L3, as the simulator's tables and event heaps are.
	calibNodes = 1 << 16
	// calibRounds is how many rounds one calibration times; it reports
	// the median round, so a short stall does not move it.
	calibRounds = 5
)

// calibNode is one heap object of the ring.
type calibNode struct {
	next *calibNode
	v    float64
	pad  [3]uint64
}

// calibKernel is one worker's round, modelled on what the simulator does
// per event: it allocates small objects, links them in a pseudo-random
// order, chases the links (dependent loads the prefetcher cannot
// predict), fills a map and sorts floats. The result depends only on the
// seed.
func calibKernel(seed uint64) float64 {
	nodes := make([]*calibNode, calibNodes)
	for i := range nodes {
		nodes[i] = &calibNode{v: float64(i % 1024)}
	}
	perm := make([]int, calibNodes)
	for i := range perm {
		perm[i] = i
	}
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := calibNodes - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		nodes[p].next = nodes[perm[(i+1)%calibNodes]]
	}
	m := make(map[uint64]float64)
	s := 0.0
	n := nodes[0]
	for r := 0; r < 6*calibNodes; r++ {
		s = s*0.999 + n.v
		if r%8 == 0 {
			m[uint64(r)^x] = s
		}
		n = n.next
	}
	fs := make([]float64, 0, len(m))
	for _, v := range m {
		fs = append(fs, v)
	}
	sort.Float64s(fs)
	return s + fs[len(fs)/2]
}

// calibSink keeps the kernels' results live.
var calibSink float64

// calibrate runs calibRounds rounds of the kernel, each on the given
// number of workers at once, and returns the median round's host
// seconds. The garbage collector is off while it runs, so the size of
// the simulator's live heap cannot change how often the kernel collects.
// The heap is collected and returned to the system before the rounds, so
// that every calibration starts from the same state whatever the item
// before it left, and again after them, so that the kernel's garbage adds
// nothing to the next item's resident set.
func calibrate(workers int) float64 {
	debug.FreeOSMemory()
	gcPercent := debug.SetGCPercent(-1)
	defer debug.FreeOSMemory()
	defer debug.SetGCPercent(gcPercent)
	rounds := make([]float64, calibRounds)
	results := make([]float64, workers)
	for r := range rounds {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[w] = calibKernel(uint64(r*workers + w + 1))
			}()
		}
		wg.Wait()
		rounds[r] = time.Since(t0).Seconds()
		for _, v := range results {
			calibSink += v
		}
	}
	return median(rounds)
}

// hostClock times items and scales them to the reference host speed. It
// calibrates on every CPU whatever the worker count, so that runs at
// different --workers are scaled alike.
type hostClock struct {
	cpus   int
	last   float64   // the latest calibration
	calibs []float64 // every calibration, for the report
}

func newHostClock(cpus int) *hostClock {
	h := &hostClock{cpus: cpus}
	calibrate(cpus) // warm-up
	h.last = h.calibrate()
	return h
}

func (h *hostClock) calibrate() float64 {
	c := calibrate(h.cpus)
	h.calibs = append(h.calibs, c)
	return c
}

// rebase calibrates afresh after untimed work, so that the next item is
// bracketed by calibrations taken next to it.
func (h *hostClock) rebase() {
	h.last = h.calibrate()
}

// scale turns the raw host seconds of an item that has just ended into
// reference seconds, calibrating once more to bracket the item.
func (h *hostClock) scale(raw float64) float64 {
	next := h.calibrate()
	scaled := raw * refCalibSeconds / ((h.last + next) / 2)
	h.last = next
	return scaled
}
