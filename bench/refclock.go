package main

import (
	"math"
	"sort"
	"time"
)

// The reference runner is a shared virtual machine whose speed changes by
// tens of percent for tens of seconds at a time (the same binary and seed
// measured 570 to 960 queries/s in consecutive runs). No statistic of
// wall-clock time taken inside one run survives that, so the end-to-end
// durations are read from a reference-kernel clock instead: while a phase
// runs, a sampler times a fixed floating-point kernel of the benchmark's
// own every few milliseconds, and a duration is reported as the time the
// same work would have taken had the kernel always run in refNominal. A
// change to the repository's code moves the measured time and not the
// kernel's, so it shows in full; a slow spell of the machine moves both and
// largely cancels.

// refNominal is the kernel's duration on the reference runner when nothing
// disturbs it.
const refNominal = 30 * time.Microsecond

// refShare is how much of the kernel's slowdown, in logarithms, the clock
// takes out of a measured duration. The kernel is all arithmetic on cached
// data and feels a busy neighbour in full; the measured code also waits for
// memory and slows less. Least squares over 360 calibration runs (nine sets
// of ten seeds × four workloads, kernel speed from 0.55 to 1.15 of nominal)
// put the raw throughput of the three single-caller workloads at the
// kernel's speed to the power 0.51, 0.58 and 0.55 (README.md has the
// table); 0 would be the raw wall clock.
const refShare = 0.55

// refEvery is the pause between two samples. A sample takes three kernel
// runs, so the sampler uses about 1 % of one processor.
const refEvery = 8 * time.Millisecond

var (
	refData = func() []float64 {
		xs := make([]float64, 4096)
		for i := range xs {
			xs[i] = float64(i%97) / 97
		}
		return xs
	}()
	refSink float64
)

// refKernel is the fixed work: sums of squared differences — the shape of a
// distance loop — over 32 KB, which stay in the first-level cache whatever
// the workload does to the larger caches, so that the kernel's duration
// follows the processor's speed and nothing the measured code controls.
func refKernel() {
	var s float64
	for pass := 0; pass < 24; pass++ {
		bias := float64(pass)
		for i := 0; i+1 < len(refData); i += 2 {
			d := refData[i] - refData[i+1] + bias
			s += d * d
		}
	}
	refSink += s
}

// refSample is the fastest of three kernel runs, so that a preemption
// inside one run does not read as a slow machine.
func refSample() time.Duration {
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		refKernel()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// refClock converts wall-clock intervals of one phase into reference time.
type refClock struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	at    []time.Duration // sample times since start, ascending
	cost  []time.Duration // kernel duration at each sample
	tau   []float64       // reference nanoseconds elapsed at each sample
}

// startRefClock takes a first sample and starts the sampler.
func startRefClock() *refClock {
	c := &refClock{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *refClock) sample() {
	c.at = append(c.at, time.Since(c.start))
	c.cost = append(c.cost, refSample())
}

// finish stops the sampler, waits for it, and integrates the speed: between
// two samples the machine is taken to run at the median speed of the five
// samples around the earlier one.
func (c *refClock) finish() {
	close(c.stop)
	<-c.done
	c.sample()
	c.tau = make([]float64, len(c.at))
	window := make([]time.Duration, 0, 5)
	for k := 0; k+1 < len(c.at); k++ {
		lo, hi := max(k-2, 0), min(k+3, len(c.cost))
		window = append(window[:0], c.cost[lo:hi]...)
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		speed := math.Pow(float64(refNominal)/float64(window[len(window)/2]), refShare)
		c.tau[k+1] = c.tau[k] + speed*float64(c.at[k+1]-c.at[k])
	}
}

// ref returns the reference time elapsed at wall-clock instant t.
func (c *refClock) ref(t time.Time) float64 {
	d := t.Sub(c.start)
	k := sort.Search(len(c.at), func(i int) bool { return c.at[i] > d }) - 1
	k = max(min(k, len(c.at)-2), 0)
	span := float64(c.at[k+1] - c.at[k])
	if span == 0 {
		return c.tau[k]
	}
	return c.tau[k] + (c.tau[k+1]-c.tau[k])*float64(d-c.at[k])/span
}

// between is the reference duration of the wall-clock interval [from, to],
// of which the process spent the share busy computing: that share passes at
// the kernel's rate, the rest — waiting for a timer, the disk or the peer,
// which a slow processor does not lengthen — at the wall clock's.
func (c *refClock) between(from, to time.Time, busy float64) time.Duration {
	return time.Duration((1-busy)*float64(to.Sub(from)) + busy*(c.ref(to)-c.ref(from)))
}
