// Package fault provides a deterministic, seedable fault injector for the
// simulated storage layer. Disk wraps any store.PageSource and injects
// read errors and simulated latency according to a Config, which makes it
// possible to chaos-test every engine (scan, X-tree, VA-file), the parallel
// query processor, and the wire server on unreliable storage without
// touching their code.
//
// Determinism is a design requirement: given the same Config (including
// Seed) and the same sequence of reads, the injector makes exactly the same
// decisions, so failing runs can be replayed. With a zero Config the
// wrapper is a pure pass-through — same pages, same statistics — which is
// asserted by the tests.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"metricdb/internal/store"
)

// ErrInjected is the sentinel wrapped by every injected read error; callers
// distinguish injected faults from genuine bugs with errors.Is.
var ErrInjected = errors.New("fault: injected disk error")

// Config parameterizes an injector. The zero value injects nothing.
type Config struct {
	// Seed makes probabilistic injection reproducible.
	Seed int64
	// ErrProb is the probability in [0,1] that any single read fails.
	ErrProb float64
	// LatencyTicks is added to the injector's simulated-latency counter on
	// every read; like the page-read counters elsewhere it is a cost-model
	// unit, not wall-clock sleeping.
	LatencyTicks int
	// FailAfter, when positive, makes every read after the first FailAfter
	// successful operations fail (a disk that dies mid-run).
	FailAfter int
	// FailPages lists specific fault sites: every read of one of these
	// pages fails.
	FailPages []store.PageID
	// MaxFaults, when positive, bounds the total number of injected
	// failures; after the budget is exhausted the disk behaves perfectly
	// (a transient fault that clears, so a later read succeeds).
	MaxFaults int
}

// Stats counts injector activity (distinct from the underlying disk's
// IOStats, which only sees reads that were allowed through).
type Stats struct {
	// Reads is the number of read attempts seen by the injector.
	Reads int64
	// Injected is the number of reads that were failed.
	Injected int64
	// Ticks is the accumulated simulated latency.
	Ticks int64
}

// Disk wraps a store.PageSource with fault injection. It implements
// store.PageSource itself, so it can be handed to store.NewPager or to any
// engine's WrapDisk hook. It is safe for concurrent use.
type Disk struct {
	inner store.PageSource
	cfg   Config

	mu        sync.Mutex
	rng       *rand.Rand
	stats     Stats
	enabled   bool
	failPages map[store.PageID]bool
}

var _ store.PageSource = (*Disk)(nil)

// Wrap places an injector in front of inner. The injector starts enabled;
// use SetEnabled(false) around construction phases that must not fault.
func Wrap(inner store.PageSource, cfg Config) (*Disk, error) {
	if inner == nil {
		return nil, fmt.Errorf("fault: nil page source")
	}
	if cfg.ErrProb < 0 || cfg.ErrProb > 1 {
		return nil, fmt.Errorf("fault: error probability %g outside [0,1]", cfg.ErrProb)
	}
	if cfg.LatencyTicks < 0 {
		return nil, fmt.Errorf("fault: negative latency ticks %d", cfg.LatencyTicks)
	}
	d := &Disk{
		inner:   inner,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		enabled: true,
	}
	if len(cfg.FailPages) > 0 {
		d.failPages = make(map[store.PageID]bool, len(cfg.FailPages))
		for _, pid := range cfg.FailPages {
			d.failPages[pid] = true
		}
	}
	return d, nil
}

// SetEnabled arms or disarms injection. While disarmed the wrapper is a
// pass-through and reads are not counted against FailAfter or the rng
// stream, so a build phase does not perturb the injected workload.
func (d *Disk) SetEnabled(on bool) {
	d.mu.Lock()
	d.enabled = on
	d.mu.Unlock()
}

// Read consults the fault model and either fails or delegates to the
// wrapped source.
func (d *Disk) Read(pid store.PageID) (*store.Page, error) {
	d.mu.Lock()
	if !d.enabled {
		d.mu.Unlock()
		return d.inner.Read(pid)
	}
	d.stats.Reads++
	d.stats.Ticks += int64(d.cfg.LatencyTicks)
	inject := d.failPages[pid] ||
		(d.cfg.FailAfter > 0 && d.stats.Reads > int64(d.cfg.FailAfter)) ||
		(d.cfg.ErrProb > 0 && d.rng.Float64() < d.cfg.ErrProb)
	if inject && d.cfg.MaxFaults > 0 && d.stats.Injected >= int64(d.cfg.MaxFaults) {
		inject = false // budget exhausted: the fault has cleared
	}
	if inject {
		d.stats.Injected++
		d.mu.Unlock()
		return nil, fmt.Errorf("fault: reading page %d: %w", pid, ErrInjected)
	}
	d.mu.Unlock()
	return d.inner.Read(pid)
}

// NumPages returns the wrapped source's page count.
func (d *Disk) NumPages() int { return d.inner.NumPages() }

// Stats returns the wrapped source's I/O statistics: only reads that were
// allowed through are charged, so a fault-free injector is stat-identical
// to the bare disk.
func (d *Disk) Stats() store.IOStats { return d.inner.Stats() }

// ResetStats resets the wrapped source's I/O statistics. Injector counters
// are left alone; use ResetFaultStats for those.
func (d *Disk) ResetStats() store.IOStats { return d.inner.ResetStats() }

// FaultStats returns a snapshot of the injector's own counters.
func (d *Disk) FaultStats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetFaultStats zeroes the injector counters (and with them the FailAfter
// and MaxFaults progress) and reseeds the rng, returning the previous
// snapshot. The next read sequence replays the same decisions as a fresh
// injector.
func (d *Disk) ResetFaultStats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	d.stats = Stats{}
	d.rng = rand.New(rand.NewSource(d.cfg.Seed))
	return s
}

// Exhausted reports whether a positive MaxFaults budget has been fully
// spent — from that point on the disk behaves perfectly.
func (d *Disk) Exhausted() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg.MaxFaults > 0 && d.stats.Injected >= int64(d.cfg.MaxFaults)
}
