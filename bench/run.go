package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"metricdb/internal/msq"
	"metricdb/internal/store"
)

// workload is one named load shape: its inputs, its serving stack and the
// fixed, repeating sequence of operations its callers issue. All loops are
// closed — each caller sends its next operation only after the previous one
// returned — because the paper's callers are mining loops and exploring
// users that block on answers.
type workload interface {
	// generate makes the inputs from the seed alone and returns their
	// fingerprint. quick selects the small sizes the test uses.
	generate(seed int64, quick bool) uint64
	// setup builds the serving stack (store write, index build or open)
	// and runs the warm-up operations. A nil tracer installs no wrappers.
	setup(tr *tracer) (served, error)
	// cycle is the number of distinct operations before the sequence
	// repeats; slice the length of the fixed prefix the traced run repeats.
	cycle() int
	slice() int
	// callers is the number of goroutines issuing operations.
	callers() int
	// verify checks the retained sample (every 10th operation of the
	// cycle) against the oracle and returns how many sampled operations
	// were wrong.
	verify() int
	// layers adds the workload's own per-layer metrics from the fastest
	// untraced and traced passes over the slice, and runs the workload's
	// in-run ratios; passShare is the share of the traced run's time the
	// passes get, the rest being what those ratios need.
	layers(r *traceResult, m metrics) error
	passShare() float64
}

// served is a built stack; open starts one pass over it.
type served interface {
	open() (session, error)
	stacks() []*stack
	close() error
}

// session executes operations during one pass.
type session interface {
	// do runs operation idx of the cycle for the given caller. parent is
	// the operation's root span (-1 untraced); keep asks the workload to
	// retain the answers for the oracle.
	do(caller, idx int, parent int32, keep bool) (opOut, error)
	close() error
}

// opOut is what one operation reports back.
type opOut struct {
	queries int       // similarity queries the operation completed
	sum     uint64    // fingerprint of its answers
	stats   msq.Stats // processing counters (zero when another operation of the same block reported them)
	tag     int       // sub-series the operation belongs to (the engine, on engines_lowdim)
}

// ioCounts are the store-layer counters taken at the pass boundaries.
type ioCounts struct {
	hits, misses, evictions int64
	bytesRead, checksumErrs int64
}

func readIO(stacks []*stack) ioCounts {
	var c ioCounts
	for _, st := range stacks {
		if buf := st.eng.Pager().Buffer(); buf != nil {
			h, m, _ := buf.HitRate()
			c.hits += h
			c.misses += m
			c.evictions += buf.Evictions()
		}
		if st.disk != nil {
			s := st.disk.Storage()
			c.bytesRead += s.BytesRead
			c.checksumErrs += s.ChecksumFailures
		}
	}
	return c
}

func (c ioCounts) sub(o ioCounts) ioCounts {
	return ioCounts{c.hits - o.hits, c.misses - o.misses, c.evictions - o.evictions,
		c.bytesRead - o.bytesRead, c.checksumErrs - o.checksumErrs}
}

// pass is the record of one run over a sequence of operations.
type pass struct {
	begin     time.Time
	wall      time.Duration
	at        []time.Time     // per operation: when it was issued
	lat       []time.Duration // per operation
	queries   int64
	stats     msq.Stats
	tagWall   map[int]time.Duration
	tagStats  map[int]msq.Stats
	tagQuery  map[int]int64
	attempted int
	failed    int
	io        ioCounts
	sess      session
	spans     []span
	pageBytes int64  // cost-model bytes of the pages read (traced passes)
	marks     []mark // progress after each of the first caller's operations
}

// mark is the run's progress at one instant: process CPU time used and
// queries completed by all callers.
type mark struct {
	at      time.Time
	cpu     time.Duration
	queries int64
}

// checker holds what correctness is judged against across passes: the
// fingerprint each operation of the cycle produced first. A later
// execution of the same operation — on any pass, traced or not — must
// reproduce it.
type checker struct {
	first []uint64
	seen  []bool
}

func newChecker(cycle int) *checker {
	return &checker{first: make([]uint64, cycle), seen: make([]bool, cycle)}
}

// digest fingerprints the answers of the first n operations of the cycle —
// the fixed slice both the untraced and the traced run execute in full. It
// is 0 while one of them has not run.
func (c *checker) digest(n int) uint64 {
	d := newDigest()
	for i := 0; i < n; i++ {
		if !c.seen[i] {
			return 0
		}
		d.word(c.first[i])
	}
	return d.h
}

// runPass drives the workload's callers over operations 0..limit-1 of the
// cycle, repeating them until stop reports true (stop is consulted before
// each operation with the number this caller has completed).
func runPass(w workload, sv served, tr *tracer, ck *checker, limit int, stop func(done int) bool) (*pass, error) {
	if tr != nil {
		tr.reset()
	}
	sess, err := sv.open()
	if err != nil {
		return nil, err
	}
	callers := w.callers()
	limit -= limit % callers // each cycle index belongs to exactly one caller
	type result struct {
		at        []time.Time
		lat       []time.Duration
		out       []opOut
		failed    int
		attempted int
		err       error
	}
	results := make([]result, callers)
	io0 := readIO(sv.stacks())
	var wg sync.WaitGroup
	var completed atomic.Int64
	begin := time.Now()
	marks := []mark{{at: begin, cpu: cpuTime()}}
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for k := 0; !stop(k); k++ {
				idx := (c + k*callers) % limit
				keep := !ck.seen[idx] && idx%10 == 0
				parent := int32(-1)
				if tr != nil {
					if callers == 1 {
						tr.curOp = int32(idx)
						parent = tr.begin("bench.op")
					} else {
						parent = tr.open("bench.op", -1, int32(idx))
					}
				}
				t0 := time.Now()
				out, err := sess.do(c, idx, parent, keep)
				lat := time.Since(t0)
				if tr != nil {
					if callers == 1 {
						tr.end(parent)
					} else {
						tr.close(parent)
					}
				}
				r.attempted++
				switch {
				case err != nil:
					r.failed++
					if r.err == nil {
						r.err = err
					}
				case !ck.seen[idx]:
					ck.seen[idx], ck.first[idx] = true, out.sum
				case ck.first[idx] != out.sum:
					r.failed++
				}
				r.at = append(r.at, t0)
				r.lat = append(r.lat, lat)
				r.out = append(r.out, out)
				done := completed.Add(int64(out.queries))
				if c == 0 {
					marks = append(marks, mark{at: time.Now(), cpu: cpuTime(), queries: done})
				}
			}
		}(c)
	}
	wg.Wait()
	p := &pass{begin: begin, wall: time.Since(begin), sess: sess, marks: marks,
		tagWall: map[int]time.Duration{}, tagStats: map[int]msq.Stats{}, tagQuery: map[int]int64{}}
	p.io = readIO(sv.stacks()).sub(io0)
	if err := sess.close(); err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(logw, "bench: operation failed: %v\n", r.err)
		}
		p.attempted += r.attempted
		p.failed += r.failed
		p.at = append(p.at, r.at...)
		p.lat = append(p.lat, r.lat...)
		for i, o := range r.out {
			p.queries += int64(o.queries)
			p.stats = p.stats.Add(o.stats)
			p.tagWall[o.tag] += r.lat[i]
			p.tagStats[o.tag] = p.tagStats[o.tag].Add(o.stats)
			p.tagQuery[o.tag] += int64(o.queries)
		}
	}
	if tr != nil {
		p.spans = append([]span(nil), tr.spans...)
		p.pageBytes = tr.bytes
	}
	return p, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func latMs(lat []time.Duration) []float64 {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / 1e6
	}
	return ms
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in KB on Linux).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// busyShare is the share of a caller's time the process spent computing —
// process CPU time over the wall time of all callers, 1 at most — as
// opposed to waiting for a timer, the disk or the peer.
func busyShare(cpu, wall time.Duration, callers int) float64 {
	return min(1, float64(cpu)/(float64(wall)*float64(callers)))
}

// setupReps is how often the untraced run sets up: setup_s is the median,
// and the last stack is the one measured.
const setupReps = 5

// result is what one run of one workload reports.
type result struct {
	correct       bool
	attempted     int
	failed        int
	metrics       metrics
	inputsDigest  uint64
	answersDigest uint64
}

// runEndToEnd is the untraced run: set up setupReps times, measure the
// closed loop for the given time, verify. Durations are reported on the
// reference-kernel clock (see refclock.go); the wall-clock readings are kept
// beside them under raw.* names for the printed report.
func runEndToEnd(w workload, seed int64, quick bool, seconds float64) (*result, error) {
	res := &result{metrics: metrics{}}
	res.inputsDigest = w.generate(seed, quick)

	var sv served
	var setupAt [setupReps][2]time.Time
	var setupCPU [setupReps]time.Duration
	clock := startRefClock()
	for r := range setupAt {
		if sv != nil {
			if err := sv.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // each repetition starts from the same heap
		setupAt[r][0], setupCPU[r] = time.Now(), cpuTime()
		var err error
		if sv, err = w.setup(nil); err != nil {
			return nil, err
		}
		setupAt[r][1], setupCPU[r] = time.Now(), cpuTime()-setupCPU[r]
	}
	clock.finish()
	defer sv.close() //nolint:errcheck // read-only stack
	var setups, rawSetups []float64
	for r, at := range setupAt {
		raw := at[1].Sub(at[0])
		setups = append(setups, clock.between(at[0], at[1], busyShare(setupCPU[r], raw, 1)).Seconds())
		rawSetups = append(rawSetups, raw.Seconds())
	}

	ck := newChecker(w.cycle())
	runtime.GC()
	alloc0, cpu0 := totalAlloc(), cpuTime()
	clock = startRefClock()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// However short the run, it covers the slice the answers digest is over.
	atLeast := (w.slice() + w.callers() - 1) / w.callers()
	p, err := runPass(w, sv, nil, ck, w.cycle(), func(done int) bool {
		return done >= atLeast && !time.Now().Before(deadline)
	})
	clock.finish()
	if err != nil {
		return nil, err
	}
	cpu, alloc := cpuTime()-cpu0, totalAlloc()-alloc0
	rss := peakRSSMB()

	res.attempted = p.attempted
	res.failed = p.failed + w.verify()
	res.answersDigest = ck.digest(w.slice())
	res.correct = res.failed == 0

	q := float64(p.queries)
	busy := busyShare(cpu, p.wall, w.callers())
	wall := clock.between(p.begin, p.begin.Add(p.wall), busy)
	ms := make([]float64, len(p.lat))
	for i, at := range p.at {
		ms[i] = float64(clock.between(at, at.Add(p.lat[i]), busy)) / 1e6
	}
	// Throughput and CPU per query are medians over up to ten consecutive
	// stretches of the run, so that a slow spell the reference clock did
	// not fully cancel moves one stretch and not the result. CPU time is
	// all computing, so all of it passes at the kernel's rate.
	var qps, cpuMs []float64
	step := max((len(p.marks)-1)/10, 1)
	for lo := 0; lo+step < len(p.marks); lo += step {
		a, b := p.marks[lo], p.marks[lo+step]
		dq := float64(b.queries - a.queries)
		qps = append(qps, dq/clock.between(a.at, b.at, busy).Seconds())
		rate := float64(clock.between(a.at, b.at, 1)) / float64(b.at.Sub(a.at))
		cpuMs = append(cpuMs, float64(b.cpu-a.cpu)/1e6/dq*rate)
	}
	m := res.metrics
	m.set("setup_s", quantile(setups, 0.5))
	m.set("queries_per_s", quantile(qps, 0.5))
	m.set("op_ms_p50", quantile(ms, 0.5))
	m.set("op_ms_p90", quantile(ms, 0.9))
	m.set("cpu_ms_per_query", quantile(cpuMs, 0.5))
	m.set("alloc_kb_per_query", float64(alloc)/1024/q)
	m.set("peak_rss_mb", rss)

	raw := latMs(p.lat)
	m.set("raw.setup_s", quantile(rawSetups, 0.5))
	m.set("raw.queries_per_s", q/p.wall.Seconds())
	m.set("raw.op_ms_p50", quantile(raw, 0.5))
	m.set("raw.op_ms_p90", quantile(raw, 0.9))
	m.set("raw.cpu_ms_per_query", float64(cpu)/1e6/q)
	m.set("raw.clock_rate", float64(wall)/float64(p.wall))
	return res, nil
}

// traceResult is what the traced run hands to the workload's layers.
type traceResult struct {
	untraced, traced *pass      // fastest pass of each kind over the slice
	tot              spanTotals // of the traced pass
	sv               served     // the traced stack
	svU              served     // the untraced stack
}

// runTraced is the traced run: an untraced and a traced stack are built
// through the same composition function and alternate over the fixed slice;
// after a first pair that settles the buffers, the fastest pass of each kind
// gives the layer numbers and their ratio the tracing overhead.
func runTraced(w workload, name string, seed int64, quick bool, seconds float64, outDir string) (*result, error) {
	res := &result{metrics: metrics{}}
	for _, d := range perLayer {
		res.metrics.set(d.name, 0) // a layer the workload does not exercise reports 0
	}
	t0 := time.Now()
	res.inputsDigest = w.generate(seed, quick)
	generateS := time.Since(t0).Seconds()

	tr := newTracer()
	svU, err := w.setup(nil)
	if err != nil {
		return nil, err
	}
	defer svU.close() //nolint:errcheck // read-only stack
	svT, err := w.setup(tr)
	if err != nil {
		return nil, err
	}
	defer svT.close() //nolint:errcheck // read-only stack

	ck := newChecker(w.cycle())
	r := &traceResult{sv: svT, svU: svU}
	once := func(done int) bool { return done*w.callers() >= w.slice() }
	passBudget := seconds * w.passShare()
	begin := time.Now()
	for n := 0; n < 2 || time.Since(begin).Seconds() < passBudget; n++ {
		pu, err := runPass(w, svU, nil, ck, w.slice(), once)
		if err != nil {
			return nil, err
		}
		pt, err := runPass(w, svT, tr, ck, w.slice(), once)
		if err != nil {
			return nil, err
		}
		res.attempted += pu.attempted + pt.attempted
		res.failed += pu.failed + pt.failed
		if n == 0 {
			// The first pair starts from the buffers the warm-up left,
			// every later one from those a pass leaves: only the later
			// ones have the same hits and misses on every run.
			continue
		}
		if r.untraced == nil || pu.wall < r.untraced.wall {
			r.untraced = pu
		}
		if r.traced == nil || pt.wall < r.traced.wall {
			r.traced = pt
		}
	}
	r.tot = totals(r.traced.spans)

	t0 = time.Now()
	res.failed += w.verify()
	oracleS := time.Since(t0).Seconds()
	res.answersDigest = ck.digest(w.slice())
	res.correct = res.failed == 0

	m := res.metrics
	commonLayers(r, m)
	if err := w.layers(r, m); err != nil {
		return nil, err
	}
	m.set("bench.generate_s", generateS)
	m.set("bench.oracle_s", oracleS)
	if err := writeSpans(fmt.Sprintf("%s/trace-%s.jsonl", outDir, name), r.traced.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// commonLayers fills the per-layer metrics every workload derives the same
// way from the traced pass: the msq counters, the store spans and counters,
// and the benchmark's own accounting.
func commonLayers(r *traceResult, m metrics) {
	t, tot := r.traced, r.tot
	q := float64(t.queries)
	s := t.stats
	m.set("msq.dist_calcs_per_query", float64(s.DistCalcs)/q)
	m.set("msq.avoided_share", ratio(float64(s.Avoided), float64(s.Avoided+s.DistCalcs+s.QuantFiltered)))
	m.set("msq.tries_per_avoided", ratio(float64(s.AvoidTries), float64(s.Avoided)))
	m.set("msq.matrix_dist_calcs_per_query", float64(s.MatrixDistCalcs)/q)
	m.set("msq.abandoned_share", ratio(float64(s.PartialAbandoned), float64(s.DistCalcs)))
	m.set("msq.pages_per_query", float64(s.PagesRead)/q)

	reads := float64(tot.count["store.read"])
	m.set("store.read_us_per_page", ratio(float64(tot.dur["store.read"])/1e3, reads))
	m.set("store.read_share", float64(tot.dur["store.read"])/float64(t.wall))
	m.set("store.reads_per_query", reads/q)
	m.set("store.buffer_hit_ratio", ratio(float64(t.io.hits), float64(t.io.hits+t.io.misses)))
	m.set("store.evictions_per_query", float64(t.io.evictions)/q)
	// Bytes fetched: what the FileDisk really read, or — on the in-memory
	// disk — the size the cost model gives the pages read.
	bytes := t.io.bytesRead
	if bytes == 0 {
		bytes = t.pageBytes
	}
	m.set("store.bytes_read_per_query", float64(bytes)/q)
	m.set("store.checksum_failures", float64(t.io.checksumErrs))

	m.set("bench.trace_overhead_ratio", float64(t.wall)/float64(r.untraced.wall))
	m.set("bench.unattributed_ms_per_op", float64(tot.self["bench.op"])/1e6/float64(t.attempted))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pageBytes is the size the paper's cost model gives a page of n items:
// 8 bytes per coordinate plus 8 bytes of identifier per item.
func pageBytes(p *store.Page) int64 {
	if len(p.Items) == 0 {
		return 0
	}
	return int64(len(p.Items)) * int64(8*p.Items[0].Vec.Dim()+8)
}
