package msq

import (
	"context"
	"fmt"
	"math"
	"sync"

	"metricdb/internal/engine"
	"metricdb/internal/obs"
	"metricdb/internal/store"
)

// This file implements the intra-server parallel pipeline for multiple
// similarity queries: a single coordinator walks the page plan exactly like
// the sequential loop in run(), while
//
//   - a prefetcher goroutine overlaps page I/O with evaluation for pages
//     whose read is already inevitable, and
//   - a bounded worker pool evaluates each page's items against all active
//     queries concurrently, merging per-query results through sharded,
//     mutex-guarded answer lists.
//
// The output is bit-identical to the sequential path, and so is the disk
// read sequence. The argument:
//
//  1. Page decisions are made at page barriers. The coordinator decides a
//     page's active query set only after every earlier page is fully merged
//     into the answer lists, so each decision sees exactly the state the
//     sequential loop would see.
//  2. A merged answer list is a pure function of the set of (item, dist)
//     pairs offered to it — insertion order cannot change the k best under
//     the (dist, ID) tie-break, and range lists sort on read. Avoidance only
//     ever skips items whose distance provably exceeds the query's pruning
//     distance at some earlier moment, and pruning distances only shrink, so
//     a skipped item could never have been in the list at the barrier either.
//     Hence the post-page state — and with it every later decision — is
//     independent of worker interleaving.
//  3. Reads stay in plan order. The prefetcher runs ahead only through pages
//     whose read condition cannot be invalidated by future tightening: pages
//     with a zero lower bound (every scan page) and, when the first query is
//     a range query, pages within its constant ε. At any other page it
//     parks until the coordinator has handled that page itself. Reads are
//     therefore issued in exactly the sequential order, which keeps not just
//     the read count but also the sequential/random split of the simulated
//     disk identical.
//
// Within a page, workers run the same page pass as the sequential loop
// (pass.go) over disjoint item ranges, but deferred: against the snapshot
// of the pruning distances the barrier took, writing distances to a buffer
// instead of the answer lists. The snapshot makes the avoidance decisions a
// pure function of (page, snapshot, matrix) — i.e. identical across all
// widths >= 2 — and still sound, because a snapshot bound is a valid (if
// slightly stale) upper bound on the final query distance. The bounded
// distance kernel's abandonment limit (abandonLimit) is likewise derived
// from the snapshot only, so early-abandonment decisions are snapshot-pure
// too. Only DistCalcs/Avoided/AvoidTries/PartialAbandoned may differ from
// the width-1 path, which tightens bounds item by item; answers and I/O
// never do. An observed chunk is timed as a whole, like a sequential pass.

// workerPool is a bounded pool of goroutines executing closures. One pool is
// created per multi-query pass and torn down when the pass ends. Each task
// receives the stable index of the worker goroutine running it, so callers
// can maintain per-worker scratch buffers without locking: a worker index
// is owned by exactly one goroutine at a time.
type workerPool struct {
	tasks chan func(worker int)
	wg    sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{tasks: make(chan func(worker int))}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func(worker int) {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn(worker)
			}
		}(i)
	}
	return p
}

func (p *workerPool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// forEachChunk splits [0, n) into at most maxChunks contiguous ranges,
// runs fn on the pool for each, and blocks until all complete. fn must not
// dispatch further pool work (the caller is never a pool worker, so a
// single level cannot deadlock). The single-chunk fast path runs inline on
// the caller as worker 0; no pool task is in flight then, so the worker-0
// scratch is safe to use.
func (p *workerPool) forEachChunk(n, maxChunks int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := maxChunks
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		fn(0, 0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		lo, hi := lo, hi
		p.tasks <- func(worker int) {
			defer wg.Done()
			fn(worker, lo, hi)
		}
	}
	wg.Wait()
}

// fetched is one prefetched page delivery, tagged with its plan index.
type fetched struct {
	idx  int
	page *store.Page
	err  error
}

// prefetchFloor returns a value the first query's pruning distance can never
// drop below: 0 for bounded kinds (k-NN distances can tighten arbitrarily)
// and the constant ε for range queries. A plan reference with
// MinDist <= floor is guaranteed to be read, so it is safe to prefetch.
func prefetchFloor(first *queryState) float64 {
	if first.q.Type.Bounded() {
		return 0
	}
	return first.q.Type.Range
}

// prefetch reads the guaranteed pages of the plan ahead of the coordinator,
// in plan order. At every non-prefetchable reference it consumes one resume
// token — sent by the coordinator after it has handled that reference itself
// — so that the global disk read sequence is exactly the plan order the
// sequential path produces. done aborts the prefetcher on early exit; a page
// it read but could no longer deliver it releases itself.
func (s *Session) prefetch(plan []engine.PageRef, prefetchable []bool, out chan<- fetched, resume <-chan struct{}, done <-chan struct{}) {
	defer close(out)
	for i := range plan {
		if !prefetchable[i] {
			select {
			case <-resume:
				continue
			case <-done:
				return
			}
		}
		page, err := s.proc.eng.ReadPage(plan[i].ID)
		select {
		case out <- fetched{idx: i, page: page, err: err}:
		case <-done:
			if page != nil {
				s.proc.eng.Pager().Release(page)
			}
			return
		}
		if err != nil {
			return
		}
	}
}

// runPipeline is the concurrent counterpart of run()'s page loop. width is
// the pipeline width (>= 2): the worker-pool size and the prefetch lookahead.
// The coordinator checks ctx once per page barrier. However the loop ends,
// closing done aborts the prefetcher, and runPipeline returns only once it
// has exited — no read of it is in flight when the caller goes on to close
// the database — releasing every page it delivered that the loop did not
// take.
func (s *Session) runPipeline(ctx context.Context, plan []engine.PageRef, states []*queryState, stats *Stats, pass *pagePass, width int) error {
	first := states[0]

	// Decide, from static state only, which plan references the prefetcher
	// may read ahead of the coordinator. first.processed is snapshotted via
	// this slice: entries added during the loop are for references already
	// consumed (engines plan each page at most once), so the snapshot stays
	// valid for the references ahead.
	floor := prefetchFloor(first)
	prefetchable := make([]bool, len(plan))
	for i, ref := range plan {
		if !first.processed.has(ref.ID) && ref.MinDist <= floor {
			prefetchable[i] = true
		}
	}

	pool := newWorkerPool(width)
	defer pool.close()

	out := make(chan fetched, width) // bounded lookahead
	resume := make(chan struct{}, len(plan))
	done := make(chan struct{})
	defer func() {
		close(done)
		for f := range out {
			if f.page != nil {
				s.proc.eng.Pager().Release(f.page)
			}
		}
	}()
	go s.prefetch(plan, prefetchable, out, resume, done)

	for i, ref := range plan {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("msq: multiple query: %w", err)
		}
		var page *store.Page
		waitStart := s.clock()
		if prefetchable[i] {
			// The read condition of a prefetchable page cannot be
			// invalidated (MinDist <= floor <= queryDist at all times), so
			// the page is always consumed here — prune and processed were
			// ruled out when prefetchable was computed.
			f, ok := <-out
			if !ok || f.idx != i {
				return fmt.Errorf("msq: pipeline prefetcher desynchronized at plan index %d", i)
			}
			s.observeSince(obs.PhasePageWait, waitStart)
			if f.err != nil {
				return fmt.Errorf("msq: multiple query: %w", f.err)
			}
			page = f.page
		} else {
			if ref.MinDist > first.queryDist() {
				break // prune_pages for Q1; later refs are even farther
			}
			if first.processed.has(ref.ID) {
				resume <- struct{}{}
				continue // already examined for Q1 in an earlier call
			}
			var err error
			page, err = s.proc.eng.ReadPage(ref.ID)
			resume <- struct{}{} // read issued; prefetcher may run ahead again
			s.observeSince(obs.PhasePageWait, waitStart)
			if err != nil {
				return fmt.Errorf("msq: multiple query: %w", err)
			}
		}

		active := pass.decideActive(ref.ID, states)
		s.visit(active, stats)

		pass.begin(page, active)
		s.evalConcurrent(pool, pass, stats, width)

		for _, st := range active {
			st.processed.add(ref.ID)
		}
	}
	return nil
}

// evalConcurrent evaluates the begun page on the worker pool and merges the
// results. Phase 1 partitions the page's items: each worker runs the
// deferred page pass over its item range, so every decision is a pure
// function of (page, snapshot, matrix) and identical across all widths
// >= 2. Phase 2 shards the merge by query: each answer list is fed its page
// results in item order under the state's lock, reproducing the exact
// Consider sequence the sequential path would issue for that query. An
// abandoned distance exceeds the snapshot bound, which is an upper bound on
// the query's final pruning distance, so the skipped item could never have
// entered the answer list at any width.
func (s *Session) evalConcurrent(pool *workerPool, pass *pagePass, stats *Stats, width int) {
	items, active := pass.page.Items, pass.active
	nItems, nActive := len(items), len(active)
	if nItems == 0 || nActive == 0 {
		return
	}
	if cap(pass.dists) < nItems*nActive {
		pass.dists = make([]float64, nItems*nActive)
	}
	dists := pass.dists[:nItems*nActive]

	pool.forEachChunk(nItems, width, func(worker, lo, hi int) {
		pass.counts[worker].add(pass.eval(lo, hi, worker, dists))
	})
	var total passCounts
	for w := range pass.counts {
		total.add(pass.counts[w])
		pass.counts[w] = passCounts{}
	}
	s.settle(stats, total)

	pool.forEachChunk(nActive, width, func(_, lo, hi int) {
		mergeStart := s.clock()
		for a := lo; a < hi; a++ {
			st := active[a]
			st.mu.Lock()
			for it := 0; it < nItems; it++ {
				if d := dists[it*nActive+a]; !math.IsNaN(d) {
					st.answers.Consider(items[it].ID, d)
				}
			}
			st.mu.Unlock()
		}
		s.observeSince(obs.PhaseMerge, mergeStart)
	})
}
