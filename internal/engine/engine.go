// Package engine defines the interface between the query processor and the
// physical data organizations (sequential scan, X-tree, VA-file, pivot
// table, PM-tree).
//
// The single- and multiple-similarity-query algorithms of the paper (Figures
// 1 and 4) are engine-agnostic: they only need, per query object, an ordered
// list of relevant data pages with lower-bound distances, plus the ability
// to read pages. An index engine provides tight lower bounds (MINDIST of
// page MBRs, or pivot-based triangle-inequality bounds) and can exclude
// pages; the scan engine reports every page as relevant with lower bound
// zero, and the shared algorithm degenerates to exactly the paper's
// linear-scan variant.
//
// The contract is split in two. Engine is the long-lived, concurrency-safe
// physical organization; Prepare(q) returns a PreparedQuery — a per-query
// handle that carries whatever per-query state the engine wants to pay for
// exactly once (pivot distances d(q, p_i) for the pivot-based engines, every
// page's bounds from one sweep of the approximations, through per-query
// cell tables, for the VA-file) and answers all subsequent Plan / MinDist
// probes for that query against it. The multi-query processor keeps one
// handle per query for the lifetime of the batch, so an engine's per-query
// setup cost is amortized over every page probe the batch makes, not paid
// per probe. A handle answers lower bounds only: a k-NN query's query
// distance is bounded by the distances on the pages it has read.
//
// A handle whose plan is built per query may also append it to a buffer the
// caller owns (PlanAppender), so that a session plans every query of a
// mining loop into one slice instead of allocating a plan per query.
//
// Queries that enter a batch together may also be prepared as one block
// (BlockPreparer), which lets an engine share per-query work across them —
// the VA-file sweeps its approximations once for four queries. A block's
// handles may share state, so they are probed from one goroutine at a time,
// as every handle already is.
package engine

import (
	"cmp"
	"slices"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// PageRef is a reference to a data page together with a lower bound on the
// distance from a specific query object to any item stored on the page.
type PageRef struct {
	ID store.PageID
	// MinDist satisfies: for every item o on the page,
	// dist(q, o) >= MinDist. Zero for the sequential scan.
	MinDist float64
}

// SortPlan puts refs in plan order: ascending lower bound as cmp.Compare
// orders bounds, ties by page ID (the Hjaltason–Samet schedule, the same
// whatever order the engine found the pages in). Short plans: by insertion.
func SortPlan(refs []PageRef) {
	if len(refs) > 32 {
		slices.SortFunc(refs, func(a, b PageRef) int {
			if c := cmp.Compare(a.MinDist, b.MinDist); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		return
	}
	for i := 1; i < len(refs); i++ {
		r, j := refs[i], i
		for ; j > 0 && planLess(r, refs[j-1]); j-- {
			refs[j] = refs[j-1]
		}
		refs[j] = r
	}
}

// planLess is SortPlan's order: a NaN bound first, two NaNs equal.
func planLess(a, b PageRef) bool {
	x, y := a.MinDist, b.MinDist
	if x < y || x > y {
		return x < y
	}
	if x == y || x != x && y != y {
		return a.ID < b.ID
	}
	return x != x
}

// PreparedQuery is a per-query view of an engine. It is created once per
// query object by Engine.Prepare, or for several at once by
// BlockPreparer.PrepareBlock, and answers every page-level probe for that
// query. A PreparedQuery is used by a single goroutine at a time (the
// processor's coordinator), and so are all the handles of one block
// together; it need not be safe for concurrent use, which frees
// implementations to memoize lazily.
type PreparedQuery interface {
	// Plan implements determine_relevant_data_pages of Figure 1: it
	// returns references to every data page that may contain an answer
	// for the prepared query at initial query distance queryDist, in
	// optimal processing order. Index engines return pages in ascending
	// MinDist order (the Hjaltason–Samet schedule, proven I/O-optimal for
	// k-NN); the scan returns all pages in physical order so that reads
	// are sequential. Each page appears at most once in a plan.
	// Callers must not modify the returned plan: an engine whose plan does
	// not depend on the query (the scan) returns the same slice every time.
	// An engine that builds a plan per query also implements PlanAppender,
	// and its Plan is AppendPlan into a new slice.
	Plan(queryDist float64) []PageRef

	// MinDist returns a lower bound on dist(q, o) for every item o on
	// page pid. The multi-query processor uses it to decide whether a
	// page loaded for one query is also relevant for another.
	MinDist(pid store.PageID) float64
}

// Engine is a physical data organization that the query processors operate
// on. Implementations must be safe for concurrent readers; the handles
// returned by Prepare are owned by their caller.
type Engine interface {
	// Name identifies the engine in reports ("scan", "xtree", ...).
	Name() string

	// Prepare computes the per-query state for q (for pivot-based
	// engines, the distances from q to every pivot) and returns the
	// handle that serves all page probes for this query.
	Prepare(q vec.Vector) PreparedQuery

	// ReadPage fetches a data page through the engine's pager (buffer
	// hits cost no I/O).
	ReadPage(pid store.PageID) (*store.Page, error)

	// NumPages returns the number of data pages.
	NumPages() int

	// NumItems returns the number of stored items.
	NumItems() int

	// Pager exposes the underlying pager for I/O statistics.
	Pager() *store.Pager
}

// PivotCoster is implemented by engines whose Prepare pays real metric
// distance calculations (query-to-pivot distances). The counter is
// cumulative over the engine's lifetime; the processor snapshots it around
// each call and reports the delta as Stats.PivotDistCalcs, keeping the
// filter's cost visible next to the DistCalcs it saves.
type PivotCoster interface {
	PivotDistCalcs() int64
}

// BlockPreparer is implemented by engines that prepare several queries more
// cheaply together than one at a time. PrepareBlock writes the handle for
// qs[i] to dst[i] (len(dst) == len(qs)); each answers every probe with the
// bits Prepare(qs[i])'s handle would. The handles of one block may share
// state and are probed from one goroutine at a time; qs and dst stay the
// caller's, the engine keeps neither slice.
type BlockPreparer interface {
	PrepareBlock(qs []vec.Vector, dst []PreparedQuery)
}

// PlanAppender is implemented by the handles of engines that build a plan
// per query. AppendPlan appends to dst the refs Plan(queryDist) would return,
// in the same order with the same bits, sorts only what it appended, and
// returns the extended slice; it allocates only when dst lacks the room. A
// caller that plans query after query into one buffer, as a session does,
// allocates for none of them once the buffer has grown. The engine keeps
// nothing of dst.
type PlanAppender interface {
	AppendPlan(dst []PageRef, queryDist float64) []PageRef
}

// GrowPlan returns dst with room for at least n more refs: dst itself when it
// has the room, else a copy in one new allocation (slices.Grow's make is a
// second one under the race detector, which the allocation tests run).
func GrowPlan(dst []PageRef, n int) []PageRef {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]PageRef, 0, len(dst)+n), dst...)
}

// Config describes an engine's tuning for EXPLAIN output.
// Zero fields are omitted from JSON, so each engine only reports the knobs
// it actually has.
type Config struct {
	PageCapacity int `json:"page_capacity,omitempty"`
	// Pivots is the number of pivots (pivot table, PM-tree rings).
	Pivots int `json:"pivots,omitempty"`
	// Bits is the per-dimension approximation resolution (VA-file).
	Bits int `json:"bits,omitempty"`
	// Fanout is the directory fanout (X-tree, PM-tree).
	Fanout int `json:"fanout,omitempty"`
}

// Described is implemented by engines that can report their configuration.
type Described interface {
	Describe() Config
}
