// Package msq implements the paper's core contribution: single similarity
// queries (Figure 1) and multiple similarity queries (Figure 4) over any
// engine, with incremental first-query-complete semantics, answer
// buffering across calls, and triangle-inequality avoidance of distance
// calculations (Lemmas 1 and 2).
package msq

import "metricdb/internal/store"

// Stats records the cost of query processing in exactly the units the
// paper's evaluation uses: data-page reads for I/O cost and distance
// calculations / triangle-inequality comparisons for CPU cost.
type Stats struct {
	// Queries is the number of query objects processed.
	Queries int64
	// PagesRead counts data pages read from the simulated disk (buffer
	// hits are free). This is Figure 7's I/O cost.
	PagesRead int64
	// PageVisits counts (page, query) processing events: one page
	// visited for three queries counts three visits but (at most) one
	// read.
	PageVisits int64
	// DistCalcs counts object-to-query distance calculations, excluding
	// the query-distance matrix. Figure 8's CPU cost.
	DistCalcs int64
	// MatrixDistCalcs counts the m(m-1)/2 query-pair distance
	// calculations of the preprocessing step (§5.2's initialization
	// overhead, quadratic in m).
	MatrixDistCalcs int64
	// AvoidTries counts triangle-inequality evaluations, successful or
	// not ("avoiding_tries" in the C^m_CPU formula).
	AvoidTries int64
	// Avoided counts distance calculations skipped thanks to the
	// triangle inequality.
	Avoided int64
	// QuantFiltered is always zero: nothing feeds it since the quant
	// layout was removed. It stays declared only because bench/run.go
	// reads it; delete it with the next change to bench/.
	QuantFiltered int64
	// PivotDistCalcs counts the query-to-pivot distance calculations paid
	// by pivot-based engines in Engine.Prepare (the pivot table's and the
	// PM-tree's per-query setup). They are real metric evaluations, kept
	// separate from DistCalcs so the filter's fixed cost is visible next
	// to the object-distance calculations it saves; they never affect the
	// Lemma 1/2 accounting invariants, which range over object distances.
	PivotDistCalcs int64
	// PartialAbandoned counts the subset of DistCalcs that the bounded
	// distance kernels resolved early: the running partial result already
	// exceeded the query's pruning bound, so the exact distance was
	// irrelevant and the per-coordinate loop stopped mid-vector. An
	// abandoned calculation is still a full member of the DistCalcs +
	// Avoided accounting — abandonment saves the tail of the loop, not
	// the call — so all paper invariants over those counters are
	// unchanged by the kernels.
	PartialAbandoned int64
	// Degraded marks a result assembled under failures: some partition of
	// the data could not be consulted, so answer lists are a sound subset
	// of the fault-free result (k-NN answers become bounded-k-NN answers
	// over the surviving partitions).
	Degraded bool
	// PartitionsTotal and PartitionsAnswered describe coverage when the
	// result was produced by a partitioned (parallel) execution: how many
	// partitions the data is declustered over and how many contributed
	// answers. Both are zero for single-node execution.
	PartitionsTotal    int64
	PartitionsAnswered int64
}

// Add returns the component-wise sum of s and t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Queries:          s.Queries + t.Queries,
		PagesRead:        s.PagesRead + t.PagesRead,
		PageVisits:       s.PageVisits + t.PageVisits,
		DistCalcs:        s.DistCalcs + t.DistCalcs,
		MatrixDistCalcs:  s.MatrixDistCalcs + t.MatrixDistCalcs,
		AvoidTries:       s.AvoidTries + t.AvoidTries,
		Avoided:          s.Avoided + t.Avoided,
		QuantFiltered:    s.QuantFiltered + t.QuantFiltered,
		PivotDistCalcs:   s.PivotDistCalcs + t.PivotDistCalcs,
		PartialAbandoned: s.PartialAbandoned + t.PartialAbandoned,

		Degraded:           s.Degraded || t.Degraded,
		PartitionsTotal:    s.PartitionsTotal + t.PartitionsTotal,
		PartitionsAnswered: s.PartitionsAnswered + t.PartitionsAnswered,
	}
}

// Coverage returns the fraction of partitions that contributed answers, or
// 1 for single-node execution (no partitioning recorded).
func (s Stats) Coverage() float64 {
	if s.PartitionsTotal == 0 {
		return 1
	}
	return float64(s.PartitionsAnswered) / float64(s.PartitionsTotal)
}

// TotalDistCalcs returns all distance calculations including the
// query-distance matrix.
func (s Stats) TotalDistCalcs() int64 { return s.DistCalcs + s.MatrixDistCalcs }

// ioSnapshot captures disk statistics so deltas can be attributed to one
// query-processing call.
func ioSnapshot(p *store.Pager) store.IOStats { return p.Disk().Stats() }
