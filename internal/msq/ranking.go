package msq

import (
	"container/heap"
	"fmt"
	"math"

	"metricdb/internal/engine"
	"metricdb/internal/query"
	"metricdb/internal/vec"
)

// Ranking is an incremental nearest-neighbor iterator in the style of
// Hjaltason and Samet's ranking algorithm [13], the algorithm the paper's
// determine_relevant_data_pages is based on: database objects are emitted
// in ascending distance from the query object, and data pages are read
// lazily in ascending lower-bound order — an object is emitted only once
// its distance is no larger than the lower bound of every unread page.
//
// Stopping after k results therefore reads exactly the pages an optimal
// k-NN query would read, without knowing k in advance; this is the natural
// building block for "give me more" exploration interfaces.
type Ranking struct {
	proc    *Processor
	q       vec.Vector
	plan    []engine.PageRef
	nextRef int
	pending answerHeap
	stats   Stats
	err     error
}

// answerHeap orders loaded-but-unemitted answers by (distance, ID).
type answerHeap []query.Answer

func (h answerHeap) Len() int { return len(h) }
func (h answerHeap) Less(i, j int) bool {
	if h[i].Dist != h[j].Dist {
		return h[i].Dist < h[j].Dist
	}
	return h[i].ID < h[j].ID
}
func (h answerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *answerHeap) Push(x any)   { *h = append(*h, x.(query.Answer)) }
func (h *answerHeap) Pop() any {
	old := *h
	n := len(old)
	a := old[n-1]
	*h = old[:n-1]
	return a
}

// Ranking starts an incremental ranking from q.
func (p *Processor) Ranking(q vec.Vector) (*Ranking, error) {
	if err := p.CheckQuery(Query{Vec: q, Type: query.NewKNN(1)}); err != nil {
		return nil, err
	}
	return &Ranking{
		proc: p,
		q:    q,
		plan: p.eng.Prepare(q).Plan(query.NewKNN(1).InitialQueryDist()),
	}, nil
}

// Next returns the next-nearest database object. ok is false when the
// database is exhausted (or after an error, which sticks).
func (r *Ranking) Next() (a query.Answer, ok bool, err error) {
	if r.err != nil {
		return query.Answer{}, false, r.err
	}
	for {
		// Emit the best pending answer once no unread page could beat it.
		if len(r.pending) > 0 {
			if r.nextRef >= len(r.plan) || r.pending[0].Dist <= r.plan[r.nextRef].MinDist {
				return heap.Pop(&r.pending).(query.Answer), true, nil
			}
		} else if r.nextRef >= len(r.plan) {
			return query.Answer{}, false, nil
		}
		// Otherwise load the next-closest page.
		ref := r.plan[r.nextRef]
		r.nextRef++
		page, err := r.proc.eng.ReadPage(ref.ID)
		if err != nil {
			r.err = fmt.Errorf("msq: ranking: %w", err)
			return query.Answer{}, false, r.err
		}
		r.stats.PagesRead++ // buffer hits included: counts page visits for the iterator
		r.stats.PageVisits++
		// Every distance is wanted, so the page is one item-lane sweep under
		// an infinite limit — each pair's exact distance, Distance's bits —
		// settled once per page. A pair the sweep abandons could only have a
		// NaN distance, which finite queries and items do not produce.
		items, within := page.Items, int64(0)
		queries, limits := [1]vec.Vector{r.q}, [1]float64{math.Inf(1)}
		sweepItems(r.proc.lanes, items, queries[:], limits[:], func(_, it int, d float64) {
			within++
			heap.Push(&r.pending, query.Answer{ID: items[it].ID, Dist: d})
		})
		r.stats.DistCalcs += int64(len(items))
		r.proc.metric.AddCalls(int64(len(items)), int64(len(items))-within)
		r.proc.eng.Pager().Release(page)
	}
}

// Stats reports the work done so far. PagesRead counts page visits by the
// iterator (a visit served from the buffer costs no disk I/O; consult the
// engine's pager for disk-level statistics).
func (r *Ranking) Stats() Stats { return r.stats }
