package msq

import (
	"context"
	"fmt"
	"time"

	"metricdb/internal/engine"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/vec"
)

// Single evaluates one similarity query, implementing the algorithm of
// Figure 1: the engine supplies the relevant data pages in optimal order
// (determine_relevant_data_pages), each page's items are tested against the
// current query distance, and for bounded queries the query distance
// tightens as answers arrive (adapt_query_dist), pruning the remaining plan
// (prune_pages).
func (p *Processor) Single(q vec.Vector, t query.Type) (*query.AnswerList, Stats, error) {
	return p.SingleContext(context.Background(), q, t)
}

// SingleContext is Single with cancellation: the page loop checks ctx once
// per page and aborts with ctx's error when it is canceled or past its
// deadline. The check is observation-free — on the uncanceled path it
// perturbs no answers and no statistics counters.
func (p *Processor) SingleContext(ctx context.Context, q vec.Vector, t query.Type) (*query.AnswerList, Stats, error) {
	if err := p.CheckQuery(Query{Vec: q, Type: t}); err != nil {
		return nil, Stats{}, err
	}

	tr := p.tracer
	traced := tr.Enabled()
	var begin time.Time
	if traced {
		begin = time.Now()
	}

	answers := query.NewAnswerList(t)
	ioBefore := ioSnapshot(p.eng.Pager())
	distBefore := p.metric.Count()
	abandonBefore := p.metric.Abandoned()
	var pivotBefore int64
	pc, hasPivots := p.eng.(engine.PivotCoster)
	if hasPivots {
		pivotBefore = pc.PivotDistCalcs()
	}
	stats := Stats{Queries: 1}

	sp := tr.Start(obs.PhasePlan)
	pq := p.eng.Prepare(q)
	plan := pq.Plan(t.InitialQueryDist())
	sp.End()
	queries := [1]vec.Vector{q}
	for _, ref := range plan {
		if err := ctx.Err(); err != nil {
			return nil, stats, fmt.Errorf("msq: single query: %w", err)
		}
		// prune_pages: the plan is ordered by ascending lower bound for
		// index engines (all zero for a scan), so the first reference
		// beyond the query distance ends the search.
		if ref.MinDist > answers.QueryDist() {
			break
		}
		var waitStart time.Time
		if traced {
			waitStart = time.Now()
		}
		page, err := p.eng.ReadPage(ref.ID)
		if traced {
			tr.ObserveSince(obs.PhasePageWait, waitStart)
		}
		if err != nil {
			return nil, stats, fmt.Errorf("msq: single query: %w", err)
		}
		stats.PageVisits++
		var evalStart time.Time
		if traced {
			evalStart = time.Now()
		}
		// The live pruning distance doubles as the kernel's abandonment
		// limit: an abandoned item is strictly farther than the current
		// query distance, so Consider would have rejected it anyway and the
		// answer list is unchanged.
		items, limit, within := page.Items, [1]float64{answers.QueryDist()}, int64(0)
		sweepItems(p.lanes, items, queries[:], limit[:], func(_, it int, d float64) {
			within++
			answers.Consider(items[it].ID, d)
			limit[0] = answers.QueryDist()
		})
		p.metric.AddCalls(int64(len(items)), int64(len(items))-within)
		p.eng.Pager().Release(page)
		if traced {
			tr.ObserveSince(obs.PhaseKernel, evalStart)
		}
	}

	stats.PagesRead = p.eng.Pager().Disk().Stats().Reads - ioBefore.Reads
	stats.DistCalcs = p.metric.Count() - distBefore
	stats.PartialAbandoned = p.metric.Abandoned() - abandonBefore
	if hasPivots {
		stats.PivotDistCalcs = pc.PivotDistCalcs() - pivotBefore
	}
	if traced {
		tr.RecordQuery("single", 1, time.Since(begin), stats.PagesRead, stats.DistCalcs, stats.Avoided)
	}
	return answers, stats, nil
}
