package experiments

import (
	"fmt"

	"metricdb/internal/cost"
	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/parallel"
	"metricdb/internal/report"
	"metricdb/internal/store"
)

// ParallelSweep holds the measurements behind Figures 11 and 12 for one
// workload and one engine kind.
type ParallelSweep struct {
	Workload     string
	Engine       string
	ServerCounts []int
	// PerQuerySeq is the per-query priced cost of sequential multiple
	// queries (s = 1, m = BaseM) — Figure 11's baseline.
	PerQuerySeq float64
	// PerQuerySingle is the per-query priced cost of sequential single
	// queries (s = 1, m = 1) — Figure 12's baseline.
	PerQuerySingle float64
	// PerQueryParallel[i] is the per-query latency cost with
	// ServerCounts[i] servers and block size BaseM·s: the slowest
	// server's priced cost divided by the number of queries.
	PerQueryParallel []float64
}

// RunParallelSweep reproduces the §6.4 setting: m = BaseM multiple k-NN
// queries on a single server as baseline, then s servers with m scaled to
// BaseM·s (the extra memory of s machines buffers s-times the answers).
// The per-query parallel cost follows the shared-nothing latency model:
// all servers work concurrently, so the slowest server determines the
// elapsed time; inter-server communication is negligible (§5.3).
func RunParallelSweep(w Workload, sc Scale, engineKind engines.Kind, model cost.Model) (*ParallelSweep, error) {
	kindName := "scan"
	if engineKind == engines.XTree {
		kindName = "xtree"
	}
	sw := &ParallelSweep{Workload: w.Name, Engine: kindName, ServerCounts: sc.ServerCounts}

	maxS := 0
	for _, s := range sc.ServerCounts {
		if s > maxS {
			maxS = s
		}
	}
	queries, err := w.Queries(w.querySeed()+7, sc.BaseM*maxS)
	if err != nil {
		return nil, err
	}

	// Sequential baselines on the equivalent single-server engine.
	var mk EngineMaker
	if engineKind == engines.Scan {
		mk = ScanMaker(w)
	} else {
		mk = XTreeMaker(w)
	}
	seq, err := runBlocks(mk, queries[:sc.BaseM], sc.BaseM, model)
	if err != nil {
		return nil, fmt.Errorf("experiments: sequential multi baseline: %w", err)
	}
	sw.PerQuerySeq = seq.CostPerQuery()
	single, err := runBlocks(mk, queries[:sc.BaseM], 1, model)
	if err != nil {
		return nil, fmt.Errorf("experiments: sequential single baseline: %w", err)
	}
	sw.PerQuerySingle = single.CostPerQuery()

	capacity := store.PageCapacityForBlockSize(32768, w.Dim)
	for _, s := range sc.ServerCounts {
		cluster, err := parallel.New(w.Items, parallel.Config{
			Servers:      s,
			Strategy:     parallel.RoundRobin,
			Engine:       engineKind,
			Dim:          w.Dim,
			PageCapacity: capacity,
			BufferPages:  -1,
			Avoidance:    msq.AvoidBoth,
		})
		if err != nil {
			return nil, err
		}
		block := queries[:sc.BaseM*s]
		_, rep, err := cluster.MultiQueryAll(block)
		if err != nil {
			return nil, fmt.Errorf("experiments: parallel s=%d: %w", s, err)
		}
		// Latency view: the priced cost of the slowest server.
		var worst float64
		for _, srv := range rep.PerServer {
			c := model.Of(srv.Query, srv.IO).Total().Seconds()
			if c > worst {
				worst = c
			}
		}
		sw.PerQueryParallel = append(sw.PerQueryParallel, worst/float64(len(block)))
	}
	return sw, nil
}

// Fig11 is the parallel speed-up per similarity query: sequential multiple
// queries (s=1, m=BaseM) vs parallel multiple queries (s servers,
// m=BaseM·s).
func (p *ParallelSweep) Fig11() *report.Figure {
	f := &report.Figure{
		Title:  fmt.Sprintf("Figure 11: parallelization speed-up wrt s (%s database, %s)", p.Workload, p.Engine),
		XLabel: "s",
		YLabel: "speed-up vs sequential multi-query",
		XVals:  intsToFloats(p.ServerCounts),
	}
	y := make([]float64, len(p.PerQueryParallel))
	for i, c := range p.PerQueryParallel {
		y[i] = p.PerQuerySeq / c
	}
	_ = f.AddSeries(p.Engine, y)
	return f
}

// Fig12 is the overall speed-up: parallel multiple queries vs sequential
// processing of single similarity queries — the combined effect of the
// multi-query transformation and parallelization.
func (p *ParallelSweep) Fig12() *report.Figure {
	f := &report.Figure{
		Title:  fmt.Sprintf("Figure 12: overall speed-up wrt s (%s database, %s)", p.Workload, p.Engine),
		XLabel: "s",
		YLabel: "speed-up vs sequential single queries",
		XVals:  intsToFloats(p.ServerCounts),
	}
	y := make([]float64, len(p.PerQueryParallel))
	for i, c := range p.PerQueryParallel {
		y[i] = p.PerQuerySingle / c
	}
	_ = f.AddSeries(p.Engine, y)
	return f
}

// MergeFigures combines same-x figures into one (e.g. the scan and X-tree
// series of Figure 11 on one dataset).
func MergeFigures(title string, figs ...*report.Figure) (*report.Figure, error) {
	if len(figs) == 0 {
		return nil, fmt.Errorf("experiments: nothing to merge")
	}
	out := &report.Figure{
		Title:  title,
		XLabel: figs[0].XLabel,
		YLabel: figs[0].YLabel,
		XVals:  figs[0].XVals,
	}
	for _, f := range figs {
		if len(f.XVals) != len(out.XVals) {
			return nil, fmt.Errorf("experiments: figure %q has mismatched x-axis", f.Title)
		}
		for _, s := range f.Series {
			if err := out.AddSeries(s.Name, s.Y); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
