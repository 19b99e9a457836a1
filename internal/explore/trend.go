package explore

import (
	"fmt"
	"math"

	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
)

// Trend is one detected spatial trend: a neighborhood path starting at the
// start object along which the observed attribute changes regularly,
// described by the least-squares regression of attribute value against
// path distance.
type Trend struct {
	// Path is the sequence of item IDs, starting at the start object.
	Path []store.ItemID
	// Slope and Intercept describe attr ≈ Intercept + Slope · distance.
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the regression.
	R2 float64
}

// TrendConfig parameterizes spatial trend detection (§3.2, after Ester et
// al. 1998): neighborhood paths of up to MaxLength steps are grown from the
// start object, following up to Branch nearest neighbors per step, and a
// regression of the attribute over the cumulative path distance is
// performed; paths with R² >= MinR2 are reported as trends.
type TrendConfig struct {
	K         int     // neighbors retrieved per step
	Branch    int     // paths followed per step (<= K)
	MaxLength int     // maximum path length in steps
	MinR2     float64 // regression quality threshold
}

// Validate checks the trend parameters.
func (tc TrendConfig) Validate() error {
	if tc.K < 1 {
		return fmt.Errorf("explore: trend K must be >= 1, got %d", tc.K)
	}
	if tc.Branch < 1 || tc.Branch > tc.K {
		return fmt.Errorf("explore: trend Branch must be in [1, K], got %d", tc.Branch)
	}
	if tc.MaxLength < 1 {
		return fmt.Errorf("explore: trend MaxLength must be >= 1, got %d", tc.MaxLength)
	}
	if tc.MinR2 < 0 || tc.MinR2 > 1 {
		return fmt.Errorf("explore: trend MinR2 must be in [0,1], got %g", tc.MinR2)
	}
	return nil
}

// DetectTrends grows neighborhood paths from start and returns the paths
// whose attribute regression is strong enough. attr extracts the non-spatial
// attribute under analysis. The per-step neighborhood queries of all open
// paths are evaluated as one multiple similarity query — this instance's
// ExploreNeighborhoods loop is "additionally controlled by the number of
// steps". cfg.SimType is ignored.
func DetectTrends(cfg Config, start store.ItemID, attr func(store.Item) float64, tc TrendConfig) ([]Trend, Stats, error) {
	cfg.SimType = query.NewKNN(tc.K + 1) // +1: the object itself is its own 1-NN
	var stats Stats
	if err := cfg.Validate(); err != nil {
		return nil, stats, err
	}
	if err := tc.Validate(); err != nil {
		return nil, stats, err
	}
	if attr == nil {
		return nil, stats, fmt.Errorf("explore: nil attribute function")
	}
	if err := checkIDs(len(cfg.Items), start); err != nil {
		return nil, stats, err
	}

	type path struct {
		ids   []store.ItemID
		dists []float64 // cumulative distance at each node
	}
	open := []path{{ids: []store.ItemID{start}, dists: []float64{0}}}
	session := cfg.Proc.NewSession()
	var finished []path

	for step := 0; step < tc.MaxLength && len(open) > 0; step++ {
		// One multiple similarity query over the tips of all open paths.
		batch := make([]msq.Query, 0, len(open))
		for _, p := range open {
			tip := cfg.Items[p.ids[len(p.ids)-1]]
			batch = append(batch, msq.Query{ID: uint64(tip.ID), Vec: tip.Vec, Type: cfg.SimType})
		}
		batch = dedupeQueries(batch)
		results, qs, err := session.MultiQueryAll(batch)
		stats.Query = stats.Query.Add(qs)
		stats.Steps += len(batch)
		if err != nil {
			return nil, stats, err
		}
		answersByID := make(map[uint64][]query.Answer, len(batch))
		for i, r := range results {
			answersByID[batch[i].ID] = r.Answers()
		}

		var next []path
		for _, p := range open {
			tip := p.ids[len(p.ids)-1]
			onPath := make(map[store.ItemID]bool, len(p.ids))
			for _, id := range p.ids {
				onPath[id] = true
			}
			extended := 0
			for _, a := range answersByID[uint64(tip)] {
				if extended == tc.Branch {
					break
				}
				if onPath[a.ID] {
					continue
				}
				np := path{
					ids:   append(append([]store.ItemID(nil), p.ids...), a.ID),
					dists: append(append([]float64(nil), p.dists...), p.dists[len(p.dists)-1]+a.Dist),
				}
				next = append(next, np)
				extended++
			}
			if extended == 0 {
				finished = append(finished, p)
			}
		}
		open = next
	}
	finished = append(finished, open...)

	var trends []Trend
	for _, p := range finished {
		if len(p.ids) < 3 {
			continue // too short for a meaningful regression
		}
		ys := make([]float64, len(p.ids))
		for i, id := range p.ids {
			ys[i] = attr(cfg.Items[id])
		}
		slope, intercept, r2 := linearRegression(p.dists, ys)
		if r2 >= tc.MinR2 {
			trends = append(trends, Trend{Path: p.ids, Slope: slope, Intercept: intercept, R2: r2})
		}
	}
	return trends, stats, nil
}

// linearRegression returns the least-squares fit y = intercept + slope*x
// and its R². A degenerate x-spread yields slope 0 and R² 0.
func linearRegression(xs, ys []float64) (slope, intercept, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	dx := n*sxx - sx*sx
	if dx == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / dx
	intercept = (sy - slope*sx) / n
	dy := n*syy - sy*sy
	if dy == 0 {
		// Constant attribute: a perfect (if trivial) fit.
		return slope, intercept, 1
	}
	r := (n*sxy - sx*sy) / math.Sqrt(dx*dy)
	return slope, intercept, r * r
}
