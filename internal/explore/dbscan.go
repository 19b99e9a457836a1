package explore

import (
	"fmt"

	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
)

// Cluster labels produced by DBSCAN.
const (
	// Noise marks objects in no cluster.
	Noise = -1
	// Unclassified is the pre-assignment state (never returned).
	Unclassified = 0
)

// DBSCANResult holds the clustering outcome.
type DBSCANResult struct {
	// Labels assigns every item a cluster ID (1-based) or Noise.
	Labels []int
	// Clusters is the number of clusters found.
	Clusters int
	// Stats aggregates the query-processing cost.
	Stats Stats
}

// DBSCAN runs density-based clustering (Ester, Kriegel, Sander, Xu 1996)
// with parameters eps and minPts, issuing its neighborhood retrievals as
// multiple similarity queries of cfg.BatchSize per the transformed
// ExploreNeighborhoodsMultiple scheme: while a cluster is expanded, the
// pending seed objects are prefetched alongside the object being processed —
// each call's batch is that object and the next BatchSize-1 seeds in the
// order they were found, so consecutive batches slide by one.
// cfg.SimType is ignored; DBSCAN always uses range queries of radius eps.
func DBSCAN(cfg Config, eps float64, minPts int) (*DBSCANResult, error) {
	cfg.SimType = query.NewRange(eps)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if minPts < 1 {
		return nil, fmt.Errorf("explore: DBSCAN minPts must be >= 1, got %d", minPts)
	}

	n := len(cfg.Items)
	labels := make([]int, n)
	res := &DBSCANResult{Labels: labels}
	session := cfg.Proc.NewSession()

	// neighborhood completes the range query at the front of batch; the
	// others ride along. Every batch is a window on the seed list — the
	// seed being expanded and up to BatchSize-1 pending seeds after it — so
	// a step costs the query that enters the window, not the window: the
	// session keeps what it needs of a call's queries, and the seed list,
	// built once per seed and reset per cluster, is one array for the job.
	m := max(cfg.BatchSize, 1)
	seed := func(id store.ItemID) msq.Query {
		return msq.Query{ID: uint64(id), Vec: cfg.Items[id].Vec, Type: cfg.SimType}
	}
	neighborhood := func(batch []msq.Query) ([]query.Answer, error) {
		results, qs, err := session.MultiQuery(batch)
		res.Stats.Query = res.Stats.Query.Add(qs)
		res.Stats.Steps++
		if err != nil {
			return nil, err
		}
		return results[0].Answers(), nil
	}

	var seeds []msq.Query
	for i := 0; i < n; i++ {
		if labels[i] != Unclassified {
			continue
		}
		seeds = append(seeds[:0], seed(store.ItemID(i)))
		answers, err := neighborhood(seeds)
		if err != nil {
			return nil, err
		}
		if len(answers) < minPts {
			labels[i] = Noise
			continue
		}
		// New cluster: expand from the core object.
		res.Clusters++
		c := res.Clusters
		labels[i] = c
		seeds = seeds[:0]
		for _, a := range answers {
			if labels[a.ID] == Unclassified || labels[a.ID] == Noise {
				if labels[a.ID] == Unclassified {
					seeds = append(seeds, seed(a.ID))
				}
				labels[a.ID] = c
			}
		}
		for head := 0; head < len(seeds); head++ {
			nbrs, err := neighborhood(seeds[head:min(head+m, len(seeds))])
			if err != nil {
				return nil, err
			}
			if len(nbrs) < minPts {
				continue // border object: no further expansion
			}
			for _, a := range nbrs {
				switch labels[a.ID] {
				case Unclassified:
					labels[a.ID] = c
					seeds = append(seeds, seed(a.ID))
				case Noise:
					labels[a.ID] = c // density-reachable border object
				}
			}
		}
	}
	return res, nil
}
