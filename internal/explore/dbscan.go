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
// pending seed objects are prefetched alongside the object being processed.
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

	// neighborhood evaluates the range query for the object at the head
	// of seeds, prefetching up to BatchSize-1 pending seeds. The batch is
	// built into one slice for the whole job: the session copies what it
	// keeps of a call's queries.
	m := cfg.BatchSize
	if m < 1 {
		m = 1
	}
	batch := make([]msq.Query, 0, m)
	neighborhood := func(head store.ItemID, pending []store.ItemID) ([]query.Answer, error) {
		batch = append(batch[:0], msq.Query{ID: uint64(head), Vec: cfg.Items[head].Vec, Type: cfg.SimType})
		for _, id := range pending {
			if len(batch) == m {
				break
			}
			if id == head {
				continue
			}
			batch = append(batch, msq.Query{ID: uint64(id), Vec: cfg.Items[id].Vec, Type: cfg.SimType})
		}
		results, qs, err := session.MultiQuery(batch)
		res.Stats.Query = res.Stats.Query.Add(qs)
		res.Stats.Steps++
		if err != nil {
			return nil, err
		}
		return results[0].Answers(), nil
	}

	for i := 0; i < n; i++ {
		if labels[i] != Unclassified {
			continue
		}
		answers, err := neighborhood(store.ItemID(i), nil)
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
		var seeds []store.ItemID
		for _, a := range answers {
			if labels[a.ID] == Unclassified || labels[a.ID] == Noise {
				if labels[a.ID] == Unclassified {
					seeds = append(seeds, a.ID)
				}
				labels[a.ID] = c
			}
		}
		for len(seeds) > 0 {
			id := seeds[0]
			seeds = seeds[1:]
			nbrs, err := neighborhood(id, seeds)
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
					seeds = append(seeds, a.ID)
				case Noise:
					labels[a.ID] = c // density-reachable border object
				}
			}
		}
	}
	return res, nil
}
