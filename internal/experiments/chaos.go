package experiments

import (
	"fmt"

	"metricdb/internal/engines"
	"metricdb/internal/fault"
	"metricdb/internal/msq"
	"metricdb/internal/parallel"
	"metricdb/internal/query"
	"metricdb/internal/report"
	"metricdb/internal/store"
)

// ChaosResult measures degraded-mode query processing: a shared-nothing
// cluster keeps answering while an increasing number of its servers sit on
// failing disks. Coverage is the partitions-answered fraction reported by
// the cluster; recall is the fraction of the fault-free answers that the
// degraded run still returned. Range answers are a sound subset of the
// fault-free result; k-NN answers are bounded-k-NN answers over the
// surviving partitions, so they can include items beyond the global top-k
// but never at a better rank-wise distance — both invariants are asserted
// while the experiment runs.
type ChaosResult struct {
	Workload string
	Servers  int
	// FailedServers is the x-axis: how many of the s servers fail.
	FailedServers []int
	Coverage      []float64
	Recall        []float64
}

// RunChaos declusters the workload over s servers and, for every failure
// count f = 0..s-1, injects unrecoverable read faults into f servers and
// runs an m-query k-NN batch in degraded mode.
func RunChaos(w Workload, s, m int) (*ChaosResult, error) {
	queries, err := w.Queries(w.querySeed()+13, m)
	if err != nil {
		return nil, err
	}
	capacity := store.PageCapacityForBlockSize(32768, w.Dim)
	newCluster := func(failed int) (*parallel.Cluster, error) {
		return parallel.New(w.Items, parallel.Config{
			Servers:      s,
			Strategy:     parallel.RoundRobin,
			Engine:       engines.Scan,
			Dim:          w.Dim,
			PageCapacity: capacity,
			BufferPages:  0,
			Avoidance:    msq.AvoidBoth,
			FanOut:       parallel.FanOut{Degrade: true, Retries: 1},
			WrapDisk: func(server int, src store.PageSource) (store.PageSource, error) {
				if server >= failed {
					return src, nil
				}
				return fault.Wrap(src, fault.Config{Seed: int64(server), ErrProb: 1})
			},
		})
	}

	// Fault-free reference answers.
	ref, err := newCluster(0)
	if err != nil {
		return nil, err
	}
	want, _, err := ref.MultiQueryAll(queries)
	if err != nil {
		return nil, err
	}
	wantIDs := make([]map[store.ItemID]bool, len(want))
	totalWant := 0
	for i, l := range want {
		wantIDs[i] = make(map[store.ItemID]bool, l.Len())
		for _, a := range l.Answers() {
			wantIDs[i][a.ID] = true
		}
		totalWant += l.Len()
	}

	res := &ChaosResult{Workload: w.Name, Servers: s}
	for failed := 0; failed < s; failed++ {
		c, err := newCluster(failed)
		if err != nil {
			return nil, err
		}
		got, rep, err := c.MultiQueryAll(queries)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos f=%d: %w", failed, err)
		}
		kept := 0
		for i, l := range got {
			ga, wa := l.Answers(), want[i].Answers()
			if len(ga) > len(wa) {
				return nil, fmt.Errorf("experiments: chaos f=%d: query %d returned %d answers, fault-free %d (unsound degradation)", failed, i, len(ga), len(wa))
			}
			for j, a := range ga {
				if wantIDs[i][a.ID] {
					kept++
				}
				if queries[i].Type.Kind == query.Range && !wantIDs[i][a.ID] {
					return nil, fmt.Errorf("experiments: chaos f=%d: range answer %d of query %d not in fault-free result (unsound degradation)", failed, a.ID, i)
				}
				// k-NN over the surviving partitions can only be as good as
				// the global k-NN at every rank, never better.
				if a.Dist < wa[j].Dist-1e-9 {
					return nil, fmt.Errorf("experiments: chaos f=%d: query %d rank %d improved under faults (unsound degradation)", failed, i, j)
				}
			}
		}
		recall := 1.0
		if totalWant > 0 {
			recall = float64(kept) / float64(totalWant)
		}
		res.FailedServers = append(res.FailedServers, failed)
		res.Coverage = append(res.Coverage, rep.Coverage())
		res.Recall = append(res.Recall, recall)
	}
	return res, nil
}

// Figure renders coverage and recall against the number of failed servers.
func (c *ChaosResult) Figure() *report.Figure {
	f := &report.Figure{
		Title:  fmt.Sprintf("Chaos: degraded coverage and recall wrt failed servers (%s database, s=%d)", c.Workload, c.Servers),
		XLabel: "failed servers",
		YLabel: "fraction",
		XVals:  intsToFloats(c.FailedServers),
	}
	_ = f.AddSeries("coverage", c.Coverage)
	_ = f.AddSeries("recall", c.Recall)
	return f
}
