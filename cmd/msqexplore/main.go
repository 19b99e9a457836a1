// Command msqexplore runs the paper's data-mining algorithms on generated
// or stored datasets, comparing single-query and multiple-query execution.
//
// Usage:
//
//	msqexplore -task dbscan|classify|explore|trends|rules
//	           [-data dataset-dir] [-n 5000] [-dim 16] [-clusters 5]
//	           [-engine scan|xtree|vafile|pivot|pmtree] [-batch 20] [-eps 0.1]
//	           [-minpts 5] [-k 10] [-users 4] [-rounds 5] [-seed 1]
//
// Without -data, a clustered dataset is generated in memory.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"metricdb"
	"metricdb/internal/dataset"
)

func main() {
	var (
		task     = flag.String("task", "dbscan", "dbscan, classify, explore, trends or rules")
		dataFile = flag.String("data", "", "dataset directory written by msqgen (default: generate)")
		n        = flag.Int("n", 5000, "generated dataset size")
		dim      = flag.Int("dim", 16, "generated dataset dimensionality")
		clusters = flag.Int("clusters", 5, "generated cluster count")
		engine   = flag.String("engine", "xtree", "physical organization: scan, xtree, vafile, pivot or pmtree")
		batch    = flag.Int("batch", 20, "multiple-similarity-query batch size m")
		eps      = flag.Float64("eps", 0.1, "range-query radius (dbscan, rules)")
		minPts   = flag.Int("minpts", 5, "DBSCAN density threshold")
		k        = flag.Int("k", 10, "k for k-NN based tasks")
		users    = flag.Int("users", 4, "concurrent users (explore)")
		rounds   = flag.Int("rounds", 5, "navigation rounds (explore)")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if err := run(*task, *dataFile, *n, *dim, *clusters, *engine, *batch, *eps, *minPts, *k, *users, *rounds, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "msqexplore:", err)
		os.Exit(1)
	}
}

func run(task, dataFile string, n, dim, clusters int, engine string, batch int,
	eps float64, minPts, k, users, rounds int, seed int64) error {

	var items []metricdb.Item
	var err error
	if dataFile != "" {
		items, err = dataset.LoadDir(dataFile)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d items from %s\n", len(items), dataFile)
	} else {
		items, err = dataset.Clustered(dataset.ClusteredConfig{
			Seed: seed, N: n, Dim: dim, Clusters: clusters, NoiseFraction: 0.05,
		})
		if err != nil {
			return err
		}
		fmt.Printf("generated %d items (%d-d, %d clusters + 5%% noise)\n", n, dim, clusters)
	}

	db, err := metricdb.Open(items, metricdb.Options{Engine: metricdb.EngineKind(engine)})
	if err != nil {
		return err
	}
	fmt.Printf("engine=%s pages=%d batch=m=%d\n\n", engine, db.NumPages(), batch)

	start := time.Now()
	switch task {
	case "dbscan":
		res, err := db.DBSCAN(eps, minPts, batch)
		if err != nil {
			return err
		}
		noise := 0
		for _, l := range res.Labels {
			if l == -1 {
				noise++
			}
		}
		fmt.Printf("DBSCAN(eps=%g, minPts=%d): %d clusters, %d noise objects\n", eps, minPts, res.Clusters, noise)
		printStats(res.Stats)
	case "classify":
		probes := len(items) / 20
		if probes < 1 {
			probes = 1
		}
		objects := make([]metricdb.Vector, probes)
		truth := make([]int, probes)
		for i := 0; i < probes; i++ {
			it := items[(i*37)%len(items)]
			objects[i] = it.Vec
			truth[i] = it.Label
		}
		labels, stats, err := db.ClassifyKNN(objects, k, batch)
		if err != nil {
			return err
		}
		correct := 0
		for i := range labels {
			if labels[i] == truth[i] {
				correct++
			}
		}
		fmt.Printf("classified %d objects with %d-NN: %d correct (%.1f%%)\n",
			probes, k, correct, 100*float64(correct)/float64(probes))
		printStats(stats)
	case "explore":
		stats, err := db.SimulateExploration(metricdb.ExplorationConfig{
			Users: users, K: k, Rounds: rounds, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("simulated %d users x %d rounds of %d-NN navigation\n", users, rounds, k)
		printStats(stats)
	case "trends":
		attr := func(it metricdb.Item) float64 { return it.Vec[0] }
		trends, stats, err := db.DetectTrends(0, attr, metricdb.TrendConfig{
			K: k, Branch: 2, MaxLength: 5, MinR2: 0.8,
		}, batch)
		if err != nil {
			return err
		}
		fmt.Printf("found %d trends from object 0 (attribute: first coordinate)\n", len(trends))
		for i, tr := range trends {
			if i == 5 {
				fmt.Printf("  ... and %d more\n", len(trends)-5)
				break
			}
			fmt.Printf("  path len %d  slope %+.3f  R2 %.3f\n", len(tr.Path), tr.Slope, tr.R2)
		}
		printStats(stats)
	case "rules":
		rules, stats, err := db.AssociationRules(0, eps, 0.1, 0.05, batch)
		if err != nil {
			return err
		}
		fmt.Printf("association rules for type 0 within eps=%g:\n", eps)
		for _, r := range rules {
			fmt.Printf("  type %d -> type %d  support %.2f  confidence %.2f  (%d objects)\n",
				r.From, r.To, r.Support, r.Confidence, r.Count)
		}
		printStats(stats)
	default:
		return fmt.Errorf("unknown task %q", task)
	}
	fmt.Printf("wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func printStats(s metricdb.ExploreStats) {
	fmt.Printf("queries: %d   pages read: %d   distance calcs: %d (+%d matrix)   avoided: %d of %d tries\n",
		s.Steps, s.Query.PagesRead, s.Query.DistCalcs, s.Query.MatrixDistCalcs,
		s.Query.Avoided, s.Query.AvoidTries)
}
