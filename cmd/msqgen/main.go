// Command msqgen generates synthetic datasets (the paper-data substitutes)
// and stores them for reuse by msqexplore, msqserver -data, and custom
// experiments. The output is a persistent dataset directory in the
// checksummed page-store format (servable without loading into memory).
//
// Usage:
//
//	msqgen -out data.dir -kind uniform|nearuniform|clustered
//	       [-pagecap 0] [-n 100000] [-dim 20]
//	       [-clusters 10] [-spread 0.05] [-intrinsic 8] [-histogram]
//	       [-noise 0.0] [-seed 1] [-layout aos|soa] [-advise]
//
// -advise additionally runs the engine advisor on the generated items and
// prints the recommendation; advisor warnings (estimator fallbacks) are
// appended to the stdout advice line and repeated on stderr — a fallback
// ranking is never printed silently.
//
// -layout soa writes version-2 columnar page records (contiguous float64
// blocks per page). A version-1 (aos) dataset serves any layout too:
// OpenStored columnizes on read when the session's layout wants blocks the
// file lacks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"metricdb"
	"metricdb/internal/dataset"
	"metricdb/internal/store"
)

func main() {
	var (
		out       = flag.String("out", "", "output path (required)")
		pagecap   = flag.Int("pagecap", 0, "items per page (0 derives from 32 KB blocks)")
		kind      = flag.String("kind", "uniform", "uniform, nearuniform or clustered")
		n         = flag.Int("n", 100000, "number of items")
		dim       = flag.Int("dim", 20, "dimensionality")
		clusters  = flag.Int("clusters", 10, "clusters (clustered kind)")
		spread    = flag.Float64("spread", 0.05, "cluster spread (clustered kind)")
		intrinsic = flag.Int("intrinsic", 8, "intrinsic dimensionality (nearuniform kind)")
		histogram = flag.Bool("histogram", false, "L1-normalize to histograms (clustered kind)")
		noise     = flag.Float64("noise", 0, "noise fraction (clustered) or noise level (nearuniform)")
		seed      = flag.Int64("seed", 1, "random seed")
		layout    = flag.String("layout", "aos", "page representation: aos or soa")
		advise    = flag.Bool("advise", false, "print an engine recommendation for the generated dataset")
	)
	flag.Parse()
	if err := run(*out, *pagecap, *kind, *n, *dim, *clusters, *spread, *intrinsic, *histogram, *noise, *seed, *layout, *advise); err != nil {
		fmt.Fprintln(os.Stderr, "msqgen:", err)
		os.Exit(1)
	}
}

func run(out string, pagecap int, kind string, n, dim, clusters int, spread float64, intrinsic int, histogram bool, noise float64, seed int64, layout string, advise bool) error {
	if out == "" {
		return fmt.Errorf("-out is required")
	}
	// Options.Validate owns the list of layouts; soa is the columnar one.
	if err := (metricdb.Options{Layout: layout}).Validate(); err != nil {
		return err
	}
	save := dataset.SaveOptions{PageCapacity: pagecap, Columnar: layout == "soa",
		Attrs: map[string]string{"kind": kind, "seed": strconv.FormatInt(seed, 10)}}
	var items []store.Item
	var err error
	switch kind {
	case "uniform":
		items = dataset.Uniform(seed, n, dim)
	case "nearuniform":
		items, err = dataset.NearUniform(seed, n, dim, intrinsic, noise)
	case "clustered":
		items, err = dataset.Clustered(dataset.ClusteredConfig{
			Seed: seed, N: n, Dim: dim, Clusters: clusters,
			Spread: spread, Histogram: histogram, NoiseFraction: noise,
		})
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		return err
	}
	if err := dataset.SaveDir(out, items, save); err != nil {
		return err
	}
	fmt.Printf("wrote %d %d-d items (%s, %s layout) to %s\n", len(items), dim, kind, layout, out)
	if advise {
		a, err := metricdb.Advise(items, seed)
		if err != nil {
			return err
		}
		fmt.Print(adviceLine(a))
		// The warning is repeated on stderr for log separation, but never
		// only there — see adviceLine.
		if a.Warning != "" {
			fmt.Fprintln(os.Stderr, "msqgen: advisor warning:", a.Warning)
		}
	}
	return nil
}

// adviceLine renders the advisor's recommendation for stdout. A warning
// (estimator fallback) is part of the line itself: anyone reading or
// piping only stdout must see that the ranking rests on a fallback rather
// than receive it silently.
func adviceLine(a metricdb.Advice) string {
	line := fmt.Sprintf("advice: engine=%s intrinsic_dim=%.1f — %s", a.Engine, a.IntrinsicDim, a.Reason)
	if a.Warning != "" {
		line += fmt.Sprintf(" (warning: %s)", a.Warning)
	}
	return line + "\n"
}
