// Command msqbench regenerates every figure of the paper's evaluation
// (§6, Figures 7–12, plus the distance-vs-comparison micro-measurement)
// as text tables and optional CSV files.
//
// Usage:
//
//	msqbench [-experiment all|micro|fig7|fig8|fig9|fig10|fig11|fig12|block|load]
//	         [-scale small|medium|paper] [-csv dir] [-measure]
//	         [-block-out BENCH_block.json]
//	         [-load-out BENCH_load.json]
//
// The block experiment measures the page pass end to end on the scan
// engine: one k-NN batch per data shape × metric × dimensionality × batch
// width, under the default avoidance mode, both lemmas and none,
// re-checking on the measured runs that every mode returns the same
// answers. Results go to -block-out as JSON.
//
// The load experiment drives an admission-controlled wire server with an
// open-loop generator through ramp, spike and sustained-overload traffic
// profiles (rates expressed as multiples of the host's own calibrated
// sequential capacity), records latency percentiles, shed rate and
// achieved cross-caller batch width, verifies that overload sheds are
// structured with retry-after hints while admitted answers stay
// bit-identical to the unbatched sequential path, and writes the results
// to -load-out as JSON.
//
// -measure calibrates the cost model on this host instead of using the
// paper's nominal 1999 hardware constants.
//
// No experiment here judges the deterministic work counters: go test pins
// them byte for byte next to the code (TestEngineWorkGolden in
// internal/engines for every engine's distance calculations and page
// reads), and bench/ is what judges time.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"metricdb/internal/cost"
	"metricdb/internal/engines"
	"metricdb/internal/experiments"
	"metricdb/internal/report"
	"metricdb/internal/vec"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: all, micro, fig7..fig12, block, load")
		scaleName  = flag.String("scale", "small", "dataset scale: small, medium or paper")
		csvDir     = flag.String("csv", "", "also write each figure as CSV into this directory")
		measure    = flag.Bool("measure", false, "calibrate the cost model on this host instead of nominal 1999 constants")
		blockOut   = flag.String("block-out", "BENCH_block.json", "output file for the block experiment's JSON results")
		loadOut    = flag.String("load-out", "BENCH_load.json", "output file for the load experiment's JSON results")
	)
	flag.Parse()
	if err := run(*experiment, *scaleName, *csvDir, *measure, *blockOut, *loadOut); err != nil {
		fmt.Fprintln(os.Stderr, "msqbench:", err)
		os.Exit(1)
	}
}

func run(experiment, scaleName, csvDir string, measure bool, blockOut, loadOut string) error {
	sc, err := experiments.ScaleByName(scaleName)
	if err != nil {
		return err
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}

	want := func(name string) bool { return experiment == "all" || experiment == name }
	valid := map[string]bool{"all": true, "micro": true, "fig7": true, "fig8": true,
		"fig9": true, "fig10": true, "fig11": true, "fig12": true,
		"block": true, "load": true}
	if !valid[experiment] {
		return fmt.Errorf("unknown experiment %q", experiment)
	}

	fmt.Printf("scale=%s  astronomy: %d x %d-d   image: %d x %d-d\n\n",
		sc.Name, sc.AstroN, sc.AstroDim, sc.ImageN, sc.ImageDim)

	emit := func(fig *report.Figure) error {
		if err := fig.WriteTable(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(csvDir, slug(fig.Title)+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fig.WriteCSV(f); err != nil {
			return err
		}
		return f.Close()
	}

	if want("micro") {
		if err := emit(experiments.MicroFigure([]int{20, 64})); err != nil {
			return err
		}
	}

	if want("block") {
		avoidance, err := experiments.RunBlockAvoidance([]int{8, 16, 32, 64, 128}, []int{8, 32, 100}, 2000)
		if err != nil {
			return err
		}
		for _, c := range avoidance.Cells {
			if !c.Identical {
				return fmt.Errorf("block: %s on %s data at dim %d, m %d: the avoidance modes disagree on the answers",
					c.Metric, c.Data, c.Dim, c.M)
			}
		}
		if err := emit(avoidance.Figure()); err != nil {
			return err
		}
		if err := experiments.WriteBlockJSONFile(blockOut, &experiments.BlockSweep{Avoidance: avoidance}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", blockOut)
	}

	needSweep := want("fig7") || want("fig8") || want("fig9") || want("fig10")
	needParallel := want("fig11") || want("fig12")
	needLoad := want("load")
	if !needSweep && !needParallel && !needLoad {
		return nil
	}

	modelFor := func(dim int) cost.Model {
		if measure {
			return cost.Measure(vec.Euclidean{}, dim)
		}
		return cost.PaperModel(dim)
	}

	astro := experiments.Astronomy(sc)
	image, err := experiments.Image(sc)
	if err != nil {
		return err
	}
	workloads := []struct {
		w     experiments.Workload
		model cost.Model
	}{
		{astro, modelFor(sc.AstroDim)},
		{image, modelFor(sc.ImageDim)},
	}

	if needSweep {
		for _, wl := range workloads {
			sweep, err := experiments.RunSweep(wl.w, sc.MValues, wl.model)
			if err != nil {
				return err
			}
			figs := map[string]*report.Figure{
				"fig7":  sweep.Fig7(),
				"fig8":  sweep.Fig8(),
				"fig9":  sweep.Fig9(),
				"fig10": sweep.Fig10(),
			}
			for _, name := range []string{"fig7", "fig8", "fig9", "fig10"} {
				if want(name) {
					if err := emit(figs[name]); err != nil {
						return err
					}
				}
			}
		}
	}

	if needLoad {
		result, err := experiments.RunLoad(astro, experiments.LoadConfig{})
		if err != nil {
			return err
		}
		for _, r := range result.Runs {
			if !r.Identical {
				return fmt.Errorf("load: %s profile: an admitted answer diverged from the unbatched sequential reference", r.Profile)
			}
			if !r.Stable {
				return fmt.Errorf("load: %s profile unstable: admitted=%d shed=%d errors=%d p95=%.1fms (SLO %.0fms) width=%.2f hints=%v",
					r.Profile, r.Admitted, r.Shed, r.ErrorsOther, r.P95Ms, result.SLOMs, r.AvgWidth, r.RetryAfterHints)
			}
		}
		if err := emit(result.Figure()); err != nil {
			return err
		}
		if err := experiments.WriteLoadJSONFile(loadOut, result); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", loadOut)
	}

	if needParallel {
		for _, wl := range workloads {
			var f11, f12 []*report.Figure
			for _, kind := range []engines.Kind{engines.Scan, engines.XTree} {
				sw, err := experiments.RunParallelSweep(wl.w, sc, kind, wl.model)
				if err != nil {
					return err
				}
				f11 = append(f11, sw.Fig11())
				f12 = append(f12, sw.Fig12())
			}
			if want("fig11") {
				merged, err := experiments.MergeFigures(
					fmt.Sprintf("Figure 11: parallelization speed-up wrt s (%s database)", wl.w.Name), f11...)
				if err != nil {
					return err
				}
				if err := emit(merged); err != nil {
					return err
				}
			}
			if want("fig12") {
				merged, err := experiments.MergeFigures(
					fmt.Sprintf("Figure 12: overall speed-up wrt s (%s database)", wl.w.Name), f12...)
				if err != nil {
					return err
				}
				if err := emit(merged); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// slug converts a figure title into a file name.
func slug(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && !strings.HasSuffix(b.String(), "-"):
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}
