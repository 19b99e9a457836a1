package experiments

import (
	"os"
	"strings"
	"testing"

	"metricdb/internal/cost"
	"metricdb/internal/engines"
)

// testScale is a fast variant for CI: same structure, fewer objects.
func testScale() Scale {
	return Scale{
		Name:         "test",
		AstroN:       6000,
		AstroDim:     20,
		AstroK:       10,
		ImageN:       3000,
		ImageDim:     64,
		ImageK:       20,
		MValues:      []int{1, 10, 50, 100},
		ServerCounts: []int{1, 4, 8},
		BaseM:        50,
		Seed:         1,
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "paper", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
	if PaperScale().AstroN != 1000000 || PaperScale().ImageN != 112000 {
		t.Error("paper scale does not match the original dataset sizes")
	}
}

func TestWorkloads(t *testing.T) {
	sc := testScale()
	astro := Astronomy(sc)
	if len(astro.Items) != sc.AstroN || astro.Dim != 20 {
		t.Fatalf("astronomy workload: %d items, dim %d", len(astro.Items), astro.Dim)
	}
	qs, err := astro.Queries(1, 20)
	if err != nil || len(qs) != 20 {
		t.Fatalf("astro queries: %d, %v", len(qs), err)
	}

	image, err := Image(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(image.Items) != sc.ImageN || image.Dim != 64 {
		t.Fatalf("image workload: %d items, dim %d", len(image.Items), image.Dim)
	}
	iqs, err := image.Queries(2, 20)
	if err != nil || len(iqs) != 20 {
		t.Fatalf("image queries: %d, %v", len(iqs), err)
	}
	// Dependent queries must be mutually close compared to random pairs:
	// they are the m nearest neighbors of one seed object.
	closePairs := 0
	for i := 1; i < len(iqs); i++ {
		if d := iqs[0].Vec.Sub(iqs[i].Vec).Norm(); d < 0.2 {
			closePairs++
		}
	}
	if closePairs < len(iqs)/2 {
		t.Errorf("only %d of %d dependent queries are near the seed", closePairs, len(iqs)-1)
	}
}

// TestSweepReproducesPaperShapes is the core reproduction check for
// Figures 7-10: the qualitative claims of §6.1–6.3 must hold on the
// synthetic substitutes.
func TestSweepReproducesPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	sc := testScale()
	model := cost.PaperModel(20)

	astro := Astronomy(sc)
	sweepA, err := RunSweep(astro, sc.MValues, model)
	if err != nil {
		t.Fatal(err)
	}
	image, err := Image(sc)
	if err != nil {
		t.Fatal(err)
	}
	sweepI, err := RunSweep(image, sc.MValues, cost.PaperModel(64))
	if err != nil {
		t.Fatal(err)
	}

	last := len(sc.MValues) - 1
	for _, sw := range []*Sweep{sweepA, sweepI} {
		// §6.1: the scan's per-query I/O cost drops by a factor of
		// nearly m.
		scanDrop := sw.Scan[0].PagesPerQuery() / sw.Scan[last].PagesPerQuery()
		if scanDrop < float64(sc.MValues[last])*0.9 {
			t.Errorf("%s: scan I/O drop %.1f, want ≈ m = %d", sw.Workload, scanDrop, sc.MValues[last])
		}
		// §6.1: the X-tree's I/O cost per query also drops with m,
		// but by less than the scan's.
		xtreeDrop := sw.XTree[0].PagesPerQuery() / sw.XTree[last].PagesPerQuery()
		if xtreeDrop <= 1 {
			t.Errorf("%s: X-tree I/O did not drop with m (factor %.2f)", sw.Workload, xtreeDrop)
		}
		if xtreeDrop >= scanDrop {
			t.Errorf("%s: X-tree I/O drop (%.1f) not smaller than scan's (%.1f)", sw.Workload, xtreeDrop, scanDrop)
		}
		// §6.2: the triangle inequality reduces the scan's CPU cost
		// per query as m grows.
		cpuDrop := sw.Scan[0].DistCalcsPerQuery() / sw.Scan[last].DistCalcsPerQuery()
		if cpuDrop <= 1.5 {
			t.Errorf("%s: scan CPU drop only %.2f", sw.Workload, cpuDrop)
		}
		// §6.3: the total cost per query decreases with m for both
		// engines (speed-up > 1 at max m).
		fig10 := sw.Fig10()
		for _, series := range fig10.Series {
			if series.Y[last] <= 1 {
				t.Errorf("%s/%s: no total speed-up at m=%d (%.2f)", sw.Workload, series.Name, sc.MValues[last], series.Y[last])
			}
		}
		// §6.1: at m = 1 the X-tree reads fewer pages than the scan.
		if sw.XTree[0].PagesPerQuery() >= sw.Scan[0].PagesPerQuery() {
			t.Errorf("%s: X-tree single query reads %.1f pages, scan %.1f", sw.Workload,
				sw.XTree[0].PagesPerQuery(), sw.Scan[0].PagesPerQuery())
		}
	}

	// §6.2: the CPU reduction is larger on the clustered image data
	// than on the near-uniform astronomy data.
	dropA := sweepA.Scan[0].DistCalcsPerQuery() / sweepA.Scan[last].DistCalcsPerQuery()
	dropI := sweepI.Scan[0].DistCalcsPerQuery() / sweepI.Scan[last].DistCalcsPerQuery()
	if dropI <= dropA {
		t.Errorf("clustered CPU drop (%.1f) not larger than uniform (%.1f)", dropI, dropA)
	}

	// §6.3: for large m the scan overtakes the X-tree in total cost.
	if sweepA.Scan[last].CostPerQuery() >= sweepA.XTree[last].CostPerQuery() {
		t.Errorf("astronomy: scan (%.4fs) did not overtake X-tree (%.4fs) at m=%d",
			sweepA.Scan[last].CostPerQuery(), sweepA.XTree[last].CostPerQuery(), sc.MValues[last])
	}

	// Figures render.
	var b strings.Builder
	if err := sweepA.Fig7().WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 7") {
		t.Error("figure table missing title")
	}
}

// TestParallelSweepShapes covers Figures 11-12: parallel speed-up exceeds 1
// and the overall (fig 12) speed-up exceeds the parallelization-only
// (fig 11) speed-up, because it additionally contains the multi-query gain.
func TestParallelSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel sweep in -short mode")
	}
	sc := testScale()
	sc.ServerCounts = []int{1, 4}
	astro := Astronomy(sc)
	model := cost.PaperModel(20)

	for _, kind := range []engines.Kind{engines.Scan, engines.XTree} {
		sw, err := RunParallelSweep(astro, sc, kind, model)
		if err != nil {
			t.Fatal(err)
		}
		fig11 := sw.Fig11()
		fig12 := sw.Fig12()
		s4 := len(sc.ServerCounts) - 1
		if got := fig11.Series[0].Y[s4]; got <= 1 {
			t.Errorf("%s: parallel speed-up at s=4 is %.2f", sw.Engine, got)
		}
		if fig12.Series[0].Y[s4] < fig11.Series[0].Y[s4] {
			t.Errorf("%s: overall speed-up (%.2f) below parallelization speed-up (%.2f)",
				sw.Engine, fig12.Series[0].Y[s4], fig11.Series[0].Y[s4])
		}
	}
}

// TestMicroFigure checks the figure's shape only. What its ratios must be is
// a wall-clock assertion (it failed once under a loaded `go test ./...`) and
// lives in TestMicroFigureGate.
func TestMicroFigure(t *testing.T) {
	fig := MicroFigure([]int{20, 64})
	if len(fig.Series) != 3 {
		t.Fatalf("micro figure has %d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 2 {
			t.Errorf("series %q has %d points, want one per dimension", s.Name, len(s.Y))
		}
	}
}

// TestMicroFigureGate: §6.2 reports 52x and 155x on 1999 hardware; exact
// values differ on modern CPUs, but a distance calculation must remain much
// more expensive than a comparison, and the ratio must grow with the
// dimensionality. Wall-clock, so `make obsgate` runs it and `go test ./...`
// does not.
func TestMicroFigureGate(t *testing.T) {
	if os.Getenv("METRICDB_OBSGATE") == "" {
		t.Skip("wall-clock gate; run via make obsgate")
	}
	fig := MicroFigure([]int{20, 64})
	ratio20 := fig.Series[2].Y[0]
	ratio64 := fig.Series[2].Y[1]
	if ratio20 < 3 {
		t.Errorf("20-d distance/compare ratio %.1f implausibly small", ratio20)
	}
	if ratio64 <= ratio20 {
		t.Errorf("ratio does not grow with dimension: %.1f vs %.1f", ratio64, ratio20)
	}
}

func TestMergeFigures(t *testing.T) {
	sc := testScale()
	sc.ServerCounts = []int{1, 2}
	sc.BaseM = 10
	sc.AstroN = 1500
	astro := Astronomy(sc)
	model := cost.PaperModel(20)
	a, err := RunParallelSweep(astro, sc, engines.Scan, model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallelSweep(astro, sc, engines.XTree, model)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeFigures("Figure 11 (astronomy)", a.Fig11(), b.Fig11())
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Series) != 2 {
		t.Errorf("merged series = %d", len(merged.Series))
	}
	if _, err := MergeFigures("empty"); err == nil {
		t.Error("empty merge accepted")
	}
}
