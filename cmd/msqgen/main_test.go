package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metricdb"

	"metricdb/internal/dataset"
	"metricdb/internal/store"
)

func TestRunGeneratesAllKinds(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		kind string
		dim  int
	}{
		{"uniform", 6},
		{"nearuniform", 12},
		{"clustered", 8},
	}
	for _, c := range cases {
		out := filepath.Join(dir, c.kind)
		if err := run(out, 0, c.kind, 500, c.dim, 4, 0.05, 4, c.kind == "clustered", 0, 7, "aos", false); err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		items, err := dataset.LoadDir(out)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if len(items) != 500 || items[0].Vec.Dim() != c.dim {
			t.Errorf("%s: %d items of dim %d", c.kind, len(items), items[0].Vec.Dim())
		}
	}
}

// TestRunLayoutsRoundTrip: the aos and soa layouts of one generator run
// load back bit-identical items — the generator's own output, not merely
// each other — and the manifest carries the provenance attrs.
func TestRunLayoutsRoundTrip(t *testing.T) {
	base := t.TempDir()
	aosOut := filepath.Join(base, "ds.aos")
	dirOut := filepath.Join(base, "ds.soa")
	if err := run(aosOut, 0, "clustered", 400, 5, 4, 0.05, 0, false, 0.1, 9, "aos", false); err != nil {
		t.Fatal(err)
	}
	if err := run(dirOut, 16, "clustered", 400, 5, 4, 0.05, 0, false, 0.1, 9, "soa", false); err != nil {
		t.Fatal(err)
	}
	want, err := dataset.Clustered(dataset.ClusteredConfig{Seed: 9, N: 400, Dim: 5, Clusters: 4, Spread: 0.05, NoiseFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{aosOut, dirOut} {
		got, err := dataset.LoadDir(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d items, generator made %d", out, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Label != want[i].Label {
				t.Fatalf("%s: item %d metadata differs", out, i)
			}
			for d := range want[i].Vec {
				if math.Float64bits(got[i].Vec[d]) != math.Float64bits(want[i].Vec[d]) {
					t.Fatalf("%s: item %d coord %d differs from the generator's", out, i, d)
				}
			}
		}
	}
	fd, err := store.OpenFileDisk(dirOut, store.FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close() //nolint:errcheck
	man := fd.Manifest()
	if man.Attrs["kind"] != "clustered" || man.Attrs["seed"] != "9" || man.PageCapacity != 16 || !man.Columnar {
		t.Errorf("manifest provenance: %+v", man)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("", 0, "uniform", 10, 2, 1, 0, 1, false, 0, 1, "aos", false); err == nil {
		t.Error("missing -out accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "x"), 0, "weird", 10, 2, 1, 0, 1, false, 0, 1, "aos", false); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "x"), 0, "nearuniform", 10, 2, 1, 0, 99, false, 0, 1, "aos", false); err == nil {
		t.Error("bad intrinsic dimension accepted")
	}
	for _, removed := range []string{"f32", "quant"} {
		out := filepath.Join(t.TempDir(), "x")
		err := run(out, 0, "uniform", 10, 2, 1, 0, 1, false, 0, 1, removed, false)
		if err == nil || !strings.Contains(err.Error(), "aos, soa") {
			t.Errorf("-layout %s: run returned %v, want an error listing aos, soa", removed, err)
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("-layout %s: a dataset was written before the layout was rejected", removed)
		}
	}
}

// TestAdviceLineSurfacesWarning: an estimator fallback must appear in the
// stdout advice line itself, not only on stderr — a piped consumer must
// never read a silently degraded ranking.
func TestAdviceLineSurfacesWarning(t *testing.T) {
	healthy := metricdb.Advice{Engine: metricdb.EngineXTree, IntrinsicDim: 5.2, Reason: "tree retains selectivity"}
	if got := adviceLine(healthy); !strings.Contains(got, "advice: engine=xtree") || strings.Contains(got, "warning") {
		t.Errorf("healthy advice line wrong: %q", got)
	}
	degraded := healthy
	degraded.Warning = "intrinsic-dimension estimate failed: duplicated data"
	got := adviceLine(degraded)
	if !strings.Contains(got, "warning: intrinsic-dimension estimate failed") {
		t.Errorf("fallback warning missing from advice line: %q", got)
	}
}
