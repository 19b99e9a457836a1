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
		if err := run(out, 0, c.kind, 500, c.dim, 4, 0.05, 4, c.kind == "clustered", 0, 7, false); err != nil {
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

// TestRunLayoutsRoundTrip: a generator run loads back bit-identical items
// (the generator's own output, not merely a stable one) from a version-1
// dataset whose manifest carries the provenance attrs.
func TestRunLayoutsRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds")
	if err := run(out, 16, "clustered", 400, 5, 4, 0.05, 0, false, 0.1, 9, false); err != nil {
		t.Fatal(err)
	}
	want, err := dataset.Clustered(dataset.ClusteredConfig{Seed: 9, N: 400, Dim: 5, Clusters: 4, Spread: 0.05, NoiseFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dataset.LoadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d items, generator made %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Label != want[i].Label {
			t.Fatalf("item %d metadata differs", i)
		}
		for d := range want[i].Vec {
			if math.Float64bits(got[i].Vec[d]) != math.Float64bits(want[i].Vec[d]) {
				t.Fatalf("item %d coord %d differs from the generator's", i, d)
			}
		}
	}
	fd, err := store.OpenFileDisk(out, store.FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close() //nolint:errcheck
	man := fd.Manifest()
	if man.Attrs["kind"] != "clustered" || man.Attrs["seed"] != "9" || man.PageCapacity != 16 ||
		man.Version != store.FormatVersion || man.Columnar {
		t.Errorf("manifest provenance: %+v", man)
	}
}

// TestRunValidation: a mistake in the flags is an error naming it, and
// nothing is written: not a dataset, not a directory.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		name, kind string
		n, dim     int
		intrinsic  int
		spread     float64
		want       string
	}{
		{"unknown kind", "weird", 10, 2, 1, 0, "unknown kind"},
		{"bad intrinsic", "nearuniform", 10, 2, 99, 0, "intrinsic"},
		{"negative n", "uniform", -1, 2, 1, 0, "-n must be at least 1"},
		{"zero n", "uniform", 0, 2, 1, 0, "-n must be at least 1"},
		{"negative dim", "uniform", 10, -3, 1, 0, "-dim must be at least 1"},
		{"zero dim", "uniform", 10, 0, 1, 0, "-dim must be at least 1"},
		{"NaN spread", "clustered", 10, 2, 1, math.NaN(), "coordinate NaN"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "x")
			err := run(out, 0, c.kind, c.n, c.dim, 1, c.spread, c.intrinsic, false, 0, 1, false)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run returned %v, want an error containing %q", err, c.want)
			}
			if _, serr := os.Stat(out); serr == nil {
				t.Errorf("%s was created before the mistake was reported", out)
			}
		})
	}
	if err := run("", 0, "uniform", 10, 2, 1, 0, 1, false, 0, 1, false); err == nil {
		t.Error("missing -out accepted")
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
