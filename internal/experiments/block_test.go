package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

func TestBlockLayoutsSmall(t *testing.T) {
	sweep, err := RunBlockLayouts([]int{4}, []int{8}, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != 2 {
		t.Fatalf("%d results, want one per layout", len(sweep.Results))
	}
	for _, r := range sweep.Results {
		if !r.Identical || r.DistCalcs != 8*600 || r.NsPerPair <= 0 || r.Speedup <= 0 {
			t.Errorf("%+v", r)
		}
	}
}

// TestBlockAvoidanceSmall runs the avoidance axis at toy size and checks
// what does not depend on the clock: the modes agree on the answers, the
// default resolves by the metric's kernel and then does exactly the work
// of the mode it resolved to, and the lemmas partition the offered pairs.
func TestBlockAvoidanceSmall(t *testing.T) {
	sweep, err := RunBlockAvoidance([]int{8}, []int{8}, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) != 4 {
		t.Fatalf("%d cells, want data × metric = 4", len(sweep.Cells))
	}
	for _, c := range sweep.Cells {
		want := map[string]string{"euclidean": "off", "quadratic-form": "both"}[c.Metric]
		off, both, auto := c.Modes["off"], c.Modes["both"], c.Modes["auto"]
		if !c.Identical || c.Resolved != want {
			t.Errorf("%s/%s: identical %v, resolved %q (want %q)", c.Data, c.Metric, c.Identical, c.Resolved, want)
		}
		if res := c.Modes[c.Resolved]; auto.DistCalcs != res.DistCalcs || auto.Avoided != res.Avoided {
			t.Errorf("%s/%s: auto did %+v, %s did %+v", c.Data, c.Metric, auto, c.Resolved, res)
		}
		if off.Avoided != 0 || both.Avoided == 0 || both.DistCalcs+both.Avoided != off.DistCalcs {
			t.Errorf("%s/%s: off %+v, both %+v", c.Data, c.Metric, off, both)
		}
		if c.BothOverOff <= 0 || c.AutoOverBest <= 0 {
			t.Errorf("%s/%s: ratios %v, %v", c.Data, c.Metric, c.BothOverOff, c.AutoOverBest)
		}
	}
}

// TestCommittedBlockArtifactShowsTheRule reads the committed measurement,
// not the clock: in every cell of BENCH_block.json's avoidance axis the
// default mode is within 10 % of the faster explicit mode, both lemmas win
// every quadratic-form cell, and no lemmas win every Euclidean cell up to
// dim 64. (At dim 128 the two are within a few per cent of each other on the
// clustered data at m = 100 — EXPERIMENTS, "When the lemmas run" — which the
// 10 % bound covers.) A re-generated artifact that breaks this means the
// rule in msq.New needs changing, not this test.
func TestCommittedBlockArtifactShowsTheRule(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_block.json")
	if err != nil {
		t.Fatal(err)
	}
	var sweep BlockSweep
	if err := json.Unmarshal(data, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Avoidance == nil || len(sweep.Avoidance.Cells) == 0 {
		t.Fatal("BENCH_block.json has no avoidance axis")
	}
	for _, c := range sweep.Avoidance.Cells {
		if !c.Identical {
			t.Errorf("%+v: modes disagreed on the answers", c)
		}
		if c.AutoOverBest > 1.10 {
			t.Errorf("%s/%s d=%d m=%d: auto is %.2f× the faster explicit mode", c.Data, c.Metric, c.Dim, c.M, c.AutoOverBest)
		}
		switch c.Metric {
		case "quadratic-form":
			if c.Resolved != "both" || c.BothOverOff >= 1 {
				t.Errorf("%s/%s d=%d m=%d: resolved %s, both/off %.2f", c.Data, c.Metric, c.Dim, c.M, c.Resolved, c.BothOverOff)
			}
		case "euclidean":
			if c.Resolved != "off" || (c.Dim <= 64 && c.BothOverOff <= 1) {
				t.Errorf("%s/%s d=%d m=%d: resolved %s, both/off %.2f", c.Data, c.Metric, c.Dim, c.M, c.Resolved, c.BothOverOff)
			}
		}
	}
}
