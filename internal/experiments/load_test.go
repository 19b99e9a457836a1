package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCommittedLoadArtifactHoldsTheSLO reads the committed measurement, not
// the clock: in BENCH_load.json every profile answered exactly as the
// unbatched reference, stayed within the SLO and shed only with retry-after
// hints, and the sustained-overload profile both shed and formed batches
// wider than one caller. A re-generated artifact that breaks this means
// admission control regressed, not this test.
func TestCommittedLoadArtifactHoldsTheSLO(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_load.json")
	if err != nil {
		t.Fatal(err)
	}
	var result LoadResult
	if err := json.Unmarshal(data, &result); err != nil {
		t.Fatal(err)
	}
	if len(result.Runs) == 0 || result.SLOMs <= 0 {
		t.Fatalf("BENCH_load.json has %d runs and SLO %v ms", len(result.Runs), result.SLOMs)
	}
	var overload bool
	for _, r := range result.Runs {
		if !r.Identical || !r.Stable || !r.RetryAfterHints {
			t.Errorf("%s: identical %v, stable %v, retry-after hints %v", r.Profile, r.Identical, r.Stable, r.RetryAfterHints)
		}
		if r.P95Ms > result.SLOMs {
			t.Errorf("%s: p95 %.3f ms over the %.0f ms SLO", r.Profile, r.P95Ms, result.SLOMs)
		}
		if r.Profile == "overload" {
			overload = true
			if r.Shed == 0 || r.AvgWidth <= 1 {
				t.Errorf("overload: shed %d, average width %.2f; want sheds and width > 1", r.Shed, r.AvgWidth)
			}
		}
	}
	if !overload {
		t.Error("BENCH_load.json has no overload profile")
	}
}
