package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestRunKernelsSmoke runs a miniature kernel sweep and checks the
// artifact's structural invariants: one result per (metric, dim, rate),
// sane timings, an observed abandon rate tracking the target, and a
// round-trippable JSON encoding.
func TestRunKernelsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing loop too slow for -short")
	}
	dims := []int{4}
	rates := []float64{0, 0.95}
	sweep, err := RunKernels(dims, rates, 64)
	if err != nil {
		t.Fatal(err)
	}
	const nMetrics = 5
	if got, want := len(sweep.Results), nMetrics*len(dims)*len(rates); got != want {
		t.Fatalf("got %d results, want %d", got, want)
	}
	for _, r := range sweep.Results {
		if r.FullNsPerOp <= 0 || r.BoundedNsPerOp <= 0 || r.WallRatio <= 0 {
			t.Fatalf("%s/d=%d/rate=%g: non-positive timing %+v", r.Metric, r.Dim, r.AbandonRate, r)
		}
		if math.Abs(r.ObservedAbandonRate-r.AbandonRate) > 0.1 {
			t.Fatalf("%s/d=%d: observed abandon rate %g far from target %g",
				r.Metric, r.Dim, r.ObservedAbandonRate, r.AbandonRate)
		}
	}
	var buf bytes.Buffer
	if err := WriteKernelsJSON(&buf, sweep); err != nil {
		t.Fatal(err)
	}
	var back KernelSweep
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(sweep.Results) {
		t.Fatalf("JSON round trip lost results: %d != %d", len(back.Results), len(sweep.Results))
	}
}
