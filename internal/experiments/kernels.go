package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"metricdb/internal/report"
	"metricdb/internal/vec"
)

// The kernels experiment measures the bounded distance kernels in
// isolation: full Distance against DistanceWithin over the same pair set,
// across metrics, dimensionalities and abandon rates. The abandon rate is
// induced by choosing the limit as the matching quantile of the pair
// distance distribution — "0.95" means ~95% of evaluations exceed the
// limit and abandon mid-vector, the regime the multi-query hot path sees
// when most offered items are far outside a query's pruning bound. Rate 0
// uses an infinite limit and so measures the bounded kernel's bookkeeping
// overhead when the bound never resolves anything. The results are the
// BENCH_kernels.json artifact.

// KernelResult is one (metric, dim, rate) measurement.
type KernelResult struct {
	Metric      string  `json:"metric"`
	Dim         int     `json:"dim"`
	AbandonRate float64 `json:"abandon_rate"` // target fraction of abandoned evaluations
	// ObservedAbandonRate is the fraction of benchmark evaluations the
	// chosen limit actually abandoned (quantile granularity makes it
	// differ slightly from the target).
	ObservedAbandonRate float64 `json:"observed_abandon_rate"`
	FullNsPerOp         float64 `json:"full_ns_per_op"`
	BoundedNsPerOp      float64 `json:"bounded_ns_per_op"`
	// WallRatio is FullNsPerOp / BoundedNsPerOp, a ratio of wall clocks:
	// > 1 means the bounded kernel beats the full calculation at this
	// abandon rate.
	WallRatio float64 `json:"wall_ratio"`
}

// KernelSweep is the full kernel measurement set.
type KernelSweep struct {
	Dims    []int          `json:"dims"`
	Rates   []float64      `json:"abandon_rates"`
	Pairs   int            `json:"pairs"`
	Results []KernelResult `json:"results"`
}

type kernelPair struct{ a, b vec.Vector }

// kernelMetrics returns the metrics with native bounded kernels; the
// weighted metric needs per-dimension weights, so construction is
// dimension-bound.
func kernelMetrics(dim int, rng *rand.Rand) ([]vec.BoundedMetric, error) {
	mink3, err := vec.NewMinkowski(3)
	if err != nil {
		return nil, err
	}
	weights := make(vec.Vector, dim)
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()
	}
	we, err := vec.NewWeightedEuclidean(weights)
	if err != nil {
		return nil, err
	}
	return []vec.BoundedMetric{
		vec.Euclidean{}, vec.Manhattan{}, vec.Chebyshev{}, mink3, we,
	}, nil
}

// RunKernels measures every metric at the given dimensionalities and
// abandon rates over nPairs fixed-seed random pairs per configuration.
func RunKernels(dims []int, rates []float64, nPairs int) (*KernelSweep, error) {
	sweep := &KernelSweep{Dims: dims, Rates: rates, Pairs: nPairs}
	for _, dim := range dims {
		rng := rand.New(rand.NewSource(int64(7000 + dim)))
		metrics, err := kernelMetrics(dim, rng)
		if err != nil {
			return nil, err
		}
		// The pair set models the hot-path distance distribution: a
		// minority of near pairs — the items that set a query's pruning
		// bound — and a majority of far pairs, the items a page scan
		// offers that the bound rejects. A quantile limit then lands at
		// near-pair scale, the way a k-NN radius does, instead of at the
		// concentrated mean distance of iid random pairs (where high-dim
		// concentration of measure would let every partial sum run almost
		// to the end of the vector before crossing the bound).
		pairs := make([]kernelPair, nPairs)
		for i := range pairs {
			a, b := randVec(rng, dim), randVec(rng, dim)
			if rng.Float64() < 0.3 {
				for j := range b {
					b[j] = a[j] + 0.15*b[j]
				}
			}
			pairs[i] = kernelPair{a, b}
		}
		for _, m := range metrics {
			ds := make([]float64, nPairs)
			for i, p := range pairs {
				ds[i] = m.Distance(p.a, p.b)
			}
			sorted := append([]float64(nil), ds...)
			sort.Float64s(sorted)

			fullNs := timeKernel(nPairs, func(i int) {
				p := pairs[i]
				kernelSinkF = m.Distance(p.a, p.b)
			})
			for _, rate := range rates {
				limit := math.Inf(1)
				if rate > 0 {
					idx := int(float64(nPairs) * (1 - rate))
					if idx >= nPairs {
						idx = nPairs - 1
					}
					limit = sorted[idx]
				}
				abandoned := 0
				for _, d := range ds {
					if d > limit {
						abandoned++
					}
				}
				boundedNs := timeKernel(nPairs, func(i int) {
					p := pairs[i]
					kernelSinkF, kernelSinkB = m.DistanceWithin(p.a, p.b, limit)
				})
				sweep.Results = append(sweep.Results, KernelResult{
					Metric:              m.Name(),
					Dim:                 dim,
					AbandonRate:         rate,
					ObservedAbandonRate: float64(abandoned) / float64(nPairs),
					FullNsPerOp:         fullNs,
					BoundedNsPerOp:      boundedNs,
					WallRatio:           fullNs / boundedNs,
				})
			}
		}
	}
	return sweep, nil
}

var (
	kernelSinkF float64
	kernelSinkB bool
)

func randVec(rng *rand.Rand, dim int) vec.Vector {
	v := make(vec.Vector, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// timeKernel measures fn's mean ns per call: fn is cycled over [0, nPairs)
// until the measured run lasts long enough to dominate timer granularity.
// The best of three runs is reported, the standard remedy against
// scheduling noise in short microbenchmarks.
func timeKernel(nPairs int, fn func(i int)) float64 {
	const minDur = 20 * time.Millisecond
	iters := nPairs
	for {
		start := time.Now()
		for i, j := 0, 0; i < iters; i++ {
			fn(j)
			if j++; j == nPairs {
				j = 0
			}
		}
		if elapsed := time.Since(start); elapsed >= minDur {
			best := elapsed
			for run := 0; run < 2; run++ {
				start = time.Now()
				for i, j := 0, 0; i < iters; i++ {
					fn(j)
					if j++; j == nPairs {
						j = 0
					}
				}
				if e := time.Since(start); e < best {
					best = e
				}
			}
			return float64(best.Nanoseconds()) / float64(iters)
		}
		iters *= 4
	}
}

// Figure renders the sweep as the wall ratio per abandon rate, one series per
// (metric, dim) at the largest dim for readability.
func (s *KernelSweep) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  "Bounded-kernel speed-up wrt abandon rate",
		XLabel: "abandon rate",
		YLabel: "wall ratio (full / bounded ns per op)",
	}
	for _, r := range s.Rates {
		fig.XVals = append(fig.XVals, r)
	}
	bySeries := map[string][]float64{}
	var order []string
	for _, r := range s.Results {
		key := fmt.Sprintf("%s d=%d", r.Metric, r.Dim)
		if _, ok := bySeries[key]; !ok {
			order = append(order, key)
		}
		bySeries[key] = append(bySeries[key], r.WallRatio)
	}
	for _, name := range order {
		fig.AddSeries(name, bySeries[name]) //nolint:errcheck // lengths match by construction
	}
	return fig
}

// WriteKernelsJSON writes the sweep as an indented JSON document (the
// BENCH_kernels.json artifact).
func WriteKernelsJSON(w io.Writer, sweep *KernelSweep) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sweep)
}

// WriteKernelsJSONFile writes the artifact to path.
func WriteKernelsJSONFile(path string, sweep *KernelSweep) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteKernelsJSON(f, sweep); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	return f.Close()
}
