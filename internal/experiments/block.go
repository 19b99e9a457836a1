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

	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/report"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The block experiment measures the columnar page layout end to end: the
// wall-clock page-pass throughput of one m-query batch on the scan engine
// as (dimensionality × batch width × layout) varies, always re-checking
// the layout contract on the measured runs themselves — SoA bit-identical
// to AoS in answers and counters at pipeline widths 1, 2 and 8. Avoidance
// is off: that is the regime where the row kernels engage
// (and the regime Figure 8 uses as its no-avoidance baseline), so the
// measurement isolates the layout effect from the lemmas. The results are
// the BENCH_block.json artifact.

// BlockResult is one (dim, m, layout) measurement.
type BlockResult struct {
	Dim    int    `json:"dim"`
	M      int    `json:"m"`
	Layout string `json:"layout"`
	// NsPerPair is wall time per (query, item) pair of the sequential
	// page pass (machine-dependent; not judged by benchcompare).
	NsPerPair float64 `json:"ns_per_pair"`
	// Speedup is the AoS row's NsPerPair over this row's: > 1 means the
	// layout beats AoS at this configuration. The AoS row itself is 1.
	Speedup float64 `json:"speedup"`
	// DistCalcs is the sequential run's deterministic kernel count.
	DistCalcs int64 `json:"dist_calcs"`
	// Identical reports the layout's correctness contract against the
	// sequential AoS reference, checked at widths 1, 2 and 8: answers and
	// page reads bit-identical.
	Identical bool `json:"identical"`
}

// BlockSweep is the full layout measurement set.
type BlockSweep struct {
	N            int           `json:"n"`
	PageCapacity int           `json:"page_capacity"`
	Dims         []int         `json:"dims"`
	MValues      []int         `json:"m_values"`
	Layouts      []string      `json:"layouts"`
	Results      []BlockResult `json:"results"`
}

const blockCapacity = 256

var blockWidths = []int{1, 2, 8}

// blockLayouts maps the sweep's layout axis onto processor layout and the
// page representation the engine materializes.
var blockLayouts = []struct {
	name   string
	layout msq.Layout
	spec   store.ColumnSpec
}{
	{"aos", msq.LayoutAoS, store.ColumnSpec{}},
	{"soa", msq.LayoutSoA, store.ColumnSpec{Columnar: true}},
}

func blockItems(seed int64, n, dim int) []store.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]store.Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v}
	}
	return items
}

// blockEps picks the range radius as a low quantile of sampled
// query-to-item distances, so each query answers a small fraction of the
// database and the pruning bound is finite from the first page — the
// regime the multi-query page pass actually runs in.
func blockEps(rng *rand.Rand, items []store.Item, dim int) float64 {
	const samples = 512
	m := vec.Euclidean{}
	q := make(vec.Vector, dim)
	ds := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		for j := range q {
			q[j] = rng.Float64()
		}
		ds = append(ds, m.Distance(q, items[rng.Intn(len(items))].Vec))
	}
	sort.Float64s(ds)
	return ds[samples/100] // ~1% selectivity
}

func blockQueries(rng *rand.Rand, m, dim int, eps float64) []msq.Query {
	queries := make([]msq.Query, m)
	for i := range queries {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		queries[i] = msq.Query{ID: uint64(i), Vec: v, Type: query.NewRange(eps)}
	}
	return queries
}

type blockRun struct {
	answers [][]query.Answer
	stats   msq.Stats
}

func blockEval(proc *msq.Processor, queries []msq.Query) (blockRun, error) {
	lists, stats, err := proc.NewSession().MultiQueryAll(queries)
	if err != nil {
		return blockRun{}, err
	}
	r := blockRun{stats: stats}
	for _, l := range lists {
		r.answers = append(r.answers, append([]query.Answer(nil), l.Answers()...))
	}
	return r, nil
}

// blockIdentical checks the layout's contract against the AoS reference:
// exact equality of answers and page reads.
func blockIdentical(ref, got blockRun) bool {
	if len(ref.answers) != len(got.answers) {
		return false
	}
	for q := range ref.answers {
		if len(ref.answers[q]) != len(got.answers[q]) {
			return false
		}
		for i := range ref.answers[q] {
			if ref.answers[q][i] != got.answers[q][i] {
				return false
			}
		}
	}
	return got.stats.PagesRead == ref.stats.PagesRead && got.stats.PageVisits == ref.stats.PageVisits
}

// timeBatch reports the best wall time of fn over enough repetitions to
// dominate timer granularity.
func timeBatch(fn func() error) (time.Duration, error) {
	const minRuns, minDur = 3, 150 * time.Millisecond
	best := time.Duration(math.MaxInt64)
	total := time.Duration(0)
	for runs := 0; runs < minRuns || total < minDur; runs++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		total += elapsed
		if elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

// RunBlockLayouts sweeps dim × m × layout on the scan engine over n
// fixed-seed uniform items per dimensionality.
func RunBlockLayouts(dims, ms []int, n int) (*BlockSweep, error) {
	sweep := &BlockSweep{N: n, PageCapacity: blockCapacity, Dims: dims, MValues: ms,
		Layouts: []string{"aos", "soa"}}
	for _, dim := range dims {
		rng := rand.New(rand.NewSource(int64(9000 + dim)))
		items := blockItems(int64(7000+dim), n, dim)
		eps := blockEps(rng, items, dim)

		for _, m := range ms {
			queries := blockQueries(rng, m, dim, eps)
			var aosRef blockRun
			var aosNsPerPair float64
			for _, lay := range blockLayouts {
				// A fresh engine per evaluated run keeps the buffer cold,
				// so PagesRead of independent runs is comparable (the
				// convention of the differential harness).
				freshProc := func(width int) (*msq.Processor, error) {
					eng, err := scan.NewWithConfig(items, scan.Config{
						PageCapacity: blockCapacity,
						BufferPages:  (n + blockCapacity - 1) / blockCapacity,
						Columns:      lay.spec,
					})
					if err != nil {
						return nil, err
					}
					return msq.New(eng, vec.Euclidean{}, msq.Options{
						Avoidance: msq.AvoidOff, Concurrency: width, Layout: lay.layout})
				}

				proc, err := freshProc(1)
				if err != nil {
					return nil, err
				}
				ref, err := blockEval(proc, queries)
				if err != nil {
					return nil, err
				}
				res := BlockResult{Dim: dim, M: m, Layout: lay.name,
					DistCalcs: ref.stats.DistCalcs, Identical: true}
				if lay.name == "aos" {
					aosRef = ref
				}
				if !blockIdentical(aosRef, ref) {
					res.Identical = false
				}
				for _, width := range blockWidths[1:] {
					wproc, err := freshProc(width)
					if err != nil {
						return nil, err
					}
					run, err := blockEval(wproc, queries)
					if err != nil {
						return nil, err
					}
					if !blockIdentical(aosRef, run) {
						res.Identical = false
					}
				}

				// Timing reuses proc's engine: after the reference run its
				// buffer holds the whole dataset, so the measurement is the
				// pure CPU page pass, layout against layout.
				elapsed, err := timeBatch(func() error {
					_, _, err := proc.NewSession().MultiQueryAll(queries)
					return err
				})
				if err != nil {
					return nil, err
				}
				pairs := float64(n) * float64(m)
				res.NsPerPair = float64(elapsed.Nanoseconds()) / pairs
				if lay.name == "aos" {
					aosNsPerPair = res.NsPerPair
					res.Speedup = 1
				} else {
					res.Speedup = aosNsPerPair / res.NsPerPair
				}
				sweep.Results = append(sweep.Results, res)
			}
		}
	}
	return sweep, nil
}

// Figure renders the sweep as layout speedup over AoS against the batch
// width, one series per (layout, dim), AoS omitted (identically 1).
func (s *BlockSweep) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Columnar layout speed-up wrt m (scan, n=%d)", s.N),
		XLabel: "m (queries per batch)",
		YLabel: "AoS ns/pair over layout ns/pair",
	}
	for _, m := range s.MValues {
		fig.XVals = append(fig.XVals, float64(m))
	}
	bySeries := map[string][]float64{}
	var order []string
	for _, r := range s.Results {
		if r.Layout == "aos" {
			continue
		}
		key := fmt.Sprintf("%s d=%d", r.Layout, r.Dim)
		if _, ok := bySeries[key]; !ok {
			order = append(order, key)
		}
		bySeries[key] = append(bySeries[key], r.Speedup)
	}
	for _, name := range order {
		fig.AddSeries(name, bySeries[name]) //nolint:errcheck // lengths match by construction
	}
	return fig
}

// WriteBlockJSON writes the sweep as an indented JSON document (the
// BENCH_block.json artifact).
func WriteBlockJSON(w io.Writer, sweep *BlockSweep) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sweep)
}

// WriteBlockJSONFile writes the artifact to path.
func WriteBlockJSONFile(path string, sweep *BlockSweep) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBlockJSON(f, sweep); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	return f.Close()
}
