package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"metricdb/internal/dataset"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/report"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The block experiment measures the page pass end to end on the scan
// engine, along two axes; the results are the BENCH_block.json artifact.
//
// The layout axis is the wall-clock throughput of one m-query batch as
// (dimensionality × batch width × page layout) varies, always re-checking
// the layout contract on the measured runs themselves — SoA bit-identical
// to AoS in answers and counters. Avoidance
// is off, so both layouts take the blocked row body and what is left to
// measure is the page materialization.
//
// The avoidance axis (RunBlockAvoidance) is the evidence behind
// msq.AvoidAuto: the same batch under the default mode, both lemmas and no
// lemmas, for a metric with an early-abandoning kernel and one whose every
// distance is a full O(d²) calculation.

// BlockResult is one (dim, m, layout) measurement.
type BlockResult struct {
	Dim    int    `json:"dim"`
	M      int    `json:"m"`
	Layout string `json:"layout"`
	// NsPerPair is wall time per (query, item) pair of the
	// page pass (machine-dependent).
	NsPerPair float64 `json:"ns_per_pair"`
	// Speedup is the AoS row's wall time over this row's (the median of the
	// in-run ratios): > 1 means the layout beats AoS at this configuration.
	// The AoS row itself is 1.
	Speedup float64 `json:"speedup"`
	// DistCalcs is the reference run's deterministic kernel count.
	DistCalcs int64 `json:"dist_calcs"`
	// Identical reports the layout's correctness contract against the
	// AoS reference: answers and page reads bit-identical.
	Identical bool `json:"identical"`
}

// BlockSweep is the full measurement set: the layout axis, and the
// avoidance axis when it was run.
type BlockSweep struct {
	N            int             `json:"n"`
	PageCapacity int             `json:"page_capacity"`
	Dims         []int           `json:"dims"`
	MValues      []int           `json:"m_values"`
	Layouts      []string        `json:"layouts"`
	Results      []BlockResult   `json:"results"`
	Avoidance    *AvoidanceSweep `json:"avoidance,omitempty"`
}

const blockCapacity = 256

// blockLayouts maps the sweep's layout axis onto the page representation
// the engine materializes.
var blockLayouts = []struct {
	name string
	spec store.ColumnSpec
}{
	{"aos", store.ColumnSpec{}},
	{"soa", store.ColumnSpec{Columnar: true}},
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
	return blockSameAnswers(ref.answers, got.answers) &&
		got.stats.PagesRead == ref.stats.PagesRead && got.stats.PageVisits == ref.stats.PageVisits
}

func blockSameAnswers(ref, got [][]query.Answer) bool {
	if len(ref) != len(got) {
		return false
	}
	for q := range ref {
		if len(ref[q]) != len(got[q]) {
			return false
		}
		for i := range ref[q] {
			if ref[q][i] != got[q][i] {
				return false
			}
		}
	}
	return true
}

// timeTurns runs the functions in turn, for at least minTurns turns and
// enough of them to dominate timer granularity, and returns every turn's
// times, one per function. The functions of one turn run within
// milliseconds of each other, so a disturbance on the machine that lasts
// longer than a turn — on a shared runner they last seconds — lands on all
// of them alike: a ratio taken inside a turn is an in-run ratio, and the
// median of the turns' ratios (medianRatio) is what the artifacts report.
func timeTurns(minTurns int, fns ...func() error) ([][]time.Duration, error) {
	const minDur = 150 * time.Millisecond
	var turns [][]time.Duration
	total := time.Duration(0)
	for len(turns) < minTurns || total < minDur*time.Duration(len(fns)) {
		turn := make([]time.Duration, len(fns))
		for i, fn := range fns {
			start := time.Now()
			if err := fn(); err != nil {
				return nil, err
			}
			turn[i] = time.Since(start)
			total += turn[i]
		}
		turns = append(turns, turn)
	}
	return turns, nil
}

// fastest is function i's fastest turn.
func fastest(turns [][]time.Duration, i int) time.Duration {
	best := turns[0][i]
	for _, turn := range turns {
		if turn[i] < best {
			best = turn[i]
		}
	}
	return best
}

// medianRatio is the median over the turns of ratio(turn).
func medianRatio(turns [][]time.Duration, ratio func(turn []time.Duration) float64) float64 {
	rs := make([]float64, len(turns))
	for t, turn := range turns {
		rs[t] = ratio(turn)
	}
	sort.Float64s(rs)
	if n := len(rs); n%2 == 0 {
		return (rs[n/2-1] + rs[n/2]) / 2
	}
	return rs[len(rs)/2]
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
			results := make([]BlockResult, len(blockLayouts))
			timed := make([]func() error, len(blockLayouts))
			for i, lay := range blockLayouts {
				// A fresh engine per layout keeps the buffer cold, so
				// PagesRead of the two reference runs is comparable (the
				// convention of the differential harness).
				eng, err := scan.NewWithConfig(items, scan.Config{
					PageCapacity: blockCapacity,
					BufferPages:  (n + blockCapacity - 1) / blockCapacity,
					Columns:      lay.spec,
				})
				if err != nil {
					return nil, err
				}
				proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{Avoidance: msq.AvoidOff})
				if err != nil {
					return nil, err
				}
				ref, err := blockEval(proc, queries)
				if err != nil {
					return nil, err
				}
				if lay.name == "aos" {
					aosRef = ref
				}
				results[i] = BlockResult{Dim: dim, M: m, Layout: lay.name,
					DistCalcs: ref.stats.DistCalcs, Identical: blockIdentical(aosRef, ref)}
				// Timing reuses proc's engine: after the reference run its
				// buffer holds the whole dataset, so the measurement is the
				// pure CPU page pass, layout against layout.
				timed[i] = func() error {
					_, _, err := proc.NewSession().MultiQueryAll(queries)
					return err
				}
			}
			turns, err := timeTurns(5, timed...)
			if err != nil {
				return nil, err
			}
			for i := range results {
				results[i].NsPerPair = float64(fastest(turns, i).Nanoseconds()) / (float64(n) * float64(m))
				results[i].Speedup = medianRatio(turns, func(turn []time.Duration) float64 {
					return float64(turn[0]) / float64(turn[i]) // blockLayouts[0] is AoS
				})
			}
			sweep.Results = append(sweep.Results, results...)
		}
	}
	return sweep, nil
}

// AvoidanceSweep is the avoidance axis of the block experiment: one cell per
// (data, metric, dim, m), each measured under three modes.
type AvoidanceSweep struct {
	N       int             `json:"n"`
	K       int             `json:"k"`
	Data    []string        `json:"data"`
	Metrics []string        `json:"metrics"`
	Dims    []int           `json:"dims"`
	MValues []int           `json:"m_values"`
	Cells   []AvoidanceCell `json:"cells"`
}

// AvoidanceCell is one (data, metric, dim, m) batch of k-NN queries, drawn
// from the database like the paper's, under msq.AvoidAuto, AvoidBoth and
// AvoidOff on one warm engine. The two ratios are medians of in-run ratios
// (timeTurns), so they are scale-free.
type AvoidanceCell struct {
	Data   string `json:"data"`
	Metric string `json:"metric"`
	Dim    int    `json:"dim"`
	M      int    `json:"m"`
	// Resolved is the mode the default-constructed processor reports.
	Resolved string `json:"resolved"`
	// BothOverOff is AvoidBoth's wall time over AvoidOff's: above 1 the
	// lemmas cost more than they save, below 1 they pay.
	BothOverOff float64 `json:"both_over_off"`
	// AutoOverBest is AvoidAuto's wall time over that of the explicit mode
	// BothOverOff names the faster: 1 when the rule picked the winner.
	AutoOverBest float64 `json:"auto_over_best"`
	// Modes holds each mode's measurement, keyed "auto", "both", "off".
	Modes map[string]AvoidanceRun `json:"modes"`
	// Identical reports that every timed run of every mode returned the
	// answers of the first AvoidOff run.
	Identical bool `json:"identical"`
}

// AvoidanceRun is one mode's share of a cell.
type AvoidanceRun struct {
	NsPerPair float64 `json:"ns_per_pair"`
	DistCalcs int64   `json:"dist_calcs"`
	Avoided   int64   `json:"avoided"`
}

var blockAvoidModes = []struct {
	name string
	mode msq.AvoidanceMode
}{{"off", msq.AvoidOff}, {"both", msq.AvoidBoth}, {"auto", msq.AvoidAuto}}

// blockAvoidData are the two data shapes of the paper's evaluation, as the
// other experiments substitute them: cluster-free vectors of low intrinsic
// dimensionality (the astronomy catalogue) and a tight Gaussian mixture (the
// image database). How often a lemma fires depends on the shape — on the
// mixture a first probe disposes of most cross-cluster pairs — so the rule
// is shown on both.
var blockAvoidData = []struct {
	name string
	make func(seed int64, n, dim int) ([]store.Item, error)
}{
	{"near-uniform", func(seed int64, n, dim int) ([]store.Item, error) {
		return dataset.NearUniform(seed, n, dim, 8, 0.01)
	}},
	{"clustered", func(seed int64, n, dim int) ([]store.Item, error) {
		return dataset.Clustered(dataset.ClusteredConfig{Seed: seed, N: n, Dim: dim, Clusters: 8})
	}},
}

// RunBlockAvoidance sweeps data × metric × dim × m over n items per
// dimensionality, k-NN batches of database objects.
func RunBlockAvoidance(dims, ms []int, n int) (*AvoidanceSweep, error) {
	const k = 10
	sweep := &AvoidanceSweep{N: n, K: k, Metrics: []string{"euclidean", "quadratic-form"}, Dims: dims, MValues: ms}
	for _, data := range blockAvoidData {
		sweep.Data = append(sweep.Data, data.name)
		for _, dim := range dims {
			items, err := data.make(int64(7100+dim), n, dim)
			if err != nil {
				return nil, err
			}
			hist, err := vec.HistogramSimilarityMatrix(dim, 4)
			if err != nil {
				return nil, err
			}
			qf, err := vec.NewQuadraticForm(dim, hist)
			if err != nil {
				return nil, err
			}
			for _, metric := range []vec.Metric{vec.Euclidean{}, qf} {
				for _, m := range ms {
					picks, err := dataset.SampleQueries(int64(9100+dim+m), items, m)
					if err != nil {
						return nil, err
					}
					cell, err := blockAvoidanceCell(items, metric, toQueries(picks, k))
					if err != nil {
						return nil, err
					}
					cell.Data, cell.Dim = data.name, dim
					sweep.Cells = append(sweep.Cells, cell)
				}
			}
		}
	}
	return sweep, nil
}

func blockAvoidanceCell(items []store.Item, metric vec.Metric, queries []msq.Query) (AvoidanceCell, error) {
	n := len(items)
	cell := AvoidanceCell{Metric: metric.Name(), M: len(queries), Modes: map[string]AvoidanceRun{}, Identical: true}
	// One engine for the three processors: they read the same pages at the
	// same addresses, so the mode is the only thing that differs.
	eng, err := scan.NewWithConfig(items, scan.Config{
		PageCapacity: blockCapacity,
		BufferPages:  (n + blockCapacity - 1) / blockCapacity,
	})
	if err != nil {
		return cell, err
	}
	var ref [][]query.Answer
	timed := make([]func() error, len(blockAvoidModes))
	for i, am := range blockAvoidModes {
		proc, err := msq.New(eng, metric, msq.Options{Avoidance: am.mode})
		if err != nil {
			return cell, err
		}
		if am.mode == msq.AvoidAuto {
			cell.Resolved = proc.Options().Avoidance.String()
		}
		// An untimed run fills the buffer and supplies the counters and,
		// from AvoidOff, the reference answers.
		first, err := blockEval(proc, queries)
		if err != nil {
			return cell, err
		}
		if i == 0 {
			ref = first.answers
		}
		cell.Modes[am.name] = AvoidanceRun{DistCalcs: first.stats.DistCalcs, Avoided: first.stats.Avoided}
		cell.Identical = cell.Identical && blockSameAnswers(ref, first.answers)
		timed[i] = func() error {
			run, err := blockEval(proc, queries)
			cell.Identical = cell.Identical && err == nil && blockSameAnswers(ref, run.answers)
			return err
		}
	}
	// Collect now, so that the previous cell's garbage is not collected, on
	// the other core, during this cell's turns.
	runtime.GC()
	turns, err := timeTurns(9, timed...)
	if err != nil {
		return cell, err
	}
	for i, am := range blockAvoidModes {
		r := cell.Modes[am.name]
		r.NsPerPair = float64(fastest(turns, i).Nanoseconds()) / (float64(n) * float64(len(queries)))
		cell.Modes[am.name] = r
	}
	// blockAvoidModes is off, both, auto.
	cell.BothOverOff = medianRatio(turns, func(t []time.Duration) float64 { return float64(t[1]) / float64(t[0]) })
	offWins := cell.BothOverOff > 1
	cell.AutoOverBest = medianRatio(turns, func(t []time.Duration) float64 {
		if offWins {
			return float64(t[2]) / float64(t[0])
		}
		return float64(t[2]) / float64(t[1])
	})
	return cell, nil
}

// Figure renders the axis as AvoidBoth's wall time over AvoidOff's against
// the batch width, one series per (metric, dim): above 1 the lemmas lose.
func (s *AvoidanceSweep) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Both lemmas vs none wrt m (scan, n=%d, %d-NN)", s.N, s.K),
		XLabel: "m (queries per batch)",
		YLabel: "AvoidBoth wall over AvoidOff wall",
	}
	for _, m := range s.MValues {
		fig.XVals = append(fig.XVals, float64(m))
	}
	bySeries := map[string][]float64{}
	var order []string
	for _, c := range s.Cells {
		key := fmt.Sprintf("%s %s d=%d", c.Data, c.Metric, c.Dim)
		if _, ok := bySeries[key]; !ok {
			order = append(order, key)
		}
		bySeries[key] = append(bySeries[key], c.BothOverOff)
	}
	for _, name := range order {
		fig.AddSeries(name, bySeries[name]) //nolint:errcheck // lengths match by construction
	}
	return fig
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
