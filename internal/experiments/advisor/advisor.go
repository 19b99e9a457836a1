// Package advisor evaluates the cost-advisor calibration loop end to
// end: per (engine, dim) a calibrated database records
// predicted-vs-observed work counters across a warmup of batches, then a
// judged phase compares the raw cost model's per-batch predictions
// against the calibrated ones on fresh batches the recorder has not
// seen. Two verdicts are the artifact's payload, both regression-gated
// by benchcompare: Improved — the calibrated mean absolute percentage
// error is strictly below the raw model's wherever the raw model left
// any error — and Identical — a calibrated database returned
// bit-identical answers and statistics to a plain one on every judged
// batch, the observational guarantee.
//
// The package sits outside internal/experiments because it exercises the
// public metricdb API (Options.Calibrate, DB.AdviseBatch): the root
// package's own benchmark suite imports internal/experiments, so the
// experiments package itself must not import metricdb back.
package advisor

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"

	"metricdb"
	"metricdb/internal/report"
	"metricdb/internal/vec"
)

// Result is one (engine, dim) calibration verdict.
type Result struct {
	Engine string `json:"engine"`
	Dim    int    `json:"dim"`
	// MAPERaw / MAPECalibrated are the mean absolute percentage errors of
	// the uncorrected and the calibrated cost model over the judged
	// batches, pooled across the dist_calcs and pages_read counters.
	MAPERaw        float64 `json:"mape_raw"`
	MAPECalibrated float64 `json:"mape_calibrated"`
	// Improved reports that calibration strictly shrank the pooled error —
	// or that the raw model was already exact (error below 1e-9), in which
	// case calibration must not have degraded it.
	Improved bool `json:"improved"`
	// Identical reports bit-identical answers and stats between the
	// calibrated database and a plain reference on every judged batch.
	Identical bool `json:"identical"`
	// Samples is the recorder's sample count after the run (warmup plus
	// judged batches).
	Samples int64 `json:"samples"`
}

// Sweep is the full calibration evaluation (the BENCH_advisor.json
// artifact).
type Sweep struct {
	N       int      `json:"n"`
	M       int      `json:"m"`
	K       int      `json:"k"`
	Warmup  int      `json:"warmup_batches"`
	Judged  int      `json:"judged_batches"`
	Dims    []int    `json:"dims"`
	Engines []string `json:"engines"`
	Results []Result `json:"results"`
}

const (
	batchM       = 8
	knnK         = 10
	WarmupRounds = 4
	JudgedRounds = 10
	// adviceSeed is the advisor seed used for both recording and judging,
	// so the judged predictions are exactly the predictions the calibrated
	// database recorded against.
	adviceSeed = 1
	// exactFloor is the error floor below which the raw model counts as
	// already exact: strict improvement is then impossible and calibration
	// is only required not to degrade it.
	exactFloor = 1e-9
)

func uniformItems(seed int64, n, dim int) []metricdb.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]metricdb.Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = metricdb.Item{ID: metricdb.ItemID(i), Vec: v}
	}
	return items
}

func knnBatch(rng *rand.Rand, m, dim int) []metricdb.Query {
	queries := make([]metricdb.Query, m)
	for i := range queries {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		queries[i] = metricdb.Query{ID: uint64(i), Vec: v, Type: metricdb.KNNQuery(knnK)}
	}
	return queries
}

// findEngine picks one engine's row from a ranking.
func findEngine(cands []metricdb.Candidate, engine string) (metricdb.Candidate, bool) {
	for _, c := range cands {
		if c.Engine == engine {
			return c, true
		}
	}
	return metricdb.Candidate{}, false
}

// relErr accumulates |predicted-observed|/observed pairs.
type relErr struct {
	sum float64
	n   int
}

func (e *relErr) add(predicted, observed int64) {
	if observed <= 0 {
		return
	}
	d := float64(predicted - observed)
	if d < 0 {
		d = -d
	}
	e.sum += d / float64(observed)
	e.n++
}

func (e *relErr) mean() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sum / float64(e.n)
}

// Run evaluates the calibration loop for every engine at each
// dimensionality over n fixed-seed uniform items.
func Run(dims []int, n int) (*Sweep, error) {
	kinds := []metricdb.EngineKind{metricdb.EngineScan, metricdb.EngineXTree,
		metricdb.EngineVAFile, metricdb.EnginePivot, metricdb.EnginePMTree}
	sweep := &Sweep{N: n, M: batchM, K: knnK,
		Warmup: WarmupRounds, Judged: JudgedRounds, Dims: dims}
	for _, k := range kinds {
		sweep.Engines = append(sweep.Engines, string(k))
	}

	for _, dim := range dims {
		items := uniformItems(int64(17000+dim), n, dim)
		for _, kind := range kinds {
			res, err := run(kind, items, dim)
			if err != nil {
				return nil, fmt.Errorf("%s dim=%d: %w", kind, dim, err)
			}
			sweep.Results = append(sweep.Results, res)
		}
	}
	return sweep, nil
}

// run warms one calibrated database, then judges raw against calibrated
// predictions on fresh batches while checking the calibrated run stays
// bit-identical to a plain reference.
func run(kind metricdb.EngineKind, items []metricdb.Item, dim int) (Result, error) {
	calibrated, err := metricdb.Open(items, metricdb.Options{Engine: kind, Avoidance: metricdb.AvoidBoth, Calibrate: true})
	if err != nil {
		return Result{}, err
	}
	plain, err := metricdb.Open(items, metricdb.Options{Engine: kind, Avoidance: metricdb.AvoidBoth})
	if err != nil {
		return Result{}, err
	}
	res := Result{Engine: string(kind), Dim: dim, Identical: true}
	rng := rand.New(rand.NewSource(int64(19000 + 100*dim + len(string(kind)))))

	// Warmup: feed the recorder. The plain reference runs the same batches
	// so both databases see identical buffer histories.
	for i := 0; i < WarmupRounds; i++ {
		batch := knnBatch(rng, batchM, dim)
		if _, _, err := calibrated.NewBatch().QueryAll(batch); err != nil {
			return Result{}, err
		}
		if _, _, err := plain.NewBatch().QueryAll(batch); err != nil {
			return Result{}, err
		}
	}

	var rawErr, calErr relErr
	for i := 0; i < JudgedRounds; i++ {
		batch := knnBatch(rng, batchM, dim)
		advice, err := calibrated.AdviseBatch(batch, adviceSeed)
		if err != nil {
			return Result{}, err
		}
		raw, ok := findEngine(advice.Candidates, string(kind))
		if !ok {
			return Result{}, fmt.Errorf("engine %s missing from candidates", kind)
		}
		cal, ok := findEngine(advice.Calibrated, string(kind))
		if !ok {
			return Result{}, fmt.Errorf("engine %s missing from calibrated ranking", kind)
		}

		ca, cs, err := calibrated.NewBatch().QueryAll(batch)
		if err != nil {
			return Result{}, err
		}
		pa, ps, err := plain.NewBatch().QueryAll(batch)
		if err != nil {
			return Result{}, err
		}
		if cs != ps || !reflect.DeepEqual(ca, pa) {
			res.Identical = false
		}

		rawErr.add(raw.DistCalcs, cs.DistCalcs)
		rawErr.add(raw.PagesRead, cs.PagesRead)
		calErr.add(cal.DistCalcs, cs.DistCalcs)
		calErr.add(cal.PagesRead, cs.PagesRead)
	}

	res.MAPERaw = rawErr.mean()
	res.MAPECalibrated = calErr.mean()
	res.Improved = res.MAPECalibrated < res.MAPERaw ||
		(res.MAPERaw < exactFloor && res.MAPECalibrated < exactFloor)
	if rec := calibrated.Calibration(); rec != nil {
		res.Samples = rec.Samples()
	}
	return res, nil
}

// Figure renders the sweep as raw and calibrated prediction error per
// engine, one x position per dimensionality.
func (s *Sweep) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Advisor calibration: cost-model MAPE raw vs calibrated (n=%d, m=%d, k=%d)", s.N, s.M, s.K),
		XLabel: "dim",
		YLabel: "mean absolute percentage error",
	}
	for _, d := range s.Dims {
		fig.XVals = append(fig.XVals, float64(d))
	}
	series := map[string][]float64{}
	var order []string
	for _, r := range s.Results {
		for _, v := range []struct {
			name string
			val  float64
		}{
			{r.Engine + " raw", r.MAPERaw},
			{r.Engine + " calibrated", r.MAPECalibrated},
		} {
			if _, ok := series[v.name]; !ok {
				order = append(order, v.name)
			}
			series[v.name] = append(series[v.name], v.val)
		}
	}
	for _, name := range order {
		fig.AddSeries(name, series[name]) //nolint:errcheck // lengths match by construction
	}
	return fig
}

// WriteJSON writes the sweep as an indented JSON document.
func WriteJSON(w io.Writer, sweep *Sweep) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sweep)
}

// WriteJSONFile writes the BENCH_advisor.json artifact to path.
func WriteJSONFile(path string, sweep *Sweep) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f, sweep); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	return f.Close()
}
