package metricdb

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func calibBatch(items []Item, m int) []Query {
	qs := make([]Query, m)
	for i := range qs {
		qs[i] = Query{ID: uint64(i), Vec: items[(i*13)%len(items)].Vec, Type: KNNQuery(5)}
	}
	return qs
}

// TestCalibrationObservational is the satellite property test: a DB with
// the calibration recorder attached must produce bit-identical answers and
// msq.Stats to one without, for every engine at widths 1, 2, and 8 — the
// recorder only reads numbers the run already produced.
func TestCalibrationObservational(t *testing.T) {
	items := testItems(11, 600, 6)
	engines := []EngineKind{EngineScan, EngineXTree, EngineVAFile, EnginePivot, EnginePMTree}
	widths := []int{1, 2, 8}
	for _, eng := range engines {
		for _, m := range widths {
			plain, err := Open(items, Options{Engine: eng})
			if err != nil {
				t.Fatalf("%s: %v", eng, err)
			}
			calibrated, err := Open(items, Options{Engine: eng, Calibrate: true})
			if err != nil {
				t.Fatalf("%s calibrated: %v", eng, err)
			}
			queries := calibBatch(items, m)
			pa, ps, err := plain.NewBatch().QueryAll(queries)
			if err != nil {
				t.Fatalf("%s m=%d plain: %v", eng, m, err)
			}
			ca, cs, err := calibrated.NewBatch().QueryAll(queries)
			if err != nil {
				t.Fatalf("%s m=%d calibrated: %v", eng, m, err)
			}
			if ps != cs {
				t.Errorf("%s m=%d: stats diverge with calibration on: %+v vs %+v", eng, m, cs, ps)
			}
			if !reflect.DeepEqual(pa, ca) {
				t.Errorf("%s m=%d: answers diverge with calibration on", eng, m)
			}
			if got := calibrated.Calibration().Samples(); got != 1 {
				t.Errorf("%s m=%d: recorded %d samples, want 1", eng, m, got)
			}
			if plain.Calibration() != nil {
				t.Errorf("%s: plain DB grew a recorder", eng)
			}

			// EXPLAIN with calibration stays a real run too, and carries
			// the predicted rows (raw always; calibrated after the sample
			// above).
			pex, err := plain.Explain(queries)
			if err != nil {
				t.Fatalf("%s m=%d plain explain: %v", eng, m, err)
			}
			cex, err := calibrated.Explain(queries)
			if err != nil {
				t.Fatalf("%s m=%d calibrated explain: %v", eng, m, err)
			}
			if pex.Stats != cex.Stats {
				t.Errorf("%s m=%d: explain stats diverge: %+v vs %+v", eng, m, cex.Stats, pex.Stats)
			}
			if !reflect.DeepEqual(pex.Queries, cex.Queries) {
				t.Errorf("%s m=%d: explain profiles diverge", eng, m)
			}
			if len(pex.Predicted) != 0 {
				t.Errorf("%s: plain explain carries predictions", eng)
			}
			if len(cex.Predicted) != 2 {
				t.Fatalf("%s m=%d: calibrated explain carries %d predicted rows, want 2 (model + calibrated)", eng, m, len(cex.Predicted))
			}
			if cex.Predicted[0].Source != "model" || cex.Predicted[1].Source != "calibrated" {
				t.Errorf("%s: predicted row sources = %q, %q", eng, cex.Predicted[0].Source, cex.Predicted[1].Source)
			}
			if cex.Predicted[0].Engine != string(eng) {
				t.Errorf("%s: predicted row prices engine %q", eng, cex.Predicted[0].Engine)
			}
		}
	}
}

// calibrationGolden is the calibrated cost model's error, pinned: per
// engine and dimensionality, the mean absolute percentage error of the raw
// and of the calibrated model's predicted distance calculations and page
// reads over ten judged batches.
var calibrationGolden = []struct {
	engine       EngineKind
	dim          int
	raw, refined float64
}{
	{EngineScan, 4, 0.8178157219517109, 0.03725309244291943},
	{EngineXTree, 4, 2.098833606834625, 0.1395003596821018},
	{EngineVAFile, 4, 1.6235868760212846, 0.03990409076925232},
	{EnginePivot, 4, 0.8470126002558063, 0.18358795013720364},
	{EnginePMTree, 4, 0.9503979749206763, 0.15326012149740265},
	{EngineScan, 8, 0.141386133200136, 0.013754929516351854},
	{EngineXTree, 8, 1.5233880286621797, 0.07695084995125444},
	{EngineVAFile, 8, 1.8064980901666705, 0.05298930741668895},
	{EnginePivot, 8, 0.42018838760594496, 0.07011515304383292},
	{EnginePMTree, 8, 0.4494282347138291, 0.0653019365439925},
}

// TestCalibrationImprovesTheModel runs the calibration loop end to end on
// 3 000 uniform items per dimensionality (seed 17 000 + dim): a calibrated
// DB records four warmup batches of eight 10-NN queries, then ten fresh
// batches compare AdviseBatch's raw and calibrated predictions for the
// engine against what the batch cost. Calibration must shrink the error in
// every row, and the errors must equal the golden bit for bit.
func TestCalibrationImprovesTheModel(t *testing.T) {
	const (
		n, m, k        = 3000, 8, 10
		warmup, judged = 4, 10
	)
	// mape accumulates |predicted - observed| / observed.
	type mape struct {
		sum float64
		n   int
	}
	add := func(e *mape, predicted, observed int64) {
		if observed > 0 {
			e.sum += math.Abs(float64(predicted-observed)) / float64(observed)
			e.n++
		}
	}
	find := func(cands []Candidate, kind EngineKind) Candidate {
		for _, c := range cands {
			if c.Engine == string(kind) {
				return c
			}
		}
		t.Fatalf("%s missing from %+v", kind, cands)
		return Candidate{}
	}

	for _, want := range calibrationGolden {
		kind, dim := want.engine, want.dim
		db, err := Open(testItems(int64(17000+dim), n, dim), Options{Engine: kind, Avoidance: AvoidBoth, Calibrate: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(19000 + 100*dim + len(kind))))
		batch := func() []Query {
			qs := make([]Query, m)
			for i := range qs {
				v := make(Vector, dim)
				for j := range v {
					v[j] = rng.Float64()
				}
				qs[i] = Query{ID: uint64(i), Vec: v, Type: KNNQuery(k)}
			}
			return qs
		}
		for i := 0; i < warmup; i++ {
			if _, _, err := db.NewBatch().QueryAll(batch()); err != nil {
				t.Fatal(err)
			}
		}
		var raw, refined mape
		for i := 0; i < judged; i++ {
			qs := batch()
			advice, err := db.AdviseBatch(qs, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := db.NewBatch().QueryAll(qs)
			if err != nil {
				t.Fatal(err)
			}
			r, c := find(advice.Candidates, kind), find(advice.Calibrated, kind)
			add(&raw, r.DistCalcs, st.DistCalcs)
			add(&raw, r.PagesRead, st.PagesRead)
			add(&refined, c.DistCalcs, st.DistCalcs)
			add(&refined, c.PagesRead, st.PagesRead)
		}
		gotRaw, gotRefined := raw.sum/float64(raw.n), refined.sum/float64(refined.n)
		if !(gotRefined < gotRaw) {
			t.Errorf("%s dim %d: calibrated error %v, raw %v", kind, dim, gotRefined, gotRaw)
		}
		if gotRaw != want.raw || gotRefined != want.refined {
			t.Errorf("%s dim %d: error raw %v calibrated %v, want %v and %v",
				kind, dim, gotRaw, gotRefined, want.raw, want.refined)
		}
		if got := db.Calibration().Samples(); got != warmup+judged {
			t.Errorf("%s dim %d: %d samples, want %d", kind, dim, got, warmup+judged)
		}
	}
}

// TestCalibrationSurfaces checks the read paths over a warmed recorder:
// ProcessorStats carries the Calibration section and the counter
// partition, and DB.AdviseBatch adds the calibrated ranking.
func TestCalibrationSurfaces(t *testing.T) {
	items := testItems(12, 500, 6)
	db, err := Open(items, Options{Engine: EnginePivot, Calibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := calibBatch(items, 8)
	for i := 0; i < 3; i++ {
		if _, _, err := db.NewBatch().QueryAll(queries); err != nil {
			t.Fatal(err)
		}
	}
	ps := db.ProcessorStats()
	if ps.Calibration == nil {
		t.Fatal("ProcessorStats.Calibration is nil with Calibrate on")
	}
	if ps.Calibration.Samples != 3 {
		t.Errorf("calibration samples = %d, want 3", ps.Calibration.Samples)
	}
	if len(ps.Calibration.Engines) != 1 || ps.Calibration.Engines[0].Engine != "pivot" {
		t.Errorf("calibration engines = %+v, want one pivot entry", ps.Calibration.Engines)
	}
	if ps.PivotDistCalcs == 0 {
		t.Error("ProcessorStats.PivotDistCalcs = 0 on the pivot engine")
	}

	a, err := db.AdviseBatch(queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Calibrated) != len(a.Candidates) {
		t.Fatalf("calibrated ranking has %d rows, want %d", len(a.Calibrated), len(a.Candidates))
	}
	for i := 1; i < len(a.Calibrated); i++ {
		if a.Calibrated[i].Total < a.Calibrated[i-1].Total {
			t.Errorf("calibrated ranking not sorted at %d: %+v", i, a.Calibrated)
		}
	}

	// PredictBlock stays silent below the evidence floor (3 < 8), then
	// predicts once the floor is reached.
	if got := db.PredictBlock(queries); got != 0 {
		t.Errorf("PredictBlock below MinSamples = %v, want 0", got)
	}
	for i := 0; i < 6; i++ {
		db.ObserveBlock(queries, Stats{DistCalcs: 1000, PagesRead: 10}, 2*time.Millisecond)
	}
	if got := db.PredictBlock(queries); got <= 0 {
		t.Errorf("PredictBlock past MinSamples = %v, want > 0", got)
	}

	// A plain DB's hooks are inert.
	plain, err := Open(items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.PredictBlock(queries); got != 0 {
		t.Errorf("plain PredictBlock = %v", got)
	}
	plain.ObserveBlock(queries, Stats{}, time.Millisecond) // must not panic
	if plain.ProcessorStats().Calibration != nil {
		t.Error("plain ProcessorStats carries a Calibration section")
	}
}

// TestCalibrationConcurrentStress hammers one calibrated DB with
// concurrent batches, advise calls and snapshot reads under -race: the
// recorder is the only shared mutable state the feature adds, and it must
// hold up.
func TestCalibrationConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	items := testItems(13, 400, 4)
	db, err := Open(items, Options{Engine: EngineScan, Calibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := calibBatch(items, 1+g%4)
			for i := 0; i < rounds; i++ {
				if _, _, err := db.NewBatch().QueryAll(queries); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if _, err := db.AdviseBatch(queries, 1); err != nil {
					t.Errorf("goroutine %d advise: %v", g, err)
					return
				}
				db.ProcessorStats()
				db.PredictBlock(queries)
			}
		}(g)
	}
	wg.Wait()
	if got := db.Calibration().Samples(); got != goroutines*rounds {
		t.Fatalf("recorded %d samples, want %d", got, goroutines*rounds)
	}
}
