package main

import (
	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
)

var engineKinds = []engines.Kind{engines.Scan, engines.XTree, engines.VAFile, engines.Pivot, engines.PMTree}

// enginesLowDim is the engines_lowdim workload: every round, all five
// engines at their default knobs answer the same batch of k-NN queries;
// the engine order rotates from round to round so that no engine always
// runs behind the same predecessor. One operation is one engine's batch.
type enginesLowDim struct {
	items   []store.Item
	batches [][]msq.Query // one per round
	sliceN  int
	sums    [][]uint64 // per round, per engine: the answers' fingerprint
	kept    map[int][][]query.Answer
}

func (w *enginesLowDim) generate(seed int64, quick bool) uint64 {
	n, rounds := 20000, 60
	w.sliceN = 50
	if quick {
		n, rounds = 2000, 4
		w.sliceN = 10
	}
	// How well an index fits depends on the sample it was built over (the
	// pivot table's median batch moved ±15 % from seed to seed), and this
	// workload compares engines, not samples: the database is fixed and
	// the seed draws the query objects.
	w.items = nearUniform(shapeSeed, n, 8, 4)
	pool := queryPool(seed, w.items, 16*rounds)
	w.batches = knnBatches(pool, 16, 10)
	w.sums = make([][]uint64, rounds)
	for r := range w.sums {
		w.sums[r] = make([]uint64, len(engineKinds))
	}
	w.kept = map[int][][]query.Answer{}
	d := newDigest()
	itemsDigest(&d, w.items)
	itemsDigest(&d, pool)
	return d.h
}

func (w *enginesLowDim) cycle() int         { return len(w.batches) * len(engineKinds) }
func (w *enginesLowDim) slice() int         { return w.sliceN }
func (w *enginesLowDim) passShare() float64 { return 1 }
func (w *enginesLowDim) callers() int       { return 1 }

// op maps a cycle index to its round and engine.
func (w *enginesLowDim) op(idx int) (round, eng int) {
	round = idx / len(engineKinds)
	return round, (idx + round) % len(engineKinds)
}

func (w *enginesLowDim) setup(tr *tracer) (served, error) {
	sv := &memServed{tr: tr, sess: func(sv *memServed) session { return &enginesSession{w: w, sv: sv} }}
	for _, kind := range engineKinds {
		st, err := compose(stackSpec{kind: kind, items: w.items}, tr)
		if err != nil {
			return nil, err
		}
		if _, _, err := batchOp(st, tr, w.batches[0]); err != nil { // warm-up: one round
			return nil, err
		}
		sv.sts = append(sv.sts, st)
	}
	return sv, nil
}

type enginesSession struct {
	w  *enginesLowDim
	sv *memServed
}

func (s *enginesSession) do(_, idx int, _ int32, keep bool) (opOut, error) {
	round, eng := s.w.op(idx)
	qs := s.w.batches[round]
	lists, stats, err := batchOp(s.sv.sts[eng], s.sv.tr, qs)
	if err != nil {
		return opOut{}, err
	}
	if keep {
		s.w.kept[idx] = lists
	}
	d := newDigest()
	answersDigest(&d, lists)
	s.w.sums[round][eng] = d.h
	return opOut{queries: len(qs), sum: d.h, stats: stats, tag: eng}, nil
}

func (s *enginesSession) close() error { return nil }

// verify checks the sampled operations against the oracle and that, in
// every round run, all engines returned bit-identical answers.
func (w *enginesLowDim) verify() int {
	failed := 0
	for idx, lists := range w.kept {
		round, _ := w.op(idx)
		failed += oracleBatch(w.items, w.batches[round], lists)
	}
	for _, sums := range w.sums {
		for _, s := range sums {
			if s != 0 && sums[0] != 0 && s != sums[0] {
				failed++
			}
		}
	}
	return failed
}

func (w *enginesLowDim) layers(r *traceResult, m metrics) error {
	scanWall := float64(r.untraced.tagWall[0])
	calcs := func(s msq.Stats) float64 { return float64(s.DistCalcs + s.MatrixDistCalcs + s.PivotDistCalcs) }
	scanCalcs := calcs(r.traced.tagStats[0])
	for e, name := range engineNames {
		engineLayers(r, m, name, e, r.svU.stacks()[e].buildS)
		m.set(name+".wall_ratio_vs_scan", float64(r.untraced.tagWall[e])/scanWall)
		m.set(name+".dist_calc_ratio_vs_scan", calcs(r.traced.tagStats[e])/scanCalcs)
	}
	vecLayers(r, m, w.items, queryVecs(w.batches[0]), float64(r.tot.self["msq.call"]))
	return nil
}
