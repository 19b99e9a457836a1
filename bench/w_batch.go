package main

import (
	"runtime"
	"time"

	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// batchOp evaluates one batch to completion on a fresh session — the
// library's MultiQueryAll — under an msq.call span when traced.
func batchOp(st *stack, tr *tracer, qs []msq.Query) ([][]query.Answer, msq.Stats, error) {
	var sp int32
	if tr != nil {
		sp = tr.begin("msq.call")
	}
	lists, stats, err := st.proc.MultiQuery(qs)
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		return nil, stats, err
	}
	out := make([][]query.Answer, len(lists))
	for i, l := range lists {
		out[i] = l.Answers()
	}
	return out, stats, nil
}

// knnBatches cuts a pool of query objects into batches of m k-NN queries.
func knnBatches(pool []store.Item, m, k int) [][]msq.Query {
	batches := make([][]msq.Query, 0, len(pool)/m)
	for lo := 0; lo+m <= len(pool); lo += m {
		b := make([]msq.Query, m)
		for j := range b {
			b[j] = msq.Query{ID: uint64(j), Vec: pool[lo+j].Vec, Type: query.NewKNN(k)}
		}
		batches = append(batches, b)
	}
	return batches
}

// oracleBatch counts how many of a batch's answer lists differ from the
// brute-force oracle (0 or 1 failed operation, as one operation is judged).
func oracleBatch(items []store.Item, qs []msq.Query, got [][]query.Answer) int {
	for j, q := range qs {
		if !sameAnswers(got[j], bruteForce(items, q.Vec, q.Type)) {
			return 1
		}
	}
	return 0
}

// memServed is a served set of in-memory stacks without per-pass state.
type memServed struct {
	sts  []*stack
	tr   *tracer
	sess func(sv *memServed) session
}

func (sv *memServed) open() (session, error) { return sv.sess(sv), nil }
func (sv *memServed) stacks() []*stack       { return sv.sts }
func (sv *memServed) close() error           { return nil }

// batchKNNScan is the batch_knn_scan workload: wide k-NN batches on the
// scan, evaluated to completion, one caller.
type batchKNNScan struct {
	items   []store.Item
	batches [][]msq.Query
	sliceN  int // batches in the traced slice
	ratioN  int // batches in the in-run ratio slice
	rounds  int // in-run ratio rounds (min-of-rounds)
	warm    int
	kept    map[int][][]query.Answer
}

func (w *batchKNNScan) generate(seed int64, quick bool) uint64 {
	n, dim, intrinsic, m, nb := 50000, 20, 8, 100, 40
	w.sliceN, w.ratioN, w.rounds, w.warm = 10, 4, 3, 3
	if quick {
		n, m, nb = 3000, 20, 10
		w.sliceN, w.ratioN, w.rounds, w.warm = 10, 2, 1, 1
	}
	w.items = nearUniform(seed, n, dim, intrinsic)
	pool := queryPool(seed+1, w.items, m*nb)
	w.batches = knnBatches(pool, m, 10)
	w.kept = map[int][][]query.Answer{}
	d := newDigest()
	itemsDigest(&d, w.items)
	itemsDigest(&d, pool)
	return d.h
}

func (w *batchKNNScan) cycle() int         { return len(w.batches) }
func (w *batchKNNScan) slice() int         { return w.sliceN }
func (w *batchKNNScan) passShare() float64 { return 0.5 }
func (w *batchKNNScan) callers() int       { return 1 }

func (w *batchKNNScan) setup(tr *tracer) (served, error) {
	st, err := compose(stackSpec{kind: engines.Scan, items: w.items}, tr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.warm; i++ {
		if _, _, err := batchOp(st, tr, w.batches[i]); err != nil {
			return nil, err
		}
	}
	return &memServed{sts: []*stack{st}, tr: tr, sess: func(sv *memServed) session {
		return &batchSession{w: w, sv: sv}
	}}, nil
}

type batchSession struct {
	w  *batchKNNScan
	sv *memServed
}

func (s *batchSession) do(_, idx int, _ int32, keep bool) (opOut, error) {
	qs := s.w.batches[idx]
	lists, stats, err := batchOp(s.sv.sts[0], s.sv.tr, qs)
	if err != nil {
		return opOut{}, err
	}
	if keep {
		s.w.kept[idx] = lists
	}
	d := newDigest()
	answersDigest(&d, lists)
	return opOut{queries: len(qs), sum: d.h, stats: stats}, nil
}

func (s *batchSession) close() error { return nil }

func (w *batchKNNScan) verify() int {
	failed := 0
	for idx, lists := range w.kept {
		failed += oracleBatch(w.items, w.batches[idx], lists)
	}
	return failed
}

// timeBatches is the wall time of evaluating the batches with run.
func timeBatches(batches [][]msq.Query, run func([]msq.Query) error) (time.Duration, error) {
	begin := time.Now()
	for _, b := range batches {
		if err := run(b); err != nil {
			return 0, err
		}
	}
	return time.Since(begin), nil
}

func (w *batchKNNScan) layers(r *traceResult, m metrics) error {
	st := r.svU.stacks()[0]
	engineLayers(r, m, "scan", 0, st.buildS)
	vecLayers(r, m, w.items, queryVecs(w.batches[0]), float64(r.tot.self["msq.call"]))

	// In-run ratios: the same slice of batches under the default
	// configuration and under each variant, interleaved, the minimum of
	// the rounds on each side. A ratio is default ÷ variant: above 1 the
	// variant is faster.
	multi := func(p *msq.Processor) func([]msq.Query) error {
		return func(qs []msq.Query) error { _, _, err := p.MultiQuery(qs); return err }
	}
	soa, err := compose(stackSpec{kind: engines.Scan, items: w.items, soa: true,
		opts: msq.Options{Avoidance: msq.AvoidOff, Layout: msq.LayoutSoA}}, nil)
	if err != nil {
		return err
	}
	// The library tracer is installed on the pager of the stack it is
	// given, so it gets a stack of its own.
	traced, err := compose(stackSpec{kind: engines.Scan, items: w.items}, nil)
	if err != nil {
		return err
	}
	avoidOff, err := msq.New(st.eng, vec.Euclidean{}, msq.Options{Avoidance: msq.AvoidOff})
	if err != nil {
		return err
	}
	variants := []struct {
		name string
		run  func([]msq.Query) error
	}{
		{"default", multi(st.proc)},
		{"single", func(qs []msq.Query) error {
			for _, q := range qs {
				if _, _, err := st.proc.Single(q.Vec, q.Type); err != nil {
					return err
				}
			}
			return nil
		}},
		{"avoid_off", multi(avoidOff)},
		{"soa_noavoid", multi(soa.proc)},
		{"width_nproc", multi(st.proc.WithConcurrency(runtime.NumCPU()))},
		{"tracer_on", multi(traced.proc.WithTracer(obs.New(obs.Config{})))},
	}
	best := map[string]time.Duration{}
	for round := 0; round < w.rounds; round++ {
		for _, v := range variants {
			d, err := timeBatches(w.batches[:w.ratioN], v.run)
			if err != nil {
				return err
			}
			if b, ok := best[v.name]; !ok || d < b {
				best[v.name] = d
			}
		}
	}
	def := float64(best["default"])
	m.set("msq.multi_vs_single_wall_ratio", float64(best["single"])/def)
	m.set("msq.avoid_off_wall_ratio", def/float64(best["avoid_off"]))
	m.set("msq.soa_noavoid_wall_ratio", def/float64(best["soa_noavoid"]))
	m.set("msq.width_nproc_wall_ratio", def/float64(best["width_nproc"]))
	m.set("obs.tracer_on_wall_ratio", float64(best["tracer_on"])/def)
	return nil
}

func queryVecs(qs []msq.Query) []vec.Vector {
	vs := make([]vec.Vector, len(qs))
	for i, q := range qs {
		vs[i] = q.Vec
	}
	return vs
}
