package main

import (
	"time"

	"metricdb/internal/engines"
	"metricdb/internal/explore"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// dbscanXTree is the dbscan_xtree workload: one operation is one complete
// DBSCAN job over the X-tree, its n dependent range queries issued as
// incremental multiple similarity queries of batch size m (Definition 4).
type dbscanXTree struct {
	items  []store.Item
	eps    float64
	minPts int
	m      int
	rounds int // in-run ratio rounds
	labels []int
	ref    *stack // the latest untraced stack, for the single-query reference run
}

func (w *dbscanXTree) generate(seed int64, quick bool) uint64 {
	n := 20000
	w.eps, w.minPts, w.m, w.rounds = 0.05, 5, 50, 3
	if quick {
		n, w.rounds = 1500, 1
	}
	w.items = clustered(seed, n, 8, 20, 0.03)
	w.labels = nil
	d := newDigest()
	itemsDigest(&d, w.items)
	return d.h
}

func (w *dbscanXTree) cycle() int         { return 1 }
func (w *dbscanXTree) slice() int         { return 1 }
func (w *dbscanXTree) passShare() float64 { return 0.5 }
func (w *dbscanXTree) callers() int       { return 1 }

func (w *dbscanXTree) config(st *stack, m int) explore.Config {
	return explore.Config{Proc: st.proc, Items: w.items, BatchSize: m}
}

func (w *dbscanXTree) setup(tr *tracer) (served, error) {
	st, err := compose(stackSpec{kind: engines.XTree, items: w.items}, tr)
	if err != nil {
		return nil, err
	}
	// Warm-up: the neighbourhoods of the first 5 % of the objects, in
	// batches of m.
	t := query.NewRange(w.eps)
	for lo := 0; lo+w.m <= len(w.items)/20; lo += w.m {
		qs := make([]msq.Query, w.m)
		for j := range qs {
			qs[j] = msq.Query{ID: uint64(j), Vec: w.items[lo+j].Vec, Type: t}
		}
		if _, _, err := batchOp(st, tr, qs); err != nil {
			return nil, err
		}
	}
	if tr == nil {
		w.ref = st
	}
	return &memServed{sts: []*stack{st}, tr: tr, sess: func(sv *memServed) session {
		return &dbscanSession{w: w, sv: sv}
	}}, nil
}

type dbscanSession struct {
	w  *dbscanXTree
	sv *memServed
}

func (s *dbscanSession) do(int, int, int32, bool) (opOut, error) {
	w, tr := s.w, s.sv.tr
	var sp int32
	if tr != nil {
		sp = tr.begin("explore.call")
	}
	res, err := explore.DBSCAN(w.config(s.sv.sts[0], w.m), w.eps, w.minPts)
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		return opOut{}, err
	}
	w.labels = res.Labels
	return opOut{queries: res.Stats.Steps, sum: labelsDigest(res.Labels), stats: res.Stats.Query}, nil
}

func (s *dbscanSession) close() error { return nil }

func labelsDigest(labels []int) uint64 {
	d := newDigest()
	for _, l := range labels {
		d.word(uint64(int64(l)))
	}
	return d.h
}

// verify compares the batched job's labels with a job that issues single
// queries (the transformation of Figure 3 must not change the result), and
// checks every 100th object against the oracle's neighbourhood: a core
// object and all its neighbours are in a cluster (so no core object is noise).
func (w *dbscanXTree) verify() int {
	if w.labels == nil {
		return 0
	}
	single, err := explore.DBSCAN(w.config(w.ref, 1), w.eps, w.minPts)
	if err != nil || labelsDigest(single.Labels) != labelsDigest(w.labels) {
		return 1
	}
	t := query.NewRange(w.eps)
	for i := 0; i < len(w.items); i += 100 {
		nbrs := bruteForce(w.items, w.items[i].Vec, t)
		if len(nbrs) < w.minPts {
			continue // noise or a border object, whose cluster others decide
		}
		for _, a := range nbrs { // includes the core object itself
			if w.labels[a.ID] == explore.Noise {
				return 1
			}
		}
	}
	return 0
}

func (w *dbscanXTree) layers(r *traceResult, m metrics) error {
	st := r.svU.stacks()[0]
	engineLayers(r, m, "xtree", 0, st.buildS)
	m.set("explore.steps_per_job", float64(r.traced.queries)/float64(r.traced.attempted))

	// explore.DBSCAN exposes no hooks, so the framework's own share is
	// measured on the hook-driven scheme it instantiates: the same n
	// neighbourhood queries in batches of m through RunMultiple, timing
	// the Proc1→Proc2 interval, which is exactly the MultiQuery call.
	ids := make([]store.ItemID, len(w.items))
	for i := range ids {
		ids[i] = store.ItemID(i)
	}
	var inQuery time.Duration
	var t0 time.Time
	cfg := w.config(st, w.m)
	cfg.SimType = query.NewRange(w.eps)
	begin := time.Now()
	_, err := explore.RunMultiple(cfg, ids, explore.Hooks{
		Proc1: func(store.Item) { t0 = time.Now() },
		Proc2: func(store.Item, []query.Answer) { inQuery += time.Since(t0) },
	})
	if err != nil {
		return err
	}
	share := 1 - float64(inQuery)/float64(time.Since(begin))
	m.set("explore.self_share", share)

	pool := queryPool(1, w.items, 16)
	vecs := make([]vec.Vector, len(pool))
	for i, it := range pool {
		vecs[i] = it.Vec
	}
	vecLayers(r, m, w.items, vecs, float64(r.tot.self["explore.call"])*(1-share))

	// The paper's speed-up on its headline use: the job with single
	// queries ÷ the job with batches of m, interleaved, fastest of rounds.
	best := map[int]time.Duration{}
	for round := 0; round < w.rounds; round++ {
		for _, bs := range []int{w.m, 1} {
			t0 := time.Now()
			if _, err := explore.DBSCAN(w.config(st, bs), w.eps, w.minPts); err != nil {
				return err
			}
			if d := time.Since(t0); best[bs] == 0 || d < best[bs] {
				best[bs] = d
			}
		}
	}
	m.set("msq.multi_vs_single_wall_ratio", float64(best[1])/float64(best[w.m]))
	return nil
}
