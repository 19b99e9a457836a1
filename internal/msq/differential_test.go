package msq

import (
	"fmt"
	"math/rand"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/pivot"
	"metricdb/internal/pmtree"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vafile"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

// The differential harness runs a mixed k-NN / range / bounded-k-NN batch
// on a fresh engine per run and compares everything observable about the
// runs (diffRun): the answers with exact float equality, the full Stats
// record, the simulated disk's read counts and sequential/random split, and
// the buffer's hits and misses.
//
// Several suites still carry the widths 1, 2 and 8 in their subtest names,
// from the intra-server pipeline the processor no longer has. runDifferential
// hands the width to the deprecated WithConcurrency shim, which must change
// nothing, so each width is held to the same run.

// diffMaker builds a fresh engine over its own disk and buffer, so the
// I/O counters of independent runs are comparable.
type diffMaker struct {
	name string
	make func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine
}

func diffMakers() []diffMaker {
	return []diffMaker{
		{"scan", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := scan.New(items, 16, 4)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"xtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := xtree.Bulk(items, dim, xtree.Config{LeafCapacity: 16, DirFanout: 8, BufferPages: 4, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"vafile", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := vafile.New(items, vafile.Config{PageCapacity: 16, BufferPages: 4, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pivot", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pivot.New(items, pivot.Config{PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pmtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pmtree.New(items, pmtree.Config{PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}
}

// diffBatch builds a mixed workload. The first query is a range query, so
// the suffix evaluation of MultiQueryAll runs passes led by a range query
// and passes led by a k-NN query.
func diffBatch(dim int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	point := func() vec.Vector {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	return []Query{
		{ID: 0, Vec: point(), Type: query.NewRange(0.55)},
		{ID: 1, Vec: point(), Type: query.NewKNN(10)},
		{ID: 2, Vec: point(), Type: query.NewBoundedKNN(5, 0.8)},
		{ID: 3, Vec: point(), Type: query.NewKNN(3)},
		{ID: 4, Vec: point(), Type: query.NewRange(0.4)},
		{ID: 5, Vec: point(), Type: query.NewKNN(7)},
	}
}

// diffRun is everything observable about one full batch evaluation.
type diffRun struct {
	answers [][]query.Answer
	stats   Stats
	io      store.IOStats
	hits    int64
	misses  int64
}

// runDifferential evaluates the batch to completion on a fresh engine built
// by mk, through the processor WithConcurrency(width) returns.
func runDifferential(t *testing.T, mk diffMaker, m vec.Metric, mode AvoidanceMode, width int, items []store.Item, dim int, queries []Query) diffRun {
	t.Helper()
	eng := mk.make(t, items, dim, m)
	proc, err := New(eng, m, Options{Avoidance: mode})
	if err != nil {
		t.Fatal(err)
	}
	lists, stats, err := proc.WithConcurrency(width).NewSession().MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	r := diffRun{stats: stats, io: eng.Pager().Disk().Stats(), answers: answersOf(lists)}
	if buf := eng.Pager().Buffer(); buf != nil {
		r.hits, r.misses, _ = buf.HitRate()
	}
	return r
}

// answersOf copies the answers out of a batch's lists.
func answersOf(lists []*query.AnswerList) [][]query.Answer {
	out := make([][]query.Answer, len(lists))
	for i, l := range lists {
		out[i] = append([]query.Answer(nil), l.Answers()...)
	}
	return out
}

// identicalAnswers requires exact equality — no tolerance.
func identicalAnswers(a, b [][]query.Answer) (string, bool) {
	if len(a) != len(b) {
		return fmt.Sprintf("query count %d vs %d", len(a), len(b)), false
	}
	for q := range a {
		if len(a[q]) != len(b[q]) {
			return fmt.Sprintf("query %d: %d vs %d answers", q, len(a[q]), len(b[q])), false
		}
		for i := range a[q] {
			if a[q][i].ID != b[q][i].ID || a[q][i].Dist != b[q][i].Dist {
				return fmt.Sprintf("query %d answer %d: (%d, %v) vs (%d, %v)",
					q, i, a[q][i].ID, a[q][i].Dist, b[q][i].ID, b[q][i].Dist), false
			}
		}
	}
	return "", true
}

// TestDifferentialPipeline: a batch run through WithConcurrency(2) or
// WithConcurrency(8) is the batch run at width 1, in every observable, on
// every engine, metric and avoidance mode. The shim ignores its width; the
// test is named for the intra-server pipeline the width once configured.
func TestDifferentialPipeline(t *testing.T) {
	const dim = 4
	items := testDB(11, 300, dim)
	queries := diffBatch(dim, 12)
	metrics := []struct {
		name string
		m    vec.Metric
	}{
		{"euclidean", vec.Euclidean{}},
		{"manhattan", vec.Manhattan{}},
	}
	modes := []AvoidanceMode{AvoidBoth, AvoidOff, AvoidLemma1, AvoidLemma2}

	for _, mk := range diffMakers() {
		for _, mt := range metrics {
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/%s/%s", mk.name, mt.name, mode), func(t *testing.T) {
					seq := runDifferential(t, mk, mt.m, mode, 1, items, dim, queries)
					for _, width := range []int{2, 8} {
						r := runDifferential(t, mk, mt.m, mode, width, items, dim, queries)
						requireSameRun(t, fmt.Sprintf("width %d", width), seq, r)
					}
				})
			}
		}
	}
}

// TestDifferentialEnginesMatchScan pins answer identity across physical
// organizations: every indexed engine, under every metric and avoidance
// mode, must return the exact answers of the scan — same IDs,
// bit-identical distances. Pruning may only skip work, never change
// results.
func TestDifferentialEnginesMatchScan(t *testing.T) {
	const dim = 4
	items := testDB(91, 300, dim)
	queries := diffBatch(dim, 92)
	metrics := []struct {
		name string
		m    vec.Metric
	}{
		{"euclidean", vec.Euclidean{}},
		{"manhattan", vec.Manhattan{}},
	}
	makers := diffMakers()

	for _, mt := range metrics {
		for _, mode := range []AvoidanceMode{AvoidBoth, AvoidOff} {
			for _, width := range []int{1, 2, 8} {
				ref := runDifferential(t, makers[0], mt.m, mode, width, items, dim, queries)
				for _, mk := range makers[1:] {
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", mk.name, mt.name, mode, width), func(t *testing.T) {
						got := runDifferential(t, mk, mt.m, mode, width, items, dim, queries)
						if diag, ok := identicalAnswers(ref.answers, got.answers); !ok {
							t.Errorf("answers differ from scan: %s", diag)
						}
					})
				}
			}
		}
	}
}

// TestConcurrencyKnob: the deprecated WithConcurrency shim returns its
// receiver whatever the width, and a batch through it has the receiver's
// answers and Stats.
func TestConcurrencyKnob(t *testing.T) {
	items := testDB(1, 64, 3)
	queries := diffBatch(3, 2)
	proc, err := New(scanEngine(t, items), vec.Euclidean{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The runs share the engine, so the first one warms its buffer and the
	// reference is the second.
	if _, _, err := proc.MultiQuery(queries); err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := proc.MultiQuery(queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 8} {
		shim := proc.WithConcurrency(n)
		if shim != proc {
			t.Errorf("WithConcurrency(%d) returned another processor", n)
		}
		got, stats, err := shim.MultiQuery(queries)
		if err != nil {
			t.Fatal(err)
		}
		if diag, ok := identicalAnswers(answersOf(want), answersOf(got)); !ok {
			t.Errorf("WithConcurrency(%d): answers differ: %s", n, diag)
		}
		if stats != wantStats {
			t.Errorf("WithConcurrency(%d): stats %+v, want %+v", n, stats, wantStats)
		}
	}
}

// TestDifferentialIncremental checks the incremental entry point: of two
// MultiQuery calls sharing a session, the second restores the buffered
// partial answers of the first, and each query a call completes — the
// first of each batch, and one completed earlier and resubmitted — has
// exactly its brute-force answers.
func TestDifferentialIncremental(t *testing.T) {
	const dim = 4
	items := testDB(21, 300, dim)
	queries := diffBatch(dim, 22)
	m := vec.Euclidean{}
	exact := func(t *testing.T, call string, l *query.AnswerList, q Query) {
		t.Helper()
		if !sameAnswers(l.Answers(), brute(items, m, q.Vec, q.Type)) {
			t.Errorf("%s: query %d: answers differ from brute force", call, q.ID)
		}
	}

	for _, mk := range diffMakers() {
		t.Run(mk.name, func(t *testing.T) {
			proc, err := New(mk.make(t, items, dim, m), m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := proc.NewSession()
			// The first call completes queries[0] and buffers partials.
			lists, _, err := s.MultiQuery(queries)
			if err != nil {
				t.Fatal(err)
			}
			exact(t, "first call", lists[0], queries[0])
			// The second rotates the batch so query 1 completes next, from
			// the state the first call buffered; query 0 comes back from
			// the buffer.
			rotated := append(append([]Query(nil), queries[1:]...), queries[0])
			lists, _, err = s.MultiQuery(rotated)
			if err != nil {
				t.Fatal(err)
			}
			exact(t, "second call", lists[0], rotated[0])
			exact(t, "second call", lists[len(lists)-1], queries[0])
		})
	}
}
