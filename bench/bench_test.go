package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"metricdb"
	"metricdb/internal/engines"
	"metricdb/internal/explore"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
)

// The tests run every workload at -quick sizes. They assert structure and
// answers only — never a duration: a timing assertion inside `go test` is
// what made TestDisabledHookOverhead flaky.

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func TestManifestMatchesCommittedFile(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(committed, &doc); err != nil {
		t.Fatal(err)
	}
	want, err := manifest(doc.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != string(want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go; regenerate it with `bash bench/run.sh -manifest -seconds %d`", doc.RunSeconds)
	}
}

func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q is outside the contract", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q is declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, wl := range workloadWhy {
		t.Run(wl.name, func(t *testing.T) {
			out := t.TempDir()
			for trace, decls := range [][]decl{endToEnd, perLayer} {
				res, err := runWorkload(wl.name, 7, 0.2, trace, true, out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted < 1 {
					t.Errorf("trace %d: correct=%v failed=%d attempted=%d", trace, res.correct, res.failed, res.attempted)
				}
				// resultLine fails on a missing or non-finite value.
				line, err := resultLine(res, decls)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				var parsed struct {
					Metrics map[string]json.RawMessage
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil {
					t.Fatal(err)
				}
				if len(parsed.Metrics) != len(decls) {
					t.Errorf("trace %d: %d metrics emitted, %d declared", trace, len(parsed.Metrics), len(decls))
				}
			}
			checkSpans(t, filepath.Join(out, "trace-"+wl.name+".jsonl"))
		})
	}
}

// checkSpans reads a trace file back and checks that every span's parent
// exists and contains it, and that the accounting closes: per operation,
// the self times of its spans add up to the operation's wall time.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	root := func(i int32) int32 {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return i
	}
	child := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			if s.Name != "bench.op" {
				t.Errorf("span %d (%s) has no parent but is not an operation", i, s.Name)
			}
			continue
		}
		if int(s.Parent) >= len(spans) {
			t.Fatalf("span %d (%s) names parent %d of %d spans", i, s.Name, s.Parent, len(spans))
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) [%d,%d] is outside its parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		child[s.Parent] += s.End - s.Start
	}
	selfSum := map[int32]int64{}
	for i, s := range spans {
		selfSum[root(int32(i))] += s.End - s.Start - child[i]
	}
	for op, sum := range selfSum {
		if wall := spans[op].End - spans[op].Start; sum != wall {
			t.Errorf("operation %d: self times add up to %d ns, wall time is %d ns", spans[op].Op, sum, wall)
		}
	}
}

// TestComposedStackMatchesFacade checks that the benchmark's hand-composed
// stack — with the tracing wrappers installed — returns the same answers
// and the same msq.Stats as the library's public entry points.
func TestComposedStackMatchesFacade(t *testing.T) {
	items := nearUniform(3, 1200, 8, 4)
	pool := queryPool(4, items, 12)
	qs := knnBatches(pool, 12, 5)[0]
	qs[3].Type = query.NewRange(0.1)
	public := make([]metricdb.Query, len(qs))
	for i, q := range qs {
		public[i] = metricdb.Query{ID: q.ID, Vec: q.Vec, Type: q.Type}
	}
	compare := func(t *testing.T, st *stack, tr *tracer, db *metricdb.DB) {
		t.Helper()
		got, gotStats, err := batchOp(st, tr, qs)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := db.NewBatch().QueryAll(public)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("answers differ from the facade's")
		}
		if gotStats != wantStats {
			t.Errorf("stats differ:\n composed %+v\n facade   %+v", gotStats, wantStats)
		}
	}
	for _, kind := range engineKinds {
		t.Run(string(kind), func(t *testing.T) {
			tr := newTracer()
			st, err := compose(stackSpec{kind: kind, items: items}, tr)
			if err != nil {
				t.Fatal(err)
			}
			db, err := metricdb.Open(items, metricdb.Options{Engine: metricdb.EngineKind(kind)})
			if err != nil {
				t.Fatal(err)
			}
			compare(t, st, tr, db)
		})
	}
	t.Run("stored", func(t *testing.T) {
		dir := t.TempDir()
		dim := items[0].Vec.Dim()
		capacity := store.PageCapacityForBlockSize(32768, dim)
		pages, err := store.Paginate(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		meta := store.DatasetMeta{Dim: dim, PageCapacity: capacity}
		if err := store.WriteDataset(dir, pages, meta, store.WriteOptions{NoSync: true}); err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		st, err := compose(stackSpec{kind: engines.Scan, items: items, dir: dir}, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer st.close() //nolint:errcheck // read-only
		db, err := metricdb.OpenStored(dir, metricdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close() //nolint:errcheck // read-only
		compare(t, st, tr, db)
	})
}

// TestWrongAnswersAreCaught makes each check fail once: the oracle, the
// repeat-execution fingerprint, and the DBSCAN label comparison.
func TestWrongAnswersAreCaught(t *testing.T) {
	items := nearUniform(5, 500, 8, 4)
	q := items[17].Vec
	want := bruteForce(items, q, query.NewKNN(5))
	if !sameAnswers(want, bruteForce(items, q, query.NewKNN(5))) {
		t.Fatal("oracle disagrees with itself")
	}
	wrong := append([]query.Answer(nil), want...)
	wrong[4].ID++
	if sameAnswers(wrong, want) {
		t.Error("a wrong ID passes the oracle")
	}
	if oracleBatch(items, []msq.Query{{Vec: q, Type: query.NewKNN(5)}}, [][]query.Answer{wrong}) != 1 {
		t.Error("oracleBatch does not count the wrong batch")
	}

	w := &dbscanXTree{}
	w.generate(5, true)
	sv, err := w.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := newChecker(w.cycle())
	twice := func(done int) bool { return done >= 2 }
	if p, err := runPass(w, sv, nil, ck, 1, twice); err != nil || p.failed != 0 || w.verify() != 0 {
		t.Fatalf("clean DBSCAN run: err=%v failed=%d verify=%d", err, p.failed, w.verify())
	}
	ck.first[0]++ // the next execution no longer reproduces the first
	if p, err := runPass(w, sv, nil, ck, 1, twice); err != nil || p.failed != 2 {
		t.Errorf("changed fingerprint: err=%v failed=%d, want 2", err, p.failed)
	}
	for i, l := range w.labels {
		if l != explore.Noise {
			w.labels[i] = explore.Noise
			break
		}
	}
	if w.verify() != 1 {
		t.Error("a changed DBSCAN label passes verify")
	}
}
