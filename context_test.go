package metricdb

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"metricdb/internal/dataset"
	"metricdb/internal/engines"
)

func TestOptionsValidate(t *testing.T) {
	good := []Options{
		{},
		{Engine: EngineScan},
		{Engine: EngineXTree, PageCapacity: 2},
		{Engine: EngineVAFile, PageCapacity: 1},
		{BufferPages: -1}, // sentinel: unbuffered
		{Avoidance: AvoidAuto},
		{Avoidance: AvoidLemma2},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("good options %d rejected: %v", i, err)
		}
	}
	bad := []Options{
		{Engine: "btree"},
		{PageCapacity: -1},
		{Engine: EngineXTree, PageCapacity: 1},
		{Avoidance: AvoidanceMode(9)},
		{Avoidance: AvoidanceMode(-1)},
	}
	for i, o := range bad {
		err := o.Validate()
		if err == nil {
			t.Errorf("bad options %d accepted: %+v", i, o)
		} else if !strings.HasPrefix(err.Error(), "metricdb: ") {
			t.Errorf("bad options %d: error %q lacks the metricdb: prefix", i, err)
		}
		if _, err := Open(testItems(1, 10, 3), o); err == nil {
			t.Errorf("Open accepted bad options %d: %+v", i, o)
		}
	}
}

// TestValidateAgreesWithOpen holds Validate to its promise that a front end
// can reject option mistakes before it loads data: over every engine kind
// (and an unknown one), page capacities 0, 1 and 2, buffer sentinels and a
// one-page buffer, and every avoidance mode (and one on each side of the
// range), options Validate accepts must open a small dataset. The default
// options of every engine kind must also open three 4 096-d items, where a
// 32 KB block holds a single vector, in memory, stored and as a cluster.
func TestValidateAgreesWithOpen(t *testing.T) {
	items := testItems(5, 60, 3)
	kinds := []EngineKind{"", "btree"}
	for _, k := range engines.Kinds() {
		kinds = append(kinds, EngineKind(k))
	}
	for _, kind := range kinds {
		for _, capacity := range []int{0, 1, 2} {
			for _, buffer := range []int{-1, 0, 1} {
				for mode := AvoidAuto - 1; mode <= AvoidLemma2+1; mode++ {
					o := Options{Engine: kind, PageCapacity: capacity, BufferPages: buffer, Avoidance: mode}
					if o.Validate() != nil {
						continue
					}
					if _, err := Open(items, o); err != nil {
						t.Errorf("Validate accepts %+v, Open refuses it: %v", o, err)
					}
				}
			}
		}
	}

	wide := testItems(6, 3, 4096)
	dir := t.TempDir()
	if err := dataset.SaveDir(dir, wide, dataset.SaveOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	for _, k := range engines.Kinds() {
		o := Options{Engine: EngineKind(k)}
		if _, err := Open(wide, o); err != nil {
			t.Errorf("Open of 4 096-d items with %+v: %v", o, err)
		}
		db, err := OpenStored(dir, o)
		if err != nil {
			t.Errorf("OpenStored of 4 096-d items with %+v: %v", o, err)
		} else if err := db.Close(); err != nil {
			t.Error(err)
		}
		if _, err := OpenCluster(wide, ClusterOptions{Servers: 1, Engine: o.Engine}); err != nil {
			t.Errorf("OpenCluster of 4 096-d items with %+v: %v", o, err)
		}
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db, err := Open(testItems(80, 400, 6), Options{PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := Vector{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.QueryContext(ctx, q, KNNQuery(5)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled QueryContext error = %v, want context.Canceled", err)
	}

	// An expired deadline surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer dcancel()
	if _, _, err := db.QueryContext(dctx, q, KNNQuery(5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired QueryContext error = %v, want context.DeadlineExceeded", err)
	}

	// A live context changes nothing: answers and stats match the
	// context-free path on a fresh, identically built database.
	want, _, err := db.Query(q, KNNQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.QueryContext(context.Background(), q, KNNQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("QueryContext returned %d answers, Query %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("answer %d: QueryContext %+v != Query %+v", i, got[i], want[i])
		}
	}
}

func TestBatchContextCancellationAndResume(t *testing.T) {
	items := testItems(81, 600, 6)
	db, err := Open(items, Options{PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{ID: 1, Vec: items[3].Vec, Type: KNNQuery(4)},
		{ID: 2, Vec: items[77].Vec, Type: KNNQuery(4)},
	}

	b := db.NewBatch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.QueryContext(ctx, queries); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Batch.QueryContext error = %v, want context.Canceled", err)
	}
	if _, _, err := b.QueryAllContext(ctx, queries); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Batch.QueryAllContext error = %v, want context.Canceled", err)
	}

	// The aborted batch resumes: a live context completes the same batch,
	// and the answers match a fresh uncancelled batch.
	got, _, err := b.QueryAllContext(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.NewBatch().QueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("query %d: resumed batch returned %d answers, fresh batch %d", qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			if got[qi][i] != want[qi][i] {
				t.Errorf("query %d answer %d: resumed %+v != fresh %+v", qi, i, got[qi][i], want[qi][i])
			}
		}
	}
}

func TestProcessorStatsFacade(t *testing.T) {
	db, err := Open(testItems(82, 200, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := db.ProcessorStats()
	// The default mode is reported resolved: Euclidean has a native bounded
	// kernel, so AvoidAuto runs as AvoidOff.
	if st.Avoidance != AvoidOff {
		t.Errorf("fresh ProcessorStats = %+v", st)
	}
	if st.DistCalcs != 0 {
		t.Errorf("fresh DistCalcs = %d, want 0", st.DistCalcs)
	}
	if _, _, err := db.Query(Vector{0.1, 0.2, 0.3, 0.4}, KNNQuery(3)); err != nil {
		t.Fatal(err)
	}
	after := db.ProcessorStats()
	if after.DistCalcs <= 0 {
		t.Errorf("DistCalcs after a query = %d, want > 0", after.DistCalcs)
	}
	if after.PartialAbandoned > after.DistCalcs {
		t.Errorf("PartialAbandoned %d exceeds DistCalcs %d", after.PartialAbandoned, after.DistCalcs)
	}
	if after.PivotDistCalcs != 0 {
		t.Errorf("PivotDistCalcs on the scan = %d, want 0", after.PivotDistCalcs)
	}

	// The pivot engine reports its query-to-pivot setup distances.
	pivot, err := Open(testItems(12, 500, 6), Options{Engine: EnginePivot})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pivot.NewBatch().QueryAll([]Query{{Vec: Vector{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, Type: KNNQuery(5)}}); err != nil {
		t.Fatal(err)
	}
	if got := pivot.ProcessorStats().PivotDistCalcs; got <= 0 {
		t.Errorf("PivotDistCalcs on the pivot engine = %d, want > 0", got)
	}
}
