package query

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

func TestTypeConstructors(t *testing.T) {
	r := NewRange(0.5)
	if r.Kind != Range || r.Range != 0.5 || r.Bounded() {
		t.Errorf("NewRange = %+v", r)
	}
	k := NewKNN(10)
	if k.Kind != KNN || k.Cardinality != 10 || !math.IsInf(k.Range, 1) || !k.Bounded() {
		t.Errorf("NewKNN = %+v", k)
	}
	b := NewBoundedKNN(5, 2)
	if b.Kind != BoundedKNN || b.Cardinality != 5 || b.Range != 2 || !b.Bounded() {
		t.Errorf("NewBoundedKNN = %+v", b)
	}
	for _, typ := range []Type{r, k, b} {
		if err := typ.Validate(); err != nil {
			t.Errorf("%v invalid: %v", typ, err)
		}
	}
}

func TestTypeValidateRejects(t *testing.T) {
	bad := []Type{
		NewRange(-1),
		NewRange(math.NaN()),
		NewKNN(0),
		NewKNN(-3),
		NewBoundedKNN(0, 1),
		NewBoundedKNN(3, -1),
		{Kind: Kind(42)},
	}
	for _, typ := range bad {
		if err := typ.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid type", typ)
		}
	}
}

func TestTypeAndKindStrings(t *testing.T) {
	cases := []struct {
		typ  Type
		want string
	}{
		{NewRange(0.5), "range(ε=0.5)"},
		{NewKNN(10), "knn(k=10)"},
		{NewBoundedKNN(3, 1), "bounded-knn(k=3, ε=1)"},
	}
	for _, c := range cases {
		if got := c.typ.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	if Kind(42).String() == "" || !strings.Contains(Type{Kind: Kind(42)}.String(), "42") {
		t.Error("unknown kind has no diagnostic string")
	}
	if Range.String() != "range" || KNN.String() != "knn" || BoundedKNN.String() != "bounded-knn" {
		t.Error("kind names wrong")
	}
}

func TestInitialQueryDist(t *testing.T) {
	if got := NewRange(2).InitialQueryDist(); got != 2 {
		t.Errorf("range initial dist = %v", got)
	}
	if got := NewKNN(3).InitialQueryDist(); !math.IsInf(got, 1) {
		t.Errorf("knn initial dist = %v", got)
	}
	if got := NewBoundedKNN(3, 1.5).InitialQueryDist(); got != 1.5 {
		t.Errorf("bounded-knn initial dist = %v", got)
	}
}

func TestAnswerListKNN(t *testing.T) {
	l := NewAnswerList(NewKNN(3))
	if !math.IsInf(l.QueryDist(), 1) {
		t.Error("empty kNN list should not prune")
	}

	dists := []float64{5, 1, 3, 2, 4}
	for i, d := range dists {
		l.Consider(store.ItemID(i), d)
	}
	if l.Len() != 3 || !l.Full() {
		t.Fatalf("Len = %d, Full = %v", l.Len(), l.Full())
	}
	got := l.Answers()
	wantDists := []float64{1, 2, 3}
	for i, a := range got {
		if a.Dist != wantDists[i] {
			t.Errorf("answer %d dist = %v, want %v", i, a.Dist, wantDists[i])
		}
	}
	if l.QueryDist() != 3 {
		t.Errorf("QueryDist = %v, want 3 (distance of 3rd NN)", l.QueryDist())
	}
	// An answer beyond the adapted query distance is rejected.
	if l.Consider(99, 3.5) {
		t.Error("answer beyond query distance accepted")
	}
}

func TestAnswerListRange(t *testing.T) {
	l := NewAnswerList(NewRange(2))
	accepted := 0
	for i, d := range []float64{0.5, 2.0, 2.1, 1.0, 3.0} {
		if l.Consider(store.ItemID(i), d) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Errorf("accepted %d answers, want 3 (<= ε including boundary)", accepted)
	}
	if l.Full() {
		t.Error("range list reported Full")
	}
	if l.QueryDist() != 2 {
		t.Errorf("range QueryDist = %v, want constant ε", l.QueryDist())
	}
	got := l.Answers()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
		t.Errorf("range answers not sorted: %v", got)
	}
}

func TestAnswerListBoundedKNN(t *testing.T) {
	l := NewAnswerList(NewBoundedKNN(2, 1.0))
	l.Consider(1, 0.5)
	if l.Consider(2, 1.5) {
		t.Error("answer beyond ε accepted by bounded kNN")
	}
	l.Consider(3, 0.9)
	l.Consider(4, 0.1)
	ids := l.IDs()
	if len(ids) != 2 || ids[0] != 4 || ids[1] != 1 {
		t.Errorf("IDs = %v, want [4 1]", ids)
	}
	if l.QueryDist() != 0.5 {
		t.Errorf("QueryDist = %v, want 0.5", l.QueryDist())
	}
}

// TestAnswerListPresizeIsBounded: k arrives from clients, so it must not
// size an allocation by itself — a 4 KB request of k = 10⁶ queries asked for
// 16 MB a query — while a list longer than the bound still keeps every
// answer.
func TestAnswerListPresizeIsBounded(t *testing.T) {
	for _, typ := range []Type{NewKNN(1 << 19), NewBoundedKNN(1<<19, 1), NewKNN(1 << 40), NewKNN(-3)} {
		if l := NewAnswerList(typ); cap(l.answers) > maxPresized {
			t.Errorf("%v: presized to %d answers", typ, cap(l.answers))
		}
	}
	if l := NewAnswerList(NewKNN(10)); cap(l.answers) != 10 {
		t.Errorf("k = 10: presized to %d, want 10", cap(l.answers))
	}
	l := NewAnswerList(NewKNN(3 * maxPresized))
	for i := 0; i < 4*maxPresized; i++ {
		l.Consider(store.ItemID(i), float64(i))
	}
	if ids := l.IDs(); len(ids) != 3*maxPresized || ids[len(ids)-1] != store.ItemID(3*maxPresized-1) {
		t.Errorf("k = %d: kept %d answers", 3*maxPresized, len(ids))
	}
}

func TestAnswerListTieBreaking(t *testing.T) {
	l := NewAnswerList(NewKNN(2))
	l.Consider(7, 1.0)
	l.Consider(3, 1.0)
	l.Consider(5, 1.0)
	ids := l.IDs()
	if ids[0] != 3 || ids[1] != 5 {
		t.Errorf("tie-broken IDs = %v, want [3 5]", ids)
	}
}

// TestConsiderAllMatchesConsider: a batch offered through ConsiderAll leaves
// the list exactly as the same answers offered one by one through Consider —
// the same elements in the same order, the same sortedness — for range lists
// of finite, zero and infinite ε, on fresh and on partly filled, sorted and
// unsorted lists, with distances on ε, past it, infinite and NaN, and for an
// empty batch. A bounded list refuses ConsiderAll.
func TestConsiderAllMatchesConsider(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inf := math.Inf(1)
	for _, typ := range []Type{NewKNN(3), NewBoundedKNN(4, 0.5)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: ConsiderAll on a bounded list did not panic", typ)
				}
			}()
			NewAnswerList(typ).ConsiderAll([]Answer{{ID: 1, Dist: 0}})
		}()
	}
	for _, typ := range []Type{NewRange(0.5), NewRange(0), NewRange(inf)} {
		for round := 0; round < 200; round++ {
			batches := make([][]Answer, 1+rng.Intn(4))
			for b := range batches {
				batch := make([]Answer, rng.Intn(6))
				for i := range batch {
					d := []float64{0, 0.5, 0.25, 0.75, inf, math.NaN(), rng.Float64()}[rng.Intn(7)]
					batch[i] = Answer{ID: store.ItemID(rng.Intn(50)), Dist: d}
				}
				batches[b] = batch
			}
			one, all := NewAnswerListFor(vec.Vector{1, 2}, typ), NewAnswerListFor(vec.Vector{1, 2}, typ)
			for b, batch := range batches {
				for _, a := range batch {
					one.Consider(a.ID, a.Dist)
				}
				all.ConsiderAll(batch)
				if b == 1 { // read mid-stream: the next batch lands on a sorted list
					one.Answers()
					all.Answers()
				}
				if one.sorted != all.sorted || len(one.answers) != len(all.answers) {
					t.Fatalf("%v round %d batch %d: sorted %v/%v, %d/%d answers", typ, round, b, all.sorted, one.sorted, len(all.answers), len(one.answers))
				}
				for i := range one.answers {
					x, y := one.answers[i], all.answers[i]
					if x.ID != y.ID || math.Float64bits(x.Dist) != math.Float64bits(y.Dist) {
						t.Fatalf("%v round %d batch %d: answer %d is %v, Consider's %v", typ, round, b, i, y, x)
					}
				}
			}
		}
	}
}

func TestAnswerListRecordsItsQuery(t *testing.T) {
	q := vec.Vector{1, 2}
	l := NewAnswerListFor(q, NewKNN(2))
	l.Consider(3, 0.5)
	if &l.Object()[0] != &q[0] || len(l.Object()) != len(q) {
		t.Error("the list lost the query object")
	}
	if NewAnswerList(NewKNN(2)).Object() != nil {
		t.Error("a list created without a query object reports one")
	}
}

// Property: an AnswerList fed a random stream produces exactly the k nearest
// by (dist, id), matching an oracle that sorts the full stream.
func TestAnswerListMatchesOracle(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%10) + 1
		n := 50
		type pair struct {
			id store.ItemID
			d  float64
		}
		stream := make([]pair, n)
		for i := range stream {
			stream[i] = pair{store.ItemID(i), float64(rng.Intn(20))} // ints force ties
		}

		l := NewAnswerList(NewKNN(k))
		for _, p := range stream {
			l.Consider(p.id, p.d)
		}

		oracle := append([]pair(nil), stream...)
		sort.Slice(oracle, func(i, j int) bool {
			if oracle[i].d != oracle[j].d {
				return oracle[i].d < oracle[j].d
			}
			return oracle[i].id < oracle[j].id
		})
		got := l.Answers()
		if len(got) != k {
			return false
		}
		for i := range got {
			if got[i].ID != oracle[i].id || got[i].Dist != oracle[i].d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: QueryDist never increases as answers are considered, which the
// page-pruning and avoidance logic depend on.
func TestQueryDistMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewAnswerList(NewKNN(int(rng.Int63n(8)) + 1))
		prev := l.QueryDist()
		for i := 0; i < 100; i++ {
			l.Consider(store.ItemID(i), rng.Float64()*10)
			cur := l.QueryDist()
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBoundedConsiderMatchesModel holds a bounded list to a brute-force top-k
// after every Consider, on streams whose distances tie often and which offer
// the current worst distance under a random ID, so that ties at the worst
// answer enter (a smaller ID) or are dropped (a larger one). The return value
// follows the rule Consider documents: true whenever dist <= QueryDist() at
// the call, a dropped tie included.
func TestBoundedConsiderMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, k := range []int{1, 2, 10, maxPresized + 1} {
		for _, typ := range []Type{NewKNN(k), NewBoundedKNN(k, 30)} {
			n := 2*k + 200
			ids := rng.Perm(n)
			l := NewAnswerList(typ)
			var seen []Answer // every qualifying answer offered, in (dist, ID) order
			for i := 0; i < n; i++ {
				a := Answer{ID: store.ItemID(ids[i]), Dist: float64(rng.Intn(40))}
				if l.Full() && rng.Intn(3) == 0 {
					a.Dist = l.QueryDist()
				}
				qd := l.QueryDist()
				if got := l.Consider(a.ID, a.Dist); got != (a.Dist <= qd) {
					t.Fatalf("%v: Consider(%v) = %v at query distance %v", typ, a, got, qd)
				}
				if a.Dist <= typ.Range {
					j, _ := slices.BinarySearchFunc(seen, a, func(x, y Answer) int {
						if less(x, y) {
							return -1
						}
						if less(y, x) {
							return 1
						}
						return 0
					})
					seen = slices.Insert(seen, j, a)
				}
				want := seen[:min(k, len(seen))]
				if got := l.Answers(); !slices.Equal(got, want) {
					t.Fatalf("%v after %d answers: list %v, want %v", typ, i+1, got, want)
				}
			}
			if !l.Full() {
				t.Fatalf("%v: list never filled", typ)
			}
		}
	}
}

// TestFullBoundedConsiderAllocatesNothing: a full list presized to its k
// takes a closer answer by shifting within its capacity — the first closer
// answer too, which is why every run offers one to a list just filled.
func TestFullBoundedConsiderAllocatesNothing(t *testing.T) {
	const runs = 20
	for _, k := range []int{1, 10, maxPresized} {
		lists := make([]*AnswerList, runs+1) // AllocsPerRun calls once more to warm up
		for i := range lists {
			lists[i] = NewAnswerList(NewKNN(k))
			for j := 0; j < k; j++ {
				lists[i].Consider(store.ItemID(j), 1e6+float64(j))
			}
		}
		next := 0
		if got := testing.AllocsPerRun(runs, func() {
			if !lists[next].Consider(store.ItemID(k), 0) {
				t.Fatal("a closer answer was refused")
			}
			next++
		}); got != 0 {
			t.Errorf("k=%d: %v allocations per Consider on a full list, want 0", k, got)
		}
		for _, l := range lists {
			if l.Len() != k || l.Answers()[0].Dist != 0 {
				t.Fatalf("k=%d: list holds %d answers, the first %v", k, l.Len(), l.Answers()[0])
			}
		}
	}
}

// TestShortSortsMatchSortFunc: Answers sorts a short list by insertion and
// a long one by slices.SortFunc; at every length from 0 to 40, over lists
// with many ties on distance, both give what slices.SortFunc gives by
// (distance, ID).
func TestShortSortsMatchSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	byDistID := func(a, b Answer) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	}
	for n := 0; n <= 40; n++ {
		for round := 0; round < 20; round++ {
			l := NewAnswerListFor(vec.Vector{1}, NewRange(1))
			for _, id := range rng.Perm(n) {
				// Few distinct distances, so that most answers tie on one.
				l.Consider(store.ItemID(id), float64(rng.Intn(1+n/4))/8)
			}
			want := slices.Clone(l.answers)
			slices.SortFunc(want, byDistID)
			if got := l.Answers(); !slices.Equal(got, want) {
				t.Fatalf("%d answers, round %d: %v, want %v", n, round, got, want)
			}
		}
	}
}
