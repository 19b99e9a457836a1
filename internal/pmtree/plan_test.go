package pmtree

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/vec"
)

// boxedHeap is the descent's heap as container/heap drives it, every entry
// boxed in an interface — kept as the oracle of planHeap.
type boxedHeap []planEntry

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return planHeap(h).less(i, j) }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(planEntry)) }
func (h *boxedHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// boxedPlan is the best-first descent over container/heap. It also reports
// the most entries its heap held at once.
func boxedPlan(p *prepared, queryDist float64) ([]engine.PageRef, int) {
	e := p.e
	root := len(e.nodes) - 1
	h := boxedHeap{{lb: p.rootLB(root), node: root}}
	var refs []engine.PageRef
	most := 1
	lbs := p.leafMemo()
	for len(h) > 0 {
		ent := heap.Pop(&h).(planEntry)
		if ent.lb > queryDist {
			break
		}
		nd := &e.nodes[ent.node]
		if nd.isLeaf() {
			if math.IsNaN(lbs[nd.pid]) {
				lbs[nd.pid] = ent.lb
			}
			refs = append(refs, engine.PageRef{ID: nd.pid, MinDist: ent.lb})
			continue
		}
		for c := nd.firstChild; c < nd.firstChild+nd.numChildren; c++ {
			if lb := max(p.nodeLB(c), ent.lb); lb <= queryDist {
				heap.Push(&h, planEntry{lb: lb, node: c})
			}
		}
		most = max(most, len(h))
	}
	return refs, most
}

// TestPlanMatchesBoxedHeap holds the typed heap over its frame to
// container/heap's: the same refs with the same bits in the same order, and
// the same leaf memo, on a tree whose +Inf descent fits the frame and on one
// whose descent holds more entries than the frame, so the heap spills, and
// on a tree with more pivots than DefaultPivots.
func TestPlanMatchesBoxedHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	spilled := false
	for _, c := range []struct {
		n, capacity, fanout, pivots int
	}{{500, 16, 4, 4}, {6000, 4, 8, 4}, {500, 16, 4, DefaultPivots + 4}} {
		const dim = 4
		e, err := New(testItems(int64(c.n), c.n, dim), Config{PageCapacity: c.capacity, Pivots: c.pivots, Fanout: c.fanout})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 10; round++ {
			q := make(vec.Vector, dim)
			for d := range q {
				q[d] = 1.2*rng.Float64() - 0.1
			}
			for _, queryDist := range []float64{math.Inf(1), 0.4, 0.1, 0} {
				label := fmt.Sprintf("n=%d pivots=%d round %d queryDist=%v", c.n, c.pivots, round, queryDist)
				got, oracle := e.Prepare(q).(*prepared), e.Prepare(q).(*prepared)
				plan := got.Plan(queryDist)
				want, most := boxedPlan(oracle, queryDist)
				spilled = spilled || most > 128
				if len(plan) != len(want) {
					t.Fatalf("%s: %d refs, want %d", label, len(plan), len(want))
				}
				for i := range want {
					if plan[i].ID != want[i].ID || math.Float64bits(plan[i].MinDist) != math.Float64bits(want[i].MinDist) {
						t.Fatalf("%s: ref %d is %+v, want %+v", label, i, plan[i], want[i])
					}
				}
				gotLB, wantLB := got.leafMemo(), oracle.leafMemo()
				for pid := range gotLB {
					if math.Float64bits(gotLB[pid]) != math.Float64bits(wantLB[pid]) {
						t.Fatalf("%s: page %d memo %v, want %v", label, pid, gotLB[pid], wantLB[pid])
					}
				}
			}
		}
	}
	if !spilled {
		t.Error("no descent held more entries than the frame")
	}
}
