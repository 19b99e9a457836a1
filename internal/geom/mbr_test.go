package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"metricdb/internal/vec"
)

func rect(t *testing.T, min, max vec.Vector) Rect {
	t.Helper()
	r, err := NewRect(min, max)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect(vec.Vector{0, 0}, vec.Vector{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := NewRect(vec.Vector{2}, vec.Vector{1}); err == nil {
		t.Error("inverted corners accepted")
	}
	if _, err := NewRect(vec.Vector{0}, vec.Vector{0}); err != nil {
		t.Errorf("degenerate rect rejected: %v", err)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect(3)
	if !e.IsEmpty() {
		t.Error("EmptyRect is not empty")
	}
	if e.Area() != 0 || e.Margin() != 0 {
		t.Error("empty rect has nonzero area or margin")
	}
	r := rect(t, vec.Vector{0, 0, 0}, vec.Vector{1, 1, 1})
	if got := e.Union(r); !got.ContainsRect(r) || !r.ContainsRect(got) {
		t.Errorf("Union with empty = %v, want %v", got, r)
	}
	if e.Intersects(r) {
		t.Error("empty rect intersects something")
	}
	if !r.ContainsRect(e) {
		t.Error("every rect should contain the empty rect")
	}
}

func TestContainsAndIntersects(t *testing.T) {
	r := rect(t, vec.Vector{0, 0}, vec.Vector{2, 2})
	if !r.Contains(vec.Vector{1, 1}) || !r.Contains(vec.Vector{0, 0}) || !r.Contains(vec.Vector{2, 2}) {
		t.Error("Contains misses interior/boundary points")
	}
	if r.Contains(vec.Vector{3, 1}) {
		t.Error("Contains accepts outside point")
	}

	s := rect(t, vec.Vector{1, 1}, vec.Vector{3, 3})
	if !r.Intersects(s) || !s.Intersects(r) {
		t.Error("overlapping rects do not intersect")
	}
	far := rect(t, vec.Vector{5, 5}, vec.Vector{6, 6})
	if r.Intersects(far) {
		t.Error("disjoint rects intersect")
	}
	touch := rect(t, vec.Vector{2, 0}, vec.Vector{3, 2})
	if !r.Intersects(touch) {
		t.Error("touching rects should intersect")
	}
}

func TestAreaMarginOverlap(t *testing.T) {
	r := rect(t, vec.Vector{0, 0}, vec.Vector{2, 3})
	if got := r.Area(); got != 6 {
		t.Errorf("Area = %v, want 6", got)
	}
	if got := r.Margin(); got != 5 {
		t.Errorf("Margin = %v, want 5", got)
	}
	s := rect(t, vec.Vector{1, 1}, vec.Vector{3, 4})
	if got := r.Overlap(s); got != 2 {
		t.Errorf("Overlap = %v, want 2", got)
	}
	far := rect(t, vec.Vector{10, 10}, vec.Vector{11, 11})
	if got := r.Overlap(far); got != 0 {
		t.Errorf("Overlap disjoint = %v, want 0", got)
	}
	if got := r.Enlargement(PointRect(vec.Vector{4, 3})); got != 6 {
		t.Errorf("Enlargement = %v, want 6", got)
	}
}

func TestExtend(t *testing.T) {
	r := EmptyRect(2)
	r.Extend(vec.Vector{1, 1})
	r.Extend(vec.Vector{-1, 3})
	want := rect(t, vec.Vector{-1, 1}, vec.Vector{1, 3})
	if !r.ContainsRect(want) || !want.ContainsRect(r) {
		t.Errorf("Extend = %v, want %v", r, want)
	}

	r.ExtendRect(rect(t, vec.Vector{0, 0}, vec.Vector{5, 5}))
	if !r.Contains(vec.Vector{5, 0}) {
		t.Error("ExtendRect did not grow rectangle")
	}
	sz := r.Clone()
	r.ExtendRect(EmptyRect(2))
	if !r.ContainsRect(sz) || !sz.ContainsRect(r) {
		t.Error("ExtendRect with empty changed the rectangle")
	}
}

// minDist is MINDIST(p, r) in the Euclidean metric written out directly:
// the distance from p to the nearest point of r, 0 if p is inside r. It is
// the reference the generalized bound is checked against.
func minDist(r Rect, p vec.Vector) float64 {
	var s float64
	for i := range r.Min {
		var d float64
		switch {
		case p[i] < r.Min[i]:
			d = r.Min[i] - p[i]
		case p[i] > r.Max[i]:
			d = p[i] - r.Max[i]
		}
		s += d * d
	}
	return math.Sqrt(s)
}

func TestMinMaxDist(t *testing.T) {
	r := rect(t, vec.Vector{0, 0}, vec.Vector{2, 2})
	cases := []struct {
		p   vec.Vector
		min float64
	}{
		{vec.Vector{1, 1}, 0},              // inside
		{vec.Vector{3, 1}, 1},              // right of box
		{vec.Vector{-1, -1}, math.Sqrt(2)}, // corner
		{vec.Vector{1, 5}, 3},              // above
		{vec.Vector{0, 0}, 0},              // on corner
	}
	for _, c := range cases {
		if got := minDist(r, c.p); math.Abs(got-c.min) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.min)
		}
	}
}

func TestCenter(t *testing.T) {
	r := rect(t, vec.Vector{0, 2}, vec.Vector{4, 4})
	if got := r.Center(); !got.Equal(vec.Vector{2, 3}) {
		t.Errorf("Center = %v", got)
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []vec.Vector{{1, 1}, {0, 3}, {2, 0}}
	r := BoundingRect(pts)
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("BoundingRect misses %v", p)
		}
	}
	if got := BoundingRect(nil); !got.IsEmpty() {
		t.Errorf("BoundingRect(nil) = %v, want empty", got)
	}
}

// Property: for random points p, q and a random rect containing q,
// MinDist(p, r) <= dist(p, q). This is the exact safety contract that index
// pruning relies on.
func TestMinMaxDistBoundsProperty(t *testing.T) {
	const dim = 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randVec(rng, dim)
		q := randVec(rng, dim)
		r := PointRect(q)
		// Grow the rect randomly around q.
		for i := 0; i < dim; i++ {
			r.Min[i] -= rng.Float64() * 3
			r.Max[i] += rng.Float64() * 3
		}
		d := vec.Euclidean{}.Distance(p, q)
		const eps = 1e-9
		return minDist(r, p) <= d+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Union is commutative, covers both operands, and Overlap is
// symmetric and bounded by min area.
func TestRectAlgebraProperty(t *testing.T) {
	const dim = 4
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randRect(rng, dim)
		b := randRect(rng, dim)

		u1, u2 := a.Union(b), b.Union(a)
		if !u1.ContainsRect(a) || !u1.ContainsRect(b) {
			return false
		}
		if !u1.ContainsRect(u2) || !u2.ContainsRect(u1) {
			return false
		}
		const eps = 1e-9
		ov := a.Overlap(b)
		if math.Abs(ov-b.Overlap(a)) > eps {
			return false
		}
		return ov <= math.Min(a.Area(), b.Area())+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func randVec(rng *rand.Rand, dim int) vec.Vector {
	v := make(vec.Vector, dim)
	for i := range v {
		v[i] = rng.Float64()*10 - 5
	}
	return v
}

func randRect(rng *rand.Rand, dim int) Rect {
	a, b := randVec(rng, dim), randVec(rng, dim)
	r := PointRect(a)
	r.Extend(b)
	return r
}
