package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"metricdb/internal/vec"
)

// The generalized MINDIST of a rectangle is vec.Boxes' (the X-tree holds its
// MBRs as Rects while it builds and as Boxes once built); LowerBound is that
// of one Rect.
func LowerBound(m vec.Metric, r Rect, q vec.Vector) float64 { return oneBox(m, r).Bound(q, 0) }

func oneBox(m vec.Metric, r Rect) *vec.Boxes {
	return vec.NewBoxes(m, []vec.Vector{r.Min}, []vec.Vector{r.Max})
}

// boundByGapVector materializes the gap vector and hands it to the metric:
// the definition of the bound, and what vec.Boxes must equal bit for bit.
func boundByGapVector(base vec.Metric, r Rect, q vec.Vector) float64 {
	gap := make(vec.Vector, len(q))
	zero := make(vec.Vector, len(q))
	for i := range q {
		gap[i] = vec.BoxGap(q[i], r.Min[i], r.Max[i])
	}
	return base.Distance(gap, zero)
}

func TestLowerBoundMatchesMinDistForEuclidean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRect(rng, 4)
		q := randVec(rng, 4)
		return math.Abs(LowerBound(vec.Euclidean{}, r, q)-r.MinDist(q)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBoundsSandwichDistances: for any point p inside r and any metric in
// the coordinatewise family, LowerBound <= dist(q, p).
func TestBoundsSandwichDistances(t *testing.T) {
	metrics := []vec.Metric{vec.Euclidean{}, vec.Manhattan{}, vec.Chebyshev{}}
	mk, err := vec.NewMinkowski(3)
	if err != nil {
		t.Fatal(err)
	}
	metrics = append(metrics, mk)
	we, err := vec.NewWeightedEuclidean(vec.Vector{2, 0.5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	metrics = append(metrics, we)

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRect(rng, 4)
		q := randVec(rng, 4)
		// A random point inside r.
		p := make(vec.Vector, 4)
		for i := range p {
			p[i] = r.Min[i] + rng.Float64()*(r.Max[i]-r.Min[i])
		}
		const eps = 1e-9
		for _, m := range metrics {
			d := m.Distance(q, p)
			if LowerBound(m, r, q) > d+eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBoundsForNonCoordinatewiseMetric(t *testing.T) {
	hm, err := vec.HistogramSimilarityMatrix(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := vec.NewQuadraticForm(3, hm)
	if err != nil {
		t.Fatal(err)
	}
	r := PointRect(vec.Vector{1, 1, 1})
	q := vec.Vector{0, 0, 0}
	if got := LowerBound(qf, r, q); got != 0 {
		t.Errorf("LowerBound = %v, want 0 for non-coordinatewise metric", got)
	}
}

func TestBoundsUnwrapCountingMetric(t *testing.T) {
	c := vec.NewCounting(vec.Euclidean{})
	r, err := NewRect(vec.Vector{0, 0}, vec.Vector{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = LowerBound(c, r, vec.Vector{2, 0})
	if got := c.Count(); got != 0 {
		t.Errorf("bound evaluation charged %d distance calculations", got)
	}
}

// TestAreaWithPointMatchesUnion cross-checks the allocation-free fast path
// against the materialized union.
func TestAreaWithPointMatchesUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRect(rng, 3)
		p := randVec(rng, 3)
		want := r.Union(PointRect(p)).Area()
		return math.Abs(r.AreaWithPoint(p)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOverlapWithPointMatchesUnion does the same for the grown-overlap
// fast path.
func TestOverlapWithPointMatchesUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRect(rng, 3)
		o := randRect(rng, 3)
		p := randVec(rng, 3)
		want := r.Union(PointRect(p)).Overlap(o)
		return math.Abs(r.OverlapWithPoint(p, o)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// foreignL1 is a coordinatewise metric vec has no kernel for.
type foreignL1 struct{ vec.Manhattan }

// TestBoundsMatchGapVectorForm: for every coordinatewise metric the
// repository ships the bounds of a Rect laid out as vec.Boxes return the bits
// of the definition — the metric applied to the materialized gap vector — and
// allocate nothing; a coordinatewise metric from elsewhere still gets the
// definition.
func TestBoundsMatchGapVectorForm(t *testing.T) {
	const dim = 7
	rng := rand.New(rand.NewSource(15))
	metrics := []vec.Metric{vec.Euclidean{}, vec.Manhattan{}, vec.Chebyshev{}, foreignL1{}}
	for _, p := range []float64{1, 2, 3, 2.5, 40} {
		mk, err := vec.NewMinkowski(p)
		if err != nil {
			t.Fatal(err)
		}
		metrics = append(metrics, mk)
	}
	w := make(vec.Vector, dim)
	for i := range w {
		w[i] = 0.1 + 3*rng.Float64()
	}
	we, err := vec.NewWeightedEuclidean(w)
	if err != nil {
		t.Fatal(err)
	}
	metrics = append(metrics, we, vec.NewCounting(we))

	for round := 0; round < 2000; round++ {
		r := randRect(rng, dim)
		q := randVec(rng, dim)
		switch round % 4 {
		case 1: // a query inside the rectangle: all-zero lower gaps
			for i := range q {
				q[i] = r.Min[i] + rng.Float64()*(r.Max[i]-r.Min[i])
			}
		case 2: // a degenerate rectangle, the query on one of its faces
			r = PointRect(randVec(rng, dim))
			q[0] = r.Min[0]
		}
		for _, m := range metrics {
			base := vec.BaseMetric(m)
			if got, want := LowerBound(m, r, q), boundByGapVector(base, r, q); got != want {
				t.Fatalf("%s: LowerBound = %v, gap-vector form %v (r=%v q=%v)", m.Name(), got, want, r, q)
			}
		}
	}

	r, q := randRect(rng, dim), randVec(rng, dim)
	for _, m := range metrics {
		if _, foreign := m.(foreignL1); foreign {
			continue
		}
		b := oneBox(m, r)
		if n := testing.AllocsPerRun(100, func() { _ = b.Bound(q, 0) }); n != 0 {
			t.Errorf("%s: %v allocations per LowerBound", m.Name(), n)
		}
	}
}
