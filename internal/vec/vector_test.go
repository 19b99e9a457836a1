package vec

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}

	if got := v.Dim(); got != 3 {
		t.Errorf("Dim() = %d, want 3", got)
	}
	if got := v.Add(w); !got.Equal(Vector{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); !got.Equal(Vector{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); !got.Equal(Vector{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := (Vector{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestVectorEqual(t *testing.T) {
	cases := []struct {
		a, b Vector
		want bool
	}{
		{Vector{1, 2}, Vector{1, 2}, true},
		{Vector{1, 2}, Vector{1, 3}, false},
		{Vector{1, 2}, Vector{1, 2, 3}, false},
		{Vector{}, Vector{}, true},
		{nil, Vector{}, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestVectorL1Normalize(t *testing.T) {
	v := Vector{1, 3}
	v.L1Normalize()
	if !v.Equal(Vector{0.25, 0.75}) {
		t.Errorf("L1Normalize = %v", v)
	}
	z := Vector{0, 0}
	z.L1Normalize() // must not divide by zero
	if !z.Equal(Vector{0, 0}) {
		t.Errorf("L1Normalize of zero vector = %v", z)
	}
}

func TestVectorString(t *testing.T) {
	s := Vector{1, 2.5}.String()
	if !strings.Contains(s, "1") || !strings.Contains(s, "2.5") {
		t.Errorf("String() = %q", s)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Euclidean{}.Distance(Vector{1}, Vector{1, 2})
}

func TestMetricValues(t *testing.T) {
	a := Vector{0, 0}
	b := Vector{3, 4}

	if got := (Euclidean{}).Distance(a, b); got != 5 {
		t.Errorf("euclidean = %v, want 5", got)
	}
	if got := (Manhattan{}).Distance(a, b); got != 7 {
		t.Errorf("manhattan = %v, want 7", got)
	}
	if got := (Chebyshev{}).Distance(a, b); got != 4 {
		t.Errorf("chebyshev = %v, want 4", got)
	}

	m2, err := NewMinkowski(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Distance(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("minkowski(2) = %v, want 5", got)
	}
}

func TestMinkowskiRejectsBadOrder(t *testing.T) {
	for _, p := range []float64{0.5, 0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewMinkowski(p); err == nil {
			t.Errorf("NewMinkowski(%v) accepted a non-metric order", p)
		}
	}
}

func TestWeightedEuclidean(t *testing.T) {
	m, err := NewWeightedEuclidean(Vector{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	// sqrt(4*(1-0)^2 + 1*(0-0)^2) = 2
	if got := m.Distance(Vector{0, 0}, Vector{1, 0}); got != 2 {
		t.Errorf("weighted euclidean = %v, want 2", got)
	}

	if _, err := NewWeightedEuclidean(Vector{1, 0}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewWeightedEuclidean(Vector{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewWeightedEuclidean(nil); err == nil {
		t.Error("empty weights accepted")
	}
}

func TestWeightedEuclideanWrongDimPanics(t *testing.T) {
	m, err := NewWeightedEuclidean(Vector{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when query dim differs from weight dim")
		}
	}()
	m.Distance(Vector{1, 2, 3}, Vector{1, 2, 3})
}

func TestQuadraticFormIdentityMatchesEuclidean(t *testing.T) {
	const dim = 8
	qf, err := NewQuadraticForm(dim, IdentityMatrix(dim))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a, b := randomVector(rng, dim), randomVector(rng, dim)
		want := Euclidean{}.Distance(a, b)
		got := qf.Distance(a, b)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("quadratic form with identity = %v, euclidean = %v", got, want)
		}
	}
}

func TestQuadraticFormRejectsBadMatrices(t *testing.T) {
	// Asymmetric.
	if _, err := NewQuadraticForm(2, []float64{1, 0.5, 0.2, 1}); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	// Not positive definite.
	if _, err := NewQuadraticForm(2, []float64{1, 2, 2, 1}); err == nil {
		t.Error("indefinite matrix accepted")
	}
	// Wrong size.
	if _, err := NewQuadraticForm(2, []float64{1, 0, 0}); err == nil {
		t.Error("wrong-size matrix accepted")
	}
	if _, err := NewQuadraticForm(0, nil); err == nil {
		t.Error("zero dimension accepted")
	}
	// Non-finite entries, on the diagonal and off it (symmetric, so that
	// only finiteness can refuse them).
	nan, inf := math.NaN(), math.Inf(1)
	for _, a := range [][]float64{
		{nan, 0, 0, 1}, {1, 0, 0, nan}, {1, nan, nan, 1},
		{inf, 0, 0, 1}, {1, 0, 0, inf}, {1, inf, inf, 1},
		{-inf, 0, 0, 1}, {1, 0, 0, -inf}, {1, -inf, -inf, 1},
	} {
		if q, err := NewQuadraticForm(2, a); err == nil {
			t.Errorf("matrix %v accepted, Cholesky factor %v", a, q.chol)
		}
	}
}

func TestHistogramSimilarityMatrix(t *testing.T) {
	m, err := HistogramSimilarityMatrix(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQuadraticForm(16, m); err != nil {
		t.Errorf("histogram similarity matrix is not positive definite: %v", err)
	}
	if _, err := HistogramSimilarityMatrix(0, 1); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := HistogramSimilarityMatrix(4, 0); err == nil {
		t.Error("zero decay accepted")
	}
}

func TestCounting(t *testing.T) {
	c := NewCounting(Euclidean{})
	if c.Name() != "euclidean" {
		t.Errorf("Name = %q", c.Name())
	}
	a, b := Vector{0, 0}, Vector{3, 4}
	for i := 0; i < 5; i++ {
		if got := c.Distance(a, b); got != 5 {
			t.Fatalf("Distance = %v", got)
		}
	}
	if got := c.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := c.Reset(); got != 5 {
		t.Errorf("Reset returned %d, want 5", got)
	}
	if got := c.Count(); got != 0 {
		t.Errorf("Count after Reset = %d, want 0", got)
	}
	if c.Unwrap() != (Euclidean{}) {
		t.Error("Unwrap did not return the inner metric")
	}
}

func randomVector(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// allMetrics returns one instance of every metric for axiom testing.
func allMetrics(t *testing.T, dim int) []Metric {
	t.Helper()
	mk, err := NewMinkowski(3)
	if err != nil {
		t.Fatal(err)
	}
	weights := make(Vector, dim)
	for i := range weights {
		weights[i] = 0.5 + float64(i%3)
	}
	we, err := NewWeightedEuclidean(weights)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := HistogramSimilarityMatrix(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := NewQuadraticForm(dim, hm)
	if err != nil {
		t.Fatal(err)
	}
	return []Metric{Euclidean{}, Manhattan{}, Chebyshev{}, mk, we, qf}
}

// TestMetricAxioms property-tests symmetry, non-negativity, identity, and
// the triangle inequality for every metric. The triangle inequality is the
// load-bearing property for the multi-query avoidance lemmas.
func TestMetricAxioms(t *testing.T) {
	const dim = 6
	rng := rand.New(rand.NewSource(42))
	for _, m := range allMetrics(t, dim) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				a := randomVector(r, dim)
				b := randomVector(r, dim)
				c := randomVector(r, dim)

				dab := m.Distance(a, b)
				dba := m.Distance(b, a)
				dac := m.Distance(a, c)
				dbc := m.Distance(b, c)

				const eps = 1e-9
				if dab < 0 || math.IsNaN(dab) {
					t.Logf("negative or NaN distance %v", dab)
					return false
				}
				if math.Abs(dab-dba) > eps {
					t.Logf("asymmetric: %v vs %v", dab, dba)
					return false
				}
				if m.Distance(a, a) > eps {
					t.Logf("identity violated: d(a,a)=%v", m.Distance(a, a))
					return false
				}
				if dac > dab+dbc+eps {
					t.Logf("triangle violated: d(a,c)=%v > %v", dac, dab+dbc)
					return false
				}
				return true
			}
			cfg := &quick.Config{
				MaxCount: 200,
				Values:   nil,
				Rand:     rng,
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}
