package vec

import (
	"fmt"
	"math"
)

// Metric is a metric distance function on vectors together with a name for
// reporting. Implementations must satisfy the metric axioms (see the package
// comment); the multi-query processor silently produces wrong answers
// otherwise.
type Metric interface {
	// Distance returns dist(a, b) >= 0.
	Distance(a, b Vector) float64
	// Name identifies the metric in reports and error messages.
	Name() string
}

// Euclidean is the L2 metric, the paper's default distance function.
type Euclidean struct{}

// Distance returns the Euclidean distance between a and b.
func (Euclidean) Distance(a, b Vector) float64 {
	mustSameDim(a, b)
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Name returns "euclidean".
func (Euclidean) Name() string { return "euclidean" }

// Manhattan is the L1 metric.
type Manhattan struct{}

// Distance returns the city-block distance between a and b.
func (Manhattan) Distance(a, b Vector) float64 {
	mustSameDim(a, b)
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Name returns "manhattan".
func (Manhattan) Name() string { return "manhattan" }

// Chebyshev is the L∞ metric.
type Chebyshev struct{}

// Distance returns the maximum per-coordinate difference between a and b.
func (Chebyshev) Distance(a, b Vector) float64 {
	mustSameDim(a, b)
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Name returns "chebyshev".
func (Chebyshev) Name() string { return "chebyshev" }

// Minkowski is the Lp metric for p >= 1. For p < 1 the triangle inequality
// fails, so NewMinkowski rejects such p.
type Minkowski struct {
	p    float64
	invp float64 // 1/p, precomputed so both kernels finalize identically
	ip   int     // p as an integer when integral and small, else 0
}

// maxIntPow bounds the integer-exponent fast path: beyond this order the
// repeated-multiplication loop stops being clearly cheaper than math.Pow,
// and real workloads never use such orders.
const maxIntPow = 32

// NewMinkowski returns the Lp metric. It returns an error if p < 1, because
// Lp is not a metric there.
func NewMinkowski(p float64) (Minkowski, error) {
	if p < 1 || math.IsNaN(p) || math.IsInf(p, 0) {
		return Minkowski{}, fmt.Errorf("vec: Minkowski order p must be a finite value >= 1, got %v", p)
	}
	m := Minkowski{p: p, invp: 1 / p}
	if p == math.Trunc(p) && p <= maxIntPow {
		m.ip = int(p)
	}
	return m, nil
}

// term returns x^p for one non-negative coordinate gap, using repeated
// multiplication for small integer orders instead of math.Pow.
func (m Minkowski) term(x float64) float64 {
	if m.ip != 0 {
		r := x
		for i := 1; i < m.ip; i++ {
			r *= x
		}
		return r
	}
	return math.Pow(x, m.p)
}

// Distance returns the Lp distance between a and b. Orders 1 and 2 delegate
// to the specialized L1/L2 kernels, so the generic metric is never slower
// than naming the specialized one; other integer orders replace the
// per-coordinate math.Pow with repeated multiplication.
func (m Minkowski) Distance(a, b Vector) float64 {
	switch m.p {
	case 1:
		return Manhattan{}.Distance(a, b)
	case 2:
		return Euclidean{}.Distance(a, b)
	}
	mustSameDim(a, b)
	var s float64
	for i := range a {
		s += m.term(math.Abs(a[i] - b[i]))
	}
	return math.Pow(s, m.invp)
}

// Name returns "minkowski(p)".
func (m Minkowski) Name() string { return fmt.Sprintf("minkowski(%g)", m.p) }

// WeightedEuclidean is the Euclidean metric with a positive per-dimension
// weight vector, as used for user-adaptable similarity search.
type WeightedEuclidean struct {
	weights Vector
}

// NewWeightedEuclidean returns a weighted Euclidean metric. All weights must
// be strictly positive, otherwise the identity axiom fails.
func NewWeightedEuclidean(weights Vector) (*WeightedEuclidean, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("vec: weighted Euclidean needs at least one weight")
	}
	for i, w := range weights {
		if !(w > 0) { // also rejects NaN
			return nil, fmt.Errorf("vec: weight %d is %v, must be > 0", i, w)
		}
	}
	return &WeightedEuclidean{weights: weights.Clone()}, nil
}

// Distance returns sqrt(sum_i w_i (a_i - b_i)^2).
func (m *WeightedEuclidean) Distance(a, b Vector) float64 {
	mustSameDim(a, b)
	if len(a) != len(m.weights) {
		panic(fmt.Sprintf("vec: weighted Euclidean configured for dim %d, got %d", len(m.weights), len(a)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += m.weights[i] * d * d
	}
	return math.Sqrt(s)
}

// Name returns "weighted-euclidean".
func (*WeightedEuclidean) Name() string { return "weighted-euclidean" }

// QuadraticForm is the quadratic-form distance sqrt((a-b)^T A (a-b)) used for
// color-histogram similarity. The matrix A must be finite, symmetric and
// positive definite for the result to be a metric; NewQuadraticForm verifies
// finiteness and symmetry and checks definiteness via a Cholesky
// factorization.
type QuadraticForm struct {
	dim int
	// chol is the lower-triangular Cholesky factor L of A, stored row-major,
	// so dist(a,b) = |L^T (a-b)|_2. Factoring once makes Distance O(d^2)
	// with good locality instead of a naive matrix product.
	chol []float64
}

// NewQuadraticForm builds a quadratic-form metric from the symmetric
// positive-definite matrix a, given in row-major order.
func NewQuadraticForm(dim int, a []float64) (*QuadraticForm, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vec: quadratic form dimension must be positive, got %d", dim)
	}
	if len(a) != dim*dim {
		return nil, fmt.Errorf("vec: quadratic form matrix has %d entries, want %d", len(a), dim*dim)
	}
	// A NaN fails no comparison below, and an infinite diagonal entry
	// factors, so both are refused here.
	for i, x := range a {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("vec: quadratic form matrix entry (%d,%d) is %v", i/dim, i%dim, x)
		}
	}
	for i := 0; i < dim; i++ {
		for j := i + 1; j < dim; j++ {
			if math.Abs(a[i*dim+j]-a[j*dim+i]) > 1e-9 {
				return nil, fmt.Errorf("vec: quadratic form matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	chol, err := cholesky(dim, a)
	if err != nil {
		return nil, err
	}
	return &QuadraticForm{dim: dim, chol: chol}, nil
}

// cholesky computes the lower-triangular factor L with A = L L^T.
func cholesky(n int, a []float64) ([]float64, error) {
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if !(s > 0) { // NaN too
					return nil, fmt.Errorf("vec: quadratic form matrix not positive definite (pivot %d is %g)", i, s)
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	return l, nil
}

// Distance returns sqrt((a-b)^T A (a-b)).
func (m *QuadraticForm) Distance(a, b Vector) float64 {
	mustSameDim(a, b)
	if len(a) != m.dim {
		panic(fmt.Sprintf("vec: quadratic form configured for dim %d, got %d", m.dim, len(a)))
	}
	// |L^T d|^2 where d = a-b: component j of L^T d is sum_{i>=j} L[i][j] d[i].
	var total float64
	for j := 0; j < m.dim; j++ {
		var c float64
		for i := j; i < m.dim; i++ {
			c += m.chol[i*m.dim+j] * (a[i] - b[i])
		}
		total += c * c
	}
	return math.Sqrt(total)
}

// Name returns "quadratic-form".
func (*QuadraticForm) Name() string { return "quadratic-form" }

// IdentityMatrix returns the dim×dim identity in row-major order, a
// convenient starting point for quadratic-form matrices.
func IdentityMatrix(dim int) []float64 {
	a := make([]float64, dim*dim)
	for i := 0; i < dim; i++ {
		a[i*dim+i] = 1
	}
	return a
}

// HistogramSimilarityMatrix returns a symmetric positive-definite matrix for
// color-histogram style quadratic-form distances: A[i][j] = exp(-decay *
// |i-j| / dim) couples nearby bins, mimicking perceptual similarity between
// adjacent colors. decay must be positive.
func HistogramSimilarityMatrix(dim int, decay float64) ([]float64, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vec: histogram matrix dimension must be positive, got %d", dim)
	}
	if !(decay > 0) {
		return nil, fmt.Errorf("vec: histogram matrix decay must be > 0, got %v", decay)
	}
	a := make([]float64, dim*dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			a[i*dim+j] = math.Exp(-decay * math.Abs(float64(i-j)) / float64(dim))
		}
	}
	return a, nil
}
