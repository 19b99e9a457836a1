// Package metricdb efficiently supports multiple similarity queries for
// mining in metric databases, reproducing Braunmüller, Ester, Kriegel and
// Sander (ICDE 2000).
//
// A metric database stores objects with a metric distance function; the
// fundamental queries are range queries and k-nearest-neighbor queries.
// Data-mining algorithms (clustering, classification, interactive
// exploration, ...) issue *many* such queries, typically on the answers of
// previous queries. This library processes such query sets as multiple
// similarity queries, which
//
//   - read each data page once for all queries it is relevant for,
//     reducing I/O cost (§5.1 of the paper), and
//   - use the triangle inequality over the inter-query distance matrix to
//     avoid distance calculations, reducing CPU cost (§5.2), and
//   - optionally run over a shared-nothing group of servers (§5.3).
//
// # Quick start
//
//	items := ...                           // []metricdb.Item
//	db, err := metricdb.Open(items, metricdb.Options{Engine: metricdb.EngineXTree})
//	answers, _, err := db.Query(q, metricdb.KNNQuery(10))
//
// For batches, use db.NewBatch and either QueryAll (complete answers for
// every query) or the incremental Query (the paper's Definition 4: the
// first query's answers are complete, the rest are prefetched and buffered).
//
// Physical organizations: a sequential scan (always applicable, maximal
// multi-query benefit), an X-tree (selective in low and moderate
// dimensions), a VA-file (the refined scan: bit-quantized approximations),
// a pivot table and a PM-tree (bounds from the triangle inequality alone,
// for any metric). Every one serves vectors; an item is a vector, and a
// page holds items. Mining algorithms from the paper are available
// as DB methods (DBSCAN, ClassifyKNN, ...) and via the Explore framework,
// incremental nearest-neighbor ranking via DB.Ranking, and physical-design
// advice via Advise. The cmd/msqserver command exposes all of it over TCP.
package metricdb

import (
	"fmt"

	"metricdb/internal/explore"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// Core value types, aliased from the implementation packages so that all
// functionality is reachable through this package alone.
type (
	// Vector is a point in d-dimensional space.
	Vector = vec.Vector
	// Metric is a metric distance function on vectors.
	Metric = vec.Metric
	// Item is one database object: ID, vector, and an optional label.
	Item = store.Item
	// ItemID identifies a database object.
	ItemID = store.ItemID
	// QueryType is the similarity-query specification T of Definition 1.
	QueryType = query.Type
	// Answer is one query result: item ID and distance.
	Answer = query.Answer
	// Query is one element of a multiple similarity query.
	Query = msq.Query
	// Stats counts query-processing work: pages read, distance
	// calculations, triangle-inequality comparisons.
	Stats = msq.Stats
	// AvoidanceMode selects the triangle-inequality lemmas to apply.
	AvoidanceMode = msq.AvoidanceMode
	// Hooks customizes the ExploreNeighborhoods framework.
	Hooks = explore.Hooks
	// ExploreStats aggregates exploration cost.
	ExploreStats = explore.Stats
	// DBSCANResult is the output of density-based clustering.
	DBSCANResult = explore.DBSCANResult
	// Trend is a detected spatial trend.
	Trend = explore.Trend
	// TrendConfig parameterizes trend detection.
	TrendConfig = explore.TrendConfig
	// Rule is a spatial association rule.
	Rule = explore.Rule
	// Feature is one dimension of a proximity common-feature analysis.
	Feature = explore.Feature
	// ExplorationConfig parameterizes the manual-exploration simulation.
	ExplorationConfig = explore.ExplorationConfig
)

// Avoidance modes, re-exported.
const (
	// AvoidAuto, the default, chooses between AvoidOff and AvoidBoth from
	// the metric: lemmas where a distance is a full calculation, none
	// where the metric's own kernel abandons early.
	AvoidAuto = msq.AvoidAuto
	// AvoidBoth applies Lemma 1 and Lemma 2 (the paper's method).
	AvoidBoth = msq.AvoidBoth
	// AvoidOff disables distance-calculation avoidance.
	AvoidOff = msq.AvoidOff
	// AvoidLemma1 applies only Lemma 1.
	AvoidLemma1 = msq.AvoidLemma1
	// AvoidLemma2 applies only Lemma 2.
	AvoidLemma2 = msq.AvoidLemma2
)

// DBSCANNoise is the label DBSCAN assigns to objects in no cluster.
const DBSCANNoise = explore.Noise

// RangeQuery returns the query type of Definition 2: all objects within
// distance eps.
func RangeQuery(eps float64) QueryType { return query.NewRange(eps) }

// KNNQuery returns the query type of Definition 3: the k nearest objects.
func KNNQuery(k int) QueryType { return query.NewKNN(k) }

// BoundedKNNQuery returns the combined type: the k nearest objects among
// those within distance eps.
func BoundedKNNQuery(k int, eps float64) QueryType { return query.NewBoundedKNN(k, eps) }

// Euclidean returns the L2 metric, the library default.
func Euclidean() Metric { return vec.Euclidean{} }

// Manhattan returns the L1 metric.
func Manhattan() Metric { return vec.Manhattan{} }

// Chebyshev returns the L∞ metric.
func Chebyshev() Metric { return vec.Chebyshev{} }

// Minkowski returns the Lp metric for p >= 1.
func Minkowski(p float64) (Metric, error) { return vec.NewMinkowski(p) }

// WeightedEuclidean returns the Euclidean metric with positive
// per-dimension weights.
func WeightedEuclidean(weights Vector) (Metric, error) { return vec.NewWeightedEuclidean(weights) }

// QuadraticForm returns the quadratic-form metric sqrt((a-b)^T A (a-b))
// for a symmetric positive-definite matrix A in row-major order, as used
// for color-histogram similarity. Note that the X-tree cannot derive
// geometric lower bounds for it and degrades to scan-like behaviour.
func QuadraticForm(dim int, a []float64) (Metric, error) { return vec.NewQuadraticForm(dim, a) }

// HistogramMatrix returns a symmetric positive-definite matrix coupling
// nearby histogram bins, suitable for QuadraticForm.
func HistogramMatrix(dim int, decay float64) ([]float64, error) {
	return vec.HistogramSimilarityMatrix(dim, decay)
}

// NewItems packs vectors into items with IDs equal to their indexes, the
// layout the mining framework requires.
func NewItems(vectors []Vector) []Item {
	items := make([]Item, len(vectors))
	for i, v := range vectors {
		items[i] = Item{ID: ItemID(i), Vec: v}
	}
	return items
}

// validateItems checks the ID-equals-index invariant and dimensional
// consistency.
func validateItems(items []Item) (dim int, err error) {
	if len(items) == 0 {
		return 0, fmt.Errorf("metricdb: empty database")
	}
	dim = items[0].Vec.Dim()
	if dim == 0 {
		return 0, fmt.Errorf("metricdb: zero-dimensional items")
	}
	for i := range items {
		if items[i].ID != ItemID(i) {
			return 0, fmt.Errorf("metricdb: item at index %d has ID %d; IDs must equal indexes", i, items[i].ID)
		}
		if items[i].Vec.Dim() != dim {
			return 0, fmt.Errorf("metricdb: item %d has dimension %d, expected %d", i, items[i].Vec.Dim(), dim)
		}
	}
	return dim, nil
}
