package metricdb_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"metricdb"
)

// grid builds a deterministic toy database: points on a line.
func grid(n int) []metricdb.Item {
	vectors := make([]metricdb.Vector, n)
	for i := range vectors {
		vectors[i] = metricdb.Vector{float64(i), 0}
	}
	return metricdb.NewItems(vectors)
}

// ExampleOpen shows a single similarity query.
func ExampleOpen() {
	db, err := metricdb.Open(grid(100), metricdb.Options{Engine: metricdb.EngineScan})
	if err != nil {
		log.Fatal(err)
	}
	answers, _, err := db.Query(metricdb.Vector{10.2, 0}, metricdb.KNNQuery(3))
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range answers {
		fmt.Printf("item %d at distance %.1f\n", a.ID, a.Dist)
	}
	// Output:
	// item 10 at distance 0.2
	// item 11 at distance 0.8
	// item 9 at distance 1.2
}

// ExampleBatch_Query demonstrates the incremental multiple similarity
// query: the first query is answered completely, the second only
// partially, and a later call completes it from the session buffer.
func ExampleBatch_Query() {
	db, err := metricdb.Open(grid(100), metricdb.Options{PageCapacity: 10})
	if err != nil {
		log.Fatal(err)
	}
	batch := db.NewBatch()
	queries := []metricdb.Query{
		{ID: 1, Vec: metricdb.Vector{5, 0}, Type: metricdb.RangeQuery(1)},
		{ID: 2, Vec: metricdb.Vector{50, 0}, Type: metricdb.RangeQuery(1)},
	}
	results, _, err := batch.Query(queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first query: %d answers (complete)\n", len(results[0]))

	// Completing the second query reuses everything already buffered.
	results2, stats, err := batch.Query(queries[1:])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second query: %d answers, %d additional distance calculations\n",
		len(results2[0]), stats.DistCalcs)
	// Output:
	// first query: 3 answers (complete)
	// second query: 3 answers, 0 additional distance calculations
}

// ExampleDB_DBSCAN clusters two well-separated groups.
func ExampleDB_DBSCAN() {
	var vectors []metricdb.Vector
	for i := 0; i < 10; i++ {
		vectors = append(vectors, metricdb.Vector{float64(i) * 0.1, 0})   // group A
		vectors = append(vectors, metricdb.Vector{float64(i) * 0.1, 100}) // group B
	}
	vectors = append(vectors, metricdb.Vector{50, 50}) // isolated noise

	db, err := metricdb.Open(metricdb.NewItems(vectors), metricdb.Options{PageCapacity: 8})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.DBSCAN(0.5, 3, 4)
	if err != nil {
		log.Fatal(err)
	}
	noise := 0
	for _, l := range res.Labels {
		if l == metricdb.DBSCANNoise {
			noise++
		}
	}
	fmt.Printf("%d clusters, %d noise object(s)\n", res.Clusters, noise)
	// Output:
	// 2 clusters, 1 noise object(s)
}

// ExampleDB_QueryContext bounds a similarity query with a timeout. The
// page loop checks the context once per data page, so a deadline or a
// cancellation aborts the query cleanly without affecting the database.
func ExampleDB_QueryContext() {
	db, err := metricdb.Open(grid(100), metricdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	answers, _, err := db.QueryContext(ctx, metricdb.Vector{42.4, 0}, metricdb.KNNQuery(2))
	if err != nil {
		log.Fatal(err) // context.DeadlineExceeded once the budget is spent
	}
	for _, a := range answers {
		fmt.Printf("item %d at distance %.1f\n", a.ID, a.Dist)
	}
	// Output:
	// item 42 at distance 0.4
	// item 43 at distance 0.6
}
