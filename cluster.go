package metricdb

import (
	"fmt"

	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/parallel"
)

// Declustering strategies for parallel databases.
type DeclusterStrategy = parallel.Strategy

// Re-exported strategies.
const (
	// DeclusterRoundRobin deals items to servers in turn (default).
	DeclusterRoundRobin = parallel.RoundRobin
	// DeclusterRandom places items on uniformly random servers.
	DeclusterRandom = parallel.RandomAssign
	// DeclusterRange assigns contiguous first-coordinate ranges.
	DeclusterRange = parallel.RangePartition
)

// ClusterOptions configures OpenCluster.
type ClusterOptions struct {
	// Servers is the number of shared-nothing servers (s in the paper).
	Servers int
	// Strategy is the declustering strategy; the zero value is
	// round-robin.
	Strategy DeclusterStrategy
	// Seed feeds the random declustering strategy.
	Seed int64
	// Engine selects the per-server organization; empty means scan.
	Engine EngineKind
	// Metric is the distance function; nil means Euclidean.
	Metric Metric
	// PageCapacity is items per page; 0 derives it from 32 KB blocks as
	// Options.PageCapacity does.
	PageCapacity int
	// BufferPages per server; 0 selects the 10 % default, negative
	// disables buffering.
	BufferPages int
	// Avoidance selects the triangle-inequality mode; the zero value is
	// AvoidAuto (see Options.Avoidance).
	Avoidance AvoidanceMode
}

// ClusterDB is a shared-nothing parallel metric database: each server holds
// a partition on its own simulated disk and all servers evaluate every
// query batch concurrently (§5.3).
type ClusterDB struct {
	cluster *parallel.Cluster
	servers int
}

// ClusterReport is the per-server cost of one parallel operation. There is
// no partial result to report on: a server that fails fails the operation,
// so answers always cover every partition.
type ClusterReport = parallel.Report

// OpenCluster declusters items over the configured servers and builds one
// engine per server. The engine, metric, page capacity and avoidance mode
// are checked and defaulted as Open checks and defaults them.
func OpenCluster(items []Item, opts ClusterOptions) (*ClusterDB, error) {
	dim, err := validateItems(items)
	if err != nil {
		return nil, err
	}
	if opts.Servers < 1 {
		return nil, fmt.Errorf("metricdb: cluster needs at least one server, got %d", opts.Servers)
	}
	o := Options{Engine: opts.Engine, Metric: opts.Metric, PageCapacity: opts.PageCapacity, Avoidance: opts.Avoidance}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o, _ = o.withDefaults(dim, len(items))
	bufferPages := opts.BufferPages
	switch {
	case bufferPages == 0:
		bufferPages = -1 // parallel package: negative = 10 % default
	case bufferPages < 0:
		bufferPages = 0
	}
	c, err := parallel.New(items, parallel.Config{
		Servers:      opts.Servers,
		Strategy:     opts.Strategy,
		Seed:         opts.Seed,
		Engine:       engines.Kind(o.Engine),
		Dim:          dim,
		PageCapacity: o.PageCapacity,
		BufferPages:  bufferPages,
		Metric:       o.Metric,
		Avoidance:    o.Avoidance,
	})
	if err != nil {
		return nil, err
	}
	return &ClusterDB{cluster: c, servers: opts.Servers}, nil
}

// Servers returns the number of servers.
func (c *ClusterDB) Servers() int { return c.servers }

// Query evaluates one similarity query on all servers and merges the
// results.
func (c *ClusterDB) Query(q Vector, t QueryType) ([]Answer, ClusterReport, error) {
	res, rep, err := c.cluster.Single(q, t)
	if err != nil {
		return nil, rep, err
	}
	return res.Answers(), rep, nil
}

// QueryAll evaluates a batch of queries to completion on all servers in
// parallel — the paper's parallel multiple similarity query with block
// size m·s — and merges the per-server answers.
func (c *ClusterDB) QueryAll(queries []Query) ([][]Answer, ClusterReport, error) {
	lists, rep, err := c.cluster.MultiQueryAll(queries)
	if err != nil {
		return nil, rep, err
	}
	out := make([][]Answer, len(lists))
	for i, l := range lists {
		out[i] = l.Answers()
	}
	return out, rep, nil
}

// compile-time check that the alias wiring stays intact.
var _ = func() msq.Stats { return Stats{} }
