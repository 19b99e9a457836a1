package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"time"

	"metricdb/internal/fault"
	"metricdb/internal/msq"
	"metricdb/internal/obs"
	"metricdb/internal/parallel"
	"metricdb/internal/query"
	"metricdb/internal/report"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
	"metricdb/internal/wire"
)

// The distobs experiment exercises the distributed observability layer
// end to end: a parallel.Cluster fans one m-query batch out to s wire
// servers on loopback TCP (wire.Remote), each with its own node-labelled
// tracer. One server sits on a transient disk fault, so the first attempt
// fails and the cluster's retry appears as a sibling attempt span. The
// experiment asserts the tentpole contracts — a single stitched
// cross-server trace with one child span per server call (retries
// included), and traced-vs-untraced bit-identity of answers and counters
// at every pipeline width — and records the per-query EXPLAIN
// width-stability check. The results are the BENCH_distobs.json artifact.

// DistObsRun is one (width, traced?) comparison over the wire cluster.
type DistObsRun struct {
	Width   int     `json:"width"`
	Seconds float64 `json:"seconds"`
	// Identical reports whether the traced run's merged answers and
	// aggregated counters matched the untraced run exactly (the
	// strictly-observational contract across the wire).
	Identical bool `json:"identical"`
	// Traces is the number of distinct trace IDs on the coordinator
	// tracer after the run; the tentpole contract is exactly 1.
	Traces int `json:"traces"`
	// ServerCalls counts server_call child spans under the root —
	// servers + retried attempts.
	ServerCalls int `json:"server_calls"`
	// Retries counts attempt > 1 among those (the fault-induced retry).
	Retries int `json:"retries"`
	// RemoteNodes is the number of distinct non-coordinator node labels
	// among the stitched spans — servers whose subtrees were imported.
	RemoteNodes int `json:"remote_nodes"`
	// Spans is the total span count of the stitched trace.
	Spans int `json:"spans"`
	// PagesRead/DistCalcs summarize the traced run's aggregated work.
	PagesRead int64 `json:"pages_read"`
	DistCalcs int64 `json:"dist_calcs"`
}

// DistObsExplain is the per-query EXPLAIN profile summary at one width.
type DistObsExplain struct {
	Width int `json:"width"`
	// PagesVisited, Offered (DistCalcs + avoided by either lemma) and
	// Answers per query position — the width-invariant profile columns.
	PagesVisited []int64 `json:"pages_visited"`
	Offered      []int64 `json:"offered"`
	Answers      []int   `json:"answers"`
	// Stable reports whether all three columns matched the first width.
	Stable bool `json:"stable"`
}

// DistObsProfile is the distobs experiment's result set.
type DistObsProfile struct {
	Workload string           `json:"workload"`
	M        int              `json:"m"`
	Servers  int              `json:"servers"`
	Widths   []int            `json:"widths"`
	Runs     []DistObsRun     `json:"runs"`
	Explain  []DistObsExplain `json:"explain"`
}

// distObsCluster is one wire cluster: s servers on loopback listeners and
// a cluster over them. Server 0 sits on a transient fault (one injected
// read failure, then the disk behaves), so the first call to it fails and
// the cluster's retry succeeds.
type distObsCluster struct {
	cluster *parallel.Cluster
	coordTr *obs.Tracer
	servers []*wire.Server
}

func (c *distObsCluster) close() {
	for _, s := range c.servers {
		s.Close() //nolint:errcheck
	}
}

// newDistObsCluster partitions the workload round-robin over s wire
// servers at the given pipeline width. With traced true every process
// gets a node-labelled tracer and the coordinator propagates trace
// contexts; with traced false no tracer exists anywhere (the reference
// configuration).
func newDistObsCluster(w Workload, s, width int, traced bool) (*distObsCluster, error) {
	parts, err := parallel.Decluster(w.Items, s, parallel.RoundRobin, 0)
	if err != nil {
		return nil, err
	}
	capacity := store.PageCapacityForBlockSize(32768, w.Dim)
	c := &distObsCluster{}
	if traced {
		c.coordTr = obs.New(obs.Config{SlowQueryThreshold: -1, Node: "coordinator"})
	}
	remotes := make([]parallel.Server, s)
	for i, part := range parts {
		var wrap func(store.PageSource) (store.PageSource, error)
		if i == 0 {
			wrap = func(src store.PageSource) (store.PageSource, error) {
				return fault.Wrap(src, fault.Config{Seed: 1, ErrProb: 1, MaxFaults: 1})
			}
		}
		pages := (len(part) + capacity - 1) / capacity
		eng, err := scan.NewWithConfig(part, scan.Config{
			PageCapacity: capacity,
			BufferPages:  store.DefaultBufferPages(pages),
			WrapDisk:     wrap,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{Avoidance: msq.AvoidBoth, Concurrency: width})
		if err != nil {
			c.close()
			return nil, err
		}
		cfg := wire.ServerConfig{WriteTimeout: 10 * time.Second}
		var phases *obs.Tracer
		if traced {
			tr := obs.New(obs.Config{SlowQueryThreshold: -1, Node: fmt.Sprintf("srv%d", i)})
			proc = proc.WithTracer(tr)
			cfg.Tracer = tr
			phases = obs.New(obs.Config{SlowQueryThreshold: -1})
		}
		srv, err := wire.NewServerWithConfig(proc, cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		go srv.Serve(lis) //nolint:errcheck
		c.servers = append(c.servers, srv)
		remotes[i] = wire.Remote(lis.Addr().String(), phases)
	}
	cluster, err := parallel.NewCluster(remotes, parallel.FanOut{
		Retries: 2,
		Timeout: 30 * time.Second,
		Tracer:  c.coordTr,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.cluster = cluster
	return c, nil
}

// RunDistObs runs the m-query batch over s wire servers at every width,
// comparing each traced run against an untraced run of an identically
// built (and identically faulted) cluster, then checks the EXPLAIN
// profile's width stability on a single-node processor.
func RunDistObs(w Workload, s int, widths []int, m int) (*DistObsProfile, error) {
	queries, err := w.Queries(w.querySeed()+29, m)
	if err != nil {
		return nil, err
	}
	profile := &DistObsProfile{Workload: w.Name, M: m, Servers: s, Widths: widths}

	for _, width := range widths {
		run := func(traced bool) ([]*query.AnswerList, msq.Stats, *obs.Tracer, float64, error) {
			c, err := newDistObsCluster(w, s, width, traced)
			if err != nil {
				return nil, msq.Stats{}, nil, 0, err
			}
			defer c.close()
			start := time.Now()
			answers, rep, err := c.cluster.MultiQueryAll(queries)
			return answers, rep.Sum().Query, c.coordTr, time.Since(start).Seconds(), err
		}

		refAnswers, refStats, _, _, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("experiments: distobs width %d untraced: %w", width, err)
		}
		answers, stats, tr, elapsed, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("experiments: distobs width %d traced: %w", width, err)
		}

		res := DistObsRun{
			Width:   width,
			Seconds: elapsed,
			Identical: slices.EqualFunc(refAnswers, answers, func(a, b *query.AnswerList) bool {
				return slices.Equal(a.Answers(), b.Answers())
			}) &&
				stats.PagesRead == refStats.PagesRead &&
				stats.DistCalcs == refStats.DistCalcs &&
				stats.Avoided == refStats.Avoided &&
				stats.AvoidTries == refStats.AvoidTries,
			PagesRead: stats.PagesRead,
			DistCalcs: stats.DistCalcs,
		}
		ids := tr.TraceIDs()
		res.Traces = len(ids)
		if len(ids) > 0 {
			root := tr.Trace(ids[0])
			nodes := map[string]bool{}
			var walk func(n *obs.TraceNode)
			walk = func(n *obs.TraceNode) {
				res.Spans++
				if n.Name == "server_call" {
					res.ServerCalls++
					if n.Attempt > 1 {
						res.Retries++
					}
				}
				if n.Node != "" && n.Node != "coordinator" {
					nodes[n.Node] = true
				}
				for _, ch := range n.Children {
					walk(ch)
				}
			}
			walk(root)
			res.RemoteNodes = len(nodes)
		}
		profile.Runs = append(profile.Runs, res)
	}

	// EXPLAIN width stability on one node over the full workload: the
	// profile columns that the width-stability contract guarantees —
	// pages visited, the offered set (calculated + avoided pairs), and
	// answer counts per query — must not move with the pipeline width.
	for _, width := range widths {
		eng, err := ScanMaker(w).Make()
		if err != nil {
			return nil, err
		}
		proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{Avoidance: msq.AvoidBoth, Concurrency: width})
		if err != nil {
			return nil, err
		}
		ex, err := proc.ExplainContext(context.Background(), queries)
		if err != nil {
			return nil, fmt.Errorf("experiments: distobs explain width %d: %w", width, err)
		}
		de := DistObsExplain{Width: width, Stable: true}
		for _, p := range ex.Queries {
			de.PagesVisited = append(de.PagesVisited, p.PagesVisited)
			de.Offered = append(de.Offered, p.Offered())
			de.Answers = append(de.Answers, p.Answers)
		}
		if len(profile.Explain) > 0 {
			first := profile.Explain[0]
			for i := range de.PagesVisited {
				if de.PagesVisited[i] != first.PagesVisited[i] ||
					de.Offered[i] != first.Offered[i] ||
					de.Answers[i] != first.Answers[i] {
					de.Stable = false
				}
			}
		}
		profile.Explain = append(profile.Explain, de)
	}
	return profile, nil
}

// Figure renders the per-width traced wall clock and the trace shape: how
// many server calls (including retries) the stitched trace recorded.
func (p *DistObsProfile) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Distributed tracing over %d wire servers (%s database, m=%d)", p.Servers, p.Workload, p.M),
		XLabel: "pipeline width",
		YLabel: "count / seconds",
	}
	var secs, calls, retries []float64
	for _, r := range p.Runs {
		fig.XVals = append(fig.XVals, float64(r.Width))
		secs = append(secs, r.Seconds)
		calls = append(calls, float64(r.ServerCalls))
		retries = append(retries, float64(r.Retries))
	}
	fig.AddSeries("seconds", secs)       //nolint:errcheck // lengths match by construction
	fig.AddSeries("server calls", calls) //nolint:errcheck
	fig.AddSeries("retries", retries)    //nolint:errcheck
	return fig
}

// WriteDistObsJSON writes the profiles as an indented JSON document (the
// BENCH_distobs.json artifact).
func WriteDistObsJSON(w io.Writer, profiles []*DistObsProfile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(profiles)
}

// WriteDistObsJSONFile writes the artifact to path.
func WriteDistObsJSONFile(path string, profiles []*DistObsProfile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDistObsJSON(f, profiles); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	return f.Close()
}
