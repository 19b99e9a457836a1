package wire

import (
	"context"
	"fmt"

	"metricdb/internal/msq"
	"metricdb/internal/obs"
	"metricdb/internal/parallel"
	"metricdb/internal/query"
	"metricdb/internal/store"
)

// Remote returns a parallel.Server that answers from the wire server at
// addr, so a parallel.Cluster over Remote servers is the cross-process
// cluster: the Cluster owns the fan-out, the retries, the timeout, the
// breaker and the merge, and Remote owns the transport. Each attempt dials
// a fresh connection, because the line protocol cannot retract a request
// already on the wire and a timed-out or failed attempt must not poison
// later ones. The attempt span's context travels in Request.Trace; a
// trace-enabled server's span subtree is stitched into the cluster's
// tracer and its phase-histogram deltas are merged into phases (into the
// cluster's tracer when phases is nil), which RegisterMetrics exposes.
func Remote(addr string, phases *obs.Tracer) parallel.Server {
	return &remote{addr: addr, phases: phases}
}

type remote struct {
	addr   string
	phases *obs.Tracer
}

// Call runs one attempt: dial, one multi_all round trip, close. A reply
// whose answer lists do not match the batch is this attempt's failure
// (ErrMalformedResponse), for the cluster to retry or degrade around.
func (r *remote) Call(ctx context.Context, queries []msq.Query, span *obs.ActiveSpan) ([]*query.AnswerList, parallel.ServerStats, error) {
	req := Request{Op: OpMultiAll, Queries: Specs(queries)}
	if sc := span.Context(); sc.Valid() {
		req.Trace = &sc
	}
	client, err := DialContext(ctx, r.addr)
	if err != nil {
		return nil, parallel.ServerStats{}, err
	}
	defer client.Close()
	resp, err := client.DoContext(ctx, req)
	if err != nil {
		return nil, parallel.ServerStats{}, err
	}
	if len(resp.Answers) != len(queries) {
		return nil, parallel.ServerStats{}, fmt.Errorf("%w: %d answer lists for %d queries",
			ErrMalformedResponse, len(resp.Answers), len(queries))
	}
	r.absorb(span.Tracer(), resp.Trace)
	lists := make([]*query.AnswerList, len(queries))
	for i, q := range queries {
		lists[i] = query.NewAnswerList(q.Type)
		for _, a := range resp.Answers[i] {
			lists[i].Consider(store.ItemID(a.ID), a.Dist)
		}
	}
	st := resp.Stats
	return lists, parallel.ServerStats{Query: msq.Stats{
		Queries:          st.Queries,
		PagesRead:        st.PagesRead,
		DistCalcs:        st.DistCalcs,
		MatrixDistCalcs:  st.MatrixDistCalcs,
		AvoidTries:       st.AvoidTries,
		Avoided:          st.Avoided,
		PartialAbandoned: st.PartialAbandoned,
		PivotDistCalcs:   st.PivotDistCalcs,
	}}, nil
}

// absorb stitches a server's span subtree into tr, the cluster's tracer,
// and merges its phase deltas into the server's tracer here.
func (r *remote) absorb(tr *obs.Tracer, info *TraceInfo) {
	if info == nil {
		return
	}
	tr.ImportSpans(info.Spans)
	target := r.phases
	if target == nil {
		target = tr
	}
	for p, name := range obs.PhaseNames() {
		if snap, ok := info.Phases[name]; ok {
			target.MergeSnapshot(obs.Phase(p), snap)
		}
	}
}

// RegisterMetrics attaches the tracer the server's phase deltas are merged
// into, so they appear under labels in the cluster's exposition.
func (r *remote) RegisterMetrics(reg *obs.Registry, labels string) {
	reg.AttachTracer(labels, r.phases)
}

// Specs converts a batch to wire form. A k-NN query's range is +Inf,
// which JSON cannot carry, so each spec states only the fields its kind
// uses.
func Specs(queries []msq.Query) []QuerySpec {
	specs := make([]QuerySpec, len(queries))
	for i, q := range queries {
		spec := QuerySpec{ID: q.ID, Vector: q.Vec, Kind: q.Type.Kind.String()}
		switch q.Type.Kind {
		case query.Range:
			spec.Range = q.Type.Range
		case query.KNN:
			spec.K = q.Type.Cardinality
		case query.BoundedKNN:
			spec.Range = q.Type.Range
			spec.K = q.Type.Cardinality
		}
		specs[i] = spec
	}
	return specs
}
