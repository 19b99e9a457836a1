package wire

import (
	"context"
	"fmt"

	"metricdb/internal/msq"
	"metricdb/internal/parallel"
	"metricdb/internal/query"
	"metricdb/internal/store"
)

// Remote returns a parallel.Server that answers from the wire server at
// addr, so a parallel.Cluster over Remote servers is the cross-process
// cluster: the Cluster owns the fan-out and the merge, and Remote owns the
// transport. Each call dials a fresh connection, because the line protocol
// cannot retract a request already on the wire and a cancelled or failed
// call must not poison later ones.
func Remote(addr string) parallel.Server {
	return remote(addr)
}

type remote string

// Call dials, makes one multi_all round trip and closes. A reply whose
// answer lists do not match the batch fails the call
// (ErrMalformedResponse).
func (r remote) Call(ctx context.Context, queries []msq.Query) ([]*query.AnswerList, parallel.ServerStats, error) {
	client, err := DialContext(ctx, string(r))
	if err != nil {
		return nil, parallel.ServerStats{}, err
	}
	defer client.Close()
	answers, st, err := client.MultiAllContext(ctx, Specs(queries))
	if err != nil {
		return nil, parallel.ServerStats{}, err
	}
	if len(answers) != len(queries) {
		return nil, parallel.ServerStats{}, fmt.Errorf("%w: %d answer lists for %d queries",
			ErrMalformedResponse, len(answers), len(queries))
	}
	lists := make([]*query.AnswerList, len(queries))
	for i, q := range queries {
		lists[i] = query.NewAnswerList(q.Type)
		for _, a := range answers[i] {
			lists[i].Consider(store.ItemID(a.ID), a.Dist)
		}
	}
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
