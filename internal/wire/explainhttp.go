package wire

import (
	"encoding/json"
	"fmt"
	"net/http"

	"metricdb/internal/msq"
	"metricdb/internal/vec"
)

// buildBatch converts wire query specs into an msq batch the server's
// processor accepts; any error is the client's (bad_request, HTTP 400).
func (s *Server) buildBatch(specs []QuerySpec) ([]msq.Query, error) {
	batch := make([]msq.Query, len(specs))
	seen := make(map[uint64]bool, len(specs))
	for i, q := range specs {
		t, err := q.toType()
		if err != nil {
			return nil, err
		}
		if seen[q.ID] {
			return nil, fmt.Errorf("wire: duplicate query id %d", q.ID)
		}
		seen[q.ID] = true
		batch[i] = msq.Query{ID: q.ID, Vec: vec.Vector(q.Vector), Type: t}
		if err := s.proc.CheckQuery(batch[i]); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// ExplainHandler returns an HTTP handler for the admin surface: POST a
// JSON body {"queries": [<QuerySpec>, ...]} and receive the per-query
// EXPLAIN profile (msq.Explain) of evaluating that batch to completion.
// Each request runs in a fresh session, so concurrent explains are safe
// and do not disturb the wire connections' incremental sessions.
func (s *Server) ExplainHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a JSON body {\"queries\": [...]}", http.StatusMethodNotAllowed)
			return
		}
		var body struct {
			Queries []QuerySpec `json:"queries"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxRequestBytes))).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body.Queries) == 0 {
			http.Error(w, "wire: explain needs at least one query", http.StatusBadRequest)
			return
		}
		batch, err := s.buildBatch(body.Queries)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ex, err := s.proc.ExplainContext(r.Context(), batch)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ex) //nolint:errcheck
	}
}
