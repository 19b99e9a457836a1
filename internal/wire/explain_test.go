package wire

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"metricdb/internal/msq"
)

// TestExplainOverWire: the explain op returns the per-query profiles of a
// real evaluation — the response stats match the profile's own batch stats
// and the attribution covers every query.
func TestExplainOverWire(t *testing.T) {
	_, addr := startServerCfg(t, ServerConfig{}, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	specs := []QuerySpec{
		{ID: 1, Vector: []float64{0.2, 0.4, 0.6}, Kind: "knn", K: 3},
		{ID: 2, Vector: []float64{0.5, 0.5, 0.5}, Kind: "range", Range: 0.3},
	}
	ex, stats, err := c.ExplainContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Queries) != len(specs) {
		t.Fatalf("%d profiles for %d queries", len(ex.Queries), len(specs))
	}
	if got := fromStats(ex.Stats); got.PagesRead != stats.PagesRead ||
		got.DistCalcs != stats.DistCalcs || got.Avoided != stats.Avoided ||
		got.AvoidTries != stats.AvoidTries || got.Queries != stats.Queries {
		t.Errorf("response stats %+v differ from profile stats %+v", stats, got)
	}
	for i, p := range ex.Queries {
		if p.ID != specs[i].ID || p.PagesVisited <= 0 {
			t.Errorf("profile %d = %+v", i, p)
		}
	}
	// Malformed batches are rejected before evaluation.
	if _, _, err := c.ExplainContext(context.Background(), nil); err == nil {
		t.Error("empty explain batch accepted")
	}
}

// TestExplainHandler: the admin endpoint profiles a POSTed batch and
// rejects wrong methods and malformed bodies.
func TestExplainHandler(t *testing.T) {
	srv, _ := startServerCfg(t, ServerConfig{}, nil)
	h := srv.ExplainHandler()

	body := `{"queries":[{"id":1,"vector":[0.2,0.4,0.6],"kind":"knn","k":3}]}`
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/debug/explain", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("explain status %d: %s", rec.Code, rec.Body.String())
	}
	var ex msq.Explain
	if err := json.Unmarshal(rec.Body.Bytes(), &ex); err != nil {
		t.Fatalf("explain body is not JSON: %v", err)
	}
	if len(ex.Queries) != 1 || ex.Queries[0].ID != 1 || ex.Engine != "scan" {
		t.Errorf("explain profile = %+v", ex)
	}

	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/explain", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", rec.Code)
	}
	for _, bad := range []string{"not json", `{"queries":[]}`, `{"queries":[{"kind":"warp"}]}`} {
		rec = httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/debug/explain", strings.NewReader(bad)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, rec.Code)
		}
	}
}
