package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// get performs one request against the admin handler and returns the body.
func get(t *testing.T, reg *Registry, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	AdminHandler(reg).ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

func TestAdminMetricsEndpoint(t *testing.T) {
	tr := New(Config{})
	tr.Observe(PhasePageFetch, time.Millisecond)
	reg := NewRegistry(tr)
	reg.Gauge("metricdb_buffer_hit_rate", "", "Buffer hit ratio.", func() float64 { return 0.5 })

	code, body := get(t, reg, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`metricdb_phase_duration_seconds_count{phase="page_fetch"} 1`,
		"metricdb_buffer_hit_rate 0.5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestAdminTracesEndpoint(t *testing.T) {
	tr := New(Config{})
	tr.Observe(PhaseWireEncode, 2*time.Microsecond)
	code, body := get(t, NewRegistry(tr), "/debug/traces")
	if code != 200 {
		t.Fatalf("/debug/traces status %d", code)
	}
	line := strings.TrimSpace(body)
	var rec struct {
		AtNs  int64  `json:"at_ns"`
		Phase string `json:"phase"`
		DurNs int64  `json:"dur_ns"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("trace line is not JSON: %v: %q", err, line)
	}
	if rec.Phase != "wire_encode" || rec.DurNs != 2000 {
		t.Errorf("trace record = %+v", rec)
	}
}

func TestAdminSlowEndpoint(t *testing.T) {
	tr := New(Config{SlowQueryThreshold: time.Nanosecond})
	tr.RecordQuery("multi_all", 4, time.Second, 10, 20, 30)
	code, body := get(t, NewRegistry(tr), "/debug/slow")
	if code != 200 {
		t.Fatalf("/debug/slow status %d", code)
	}
	var records []SlowQuery
	if err := json.Unmarshal([]byte(body), &records); err != nil {
		t.Fatalf("slow log is not JSON: %v", err)
	}
	if len(records) != 1 || records[0].Op != "multi_all" || records[0].PagesRead != 10 {
		t.Errorf("slow records = %+v", records)
	}
}

func TestAdminPprofEndpoint(t *testing.T) {
	code, body := get(t, NewRegistry(nil), "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

func TestMetricsQuantileSummaryLines(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 100; i++ {
		tr.Observe(PhasePageFetch, time.Duration(i+1)*time.Microsecond)
	}
	_, body := get(t, NewRegistry(tr), "/metrics")
	if !strings.Contains(body, "# TYPE "+PhaseQuantileMetric+" gauge") {
		t.Fatalf("/metrics missing quantile family header:\n%s", body)
	}
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		want := PhaseQuantileMetric + `{phase="page_fetch",quantile="` + q + `"}`
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Phases with no observations must not emit summary lines.
	if strings.Contains(body, `{phase="kernel",quantile=`) {
		t.Error("empty phase emitted quantile lines")
	}
}

func TestAdminExtraEndpoints(t *testing.T) {
	h := AdminHandler(NewRegistry(nil), Endpoint{
		Pattern: "/debug/custom",
		Handler: func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("custom ok")) },
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/custom", nil))
	if rec.Code != 200 || rec.Body.String() != "custom ok" {
		t.Errorf("extra endpoint: status %d body %q", rec.Code, rec.Body.String())
	}
}
