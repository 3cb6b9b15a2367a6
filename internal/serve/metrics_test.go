package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsEndpoint is the acceptance check of the serving metrics: the
// assign path feeds a latency histogram that GET /metrics exposes in
// Prometheus text format, next to the in-flight gauge and the model-swap
// counter.
func TestMetricsEndpoint(t *testing.T) {
	s := newServer(t, gridModel(t, 3, 0), Options{})

	// Drive one single assign and one batch through the HTTP layer so the
	// histograms observe real handler latencies.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign",
		strings.NewReader(`{"point":[1,2]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("assign status %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign/batch",
		strings.NewReader(`{"points":[[1,2],[11,0]]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	if err := s.Swap(gridModel(t, 3, 5)); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q, want text/plain", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE serve_assign_seconds histogram\n",
		`serve_assign_seconds_bucket{le="+Inf"} 1`,
		"serve_assign_seconds_count 1\n",
		"# TYPE serve_assign_batch_seconds histogram\n",
		"serve_assign_batch_seconds_count 1\n",
		"# TYPE serve_inflight_requests gauge\n",
		"# TYPE serve_model_swaps_total counter\n",
		"serve_model_swaps_total 2\n", // initial model + explicit Swap
		"# TYPE serve_requests_total counter\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
	// The scrape itself is the one request in flight while the snapshot is
	// written, so the gauge reads exactly 1 here (and 0 between requests).
	if !strings.Contains(body, "serve_inflight_requests 1\n") {
		t.Errorf("in-flight gauge should read 1 during the scrape:\n%s", body)
	}
	if s.reg.Gauge("serve_inflight_requests").Value() != 0 {
		t.Errorf("in-flight gauge did not settle to 0 after the scrape")
	}
	if s.Metrics() == nil {
		t.Error("Metrics() returned nil registry")
	}
}

// TestAssignHistogramsResolveMicroseconds checks that both assign
// latency histograms use microsecond bounds: a 2-µs singleton assignment
// must read below 100µs at p50 rather than the default first bucket's
// 50-µs midpoint.
func TestAssignHistogramsResolveMicroseconds(t *testing.T) {
	s := newServer(t, gridModel(t, 3, 0), Options{})
	for _, name := range []string{"serve_assign_seconds", "serve_assign_batch_seconds"} {
		h := s.Metrics().Histogram(name, nil)
		h.Observe(2e-6)
		if p := h.P50(); p >= 1e-4 {
			t.Errorf("%s p50 of a 2µs observation = %g s, want below 100µs", name, p)
		}
	}
}

// TestHealthzShape pins the enriched /healthz JSON: liveness plus uptime,
// model provenance and link-time build identification.
func TestHealthzShape(t *testing.T) {
	s := newServer(t, gridModel(t, 4, 0), Options{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var out struct {
		Status        string  `json:"status"`
		K             int     `json:"k"`
		Dim           int     `json:"dim"`
		Generation    int64   `json:"generation"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Model         struct {
			Algorithm     string `json:"algorithm"`
			Iterations    int    `json:"iterations"`
			TrainedAtUnix int64  `json:"trained_at_unix"`
		} `json:"model"`
		Build map[string]string `json:"build"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("healthz is not valid JSON: %v", err)
	}
	if out.Status != "ok" || out.K != 4 || out.Dim != 2 || out.Generation != 1 {
		t.Errorf("healthz basics = %+v", out)
	}
	if out.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %g", out.UptimeSeconds)
	}
	if out.Model.Algorithm != "test" {
		t.Errorf("model.algorithm = %q, want test", out.Model.Algorithm)
	}
	for _, key := range []string{"version", "commit", "go"} {
		if out.Build[key] == "" {
			t.Errorf("build info missing %q: %v", key, out.Build)
		}
	}
}
