package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iotsec/internal/telemetry"
)

// statsServer serves /debug/telemetry for a registry holding one
// counter and one histogram, with the snapshot time pinned so the
// rendering is byte-stable.
func statsServer(t *testing.T) string {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.NewCounter("iotsec_test_events_total", "Test events.").Add(3)
	h := reg.NewHistogram("iotsec_test_latency_seconds", "Test latency.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05} {
		h.Observe(v)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := reg.Snapshot(0)
		snap.TakenAt = time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
		_ = json.NewEncoder(w).Encode(snap)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestPrintStatsGolden(t *testing.T) {
	addr := statsServer(t)
	var out strings.Builder
	if err := printStats(&out, addr, false); err != nil {
		t.Fatal(err)
	}
	const want = `telemetry snapshot @ 2025-01-02T03:04:05Z

iotsec_test_events_total                             3
iotsec_test_latency_seconds                          count=4 mean=0.013625 p50=0.0055 p95=0.082 p99=0.0964
`
	if got := out.String(); got != want {
		t.Errorf("stats output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPrintStatsRawRelaysSnapshot(t *testing.T) {
	addr := statsServer(t)
	var out strings.Builder
	if err := printStats(&out, addr, true); err != nil {
		t.Fatal(err)
	}
	var snap telemetry.SnapshotJSON
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatalf("raw output is not a snapshot: %v\n%s", err, out.String())
	}
	if len(snap.Metrics) != 2 {
		t.Errorf("raw snapshot has %d metric families, want 2", len(snap.Metrics))
	}
}
