package telemetry

import (
	"strings"
	"testing"
)

// TestRuntimeStatsCollector checks the iotsec_runtime_* gauges show up
// in both the snapshot and the Prometheus rendering, and that
// re-registration stays idempotent.
func TestRuntimeStatsCollector(t *testing.T) {
	r := NewRegistry()
	r.RegisterRuntimeStats()
	r.RegisterRuntimeStats() // must replace, not duplicate

	want := map[string]bool{
		"iotsec_runtime_goroutines":       false,
		"iotsec_runtime_heap_alloc_bytes": false,
		"iotsec_runtime_gc_runs_total":    false,
		"iotsec_runtime_uptime_seconds":   false,
	}
	counts := map[string]int{}
	snap := r.Snapshot(0)
	for _, m := range snap.Metrics {
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
			counts[m.Name]++
		}
		if m.Name == "iotsec_runtime_goroutines" && (len(m.Samples) != 1 || m.Samples[0].Value < 1) {
			t.Errorf("goroutines gauge samples = %+v", m.Samples)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("runtime metric %s missing from snapshot", name)
		}
		if counts[name] > 1 {
			t.Errorf("runtime metric %s emitted %d times after re-registration", name, counts[name])
		}
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "# TYPE iotsec_runtime_goroutines gauge") {
		t.Errorf("prometheus output missing goroutines gauge:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE iotsec_runtime_gc_runs_total counter") {
		t.Errorf("prometheus output missing gc counter")
	}
}
