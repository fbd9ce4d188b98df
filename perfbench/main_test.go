package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// smokeSizes runs every workload small: one device per Table 1 SKU,
// two churn partitions, ten fleet shards, one build, two windows.
var smokeSizes = sizes{homeDevices: 6, churnDevices: 32, fleetDevices: 640, setups: 1, windows: 2}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs each workload of BENCHMARK.json at a reduced size,
// untraced and traced, and asserts that every named metric is printed
// with its unit and that no operation or check failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, wl := range bench.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: wl.Name, seed: 7, seconds: 1, trace: trace, sizes: smokeSizes}
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := bench.EndToEnd
				if trace {
					want = bench.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, w := range want {
					got, ok := res.Metrics[w.Name]
					if !ok {
						t.Errorf("metric %s not printed", w.Name)
						continue
					}
					if got.Unit != w.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
					}
					if !strings.Contains(out.String(), w.Name) {
						t.Errorf("report omits %s", w.Name)
					}
				}
				if !strings.Contains(out.String(), "error_ratio ") || reportValue(out.String(), "error_ratio") != "0.0000" {
					t.Errorf("error_ratio not reported as 0:\n%s", out.String())
				}
			})
		}
	}
}

// reportValue is the value column of a report line.
func reportValue(report, name string) string {
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == name {
			return f[1]
		}
	}
	return ""
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, clipped to the span, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	tr := newTracer(true)
	tr.add(span{ID: 1, Op: 1, Name: "op", Start: 0, End: 100})
	tr.add(span{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40})
	tr.add(span{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30, End: 50})
	tr.add(span{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 90, End: 120})
	self := map[string]float64{}
	for _, s := range tr.summarize() {
		self[s.name] = s.selfNs
	}
	// Children cover [10,50) and [90,100): 50 of the op's 100 ns.
	want := map[string]float64{"op": 50, "a": 30, "b": 20, "c": 30}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
}
