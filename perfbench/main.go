// Command perfbench is the repository benchmark. It deploys IoTSec from
// the public APIs of its packages, drives one closed-loop workload for a
// fixed time, checks the program's outputs fail-closed, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer breakdown) as
// the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload home-mgmt --seed 1 --seconds 10 --trace 0
//
// Workloads: home-mgmt (per-frame data path), posture-churn
// (detect → enforce loop) and fleet-10k (sharded controller hierarchy).
// Everything above the last line is a human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// sizes scales a workload. fullSizes is what the benchmark measures;
// the smoke test runs smokeSizes.
type sizes struct {
	homeDevices  int
	churnDevices int
	fleetDevices int
	// setups is how many times a run builds its deployment; setup_s is
	// the median build time, and each build is measured for an equal
	// share of the run.
	setups int
	// windows splits each build's share; end-to-end figures are medians
	// over all windows.
	windows int
}

var fullSizes = sizes{homeDevices: 32, churnDevices: 480, fleetDevices: 10000, setups: 5, windows: 4}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	sizes    sizes
}

// result is the contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "directory for the traced run's span file (empty = not written)")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.sizes = fullSizes
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation, writing the report to w and returning
// the contract result.
func run(cfg config, w io.Writer) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	printProvenance(w, cfg, wl)
	m, err := measure(cfg, wl)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	for _, d := range names {
		res.Metrics[d.name] = metric{Value: m.values[d.name], Unit: d.unit}
	}
	printReport(w, m)
	return res, nil
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees; printed with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
}

// perLayer is the traced breakdown; printed with --trace 1. A layer a
// workload does not exercise reports 0 (see the report's n/a marks).
// error_ratio and quarantine_p99_us are end-to-end figures listed here
// because they cannot be contract end-to-end metrics: error_ratio is 0
// on a correct run and quarantine_p99_us exists only on posture-churn.
var perLayer = []metricDef{
	{"netsim.fanout", "ratio"},
	{"netsim.frames_per_op", "count"},
	{"netsim.queue_drops", "count"},
	{"netsim.dial_us", "us"},
	{"netsim.exchange_us", "us"},
	{"netsim.agent_reconnects", "count"},
	{"openflow.miss_ratio", "ratio"},
	{"openflow.lookup_ns", "ns"},
	{"openflow.barrier_rtt_us", "us"},
	{"openflow.flows_resident", "count"},
	{"packet.decode_ns", "ns"},
	{"mbox.pipeline_ns", "ns"},
	{"mbox.frames_per_op", "count"},
	{"mbox.reconfigure_us", "us"},
	{"mbox.reconfigs_per_event", "count"},
	{"ids.match_ns", "ns"},
	{"ids.alerts", "count"},
	{"policy.lookup_us", "us"},
	{"policy.posture_key_ns", "ns"},
	{"controller.escalated_ratio", "ratio"},
	{"controller.changes_per_recompute", "ratio"},
	{"controller.view_state_us", "us"},
	{"controller.isolate_us", "us"},
	{"controller.release_us", "us"},
	{"controller.local_event_us", "us"},
	{"controller.escalated_event_us", "us"},
	{"core.reconfigures_per_event", "count"},
	{"journal.appended_per_op", "count"},
	{"journal.tail_drops", "count"},
	{"journal.record_ns", "ns"},
	{"slo.incomplete", "count"},
	{"telemetry.rollup_view_us", "us"},
	{"telemetry.stale_shards", "count"},
	{"telemetry.merged_minus_direct", "count"},
	{"process.cpu_util", "ratio"},
	{"process.alloc_bytes_per_op", "B"},
	{"process.gc_cpu_fraction", "ratio"},
	{"process.goroutines", "count"},
	{"process.calibration_us", "us"},
	{"trace.p50_overhead_pct", "%"},
	{"trace.ops_overhead_pct", "%"},
	{"error_ratio", "ratio"},
	{"quarantine_p99_us", "us"},
}

// reportOnly are the latency sample counts the report prints beside
// p50_us and p99_us.
var reportOnly = []metricDef{
	{"p50_samples", "count"},
	{"p99_samples_beyond", "count"},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
