package main

import (
	"fmt"
	"io"
	"runtime"
)

// printProvenance states what ran where, before anything is measured.
func printProvenance(w io.Writer, cfg config, wl workload) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v closed_loop_clients=%d\n",
		wl.name, cfg.seed, cfg.seconds, cfg.trace, wl.clients)
	fmt.Fprintf(w, "# go=%s goos=%s goarch=%s nproc=%d gomaxprocs=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// printReport writes every metric by name and unit, marking layers the
// workload does not exercise, then the failures and the span table.
func printReport(w io.Writer, m *measurement) {
	line := func(d metricDef) {
		mark := ""
		switch {
		case m.measured[d.name]:
		case !m.cfg.trace && tracedOnly(d.name):
			mark = "  (traced runs only)"
		default:
			mark = "  (n/a: not exercised by this workload)"
		}
		fmt.Fprintf(w, "%-34s %14.4f %s%s\n", d.name, m.values[d.name], d.unit, mark)
	}
	fmt.Fprintf(w, "## end-to-end (untraced windows; medians over windows)\n")
	for _, d := range endToEnd {
		line(d)
	}
	for _, d := range reportOnly {
		line(d)
	}
	fmt.Fprintf(w, "windows ops_per_s %.0f\n", m.windowOps)
	fmt.Fprintf(w, "windows p99_us    %.0f\n", m.windowP99)
	fmt.Fprintf(w, "attempted %d, failed %d\n", m.attempted, m.failed)
	for i, e := range m.errors {
		if i == 20 {
			fmt.Fprintf(w, "FAIL ... %d more\n", len(m.errors)-i)
			break
		}
		fmt.Fprintf(w, "FAIL %s\n", e)
	}
	fmt.Fprintf(w, "## per-layer (counts from untraced windows, times from traced windows)\n")
	for _, d := range perLayer {
		line(d)
	}
	if len(m.spans) == 0 {
		return
	}
	fmt.Fprintf(w, "## spans (%d kept, %d dropped over a build's share of %d; clock read pair costs %.0f ns; sorted by self time)\n",
		m.kept, m.dropped, maxSpans/m.cfg.sizes.setups, m.clockNs)
	fmt.Fprintf(w, "%-28s %9s %12s %12s %10s\n", "span", "count", "p50_ns", "p99_ns", "self_share")
	for _, s := range m.spans {
		fmt.Fprintf(w, "%-28s %9d %12.0f %12.0f %9.1f%%\n", s.name, s.count, s.p50Ns, s.p99Ns, 100*s.selfFrac)
	}
}

// tracedOnly reports whether a metric comes only from a traced run:
// span timings, the tracing overhead and the replayed IDS alerts.
func tracedOnly(name string) bool {
	for _, def := range spanMetrics {
		if def.metric == name {
			return true
		}
	}
	return name == "trace.p50_overhead_pct" || name == "trace.ops_overhead_pct" || name == "ids.alerts"
}
