// Command mboxctl inspects and controls a running iotsecd via its
// admin API.
//
// Usage:
//
//	mboxctl [-addr host:port] status
//	mboxctl [-addr host:port] env
//	mboxctl [-addr host:port] set-env <var> <value>
//	mboxctl [-addr host:port] set-context <device> <context>
//	mboxctl [-telemetry-addr host:port] stats [-json]
//	mboxctl [-telemetry-addr host:port] fleet [-json]
//	mboxctl [-telemetry-addr host:port] health
//	mboxctl [-telemetry-addr host:port] slo
//	mboxctl [-telemetry-addr host:port] crowd
//	mboxctl [-telemetry-addr host:port] trace <id>
//	mboxctl [-telemetry-addr host:port] journal [-trace N] [-device D] [-type T] [-since 5m] [-until 1m] [-sev warn] [-limit N] [-follow]
//	mboxctl [-telemetry-addr host:port] incidents [list] [-trace N] [-device D] [-kind K] [-sev warn] [-since 5m] [-until 1m] [-limit N] [-offset N]
//	mboxctl [-telemetry-addr host:port] incidents show <id>
//	mboxctl [-telemetry-addr host:port] incidents export [-o file] <id>
//	mboxctl [-telemetry-addr host:port] incidents fleet
//	mboxctl [-telemetry-addr host:port] incidents timeline <trace>
//	mboxctl [-telemetry-addr host:port] profiles [list|show <sku>|violations]
//	mboxctl [-telemetry-addr host:port] controllers
//
// stats, fleet, health, slo, crowd, trace, journal and profiles talk
// to the daemon's telemetry listener (iotsecd -telemetry-addr), not
// the admin API. stats -json emits the raw /debug/telemetry snapshot
// for scripting; fleet renders the merged fleet rollup view
// (/debug/fleet): per-shard event rates, staleness, merged
// detect→enforce quantiles, and the bounded top-K device summaries.
// health probes /healthz and /readyz and renders the per-component
// detail; slo renders the live MTTR pipeline (per-stage and
// end-to-end detect→enforce quantiles, incomplete chains, watchdog
// state). crowd shows the health of the northbound
// signature-repository link (state, per-SKU replay cursors, outbox
// depth, reconnect/replay/dedup counters). trace renders the forensic
// timeline of one causal chain; journal dumps (or, with -follow,
// live-tails) the event journal. incidents drives the durable
// incident forensics plane (iotsecd -forensics-dir): list the
// captured-chain index, show one sealed chain's timeline, export a
// replay scenario for iotsim -replay, and — when the daemon runs the
// fleet rollup plane — list the cross-shard merged view or assemble
// one trace's fleet-wide timeline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/core"
	"iotsec/internal/forensics"
	"iotsec/internal/journal"
	"iotsec/internal/profile"
	"iotsec/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "iotsecd admin address")
	telemetryAddr := flag.String("telemetry-addr", "127.0.0.1:7701",
		"iotsecd telemetry address (for the stats subcommand)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	var req core.AdminRequest
	switch args[0] {
	case "stats":
		raw := len(args) > 1 && args[1] == "-json"
		if err := printStats(os.Stdout, *telemetryAddr, raw); err != nil {
			fmt.Fprintf(os.Stderr, "mboxctl: stats: %v\n", err)
			os.Exit(1)
		}
		return
	case "fleet":
		raw := len(args) > 1 && args[1] == "-json"
		if err := printFleet(*telemetryAddr, raw); err != nil {
			fmt.Fprintf(os.Stderr, "mboxctl: fleet: %v\n", err)
			os.Exit(1)
		}
		return
	case "controllers":
		if err := printControllers(*telemetryAddr); err != nil {
			fmt.Fprintf(os.Stderr, "mboxctl: controllers: %v\n", err)
			os.Exit(1)
		}
		return
	case "health":
		if err := printHealth(*telemetryAddr); err != nil {
			fmt.Fprintf(os.Stderr, "mboxctl: health: %v\n", err)
			os.Exit(1)
		}
		return
	case "slo":
		if err := printSLO(*telemetryAddr); err != nil {
			fmt.Fprintf(os.Stderr, "mboxctl: slo: %v\n", err)
			os.Exit(1)
		}
		return
	case "crowd":
		if err := printCrowd(*telemetryAddr); err != nil {
			fmt.Fprintf(os.Stderr, "mboxctl: crowd: %v\n", err)
			os.Exit(1)
		}
		return
	case "trace":
		if len(args) != 2 {
			usage()
		}
		if err := printTrace(*telemetryAddr, args[1]); err != nil {
			fmt.Fprintf(os.Stderr, "mboxctl: trace: %v\n", err)
			os.Exit(1)
		}
		return
	case "journal":
		if err := printJournal(*telemetryAddr, args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "mboxctl: journal: %v\n", err)
			os.Exit(1)
		}
		return
	case "incidents":
		if err := printIncidents(*telemetryAddr, args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "mboxctl: incidents: %v\n", err)
			os.Exit(1)
		}
		return
	case "profiles":
		if err := printProfiles(*telemetryAddr, args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "mboxctl: profiles: %v\n", err)
			os.Exit(1)
		}
		return
	case "status":
		req = core.AdminRequest{Op: "status"}
	case "env":
		req = core.AdminRequest{Op: "env"}
	case "set-env":
		if len(args) != 3 {
			usage()
		}
		req = core.AdminRequest{Op: "set-env", Var: args[1], Value: args[2]}
	case "set-context":
		if len(args) != 3 {
			usage()
		}
		req = core.AdminRequest{Op: "set-context", Device: args[1], Value: args[2]}
	default:
		usage()
	}

	resp, err := core.AdminCall(*addr, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mboxctl: %v\n", err)
		os.Exit(1)
	}
	switch args[0] {
	case "status":
		fmt.Printf("µmbox boots: %d   posture reconfigurations: %d   view version: %d\n\n",
			resp.Boots, resp.Reconf, resp.Version)
		for _, d := range resp.Devices {
			fmt.Printf("%-12s %-22s %s\n", d.Name, d.SKU, d.IP)
			fmt.Printf("  context:  %s\n", d.Context)
			fmt.Printf("  posture:  %s\n", d.Posture)
			fmt.Printf("  pipeline: %s\n", strings.Join(d.Pipeline, " -> "))
			fmt.Printf("  state:    %s\n", d.State)
		}
	case "env":
		for k, v := range resp.Env {
			fmt.Printf("%-24s %s\n", k, v)
		}
	default:
		fmt.Println("ok")
	}
}

// printStats fetches the JSON telemetry snapshot and renders it to w;
// with raw set it relays the snapshot verbatim for scripting.
func printStats(w io.Writer, addr string, raw bool) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/debug/telemetry")
	if err != nil {
		return fmt.Errorf("%w (is iotsecd running with -telemetry-addr %s?)", err, addr)
	}
	defer resp.Body.Close()
	if raw {
		_, err := io.Copy(w, resp.Body)
		return err
	}
	var snap telemetry.SnapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}

	fmt.Fprintf(w, "telemetry snapshot @ %s\n", snap.TakenAt.Format(time.RFC3339))
	for _, m := range snap.Metrics {
		if m.Name != "iotsec_build_info" {
			continue
		}
		for _, s := range m.Samples {
			fmt.Fprintf(w, "build: %s %s (%s)\n",
				labelValue(s.Labels, "component"), labelValue(s.Labels, "version"),
				labelValue(s.Labels, "go_version"))
		}
	}
	fmt.Fprintln(w)
	for _, m := range snap.Metrics {
		switch m.Kind {
		case telemetry.KindHistogram:
			for _, h := range parseHistogram(m) {
				mean := 0.0
				if h.count > 0 {
					mean = h.sum / h.count
				}
				fmt.Fprintf(w, "%-52s count=%g mean=%.6g p50=%.6g p95=%.6g p99=%.6g\n",
					m.Name+h.key, h.count, mean,
					h.quantile(0.50), h.quantile(0.95), h.quantile(0.99))
			}
		default:
			if m.Name == "iotsec_build_info" {
				continue // rendered in the header
			}
			for _, s := range m.Samples {
				fmt.Fprintf(w, "%-52s %g\n", m.Name+s.Labels.String(), s.Value)
			}
		}
	}
	return nil
}

// printFleet renders the merged fleet rollup view from /debug/fleet;
// with raw set it relays the JSON verbatim.
func printFleet(addr string, raw bool) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/debug/fleet")
	if err != nil {
		return fmt.Errorf("%w (is iotsecd running with -telemetry-addr %s?)", err, addr)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: %s (fleet rollups enabled?)", resp.Status)
	}
	if raw {
		_, err := io.Copy(os.Stdout, resp.Body)
		return err
	}
	var v controller.FleetView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return fmt.Errorf("decoding fleet view: %w", err)
	}

	fl := v.Fleet
	fmt.Printf("fleet @ %s: %d shard(s), %d stale, %d failed-over, %.0f device(s)\n",
		v.TakenAt.Format(time.RFC3339), fl.Shards, fl.StaleShards, fl.FailedOverShards, fl.Devices)
	fmt.Printf("events: %d total (%.0f/s), %d escalated, %d violation(s)\n",
		fl.Events, fl.EventsPerSec, fl.Escalations, fl.Violations)
	if fl.MTTR.Count > 0 {
		fmt.Printf("detect→enforce (merged): %d chains, p50=%s p95=%s p99=%s\n",
			fl.MTTR.Count, secs(fl.MTTR.P50), secs(fl.MTTR.P95), secs(fl.MTTR.P99))
	}
	if len(fl.SKUDevices) > 0 {
		skus := make([]string, 0, len(fl.SKUDevices))
		for s := range fl.SKUDevices {
			skus = append(skus, s)
		}
		sort.Strings(skus)
		fmt.Println("\ndevices by SKU:")
		for _, s := range skus {
			fmt.Printf("  %-28s %.0f\n", s, fl.SKUDevices[s])
		}
	}

	if len(v.Shards) > 0 {
		fmt.Printf("\n%-12s %-6s %-9s %-10s %-11s %-10s %-8s %s\n",
			"SHARD", "SEQ", "DEVICES", "EVENTS", "EVENTS/S", "P99", "AGE", "STATE")
		for _, sh := range v.Shards {
			state := "ok"
			if sh.Stale {
				state = "STALE"
			} else if !sh.Healthy {
				state = "unhealthy"
			}
			if sh.FailedOver {
				// The shard's controller died: show where its partition
				// lives now and when recovery completed.
				target := "RE-HOMED-TO(" + sh.RehomedTo + ")"
				if sh.RehomedTo == "global" {
					target = "FAILED-OVER(global)"
				}
				state = target
				if sh.RecoveredAt != nil {
					state += " @ " + sh.RecoveredAt.Format("15:04:05")
				}
			}
			fmt.Printf("%-12s %-6d %-9.0f %-10d %-11.0f %-10s %-8s %s\n",
				sh.Source, sh.LastSeq, sh.Devices, sh.Events, sh.EventsPerSec,
				secs(sh.MTTR.P99), time.Duration(sh.AgeSeconds*float64(time.Second)).Round(time.Millisecond).String(), state)
		}
	}

	printTop := func(title string, entries []telemetry.TopKEntry) {
		if len(entries) == 0 {
			return
		}
		fmt.Printf("\n%s:\n", title)
		for _, e := range entries {
			errNote := ""
			if e.Err > 0 {
				errNote = fmt.Sprintf(" (±%d)", e.Err)
			}
			fmt.Printf("  %-28s %d%s\n", e.Key, e.Count, errNote)
		}
	}
	printTop("top event producers", fl.TopProducers)
	printTop("top violators", fl.TopViolators)
	printTop("top MTTR contributors (µs·events)", fl.TopMTTR)
	return nil
}

// histSeries is one labeled histogram series reassembled from a JSON
// snapshot: finite bucket bounds plus per-bucket (non-cumulative)
// counts, the +Inf bucket last.
type histSeries struct {
	key     string // rendered labels (without le), "" for unlabeled
	bounds  []float64
	buckets []uint64
	count   float64
	sum     float64
}

// quantile re-derives a quantile from the reassembled buckets.
func (h histSeries) quantile(q float64) float64 {
	return telemetry.QuantileFromBuckets(h.bounds, h.buckets, q)
}

// parseHistogram reassembles the labeled series of one histogram
// family from its snapshot samples. Snapshot sample order is sorted
// by label string (not by bound), so buckets are re-sorted numerically
// before converting cumulative values to per-bucket counts.
func parseHistogram(m telemetry.MetricJSON) []histSeries {
	type cumBucket struct {
		bound float64 // +Inf for the le="+Inf" bucket
		cum   float64
	}
	type agg struct {
		cum        []cumBucket
		count, sum float64
	}
	series := map[string]*agg{}
	var order []string
	get := func(ls telemetry.Labels) *agg {
		var kept telemetry.Labels
		for _, l := range ls {
			if l.Key != "le" {
				kept = append(kept, l)
			}
		}
		key := kept.String()
		a := series[key]
		if a == nil {
			a = &agg{}
			series[key] = a
			order = append(order, key)
		}
		return a
	}
	for _, s := range m.Samples {
		a := get(s.Labels)
		switch s.Suffix {
		case "_bucket":
			le := labelValue(s.Labels, "le")
			bound := math.Inf(1)
			if le != "+Inf" {
				if v, err := strconv.ParseFloat(le, 64); err == nil {
					bound = v
				}
			}
			a.cum = append(a.cum, cumBucket{bound: bound, cum: s.Value})
		case "_count":
			a.count = s.Value
		case "_sum":
			a.sum = s.Value
		}
	}
	sort.Strings(order)
	out := make([]histSeries, 0, len(order))
	for _, key := range order {
		a := series[key]
		sort.Slice(a.cum, func(i, j int) bool { return a.cum[i].bound < a.cum[j].bound })
		h := histSeries{key: key, count: a.count, sum: a.sum}
		prev := 0.0
		for _, b := range a.cum {
			if !math.IsInf(b.bound, 1) {
				h.bounds = append(h.bounds, b.bound)
			}
			d := b.cum - prev
			if d < 0 {
				d = 0 // racing scrape; clamp
			}
			h.buckets = append(h.buckets, uint64(d))
			prev = b.cum
		}
		out = append(out, h)
	}
	return out
}

// printControllers renders the supervision state of every partition's
// local controller from /debug/controllers: liveness, last-checkpoint
// age, re-homing target, and the recent failover history.
func printControllers(addr string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/debug/controllers")
	if err != nil {
		return fmt.Errorf("%w (is iotsecd running with -telemetry-addr and -ctrl-heartbeat?)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: %s (controller supervision enabled?)", resp.Status)
	}
	var st controller.SupervisorStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decoding supervisor status: %w", err)
	}

	fmt.Printf("supervision: %d partition(s), heartbeat %s, %d misses ⇒ dead, %s mode\n\n",
		len(st.Partitions), time.Duration(st.HeartbeatSecs*float64(time.Second)), st.Misses, st.FailMode)
	if len(st.Partitions) == 0 {
		fmt.Println("no supervised partitions (no rules were delegated to local controllers)")
		return nil
	}
	fmt.Printf("%-10s %-9s %-12s %-14s %-10s %s\n",
		"PARTITION", "DEVICES", "STATE", "CKPT-AGE", "CKPT-SEQ", "RE-HOMED")
	for _, cs := range st.Partitions {
		state := "alive"
		if !cs.Alive {
			state = "DEAD"
			if cs.Misses > 0 {
				state = fmt.Sprintf("DEAD(%d miss)", cs.Misses)
			}
		}
		ckptAge, ckptSeq := "-", "-"
		if cs.LastCheckpoint != nil {
			ckptAge = time.Duration(cs.CheckpointAge * float64(time.Second)).Round(time.Millisecond).String()
			ckptSeq = strconv.FormatUint(cs.CheckpointSeq, 10)
		}
		rehomed := "-"
		if cs.RehomedTo != "" {
			rehomed = cs.RehomedTo
			if cs.RehomedAt != nil {
				rehomed += " @ " + cs.RehomedAt.Format("15:04:05")
			}
		}
		fmt.Printf("%-10d %-9d %-12s %-14s %-10s %s\n",
			cs.Group, cs.Devices, state, ckptAge, ckptSeq, rehomed)
	}
	if len(st.Failovers) > 0 {
		fmt.Println("\nfailover history:")
		for _, rec := range st.Failovers {
			fmt.Printf("  %s partition %d → %s in %s (%d quarantines re-pushed, %d vars, %d replayed)\n",
				rec.DetectedAt.Format("15:04:05.000"), rec.Group, rec.Target, rec.Recovery,
				rec.QuarantinesRepushed, rec.VarsRestored, rec.EventsReplayed)
		}
	}
	return nil
}

// printHealth probes /healthz and /readyz and renders the aggregated
// component detail. Exit status stays 0 even when not ready — the
// command reports, orchestrators should probe the endpoints directly.
func printHealth(addr string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	live, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		return fmt.Errorf("%w (is the daemon running with -telemetry-addr %s?)", err, addr)
	}
	live.Body.Close()
	fmt.Printf("liveness:  %s\n", live.Status)

	resp, err := client.Get("http://" + addr + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var hj telemetry.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&hj); err != nil {
		return fmt.Errorf("decoding /readyz: %w", err)
	}
	if hj.Ready {
		fmt.Printf("readiness: ready (%s)\n\n", resp.Status)
	} else {
		fmt.Printf("readiness: NOT READY (%s)\n\n", resp.Status)
	}
	if len(hj.Components) == 0 {
		fmt.Println("no components registered")
		return nil
	}
	fmt.Printf("%-24s %-9s %-9s %-14s %s\n", "COMPONENT", "STATE", "CRITICAL", "SINCE", "REASON")
	for _, c := range hj.Components {
		crit := ""
		if c.Critical {
			crit = "critical"
		}
		fmt.Printf("%-24s %-9s %-9s %-14s %s\n",
			c.Component, c.State, crit,
			time.Since(c.Since).Round(time.Second).String()+" ago", c.Reason)
	}
	return nil
}

// printSLO renders the live MTTR pipeline and watchdog state: per-
// stage and end-to-end detect→enforce quantiles, incomplete chains by
// missing stage, and the SLO evaluation gauges.
func printSLO(addr string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/debug/telemetry")
	if err != nil {
		return fmt.Errorf("%w (is the daemon running with -telemetry-addr %s?)", err, addr)
	}
	defer resp.Body.Close()
	var snap telemetry.SnapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}

	var sloLines []string
	found := false
	for _, m := range snap.Metrics {
		switch m.Name {
		case "iotsec_mttr_e2e_seconds":
			found = true
			for _, h := range parseHistogram(m) {
				fmt.Printf("detect→enforce (e2e): %g chains, p50=%s p95=%s p99=%s\n",
					h.count, secs(h.quantile(0.50)), secs(h.quantile(0.95)), secs(h.quantile(0.99)))
			}
		case "iotsec_mttr_stage_seconds":
			found = true
			fmt.Println("per-stage latency (from causal predecessor):")
			for _, h := range parseHistogram(m) {
				fmt.Printf("  %-28s n=%-6g p50=%s p95=%s p99=%s\n",
					labelOf(h.key, "stage"), h.count,
					secs(h.quantile(0.50)), secs(h.quantile(0.95)), secs(h.quantile(0.99)))
			}
		case "iotsec_mttr_incomplete_total":
			for _, s := range m.Samples {
				fmt.Printf("incomplete chains (missing %s): %g\n",
					labelValue(s.Labels, "missing_stage"), s.Value)
			}
		case "iotsec_mttr_inflight_chains", "iotsec_mttr_complete_total", "iotsec_mttr_tap_dropped_total":
			for _, s := range m.Samples {
				fmt.Printf("%-44s %g\n", m.Name, s.Value)
			}
		default:
			if strings.HasPrefix(m.Name, "iotsec_slo_") {
				for _, s := range m.Samples {
					sloLines = append(sloLines,
						fmt.Sprintf("  %-40s %g", m.Name+s.Labels.String(), s.Value))
				}
			}
		}
	}
	if !found {
		fmt.Println("no MTTR metrics (is the daemon running the SLO tracker?)")
		return nil
	}
	if len(sloLines) > 0 {
		fmt.Println("\nwatchdog:")
		sort.Strings(sloLines)
		for _, l := range sloLines {
			fmt.Println(l)
		}
	} else {
		fmt.Println("\nwatchdog: disarmed (run iotsecd with -slo-mttr-p99)")
	}
	return nil
}

// secs renders a latency in seconds compactly.
func secs(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// labelOf extracts one label value out of a rendered label-block key
// like {stage="posture"}.
func labelOf(key, label string) string {
	i := strings.Index(key, label+`="`)
	if i < 0 {
		return key
	}
	rest := key[i+len(label)+2:]
	if j := strings.Index(rest, `"`); j >= 0 {
		return rest[:j]
	}
	return rest
}

// crowdLink aggregates the iotsec_sigrepo_link_* samples for one
// northbound link.
type crowdLink struct {
	state, outboxDepth                           float64
	reconnects, replayed, dedup, delivered, gaps float64
	cursors                                      map[string]float64
}

func labelValue(ls telemetry.Labels, key string) string {
	for _, l := range ls {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

func linkStateName(v float64) string {
	switch int(v) {
	case 2:
		return "up"
	case 1:
		return "degraded"
	default:
		return "down"
	}
}

// printCrowd renders the health of every northbound sigrepo link plus
// the process-global crowd-learning counters.
func printCrowd(addr string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/debug/telemetry")
	if err != nil {
		return fmt.Errorf("%w (is iotsecd running with -telemetry-addr %s?)", err, addr)
	}
	defer resp.Body.Close()
	var snap telemetry.SnapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}

	links := map[string]*crowdLink{}
	get := func(ls telemetry.Labels) *crowdLink {
		name := labelValue(ls, "link")
		l := links[name]
		if l == nil {
			l = &crowdLink{cursors: map[string]float64{}}
			links[name] = l
		}
		return l
	}
	var global []string
	for _, m := range snap.Metrics {
		switch m.Name {
		case "iotsec_sigrepo_link_state":
			for _, s := range m.Samples {
				l := get(s.Labels)
				l.state = s.Value
			}
		case "iotsec_sigrepo_link_outbox_depth":
			for _, s := range m.Samples {
				l := get(s.Labels)
				l.outboxDepth = s.Value
			}
		case "iotsec_sigrepo_link_reconnects_total":
			for _, s := range m.Samples {
				l := get(s.Labels)
				l.reconnects = s.Value
			}
		case "iotsec_sigrepo_link_replayed_total":
			for _, s := range m.Samples {
				l := get(s.Labels)
				l.replayed = s.Value
			}
		case "iotsec_sigrepo_link_dedup_total":
			for _, s := range m.Samples {
				l := get(s.Labels)
				l.dedup = s.Value
			}
		case "iotsec_sigrepo_link_outbox_delivered_total":
			for _, s := range m.Samples {
				l := get(s.Labels)
				l.delivered = s.Value
			}
		case "iotsec_sigrepo_link_gaps_total":
			for _, s := range m.Samples {
				l := get(s.Labels)
				l.gaps = s.Value
			}
		case "iotsec_sigrepo_link_cursor":
			for _, s := range m.Samples {
				get(s.Labels).cursors[labelValue(s.Labels, "sku")] = s.Value
			}
		default:
			if strings.HasPrefix(m.Name, "iotsec_sigrepo_") {
				for _, s := range m.Samples {
					global = append(global,
						fmt.Sprintf("%-44s %g", m.Name+s.Labels.String(), s.Value))
				}
			}
		}
	}

	if len(links) == 0 {
		fmt.Println("no sigrepo links (run iotsecd with -sigrepo-addr)")
	}
	names := make([]string, 0, len(links))
	for n := range links {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := links[n]
		fmt.Printf("link %q: %s\n", n, linkStateName(l.state))
		fmt.Printf("  outbox depth:  %g (delivered %g)\n", l.outboxDepth, l.delivered)
		fmt.Printf("  reconnects:    %g\n", l.reconnects)
		fmt.Printf("  replayed:      %g (deduped %g)\n", l.replayed, l.dedup)
		fmt.Printf("  gap resyncs:   %g\n", l.gaps)
		skus := make([]string, 0, len(l.cursors))
		for s := range l.cursors {
			skus = append(skus, s)
		}
		sort.Strings(skus)
		for _, s := range skus {
			fmt.Printf("  cursor[%s]: %g\n", s, l.cursors[s])
		}
	}
	if len(global) > 0 {
		fmt.Println("\ncrowd-learning globals:")
		sort.Strings(global)
		for _, g := range global {
			fmt.Printf("  %s\n", g)
		}
	}
	return nil
}

// fetchProfiles pulls the behavior-profile report.
func fetchProfiles(addr string) (*profile.Report, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/debug/profiles")
	if err != nil {
		return nil, fmt.Errorf("%w (is iotsecd running with -telemetry-addr and -profile-enforce or -profile-learn-window?)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: %s (profile plane enabled?)", resp.Status)
	}
	var rep profile.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	return &rep, nil
}

// printProfiles renders the profile plane: `profiles` / `profiles
// list` summarize the accepted set, `profiles show <sku>` details one
// profile, `profiles violations` dumps the recent violation history.
func printProfiles(addr string, args []string) error {
	mode := "list"
	if len(args) > 0 {
		mode = args[0]
	}
	rep, err := fetchProfiles(addr)
	if err != nil {
		return err
	}
	switch mode {
	case "list":
		s := rep.Stats
		fmt.Printf("profiles: %d accepted, %d device(s) enforced, learning=%v\n",
			s.Profiles, s.Enforced, s.Learning)
		fmt.Printf("frames seen: %d   violations: %d (%d frames)   rogues: %d\n\n",
			s.FramesSeen, s.Violations, s.ViolationFrames, s.Rogues)
		if len(rep.Profiles) == 0 {
			fmt.Println("no profiles accepted yet")
		} else {
			fmt.Printf("%-28s %-4s %-9s %-10s %s\n", "SKU", "VER", "SERVICES", "RATE", "DEVICES")
			for _, p := range rep.Profiles {
				rate := "-"
				if p.MaxRate > 0 {
					rate = fmt.Sprintf("%.0f f/s", p.MaxRate)
				}
				fmt.Printf("%-28s %-4d %-9d %-10s %d\n", p.SKU, p.Version, len(p.Services), rate, p.Devices)
			}
		}
		if len(rep.Enforced) > 0 {
			fmt.Printf("\nenforced: %s\n", strings.Join(rep.Enforced, ", "))
		}
		if len(rep.Rogues) > 0 {
			fmt.Printf("rogue MACs: %s\n", strings.Join(rep.Rogues, ", "))
		}
	case "show":
		if len(args) != 2 {
			usage()
		}
		for _, p := range rep.Profiles {
			if p.SKU != args[1] {
				continue
			}
			fmt.Printf("%s v%d (%d contributing device(s))\n", p.SKU, p.Version, p.Devices)
			if p.MaxRate > 0 {
				fmt.Printf("  rate envelope: %.0f frames/s\n", p.MaxRate)
			}
			if len(p.Services) == 0 {
				fmt.Println("  no authorized services (deny everything)")
			}
			for _, svc := range p.Services {
				fmt.Printf("  allow %s\n", svc)
			}
			return nil
		}
		return fmt.Errorf("no profile for SKU %q", args[1])
	case "violations":
		if len(rep.Violations) == 0 {
			fmt.Println("no profile violations recorded")
			return nil
		}
		for _, v := range rep.Violations {
			fmt.Printf("%s %-12s %-20s %-20s %s\n",
				v.When.Format("15:04:05.000"), v.Device, v.SKU, v.Kind, v.Detail)
		}
	default:
		usage()
	}
	return nil
}

// fetchJournal pulls a filtered snapshot from /debug/journal.
func fetchJournal(addr string, query url.Values) (*journal.SnapshotJSON, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/debug/journal?" + query.Encode())
	if err != nil {
		return nil, fmt.Errorf("%w (is iotsecd running with -telemetry-addr %s?)", err, addr)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: %s", resp.Status)
	}
	var snap journal.SnapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding journal: %w", err)
	}
	return &snap, nil
}

// printTrace reconstructs and renders one causal chain.
func printTrace(addr, idArg string) error {
	id, err := strconv.ParseUint(idArg, 10, 64)
	if err != nil || id == 0 {
		return fmt.Errorf("trace id must be a positive integer, got %q", idArg)
	}
	snap, err := fetchJournal(addr, url.Values{"trace": {idArg}, "limit": {"0"}})
	if err != nil {
		return err
	}
	t := journal.Reconstruct(snap.Events, id)
	if len(t.Events) == 0 {
		return fmt.Errorf("no journal events for trace %d", id)
	}
	fmt.Print(t.Render())
	fmt.Printf("chain: %s\n", t.Chain())
	return nil
}

// printJournal dumps (or follows) the event journal.
func printJournal(addr string, args []string) error {
	fs := flag.NewFlagSet("journal", flag.ExitOnError)
	trace := fs.Uint64("trace", 0, "restrict to one causal chain")
	dev := fs.String("device", "", "restrict to one device")
	typ := fs.String("type", "", "restrict to one event type")
	since := fs.String("since", "", "only events since (duration like 5m, or RFC3339)")
	until := fs.String("until", "", "only events until (duration like 5m, or RFC3339)")
	sev := fs.String("sev", "", "minimum severity (debug|info|warn|critical)")
	limit := fs.Int("limit", 64, "most recent N matches (0 = all)")
	follow := fs.Bool("follow", false, "stream live events after the backlog")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	if *trace != 0 {
		q.Set("trace", strconv.FormatUint(*trace, 10))
	}
	if *dev != "" {
		q.Set("device", *dev)
	}
	if *typ != "" {
		q.Set("type", *typ)
	}
	if *since != "" {
		q.Set("since", *since)
	}
	if *until != "" {
		q.Set("until", *until)
	}
	if *sev != "" {
		q.Set("sev", *sev)
	}
	q.Set("limit", strconv.Itoa(*limit))

	if *follow {
		q.Set("follow", "1")
		resp, err := http.Get("http://" + addr + "/debug/journal?" + q.Encode())
		if err != nil {
			return fmt.Errorf("%w (is iotsecd running with -telemetry-addr %s?)", err, addr)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			var e journal.Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				continue
			}
			printEvent(e)
		}
		return sc.Err()
	}

	snap, err := fetchJournal(addr, q)
	if err != nil {
		return err
	}
	fmt.Printf("journal: %d events appended, %d tail drops, %d shown\n",
		snap.Appended, snap.TailDrops, len(snap.Events))
	for _, e := range snap.Events {
		printEvent(e)
	}
	return nil
}

// printEvent renders one journal line.
func printEvent(e journal.Event) {
	fmt.Printf("%6d %s [%s] %-13s %-12s trace=%-6d %s\n",
		e.Seq, e.Wall.Format("15:04:05.000"), e.Severity, e.Type, e.Device, e.TraceID, e.Detail)
}

// getJSON fetches one telemetry endpoint and decodes it into out.
func getJSON(addr, path string, q url.Values, out interface{}) error {
	client := &http.Client{Timeout: 5 * time.Second}
	u := "http://" + addr + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := client.Get(u)
	if err != nil {
		return fmt.Errorf("%w (is iotsecd running with -telemetry-addr %s?)", err, addr)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// printDigest renders one incident summary line.
func printDigest(dg forensics.Digest) {
	state := "open"
	if !dg.ClosedAt.IsZero() {
		state = "closed"
	}
	loop := "complete"
	if !dg.Complete {
		loop = "partial"
	}
	if dg.Truncated > 0 {
		loop += fmt.Sprintf(" trunc=%d", dg.Truncated)
	}
	shard := dg.Shard
	if shard == "" {
		shard = "-"
	}
	dev := dg.Device
	if dev == "" {
		dev = "-"
	}
	fmt.Printf("%-20s %s [%s] %-18s %-12s shard=%-10s trace=%-6d ev=%-3d %s/%s\n",
		dg.ID, dg.OpenedAt.Format("15:04:05.000"), dg.Severity, dg.Kind,
		dev, shard, dg.TraceID, dg.Events, state, loop)
}

// printIncidents drives the incident forensics plane: list the durable
// index, show one captured chain, export a replay scenario, list the
// fleet-merged view, or assemble one cross-shard timeline.
func printIncidents(addr string, args []string) error {
	mode := "list"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode = args[0]
		args = args[1:]
	}
	switch mode {
	case "list":
		fs := flag.NewFlagSet("incidents list", flag.ExitOnError)
		trace := fs.Uint64("trace", 0, "restrict to one causal chain")
		dev := fs.String("device", "", "restrict to one device")
		kind := fs.String("kind", "", "restrict to one incident kind")
		sev := fs.String("sev", "", "minimum severity (debug|info|warn|critical)")
		since := fs.String("since", "", "incidents opened since (duration like 5m, or RFC3339)")
		until := fs.String("until", "", "incidents opened until (duration like 5m, or RFC3339)")
		limit := fs.Int("limit", 64, "most recent N matches (0 = all)")
		offset := fs.Int("offset", 0, "skip the most recent N matches")
		if err := fs.Parse(args); err != nil {
			return err
		}
		q := url.Values{}
		if *trace != 0 {
			q.Set("trace", strconv.FormatUint(*trace, 10))
		}
		if *dev != "" {
			q.Set("device", *dev)
		}
		if *kind != "" {
			q.Set("kind", *kind)
		}
		if *sev != "" {
			q.Set("sev", *sev)
		}
		if *since != "" {
			q.Set("since", *since)
		}
		if *until != "" {
			q.Set("until", *until)
		}
		if *offset != 0 {
			q.Set("offset", strconv.Itoa(*offset))
		}
		q.Set("limit", strconv.Itoa(*limit))
		var list forensics.ListJSON
		if err := getJSON(addr, "/debug/incidents", q, &list); err != nil {
			return err
		}
		fmt.Printf("incidents: %d matched, %d shown (open %d, captured %d, tap evicted %d)\n",
			list.Total, len(list.Incidents),
			list.Stats.Open, list.Stats.Captured, list.Stats.TapEvicted)
		if st := list.Stats.StoreStats; st != nil {
			fmt.Printf("store: %s (%d segment(s), %d bytes, %d incident(s); dropped %d segment(s)/%d incident(s) under cap)\n",
				st.Dir, st.Segments, st.Bytes, st.Incidents, st.DroppedSegments, st.DroppedIncidents)
		}
		for _, dg := range list.Incidents {
			printDigest(dg)
		}
		return nil
	case "show":
		if len(args) != 1 {
			return fmt.Errorf("usage: incidents show <id>")
		}
		var inc forensics.Incident
		if err := getJSON(addr, "/debug/incidents", url.Values{"id": {args[0]}}, &inc); err != nil {
			return err
		}
		printDigest(inc.Digest())
		tl := inc.Timeline()
		fmt.Print(tl.Render())
		fmt.Printf("chain: %s\n", tl.Chain())
		return nil
	case "export":
		fs := flag.NewFlagSet("incidents export", flag.ExitOnError)
		out := fs.String("o", "", "write the scenario to a file (default stdout)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: incidents export [-o file] <id>")
		}
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get("http://" + addr + "/debug/incidents?" +
			url.Values{"id": {fs.Arg(0)}, "export": {"1"}}.Encode())
		if err != nil {
			return fmt.Errorf("%w (is iotsecd running with -telemetry-addr %s?)", err, addr)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("server: %s", resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		// Refuse to write an export that iotsim -replay would reject.
		sc, err := forensics.LoadScenario(body)
		if err != nil {
			return fmt.Errorf("server returned an invalid scenario: %w", err)
		}
		if *out == "" {
			_, err := os.Stdout.Write(body)
			return err
		}
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s scenario for %s (device %q, SLO %.1fs) to %s\n",
			sc.Kind, sc.Incident, sc.Device, sc.SLOSeconds, *out)
		fmt.Printf("replay with: iotsim -replay %s\n", *out)
		return nil
	case "fleet":
		var list controller.FleetIncidentsJSON
		if err := getJSON(addr, "/debug/fleet/incidents", nil, &list); err != nil {
			return err
		}
		fmt.Printf("fleet incidents: %d merged across shards\n", list.Total)
		for _, dg := range list.Incidents {
			printDigest(dg)
		}
		return nil
	case "timeline":
		if len(args) != 1 {
			return fmt.Errorf("usage: incidents timeline <trace>")
		}
		id, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil || id == 0 {
			return fmt.Errorf("trace id must be a positive integer, got %q", args[0])
		}
		var tl forensics.FleetTimeline
		if err := getJSON(addr, "/debug/fleet/incidents", url.Values{"trace": {args[0]}}, &tl); err != nil {
			return err
		}
		if len(tl.Events) == 0 {
			return fmt.Errorf("no fleet events for trace %d", id)
		}
		loop := "complete"
		if !tl.Complete {
			loop = "partial"
		}
		fmt.Printf("trace %d: %s chain across %d shard(s) %v (%s)\n",
			tl.TraceID, tl.Kind, len(tl.Shards), tl.Shards, loop)
		for _, se := range tl.Events {
			fmt.Printf("%s %-10s [%s] %-20s %-12s %s\n",
				se.Wall.Format("15:04:05.000"), se.Shard, se.Severity, se.Type, se.Device, se.Detail)
		}
		fmt.Printf("chain: %s\n", tl.Chain())
		return nil
	default:
		return fmt.Errorf("unknown incidents mode %q (want list|show|export|fleet|timeline)", mode)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mboxctl [-addr host:port] status|env|set-env <var> <value>|set-context <device> <context>
       mboxctl [-telemetry-addr host:port] stats [-json]|fleet [-json]|health|slo|crowd|trace <id>|journal [flags]
       mboxctl [-telemetry-addr host:port] incidents [list [flags]|show <id>|export [-o file] <id>|fleet|timeline <trace>]
       mboxctl [-telemetry-addr host:port] profiles [list|show <sku>|violations]
       mboxctl [-telemetry-addr host:port] controllers`)
	os.Exit(2)
}
