// Package slo is the live SLO plane: it measures the paper's one
// number that matters — how fast an anomaly becomes an enforced
// µmbox/flow change — *online*, while the system runs, instead of by
// replaying the forensic journal after the fact.
//
// The paper's §2/§5 argument is that IoT flaws are unfixable, so the
// defense is reaction time: detect → posture → FLOW_MOD → applied →
// µmbox reconfig. PR 2 made that chain reconstructable post-hoc from
// trace-ID-stamped journal events; this package taps the same event
// stream (journal.Subscribe, bounded, drop-oldest) and correlates the
// chains as they happen into per-stage and end-to-end MTTR histograms,
// counts chains that never finish, aggregates the result into the
// process health registry, and — via the Watchdog — turns sustained
// SLO burn back into a policy signal (journal event, counter, optional
// fail-mode escalation).
package slo

import (
	"fmt"
	"sync"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// Canonical chain stages, in causal order. Stage latencies are deltas
// from the stage's causal predecessor (posture from the detection,
// flow-mod from the posture, flow-applied from the flow-mod crossing
// the wire, mbox-reconfig from the posture), so the telescoping sum
// detect→posture→flow-mod→flow-applied is always ≤ the end-to-end
// latency.
const (
	StagePosture      = "posture"
	StageFlowMod      = "flow-mod"
	StageFlowApplied  = "flow-applied"
	StageMboxReconfig = "mbox-reconfig"
)

// Stages lists the canonical stages in causal order.
var Stages = []string{StagePosture, StageFlowMod, StageFlowApplied, StageMboxReconfig}

// Component is the health-registry name the tracker reports under.
const Component = "mttr-pipeline"

// Options configures a Tracker. The zero value is usable.
type Options struct {
	// Registry receives the MTTR metrics (Default when nil). Metric
	// registration is idempotent, so several trackers on one registry
	// share series (tests use isolated registries).
	Registry *telemetry.Registry
	// Buffer is the journal-tap ring size (default 4096 events).
	Buffer int
	// ChainTimeout is how long a chain may stay open before it is
	// counted incomplete (default 5s — generous against the modeled
	// µmbox boot latencies, tight against a stuck enforcement path).
	ChainTimeout time.Duration
	// SweepEvery is the incomplete-chain sweep period (default
	// ChainTimeout/4).
	SweepEvery time.Duration
	// HealthHold is how long after an incomplete chain the tracker's
	// health stays non-Healthy (default 4×ChainTimeout): long enough
	// for a probe to see it, short enough to recover on its own.
	HealthHold time.Duration
	// Clock drives timeouts and health decay (resilience.System when
	// nil); tests inject a FakeClock. Stage latencies do NOT use it —
	// they come from the journal's own monotonic event offsets.
	Clock resilience.Clock
	// OnChain, when set, is called once per completed chain with its
	// trace ID, the detected device and the end-to-end latency taken
	// from the journal's monotonic offsets — the hook slow-chain
	// reporting hangs off. It runs on whichever goroutine drained the
	// closing event (the consumer, or a Sync caller), outside the
	// tracker's lock, so it must be quick and safe for concurrent use.
	OnChain func(traceID uint64, device string, e2e time.Duration)
}

// chain is one in-flight detect→enforce correlation.
type chain struct {
	device   string
	start    time.Duration            // journal Mono of the detection
	stages   map[string]time.Duration // first-occurrence Mono per stage
	deadline time.Time                // tracker-clock expiry
}

// Tracker consumes a journal tap and folds trace-ID-correlated chains
// into live MTTR metrics:
//
//	iotsec_mttr_stage_seconds{stage=...}  per-stage latency
//	iotsec_mttr_e2e_seconds               detection → last enforcement
//	iotsec_mttr_incomplete_total{missing_stage=...}
//
// plus scrape-time gauges for in-flight chains and tap drops. One
// consumer goroutine owns all chain state; the hot journal path only
// pays the tap's drop-oldest ring push.
type Tracker struct {
	j     *journal.Journal
	sub   *journal.Subscription
	clock resilience.Clock
	reg   *telemetry.Registry

	chainTimeout time.Duration
	sweepEvery   time.Duration
	healthHold   time.Duration
	onChain      func(traceID uint64, device string, e2e time.Duration)

	mStage      *telemetry.HistogramVec
	mE2E        *telemetry.Histogram
	mIncomplete *telemetry.CounterVec
	mCompleted  *telemetry.Counter

	mu              sync.Mutex
	chains          map[uint64]*chain
	order           []uint64 // insertion order, for deterministic sweeps
	incompleteCount uint64
	lastIncomplete  incompleteMark
	lastEnforceMiss incompleteMark // missing stage beyond posture

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// incompleteMark remembers the most recent incomplete chain for
// health reasons strings.
type incompleteMark struct {
	at      time.Time
	stage   string
	device  string
	traceID uint64
}

// NewTracker attaches a tracker to j and starts its consumer. Close
// detaches it.
func NewTracker(j *journal.Journal, opts Options) *Tracker {
	if j == nil {
		j = journal.Default
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.Default
	}
	clock := opts.Clock
	if clock == nil {
		clock = resilience.System
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = 4096
	}
	timeout := opts.ChainTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	sweep := opts.SweepEvery
	if sweep <= 0 {
		sweep = timeout / 4
	}
	hold := opts.HealthHold
	if hold <= 0 {
		hold = 4 * timeout
	}
	t := &Tracker{
		j:            j,
		sub:          j.Subscribe(buffer),
		clock:        clock,
		reg:          reg,
		chainTimeout: timeout,
		sweepEvery:   sweep,
		healthHold:   hold,
		onChain:      opts.OnChain,
		chains:       make(map[uint64]*chain),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	t.mStage = reg.NewHistogramVec("iotsec_mttr_stage_seconds",
		"Per-stage detect→enforce latency, measured online from the journal tap (delta from the stage's causal predecessor).",
		telemetry.LatencyBuckets, "stage")
	t.mE2E = reg.NewHistogram("iotsec_mttr_e2e_seconds",
		"End-to-end detect→enforce latency (detection to last enforcement event of the chain), measured online.",
		telemetry.LatencyBuckets)
	t.mIncomplete = reg.NewCounterVec("iotsec_mttr_incomplete_total",
		"Chains that timed out before completing, by first missing canonical stage.", "missing_stage")
	t.mCompleted = reg.NewCounter("iotsec_mttr_complete_total",
		"Chains that closed the detect→enforce loop.")
	reg.RegisterCollector("slo-tracker", t.collect)
	go t.run()
	return t
}

// run is the single consumer goroutine: drains the tap, sweeps
// timeouts.
func (t *Tracker) run() {
	defer close(t.done)
	ticker := t.clock.NewTicker(t.sweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-t.sub.Wait():
			for _, e := range t.sub.Drain() {
				t.handle(e)
			}
		case <-ticker.C():
			for _, e := range t.sub.Drain() {
				t.handle(e)
			}
			t.sweep()
		}
	}
}

// handle folds one journal event into chain state and reports a chain
// the event completed to OnChain once the lock is released.
func (t *Tracker) handle(e journal.Event) {
	if e.TraceID == 0 {
		return
	}
	t.mu.Lock()
	device, e2e, completed := t.foldLocked(e)
	t.mu.Unlock()
	if completed && t.onChain != nil {
		t.onChain(e.TraceID, device, e2e)
	}
}

// foldLocked applies e to its chain, reporting the chain's device and
// end-to-end latency when e closed it.
func (t *Tracker) foldLocked(e journal.Event) (device string, e2e time.Duration, completed bool) {
	switch e.Type {
	case journal.TypeAnomaly, journal.TypeAlert, journal.TypeDeviceEvent:
		if _, ok := t.chains[e.TraceID]; ok {
			break // keep the first detection of the chain
		}
		t.chains[e.TraceID] = &chain{
			device:   e.Device,
			start:    e.Mono,
			stages:   make(map[string]time.Duration, 4),
			deadline: t.clock.Now().Add(t.chainTimeout),
		}
		t.order = append(t.order, e.TraceID)
	case journal.TypePosture:
		t.stageLocked(e, StagePosture, "")
	case journal.TypeFlowMod:
		t.stageLocked(e, StageFlowMod, StagePosture)
	case journal.TypeFlowApplied:
		t.stageLocked(e, StageFlowApplied, StageFlowMod)
		return t.maybeCompleteLocked(e.TraceID)
	case journal.TypeMboxReconfig:
		t.stageLocked(e, StageMboxReconfig, StagePosture)
		return t.maybeCompleteLocked(e.TraceID)
	}
	return "", 0, false
}

// stageLocked records the first occurrence of a stage as a delta from
// its causal predecessor (falling back to the detection when the
// predecessor was never seen, e.g. a flow-applied whose flow-mod event
// was evicted from the tap).
func (t *Tracker) stageLocked(e journal.Event, stage, pred string) {
	c, ok := t.chains[e.TraceID]
	if !ok {
		return // chain never started here (standing-quarantine re-applies, foreign traces)
	}
	if _, seen := c.stages[stage]; seen {
		return // first occurrence wins (e.g. one flow-mod per switch)
	}
	c.stages[stage] = e.Mono
	base := c.start
	if pred != "" {
		if p, ok := c.stages[pred]; ok {
			base = p
		}
	}
	d := e.Mono - base
	if d < 0 {
		d = 0 // tap reordering across the ring; clamp rather than poison the histogram
	}
	t.mStage.With(stage).Observe(d.Seconds())
}

// maybeCompleteLocked closes the chain when the loop is closed: the
// µmbox pipeline was reconfigured AND — if the posture emitted flow
// rules at all — at least one switch acknowledged applying them.
// (FLOW_MODs are journaled synchronously before the reconfig event,
// so by the time mbox-reconfig arrives we know whether to wait for a
// flow-applied.) End-to-end latency is detection → latest stage.
func (t *Tracker) maybeCompleteLocked(traceID uint64) (device string, e2e time.Duration, completed bool) {
	c, ok := t.chains[traceID]
	if !ok {
		return "", 0, false
	}
	if _, ok := c.stages[StageMboxReconfig]; !ok {
		return "", 0, false
	}
	_, flowMod := c.stages[StageFlowMod]
	_, applied := c.stages[StageFlowApplied]
	if flowMod && !applied {
		return "", 0, false
	}
	last := c.start
	for _, m := range c.stages {
		if m > last {
			last = m
		}
	}
	e2e = last - c.start
	t.mE2E.Observe(e2e.Seconds())
	t.mCompleted.Inc()
	t.dropLocked(traceID)
	return c.device, e2e, true
}

// sweep expires chains past their deadline, counting each under its
// first missing canonical stage.
func (t *Tracker) sweep() {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var keep []uint64
	for _, id := range t.order {
		c, ok := t.chains[id]
		if !ok {
			continue
		}
		if c.deadline.After(now) {
			keep = append(keep, id)
			continue
		}
		missing := missingStage(c)
		t.mIncomplete.With(missing).Inc()
		t.incompleteCount++
		mark := incompleteMark{at: now, stage: missing, device: c.device, traceID: id}
		t.lastIncomplete = mark
		if missing != StagePosture {
			t.lastEnforceMiss = mark
		}
		delete(t.chains, id)
	}
	t.order = keep
}

// missingStage picks the first canonical stage the chain never
// reached. A chain with flow-mods on the wire but no acknowledgment is
// "flow-applied" even if the µmbox reconfig landed — the network half
// of the enforcement is the part that is missing.
func missingStage(c *chain) string {
	if _, ok := c.stages[StagePosture]; !ok {
		return StagePosture
	}
	_, flowMod := c.stages[StageFlowMod]
	_, applied := c.stages[StageFlowApplied]
	if flowMod && !applied {
		return StageFlowApplied
	}
	if _, ok := c.stages[StageMboxReconfig]; !ok {
		return StageMboxReconfig
	}
	return StageFlowApplied
}

// dropLocked removes a chain from both the map and the order list.
func (t *Tracker) dropLocked(traceID uint64) {
	delete(t.chains, traceID)
	for i, id := range t.order {
		if id == traceID {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// collect emits scrape-time series: in-flight chains and tap drops.
func (t *Tracker) collect(emit func(name string, kind telemetry.Kind, help string, labels telemetry.Labels, value float64)) {
	t.mu.Lock()
	inflight := len(t.chains)
	t.mu.Unlock()
	emit("iotsec_mttr_inflight_chains", telemetry.KindGauge,
		"Detect→enforce chains currently open in the tracker.", nil, float64(inflight))
	emit("iotsec_mttr_tap_dropped_total", telemetry.KindCounter,
		"Journal-tap events evicted before the tracker drained them (drop-oldest).",
		nil, float64(t.sub.Evicted()))
}

// Health is a telemetry.HealthReporter: Down while a chain recently
// timed out mid-enforcement (posture seen, enforcement never
// acknowledged), Degraded while detections recently produced no
// posture at all, Healthy otherwise. The hold window keeps the state
// visible long enough for probes to observe it.
func (t *Tracker) Health() (telemetry.HealthState, string) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.lastEnforceMiss; !m.at.IsZero() && now.Sub(m.at) < t.healthHold {
		return telemetry.HealthDown, fmt.Sprintf(
			"incomplete detect→enforce chain: missing stage %s (device %s, trace %016x, %s ago)",
			m.stage, m.device, m.traceID, now.Sub(m.at).Round(time.Millisecond))
	}
	if m := t.lastIncomplete; !m.at.IsZero() && now.Sub(m.at) < t.healthHold {
		return telemetry.HealthDegraded, fmt.Sprintf(
			"detection produced no posture within %s (device %s, trace %016x)",
			t.chainTimeout, m.device, m.traceID)
	}
	return telemetry.HealthHealthy, ""
}

// RegisterHealth registers the tracker as the critical "mttr-pipeline"
// component on h: a stalled enforcement path flips /readyz to 503 with
// the missing stage in the reason.
func (t *Tracker) RegisterHealth(h *telemetry.HealthRegistry) {
	h.Register(Component, true, t.Health)
}

// Inflight reports open chains (tests).
func (t *Tracker) Inflight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.chains)
}

// Incomplete reports the total chains counted incomplete.
func (t *Tracker) Incomplete() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.incompleteCount
}

// E2E exposes the end-to-end histogram (the watchdog windows it).
func (t *Tracker) E2E() *telemetry.Histogram { return t.mE2E }

// Rollup snapshots the cumulative end-to-end histogram. Together with
// Sync and Incomplete it makes the tracker a watchdog Source.
func (t *Tracker) Rollup() telemetry.HistogramRollup { return t.mE2E.Rollup() }

// Sync drains any tapped events and runs one timeout sweep
// synchronously — a deterministic barrier for tests and for the
// watchdog's evaluation tick (so an evaluation never races the
// consumer goroutine over events that are already in the tap).
func (t *Tracker) Sync() {
	for _, e := range t.sub.Drain() {
		t.handle(e)
	}
	t.sweep()
}

// Close detaches the tap and stops the consumer. Idempotent.
func (t *Tracker) Close() {
	t.once.Do(func() {
		close(t.stop)
		<-t.done
		t.sub.Close()
		t.reg.UnregisterCollector("slo-tracker")
	})
}
