package slo

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// Objectives is a detect→enforce latency SLO evaluated over sliding
// windows of the tracker's end-to-end histogram.
type Objectives struct {
	// Target is the objective latency at Quantile (e.g. p99 ≤ 250ms).
	Target time.Duration
	// Quantile the objective is stated at (default 0.99). The error
	// budget per window is (1-Quantile)·BurnFactor: the fraction of
	// chains allowed to miss Target (or never complete) before the
	// window counts as burning.
	Quantile float64
	// Window is the evaluation period (default 1m).
	Window time.Duration
	// MinSamples skips windows with too little traffic to judge
	// (default 5 chains; completed + incomplete).
	MinSamples uint64
	// BurnFactor scales the per-window error budget (default 1). >1
	// tolerates transient spikes (slow burn detection); a Google-style
	// fast-burn page would run a second watchdog with BurnFactor 14
	// over a short window.
	BurnFactor float64
}

func (o Objectives) withDefaults() Objectives {
	if o.Quantile <= 0 || o.Quantile >= 1 {
		o.Quantile = 0.99
	}
	if o.Window <= 0 {
		o.Window = time.Minute
	}
	if o.MinSamples == 0 {
		o.MinSamples = 5
	}
	if o.BurnFactor <= 0 {
		o.BurnFactor = 1
	}
	return o
}

// String renders the objective for journal events and CLIs.
func (o Objectives) String() string {
	return fmt.Sprintf("p%g ≤ %s over %s (budget ×%g)",
		o.Quantile*100, o.Target, o.Window, o.BurnFactor)
}

// Source is what a watchdog windows: any producer of a cumulative
// latency histogram plus an incomplete count. Tracker implements it for
// detect→enforce MTTR; HistogramSource adapts any bare histogram (e.g.
// the controller recovery-MTTR histogram) so failover recovery rides
// the same SLO machinery.
type Source interface {
	// Sync is the pre-evaluation barrier: fold any pending observations
	// so the window judges everything that should have resolved by now.
	Sync()
	// Rollup snapshots the cumulative histogram.
	Rollup() telemetry.HistogramRollup
	// Incomplete counts chains that will never complete (judged as +Inf
	// observations). Sources without the concept return 0.
	Incomplete() uint64
}

// HistogramSource adapts a bare telemetry histogram into a Source
// (no sync barrier, no incomplete accounting).
type HistogramSource struct {
	H *telemetry.Histogram
}

func (s HistogramSource) Sync()                             {}
func (s HistogramSource) Rollup() telemetry.HistogramRollup { return s.H.Rollup() }
func (s HistogramSource) Incomplete() uint64                { return 0 }

// WatchdogOptions configures the evaluation machinery.
type WatchdogOptions struct {
	// ID distinguishes watchdogs sharing one registry (collector id and
	// the {slo: id} label on scrape series). Default "slo-watchdog",
	// which emits unlabeled series for backward compatibility.
	ID string
	// Journal receives slo-burn events (journal.Default when nil).
	Journal *journal.Journal
	// Registry receives the watchdog metrics (NewWatchdog: the
	// tracker's registry; NewWatchdogSource: telemetry.Default — when
	// nil).
	Registry *telemetry.Registry
	// Clock drives the evaluation ticker (resilience.System when nil).
	Clock resilience.Clock
	// OnBurn fires once per burn episode, when a window first
	// violates the objective (iotsecd wires fail-mode escalation
	// here). OnRecover fires when a later window clears it.
	OnBurn    func(Evaluation)
	OnRecover func(Evaluation)
}

// Evaluation is one window verdict.
type Evaluation struct {
	At         time.Time     `json:"at"`
	Skipped    bool          `json:"skipped"` // below MinSamples
	Total      uint64        `json:"total"`   // chains judged this window
	Incomplete uint64        `json:"incomplete"`
	OverTarget uint64        `json:"over_target"` // completed chains over Target (bucket-conservative)
	Quantile   time.Duration `json:"quantile"`    // windowed latency at the objective quantile
	BudgetFrac float64       `json:"budget_frac"` // allowed violating fraction
	ViolFrac   float64       `json:"viol_frac"`   // observed violating fraction
	Burning    bool          `json:"burning"`
}

// Watchdog evaluates the objective over deltas of the tracker's
// histograms every Window, emitting slo-burn journal events and the
// iotsec_slo_burn_total counter while the budget is exceeded.
// Incomplete chains count as violations at +Inf — a chain that never
// enforced is the worst possible MTTR, not a missing sample.
type Watchdog struct {
	src   Source
	id    string
	j     *journal.Journal
	obj   Objectives
	clock resilience.Clock
	reg   *telemetry.Registry

	onBurn    func(Evaluation)
	onRecover func(Evaluation)

	mBurn *telemetry.Counter

	mu      sync.Mutex
	prev    telemetry.HistogramRollup // previous window's cumulative e2e snapshot
	prevInc uint64
	burning bool
	last    Evaluation
	evals   uint64

	started atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// NewWatchdog builds a watchdog over a tracker's detect→enforce
// histogram. Call Start to begin ticking (tests may call Evaluate
// directly instead).
func NewWatchdog(t *Tracker, obj Objectives, opts WatchdogOptions) *Watchdog {
	if opts.Registry == nil {
		opts.Registry = t.reg
	}
	return NewWatchdogSource(t, obj, opts)
}

// NewWatchdogSource builds a watchdog over any Source — the recovery
// SLO tap runs one over the controller recovery-MTTR histogram.
func NewWatchdogSource(src Source, obj Objectives, opts WatchdogOptions) *Watchdog {
	j := opts.Journal
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
	id := opts.ID
	if id == "" {
		id = "slo-watchdog"
	}
	w := &Watchdog{
		src:       src,
		id:        id,
		j:         j,
		obj:       obj.withDefaults(),
		clock:     clock,
		reg:       reg,
		onBurn:    opts.OnBurn,
		onRecover: opts.OnRecover,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	w.mBurn = reg.NewCounter("iotsec_slo_burn_total",
		"Evaluation windows in which the MTTR objective's error budget was exceeded.")
	reg.RegisterCollector(id, w.collect)
	// Baseline the histogram so the first window only sees its own
	// delta, not process history.
	w.prev = src.Rollup()
	w.prevInc = src.Incomplete()
	return w
}

// Objectives returns the (defaulted) objective under evaluation.
func (w *Watchdog) Objectives() Objectives { return w.obj }

// Start begins the evaluation ticker. Stop (or Close) ends it.
func (w *Watchdog) Start() {
	if !w.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(w.done)
		ticker := w.clock.NewTicker(w.obj.Window)
		defer ticker.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-ticker.C():
				w.Evaluate()
			}
		}
	}()
}

// Stop halts the ticker (a never-Started watchdog just unregisters its
// collector). Idempotent.
func (w *Watchdog) Stop() {
	w.once.Do(func() {
		close(w.stop)
		if w.started.Load() {
			<-w.done
		}
		w.reg.UnregisterCollector(w.id)
	})
}

// Evaluate judges the window since the previous evaluation. Exported
// so tests (and one-shot tools) can drive it deterministically.
func (w *Watchdog) Evaluate() Evaluation {
	// Barrier: fold anything sitting in the tap and sweep timeouts so
	// the window judges every chain that should have resolved by now.
	w.src.Sync()
	cur := w.src.Rollup()
	inc := w.src.Incomplete()

	w.mu.Lock()
	defer w.mu.Unlock()
	// Window delta via the mergeable-rollup algebra (same bounds by
	// construction, so the error path is unreachable).
	window, err := cur.DeltaFrom(w.prev)
	if err != nil {
		window = cur.Clone()
	}
	bounds := window.Bounds
	dInc := inc - w.prevInc
	w.prev = cur
	w.prevInc = inc

	ev := Evaluation{
		At:         w.clock.Now(),
		Total:      window.Count + dInc,
		Incomplete: dInc,
		BudgetFrac: (1 - w.obj.Quantile) * w.obj.BurnFactor,
	}
	w.evals++
	if ev.Total < w.obj.MinSamples {
		ev.Skipped = true
		ev.Burning = w.burning
		w.last = ev
		return ev
	}

	// Incomplete chains are +Inf observations for the windowed
	// quantile and automatic violations for the budget.
	qBuckets := append([]uint64(nil), window.Buckets...)
	qBuckets[len(qBuckets)-1] += dInc
	ev.Quantile = time.Duration(telemetry.QuantileFromBuckets(bounds, qBuckets, w.obj.Quantile) * float64(time.Second))

	// A completed chain counts as over-target when its bucket's upper
	// bound exceeds Target (conservative: the bucket containing Target
	// counts as over — pick Target on a bucket boundary to avoid the
	// rounding, see LatencyBuckets).
	target := w.obj.Target.Seconds()
	for i, d := range window.Buckets {
		if d == 0 {
			continue
		}
		if i >= len(bounds) || bounds[i] > target {
			ev.OverTarget += d
		}
	}
	ev.ViolFrac = float64(ev.OverTarget+dInc) / float64(ev.Total)
	ev.Burning = ev.ViolFrac > ev.BudgetFrac

	if ev.Burning {
		w.mBurn.Inc()
		name := "MTTR SLO"
		if w.id != "slo-watchdog" {
			name = w.id + " SLO"
		}
		w.j.Record(context.Background(), journal.TypeSLOBurn, journal.Warn, "",
			fmt.Sprintf("%s burn: %s violated — window p%g=%s, %d/%d over target (%d incomplete), viol %.1f%% > budget %.1f%%",
				name, w.obj, w.obj.Quantile*100, ev.Quantile, ev.OverTarget+ev.Incomplete, ev.Total,
				ev.Incomplete, ev.ViolFrac*100, ev.BudgetFrac*100))
	}
	was := w.burning
	w.burning = ev.Burning
	w.last = ev
	if ev.Burning && !was && w.onBurn != nil {
		go w.onBurn(ev)
	}
	if !ev.Burning && was && w.onRecover != nil {
		go w.onRecover(ev)
	}
	return ev
}

// Last returns the most recent evaluation (zero before the first).
func (w *Watchdog) Last() Evaluation {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// Burning reports whether the last judged window violated the budget.
func (w *Watchdog) Burning() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.burning
}

// collect emits the watchdog's scrape-time series. Gauges with
// fractional values (seconds, ratios) are emitted here rather than as
// int64 Gauge metrics.
func (w *Watchdog) collect(emit func(name string, kind telemetry.Kind, help string, labels telemetry.Labels, value float64)) {
	w.mu.Lock()
	last, burning, evals := w.last, w.burning, w.evals
	obj := w.obj
	w.mu.Unlock()
	// Non-default watchdogs label their series so two objectives on one
	// registry stay distinguishable; the default stays unlabeled for
	// backward compatibility.
	var labels telemetry.Labels
	if w.id != "slo-watchdog" {
		labels = telemetry.Labels{{Key: "slo", Value: w.id}}
	}
	b := 0.0
	if burning {
		b = 1
	}
	emit("iotsec_slo_burn_active", telemetry.KindGauge,
		"1 while the last evaluated window violated the MTTR error budget.", labels, b)
	emit("iotsec_slo_objective_seconds", telemetry.KindGauge,
		"Configured MTTR objective latency.", labels, obj.Target.Seconds())
	emit("iotsec_slo_objective_quantile", telemetry.KindGauge,
		"Quantile the MTTR objective is stated at.", labels, obj.Quantile)
	emit("iotsec_slo_evaluations_total", telemetry.KindCounter,
		"SLO windows evaluated (including skipped low-traffic windows).", labels, float64(evals))
	emit("iotsec_slo_window_quantile_seconds", telemetry.KindGauge,
		"Last window's MTTR at the objective quantile (incomplete chains count as +Inf).",
		labels, last.Quantile.Seconds())
	emit("iotsec_slo_window_total", telemetry.KindGauge,
		"Chains judged in the last window.", labels, float64(last.Total))
	emit("iotsec_slo_window_violations", telemetry.KindGauge,
		"Over-target plus incomplete chains in the last window.",
		labels, float64(last.OverTarget+last.Incomplete))
}
