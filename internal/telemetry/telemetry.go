// Package telemetry is IoTSec's zero-dependency observability
// subsystem: a metrics registry (lock-free counters and gauges,
// sharded histograms, labeled vectors with a copy-on-write index),
// component health, fleet rollups, and exposition (Prometheus text
// format, JSON snapshots, periodic flush hooks). It records no traces:
// causal chains live in the event journal (internal/journal), the one
// trace record.
//
// Design constraints, in order:
//
//  1. The hot path must stay hot. A counter increment is one
//     uncontended atomic add (< 20ns); a histogram observation is an
//     atomic add into a stack-address-sharded, padded shard. Nothing
//     on the write path takes a lock or allocates.
//  2. Scrapes are concurrent-safe and non-blocking for writers:
//     readers only issue atomic loads; vectors publish their label
//     index with copy-on-write so lookups are a single atomic pointer
//     load.
//  3. stdlib only. No client_golang, no OpenTelemetry.
//
// Metric naming follows the convention
//
//	iotsec_<pkg>_<name>_<unit>
//
// e.g. iotsec_mbox_element_latency_seconds. Counters end in _total.
// Every package that owns a hot path declares its metrics as
// package-level vars in a metrics.go, registered on Default at init.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a metric for exposition.
type Kind string

// Metric kinds (Prometheus TYPE names).
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Labels is an ordered label set rendered as {k1="v1",k2="v2"}.
type Labels []Label

// Label is one key/value pair.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String renders the Prometheus label block (empty for no labels).
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	out := "{"
	for i, l := range ls {
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return out + "}"
}

func escapeLabel(v string) string {
	// Prometheus label values escape backslash, quote and newline.
	needs := false
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' || v[i] == '"' || v[i] == '\n' {
			needs = true
			break
		}
	}
	if !needs {
		return v
	}
	out := make([]byte, 0, len(v)+4)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// Sample is one exposable time-series point. Histograms expand into
// several samples (_bucket, _sum, _count) sharing the metric's base
// name via Suffix.
type Sample struct {
	// Suffix is appended to the metric name ("" for plain metrics,
	// "_bucket"/"_sum"/"_count" for histogram components).
	Suffix string
	Labels Labels
	Value  float64
}

// Metric is anything the registry can expose.
type Metric interface {
	// MetricName returns the fully qualified name
	// (iotsec_<pkg>_<name>_<unit>).
	MetricName() string
	// MetricHelp returns the one-line description.
	MetricHelp() string
	// MetricKind returns the exposition TYPE.
	MetricKind() Kind
	// Samples snapshots the current value(s). Implementations must be
	// safe to call concurrently with writers.
	Samples() []Sample
}

// Collector emits free-form samples at scrape time — used for
// instance-scoped state (per-port stats, partition sizes, cluster
// capacity) that is cheaper to walk on demand than to mirror into
// metrics on every change.
type Collector func(emit func(name string, kind Kind, help string, labels Labels, value float64))

// Registry holds metrics and collectors and exposes them. The zero
// value is not usable; call NewRegistry (or use Default).
type Registry struct {
	mu         sync.RWMutex
	metrics    map[string]Metric
	order      []string             // registration order of metric names
	collectors map[string]Collector // by collector ID (replace-on-reregister)
	collOrder  []string

	health *HealthRegistry
}

// NewRegistry builds an empty registry with an empty component-health
// aggregator whose gauges ride on every scrape.
func NewRegistry() *Registry {
	r := &Registry{
		metrics:    make(map[string]Metric),
		collectors: make(map[string]Collector),
		health:     NewHealthRegistry(),
	}
	r.RegisterCollector("component-health", healthCollector(r.health))
	return r
}

// Default is the process-wide registry that package-level metrics
// register on and that cmd binaries expose.
var Default = NewRegistry()

// Register adds a metric. Registering a second metric under an
// existing name returns the already-registered one when the kinds
// agree (so idempotent package init and tests are safe) and panics on
// a kind mismatch, which is always a programming error.
func (r *Registry) Register(m Metric) Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.metrics[m.MetricName()]; ok {
		if prev.MetricKind() != m.MetricKind() {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)",
				m.MetricName(), m.MetricKind(), prev.MetricKind()))
		}
		return prev
	}
	r.metrics[m.MetricName()] = m
	r.order = append(r.order, m.MetricName())
	return m
}

// RegisterCollector installs (or replaces) a scrape-time collector
// under the given ID. Instance-scoped exporters use an instance-unique
// ID so a rebuilt instance cleanly supersedes its predecessor.
func (r *Registry) RegisterCollector(id string, c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.collectors[id]; !ok {
		r.collOrder = append(r.collOrder, id)
	}
	r.collectors[id] = c
}

// UnregisterCollector removes a collector.
func (r *Registry) UnregisterCollector(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.collectors[id]; ok {
		delete(r.collectors, id)
		for i, cid := range r.collOrder {
			if cid == id {
				r.collOrder = append(r.collOrder[:i], r.collOrder[i+1:]...)
				break
			}
		}
	}
}

// snapshotMetrics lists registered metrics in registration order plus
// collector output, flattened into families.
func (r *Registry) families() []family {
	r.mu.RLock()
	metrics := make([]Metric, 0, len(r.order))
	for _, name := range r.order {
		metrics = append(metrics, r.metrics[name])
	}
	collectors := make([]Collector, 0, len(r.collOrder))
	for _, id := range r.collOrder {
		collectors = append(collectors, r.collectors[id])
	}
	r.mu.RUnlock()

	byName := make(map[string]*family)
	var order []string
	add := func(name string, kind Kind, help string, s Sample) {
		f, ok := byName[name]
		if !ok {
			f = &family{Name: name, Kind: kind, Help: help}
			byName[name] = f
			order = append(order, name)
		}
		f.Samples = append(f.Samples, s)
	}
	for _, m := range metrics {
		for _, s := range m.Samples() {
			add(m.MetricName(), m.MetricKind(), m.MetricHelp(), s)
		}
	}
	for _, c := range collectors {
		c(func(name string, kind Kind, help string, labels Labels, value float64) {
			add(name, kind, help, Sample{Labels: labels, Value: value})
		})
	}
	// Collector samples for the same family must be deterministic for
	// scrape diffing; sort within each family by labels.
	for _, name := range order {
		f := byName[name]
		sort.SliceStable(f.Samples, func(i, j int) bool {
			if f.Samples[i].Suffix != f.Samples[j].Suffix {
				return f.Samples[i].Suffix < f.Samples[j].Suffix
			}
			return f.Samples[i].Labels.String() < f.Samples[j].Labels.String()
		})
	}
	out := make([]family, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// family groups one metric name's samples for exposition.
type family struct {
	Name    string
	Kind    Kind
	Help    string
	Samples []Sample
}

// --- construction helpers (Default registry) ---

// meta carries the identity shared by all metric types.
type meta struct {
	name string
	help string
}

func (m meta) MetricName() string { return m.name }
func (m meta) MetricHelp() string { return m.help }

// NewCounter registers a counter on Default.
func NewCounter(name, help string) *Counter {
	return Default.NewCounter(name, help)
}

// NewGauge registers a gauge on Default.
func NewGauge(name, help string) *Gauge {
	return Default.NewGauge(name, help)
}

// NewCounterVec registers a labeled counter vector on Default.
func NewCounterVec(name, help string, labelKeys ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labelKeys...)
}

// NewGaugeVec registers a labeled gauge vector on Default.
func NewGaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return Default.NewGaugeVec(name, help, labelKeys...)
}

// NewHistogram registers a histogram on Default.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.NewHistogram(name, help, bounds)
}

// NewHistogramVec registers a labeled histogram vector on Default.
func NewHistogramVec(name, help string, bounds []float64, labelKeys ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, bounds, labelKeys...)
}

// NewCounter registers a counter on r.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.Register(&Counter{meta: meta{name, help}}).(*Counter)
}

// NewGauge registers a gauge on r.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.Register(&Gauge{meta: meta{name, help}}).(*Gauge)
}

// NewCounterVec registers a labeled counter vector on r.
func (r *Registry) NewCounterVec(name, help string, labelKeys ...string) *CounterVec {
	v := &CounterVec{meta: meta{name, help}, keys: labelKeys}
	v.idx.Store(&map[string]*Counter{})
	return r.Register(v).(*CounterVec)
}

// NewGaugeVec registers a labeled gauge vector on r.
func (r *Registry) NewGaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	v := &GaugeVec{meta: meta{name, help}, keys: labelKeys}
	v.idx.Store(&map[string]*Gauge{})
	return r.Register(v).(*GaugeVec)
}

// NewHistogram registers a histogram on r.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	return r.Register(newHistogram(meta{name, help}, bounds)).(*Histogram)
}

// NewHistogramVec registers a labeled histogram vector on r.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelKeys ...string) *HistogramVec {
	v := &HistogramVec{meta: meta{name, help}, keys: labelKeys, bounds: bounds}
	v.idx.Store(&map[string]*Histogram{})
	return r.Register(v).(*HistogramVec)
}

// Timer measures one operation into a histogram:
//
//	defer telemetry.Time(h)()
func Time(h *Histogram) func() {
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

// compile-time interface checks
var (
	_ Metric = (*Counter)(nil)
	_ Metric = (*Gauge)(nil)
	_ Metric = (*CounterVec)(nil)
	_ Metric = (*GaugeVec)(nil)
	_ Metric = (*Histogram)(nil)
	_ Metric = (*HistogramVec)(nil)
)

// atomicFloat64 adds float64s with CAS (used only off the per-sample
// fast path or behind shards).
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := floatBits(floatFrom(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat64) Load() float64 { return floatFrom(f.bits.Load()) }
