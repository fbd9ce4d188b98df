package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Counter is a monotonically increasing integral counter. The zero
// value is usable standalone (unregistered); registered counters come
// from NewCounter. Inc is a single atomic add.
type Counter struct {
	meta
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// MetricKind implements Metric.
func (c *Counter) MetricKind() Kind { return KindCounter }

// Samples implements Metric.
func (c *Counter) Samples() []Sample {
	return []Sample{{Value: float64(c.v.Load())}}
}

// Gauge is a settable instantaneous value. All operations are single
// atomics.
type Gauge struct {
	meta
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// MetricKind implements Metric.
func (g *Gauge) MetricKind() Kind { return KindGauge }

// Samples implements Metric.
func (g *Gauge) Samples() []Sample {
	return []Sample{{Value: float64(g.v.Load())}}
}

// labelSep joins multi-label values into one index key; 0xff never
// appears in metric label values we emit.
const labelSep = "\xff"

func joinLabelValues(vals []string) string {
	if len(vals) == 1 {
		return vals[0]
	}
	out := ""
	for i, v := range vals {
		if i > 0 {
			out += labelSep
		}
		out += v
	}
	return out
}

func splitLabels(keys []string, joined string) Labels {
	ls := make(Labels, 0, len(keys))
	start := 0
	ki := 0
	for i := 0; i <= len(joined) && ki < len(keys); i++ {
		if i == len(joined) || joined[i] == labelSep[0] {
			ls = append(ls, Label{Key: keys[ki], Value: joined[start:i]})
			start = i + 1
			ki++
		}
	}
	return ls
}

// CounterVec is a family of counters keyed by label values. The child
// index is copy-on-write: With on an existing child is one atomic
// pointer load plus a map read; creating a new child copies the index
// under a mutex (rare, off the hot path). Callers on hot paths should
// resolve children once and hold the *Counter.
type CounterVec struct {
	meta
	keys []string
	idx  atomic.Pointer[map[string]*Counter]
	mu   sync.Mutex
}

// With returns (creating if needed) the child for the label values,
// which must match the vector's label keys in number and order.
func (v *CounterVec) With(labelValues ...string) *Counter {
	key := joinLabelValues(labelValues)
	if c, ok := (*v.idx.Load())[key]; ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.idx.Load()
	if c, ok := old[key]; ok {
		return c
	}
	nw := make(map[string]*Counter, len(old)+1)
	for k, c := range old {
		nw[k] = c
	}
	c := &Counter{}
	nw[key] = c
	v.idx.Store(&nw)
	return c
}

// MetricKind implements Metric.
func (v *CounterVec) MetricKind() Kind { return KindCounter }

// Samples implements Metric.
func (v *CounterVec) Samples() []Sample {
	idx := *v.idx.Load()
	out := make([]Sample, 0, len(idx))
	for key, c := range idx {
		out = append(out, Sample{Labels: splitLabels(v.keys, key), Value: float64(c.Value())})
	}
	return out
}

// GaugeVec is a family of gauges keyed by label values (copy-on-write
// index, same discipline as CounterVec).
type GaugeVec struct {
	meta
	keys []string
	idx  atomic.Pointer[map[string]*Gauge]
	mu   sync.Mutex
}

// With returns (creating if needed) the child gauge.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	key := joinLabelValues(labelValues)
	if g, ok := (*v.idx.Load())[key]; ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.idx.Load()
	if g, ok := old[key]; ok {
		return g
	}
	nw := make(map[string]*Gauge, len(old)+1)
	for k, g := range old {
		nw[k] = g
	}
	g := &Gauge{}
	nw[key] = g
	v.idx.Store(&nw)
	return g
}

// MetricKind implements Metric.
func (v *GaugeVec) MetricKind() Kind { return KindGauge }

// Samples implements Metric.
func (v *GaugeVec) Samples() []Sample {
	idx := *v.idx.Load()
	out := make([]Sample, 0, len(idx))
	for key, g := range idx {
		out = append(out, Sample{Labels: splitLabels(v.keys, key), Value: float64(g.Value())})
	}
	return out
}
