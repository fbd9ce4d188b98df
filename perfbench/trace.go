package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op (the id of the operation's root span).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Items is how many units of work the span covers (0 means 1), for
	// calls too short to time one at a time.
	Items int `json:"items,omitempty"`
}

// maxSpans bounds the in-memory span store. Each build of a run gets an
// equal share (see budget); spans beyond a build's share are counted as
// dropped, and the report prints the count.
const maxSpans = 500_000

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing.
type tracer struct {
	enabled bool
	epoch   time.Time
	ids     atomic.Uint64

	mu      sync.Mutex
	spans   []span
	limit   int // len(spans) at which the current build's share is full
	dropped int
}

func newTracer(enabled bool) *tracer {
	return &tracer{enabled: enabled, epoch: time.Now(), limit: maxSpans}
}

// now is the time since the tracer epoch in ns.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id allocates a span id.
func (t *tracer) id() uint64 { return t.ids.Add(1) }

// budget gives the next build room for n more spans, so a busy early
// build cannot crowd the later ones out of the store.
func (t *tracer) budget(n int) {
	t.mu.Lock()
	t.limit = len(t.spans) + n
	t.mu.Unlock()
}

// add stores a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// stored is how many spans the store kept and how many it dropped.
func (t *tracer) stored() (kept, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.dropped
}

// child records a span that started at start and ends now.
func (t *tracer) child(op, parent uint64, name string, start int64) {
	t.add(span{ID: t.id(), Parent: parent, Op: op, Name: name, Start: start, End: t.now()})
}

// clockOverheadNs is the median cost of one back-to-back clock read
// pair, which every span duration includes.
func (t *tracer) clockOverheadNs() float64 {
	xs := make([]float64, 2001)
	for i := range xs {
		a := t.now()
		b := t.now()
		xs[i] = float64(b - a)
	}
	return median(xs)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name     string
	count    int
	items    int
	p50Ns    float64
	p99Ns    float64
	totalNs  float64
	selfNs   float64
	perItem  float64
	selfFrac float64
}

// summarize aggregates spans by name. A span's self time is its
// duration minus the part of it its children cover.
func (t *tracer) summarize() []spanStat {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	children := make(map[uint64][]int, len(spans)/2)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	type acc struct {
		durs          []float64
		items         int
		total, selfNs float64
	}
	by := map[string]*acc{}
	var all float64
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		d := float64(s.End - s.Start)
		a.durs = append(a.durs, d)
		if s.Items > 0 {
			a.items += s.Items
		} else {
			a.items++
		}
		a.total += d
		self := d - covered(s, spans, children[s.ID])
		a.selfNs += self
		all += self
	}
	out := make([]spanStat, 0, len(by))
	for name, a := range by {
		out = append(out, spanStat{
			name:     name,
			count:    len(a.durs),
			items:    a.items,
			p50Ns:    quantile(a.durs, 0.50),
			p99Ns:    quantile(a.durs, 0.99),
			totalNs:  a.total,
			selfNs:   a.selfNs,
			perItem:  a.total / float64(a.items),
			selfFrac: ratio(a.selfNs, all),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfNs > out[j].selfNs })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, spans []span, kids []int) float64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return float64(sum)
}

// spanMetric maps a span name onto the per-layer metric it yields.
type spanMetric struct {
	metric string
	value  func(spanStat) float64
}

func p50us(s spanStat) float64     { return s.p50Ns / 1e3 }
func p50ns(s spanStat) float64     { return s.p50Ns }
func perItemNs(s spanStat) float64 { return s.perItem }

var spanMetrics = map[string]spanMetric{
	"netsim.dial":           {"netsim.dial_us", p50us},
	"netsim.exchange":       {"netsim.exchange_us", p50us},
	"openflow.lookup":       {"openflow.lookup_ns", p50ns},
	"openflow.barrier":      {"openflow.barrier_rtt_us", p50us},
	"packet.decode":         {"packet.decode_ns", p50ns},
	"mbox.pipeline":         {"mbox.pipeline_ns", p50ns},
	"mbox.reconfigure":      {"mbox.reconfigure_us", p50us},
	"ids.match":             {"ids.match_ns", p50ns},
	"policy.lookup":         {"policy.lookup_us", p50us},
	"policy.posture_key":    {"policy.posture_key_ns", perItemNs},
	"controller.view_state": {"controller.view_state_us", p50us},
	"controller.isolate":    {"controller.isolate_us", p50us},
	"controller.release":    {"controller.release_us", p50us},
	"journal.record":        {"journal.record_ns", p50ns},
	"telemetry.rollup_view": {"telemetry.rollup_view_us", p50us},
}

// write stores the spans and their summary, gzip-compressed, as one
// JSON document per line: a header, the summary rows, then every span.
func (t *tracer) write(cfg config, stats []spanStat) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.ndjson.gz", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	t.mu.Lock()
	spans, dropped := t.spans, t.dropped
	t.mu.Unlock()
	_ = enc.Encode(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "spans": len(spans), "dropped": dropped})
	for _, s := range stats {
		_ = enc.Encode(map[string]any{"summary": s.name, "count": s.count, "items": s.items,
			"p50_ns": s.p50Ns, "p99_ns": s.p99Ns, "total_ns": s.totalNs, "self_ns": s.selfNs})
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
