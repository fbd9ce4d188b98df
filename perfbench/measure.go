package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one set of generated inputs and the closed-loop clients
// that drive them.
type workload struct {
	name string
	// clients is the number of closed-loop clients: each waits for the
	// reply to one operation before issuing the next.
	clients int
	// events marks workloads whose operations are controller events,
	// reported split into locally handled and escalated.
	events bool
	setup  func(cfg config, tr *tracer) (deployment, error)
}

var workloads = map[string]workload{
	"home-mgmt":     {name: "home-mgmt", clients: 2, setup: setupHome},
	"posture-churn": {name: "posture-churn", clients: 1, events: true, setup: setupChurn},
	"fleet-10k":     {name: "fleet-10k", clients: 2, events: true, setup: setupFleet},
}

// deployment is a running IoTSec system built for one workload.
type deployment interface {
	// drive runs the closed-loop clients until stop closes, logging
	// every operation in rec.
	drive(stop <-chan struct{}, rec *recorder)
	// counts snapshots program counters, read through public accessors.
	counts() counts
	// afterRun runs once the clients stopped (a traced run replays its
	// captured inputs here).
	afterRun(tr *tracer)
	// verify checks end-of-run invariants; each error is one failure.
	verify() []error
	// layers derives per-layer figures from counter deltas taken over
	// the untraced windows, which completed ops operations.
	layers(d counts, ops int, set func(name string, v float64))
	close()
}

// counts is a snapshot of monotonic program counters by name.
type counts map[string]float64

func (c counts) minus(o counts) counts {
	out := make(counts, len(c))
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Operation kinds (bit flags).
const (
	kindEscalated  = 1 << iota // the event escalated to the global controller
	kindQuarantine             // the event isolated or released a device
	kindAttack                 // a factory-credential request that must be refused
)

// opRecord is one completed operation.
type opRecord struct {
	start, end int64 // ns since the recorder epoch
	kind       uint8
	failed     bool
}

// recorder logs operations per client without locking.
type recorder struct {
	epoch   time.Time
	tracing atomic.Bool
	logs    [][]opRecord

	mu   sync.Mutex
	errs []string
	nerr int
}

func newRecorder(clients int) *recorder {
	r := &recorder{epoch: time.Now(), logs: make([][]opRecord, clients)}
	for i := range r.logs {
		r.logs[i] = make([]opRecord, 0, 1<<16)
	}
	return r
}

// now is the time since the epoch in ns.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// log records one operation of a client.
func (r *recorder) log(client int, start, end int64, kind uint8, failed bool) {
	r.logs[client] = append(r.logs[client], opRecord{start: start, end: end, kind: kind, failed: failed})
}

// fail keeps the first few failure messages for the report.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nerr++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// measurement is everything one invocation observed.
type measurement struct {
	cfg       config
	attempted int
	failed    int
	errors    []string
	values    map[string]float64
	measured  map[string]bool
	spans     []spanStat
	// spans kept in the store and spans dropped over a build's share
	kept, dropped int
	clockNs       float64
	// per untraced window, in time order
	windowOps, windowP99 []float64
}

func (m *measurement) set(name string, v float64) {
	m.values[name] = v
	m.measured[name] = true
}

// window is one measured slice of a deployment's run.
type window struct {
	traced      bool
	ops, failed int
	lat, quar   []float64
	local, esc  []float64
}

// measure builds the deployment cfg.sizes.setups times (setup_s is the
// median build time) and drives each build for an equal share of
// cfg.seconds, split into windows; end-to-end figures are medians over
// all windows of all builds. In a traced run every other window is
// traced: end-to-end figures come from the untraced windows, per-layer
// times from the traced ones, and their difference is the overhead.
// Per-layer counts are taken over untraced windows and averaged over
// builds.
func measure(cfg config, wl workload) (*measurement, error) {
	m := &measurement{cfg: cfg, values: map[string]float64{}, measured: map[string]bool{}}
	tr := newTracer(cfg.trace)
	m.clockNs = tr.clockOverheadNs()
	n := cfg.sizes.setups
	k := cfg.sizes.windows
	win := time.Duration(cfg.seconds / float64(n*k) * float64(time.Second))

	var setupTimes, heaps, goroutines, cals []float64
	var wins []window
	layers := map[string][]float64{}
	var cpu, wall, allocs, gcCPU, totalCPU float64
	var untracedOps int
	for i := 0; i < n; i++ {
		tr.budget(maxSpans / n)
		runtime.GC()
		cals = append(cals, calibrate())
		t0 := time.Now()
		dep, err := wl.setup(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		runtime.GC()
		heaps = append(heaps, heapBytes()/1e6)
		goroutines = append(goroutines, float64(runtime.NumGoroutine()))

		ws, delta, errs, verifyFailures := runDeployment(cfg, wl, dep, tr, k, win)
		m.errors = append(m.errors, errs...)
		m.failed += verifyFailures
		ops := 0
		for _, w := range ws {
			m.attempted += w.ops
			m.failed += w.failed
			if !w.traced {
				ops += w.ops
				wall += win.Seconds()
			}
		}
		untracedOps += ops
		cpu += delta["proc.cpu_s"]
		allocs += delta["proc.alloc_bytes"]
		gcCPU += delta["proc.gc_cpu_s"]
		totalCPU += delta["proc.total_cpu_s"]
		dep.layers(delta, ops, func(name string, v float64) { layers[name] = append(layers[name], v) })
		dep.close()
		cals = append(cals, calibrate())
		wins = append(wins, ws...)
	}
	if m.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %.1fs", wl.name, cfg.seconds)
	}
	m.set("setup_s", median(setupTimes))
	m.set("heap_mb", median(heaps))
	m.set("process.goroutines", median(goroutines))
	m.set("process.calibration_us", median(cals))

	var ops, p50, p99, quar, tOps, tP50 []float64
	var local, esc []float64
	var samples, beyond int
	for _, w := range wins {
		if w.traced {
			tOps = append(tOps, float64(w.ops)/win.Seconds())
			tP50 = append(tP50, quantile(w.lat, 0.50))
			continue
		}
		ops = append(ops, float64(w.ops)/win.Seconds())
		p50 = append(p50, quantile(w.lat, 0.50))
		p99 = append(p99, quantile(w.lat, 0.99))
		samples += len(w.lat)
		beyond += len(w.lat) / 100
		if len(w.quar) > 0 {
			quar = append(quar, quantile(w.quar, 0.99))
		}
		local = append(local, w.local...)
		esc = append(esc, w.esc...)
	}
	m.windowOps = append([]float64(nil), ops...)
	m.windowP99 = append([]float64(nil), p99...)
	m.set("ops_per_s", median(ops))
	m.set("p50_us", median(p50))
	m.set("p99_us", median(p99))
	m.set("p50_samples", float64(samples))
	m.set("p99_samples_beyond", float64(beyond))
	m.set("error_ratio", float64(m.failed)/float64(m.attempted))
	if len(quar) > 0 {
		m.set("quarantine_p99_us", median(quar))
	}
	if wl.events && len(local) > 0 {
		m.set("controller.local_event_us", quantile(local, 0.50))
	}
	if wl.events && len(esc) > 0 {
		m.set("controller.escalated_event_us", quantile(esc, 0.50))
	}
	if cfg.trace {
		m.set("trace.p50_overhead_pct", 100*(median(tP50)-median(p50))/median(p50))
		m.set("trace.ops_overhead_pct", 100*(median(ops)-median(tOps))/median(ops))
	}
	m.set("process.cpu_util", ratio(cpu, wall*float64(runtime.GOMAXPROCS(0))))
	m.set("process.alloc_bytes_per_op", ratio(allocs, float64(untracedOps)))
	m.set("process.gc_cpu_fraction", ratio(gcCPU, totalCPU))
	for name, vs := range layers {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		m.set(name, sum/float64(len(vs)))
	}

	if cfg.trace {
		m.spans = tr.summarize()
		m.kept, m.dropped = tr.stored()
		for _, s := range m.spans {
			if def, ok := spanMetrics[s.name]; ok {
				m.set(def.metric, def.value(s))
			}
		}
		if cfg.traceDir != "" {
			if err := tr.write(cfg, m.spans); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// runDeployment drives one deployment for k windows of length win and
// checks it. It returns the windows (which count failed operations),
// the counter deltas summed over the untraced windows, the failure
// messages, and how many end-of-run checks failed.
func runDeployment(cfg config, wl workload, dep deployment, tr *tracer, k int, win time.Duration) ([]window, counts, []string, int) {
	rec := newRecorder(wl.clients)
	traced := func(w int) bool { return cfg.trace && w%2 == 1 }
	snaps := make([]counts, k+1)
	snaps[0] = snapshot(dep)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dep.drive(stop, rec)
	}()
	for w := 0; w < k; w++ {
		time.Sleep(time.Until(rec.epoch.Add(time.Duration(w+1) * win)))
		rec.tracing.Store(traced(w + 1))
		snaps[w+1] = snapshot(dep)
	}
	close(stop)
	wg.Wait()
	rec.tracing.Store(false)
	dep.afterRun(tr)
	verifyErrs := dep.verify()
	msgs := rec.errs
	if rec.nerr > len(rec.errs) {
		msgs = append(msgs, fmt.Sprintf("... %d more operation failures", rec.nerr-len(rec.errs)))
	}
	for _, e := range verifyErrs {
		msgs = append(msgs, e.Error())
	}

	// Bucket operations by the window they started in.
	wins := make([]window, k)
	for w := range wins {
		wins[w].traced = traced(w)
	}
	for _, log := range rec.logs {
		for _, op := range log {
			w := min(int(op.start/int64(win)), k-1)
			lat := float64(op.end-op.start) / 1e3
			wn := &wins[w]
			wn.ops++
			wn.lat = append(wn.lat, lat)
			if op.kind&kindQuarantine != 0 {
				wn.quar = append(wn.quar, lat)
			}
			if op.kind&kindEscalated != 0 {
				wn.esc = append(wn.esc, lat)
			} else {
				wn.local = append(wn.local, lat)
			}
			if op.failed {
				wn.failed++
			}
		}
	}
	delta := counts{}
	for w := range wins {
		if !wins[w].traced {
			delta.add(snaps[w+1].minus(snaps[w]))
		}
	}
	return wins, delta, msgs, len(verifyErrs)
}

// snapshot reads the deployment's counters plus the process's own.
func snapshot(dep deployment) counts {
	c := dep.counts()
	c.add(processCounts())
	return c
}
