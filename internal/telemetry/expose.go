package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Samples {
			fmt.Fprintf(bw, "%s%s%s %s\n", f.Name, s.Suffix, s.Labels.String(), formatValue(s.Value))
		}
	}
	return bw.Flush()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SnapshotJSON is the machine-readable registry dump served at
// /debug/telemetry and appended by flush hooks. The shape is stable so
// benchmark runs can be diffed across commits.
type SnapshotJSON struct {
	TakenAt time.Time    `json:"taken_at"`
	Metrics []MetricJSON `json:"metrics"`
}

// MetricJSON is one metric family in a snapshot.
type MetricJSON struct {
	Name    string       `json:"name"`
	Kind    Kind         `json:"kind"`
	Help    string       `json:"help,omitempty"`
	Samples []SampleJSON `json:"samples"`
}

// SampleJSON is one series point in a snapshot.
type SampleJSON struct {
	Suffix string  `json:"suffix,omitempty"`
	Labels Labels  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Snapshot captures the registry. The argument is ignored; it is kept
// for source compatibility with existing callers.
func (r *Registry) Snapshot(int) *SnapshotJSON {
	snap := &SnapshotJSON{TakenAt: time.Now()}
	for _, f := range r.families() {
		mj := MetricJSON{Name: f.Name, Kind: f.Kind, Help: f.Help}
		for _, s := range f.Samples {
			mj.Samples = append(mj.Samples, SampleJSON{Suffix: s.Suffix, Labels: s.Labels, Value: s.Value})
		}
		snap.Metrics = append(snap.Metrics, mj)
	}
	return snap
}

// Handler serves the Prometheus text format (mount at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// DebugHandler serves the JSON snapshot (mount at /debug/telemetry).
func (r *Registry) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot(0))
	})
}

// Server is a telemetry HTTP listener serving /metrics and
// /debug/telemetry. Close tears it down without leaking goroutines.
type Server struct {
	srv *http.Server
	ln  net.Listener

	// debugOpen, when set, disables the loopback-only guard on the
	// /debug/ surfaces (pprof, telemetry snapshot, journal mounts).
	debugOpen atomic.Bool

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// AllowRemoteDebug opens the /debug/ surfaces (pprof profiles, metric
// snapshots, forensic journal mounts) to non-loopback clients. By
// default they answer only to loopback peers, because profiling and
// forensic event data are served unauthenticated: binding the
// telemetry address to a routable interface must not expose them.
// /metrics is always open (scrapers are expected to be remote).
func (s *Server) AllowRemoteDebug() { s.debugOpen.Store(true) }

// isLoopback reports whether an http RemoteAddr is a loopback peer.
// Unparseable addresses count as non-loopback (fail closed).
func isLoopback(remoteAddr string) bool {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		host = remoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// guardDebug wraps a /debug/ handler in the loopback-only policy.
func (s *Server) guardDebug(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !s.debugOpen.Load() && !isLoopback(req.RemoteAddr) {
			http.Error(w, "debug endpoints are loopback-only (enable remote debug to open them)",
				http.StatusForbidden)
			return
		}
		h.ServeHTTP(w, req)
	})
}

// Mount adds an extra handler to a telemetry server's mux — how the
// journal (and any future debug surface) rides on the same listener
// without telemetry depending on it.
type Mount struct {
	Pattern string
	Handler http.Handler
}

// Serve starts a telemetry server on addr (use port 0 for ephemeral),
// returning the server and its bound address. Besides /metrics,
// /healthz (liveness), /readyz (aggregated readiness) and
// /debug/telemetry, the mux carries the net/http/pprof surface under
// /debug/pprof/ and any extra mounts; the runtime-stats collector is
// registered so every scrape includes iotsec_runtime_* gauges.
//
// Everything under /debug/ (pprof, telemetry snapshot, and mounts)
// is restricted to loopback clients unless AllowRemoteDebug is called
// on the returned server — binding addr to a routable interface must
// not expose unauthenticated profiling or forensic data. /metrics
// stays open for remote scrapers.
func (r *Registry) Serve(addr string, mounts ...Mount) (*Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("telemetry: listen: %w", err)
	}
	r.RegisterRuntimeStats()
	s := &Server{
		ln:   ln,
		done: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	// Probe endpoints are open like /metrics: orchestrators probing
	// liveness/readiness are expected to be remote, and the responses
	// carry operational state only (no profiles, no forensic events).
	mux.Handle("/healthz", r.health.LivenessHandler())
	mux.Handle("/readyz", r.health.ReadinessHandler())
	mux.Handle("/debug/telemetry", s.guardDebug(r.DebugHandler()))
	mux.Handle("/debug/pprof/", s.guardDebug(http.HandlerFunc(pprof.Index)))
	mux.Handle("/debug/pprof/cmdline", s.guardDebug(http.HandlerFunc(pprof.Cmdline)))
	mux.Handle("/debug/pprof/profile", s.guardDebug(http.HandlerFunc(pprof.Profile)))
	mux.Handle("/debug/pprof/symbol", s.guardDebug(http.HandlerFunc(pprof.Symbol)))
	mux.Handle("/debug/pprof/trace", s.guardDebug(http.HandlerFunc(pprof.Trace)))
	for _, m := range mounts {
		mux.Handle(m.Pattern, s.guardDebug(m.Handler))
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns on Close
	}()
	return s, ln.Addr().String(), nil
}

// Addr reports the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, drops open connections, and waits for the
// serve goroutine to exit. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.srv.Close()
	<-s.done
	return err
}

// StartFlusher invokes fn with a fresh snapshot every interval until
// the returned stop function runs (which flushes one final time). Use
// it to append benchmark-comparable JSON lines to a file or pipe.
func (r *Registry) StartFlusher(interval time.Duration, fn func(*SnapshotJSON)) (stop func()) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				fn(r.Snapshot(0))
				return
			case <-t.C:
				fn(r.Snapshot(0))
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
