package sigrepo

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
)

// Wire protocol: newline-delimited JSON messages over TCP. Clients
// send requests; the server answers each with one response and pushes
// "notify" messages asynchronously for subscriptions. Subscriptions
// carry a cursor (`since`): the server replays every cleared-signature
// event after it before streaming live pushes, so a reconnecting
// gateway resumes loss-free.

// NoReplay is the subscribe cursor meaning "live events only" — the
// semantics of the original cursor-less Subscribe.
const NoReplay = ^uint64(0)

// ErrRemote wraps errors the repository itself returned (validation
// failures, duplicate votes, unknown IDs). Callers use errors.Is to
// distinguish these application-level rejections — which retrying will
// never fix — from transport failures, which a supervised session
// retries after reconnecting.
var ErrRemote = errors.New("sigrepo: remote error")

// ErrClosed reports a client whose connection has terminated.
var ErrClosed = errors.New("sigrepo: connection closed")

// wireRequest is a client → server message.
type wireRequest struct {
	Op          string `json:"op"` // publish | vote | fetch | subscribe | skus
	Identity    string `json:"identity"`
	SKU         string `json:"sku,omitempty"`
	Rule        string `json:"rule,omitempty"`
	Description string `json:"description,omitempty"`
	SigID       string `json:"sig_id,omitempty"`
	Up          bool   `json:"up,omitempty"`
	// Since is the subscribe cursor: replay cleared events after this
	// per-SKU sequence. 0 replays the full cleared history; NoReplay
	// streams live events only.
	Since uint64 `json:"since,omitempty"`
}

// wireResponse is a server → client message.
type wireResponse struct {
	Kind       string      `json:"kind"` // reply | notify
	OK         bool        `json:"ok"`
	Error      string      `json:"error,omitempty"`
	Signature  *Signature  `json:"signature,omitempty"`
	Signatures []Signature `json:"signatures,omitempty"`
	SKUs       []string    `json:"skus,omitempty"`
	Priority   bool        `json:"priority,omitempty"`
	// Seq is the cleared-event sequence: on a subscribe reply, the
	// SKU's head at registration; on a notify, the event's sequence
	// (the cursor value the client persists).
	Seq uint64 `json:"seq,omitempty"`
	// Replay marks a cursor-replayed notify (the client may have seen
	// it before the outage; consumers dedupe by signature ID).
	Replay bool `json:"replay,omitempty"`
}

// Server exposes a Repository over TCP.
type Server struct {
	repo *Repository

	// WriteTimeout bounds each wire write (default 5s). A subscriber
	// that stops reading for longer is reaped rather than allowed to
	// stall the connection's writer.
	WriteTimeout time.Duration
	// NotifyBuffer bounds each connection's pending LIVE-notification
	// ring (default 256). Cursor-replay backlogs never pass through
	// this ring — they are written synchronously on the subscribe
	// request path — so only live pushes to a slow subscriber can be
	// evicted (counted in iotsec_sigrepo_notify_evictions_total). An
	// eviction leaves a sequence gap in the live stream, which the
	// managed client detects and repairs with a fetch resync.
	NotifyBuffer int

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps the repository.
func NewServer(repo *Repository) *Server {
	return &Server{repo: repo, conns: make(map[net.Conn]bool)}
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout <= 0 {
		return 5 * time.Second
	}
	return s.WriteTimeout
}

func (s *Server) notifyBuffer() int {
	if s.NotifyBuffer < 1 {
		return 256
	}
	return s.NotifyBuffer
}

// Listen binds and serves on addr, returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("sigrepo: listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	mServerConns.Inc()
	defer func() {
		mServerConns.Dec()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	var writeMu sync.Mutex
	enc := json.NewEncoder(conn)
	send := func(resp wireResponse) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		// A write deadline bounds how long a dead or stalled subscriber
		// can hold the connection's writer; on expiry the conn errors
		// out and the session is reaped.
		_ = conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		err := enc.Encode(resp)
		_ = conn.SetWriteDeadline(time.Time{})
		return err
	}

	// Notification path: repository callbacks must never block (they
	// run under the broadcast fan-out), so they push into a bounded
	// drop-oldest ring and nudge a per-connection writer goroutine.
	// One slow or dead subscriber therefore costs evictions on its own
	// ring, never a stall of the repository or of other subscribers.
	notifyQ := resilience.NewRing[wireResponse](s.notifyBuffer())
	wake := make(chan struct{}, 1)
	writerDone := make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-writerDone:
				return
			case <-wake:
			}
			for _, resp := range notifyQ.Drain() {
				if err := send(resp); err != nil {
					// Dead subscriber: drop the conn; serve's read loop
					// unwinds and cancels the subscriptions.
					conn.Close()
					return
				}
			}
		}
	}()
	enqueueNotify := func(n Notification) {
		sig := n.Signature
		if notifyQ.Push(wireResponse{Kind: "notify", OK: true, Signature: &sig,
			Seq: n.Seq, Priority: n.Priority, Replay: n.Replay}) {
			mNotifyEvictions.Inc()
		}
		select {
		case wake <- struct{}{}:
		default:
		}
	}

	var cancels []func()
	defer func() {
		for _, c := range cancels {
			c()
		}
		close(writerDone)
	}()

	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		var req wireRequest
		if err := json.Unmarshal(scanner.Bytes(), &req); err != nil {
			_ = send(wireResponse{Kind: "reply", Error: "bad request: " + err.Error()})
			continue
		}
		mServerRequests.Inc()
		// Each wire request is a fresh causal chain on the repository
		// side, with its own trace ID the journal records under.
		ctx := journal.WithTrace(context.Background())
		switch req.Op {
		case "publish":
			sig, err := s.repo.Publish(ctx, req.Identity, req.SKU, req.Rule, req.Description)
			if err != nil {
				_ = send(wireResponse{Kind: "reply", Error: err.Error()})
				continue
			}
			_ = send(wireResponse{Kind: "reply", OK: true, Signature: sig})
		case "vote":
			sig, err := s.repo.Vote(ctx, req.Identity, req.SigID, req.Up)
			if err != nil {
				_ = send(wireResponse{Kind: "reply", Error: err.Error()})
				continue
			}
			_ = send(wireResponse{Kind: "reply", OK: true, Signature: sig})
		case "fetch":
			_ = send(wireResponse{Kind: "reply", OK: true, Signatures: s.repo.Fetch(req.SKU)})
		case "skus":
			_ = send(wireResponse{Kind: "reply", OK: true, SKUs: s.repo.SKUs()})
		case "subscribe":
			// Registration + replay snapshot are atomic in the
			// repository, so no clearing can fall between the replayed
			// backlog and the live stream. The reply carries the SKU
			// head; replayed events follow as notify messages so the
			// client's single push path handles both.
			//
			// The replay backlog is written synchronously on this
			// request path — NEVER through the evictable live ring. A
			// cursor replay can be arbitrarily larger than NotifyBuffer
			// (a new gateway backfilling a popular SKU), and a client
			// that advanced its cursor past an evicted replay would
			// lose the signature permanently; backpressure here is the
			// connection itself, bounded per message by the write
			// deadline (a subscriber too slow to absorb its own
			// backfill is reaped and retries from its cursor, which
			// only ever advances past delivered events).
			cancel, replays, head := s.repo.SubscribeSince(req.Identity, req.SKU, req.Since, enqueueNotify)
			cancels = append(cancels, cancel)
			_ = send(wireResponse{Kind: "reply", OK: true, Seq: head})
			for _, n := range replays {
				sig := n.Signature
				if err := send(wireResponse{Kind: "notify", OK: true, Signature: &sig,
					Seq: n.Seq, Priority: n.Priority, Replay: n.Replay}); err != nil {
					conn.Close() // dead mid-replay: unwind; client resumes from its cursor
					break
				}
			}
		default:
			_ = send(wireResponse{Kind: "reply", Error: "unknown op " + req.Op})
		}
	}
}

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Push is one asynchronous server → client notification: the cleared
// signature plus the cursor to persist.
type Push struct {
	Signature Signature
	// Seq is the per-SKU cleared-event sequence; the highest Seq a
	// client has processed is the cursor it resubscribes with.
	Seq uint64
	// Priority marks contributor-priority delivery.
	Priority bool
	// Replay marks a cursor-replayed event (dedupe by Signature.ID).
	Replay bool
}

// Client talks to a sigrepo Server over one connection. Requests are
// serialized (one in flight at a time); asynchronous notifications are
// delivered to the push handler passed to NewClient (or installed via
// SetOnPush/SetOnNotify before subscribing). When the connection dies,
// Done() closes, Err() reports why, and every in-flight and subsequent
// call fails fast with ErrClosed — the hooks ManagedClient supervises
// reconnection with.
type Client struct {
	identity string
	conn     net.Conn
	enc      *json.Encoder

	// hookMu guards the push hooks: the read goroutine loads them on
	// every notify, so late installation via the setters needs a
	// happens-before edge (handlers passed to NewClient are written
	// before the goroutine starts and need none).
	hookMu   sync.Mutex
	onPush   func(p Push)
	onNotify func(sig Signature, priority bool)

	reqMu     sync.Mutex // serializes call()
	replies   chan wireResponse
	done      chan struct{}
	err       error // set before done closes
	closeOnce sync.Once
}

// DialClient connects to the repository as the given identity. Install
// push hooks with SetOnPush/SetOnNotify before subscribing.
func DialClient(addr, identity string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sigrepo: dial: %w", err)
	}
	return NewClient(conn, identity, nil), nil
}

// NewClient wraps an established connection (ManagedClient dials
// through fault-injection wrappers and hands the conn here). onPush
// (optional) receives asynchronous notifications; taking it as a
// constructor argument pins it in place before the read goroutine
// starts, so pushes can never race the handler installation.
func NewClient(conn net.Conn, identity string, onPush func(Push)) *Client {
	c := &Client{
		identity: identity,
		conn:     conn,
		enc:      json.NewEncoder(conn),
		onPush:   onPush,
		replies:  make(chan wireResponse, 4),
		done:     make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// SetOnPush installs (or replaces) the cursor-aware push handler.
// Call it before Subscribe/SubscribeSince.
func (c *Client) SetOnPush(fn func(Push)) {
	c.hookMu.Lock()
	c.onPush = fn
	c.hookMu.Unlock()
}

// SetOnNotify installs the legacy push hook (no cursor metadata);
// used only when no OnPush handler is set.
func (c *Client) SetOnNotify(fn func(sig Signature, priority bool)) {
	c.hookMu.Lock()
	c.onNotify = fn
	c.hookMu.Unlock()
}

func (c *Client) readLoop() {
	scanner := bufio.NewScanner(c.conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		var resp wireResponse
		if err := json.Unmarshal(scanner.Bytes(), &resp); err != nil {
			continue
		}
		if resp.Kind == "notify" {
			if resp.Signature == nil {
				continue
			}
			c.hookMu.Lock()
			onPush, onNotify := c.onPush, c.onNotify
			c.hookMu.Unlock()
			if onPush != nil {
				onPush(Push{Signature: *resp.Signature, Seq: resp.Seq,
					Priority: resp.Priority, Replay: resp.Replay})
			} else if onNotify != nil {
				onNotify(*resp.Signature, resp.Priority)
			}
			continue
		}
		select {
		case c.replies <- resp:
		default:
		}
	}
	// Surface why the session ended instead of exiting silently: the
	// write to c.err happens before close(c.done), so any goroutine
	// that observes Done() closed reads it safely.
	err := scanner.Err()
	if err == nil {
		err = ErrClosed // clean EOF: peer closed or Close() was called
	} else {
		err = fmt.Errorf("%w: %v", ErrClosed, err)
	}
	c.err = err
	close(c.done)
}

// Done closes when the connection terminates (either direction).
func (c *Client) Done() <-chan struct{} { return c.done }

// Err reports why the connection terminated; nil while it is live.
func (c *Client) Err() error {
	select {
	case <-c.done:
		return c.err
	default:
		return nil
	}
}

// call sends one request and waits for its reply. Once the connection
// is dead it fails fast rather than hanging.
func (c *Client) call(req wireRequest) (wireResponse, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	select {
	case <-c.done:
		return wireResponse{}, c.err
	default:
	}
	req.Identity = c.identity
	if err := c.enc.Encode(req); err != nil {
		// A failed write means the conn is unusable; tear it down so
		// the readLoop terminates and Done() observers fire.
		c.Close()
		return wireResponse{}, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	select {
	case resp := <-c.replies:
		if resp.Error != "" {
			return resp, fmt.Errorf("%w: %s", ErrRemote, resp.Error)
		}
		return resp, nil
	case <-c.done:
		return wireResponse{}, c.err
	}
}

// Publish shares a signature.
func (c *Client) Publish(sku, rule, description string) (*Signature, error) {
	resp, err := c.call(wireRequest{Op: "publish", SKU: sku, Rule: rule, Description: description})
	if err != nil {
		return nil, err
	}
	return resp.Signature, nil
}

// Vote casts a verdict on a signature.
func (c *Client) Vote(sigID string, up bool) (*Signature, error) {
	resp, err := c.call(wireRequest{Op: "vote", SigID: sigID, Up: up})
	if err != nil {
		return nil, err
	}
	return resp.Signature, nil
}

// Fetch lists cleared signatures for a SKU.
func (c *Client) Fetch(sku string) ([]Signature, error) {
	resp, err := c.call(wireRequest{Op: "fetch", SKU: sku})
	if err != nil {
		return nil, err
	}
	return resp.Signatures, nil
}

// SKUs lists SKUs known to the repository.
func (c *Client) SKUs() ([]string, error) {
	resp, err := c.call(wireRequest{Op: "skus"})
	if err != nil {
		return nil, err
	}
	return resp.SKUs, nil
}

// Subscribe registers for pushed signatures on a SKU, live events
// only (no replay).
func (c *Client) Subscribe(sku string) error {
	_, err := c.SubscribeSince(sku, NoReplay)
	return err
}

// SubscribeSince registers for pushed signatures on a SKU, replaying
// every cleared event after the `since` cursor first. It returns the
// SKU's event head at registration time.
func (c *Client) SubscribeSince(sku string, since uint64) (head uint64, err error) {
	resp, err := c.call(wireRequest{Op: "subscribe", SKU: sku, Since: since})
	if err != nil {
		return 0, err
	}
	return resp.Seq, nil
}

// Close drops the connection (idempotent).
func (c *Client) Close() {
	c.closeOnce.Do(func() { _ = c.conn.Close() })
}
