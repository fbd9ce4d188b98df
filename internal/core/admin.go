package core

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"

	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/policy"
)

// Admin exposes a running Platform over a small JSON-over-TCP
// interface — what cmd/iotsecd serves and cmd/mboxctl talks to.
type Admin struct {
	platform *Platform

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// AdminRequest is one CLI command.
type AdminRequest struct {
	Op     string `json:"op"` // status | env | set-env | set-context | inject-anomaly
	Var    string `json:"var,omitempty"`
	Value  string `json:"value,omitempty"`
	Device string `json:"device,omitempty"`
}

// DeviceStatus describes one managed device.
type DeviceStatus struct {
	Name     string   `json:"name"`
	SKU      string   `json:"sku"`
	IP       string   `json:"ip"`
	Context  string   `json:"context"`
	Posture  string   `json:"posture"`
	Pipeline []string `json:"pipeline"`
	State    string   `json:"state"`
}

// AdminResponse answers one request.
type AdminResponse struct {
	OK      bool              `json:"ok"`
	Error   string            `json:"error,omitempty"`
	Devices []DeviceStatus    `json:"devices,omitempty"`
	Env     map[string]string `json:"env,omitempty"`
	Boots   int               `json:"boots,omitempty"`
	Reconf  uint64            `json:"reconfigures,omitempty"`
	Version uint64            `json:"view_version,omitempty"`
}

// ServeAdmin starts the admin listener, returning the bound address.
func (p *Platform) ServeAdmin(addr string) (*Admin, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("core: admin listen: %w", err)
	}
	a := &Admin{platform: p, ln: ln}
	a.wg.Add(1)
	go a.acceptLoop()
	return a, ln.Addr().String(), nil
}

func (a *Admin) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.wg.Add(1)
		go a.serve(conn)
	}
}

func (a *Admin) serve(conn net.Conn) {
	defer a.wg.Done()
	defer conn.Close()
	enc := json.NewEncoder(conn)
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		var req AdminRequest
		if err := json.Unmarshal(scanner.Bytes(), &req); err != nil {
			_ = enc.Encode(AdminResponse{Error: "bad request: " + err.Error()})
			continue
		}
		_ = enc.Encode(a.handle(req))
	}
}

func (a *Admin) handle(req AdminRequest) AdminResponse {
	p := a.platform
	switch req.Op {
	case "status":
		resp := AdminResponse{OK: true}
		p.mu.Lock()
		names := make([]string, 0, len(p.devices))
		for n := range p.devices {
			names = append(names, n)
		}
		p.mu.Unlock()
		sort.Strings(names)
		for _, n := range names {
			m, _ := p.Device(n)
			resp.Devices = append(resp.Devices, DeviceStatus{
				Name:     n,
				SKU:      m.Device.Profile.SKU,
				IP:       m.Device.IP().String(),
				Context:  string(p.Global.View.DeviceContext(n)),
				Posture:  m.CurrentPosture.String(),
				Pipeline: m.Instance.Mbox.Pipeline().Elements(),
				State:    m.Device.StateString(),
			})
		}
		boots, _, _ := p.Manager.Metrics()
		resp.Boots = boots
		resp.Reconf, resp.Version = p.Metrics()
		return resp
	case "env":
		s := p.Env.Snapshot()
		env := make(map[string]string)
		for _, name := range s.Names() {
			env[name] = strconv.FormatFloat(s.Get(name), 'f', 2, 64)
		}
		return AdminResponse{OK: true, Env: env}
	case "set-env":
		v, err := strconv.ParseFloat(req.Value, 64)
		if err != nil {
			return AdminResponse{Error: "set-env: value must be numeric"}
		}
		p.Env.Set(req.Var, v)
		p.Env.Step()
		return AdminResponse{OK: true}
	case "set-context":
		sc := policy.SecurityContext(req.Value)
		switch sc {
		case policy.ContextNormal, policy.ContextSuspicious, policy.ContextCompromised, policy.ContextUnpatched:
		default:
			return AdminResponse{Error: "set-context: unknown context " + req.Value}
		}
		// Operator actions start fresh causal chains too: an admin
		// quarantine shows up in the journal with its own trace ID.
		p.Global.View.SetDeviceContext(journal.WithTrace(context.Background()), req.Device, sc, "admin")
		return AdminResponse{OK: true}
	case "inject-anomaly":
		// Forensic drill: drive a synthetic anomaly through the real
		// detect→policy→enforce path so operators (and the restart
		// smoke test) can exercise incident capture end to end.
		if _, ok := p.Device(req.Device); !ok {
			return AdminResponse{Error: "inject-anomaly: unknown device " + req.Device}
		}
		detail := req.Value
		if detail == "" {
			detail = "admin-injected anomaly drill"
		}
		p.ReportAnomaly(ids.Anomaly{
			Device: req.Device,
			Kind:   ids.AnomalyRate,
			Detail: detail,
			Score:  0.95,
		})
		return AdminResponse{OK: true}
	default:
		return AdminResponse{Error: "unknown op " + req.Op}
	}
}

// Close stops the admin listener.
func (a *Admin) Close() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		_ = a.ln.Close()
	}
	a.mu.Unlock()
}

// AdminCall is the client side: one request/response over a fresh
// connection.
func AdminCall(addr string, req AdminRequest) (AdminResponse, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return AdminResponse{}, err
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return AdminResponse{}, err
	}
	var resp AdminResponse
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !scanner.Scan() {
		return AdminResponse{}, fmt.Errorf("core: admin connection closed")
	}
	if err := json.Unmarshal(scanner.Bytes(), &resp); err != nil {
		return AdminResponse{}, err
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("core: admin: %s", resp.Error)
	}
	return resp, nil
}
