package controller

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/telemetry"
)

// SteeredDevice describes one protected device on a steered switch:
// where the device hangs and where its µmbox's two legs connect.
type SteeredDevice struct {
	Name string
	MAC  packet.MACAddress
	// DevicePort is the switch port the device connects to.
	DevicePort uint16
	// MboxNorthPort / MboxSouthPort are the switch ports wired to the
	// µmbox's network-side and device-side legs.
	MboxNorthPort uint16
	MboxSouthPort uint16
}

// Steering is the Figure 2 tunnel fabric: an SDN application that
// programs switches (over the real southbound protocol) so every
// frame to or from a protected device traverses its µmbox, while
// plain hosts talk directly.
//
// Per protected device D with ports (P_dev, A=north, B=south):
//
//	prio 220: in_port=B            -> output P_dev   (processed, toward device)
//	prio 220: in_port=P_dev        -> output B       (device-origin, into µmbox)
//	prio 200: in_port=A            -> output {host ports}  (processed, outward)
//	prio 150: eth_dst=D.MAC        -> output A       (device-bound, into µmbox)
//	prio  50: (default)            -> output {host ports} + {A for broadcast}
//
// Beyond tunnel programming, Steering can install per-device
// quarantine rules (Isolate/Release): priority-400 drop rules keyed
// by the device MAC, emitted with the trace ID of the causal chain
// that requested them, so forensic timelines show which anomaly
// produced which FLOW_MOD.
type Steering struct {
	mu      sync.Mutex
	devices []SteeredDevice
	// pending switches connect before AddDevice in some orders; we
	// reprogram on every change.
	endpoint *openflow.ControllerEndpoint
	switches map[uint64][]uint16 // dpid → ports
	// isolated holds the quarantine set (device name → MAC). It is the
	// source of truth for which drop rules must exist on every switch:
	// program() re-emits them after any table rebuild, and a switch
	// that connects (or reconnects) mid-quarantine receives them
	// immediately — AddDevice or an agent reconnect can never silently
	// lift a quarantine.
	isolated map[string]packet.MACAddress
	// ruleSets holds named standing rule sets (e.g. one compiled
	// behavior profile per enforced device). Like quarantines they are
	// persisted controller state: program() re-emits every set after a
	// table rebuild and on every switch (re)connect, so enforcement
	// survives agent restarts.
	ruleSets map[string][]*openflow.FlowMod
	// connectWaiters are closed (and cleared) when a switch completes
	// the handshake, so WaitForSwitch blocks without polling.
	connectWaiters []chan struct{}
	logger         *log.Logger
}

// NewSteering builds the application and its southbound endpoint.
// Call Listen, point switch agents at the address, then AddDevice.
func NewSteering(logger *log.Logger) *Steering {
	if logger == nil {
		logger = log.New(discardWriter{}, "", 0)
	}
	s := &Steering{
		switches: make(map[uint64][]uint16),
		isolated: make(map[string]packet.MACAddress),
		ruleSets: make(map[string][]*openflow.FlowMod),
		logger:   logger,
	}
	s.endpoint = openflow.NewControllerEndpoint(s, logger)
	return s
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// Listen starts the southbound listener, returning the bound address.
// After Interrupt it may be called again to resume accepting.
func (s *Steering) Listen(addr string) (string, error) {
	return s.endpoint.Listen(addr)
}

// SetHeartbeat tunes the southbound liveness probe (an ECHO every
// interval, reap after misses unanswered beats; interval <= 0
// disables). Call before Listen.
func (s *Steering) SetHeartbeat(interval time.Duration, misses int) {
	s.endpoint.SetHeartbeat(interval, misses)
}

// Interrupt models a controller crash: every southbound session and
// the listener drop, but the steering state (devices, standing
// quarantines) survives, so switches reconnecting after a later
// Listen are re-programmed and re-quarantined through the normal
// SwitchConnected path.
func (s *Steering) Interrupt() { s.endpoint.Interrupt() }

// Close tears down the southbound endpoint.
func (s *Steering) Close() error { return s.endpoint.Close() }

// Endpoint exposes the raw southbound endpoint (for stats requests in
// experiments).
func (s *Steering) Endpoint() *openflow.ControllerEndpoint { return s.endpoint }

// AddDevice registers a protected device and reprograms all connected
// switches. The context carries the causal trace (if any) into the
// emitted FLOW_MODs.
func (s *Steering) AddDevice(ctx context.Context, d SteeredDevice) {
	s.mu.Lock()
	s.devices = append(s.devices, d)
	dpids := make([]uint64, 0, len(s.switches))
	for dpid := range s.switches {
		dpids = append(dpids, dpid)
	}
	s.mu.Unlock()
	for _, dpid := range dpids {
		s.program(ctx, dpid)
	}
}

// SwitchConnected implements openflow.SwitchHandler. Programming is
// asynchronous: this callback runs on the switch's receive goroutine,
// which must stay free to deliver the barrier replies program waits
// for.
func (s *Steering) SwitchConnected(dpid uint64, ports []uint16) {
	s.mu.Lock()
	s.switches[dpid] = ports
	waiters := s.connectWaiters
	s.connectWaiters = nil
	s.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
	go s.program(context.Background(), dpid)
}

// WaitForSwitch blocks until at least one switch has completed the
// southbound handshake (or the timeout expires), without polling —
// polling loops contend with the handshake itself for CPU on small
// hosts. Returns true when a switch is connected.
func (s *Steering) WaitForSwitch(timeout time.Duration) bool {
	s.mu.Lock()
	if len(s.switches) > 0 {
		s.mu.Unlock()
		return true
	}
	ch := make(chan struct{})
	s.connectWaiters = append(s.connectWaiters, ch)
	s.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-time.After(timeout):
		return false
	}
}

// SwitchDisconnected implements openflow.SwitchHandler.
func (s *Steering) SwitchDisconnected(dpid uint64) {
	s.mu.Lock()
	delete(s.switches, dpid)
	s.mu.Unlock()
}

// HandlePacketIn implements openflow.SwitchHandler: with proactive
// rules installed nothing should punt; log for diagnosis.
func (s *Steering) HandlePacketIn(pi *openflow.PacketIn) {
	s.logger.Printf("steering: unexpected packet-in from dpid %d port %d (%d bytes)",
		pi.DatapathID, pi.InPort, len(pi.Data))
}

// HandleFlowRemoved implements openflow.SwitchHandler.
func (s *Steering) HandleFlowRemoved(fr *openflow.FlowRemoved) {}

// hostPorts lists switch ports that belong to neither devices nor
// µmbox legs.
func hostPorts(ports []uint16, devices []SteeredDevice) []uint16 {
	special := map[uint16]bool{}
	for _, d := range devices {
		special[d.DevicePort] = true
		special[d.MboxNorthPort] = true
		special[d.MboxSouthPort] = true
	}
	var hosts []uint16
	for _, p := range ports {
		if !special[p] {
			hosts = append(hosts, p)
		}
	}
	return hosts
}

// send stamps a FLOW_MOD with the context's trace ID, journals it,
// and pushes it to one switch.
func (s *Steering) send(ctx context.Context, dpid uint64, fm *openflow.FlowMod, what string) {
	fm.TraceID = journal.TraceID(ctx)
	mFlowMods.Inc()
	journal.Record(ctx, journal.TypeFlowMod, journal.Info, what,
		fmt.Sprintf("%s prio %d cookie %#x to dpid %d", fm.Command, fm.Priority, fm.Cookie, dpid))
	if err := s.endpoint.SendFlowMod(dpid, fm); err != nil {
		s.logger.Printf("steering: flow-mod to %d: %v", dpid, err)
	}
}

// program pushes the full steering rule set to one switch, fencing
// with a barrier so enforcement is in place before program returns.
// With no registered devices it is a no-op: a connected switch keeps
// its existing table until steering actually has something to steer.
func (s *Steering) program(ctx context.Context, dpid uint64) {
	s.mu.Lock()
	ports, connected := s.switches[dpid]
	devices := append([]SteeredDevice(nil), s.devices...)
	quarantined := make(map[string]packet.MACAddress, len(s.isolated))
	for name, mac := range s.isolated {
		quarantined[name] = mac
	}
	ruleSets := make(map[string][]*openflow.FlowMod, len(s.ruleSets))
	for name, mods := range s.ruleSets {
		ruleSets[name] = mods
	}
	s.mu.Unlock()
	if !connected || (len(devices) == 0 && len(quarantined) == 0 && len(ruleSets) == 0) {
		return
	}
	ctx = journal.WithTrace(ctx)
	defer telemetry.Time(mProgramSeconds)()

	// With steered devices the table is rebuilt from scratch; with only
	// quarantines the existing table is kept and the drop rules are
	// (re-)inserted on top (Insert replaces identical match+priority
	// entries, so this is idempotent).
	if len(devices) > 0 {
		s.programSteering(ctx, dpid, ports, devices)
	}

	// Standing rule sets (profile enforcement) survive the wipe the
	// same way quarantines do: re-emitted on every reprogram.
	for name, mods := range ruleSets {
		s.sendRuleSet(ctx, dpid, name, mods)
	}

	// Quarantine rules last, so a table wipe above can never leave a
	// window where they are re-issued "eventually": every reprogram and
	// every switch (re)connect restores the full quarantine set.
	for name, mac := range quarantined {
		s.sendQuarantine(ctx, dpid, name, mac)
	}

	if err := s.endpoint.Barrier(dpid, 2*time.Second); err != nil {
		s.logger.Printf("steering: barrier to %d: %v", dpid, err)
	}
}

// programSteering pushes the tunnel rule set for the registered
// devices to one switch, starting from a clean table.
func (s *Steering) programSteering(ctx context.Context, dpid uint64, ports []uint16, devices []SteeredDevice) {
	hosts := hostPorts(ports, devices)

	// Start from a clean table. Quarantine drop rules are wiped too,
	// but program() unconditionally re-emits them right after this
	// returns, before the fencing barrier.
	s.send(ctx, dpid, &openflow.FlowMod{Command: openflow.FlowDelete, Match: openflow.MatchAll()}, "")

	outputsTo := func(ports []uint16) []openflow.Action {
		acts := make([]openflow.Action, len(ports))
		for i, p := range ports {
			acts[i] = openflow.Output(p)
		}
		return acts
	}

	for _, d := range devices {
		// Processed traffic exiting the µmbox toward the device.
		s.send(ctx, dpid, &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    openflow.MatchAll().WithInPort(d.MboxSouthPort),
			Priority: 220,
			Actions:  []openflow.Action{openflow.Output(d.DevicePort)},
			Cookie:   dpid,
		}, d.Name)
		// Device-origin traffic enters the µmbox south leg.
		s.send(ctx, dpid, &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    openflow.MatchAll().WithInPort(d.DevicePort),
			Priority: 220,
			Actions:  []openflow.Action{openflow.Output(d.MboxSouthPort)},
			Cookie:   dpid,
		}, d.Name)
		// Processed device-origin traffic exits toward the hosts and
		// toward other protected devices' tunnels (device-to-device
		// traffic crosses both µmboxes).
		northActions := outputsTo(hosts)
		for _, other := range devices {
			if other.Name != d.Name {
				northActions = append(northActions, openflow.Output(other.MboxNorthPort))
			}
		}
		s.send(ctx, dpid, &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    openflow.MatchAll().WithInPort(d.MboxNorthPort),
			Priority: 200,
			Actions:  northActions,
			Cookie:   dpid,
		}, d.Name)
		// Device-bound traffic detours into the µmbox north leg.
		s.send(ctx, dpid, &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    openflow.MatchAll().WithEthDst(d.MAC),
			Priority: 150,
			Actions:  []openflow.Action{openflow.Output(d.MboxNorthPort)},
			Cookie:   dpid,
		}, d.Name)
	}

	// Default: host-to-host plus broadcast reach into every µmbox
	// north leg (so ARP finds the devices through their tunnels).
	var defaults []openflow.Action
	defaults = append(defaults, outputsTo(hosts)...)
	for _, d := range devices {
		defaults = append(defaults, openflow.Output(d.MboxNorthPort))
	}
	s.send(ctx, dpid, &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    openflow.MatchAll(),
		Priority: 50,
		Actions:  defaults,
		Cookie:   dpid,
	}, "")
}

// quarantineCookie derives a stable per-device cookie from its MAC so
// Release can delete exactly the rules Isolate installed. The high
// byte tags the rule class so steering cookies (= dpid) never collide.
func quarantineCookie(mac packet.MACAddress) uint64 {
	var c uint64 = 0x51 // 'Q'
	for _, b := range mac {
		c = c<<8 | uint64(b)
	}
	return c
}

// sendQuarantine emits the two priority-400 drop rules (eth_src and
// eth_dst on the device MAC, empty action list = drop) to one switch.
func (s *Steering) sendQuarantine(ctx context.Context, dpid uint64, name string, mac packet.MACAddress) {
	cookie := quarantineCookie(mac)
	s.send(ctx, dpid, &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    openflow.MatchAll().WithEthSrc(mac),
		Priority: 400,
		Cookie:   cookie,
	}, name)
	s.send(ctx, dpid, &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    openflow.MatchAll().WithEthDst(mac),
		Priority: 400,
		Cookie:   cookie,
	}, name)
}

// Isolate puts one device MAC under quarantine: priority-400 drop
// rules on every connected switch, fenced by a barrier. The quarantine
// persists in the steering state, so table reprograms (AddDevice) and
// switches that connect later re-receive the rules until Release. The
// rules carry the context's trace ID, so the forensic journal links
// them to the anomaly that triggered the posture change.
func (s *Steering) Isolate(ctx context.Context, name string, mac packet.MACAddress) {
	ctx = journal.WithTrace(ctx)
	s.mu.Lock()
	s.isolated[name] = mac
	s.mu.Unlock()
	for _, dpid := range s.dpids() {
		s.sendQuarantine(ctx, dpid, name, mac)
		if err := s.endpoint.Barrier(dpid, 2*time.Second); err != nil {
			s.logger.Printf("steering: isolate barrier to %d: %v", dpid, err)
		}
	}
}

// Release lifts the quarantine: the device leaves the persisted set
// and the rules Isolate installed are removed from every connected
// switch (delete-by-cookie), barrier-fenced.
func (s *Steering) Release(ctx context.Context, name string, mac packet.MACAddress) {
	ctx = journal.WithTrace(ctx)
	s.mu.Lock()
	delete(s.isolated, name)
	s.mu.Unlock()
	cookie := quarantineCookie(mac)
	for _, dpid := range s.dpids() {
		s.send(ctx, dpid, &openflow.FlowMod{
			Command: openflow.FlowDeleteByCookie,
			Match:   openflow.MatchAll(),
			Cookie:  cookie,
		}, name)
		if err := s.endpoint.Barrier(dpid, 2*time.Second); err != nil {
			s.logger.Printf("steering: release barrier to %d: %v", dpid, err)
		}
	}
}

// sendRuleSet emits one named rule set to one switch. Each FLOW_MOD
// is sent as a copy so the persisted set is never mutated (send
// stamps the trace ID on the message it pushes).
func (s *Steering) sendRuleSet(ctx context.Context, dpid uint64, name string, mods []*openflow.FlowMod) {
	for _, fm := range mods {
		cp := *fm
		s.send(ctx, dpid, &cp, name)
	}
}

// ruleSetCookies collects the distinct cookies a rule set uses.
func ruleSetCookies(mods []*openflow.FlowMod) []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, fm := range mods {
		if !seen[fm.Cookie] {
			seen[fm.Cookie] = true
			out = append(out, fm.Cookie)
		}
	}
	return out
}

// InstallRuleSet installs (or replaces) a named standing rule set on
// every connected switch, barrier-fenced, and persists it so table
// reprograms and later switch connects re-receive it — the same
// durability contract as quarantines. Replacement deletes the prior
// set's cookies first, so stale rules cannot linger when a set
// shrinks. Rule cookies should be stable per set (see profile.Cookie)
// and must not collide with quarantine ('Q'-tagged) or steering
// (= dpid) cookies.
func (s *Steering) InstallRuleSet(ctx context.Context, name string, mods []*openflow.FlowMod) {
	ctx = journal.WithTrace(ctx)
	kept := make([]*openflow.FlowMod, len(mods))
	for i, fm := range mods {
		cp := *fm
		kept[i] = &cp
	}
	s.mu.Lock()
	prior := s.ruleSets[name]
	s.ruleSets[name] = kept
	s.mu.Unlock()
	stale := ruleSetCookies(prior)
	for _, dpid := range s.dpids() {
		for _, cookie := range stale {
			s.send(ctx, dpid, &openflow.FlowMod{
				Command: openflow.FlowDeleteByCookie,
				Match:   openflow.MatchAll(),
				Cookie:  cookie,
			}, name)
		}
		s.sendRuleSet(ctx, dpid, name, kept)
		if err := s.endpoint.Barrier(dpid, 2*time.Second); err != nil {
			s.logger.Printf("steering: rule-set barrier to %d: %v", dpid, err)
		}
	}
}

// RemoveRuleSet drops a named rule set from the persisted state and
// deletes its rules (by cookie) from every connected switch.
func (s *Steering) RemoveRuleSet(ctx context.Context, name string) {
	ctx = journal.WithTrace(ctx)
	s.mu.Lock()
	mods, ok := s.ruleSets[name]
	delete(s.ruleSets, name)
	s.mu.Unlock()
	if !ok {
		return
	}
	for _, dpid := range s.dpids() {
		for _, cookie := range ruleSetCookies(mods) {
			s.send(ctx, dpid, &openflow.FlowMod{
				Command: openflow.FlowDeleteByCookie,
				Match:   openflow.MatchAll(),
				Cookie:  cookie,
			}, name)
		}
		if err := s.endpoint.Barrier(dpid, 2*time.Second); err != nil {
			s.logger.Printf("steering: rule-set barrier to %d: %v", dpid, err)
		}
	}
}

// RuleSetNames lists installed rule sets.
func (s *Steering) RuleSetNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.ruleSets))
	for name := range s.ruleSets {
		out = append(out, name)
	}
	return out
}

// Isolated reports whether the named device is currently quarantined.
func (s *Steering) Isolated(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.isolated[name]
	return ok
}

// IsolatedDevices snapshots the full quarantine set (device → MAC).
// Because program() re-emits these rules on every table rebuild and
// switch (re)connect, this set mirrors exactly the drop rules resident
// in connected switches' flow tables — it is the controller-side
// flow-table readback the failover recovery path rebuilds quarantine
// state from.
func (s *Steering) IsolatedDevices() map[string]packet.MACAddress {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]packet.MACAddress, len(s.isolated))
	for name, mac := range s.isolated {
		out[name] = mac
	}
	return out
}

// dpids snapshots the connected switch IDs.
func (s *Steering) dpids() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.switches))
	for dpid := range s.switches {
		out = append(out, dpid)
	}
	return out
}

// String summarizes the steering state.
func (s *Steering) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("steering: %d devices, %d switches, %d quarantined",
		len(s.devices), len(s.switches), len(s.isolated))
}

// Switches reports how many southbound switch sessions are currently
// connected — the health plane's "can a quarantine FLOW_MOD reach the
// network at all" signal.
func (s *Steering) Switches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.switches)
}

// Quarantined reports how many devices are currently isolated.
func (s *Steering) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.isolated)
}
