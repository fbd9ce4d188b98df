// Package core is IoTSec itself: the facade that assembles the
// substrates into the Figure 2 architecture. Every device attaches to
// the network through its own dynamically launched µmbox (the tunnel
// of Figure 2); device events, IDS alerts, anomaly detections and
// environment readings feed the controller's global view; the policy
// FSM maps the resulting system state to per-device postures; and the
// orchestrator translates posture deltas into live µmbox pipeline
// reconfigurations.
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/envsim"
	"iotsec/internal/forensics"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/mbox"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
)

// Options configure a Platform.
type Options struct {
	// Policy is the FSM; nil installs an empty (allow-all) policy
	// over an empty domain.
	Policy *policy.FSM
	// Discretizer maps continuous environment variables into the
	// levels the policy conditions on; nil uses the standard bands.
	Discretizer *envsim.Discretizer
	// Environment is the physical world; nil builds StandardHome.
	Environment *envsim.Environment
	// Platform selects the µmbox boot model (default micro-VM).
	Platform mbox.PlatformKind
	// BootTimeScale compresses modeled boot latency in tests
	// (default 0.01).
	BootTimeScale float64
	// AdminIP is the management host allowed through DNS guards etc.
	AdminIP packet.IPv4Address
	// ChallengeSolution is the robot-check answer a human supplies.
	ChallengeSolution string
	// Capture attaches a fabric-wide recorder (needed by
	// DistillSignature).
	Capture bool
}

// Platform is a running IoTSec deployment.
type Platform struct {
	Network *netsim.Network
	Env     *envsim.Environment
	Switch  *netsim.Switch
	Manager *mbox.Manager
	Global  *controller.Global

	opts Options
	disc *envsim.Discretizer
	fsm  *policy.FSM

	mu      sync.Mutex
	devices map[string]*Managed
	// skuRules accumulates per-SKU signature rules (from the
	// crowdsourced repository or local additions); skuRuleTexts
	// remembers the normalized rule texts already installed so
	// replayed/backfilled community signatures install idempotently.
	skuRules     map[string][]*ids.Rule
	skuRuleTexts map[string]map[string]bool
	// profiles holds per-device anomaly profiles.
	profiles map[string]*ids.Profile

	// enforcement bookkeeping
	reconfigures uint64
	lastVersion  uint64

	nextSwitchPort uint16
	started        bool

	// steering, when attached via UseSteering, receives quarantine
	// FLOW_MODs whenever a posture isolates or releases a device.
	steering *controller.Steering

	// hierarchy + supervision (SuperviseControllers): when attached,
	// device events and scoped env readings route through the partition
	// tier instead of straight into the global view.
	hierarchy    *controller.Hierarchy
	partitioning *controller.Partitioning
	envLocality  map[string]int
	supervisor   *controller.Supervisor

	// failModeSnapshot remembers per-pipeline fail modes captured when
	// the SLO watchdog escalated, so de-escalation restores exactly
	// what the operator had configured (nil = not escalated).
	failModeSnapshot map[string]mbox.FailMode

	// profilePlane, when enabled, drives behavior-profile learning,
	// enforcement and rogue detection; hostMACs remembers hosts
	// attached before the plane existed (lockdown whitelist).
	profilePlane *ProfilePlane
	hostMACs     []packet.MACAddress
	// crowd is the sigrepo link, once connected (profile publishing).
	crowd *CrowdLink

	// forensicsCap, when enabled, pins incident chains out of the
	// journal ring into the durable store (EnableForensics).
	forensicsCap *forensics.Capturer

	recorder *netsim.Recorder
}

// Managed is one device under IoTSec protection.
type Managed struct {
	Device   *device.Device
	Instance *mbox.Instance
	// CurrentPosture is the last applied posture.
	CurrentPosture policy.Posture

	// isolated mirrors whether quarantine flow rules are installed.
	isolated bool
}

// New assembles a platform.
func New(opts Options) (*Platform, error) {
	if opts.Policy == nil {
		opts.Policy = policy.NewFSM(policy.NewDomain())
	}
	if opts.Discretizer == nil {
		opts.Discretizer = envsim.StandardDiscretizer()
	}
	if opts.Environment == nil {
		opts.Environment = envsim.StandardHome()
	}
	if opts.Platform == "" {
		opts.Platform = mbox.PlatformMicroVM
	}
	if opts.BootTimeScale == 0 {
		opts.BootTimeScale = 0.01
	}
	if opts.ChallengeSolution == "" {
		opts.ChallengeSolution = "7hills"
	}

	p := &Platform{
		Network:        netsim.NewNetwork(),
		Env:            opts.Environment,
		Switch:         netsim.NewSwitch("iotsec-uplink", 1),
		Manager:        mbox.NewManager(mbox.Server{Name: "onprem0", Slots: 256}, mbox.Server{Name: "onprem1", Slots: 256}),
		opts:           opts,
		disc:           opts.Discretizer,
		fsm:            opts.Policy,
		devices:        make(map[string]*Managed),
		skuRules:       make(map[string][]*ids.Rule),
		skuRuleTexts:   make(map[string]map[string]bool),
		profiles:       make(map[string]*ids.Profile),
		nextSwitchPort: 1,
	}
	p.Manager.TimeScale = opts.BootTimeScale
	p.Switch.SetMissBehavior(netsim.MissFlood)
	if opts.Capture {
		p.recorder = netsim.NewRecorder()
		p.Network.AddTap(p.recorder.Tap())
	}
	if err := p.Network.AddNode(p.Switch); err != nil {
		return nil, err
	}
	p.Global = controller.NewGlobal(opts.Policy, p.applyPosture)

	// Environment → view: discretized levels feed the global state.
	// Each tick is a fresh causal chain (a new trace ID), so any posture
	// change it provokes is traceable back to the reading.
	p.Env.AddObserver(func(s envsim.Snapshot, _ map[string]float64) {
		ctx := journal.WithTrace(context.Background())
		for _, v := range p.disc.Variables() {
			p.reportEnv(ctx, v, p.disc.Value(v, s.Get(v)))
		}
	})
	return p, nil
}

// attachToSwitch wires a host-side port to a fresh uplink switch port.
func (p *Platform) attachToSwitch(hostPort *netsim.Port) {
	p.mu.Lock()
	id := p.nextSwitchPort
	p.nextSwitchPort++
	p.mu.Unlock()
	sp := p.Switch.AttachPort(p.Network, id)
	p.Network.Connect(hostPort, sp, netsim.LinkOptions{})
}

// AttachHost connects an unmanaged host (app, hub, attacker) directly
// to the uplink switch.
func (p *Platform) AttachHost(st *netsim.Stack) {
	p.attachToSwitch(st.Attach(p.Network))
	p.mu.Lock()
	p.hostMACs = append(p.hostMACs, st.MAC())
	plane := p.profilePlane
	p.mu.Unlock()
	if plane != nil {
		plane.hostAttached(st.MAC())
	}
}

// AddDevice brings a device under management: it attaches through a
// freshly launched µmbox, binds to the environment, wires event
// emission into the view, and declares the device in the policy
// domain if absent.
func (p *Platform) AddDevice(d *device.Device) (*Managed, error) {
	devPort, err := d.Attach(p.Network)
	if err != nil {
		return nil, err
	}
	d.BindEnvironment(p.Env)
	d.SetEventSink(func(e device.Event) { p.ReportDeviceEvent(e) })

	inst, err := p.Manager.Launch(context.Background(), "mb-"+d.Name, p.opts.Platform, mbox.NewPipeline(&mbox.Logger{}))
	if err != nil {
		return nil, fmt.Errorf("core: launching µmbox for %s: %w", d.Name, err)
	}
	inst.Mbox.SetProtectedIP(d.IP())
	south, north := inst.Mbox.AttachInline(p.Network)
	p.Network.Connect(devPort, south, netsim.LinkOptions{})
	p.attachToSwitch(north)

	m := &Managed{Device: d, Instance: inst}
	p.mu.Lock()
	p.devices[d.Name] = m
	p.profiles[d.Name] = ids.NewProfile(d.Name)
	started := p.started
	plane := p.profilePlane
	p.mu.Unlock()
	mDevicesAdded.Inc()
	if plane != nil {
		plane.deviceAdded(m)
	}

	// Hot-plugged devices get their posture immediately; devices
	// added before Start are postured there.
	if started {
		state := p.Global.View.State()
		if posture, ok := p.fsm.Lookup(state)[d.Name]; ok {
			p.applyPosture(context.Background(), d.Name, posture, p.Global.View.Version())
		}
	}
	return m, nil
}

// Device looks up a managed device.
func (p *Platform) Device(name string) (*Managed, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.devices[name]
	return m, ok
}

// Start begins packet delivery and applies the initial postures.
func (p *Platform) Start() {
	p.Network.Start()
	p.mu.Lock()
	started := p.started
	p.started = true
	p.mu.Unlock()
	if started {
		return
	}
	// Apply the policy's posture for the initial (all-normal) state.
	state := p.Global.View.State()
	for dev, posture := range p.fsm.Lookup(state) {
		p.applyPosture(context.Background(), dev, posture, 0)
	}
}

// Stop halts the deployment.
func (p *Platform) Stop() {
	p.mu.Lock()
	devices := make([]*Managed, 0, len(p.devices))
	for _, m := range p.devices {
		devices = append(devices, m)
	}
	p.mu.Unlock()
	for _, m := range devices {
		m.Device.Stop()
	}
	p.Network.Stop()
}

// AddSignatureRule installs a detection rule for a SKU (what a
// sigrepo subscription delivers) and re-applies postures of affected
// devices so running IDS elements pick it up. Installing a rule that
// is already present for the SKU is a no-op (idempotent), so cursor
// replays and reconnect backfills from the repository never duplicate
// IDS rules or trigger spurious reconfigurations.
func (p *Platform) AddSignatureRule(sku, ruleText string) error {
	r, err := ids.ParseRule(ruleText)
	if err != nil {
		return err
	}
	if r == nil {
		return fmt.Errorf("core: empty rule for %s", sku)
	}
	norm := strings.TrimSpace(ruleText)
	p.mu.Lock()
	if p.skuRuleTexts[sku][norm] {
		p.mu.Unlock()
		mSigRulesDup.Inc()
		return nil
	}
	if p.skuRuleTexts[sku] == nil {
		p.skuRuleTexts[sku] = make(map[string]bool)
	}
	p.skuRuleTexts[sku][norm] = true
	mSigRulesAdded.Inc()
	p.skuRules[sku] = append(p.skuRules[sku], r)
	affected := make([]*Managed, 0)
	for _, m := range p.devices {
		if m.Device.Profile.SKU == sku {
			affected = append(affected, m)
		}
	}
	p.mu.Unlock()
	for _, m := range affected {
		p.applyPosture(context.Background(), m.Device.Name, m.CurrentPosture, p.Global.View.Version())
	}
	return nil
}

// SignatureRules reports the normalized rule texts installed for a
// SKU, sorted (diagnostics and convergence tests).
func (p *Platform) SignatureRules(sku string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.skuRuleTexts[sku]))
	for text := range p.skuRuleTexts[sku] {
		out = append(out, text)
	}
	sort.Strings(out)
	return out
}

// applyPosture is the PostureSink: translate the posture into an
// element chain and live-reconfigure the device's µmbox. It closes
// Figure 2's loop, so it also emits the event→enforcement latency
// (measured from the view commit that triggered it) and journals the
// posture under the trace of whatever event chain provoked it, so the
// journal timeline for the trace reads anomaly → posture → FLOW_MOD →
// mbox-reconfig in sequence order.
func (p *Platform) applyPosture(ctx context.Context, deviceName string, posture policy.Posture, version uint64) {
	p.mu.Lock()
	m, ok := p.devices[deviceName]
	if !ok {
		p.mu.Unlock()
		return // policy mentions a device not (yet) deployed
	}
	m.CurrentPosture = posture
	wasIsolated := m.isolated
	steering := p.steering
	// m.isolated mirrors the quarantine rules actually on the wire, so
	// it only advances when a steering app is attached to receive them.
	// Otherwise a posture that isolates before UseSteering would mark
	// the device isolated without any rules existing, and the real
	// enforcement would never be emitted.
	if steering != nil {
		m.isolated = posture.Isolate
	}
	p.reconfigures++
	p.lastVersion = version
	p.mu.Unlock()

	ctx = journal.WithTrace(ctx)
	sev := journal.Info
	if posture.Isolate {
		sev = journal.Warn
	}
	journal.Record(ctx, journal.TypePosture, sev, deviceName,
		fmt.Sprintf("v%d %s", version, posture))
	// Network-level enforcement first (quarantine rules reach the
	// switches), then the µmbox pipeline swap.
	if steering != nil && posture.Isolate != wasIsolated {
		if posture.Isolate {
			steering.Isolate(ctx, deviceName, m.Device.MAC())
		} else {
			steering.Release(ctx, deviceName, m.Device.MAC())
		}
	}
	elements := p.buildPipeline(m, posture)
	_ = p.Manager.Reconfigure(ctx, "mb-"+deviceName, elements...)
	mPostureApplies.Inc()
	if version > 0 {
		if committed, ok := p.Global.CommitTime(version); ok {
			mEnforceSeconds.Observe(time.Since(committed).Seconds())
		}
	}
}

// UseSteering attaches an SDN steering application: posture changes
// that isolate (or release) a device are additionally enforced as
// quarantine FLOW_MODs on every switch the steering app controls,
// carrying the causal trace ID across the southbound wire. Devices
// whose current posture already isolates are quarantined immediately,
// so attaching steering after an isolation decision still enforces it.
func (p *Platform) UseSteering(s *controller.Steering) {
	type pending struct {
		name string
		mac  packet.MACAddress
	}
	var toIsolate []pending
	p.mu.Lock()
	p.steering = s
	plane := p.profilePlane
	if s != nil {
		for name, m := range p.devices {
			if m.CurrentPosture.Isolate && !m.isolated {
				m.isolated = true
				toIsolate = append(toIsolate, pending{name, m.Device.MAC()})
			}
		}
	}
	p.mu.Unlock()
	for _, q := range toIsolate {
		ctx := journal.WithTrace(context.Background())
		journal.Record(ctx, journal.TypePosture, journal.Warn, q.name,
			"steering attached: re-applying standing quarantine")
		s.Isolate(ctx, q.name, q.mac)
	}
	// Parked profile enforcement gets its rules onto the wire now.
	if plane != nil && s != nil {
		plane.steeringAttached()
	}
}

// ReportDeviceEvent feeds one device event into the view as a fresh
// causal chain (new trace ID + journal record). Device event sinks
// call this; tests can inject synthetic events through it.
func (p *Platform) ReportDeviceEvent(e device.Event) {
	ctx := journal.WithTrace(context.Background())
	journal.Record(ctx, journal.TypeDeviceEvent, journal.Debug, e.Device,
		fmt.Sprintf("%s: %s", e.Kind, e.Detail))
	p.mu.Lock()
	h, part := p.hierarchy, p.partitioning
	p.mu.Unlock()
	// With a supervised partition tier attached, events from partitioned
	// devices route through it (local absorb or escalate); everything
	// else keeps the Global-only path.
	if h != nil && part.GroupOf(e.Device) >= 0 {
		h.HandleDeviceEvent(ctx, e)
	} else {
		p.Global.View.HandleDeviceEvent(ctx, e)
	}
}

// reportEnv routes one discretized environment level: through the
// partition tier when the variable has declared locality, otherwise
// straight into the global view (pre-hierarchy semantics).
func (p *Platform) reportEnv(ctx context.Context, envVar, level string) {
	p.mu.Lock()
	h := p.hierarchy
	group, scoped := -1, false
	if h != nil && p.envLocality != nil {
		if g, ok := p.envLocality[envVar]; ok {
			group, scoped = g, true
		}
	}
	p.mu.Unlock()
	if h != nil && scoped {
		h.HandleEnv(ctx, envVar, level, group, "environment")
		return
	}
	p.Global.View.SetEnv(ctx, envVar, level, "environment")
}

// ReportAnomaly feeds one behavioral anomaly into the view as a fresh
// causal chain. µmbox anomaly elements call this; tests inject
// synthetic anomalies through it and then follow the resulting trace
// ID through the journal.
func (p *Platform) ReportAnomaly(a ids.Anomaly) {
	ctx := journal.WithTrace(context.Background())
	journal.Record(ctx, journal.TypeAnomaly, journal.Warn, a.Device,
		fmt.Sprintf("%s: %s (score %.2f)", a.Kind, a.Detail, a.Score))
	p.Global.View.HandleAnomaly(ctx, a)
}

// ReportAlert feeds one IDS alert into the view as a fresh causal
// chain.
func (p *Platform) ReportAlert(deviceName string, a ids.Alert) {
	ctx := journal.WithTrace(context.Background())
	journal.Record(ctx, journal.TypeAlert, journal.Warn, deviceName,
		fmt.Sprintf("sid %d: %s", a.SID, a.Msg))
	p.Global.View.HandleAlert(ctx, deviceName, a)
}

// buildPipeline translates a posture into concrete µmbox elements.
func (p *Platform) buildPipeline(m *Managed, posture policy.Posture) []mbox.Element {
	dev := m.Device
	var out []mbox.Element

	if posture.Isolate {
		return []mbox.Element{mbox.NewHeaderFilter(mbox.Deny)}
	}
	if len(posture.BlockCommands) > 0 {
		blocker := mbox.NewContextGate(func(string) bool { return false }, posture.BlockCommands...)
		out = append(out, blocker)
	}
	if posture.RateLimit > 0 {
		out = append(out, mbox.NewRateLimiter(posture.RateLimit, int(posture.RateLimit)))
	}
	for _, spec := range posture.Modules {
		if e := p.buildElement(dev, spec); e != nil {
			out = append(out, e)
		}
	}
	// Always keep observability.
	out = append(out, &mbox.Logger{})
	return out
}

// buildElement instantiates one ModuleSpec.
func (p *Platform) buildElement(dev *device.Device, spec policy.ModuleSpec) mbox.Element {
	switch spec.Kind {
	case "logger":
		return &mbox.Logger{}
	case "password-proxy":
		factoryUser, factoryPass := splitCreds(dev.Profile.VulnDetail(device.VulnDefaultCredentials))
		user := spec.Config["user"]
		pass := spec.Config["pass"]
		return mbox.NewPasswordProxy(user, pass, factoryUser, factoryPass)
	case "ids":
		p.mu.Lock()
		rules := append([]*ids.Rule(nil), p.skuRules[dev.Profile.SKU]...)
		p.mu.Unlock()
		name := dev.Name
		return &mbox.IDSElement{
			Engine:  ids.NewEngine(rules),
			OnAlert: func(a ids.Alert) { p.ReportAlert(name, a) },
		}
	case "anomaly":
		p.mu.Lock()
		profile := p.profiles[dev.Name]
		p.mu.Unlock()
		return &mbox.AnomalyElement{
			Profile:   profile,
			OnAnomaly: func(a ids.Anomaly) { p.ReportAnomaly(a) },
		}
	case "rate-limiter":
		rate, _ := strconv.ParseFloat(spec.Config["rate"], 64)
		if rate <= 0 {
			rate = 50
		}
		return mbox.NewRateLimiter(rate, int(rate))
	case "dns-guard":
		maxResp, _ := strconv.Atoi(spec.Config["max_response"])
		if maxResp == 0 {
			maxResp = 512
		}
		allowed := map[packet.IPv4Address]bool{}
		if !p.opts.AdminIP.IsZero() {
			allowed[p.opts.AdminIP] = true
		}
		return &mbox.DNSGuard{AllowedClients: allowed, MaxResponseBytes: maxResp}
	case "stateful-fw":
		return mbox.NewStatefulFirewall(device.MgmtPort)
	case "robot-check":
		return mbox.NewChallenge(p.opts.ChallengeSolution)
	case "context-gate":
		guarded := spec.Config["guard"]
		requireVar := spec.Config["require_env"]
		requireVal := spec.Config["require_value"]
		view := p.Global.View
		gate := mbox.NewContextGate(func(string) bool {
			return view.Env(requireVar) == requireVal
		}, guarded)
		return gate
	default:
		return &mbox.Logger{}
	}
}

// splitCreds parses "user:pass".
func splitCreds(s string) (user, pass string) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return s[:i], s[i+1:]
		}
	}
	return s, ""
}

// Recorder exposes the capture (nil unless Options.Capture).
func (p *Platform) Recorder() *netsim.Recorder { return p.recorder }

// Metrics reports enforcement activity.
func (p *Platform) Metrics() (reconfigures uint64, lastVersion uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reconfigures, p.lastVersion
}

// RunEnvironment advances the physical world n ticks (convenience for
// scenarios and experiments).
func (p *Platform) RunEnvironment(n int) { p.Env.Run(n) }

// WaitForContext polls until the view reports the device in the given
// context or the timeout expires.
func (p *Platform) WaitForContext(deviceName string, ctx policy.SecurityContext, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.Global.View.DeviceContext(deviceName) == ctx {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}
