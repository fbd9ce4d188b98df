package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/core"
	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/mbox"
	"iotsec/internal/netsim"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/slo"
	"iotsec/internal/telemetry"
)

// home-mgmt: protected Table 1 devices under their standard postures,
// two management clients in closed loops, one request in 8 an attack
// with factory credentials that must be refused. The control plane is
// idle; the per-frame path does the work.

const (
	callTimeout = 2 * time.Second
	// crowdRules is the crowd-sourced IDS rule count per IDS-postured SKU.
	crowdRules = 200
	// attackEvery: one request in attackEvery uses factory credentials.
	attackEvery = 8
	// maxCapture bounds the frames a traced run captures per deployment.
	maxCapture = 8000
)

var homeAdminIP = packet.MustParseIPv4("10.0.0.100")

// homeSKU is one Table 1 device class with the request its owner sends.
type homeSKU struct {
	kind  string
	build func(name string, ip packet.IPv4Address, key string) *device.Device
	// cmd is the benign request; authed ones carry the proxy's admin
	// credentials.
	cmd    string
	authed bool
	// want prefixes the reply data of a correct answer.
	want string
	// factory returns the factory credential an attacker tries (nil:
	// the SKU has none and is not attacked).
	factory func(key string) string
}

var table1SKUs = []homeSKU{
	{kind: "cam", cmd: "SNAPSHOT", authed: true, want: "jpeg:",
		build:   func(n string, ip packet.IPv4Address, _ string) *device.Device { return device.NewCamera(n, ip).Device },
		factory: func(string) string { return device.CameraProfile().VulnDetail(device.VulnDefaultCredentials) }},
	{kind: "settop", cmd: "INFO", want: "model=tv8",
		build: func(n string, ip packet.IPv4Address, _ string) *device.Device {
			return device.NewSetTopBox(n, ip).Device
		}},
	{kind: "fridge", cmd: "STATUS", want: "door=closed",
		build: func(n string, ip packet.IPv4Address, _ string) *device.Device {
			return device.NewSmartFridge(n, ip).Device
		}},
	{kind: "cctv", cmd: "FIRMWARE", authed: true, want: "blob:v3.0",
		build: func(n string, ip packet.IPv4Address, key string) *device.Device {
			return device.NewCCTV(n, ip, key).Device
		},
		factory: func(key string) string { return "fwadmin:" + key }},
	{kind: "light", cmd: "STATUS", want: "phase=red",
		build: func(n string, ip packet.IPv4Address, _ string) *device.Device {
			return device.NewTrafficLight(n, ip).Device
		}},
	{kind: "wemo", cmd: "USAGE", authed: true, want: "watts=",
		build: func(n string, ip packet.IPv4Address, _ string) *device.Device {
			return device.NewSmartPlug(n, ip, device.Appliance{Name: "lamp", PowerVar: n + "_lamp_power", Watts: 60}).Device
		},
		factory: func(string) string { return device.SmartPlugProfile().VulnDetail(device.VulnDefaultCredentials) }},
}

type homeDevice struct {
	name    string
	sku     *homeSKU
	dev     *device.Device
	managed *core.Managed
	factory string
}

type flowKey struct {
	ip   packet.IPv4Address
	port uint16
}

type capturedFrame struct {
	frame  []byte
	inPort uint16
}

type homeDeployment struct {
	tr      *tracer
	seed    int64
	p       *core.Platform
	sb      *core.Southbound
	tracker *slo.Tracker
	clients []*netsim.Stack
	devs    []*homeDevice
	byIP    map[packet.IPv4Address]*homeDevice
	attack  []*homeDevice
	rules   map[string][]*ids.Rule

	// Traced runs only: frames entering the uplink switch while a
	// traced window is open, and the operation owning each client flow.
	rec      atomic.Pointer[recorder]
	capMu    sync.Mutex
	captured []capturedFrame
	flowOps  map[flowKey]uint64
	alerts   int
	replayed bool
}

func setupHome(cfg config, tr *tracer) (deployment, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	n := cfg.sizes.homeDevices
	cctvKey := fmt.Sprintf("%016x", rng.Uint64())

	// SKU assignment: a seeded shuffle of an even mix.
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = i % len(table1SKUs)
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	d := &homeDeployment{tr: tr, seed: cfg.seed, byIP: map[packet.IPv4Address]*homeDevice{},
		rules: map[string][]*ids.Rule{}, flowOps: map[flowKey]uint64{}}
	dom := policy.NewDomain()
	fsm := policy.NewFSM(dom)
	for i := 0; i < n; i++ {
		sku := &table1SKUs[kinds[i]]
		name := fmt.Sprintf("h%02d-%s", i, sku.kind)
		ip := packet.IPv4Address{10, 0, 1, byte(10 + i)}
		dev := sku.build(name, ip, cctvKey)
		hd := &homeDevice{name: name, sku: sku, dev: dev}
		if sku.factory != nil {
			hd.factory = sku.factory(cctvKey)
			d.attack = append(d.attack, hd)
		}
		d.devs = append(d.devs, hd)
		d.byIP[ip] = hd
		dom.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious, policy.ContextCompromised)
		fsm.AddRule(policy.Rule{Name: "standard-" + name, Device: name, Posture: standardPosture(dev.Profile), Priority: 1})
	}

	p, err := core.New(core.Options{Policy: fsm, AdminIP: homeAdminIP})
	if err != nil {
		return nil, err
	}
	d.p = p
	// Crowd rules go in before the devices, so each IDS pipeline is
	// built once, at Start.
	for _, sku := range idsSKUs(d.devs) {
		for _, text := range crowdRuleTexts(rng, crowdRules) {
			if err := p.AddSignatureRule(sku, text); err != nil {
				return nil, fmt.Errorf("crowd rule: %w", err)
			}
			r, _ := ids.ParseRule(text)
			d.rules[sku] = append(d.rules[sku], r)
		}
	}
	for _, hd := range d.devs {
		if hd.managed, err = p.AddDevice(hd.dev); err != nil {
			d.close()
			return nil, err
		}
	}
	for i := 0; i < 2; i++ {
		ip := packet.IPv4Address{10, 0, 0, byte(100 + i)}
		st := netsim.NewStack(fmt.Sprintf("mgmt-client-%d", i), device.MACFor(ip), ip)
		p.AttachHost(st)
		d.clients = append(d.clients, st)
	}
	if cfg.trace {
		sw := netsim.Node(p.Switch)
		p.Network.AddTap(func(_, dst *netsim.Port, frame netsim.Frame) {
			if rec := d.rec.Load(); rec == nil || !rec.tracing.Load() || dst.Owner() != sw {
				return
			}
			d.capMu.Lock()
			if len(d.captured) < maxCapture {
				d.captured = append(d.captured, capturedFrame{frame: append([]byte(nil), frame...), inPort: dst.ID})
			}
			d.capMu.Unlock()
		})
	}
	// Wired like iotsecd: MTTR tracker on the journal, southbound attached.
	d.tracker = slo.NewTracker(journal.Default, slo.Options{})
	if d.sb, err = p.AttachSouthbound(core.SouthboundOptions{}); err != nil {
		d.close()
		return nil, err
	}
	if !d.sb.Steering.WaitForSwitch(5 * time.Second) {
		d.close()
		return nil, errors.New("uplink switch never connected to the southbound")
	}
	p.Start()
	// Warm up: every client reaches every device once (ARP, first flows).
	for _, st := range d.clients {
		for _, hd := range d.devs {
			if err := d.checkBenign(hd, st, 0); err != nil {
				d.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return d, nil
}

// idsSKUs lists the SKUs whose standard posture runs an IDS.
func idsSKUs(devs []*homeDevice) []string {
	seen := map[string]bool{}
	var out []string
	for _, hd := range devs {
		sku := hd.dev.Profile.SKU
		if hd.dev.Profile.HasVuln(device.VulnBackdoor) && !seen[sku] {
			seen[sku] = true
			out = append(out, sku)
		}
	}
	return out
}

// crowdRuleTexts generates n community signatures with random content
// tokens benign management traffic never carries.
func crowdRuleTexts(rng *rand.Rand, n int) []string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	out := make([]string, 0, n)
	out = append(out, fmt.Sprintf(`block tcp any any -> any 80 (msg:"wemo backdoor token"; content:"%s"; sid:9001;)`, device.PlugBackdoorToken))
	for i := 1; i < n; i++ {
		tok := make([]byte, 14)
		for j := range tok {
			tok[j] = letters[rng.Intn(len(letters))]
		}
		out = append(out, fmt.Sprintf(`alert tcp any any -> any 80 (msg:"crowd sig %d"; content:"%s"; sid:%d;)`, i, tok, 20000+i))
	}
	return out
}

func (d *homeDeployment) drive(stop <-chan struct{}, rec *recorder) {
	d.rec.Store(rec)
	var wg sync.WaitGroup
	for i, st := range d.clients {
		wg.Add(1)
		go func(client int, st *netsim.Stack) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.seed*7919 + int64(client)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				attack := len(d.attack) > 0 && rng.Intn(attackEvery) == 0
				start := rec.now()
				traced := rec.tracing.Load()
				var op uint64
				var spanStart int64
				if traced {
					op, spanStart = d.tr.id(), d.tr.now()
				}
				var err error
				var kind uint8
				if attack {
					kind = kindAttack
					err = d.checkAttack(d.attack[rng.Intn(len(d.attack))], st, op)
				} else {
					err = d.checkBenign(d.devs[rng.Intn(len(d.devs))], st, op)
				}
				end := rec.now()
				if op != 0 {
					d.tr.add(span{ID: op, Op: op, Name: "home.request", Start: spanStart, End: d.tr.now()})
				}
				if err != nil {
					rec.fail("%v", err)
				}
				rec.log(client, start, end, kind, err != nil)
			}
		}(i, st)
	}
	wg.Wait()
}

// checkBenign sends the owner's request and fails unless it is
// answered OK with the SKU's data.
func (d *homeDeployment) checkBenign(hd *homeDevice, st *netsim.Stack, op uint64) error {
	req := device.Request{Cmd: hd.sku.cmd}
	if hd.sku.authed {
		req.User, req.Pass = adminUser, adminPass
	}
	resp, err := d.call(st, hd.dev.IP(), req, op)
	switch {
	case err != nil:
		return fmt.Errorf("%s %s: %w", hd.name, req.Cmd, err)
	case !resp.OK:
		return fmt.Errorf("%s %s refused: %s", hd.name, req.Cmd, resp.Data)
	case !strings.HasPrefix(resp.Data, hd.sku.want):
		return fmt.Errorf("%s %s: reply %q lacks %q", hd.name, req.Cmd, resp.Data, hd.sku.want)
	}
	return nil
}

// checkAttack sends the request with factory credentials and fails if
// it is answered OK (a leak). A reset or an error reply is a refusal.
func (d *homeDeployment) checkAttack(hd *homeDevice, st *netsim.Stack, op uint64) error {
	user, pass, _ := strings.Cut(hd.factory, ":")
	resp, err := d.call(st, hd.dev.IP(), device.Request{Cmd: hd.sku.cmd, User: user, Pass: pass}, op)
	if err == nil && resp.OK {
		return fmt.Errorf("%s: factory-credential %s answered OK (leak)", hd.name, hd.sku.cmd)
	}
	return nil
}

// call is one management exchange, as device.Client makes it, with its
// dial and request/reply exchange timed when op is traced. A reset
// closes the exchange at once.
func (d *homeDeployment) call(st *netsim.Stack, ip packet.IPv4Address, req device.Request, op uint64) (device.Response, error) {
	tr := d.tr
	var t0 int64
	if op != 0 {
		t0 = tr.now()
	}
	conn, err := st.Dial(ip, device.MgmtPort, callTimeout)
	if op != 0 {
		tr.child(op, op, "netsim.dial", t0)
	}
	if err != nil {
		return device.Response{}, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	if op != 0 {
		d.capMu.Lock()
		d.flowOps[flowKey{st.IP(), conn.LocalPort()}] = op
		d.capMu.Unlock()
		t0 = tr.now()
		defer tr.child(op, op, "netsim.exchange", t0)
	}
	reply := make(chan []byte, 1)
	closed := make(chan error, 1)
	conn.OnMessage(func(msg []byte) {
		select {
		case reply <- append([]byte(nil), msg...):
		default:
		}
	})
	conn.OnClose(func(err error) {
		if err == nil {
			err = netsim.ErrClosed
		}
		select {
		case closed <- err:
		default:
		}
	})
	if err := conn.Send(req.Encode()); err != nil {
		return device.Response{}, fmt.Errorf("send: %w", err)
	}
	timer := time.NewTimer(callTimeout)
	defer timer.Stop()
	select {
	case msg := <-reply:
		return device.ParseResponse(msg)
	case err := <-closed:
		return device.Response{}, fmt.Errorf("closed before reply: %w", err)
	case <-timer.C:
		return device.Response{}, fmt.Errorf("no reply: %w", netsim.ErrTimeout)
	}
}

// afterRun replays the captured frames frame by frame through a
// decoder, a copy of the uplink flow table and pipelines built from
// the public mbox constructors (never the live ones), then the IDS
// engine of the frame's device.
func (d *homeDeployment) afterRun(tr *tracer) {
	if !tr.enabled {
		return
	}
	d.replayed = true
	table := openflow.NewFlowTable()
	for _, e := range d.p.Switch.Table().Entries() {
		table.Insert(e)
	}
	type replica struct {
		pipe   *mbox.Pipeline
		engine *ids.Engine
	}
	replicas := map[packet.IPv4Address]*replica{}
	for ip, hd := range d.byIP {
		rules := d.rules[hd.dev.Profile.SKU]
		r := &replica{pipe: mbox.NewPipeline(elementsFor(hd.dev.Profile, standardPosture(hd.dev.Profile), rules, homeAdminIP)...)}
		if hd.dev.Profile.HasVuln(device.VulnBackdoor) {
			r.engine = ids.NewEngine(rules)
		}
		replicas[ip] = r
	}
	clients := map[packet.IPv4Address]bool{}
	for _, st := range d.clients {
		clients[st.IP()] = true
	}
	d.capMu.Lock()
	frames, flowOps := d.captured, d.flowOps
	d.capMu.Unlock()
	dec := packet.NewDecoder()
	for _, cf := range frames {
		root := tr.id()
		t0 := tr.now()
		pkt := dec.Decode(cf.frame, packet.LayerTypeEthernet)
		t1 := tr.now()
		_, _ = table.Lookup(pkt, cf.inPort, len(cf.frame))
		t2 := tr.now()
		op := root
		var rep *replica
		var dir mbox.Direction
		if ip := pkt.IPv4(); ip != nil {
			if r, ok := replicas[ip.DstIP]; ok {
				rep, dir = r, mbox.ToDevice
			} else if r, ok := replicas[ip.SrcIP]; ok {
				rep, dir = r, mbox.FromDevice
			}
			if tcp := pkt.TCP(); tcp != nil {
				key := flowKey{ip.SrcIP, tcp.SrcPort}
				if clients[ip.DstIP] {
					key = flowKey{ip.DstIP, tcp.DstPort}
				}
				if o, ok := flowOps[key]; ok {
					op = o
				}
			}
		}
		tr.add(span{ID: tr.id(), Parent: root, Op: op, Name: "packet.decode", Start: t0, End: t1})
		tr.add(span{ID: tr.id(), Parent: root, Op: op, Name: "openflow.lookup", Start: t1, End: t2})
		if rep != nil {
			t3 := tr.now()
			rep.pipe.Process(&mbox.Context{Frame: cf.frame, Packet: pkt, Dir: dir})
			tr.child(op, root, "mbox.pipeline", t3)
			if rep.engine != nil {
				t4 := tr.now()
				d.alerts += len(rep.engine.Match(pkt))
				tr.child(op, root, "ids.match", t4)
			}
		}
		tr.add(span{ID: root, Op: op, Name: "replay.frame", Start: t0, End: tr.now()})
	}
}

func (d *homeDeployment) counts() counts {
	in, out, miss, _ := d.p.Switch.Stats()
	appended, drops := journal.Default.Stats()
	reconf, _ := d.p.Metrics()
	c := counts{
		"sw.in": float64(in), "sw.out": float64(out), "of.miss": float64(miss),
		"netsim.queue_drops": registryValue("iotsec_netsim_queue_drops_total"),
		"agent.reconnects":   float64(d.sb.Agent.Reconnects()),
		"journal.appended":   float64(appended), "journal.tail_drops": float64(drops),
		"core.reconfigures": float64(reconf),
	}
	for _, hd := range d.devs {
		fwd, drop := hd.managed.Instance.Mbox.Counters()
		c["mbox.frames"] += float64(fwd + drop)
	}
	return c
}

func (d *homeDeployment) layers(c counts, ops int, set func(string, float64)) {
	n := float64(ops)
	set("netsim.fanout", ratio(c["sw.out"], c["sw.in"]))
	set("netsim.frames_per_op", ratio(c["sw.in"], n))
	set("netsim.queue_drops", c["netsim.queue_drops"])
	set("netsim.agent_reconnects", c["agent.reconnects"])
	set("openflow.miss_ratio", ratio(c["of.miss"], c["sw.in"]))
	set("openflow.flows_resident", float64(d.p.Switch.Table().Len()))
	set("mbox.frames_per_op", ratio(c["mbox.frames"], n))
	set("journal.appended_per_op", ratio(c["journal.appended"], n))
	set("journal.tail_drops", c["journal.tail_drops"])
	set("core.reconfigures_per_event", ratio(c["core.reconfigures"], n))
	d.tracker.Sync()
	set("slo.incomplete", float64(d.tracker.Incomplete()))
	if d.replayed {
		set("ids.alerts", float64(d.alerts))
	}
}

// verify: benign traffic left every device normal (no IDS false
// positive escalated it) and every live pipeline still matches its
// standard posture.
func (d *homeDeployment) verify() []error {
	var errs []error
	for _, hd := range d.devs {
		if c := d.p.Global.View.DeviceContext(hd.name); c != policy.ContextNormal {
			errs = append(errs, fmt.Errorf("%s: context %s after benign traffic", hd.name, c))
		}
		want := chainOf(elementsFor(hd.dev.Profile, standardPosture(hd.dev.Profile), nil, homeAdminIP))
		if err := checkChain(hd.name, hd.managed.Instance.Mbox.Pipeline().Elements(), want); err != nil {
			errs = append(errs, err)
		}
	}
	if d.alerts > 0 {
		errs = append(errs, fmt.Errorf("replayed benign traffic raised %d IDS alerts", d.alerts))
	}
	return errs
}

func (d *homeDeployment) close() {
	for _, st := range d.clients {
		st.Stop()
	}
	if d.sb != nil {
		d.sb.Close()
	}
	if d.tracker != nil {
		d.tracker.Close()
	}
	d.p.Stop()
}

// registryValue sums the samples of one metric family in the default
// telemetry registry (0 when absent).
func registryValue(name string) float64 {
	var v float64
	for _, mj := range telemetry.Default.Snapshot(1).Metrics {
		if mj.Name == name {
			for _, s := range mj.Samples {
				v += s.Value
			}
		}
	}
	return v
}
