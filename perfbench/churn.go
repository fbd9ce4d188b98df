package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/core"
	"iotsec/internal/device"
	"iotsec/internal/journal"
	"iotsec/internal/mbox"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/slo"
)

// posture-churn: as many protected devices as the µmbox cluster fits,
// the partition tier attached in groups of 16, and one client toggling
// a per-device variable through ReportDeviceEvent. One device in 16
// has a global variable (its events escalate); one in 4 is isolated
// while its variable is set (FLOW_MOD + barrier over the southbound).
// No data traffic: the detect → enforce loop does the work.

const (
	churnGroup = 16
	// probeEvery: a traced window samples one event in probeEvery.
	probeEvery = 8
)

type churnDevice struct {
	name     string
	dev      *device.Device
	managed  *core.Managed
	group    int
	global   bool // the variable is global, so events escalate
	isolates bool // setting the variable isolates the device
	on       bool // the variable is currently set ("b")
	postureB policy.Posture
	chainA   string // security chain while unset
	chainB   string // security chain while set
}

type churnDeployment struct {
	tr      *tracer
	seed    int64
	p       *core.Platform
	sb      *core.Southbound
	tracker *slo.Tracker
	h       *controller.Hierarchy
	fsm     *policy.FSM
	devs    []*churnDevice

	// Traced runs only: replicas the layer probes call into.
	scoped  map[int]*policy.FSM
	replica *mbox.Manager
	jr      *journal.Journal
}

func setupChurn(cfg config, tr *tracer) (deployment, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	n := cfg.sizes.churnDevices
	d := &churnDeployment{tr: tr, seed: cfg.seed}

	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("c%03d", i)
	}
	// Seeded roles: which variables are global, which postures isolate.
	global := map[int]bool{}
	for _, i := range rng.Perm(n)[:n/16] {
		global[i] = true
	}
	isolates := map[int]bool{}
	for _, i := range rng.Perm(n)[:n/4] {
		isolates[i] = true
	}
	// Seeded grouping: consecutive runs of a shuffled order share a
	// partition (star edges inside each run of churnGroup).
	order := rng.Perm(n)
	var edges []controller.InteractionEdge
	for k, i := range order {
		if anchor := k - k%churnGroup; anchor != k {
			edges = append(edges, controller.InteractionEdge{A: names[order[anchor]], B: names[i], Weight: 1})
		}
	}
	part := controller.Partition(names, edges, churnGroup)

	dom := policy.NewDomain()
	d.fsm = policy.NewFSM(dom)
	envLocality := map[string]int{}
	for i, name := range names {
		sku := &table1SKUs[rng.Intn(len(table1SKUs))]
		ip := packet.IPv4Address{10, 1, byte(i / 200), byte(10 + i%200)}
		cd := &churnDevice{name: name, dev: sku.build(name, ip, "k"), group: part.GroupOf(name),
			global: global[i], isolates: isolates[i]}
		cd.postureB = policy.Posture{BlockCommands: []string{"SET"}, Modules: []policy.ModuleSpec{{Kind: "stateful-fw"}}}
		if cd.isolates {
			cd.postureB = policy.Posture{Isolate: true}
		}
		cd.chainA = chainOf(elementsFor(cd.dev.Profile, policy.Posture{}, nil, packet.IPv4Address{}))
		cd.chainB = chainOf(elementsFor(cd.dev.Profile, cd.postureB, nil, packet.IPv4Address{}))
		d.devs = append(d.devs, cd)

		dom.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
		dom.AddEnvVar(churnVar(name), "a", "b")
		d.fsm.AddRule(policy.Rule{Name: "churn-" + name, Conditions: []policy.Condition{policy.EnvIs(churnVar(name), "b")},
			Device: name, Posture: cd.postureB, Priority: 5})
		if !cd.global {
			envLocality[churnVar(name)] = cd.group
		}
	}

	p, err := core.New(core.Options{Policy: d.fsm})
	if err != nil {
		return nil, err
	}
	d.p = p
	for _, cd := range d.devs {
		if cd.managed, err = p.AddDevice(cd.dev); err != nil {
			d.close()
			return nil, err
		}
	}
	d.tracker = slo.NewTracker(journal.Default, slo.Options{})
	if d.sb, err = p.AttachSouthbound(core.SouthboundOptions{}); err != nil {
		d.close()
		return nil, err
	}
	if !d.sb.Steering.WaitForSwitch(5 * time.Second) {
		d.close()
		return nil, errors.New("uplink switch never connected to the southbound")
	}
	// The partition tier; its supervisor is not started.
	d.h, _ = p.SuperviseControllers(core.SupervisionOptions{Partitioning: part, EnvLocality: envLocality})
	p.Start()
	if tr.enabled {
		if err := d.buildReplicas(part, envLocality); err != nil {
			d.close()
			return nil, err
		}
	}
	// Warm up: set and unset every variable once, so each controller's
	// first reconcile (which pushes its whole posture set) is done.
	for _, cd := range d.devs {
		for k := 0; k < 2; k++ {
			if err := d.toggle(cd); err != nil {
				d.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return d, nil
}

func churnVar(dev string) string { return dev + "_mode" }

// buildReplicas builds what the traced probes call: per-partition
// policies scoped like the local controllers', a µmbox manager with
// one replica instance per device, and a private journal. The steering
// probe quarantines probeName/probeMAC, which no device owns.
func (d *churnDeployment) buildReplicas(part *controller.Partitioning, envLocality map[string]int) error {
	d.scoped = scopedPolicies(part, d.fsm.Rules(), envLocality)
	d.replica = mbox.NewManager(mbox.Server{Name: "replica0", Slots: 256}, mbox.Server{Name: "replica1", Slots: 256})
	d.replica.TimeScale = 0
	for _, cd := range d.devs {
		if cd.dev.MAC() == probeMAC {
			return fmt.Errorf("device %s owns the steering probe's MAC %s", cd.name, probeMAC)
		}
		_, _ = d.replica.Launch(context.Background(), "mb-"+cd.name, mbox.PlatformMicroVM, mbox.NewPipeline(&mbox.Logger{}))
	}
	d.jr = journal.New(8192)
	return nil
}

// The steering probe's quarantine target: a name and a locally
// administered MAC that no device has, so timing Isolate and Release
// never touches a device's own enforcement.
const probeName = "perfbench-probe"

var probeMAC = packet.MACAddress{0x02, 0x70, 0x62, 0x00, 0x00, 0x01}

// toggle flips a device's variable through ReportDeviceEvent and checks
// the enforcement it implies.
func (d *churnDeployment) toggle(cd *churnDevice) error {
	d.report(cd)
	return d.check(cd)
}

// report flips the variable and reports it as a device event, which
// returns once the resulting posture is enforced.
func (d *churnDeployment) report(cd *churnDevice) {
	cd.on = !cd.on
	d.p.ReportDeviceEvent(device.Event{Device: cd.name, SKU: cd.dev.Profile.SKU,
		Kind: device.EventStateChange, Detail: "mode=" + cd.value(), When: time.Now()})
}

func (cd *churnDevice) value() string {
	if cd.on {
		return "b"
	}
	return "a"
}

// check compares the device's live pipeline and quarantine state with
// the posture its rule implies.
func (d *churnDeployment) check(cd *churnDevice) error {
	want := cd.chainA
	if cd.on {
		want = cd.chainB
	}
	if err := checkChain(cd.name, cd.managed.Instance.Mbox.Pipeline().Elements(), want); err != nil {
		return err
	}
	if got, wantIso := d.sb.Steering.Isolated(cd.name), cd.on && cd.isolates; got != wantIso {
		return fmt.Errorf("%s: isolated=%v, posture implies %v", cd.name, got, wantIso)
	}
	return nil
}

func (d *churnDeployment) drive(stop <-chan struct{}, rec *recorder) {
	rng := rand.New(rand.NewSource(d.seed*7919 + 1))
	var events int
	for {
		for _, i := range rng.Perm(len(d.devs)) {
			select {
			case <-stop:
				return
			default:
			}
			cd := d.devs[i]
			var kind uint8
			if cd.global {
				kind |= kindEscalated
			}
			if cd.isolates {
				kind |= kindQuarantine
			}
			// A traced window samples one event in probeEvery: its span
			// and the layer probes after it.
			events++
			traced := rec.tracing.Load() && events%probeEvery == 0
			var op uint64
			var spanStart int64
			if traced {
				op, spanStart = d.tr.id(), d.tr.now()
			}
			start := rec.now()
			d.report(cd)
			end := rec.now()
			if traced {
				d.tr.add(span{ID: op, Op: op, Name: "core.device_event", Start: spanStart, End: d.tr.now()})
			}
			err := d.check(cd)
			if err != nil {
				rec.fail("%v", err)
			}
			rec.log(0, start, end, kind, err != nil)
			if traced {
				d.probe(cd, op)
			}
		}
	}
}

// probe times, for one event, the benchmark's own calls into each layer
// on the event's path: the view state, the policy lookup and posture
// keys, a µmbox reconfigure of a replica instance, a journal record and,
// for a quarantine event, isolating and releasing a probe target with a
// southbound barrier between.
func (d *churnDeployment) probe(cd *churnDevice, op uint64) {
	tr := d.tr
	root := tr.id()
	t0 := tr.now()
	view, fsm := d.h.Global.View, d.fsm
	if l := d.h.LocalFor(cd.group); l != nil && !cd.global {
		view, fsm = l.View, d.scoped[cd.group]
	}
	probePolicy(tr, op, root, view, fsm)
	posture := policy.Posture{}
	if cd.on {
		posture = cd.postureB
	}
	elems := elementsFor(cd.dev.Profile, posture, nil, packet.IPv4Address{})
	ctx := context.Background()
	t := tr.now()
	_ = d.replica.Reconfigure(ctx, "mb-"+cd.name, elems...)
	tr.child(op, root, "mbox.reconfigure", t)
	t = tr.now()
	d.jr.Record(ctx, journal.TypeDeviceEvent, journal.Debug, cd.name, "state-change: mode="+cd.value())
	tr.child(op, root, "journal.record", t)
	if cd.isolates {
		// Quarantine and release the probe target, which leaves the
		// devices' quarantine state and the uplink's flows to the
		// program alone.
		t = tr.now()
		d.sb.Steering.Isolate(ctx, probeName, probeMAC)
		tr.child(op, root, "controller.isolate", t)
		t = tr.now()
		_ = d.sb.Steering.Endpoint().Barrier(d.p.Switch.DatapathID(), 2*time.Second)
		tr.child(op, root, "openflow.barrier", t)
		t = tr.now()
		d.sb.Steering.Release(ctx, probeName, probeMAC)
		tr.child(op, root, "controller.release", t)
	}
	tr.add(span{ID: root, Op: op, Name: "churn.probe", Start: t0, End: tr.now()})
}

func (d *churnDeployment) afterRun(*tracer) {}

func (d *churnDeployment) counts() counts {
	appended, drops := journal.Default.Stats()
	reconf, _ := d.p.Metrics()
	_, _, mgrReconfs := d.p.Manager.Metrics()
	local, escalated := d.h.Metrics()
	recomputes, changes := d.h.Global.Metrics()
	return counts{
		"agent.reconnects": float64(d.sb.Agent.Reconnects()),
		"journal.appended": float64(appended), "journal.tail_drops": float64(drops),
		"core.reconfigures": float64(reconf), "mbox.reconfigs": float64(mgrReconfs),
		"ctl.local": float64(local), "ctl.escalated": float64(escalated),
		"global.recomputes": float64(recomputes), "global.changes": float64(changes),
	}
}

func (d *churnDeployment) layers(c counts, ops int, set func(string, float64)) {
	n := float64(ops)
	set("netsim.agent_reconnects", c["agent.reconnects"])
	set("openflow.flows_resident", float64(d.p.Switch.Table().Len()))
	set("mbox.reconfigs_per_event", ratio(c["mbox.reconfigs"], n))
	set("core.reconfigures_per_event", ratio(c["core.reconfigures"], n))
	set("controller.escalated_ratio", ratio(c["ctl.escalated"], c["ctl.local"]+c["ctl.escalated"]))
	set("controller.changes_per_recompute", ratio(c["global.changes"], c["global.recomputes"]))
	set("journal.appended_per_op", ratio(c["journal.appended"], n))
	set("journal.tail_drops", c["journal.tail_drops"])
	d.tracker.Sync()
	set("slo.incomplete", float64(d.tracker.Incomplete()))
}

// verify: the uplink's resident quarantine flows are exactly the
// standing quarantine set (a drop rule on the source and one on the
// destination MAC of each isolated device), steering agrees, and every
// pipeline matches its device's current posture.
func (d *churnDeployment) verify() []error {
	var errs []error
	want := map[packet.MACAddress]string{}
	var wantNames []string
	for _, cd := range d.devs {
		if cd.on && cd.isolates {
			want[cd.dev.MAC()] = cd.name
			wantNames = append(wantNames, cd.name)
		}
		if err := d.check(cd); err != nil {
			errs = append(errs, err)
		}
	}
	src, dst := map[packet.MACAddress]int{}, map[packet.MACAddress]int{}
	for _, e := range d.p.Switch.Table().Entries() {
		switch {
		case e.Match.Wildcards&openflow.WEthSrc == 0:
			src[e.Match.EthSrc]++
		case e.Match.Wildcards&openflow.WEthDst == 0:
			dst[e.Match.EthDst]++
		default:
			errs = append(errs, fmt.Errorf("unexpected resident flow %v", e.Match))
		}
	}
	for mac, name := range want {
		if src[mac] != 1 || dst[mac] != 1 {
			errs = append(errs, fmt.Errorf("%s isolated but resident drop rules src=%d dst=%d", name, src[mac], dst[mac]))
		}
	}
	for _, m := range []map[packet.MACAddress]int{src, dst} {
		for mac := range m {
			if _, ok := want[mac]; !ok {
				errs = append(errs, fmt.Errorf("resident drop rule for %s, which is not quarantined", mac))
			}
		}
	}
	var got []string
	for name := range d.sb.Steering.IsolatedDevices() {
		got = append(got, name)
	}
	sort.Strings(got)
	sort.Strings(wantNames)
	if fmt.Sprint(got) != fmt.Sprint(wantNames) {
		errs = append(errs, fmt.Errorf("steering isolates %v, postures imply %v", got, wantNames))
	}
	return errs
}

func (d *churnDeployment) close() {
	if d.sb != nil {
		d.sb.Close()
	}
	if d.tracker != nil {
		d.tracker.Close()
	}
	d.p.Stop()
}
