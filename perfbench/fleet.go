package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/policy"
)

// fleet-10k: a controller.Hierarchy over 10,000 devices in shards of
// 64 with the rollup plane attached and no enforcement sink. Two
// workers toggle every device's variable once per round; every 8th
// round one worker also probes the globally referenced pair, whose
// events escalate. No µmbox or southbound cost: per-shard reconcile
// and fleet-size scaling do the work.

const (
	fleetShard      = 64
	fleetWorkers    = 2
	fleetProbeRound = 8
	rollupInterval  = 250 * time.Millisecond
	// fleetProbeEvery: a traced window samples one event in
	// fleetProbeEvery.
	fleetProbeEvery = 16
)

var fleetSKUs = []string{"cam-v1", "plug-v2", "lock-v3", "tv-v4"}

type fleetDeployment struct {
	tr     *tracer
	fsm    *policy.FSM
	part   *controller.Partitioning
	h      *controller.Hierarchy
	agg    *controller.FleetAggregator
	plane  *controller.FleetRollupPlane
	names  []string
	groups [][]int             // device indices per shard, as part.Groups
	owned  [fleetWorkers][]int // device indices per worker, in seeded order
	on     []bool              // variable set; written only by the owning worker
	gA, gB int                 // the globally referenced pair

	fed       atomic.Uint64 // events handed to the hierarchy
	escalated atomic.Uint64 // of which escalate by policy

	onKey, offKey string
	scoped        map[int]*policy.FSM // traced runs: replicas of the shard policies

	// verify results, reported as layers.
	stale, mergedMinusDirect float64
}

func setupFleet(cfg config, tr *tracer) (deployment, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	n := cfg.sizes.fleetDevices
	d := &fleetDeployment{tr: tr, names: make([]string, n), on: make([]bool, n)}
	onPosture := policy.Posture{BlockCommands: []string{"ON"}}
	d.onKey, d.offKey = onPosture.Key(), policy.Posture{}.Key()

	dom := policy.NewDomain()
	d.fsm = policy.NewFSM(dom)
	for i := range d.names {
		name := fmt.Sprintf("dev%05d", i)
		d.names[i] = name
		dom.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
		dom.AddEnvVar(fleetVar(name), "a", "b")
		d.fsm.AddRule(policy.Rule{Name: "local-" + name, Conditions: []policy.Condition{policy.EnvIs(fleetVar(name), "b")},
			Device: name, Posture: onPosture, Priority: 5})
	}
	// Seeded sharding: consecutive runs of a shuffled order share a shard.
	order := rng.Perm(n)
	edges := make([]controller.InteractionEdge, 0, n)
	for k, i := range order {
		if anchor := k - k%fleetShard; anchor != k {
			edges = append(edges, controller.InteractionEdge{A: d.names[order[anchor]], B: d.names[i], Weight: 1})
		}
	}
	d.part = controller.Partition(d.names, edges, fleetShard)
	// Seeded attack placement: a cross-shard pair a global rule joins.
	d.gA = order[rng.Intn(n)]
	for d.gB = order[rng.Intn(n)]; d.part.SameGroup(d.names[d.gA], d.names[d.gB]); d.gB = order[rng.Intn(n)] {
	}
	d.fsm.AddRule(policy.Rule{Name: "global-cross", Conditions: []policy.Condition{
		policy.DeviceIs(d.names[d.gA], policy.ContextSuspicious), policy.DeviceIs(d.names[d.gB], policy.ContextSuspicious)},
		Device: d.names[d.gA], Posture: policy.Posture{Isolate: true}, Priority: 9})

	index := make(map[string]int, n)
	for i, name := range d.names {
		index[name] = i
	}
	d.groups = make([][]int, len(d.part.Groups))
	for g, members := range d.part.Groups {
		for _, name := range members {
			d.groups[g] = append(d.groups[g], index[name])
		}
	}
	envLocality := make(map[string]int, n)
	for _, name := range d.names {
		envLocality[fleetVar(name)] = d.part.GroupOf(name)
	}
	d.h = controller.NewHierarchy(d.fsm, d.part, envLocality, nil)
	byGroup := d.h.EnableFleetStats()
	skus := map[int]map[string]int{}
	for _, name := range d.names {
		g := d.part.GroupOf(name)
		if skus[g] == nil {
			skus[g] = map[string]int{}
		}
		skus[g][fleetSKUs[rng.Intn(len(fleetSKUs))]]++
	}
	for g, c := range skus {
		if s := byGroup[g]; s != nil {
			s.SetSKUDevices(c)
		}
	}
	d.agg = d.h.Global.Fleet()
	d.plane = d.h.StartFleetRollups(d.agg, rollupInterval)
	for k, i := range order {
		w := k * fleetWorkers / n
		d.owned[w] = append(d.owned[w], i)
	}
	if tr.enabled {
		d.scoped = scopedPolicies(d.part, d.fsm.Rules(), envLocality)
	}
	// Warm up: one toggle per shard and the pair's first probe, so every
	// controller's first reconcile is done.
	ctx := context.Background()
	for _, members := range d.groups {
		i := members[0]
		d.event(ctx, i, true)
		d.event(ctx, i, false)
	}
	d.backdoor(ctx, d.gA)
	d.backdoor(ctx, d.gB)
	return d, nil
}

func fleetVar(dev string) string { return dev + "_attr" }

// event sets or unsets one device's variable.
func (d *fleetDeployment) event(ctx context.Context, i int, on bool) {
	detail := "attr=a"
	if on {
		detail = "attr=b"
	}
	d.h.HandleDeviceEvent(ctx, device.Event{Device: d.names[i], Kind: device.EventStateChange, Detail: detail})
	d.on[i] = on
	d.fed.Add(1)
}

// backdoor probes one device of the globally referenced pair; the
// event escalates.
func (d *fleetDeployment) backdoor(ctx context.Context, i int) {
	d.h.HandleDeviceEvent(ctx, device.Event{Device: d.names[i], Kind: device.EventBackdoorAccess, Detail: "probe"})
	d.fed.Add(1)
	d.escalated.Add(1)
}

func (d *fleetDeployment) drive(stop <-chan struct{}, rec *recorder) {
	var wg sync.WaitGroup
	if d.tr.enabled {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.timeRollups(stop, rec)
		}()
	}
	for w := 0; w < fleetWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d.work(w, stop, rec)
		}(w)
	}
	wg.Wait()
}

// work is one closed-loop worker: it toggles each of its devices once
// per round, in a fixed seeded order.
func (d *fleetDeployment) work(w int, stop <-chan struct{}, rec *recorder) {
	ctx := context.Background()
	var events int
	do := func(i int, on, escalate bool) {
		// A traced window samples one event in fleetProbeEvery: its span
		// and the layer probes after it.
		events++
		traced := rec.tracing.Load() && events%fleetProbeEvery == 0
		var op uint64
		var spanStart int64
		if traced {
			op, spanStart = d.tr.id(), d.tr.now()
		}
		start := rec.now()
		var kind uint8
		if escalate {
			kind = kindEscalated
			d.backdoor(ctx, i)
		} else {
			d.event(ctx, i, on)
		}
		end := rec.now()
		if traced {
			d.tr.add(span{ID: op, Op: op, Name: "controller.handle_event", Start: spanStart, End: d.tr.now()})
		}
		rec.log(w, start, end, kind, false)
		if traced {
			d.probe(i, escalate, op)
		}
	}
	for round := 0; ; round++ {
		on := round%2 == 0
		for _, i := range d.owned[w] {
			select {
			case <-stop:
				return
			default:
			}
			do(i, on, false)
		}
		if w == 0 && round%fleetProbeRound == 0 {
			do(d.gA, false, true)
			do(d.gB, false, true)
		}
	}
}

// probe times the benchmark's own calls on an event's path: the view
// state and the (scoped) policy lookup with its posture keys.
func (d *fleetDeployment) probe(i int, escalated bool, op uint64) {
	tr := d.tr
	root := tr.id()
	t0 := tr.now()
	g := d.part.GroupOf(d.names[i])
	view, fsm := d.h.Global.View, d.fsm
	if l := d.h.LocalFor(g); l != nil && !escalated {
		view, fsm = l.View, d.scoped[g]
	}
	probePolicy(tr, op, root, view, fsm)
	tr.add(span{ID: root, Op: op, Name: "fleet.probe", Start: t0, End: tr.now()})
}

// timeRollups reads the merged fleet view every rollup interval of a
// traced window, timing each read (off the event path).
func (d *fleetDeployment) timeRollups(stop <-chan struct{}, rec *recorder) {
	tick := time.NewTicker(rollupInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if !rec.tracing.Load() {
			continue
		}
		op := d.tr.id()
		t := d.tr.now()
		_ = d.agg.View()
		d.tr.add(span{ID: op, Op: op, Name: "telemetry.rollup_view", Start: t, End: d.tr.now()})
	}
}

func (d *fleetDeployment) afterRun(*tracer) {}

func (d *fleetDeployment) counts() counts {
	local, escalated := d.h.Metrics()
	recomputes, changes := d.h.Global.Metrics()
	return counts{
		"ctl.local": float64(local), "ctl.escalated": float64(escalated),
		"global.recomputes": float64(recomputes), "global.changes": float64(changes),
	}
}

func (d *fleetDeployment) layers(c counts, _ int, set func(string, float64)) {
	set("controller.escalated_ratio", ratio(c["ctl.escalated"], c["ctl.local"]+c["ctl.escalated"]))
	set("controller.changes_per_recompute", ratio(c["global.changes"], c["global.recomputes"]))
	set("telemetry.stale_shards", d.stale)
	set("telemetry.merged_minus_direct", d.mergedMinusDirect)
}

// verify: after the rollup plane's final flush the merged fleet view
// counts exactly the events and escalations handed to the hierarchy,
// no shard is stale, and every local controller holds the posture each
// device's last event implies.
func (d *fleetDeployment) verify() []error {
	var errs []error
	d.plane.Stop()
	view := d.agg.View()
	fed, escalated := d.fed.Load(), d.escalated.Load()
	d.stale = float64(view.Fleet.StaleShards)
	d.mergedMinusDirect = float64(view.Fleet.Events) - float64(fed)
	if view.Fleet.StaleShards != 0 {
		errs = append(errs, fmt.Errorf("%d stale shards", view.Fleet.StaleShards))
	}
	if view.Fleet.Events != fed {
		errs = append(errs, fmt.Errorf("merged fleet view counts %d events, %d were handled", view.Fleet.Events, fed))
	}
	if _, esc := d.h.Metrics(); view.Fleet.Escalations != escalated || esc != escalated {
		errs = append(errs, fmt.Errorf("escalations: merged %d, hierarchy %d, expected %d", view.Fleet.Escalations, esc, escalated))
	}
	if c := d.h.Global.View.DeviceContext(d.names[d.gA]); c != policy.ContextSuspicious {
		errs = append(errs, fmt.Errorf("%s probed but context %s", d.names[d.gA], c))
	}
	for g, members := range d.groups {
		l := d.h.LocalFor(g)
		if l == nil {
			errs = append(errs, fmt.Errorf("shard %d has no local controller", g))
			continue
		}
		postures := l.Postures()
		for _, i := range members {
			name, want := d.names[i], d.offKey
			if d.on[i] {
				want = d.onKey
			}
			if postures[name] != want {
				errs = append(errs, fmt.Errorf("%s: local posture %q, last event implies %q", name, postures[name], want))
			}
		}
	}
	return errs
}

func (d *fleetDeployment) close() { d.plane.Stop() }
