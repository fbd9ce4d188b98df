// Package controller implements the IoTSec control plane (§5.1): a
// context monitor that folds device events, anomaly alerts and
// environment readings into a global system-state view; a versioned
// store giving the strong consistency critical security state needs;
// interaction-frequency partitioning; and the hierarchical
// local/global controller split that keeps frequent interactions off
// the global coordination path.
package controller

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/policy"
)

// ViewChange describes one state-variable update.
type ViewChange struct {
	// Var uses the policy convention: "dev:<name>" or "env:<name>".
	Var string
	// Value is the new context/level.
	Value string
	// Version is the store version that carried the change.
	Version uint64
	// Reason explains the transition (event kind, alert sid, ...).
	Reason string
	When   time.Time
	// TraceID is the causal chain that carried the change (0 when the
	// mutation arrived outside any trace).
	TraceID uint64
}

// ViewObserver is notified of committed changes in order, under the
// context (and therefore trace) that carried the mutation. Must not
// block.
type ViewObserver func(ctx context.Context, c ViewChange)

// View is the context monitor: the authoritative, versioned global
// system state Sk. All mutations flow through the embedded versioned
// store, so observers see a single total order — the consistency §5.1
// demands for critical security state.
type View struct {
	store *Store

	mu        sync.RWMutex
	contexts  map[string]policy.SecurityContext
	env       map[string]string
	observers []ViewObserver

	// escalation policy knobs
	// BruteForceThreshold flips a device to suspicious after this
	// many consecutive auth failures (default 5).
	BruteForceThreshold int
	failures            map[string]int
}

// NewView builds an empty view.
func NewView() *View {
	v := &View{
		store:               NewStore(),
		contexts:            make(map[string]policy.SecurityContext),
		env:                 make(map[string]string),
		BruteForceThreshold: 5,
		failures:            make(map[string]int),
	}
	return v
}

// Observe registers a change observer.
func (v *View) Observe(o ViewObserver) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.observers = append(v.observers, o)
}

// SetDeviceContext transitions a device's security context. ctx
// carries the causal trace of whatever triggered the transition.
func (v *View) SetDeviceContext(ctx context.Context, deviceName string, sc policy.SecurityContext, reason string) {
	v.apply(ctx, "dev:"+deviceName, string(sc), reason)
}

// SetEnv commits an environment level.
func (v *View) SetEnv(ctx context.Context, envVar, level, reason string) {
	v.apply(ctx, "env:"+envVar, level, reason)
}

// apply commits a change through the store and notifies observers.
func (v *View) apply(ctx context.Context, varName, value, reason string) {
	v.mu.Lock()
	// Idempotence: unchanged values do not spam observers.
	var old string
	if name, ok := strings.CutPrefix(varName, "dev:"); ok {
		old = string(v.contexts[name])
	} else if name, ok := strings.CutPrefix(varName, "env:"); ok {
		old = v.env[name]
	}
	if old == value {
		v.mu.Unlock()
		return
	}
	version := v.store.Put(varName, value)
	if name, ok := strings.CutPrefix(varName, "dev:"); ok {
		v.contexts[name] = policy.SecurityContext(value)
	} else if name, ok := strings.CutPrefix(varName, "env:"); ok {
		v.env[name] = value
	}
	observers := append([]ViewObserver(nil), v.observers...)
	v.mu.Unlock()

	mViewChanges.Inc()
	change := ViewChange{
		Var: varName, Value: value, Version: version, Reason: reason,
		When: time.Now(), TraceID: journal.TraceID(ctx),
	}
	device := ""
	if name, ok := strings.CutPrefix(varName, "dev:"); ok {
		device = name
	}
	journal.Record(ctx, journal.TypeViewChange, journal.Debug, device,
		fmt.Sprintf("v%d %s = %s (%s)", version, varName, value, reason))
	for _, o := range observers {
		o(ctx, change)
	}
}

// DeviceContext reads a device's context (normal when unknown).
func (v *View) DeviceContext(deviceName string) policy.SecurityContext {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if c, ok := v.contexts[deviceName]; ok {
		return c
	}
	return policy.ContextNormal
}

// Env reads an environment level.
func (v *View) Env(envVar string) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.env[envVar]
}

// Vars snapshots every committed variable in store convention
// ("dev:<name>" / "env:<name>" → value) — the checkpointable state.
func (v *View) Vars() map[string]string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]string, len(v.contexts)+len(v.env))
	for dev, sc := range v.contexts {
		out["dev:"+dev] = string(sc)
	}
	for name, val := range v.env {
		out["env:"+name] = val
	}
	return out
}

// Restore bulk-loads variables into the view WITHOUT notifying
// observers — recovery seeding from a checkpoint, where the caller
// runs one explicit reconcile afterwards instead of paying one
// reconcile per restored variable. Unchanged values are skipped
// (idempotent, so checkpoint + journal-replay overlap is harmless);
// variables are applied in sorted order so a rebuilt store assigns
// versions deterministically. Returns the store version after the
// load.
func (v *View) Restore(vars map[string]string) uint64 {
	keys := make([]string, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, varName := range keys {
		value := vars[varName]
		if name, ok := strings.CutPrefix(varName, "dev:"); ok {
			if string(v.contexts[name]) == value {
				continue
			}
			v.store.Put(varName, value)
			v.contexts[name] = policy.SecurityContext(value)
		} else if name, ok := strings.CutPrefix(varName, "env:"); ok {
			if v.env[name] == value {
				continue
			}
			v.store.Put(varName, value)
			v.env[name] = value
		}
	}
	return v.store.Version()
}

// State materializes the current policy.State.
func (v *View) State() policy.State {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := policy.NewState()
	for dev, ctx := range v.contexts {
		s.Contexts[dev] = ctx
	}
	for k, val := range v.env {
		s.Env[k] = val
	}
	return s
}

// Version reports the store's current version.
func (v *View) Version() uint64 { return v.store.Version() }

// HandleDeviceEvent folds a device event into the view, applying the
// standard escalation rules:
//
//   - backdoor access → suspicious immediately (Figure 3's trigger)
//   - ≥ BruteForceThreshold consecutive auth failures → suspicious
//   - device state changes surface as env variables
//     "<device>_<attr>" so policies can condition on them
func (v *View) HandleDeviceEvent(ctx context.Context, e device.Event) {
	switch e.Kind {
	case device.EventBackdoorAccess:
		v.SetDeviceContext(ctx, e.Device, policy.ContextSuspicious, "backdoor access: "+e.Detail)
	case device.EventAuthFailure:
		v.mu.Lock()
		v.failures[e.Device]++
		n := v.failures[e.Device]
		threshold := v.BruteForceThreshold
		v.mu.Unlock()
		if n >= threshold {
			v.SetDeviceContext(ctx, e.Device, policy.ContextSuspicious,
				fmt.Sprintf("brute force: %d consecutive auth failures", n))
		}
	case device.EventAuthSuccess:
		v.mu.Lock()
		v.failures[e.Device] = 0
		v.mu.Unlock()
	case device.EventStateChange, device.EventSensor:
		if attr, val, ok := strings.Cut(e.Detail, "="); ok {
			v.SetEnv(ctx, e.Device+"_"+attr, val, "device report")
		}
	}
}

// HandleAlert folds an IDS alert into the view: any signature match
// against a device marks it suspicious; block-action matches mark it
// compromised.
func (v *View) HandleAlert(ctx context.Context, deviceName string, a ids.Alert) {
	sc := policy.ContextSuspicious
	if a.Action == ids.ActionBlock {
		sc = policy.ContextCompromised
	}
	v.SetDeviceContext(ctx, deviceName, sc, fmt.Sprintf("ids sid=%d %s", a.SID, a.Msg))
}

// HandleAnomaly folds an anomaly detection into the view.
func (v *View) HandleAnomaly(ctx context.Context, a ids.Anomaly) {
	v.SetDeviceContext(ctx, a.Device, policy.ContextSuspicious,
		fmt.Sprintf("anomaly %s: %s", a.Kind, a.Detail))
}
