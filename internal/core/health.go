package core

import (
	"context"
	"fmt"

	"iotsec/internal/journal"
	"iotsec/internal/mbox"
	"iotsec/internal/telemetry"
)

// RegisterHealth registers the platform's core components in a
// component-health registry (the daemon passes
// telemetry.Default.Health() so /readyz aggregates them):
//
//   - "core" (critical): the policy/enforcement loop itself — Down
//     until Start and after Stop, when anomalies would be accepted but
//     never enforced.
//   - "mbox-cluster" (non-critical): µmbox placement capacity —
//     Degraded when every slot is in use, because the next posture
//     change that needs a fresh launch would fail.
func (p *Platform) RegisterHealth(h *telemetry.HealthRegistry) {
	h.Register("core", true, func() (telemetry.HealthState, string) {
		p.mu.Lock()
		started := p.started
		devices := len(p.devices)
		p.mu.Unlock()
		if !started {
			return telemetry.HealthDown, "platform not started (postures are not being enforced)"
		}
		if devices == 0 {
			return telemetry.HealthDegraded, "no devices under management"
		}
		return telemetry.HealthHealthy, ""
	})
	h.Register("mbox-cluster", false, func() (telemetry.HealthState, string) {
		total, used := p.Manager.Capacity()
		if total > 0 && used >= total {
			return telemetry.HealthDegraded, fmt.Sprintf(
				"cluster at capacity (%d/%d slots): next µmbox launch will fail", used, total)
		}
		return telemetry.HealthHealthy, ""
	})
}

// RegisterHealth registers the southbound channel's two halves:
//
//   - "southbound" (critical): the supervised switch agent. Down when
//     the supervisor has given up (reconnect budget exhausted) — the
//     link will not heal on its own; Degraded while reconnecting under
//     backoff (the switch serves its installed table per fail mode).
//   - "controller-steering" (critical): the controller side. Down when
//     zero switch sessions are connected — a quarantine FLOW_MOD
//     issued now would reach no switch.
func (s *Southbound) RegisterHealth(h *telemetry.HealthRegistry) {
	agent := s.Agent
	h.Register("southbound", true, func() (telemetry.HealthState, string) {
		if agent == nil {
			return telemetry.HealthDown, "no switch agent attached"
		}
		if agent.Stopped() {
			return telemetry.HealthDown, fmt.Sprintf(
				"agent supervisor stopped (reconnect budget exhausted; fail-%s, %d events buffered)",
				agent.FailMode(), agent.BufferedEvents())
		}
		if !agent.Connected() {
			return telemetry.HealthDegraded, fmt.Sprintf(
				"session down, reconnecting (fail-%s, %d events buffered, %d reconnects so far)",
				agent.FailMode(), agent.BufferedEvents(), agent.Reconnects())
		}
		return telemetry.HealthHealthy, ""
	})
	steering := s.Steering
	h.Register("controller-steering", true, func() (telemetry.HealthState, string) {
		if steering == nil {
			return telemetry.HealthDown, "no steering application"
		}
		if n := steering.Switches(); n == 0 {
			return telemetry.HealthDown, "no connected southbound switch sessions (quarantine FLOW_MODs have no target)"
		}
		return telemetry.HealthHealthy, ""
	})
}

// RegisterHealth registers the northbound link as
// "sigrepo-link:<identity>" (non-critical: crowd updates are
// advisory, local enforcement works without them).
func (c *CrowdLink) RegisterHealth(h *telemetry.HealthRegistry, identity string) {
	c.mc.RegisterHealth(h, identity, false)
}

// EscalateFailMode forces every launched µmbox pipeline to
// fail-closed — the SLO watchdog's escalation path: when the
// detect→enforce loop is demonstrably too slow, an element failure
// must drop traffic rather than forward it uninspected, because the
// compensating enforcement may not arrive in time. The per-pipeline
// stance in effect at escalation time is snapshotted so
// DeescalateFailMode restores exactly the operator's configuration.
// Idempotent while escalated. The transition is journaled on a fresh
// trace so forensic timelines show what the burn changed. Returns how
// many pipelines switched.
func (p *Platform) EscalateFailMode(reason string) int {
	p.mu.Lock()
	if p.failModeSnapshot == nil {
		snap := make(map[string]mbox.FailMode)
		for _, name := range p.Manager.Instances() {
			if inst, ok := p.Manager.Instance(name); ok {
				snap[name] = inst.Mbox.Pipeline().FailMode()
			}
		}
		p.failModeSnapshot = snap
	}
	p.mu.Unlock()
	n := p.Manager.SetFailModeAll(mbox.FailClosed)
	ctx := journal.WithTrace(context.Background())
	journal.Record(ctx, journal.TypeMboxReconfig, journal.Warn, "",
		fmt.Sprintf("fail-mode escalated to closed on %d pipeline(s): %s", n, reason))
	return n
}

// DeescalateFailMode restores the fail modes captured at escalation
// (pipelines launched during the episode keep fail-closed, the safe
// stance they were born with). No-op when not escalated.
func (p *Platform) DeescalateFailMode(reason string) int {
	p.mu.Lock()
	snap := p.failModeSnapshot
	p.failModeSnapshot = nil
	p.mu.Unlock()
	if snap == nil {
		return 0
	}
	n := 0
	for name, mode := range snap {
		inst, ok := p.Manager.Instance(name)
		if !ok {
			continue
		}
		if pl := inst.Mbox.Pipeline(); pl.FailMode() != mode {
			pl.SetFailMode(mode)
			n++
		}
	}
	ctx := journal.WithTrace(context.Background())
	journal.Record(ctx, journal.TypeMboxReconfig, journal.Info, "",
		fmt.Sprintf("fail-mode restored on %d pipeline(s): %s", n, reason))
	return n
}
