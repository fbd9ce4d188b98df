package main

import (
	"fmt"
	"strconv"
	"strings"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/mbox"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
)

// Credentials the password proxy demands in place of the factory ones.
const (
	adminUser = "homeadmin"
	adminPass = "Str0ng!pass"
	// challengeSolution is the platform's default robot-check answer.
	challengeSolution = "7hills"
)

// standardPosture is the hardening IoTSec applies to a SKU by default:
// a password proxy in front of factory or exposed credentials, a DNS
// guard for open resolvers, a gate on the mutating commands of
// open-access devices, an IDS for backdoored SKUs, a robot check for
// weak passwords, and a stateful firewall for everyone.
func standardPosture(profile device.Profile) policy.Posture {
	var p policy.Posture
	if profile.HasVuln(device.VulnDefaultCredentials) || profile.HasVuln(device.VulnExposedKey) {
		p.Modules = append(p.Modules, policy.ModuleSpec{
			Kind:   "password-proxy",
			Config: map[string]string{"user": adminUser, "pass": adminPass},
		})
	}
	if profile.HasVuln(device.VulnOpenDNSResolver) {
		p.Modules = append(p.Modules, policy.ModuleSpec{Kind: "dns-guard"})
	}
	if profile.HasVuln(device.VulnOpenAccess) {
		p.BlockCommands = append(p.BlockCommands, "SET", "RELAY", "SET_CALIBRATION", "TUNE", "UPDATE", "SCAN_NET")
	}
	if profile.HasVuln(device.VulnBackdoor) {
		p.Modules = append(p.Modules, policy.ModuleSpec{Kind: "ids"})
	}
	if profile.HasVuln(device.VulnWeakPassword) {
		p.Modules = append(p.Modules, policy.ModuleSpec{Kind: "robot-check"})
	}
	p.Modules = append(p.Modules, policy.ModuleSpec{Kind: "stateful-fw"})
	return p
}

// elementsFor builds, from the public mbox constructors, the element
// chain a posture implies for a device of the given profile, in the
// order the platform installs it. rules are the SKU's IDS rules;
// adminIP is the platform's management host (zero when it has none).
func elementsFor(profile device.Profile, posture policy.Posture, rules []*ids.Rule, adminIP packet.IPv4Address) []mbox.Element {
	if posture.Isolate {
		return []mbox.Element{mbox.NewHeaderFilter(mbox.Deny)}
	}
	var out []mbox.Element
	if len(posture.BlockCommands) > 0 {
		out = append(out, mbox.NewContextGate(func(string) bool { return false }, posture.BlockCommands...))
	}
	if posture.RateLimit > 0 {
		out = append(out, mbox.NewRateLimiter(posture.RateLimit, int(posture.RateLimit)))
	}
	for _, spec := range posture.Modules {
		switch spec.Kind {
		case "password-proxy":
			user, pass, _ := strings.Cut(profile.VulnDetail(device.VulnDefaultCredentials), ":")
			out = append(out, mbox.NewPasswordProxy(spec.Config["user"], spec.Config["pass"], user, pass))
		case "ids":
			out = append(out, &mbox.IDSElement{Engine: ids.NewEngine(rules)})
		case "rate-limiter":
			rate, _ := strconv.ParseFloat(spec.Config["rate"], 64)
			if rate <= 0 {
				rate = 50
			}
			out = append(out, mbox.NewRateLimiter(rate, int(rate)))
		case "dns-guard":
			allowed := map[packet.IPv4Address]bool{}
			if !adminIP.IsZero() {
				allowed[adminIP] = true
			}
			out = append(out, &mbox.DNSGuard{AllowedClients: allowed, MaxResponseBytes: 512})
		case "stateful-fw":
			out = append(out, mbox.NewStatefulFirewall(device.MgmtPort))
		case "robot-check":
			out = append(out, mbox.NewChallenge(challengeSolution))
		default:
			out = append(out, &mbox.Logger{})
		}
	}
	return append(out, &mbox.Logger{})
}

// securityChain lists element names without the observability-only
// logger, so a chain check compares what enforces, not what logs.
func securityChain(names []string) string {
	kept := make([]string, 0, len(names))
	for _, n := range names {
		if n != "logger" {
			kept = append(kept, n)
		}
	}
	return strings.Join(kept, ">")
}

// chainOf is securityChain over built elements.
func chainOf(elems []mbox.Element) string {
	names := make([]string, len(elems))
	for i, e := range elems {
		names[i] = e.Name()
	}
	return securityChain(names)
}

// checkChain compares a live pipeline with the chain its posture implies.
func checkChain(dev string, live []string, want string) error {
	if got := securityChain(live); got != want {
		return fmt.Errorf("%s: pipeline %q, posture implies %q", dev, got, want)
	}
	return nil
}

// scopedPolicies scopes one policy per partition the way local
// controllers are scoped: a group's policy holds the group's devices
// and the rules whose conditions all read environment variables local
// to the group (levels "a" and "b"). Traced probes look postures up in
// these replicas, never in the live controllers' policies.
func scopedPolicies(part *controller.Partitioning, rules []policy.Rule, envLocality map[string]int) map[int]*policy.FSM {
	out := make(map[int]*policy.FSM, len(part.Groups))
	doms := make(map[int]*policy.Domain, len(part.Groups))
	for g, members := range part.Groups {
		doms[g] = policy.NewDomain()
		out[g] = policy.NewFSM(doms[g])
		for _, name := range members {
			doms[g].AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
		}
	}
	for _, r := range rules {
		if g, ok := localGroup(r, envLocality); ok {
			for _, c := range r.Conditions {
				doms[g].AddEnvVar(strings.TrimPrefix(c.Var, "env:"), "a", "b")
			}
			out[g].AddRule(r)
		}
	}
	return out
}

// localGroup is the group whose local controller owns r: every
// condition reads an environment variable local to that one group.
func localGroup(r policy.Rule, envLocality map[string]int) (int, bool) {
	g := -1
	for _, c := range r.Conditions {
		v, ok := strings.CutPrefix(c.Var, "env:")
		if !ok {
			return 0, false
		}
		cg, ok := envLocality[v]
		if !ok || (g >= 0 && cg != g) {
			return 0, false
		}
		g = cg
	}
	return g, g >= 0
}

// probePolicy times, under root, the benchmark's own calls on an
// event's policy path: the view's state, the policy lookup and the
// keys of the postures it returns.
func probePolicy(tr *tracer, op, root uint64, view *controller.View, fsm *policy.FSM) {
	t := tr.now()
	state := view.State()
	tr.child(op, root, "controller.view_state", t)
	t = tr.now()
	postures := fsm.Lookup(state)
	tr.child(op, root, "policy.lookup", t)
	t = tr.now()
	for _, p := range postures {
		_ = p.Key()
	}
	tr.add(span{ID: tr.id(), Parent: root, Op: op, Name: "policy.posture_key", Start: t, End: tr.now(), Items: len(postures)})
}
