package mbox

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"iotsec/internal/journal"
)

// PlatformKind models what the µmbox instance boots as; the relative
// boot costs follow the systems the paper cites (§5.2): ClickOS-style
// micro-VMs boot in tens of milliseconds, full VMs in seconds.
type PlatformKind string

// Platform kinds and their modeled boot latencies.
const (
	PlatformMicroVM PlatformKind = "microvm" // ClickOS-class, ~30ms
	PlatformFullVM  PlatformKind = "fullvm"  // Ubuntu-VM-class, ~3s
	PlatformProcess PlatformKind = "process" // bare process, ~5ms
)

// BootLatency returns the modeled boot cost.
func BootLatency(k PlatformKind) time.Duration {
	switch k {
	case PlatformMicroVM:
		return 30 * time.Millisecond
	case PlatformFullVM:
		return 3 * time.Second
	case PlatformProcess:
		return 5 * time.Millisecond
	default:
		return 100 * time.Millisecond
	}
}

// sleepModeled charges a scaled boot delay. Sub-millisecond waits are
// yield-spun: time.Sleep rounds short requests up to the kernel tick
// (~1ms on typical hosts), which would swamp a compressed boot model.
func sleepModeled(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= 2*time.Millisecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Errors from the manager.
var (
	ErrNoCapacity    = errors.New("mbox: cluster out of capacity")
	ErrUnknownMbox   = errors.New("mbox: unknown instance")
	ErrDuplicateMbox = errors.New("mbox: instance name already in use")
)

// Server is one machine in the on-premise cluster.
type Server struct {
	Name  string
	Slots int
}

// Instance is a launched µmbox with its placement and lifecycle
// metadata.
type Instance struct {
	Mbox     *Mbox
	Platform PlatformKind
	Server   string
	BootedAt time.Time
	BootTook time.Duration
}

// Manager places and boots µmbox instances on a simulated cluster,
// tracking the instantiation-latency metrics the §5.2 ablation
// reports. Boot latency is modeled by sleeping scaled simulated time.
type Manager struct {
	mu        sync.Mutex
	servers   []Server
	used      map[string]int // server → slots in use
	instances map[string]*Instance

	// TimeScale compresses modeled boot latencies (0.01 = 100×
	// faster than modeled); benchmarks report modeled time. Default 1.
	TimeScale float64

	bootCount   int
	bootTotal   time.Duration // modeled
	reconfCount int
}

// NewManager builds a manager over the given cluster.
func NewManager(servers ...Server) *Manager {
	if len(servers) == 0 {
		servers = []Server{{Name: "server0", Slots: 64}}
	}
	return &Manager{
		servers:   servers,
		used:      make(map[string]int),
		instances: make(map[string]*Instance),
		TimeScale: 1,
	}
}

// place finds a server with a free slot (first fit).
func (m *Manager) place() (string, error) {
	for _, s := range m.servers {
		if m.used[s.Name] < s.Slots {
			return s.Name, nil
		}
	}
	return "", ErrNoCapacity
}

// Launch boots a new µmbox around the pipeline, blocking for the
// (scaled) boot latency — the cost Figure 2's "dynamically launch
// µmbox" arrow pays. The context carries the causal trace of whatever
// decision requested the boot.
func (m *Manager) Launch(ctx context.Context, name string, platform PlatformKind, pipeline *Pipeline) (*Instance, error) {
	ctx = journal.WithTrace(ctx)
	m.mu.Lock()
	if _, dup := m.instances[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDuplicateMbox, name)
	}
	server, err := m.place()
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.used[server]++
	// Reserve the name while booting.
	m.instances[name] = nil
	scale := m.TimeScale
	m.mu.Unlock()

	modeled := BootLatency(platform)
	if scale > 0 {
		sleepModeled(time.Duration(float64(modeled) * scale))
	}

	inst := &Instance{
		Mbox:     NewMbox(name, pipeline),
		Platform: platform,
		Server:   server,
		BootedAt: time.Now(),
		BootTook: modeled,
	}
	m.mu.Lock()
	m.instances[name] = inst
	m.bootCount++
	m.bootTotal += modeled
	m.mu.Unlock()
	mBoots.Inc()
	mBootSeconds.Observe(modeled.Seconds())
	mInstances.Inc()
	journal.Record(ctx, journal.TypeMboxBoot, journal.Info, name,
		fmt.Sprintf("%s on %s (boot %s)", platform, server, modeled))
	return inst, nil
}

// Reconfigure swaps an instance's pipeline live (no reboot, no
// traffic interruption) — the agility §5.2 demands. The context
// carries the causal trace of the posture change that requested it.
func (m *Manager) Reconfigure(ctx context.Context, name string, elements ...Element) error {
	ctx = journal.WithTrace(ctx)
	m.mu.Lock()
	inst := m.instances[name]
	if inst == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownMbox, name)
	}
	m.reconfCount++
	m.mu.Unlock()
	inst.Mbox.Pipeline().Replace(elements...)
	mReconfigures.Inc()
	journal.Record(ctx, journal.TypeMboxReconfig, journal.Info, name,
		fmt.Sprintf("pipeline swapped to %d elements", len(elements)))
	return nil
}

// Terminate destroys an instance, freeing its slot.
func (m *Manager) Terminate(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.instances[name]
	if !ok || inst == nil {
		return fmt.Errorf("%w: %s", ErrUnknownMbox, name)
	}
	delete(m.instances, name)
	m.used[inst.Server]--
	mInstances.Dec()
	return nil
}

// Instance looks up a booted instance.
func (m *Manager) Instance(name string) (*Instance, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.instances[name]
	return inst, ok && inst != nil
}

// Metrics reports boots, mean modeled boot latency, and live
// reconfiguration count.
func (m *Manager) Metrics() (boots int, meanBoot time.Duration, reconfigs int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mean := time.Duration(0)
	if m.bootCount > 0 {
		mean = m.bootTotal / time.Duration(m.bootCount)
	}
	return m.bootCount, mean, m.reconfCount
}

// Capacity reports total and used slots.
func (m *Manager) Capacity() (total, used int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.servers {
		total += s.Slots
		used += m.used[s.Name]
	}
	return total, used
}

// SetFailModeAll flips every launched instance's pipeline fail mode —
// the SLO watchdog's escalation lever: sustained detect→enforce burn
// means enforcement can no longer be trusted to land in time, so the
// µmboxes drop rather than forward when an element misbehaves.
// Returns how many pipelines were switched.
func (m *Manager) SetFailModeAll(mode FailMode) int {
	m.mu.Lock()
	insts := make([]*Instance, 0, len(m.instances))
	for _, inst := range m.instances {
		if inst != nil {
			insts = append(insts, inst)
		}
	}
	m.mu.Unlock()
	n := 0
	for _, inst := range insts {
		p := inst.Mbox.Pipeline()
		if p.FailMode() != mode {
			p.SetFailMode(mode)
			n++
		}
	}
	return n
}

// Instances snapshots the launched instance names (sorted order not
// guaranteed).
func (m *Manager) Instances() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.instances))
	for name, inst := range m.instances {
		if inst != nil {
			out = append(out, name)
		}
	}
	return out
}
