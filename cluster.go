package sift

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/core"
	"github.com/repro/sift/internal/deploy"
	"github.com/repro/sift/internal/election"
	"github.com/repro/sift/internal/faultrdma"
	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/netsim"
	"github.com/repro/sift/internal/obs"
	"github.com/repro/sift/internal/persist"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
)

// Cluster is an in-process Sift deployment: 2F+1 passive memory nodes and a
// set of CPU nodes joined by a simulated RDMA fabric. It exposes a client
// API, failure injection for experiments, and operational introspection.
type Cluster struct {
	cfg  Config
	kcfg kv.Config
	mcfg repmem.Config

	fabric  *netsim.Fabric
	network *rdma.Network
	faults  *faultrdma.Controller // nil unless cfg.FaultInjection
	wan     *wanState             // nil unless cfg.WAN

	memNames []string

	persistDB *persist.DB

	// Observability surface (see obs.go): registry, event ring, and the
	// cross-term latency hooks shared by every coordinator incarnation.
	reg     *obs.Registry
	events  *obs.Ring
	latency *repmem.LatencyHooks
	cm      *clientMetrics

	mu      sync.Mutex
	runners map[uint16]*cpuRunner
	closed  bool

	gaugeMu    sync.Mutex
	nodeGauges map[string]bool // per-node gauges registered (reconfig adds more)

	backupRR atomic.Uint64 // rotates lease reads across follower CPU nodes

	// promoted holds a channel that is closed, and replaced, each time a CPU
	// node starts coordinating: what a client between two attempts waits on.
	promoted atomic.Pointer[chan struct{}]
}

// cpuRunner tracks one CPU node's lifetime.
type cpuRunner struct {
	id     uint16
	node   *core.CPUNode
	cancel context.CancelFunc
	done   chan struct{}
}

// NewCluster builds and starts a deployment. It blocks until a coordinator
// has been elected (bounded by a few seconds) so the returned cluster is
// immediately usable.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()

	var lat netsim.LatencyModel
	switch c.Latency {
	case RDMALatency:
		lat = netsim.RDMADefault()
	case TCPLatency:
		lat = netsim.TCPDefault()
	default:
		lat = netsim.NoLatency{}
	}
	fabric := netsim.NewFabric(lat)
	network := rdma.NewNetwork(fabric)

	kcfg, mcfg, err := deploy.Params{
		F:             c.F,
		EC:            c.ErasureCoding,
		Keys:          c.Keys,
		MaxKey:        c.MaxKeySize,
		MaxValue:      c.MaxValueSize,
		CacheFraction: c.CacheFraction,
		KVWALSlots:    c.KVWALSlots,
	}.Derive()
	if err != nil {
		return nil, err
	}

	mcfg.StragglerMinLatency = c.StragglerMinLatency
	if c.BackupReads {
		// Lease soundness needs acks to imply visibility: writes wait for
		// their apply, and after a node exclusion acks hold until every
		// backup's membership view (≤ LeaseWindow old at use) has rotated.
		kcfg.SyncApply = true
		kcfg.AckHold = c.LeaseWindow + c.ReadInterval
	}
	cl := &Cluster{
		cfg:     c,
		kcfg:    kcfg,
		mcfg:    mcfg,
		fabric:  fabric,
		network: network,
		runners: make(map[uint16]*cpuRunner),
	}
	unpromoted := make(chan struct{})
	cl.promoted.Store(&unpromoted)
	if c.FaultInjection {
		cl.faults = faultrdma.NewController(c.Seed, c.OpDeadline)
	}
	if c.PersistDir != "" {
		db, err := persist.Open(c.PersistDir, persist.Options{Sync: true, CompactThreshold: 4 * kcfg.WALSlots})
		if err != nil {
			return nil, fmt.Errorf("sift: persistence: %w", err)
		}
		cl.persistDB = db
		cl.kcfg.Persist = db
	}

	for i := 0; i < 2*c.F+1; i++ {
		name := fmt.Sprintf("mem%d", i)
		node, err := memnode.New(name, mcfg.Layout())
		if err != nil {
			return nil, err
		}
		network.AddNode(node)
		cl.memNames = append(cl.memNames, name)
	}
	mcfg.MemoryNodes = cl.memNames
	cl.mcfg = mcfg
	if c.WAN != nil {
		if err := cl.initWAN(); err != nil {
			return nil, err
		}
	}
	cl.initObs() // after memNames and WAN state exist, before CPU nodes start

	// The first CPU node founds the group and the others start once it
	// serves, as followers of a coordinator that is already heartbeating.
	// Started beside the founder, a follower deposed it two to four times
	// as often under CPU load (EXPERIMENTS.md, "Time to first service").
	cl.startCPUNodeLocked(1, true)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		cl.Close()
		return nil, err
	}
	for id := 2; id <= c.CPUNodes; id++ {
		cl.startCPUNodeLocked(uint16(id), false)
	}
	return cl, nil
}

// nodeConfig builds one CPU node's configuration.
func (cl *Cluster) nodeConfig(id uint16) core.Config {
	cpuName := fmt.Sprintf("cpu%d", id)
	mcfg := cl.mcfg
	memDial := func(node string) (rdma.Verbs, error) {
		return cl.network.Dial(cpuName, node, rdma.DialOpts{
			Exclusive:  []rdma.RegionID{memnode.ReplRegionID},
			OpDeadline: cl.cfg.OpDeadline,
		})
	}
	electDial := func(node string) (rdma.Verbs, error) {
		return cl.network.Dial(cpuName, node, rdma.DialOpts{OpDeadline: cl.cfg.OpDeadline})
	}
	backupDial := func(node string) (rdma.Verbs, error) {
		return cl.network.Dial(cpuName, node, rdma.DialOpts{
			ReadOnly:   []rdma.RegionID{memnode.ReplRegionID},
			OpDeadline: cl.cfg.OpDeadline,
		})
	}
	if cl.faults != nil {
		memDial = cl.faults.WrapDialer(memDial)
		electDial = cl.faults.WrapDialer(electDial)
		backupDial = cl.faults.WrapDialer(backupDial)
	}
	if cl.wan != nil {
		// WAN wraps outermost: a dropped or delayed op still pays the
		// wide-area flight time before any injected fault can act on it.
		memDial = cl.wrapWANDial(cpuName, memDial)
		electDial = cl.wrapWANDial(cpuName, electDial)
		backupDial = cl.wrapWANDial(cpuName, backupDial)
	}
	mcfg.Dial = memDial
	mcfg.Events = cl.events
	mcfg.Latency = cl.latency
	return core.Config{
		NodeID: id,
		Election: election.Config{
			MemoryNodes:       cl.memNames,
			AdminRegion:       memnode.AdminRegionID,
			AdminOffset:       memnode.AdminWordOffset,
			Dial:              electDial,
			HeartbeatInterval: cl.cfg.HeartbeatInterval,
			ReadInterval:      cl.cfg.ReadInterval,
			MissedBeats:       cl.cfg.MissedBeats,
			Seed:              cl.cfg.Seed + int64(id)*7919,
		},
		Memory:               mcfg,
		KV:                   cl.kcfg,
		NodeRecoveryInterval: cl.cfg.NodeRecoveryInterval,
		ScrubInterval:        cl.cfg.ScrubInterval,
		BackupReads:          cl.cfg.BackupReads,
		LeaseWindow:          cl.cfg.LeaseWindow,
		BackupDial:           backupDial,
		Events:               cl.events,
		OnRoleChange: func(r core.Role) {
			if r == core.Coordinator {
				cl.signalPromotion()
			}
		},
	}
}

// signalPromotion wakes every client waiting out a backoff step: there is a
// coordinator to retry against now.
func (cl *Cluster) signalPromotion() {
	next := make(chan struct{})
	close(*cl.promoted.Swap(&next))
}

// backupGet attempts a lease-based read on a follower CPU node, rotating
// across the running followers. ok is false when no follower could serve it
// (no lease, read anomaly, or key not proven present) — the caller falls
// back to the coordinator path.
func (cl *Cluster) backupGet(key []byte) ([]byte, bool) {
	if !cl.cfg.BackupReads {
		return nil, false
	}
	cl.mu.Lock()
	nodes := make([]*core.CPUNode, 0, len(cl.runners))
	for _, r := range cl.runners {
		nodes = append(nodes, r.node)
	}
	cl.mu.Unlock()
	if len(nodes) == 0 {
		return nil, false
	}
	tried := false
	start := int(cl.backupRR.Add(1))
	for k := 0; k < len(nodes); k++ {
		n := nodes[(start+k)%len(nodes)]
		if n.Role() != core.Follower {
			continue
		}
		tried = true
		v, err := n.BackupGet(key)
		if err == nil {
			cl.cm.backupGets.Inc()
			return v, true
		}
		if errors.Is(err, core.ErrNoLease) {
			cl.cm.leaseRejects.Inc()
		}
	}
	if tried {
		cl.cm.backupFallbacks.Inc()
	}
	return nil, false
}

// startCPUNodeLocked launches CPU node id; caller holds cl.mu or is in
// NewCluster before publication. A founding node campaigns before it first
// watches: NewCluster's memory nodes are fresh, so there is no coordinator
// to wait out, and the campaign's CAS majority keeps it safe even so.
func (cl *Cluster) startCPUNodeLocked(id uint16, founding bool) {
	ctx, cancel := context.WithCancel(context.Background())
	node := core.NewCPUNode(cl.nodeConfig(id))
	r := &cpuRunner{id: id, node: node, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		if founding {
			node.TakeOver(ctx, nil)
		}
		node.Run(ctx)
	}()
	cl.runners[id] = r
}

// Client returns a client handle. Clients are cheap and share the cluster.
func (cl *Cluster) Client() *Client { return &Client{cluster: cl} }

// coordinator returns the current coordinator's store, if any.
func (cl *Cluster) coordinatorStore() *kv.Store {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, r := range cl.runners {
		if r.node.Role() == core.Coordinator {
			if st := r.node.Store(); st != nil {
				return st
			}
		}
	}
	return nil
}

// Coordinator returns the coordinating CPU node's id, or 0 when no
// coordinator is currently elected.
func (cl *Cluster) Coordinator() uint16 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for id, r := range cl.runners {
		if r.node.Role() == core.Coordinator && r.node.Store() != nil {
			return id
		}
	}
	return 0
}

// WaitForCoordinator blocks until a coordinator is serving. It wakes on the
// promotion signal, not on a poll, so it returns as soon as the coordinator
// publishes its store.
func (cl *Cluster) WaitForCoordinator(timeout time.Duration) error {
	limit := time.NewTimer(timeout)
	defer limit.Stop()
	for {
		promoted := *cl.promoted.Load() // before the check: no wake-up is missed
		if cl.coordinatorStore() != nil {
			return nil
		}
		select {
		case <-promoted:
		case <-limit.C:
			return ErrNoCoordinator
		}
	}
}

// Faults returns the fault-injection controller, or nil when the cluster
// was built without Config.FaultInjection. Controller.Node(name) scopes
// injections to one memory node.
func (cl *Cluster) Faults() *faultrdma.Controller { return cl.faults }

// SetLinkLatency replaces the fabric's latency model with a fixed
// base-plus-per-byte cost on every link, taking effect for subsequent
// transfers. Use it to move a running cluster between latency regimes
// (e.g. RDMA-class vs. TCP-class links) in scaling experiments.
func (cl *Cluster) SetLinkLatency(base, perByte time.Duration) {
	cl.fabric.SetLatency(netsim.FixedLatency{Base: base, PerByte: perByte})
}

// Health reports the coordinator's per-memory-node gray-failure view
// (nil when no coordinator is serving).
func (cl *Cluster) Health() []repmem.NodeHealth {
	if st := cl.coordinatorStore(); st != nil {
		return st.MemoryHealth()
	}
	return nil
}

// ScrubNow forces one full synchronous integrity sweep on the current
// coordinator, returning what it found and fixed. It does not wait for the
// background scrub cadence. Like a client operation, it rides out a
// coordinator change within the client retry budget: a sweep that finds no
// coordinator, or whose coordinator is deposed (fenced) under it, runs again
// on the next one.
func (cl *Cluster) ScrubNow() (repmem.ScrubReport, error) {
	var rep repmem.ScrubReport
	c := cl.Client()
	err := c.doUntil(time.Now().Add(c.budget()), func(st *kv.Store) error {
		var err error
		rep, err = st.Memory().ScrubOnce()
		return err
	})
	return rep, err
}

// MemoryNodes returns the current memory node names (for failure
// injection). Reconfiguration changes this set.
func (cl *Cluster) MemoryNodes() []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return append([]string(nil), cl.memNames...)
}

// KillMemoryNode fails a memory node and wipes its (volatile) memory, as a
// machine crash would.
func (cl *Cluster) KillMemoryNode(name string) {
	cl.mu.Lock()
	layout := cl.mcfg.Layout()
	cl.mu.Unlock()
	cl.fabric.Kill(name)
	if node := cl.network.Node(name); node != nil {
		memnode.Reset(node, layout)
	}
}

// RestartMemoryNode brings a failed memory node's machine back (empty). The
// coordinator's recovery manager reintegrates it in the background; use
// AwaitMemoryNodeRecovery to block on that.
func (cl *Cluster) RestartMemoryNode(name string) {
	cl.fabric.Restart(name)
}

// AwaitMemoryNodeRecovery waits until the coordinator reports at least n
// completed memory-node recoveries.
func (cl *Cluster) AwaitMemoryNodeRecovery(n uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := cl.coordinatorStore(); st != nil {
			if st.MemoryStats().NodeRecovered >= n {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("sift: memory node recovery %d not reached in %v", n, timeout)
}

// KillCoordinator crashes the current coordinator CPU node (process-level:
// it stops heartbeating and serving). Returns the killed node's id, or 0
// if there was no coordinator.
func (cl *Cluster) KillCoordinator() uint16 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for id, r := range cl.runners {
		if r.node.Role() == core.Coordinator {
			r.cancel()
			delete(cl.runners, id)
			return id
		}
	}
	return 0
}

// KillCPUNode crashes a specific CPU node.
func (cl *Cluster) KillCPUNode(id uint16) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if r, ok := cl.runners[id]; ok {
		r.cancel()
		delete(cl.runners, id)
	}
}

// StartCPUNode launches a (new or replacement) CPU node with the given id.
func (cl *Cluster) StartCPUNode(id uint16) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return
	}
	if _, exists := cl.runners[id]; exists {
		return
	}
	cl.startCPUNodeLocked(id, false)
}

// ForceFailover deterministically triggers a coordinator change: it crashes
// the current coordinator, starts a replacement CPU node under the given id
// (0 skips the replacement; an id already running is left alone), and waits
// for a successor to win the election. It returns the new coordinator's id.
func (cl *Cluster) ForceFailover(replacement uint16, timeout time.Duration) (uint16, error) {
	cl.events.Emit("cluster.force-failover", "", 0, "killing coordinator")
	old := cl.KillCoordinator()
	if replacement != 0 {
		cl.StartCPUNode(replacement)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if id := cl.Coordinator(); id != 0 && id != old {
			return id, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("sift: no successor coordinator within %v (killed %d)", timeout, old)
}

// Stats reports cluster-level counters from the current coordinator.
type Stats struct {
	CoordinatorID uint16
	KV            kv.Stats
	Memory        repmem.Stats
}

// Stats returns the current coordinator's counters (zero when none).
func (cl *Cluster) Stats() Stats {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for id, r := range cl.runners {
		if r.node.Role() == core.Coordinator {
			if st := r.node.Store(); st != nil {
				return Stats{CoordinatorID: id, KV: st.Stats(), Memory: st.MemoryStats()}
			}
		}
	}
	return Stats{}
}

// Close tears the cluster down.
func (cl *Cluster) Close() {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	cl.closed = true
	runners := make([]*cpuRunner, 0, len(cl.runners))
	for _, r := range cl.runners {
		runners = append(runners, r)
	}
	cl.runners = make(map[uint16]*cpuRunner)
	cl.mu.Unlock()
	for _, r := range runners {
		r.cancel()
	}
	for _, r := range runners {
		<-r.done
	}
	if cl.persistDB != nil {
		cl.persistDB.Close()
	}
}
