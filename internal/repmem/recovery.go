package repmem

import (
	"fmt"
	"slices"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// Recover is the replicated memory's part of a coordinator takeover (paper
// §3.4.1): it loads the checksum cache from the nodes' strips, marking dead
// every node whose strip cannot be read, and fails with ErrNoQuorum when
// fewer than a majority can be. The main space has no log to replay — the
// application's own log (the key-value store's, in the direct zone) is
// recovered above this layer. It must be called exactly once, before the
// first Read/Write.
func (m *Memory) Recover() error {
	if err := m.checkOpen(); err != nil {
		return err
	}
	if m.recoveredOnce.Swap(true) {
		return fmt.Errorf("repmem: Recover called twice")
	}
	return m.loadSums(m.grp.Load())
}

// recoveryBatch is how many bytes are copied per locked step when
// reintegrating a memory node. Smaller batches degrade write throughput
// more gently; larger ones finish recovery faster (paper §6.5 discusses
// this trade-off).
const recoveryBatch = 64 << 10

// StartRecovery launches the background recovery manager: a goroutine that
// periodically polls failed memory nodes and reintegrates any that have
// come back (paper §3.4.2). The returned function stops the manager.
func (m *Memory) StartRecovery(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if m.checkOpen() != nil {
					return
				}
				// Probe every node not dead: a live one so an idle group
				// (a read-from-cache workload) still detects failures, a
				// suspect or degraded one for readmission (see step).
				g := m.grp.Load()
				for _, mb := range g.members {
					if mb.state.Load() != nodeDead {
						m.probe(mb)
					}
				}
				m.checkStragglers(g)
				for _, i := range g.nodesInState(nodeDead) {
					m.recoverNode(g.members[i])
				}
			}
		}
	}()
	return func() { close(done) }
}

// checkStragglers degrades the live nodes whose write-latency EWMA has
// drifted past the straggler bar (see stragglerFactor), so a node slow but
// not hung (a gray straggler, Velos-style) stops delaying quorum writes.
// Degraded, not suspect: a suspect is repaired as soon as it answers a
// probe, which a merely slow node always does, and would loop through
// exclusion and rebuild forever.
func (m *Memory) checkStragglers(g *group) {
	if m.transferring.Load() {
		return // bulk state transfer in flight: EWMAs are not comparable
	}
	live := g.nodesInState(nodeLive)
	if len(live) < 2 {
		return
	}
	best := -1.0
	for _, i := range live {
		h := &g.members[i].health
		if h.ewma.Count() < stragglerMinSamples {
			continue
		}
		if v := h.ewma.Value(); best < 0 || v < best {
			best = v
		}
	}
	if best < 0 {
		return
	}
	floor := float64(m.cfg.StragglerMinLatency.Microseconds())
	// Degrading is voluntary exclusion, so it stops where one more would
	// leave fewer live nodes than a write quorum: two healthy nodes whose
	// EWMAs a scheduling hiccup inflated in the same pass must not cost the
	// group its writes. The slowest goes first, so a refusal keeps the
	// faster of two stragglers in the quorum.
	for room := len(live) - g.majority(); room > 0; room-- {
		var worst *member
		worstV := 0.0
		for _, i := range live {
			mb := g.members[i]
			if mb.state.Load() != nodeLive || mb.health.ewma.Count() < stragglerMinSamples {
				continue
			}
			if v := mb.health.ewma.Value(); v > best*stragglerFactor && v > floor && v > worstV {
				worst, worstV = mb, v
			}
		}
		if worst == nil {
			return
		}
		m.observe(worst, healthEvent{kind: evStraggler})
	}
}

// RecoverNodeNow runs one recovery-manager round for the named memory node
// synchronously — a node not dead is probed (finding out a live node that
// rebooted, sending a responsive suspect to repair), a node dead after that
// is rebuilt — so tests need not wait for the background manager's tick.
func (m *Memory) RecoverNodeNow(node string) error {
	g := m.grp.Load()
	i := g.index(node)
	if i < 0 {
		return fmt.Errorf("repmem: unknown memory node %q", node)
	}
	mb := g.members[i]
	if mb.state.Load() != nodeDead {
		m.probe(mb)
	}
	if mb.state.Load() != nodeDead {
		return nil
	}
	return m.recoverNode(mb)
}

// recoverNode reintegrates dead member mb: reconnect and rebuild it (see
// rebuildSlot). The copy runs under read locks — blocking conflicting
// updates but never blocking reads (paper §3.4.2) — while the node stays
// dead; it turns live at the rebuild's gated cutover.
func (m *Memory) recoverNode(mb *member) error {
	// Serialize with reconfiguration: a cutover that ran while we waited may
	// have removed the member, or moved it to another index.
	m.reconfigMu.Lock()
	defer m.reconfigMu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	g := m.grp.Load()
	i := slices.Index(g.members, mb)
	if i < 0 || mb.state.Load() != nodeDead {
		return nil
	}
	// Reconnect (the old connection was dropped on failure), bypassing the
	// circuit: a recovery attempt is deliberate.
	mb.health.closeCircuit()
	c, err := m.conn(mb)
	if err != nil {
		return err
	}
	// Probe reachability cheaply before committing to a full copy.
	var probe [1]byte
	if err := c.Read(replRegion, 0, probe[:]); err != nil {
		m.nodeFailed(mb, err)
		return err
	}

	return m.rebuildSlot(g, i, c)
}

// rebuildSlot brings member i of g — the current group, whose connection c
// points at a blank or stale machine — from dead to live. The member stays
// dead, receiving no writes, while catchUp copies the direct zone and
// materialized memory to it in the group's own geometry: under erasure
// coding each block is reconstructed from the surviving chunks and
// re-encoded to regenerate exactly the chunk member i holds (§5.1: "the
// coordinator rebuilds each block and encodes it to generate the missing
// chunks"); source reads are verified either way, so a corrupt source is
// never copied. Under the write gate, after the delta, the node is marked
// populated and turns live.
func (m *Memory) rebuildSlot(g *group, i int, c rdma.Verbs) error {
	mb := g.members[i]
	// Mark the node unpopulated for the duration of the copy: if this
	// coordinator dies mid-recovery, its successor must rebuild the node
	// rather than read its half-copied memory.
	if err := writePopulated(c, memnode.MarkerEmpty); err != nil {
		m.nodeFailed(mb, err)
		return err
	}
	dst := make([]rdma.Verbs, len(g.members))
	dst[i] = c
	err := m.catchUp(g, dst, g, func(cost gateCost) error {
		if err := writePopulated(c, memnode.MarkerPopulated); err != nil {
			return err
		}
		if !m.observe(mb, healthEvent{kind: evRebuildDone, detail: cost.String()}) {
			return fmt.Errorf("repmem: node %s failed during its rebuild", mb.name)
		}
		return nil
	})
	if err != nil {
		m.nodeFailed(mb, err)
	}
	return err
}
