package repmem

import (
	"fmt"
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
	return m.integ.loadSums()
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
				if m.closed.Load() {
					return
				}
				// Probe every node not dead: a live one so an idle group
				// (a read-from-cache workload) still detects failures, a
				// suspect or degraded one for readmission (see step).
				for i := range m.nodes {
					if m.state[i].Load() != nodeDead {
						m.probe(i)
					}
				}
				m.checkStragglers()
				for _, i := range m.nodesInState(nodeDead) {
					m.recoverNode(i)
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
func (m *Memory) checkStragglers() {
	if m.transferring.Load() {
		return // bulk state transfer in flight: EWMAs are not comparable
	}
	live := m.nodesInState(nodeLive)
	if len(live) < 2 {
		return
	}
	best := -1.0
	for _, i := range live {
		if m.health[i].ewma.Count() < stragglerMinSamples {
			continue
		}
		if v := m.health[i].ewma.Value(); best < 0 || v < best {
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
	for room := len(live) - m.Majority(); room > 0; room-- {
		worst, worstV := -1, 0.0
		for _, i := range live {
			if m.state[i].Load() != nodeLive || m.health[i].ewma.Count() < stragglerMinSamples {
				continue
			}
			if v := m.health[i].ewma.Value(); v > best*stragglerFactor && v > floor && v > worstV {
				worst, worstV = i, v
			}
		}
		if worst < 0 {
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
	for i := range m.nodes {
		if m.nodeName(i) == node {
			if m.state[i].Load() != nodeDead {
				m.probe(i)
			}
			if m.state[i].Load() != nodeDead {
				return nil
			}
			return m.recoverNode(i)
		}
	}
	return fmt.Errorf("repmem: unknown memory node %q", node)
}

// recoverNode reintegrates dead node i: reconnect and rebuild it (see
// rebuildSlot). The copy runs under read locks — blocking conflicting
// updates but never blocking reads (paper §3.4.2) — while the node stays
// dead; it turns live at the rebuild's gated cutover.
func (m *Memory) recoverNode(i int) error {
	// Serialize with structural reconfiguration: a replacement swapping this
	// very slot's identity mid-copy would leave the copy writing to a
	// connection that no longer belongs to the group.
	m.reconfigMu.Lock()
	defer m.reconfigMu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	if m.state[i].Load() != nodeDead {
		// A reconfiguration that ran while we waited may have rebuilt (or
		// replaced) the node already.
		return nil
	}
	// Reconnect (the old connection was dropped on failure), bypassing the
	// circuit: a recovery attempt is deliberate.
	m.health[i].closeCircuit()
	c, err := m.conn(i)
	if err != nil {
		return err
	}
	// Probe reachability cheaply before committing to a full copy.
	var probe [1]byte
	if err := c.Read(replRegion, 0, probe[:]); err != nil {
		m.nodeFailed(i, err)
		return err
	}

	return m.rebuildSlot(i, c)
}

// rebuildSlot brings slot i — whose connection c points at a blank or stale
// machine — from dead to live member. The slot stays dead, receiving no
// writes, while catchUp copies the direct zone and materialized memory to it
// in this memory's own geometry: under erasure coding each block is
// reconstructed from the surviving chunks and re-encoded to regenerate
// exactly the chunk slot i holds (§5.1: "the coordinator rebuilds each block
// and encodes it to generate the missing chunks"); source reads are
// verified either way, so a corrupt source is never copied. Under the write
// gate, after the delta, the node is marked populated and turns live.
func (m *Memory) rebuildSlot(i int, c rdma.Verbs) error {
	// Mark the node unpopulated for the duration of the copy: if this
	// coordinator dies mid-recovery, its successor must rebuild the node
	// rather than read its half-copied memory.
	if err := writePopulated(c, memnode.MarkerEmpty); err != nil {
		m.nodeFailed(i, err)
		return err
	}
	dst := make([]rdma.Verbs, len(m.nodes))
	dst[i] = c
	err := m.catchUp(dst, m.code, m.chunk, m.layout, func(cost gateCost) error {
		if err := writePopulated(c, memnode.MarkerPopulated); err != nil {
			return err
		}
		if !m.observe(i, healthEvent{kind: evRebuildDone, detail: cost.String()}) {
			return fmt.Errorf("repmem: node %s failed during its rebuild", m.nodeName(i))
		}
		return nil
	})
	if err != nil {
		m.nodeFailed(i, err)
	}
	return err
}
