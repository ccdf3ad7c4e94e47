package repmem

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/wal"
)

// Recover performs coordinator-takeover log recovery (paper §3.4.1): it
// reads the circular WAL from every reachable memory node, reconciles them
// into one consistent, up-to-date log, patches nodes whose log differs from
// the merged view, replays the merged log against the materialized memory,
// and finally positions the log cursor after the newest entry. It must be
// called exactly once, before the first Read/Write.
func (m *Memory) Recover() error {
	if err := m.checkOpen(); err != nil {
		return err
	}
	if m.recoveredOnce.Swap(true) {
		return fmt.Errorf("repmem: Recover called twice")
	}

	// Read every live node's WAL area, all reads in flight at once. A node
	// whose area could not be read leaves the group until it is rebuilt,
	// whatever the error was: it would otherwise keep taking writes with a
	// log nobody has reconciled.
	areas := make([][]byte, len(m.nodes))
	reachable := 0
	for i, row := range m.readReplicas(lockRange{addr: 0, size: m.layout.WALBytes()}) {
		if row != nil {
			areas[i] = row[0]
			reachable++
		} else if m.state[i].Load() == nodeLive {
			m.observe(i, healthEvent{kind: evOpError})
		}
	}
	if e := m.checkOpen(); e != nil {
		return e
	}
	if reachable < m.Majority() {
		return fmt.Errorf("%w: read WAL from %d of %d nodes", ErrNoQuorum, reachable, len(m.nodes))
	}

	entries := wal.Reconcile(m.geo, areas)

	// Make every reachable node's log identical to the merged view: write
	// merged entries into their slots and clear slots the merged view does
	// not occupy. Clearing matters: a lingering uncommitted entry could
	// otherwise collide with a future entry that reuses its index.
	desired := make([][]byte, m.geo.Slots)
	for _, e := range entries {
		slot := make([]byte, m.geo.SlotSize)
		if _, err := e.Encode(slot); err != nil {
			return fmt.Errorf("repmem: recovery re-encode: %w", err)
		}
		desired[int(e.Index%uint64(m.geo.Slots))] = slot
	}
	zeros := make([]byte, m.geo.SlotSize)
	for i := range m.nodes {
		if areas[i] == nil {
			continue
		}
		c, err := m.conn(i)
		if err != nil {
			m.nodeFailed(i, err)
			continue
		}
		for s := 0; s < m.geo.Slots; s++ {
			want := desired[s]
			if want == nil {
				want = zeros
			}
			have := areas[i][s*m.geo.SlotSize : (s+1)*m.geo.SlotSize]
			if bytes.Equal(have, want) {
				continue
			}
			if err := c.Write(replRegion, uint64(s*m.geo.SlotSize), want); err != nil {
				m.nodeFailed(i, err)
				break
			}
		}
		if e := m.checkOpen(); e != nil {
			return e
		}
	}

	// Load the checksum cache from the nodes' strips before any verified
	// read or replay RMW consults it.
	if err := m.integ.loadSums(); err != nil {
		return err
	}

	// Replay the merged log in index order. Replaying already-applied
	// entries is safe: every entry that might overwrite them is itself in
	// the window and is replayed afterwards, in order.
	for _, e := range entries {
		m.applyEntry(e)
	}

	m.seqMu.Lock()
	var maxIdx uint64
	if len(entries) > 0 {
		maxIdx = entries[len(entries)-1].Index
	}
	if maxIdx+1 > m.nextIndex {
		m.nextIndex = maxIdx + 1
	}
	m.watermark = m.nextIndex - 1
	m.seqMu.Unlock()
	return nil
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

// recoverNode reintegrates dead node i: reconnect, clear its WAL (its slots
// may hold entries from before the failure that would corrupt a future
// reconciliation), switch it to write-only (syncing) so it receives all new
// updates, then incrementally copy the direct zone and materialized memory
// under read locks — blocking conflicting updates but never blocking reads
// (paper §3.4.2) — and finally mark it readable.
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
// machine — from dead to live member: mark unpopulated, clear the WAL,
// switch the slot to write-only (syncing) so it receives all new updates,
// copy the direct zone and materialized memory under read locks, then mark
// it populated and readable. Shared by ordinary dead-node recovery and by
// node replacement, which swaps the slot's identity to a fresh machine
// first and then rebuilds it through this same pipeline.
func (m *Memory) rebuildSlot(i int, c rdma.Verbs) error {
	// Mark the node unpopulated for the duration of the copy: if this
	// coordinator dies mid-recovery, its successor must rebuild the node
	// rather than read its half-copied memory.
	if err := writePopulated(c, memnode.MarkerEmpty); err != nil {
		m.nodeFailed(i, err)
		return err
	}

	// Clear the WAL area while the node is still excluded from appends.
	if err := m.zeroWAL(c); err != nil {
		m.nodeFailed(i, err)
		return err
	}

	// From here on the node receives every new append, apply, and direct
	// write; reads still avoid it until the copy completes.
	m.observe(i, healthEvent{kind: evRebuildStarted})

	if err := m.copyDirectZone(i, c); err != nil {
		m.nodeFailed(i, err)
		return err
	}
	if err := m.copyMainMemory(i, c); err != nil {
		m.nodeFailed(i, err)
		return err
	}
	if err := writePopulated(c, memnode.MarkerPopulated); err != nil {
		m.nodeFailed(i, err)
		return err
	}
	if !m.observe(i, healthEvent{kind: evRebuildDone}) {
		return fmt.Errorf("repmem: node %s failed during its rebuild", m.nodeName(i))
	}
	return nil
}

// copyDirectZone copies the direct zone to node i in read-locked batches.
// The lock is held across both the source read and the target write so a
// concurrent DirectWrite cannot slip between them and be overwritten by
// stale data.
func (m *Memory) copyDirectZone(i int, c rdma.Verbs) error {
	size := uint64(m.cfg.DirectSize)
	buf := make([]byte, recoveryBatch)
	for off := uint64(0); off < size; off += uint64(len(buf)) {
		n := uint64(len(buf))
		if rem := size - off; rem < n {
			n = rem
		}
		chunk := buf[:n]
		r := lockRange{addr: off, size: int(n)}
		m.directLocks.acquire(shared, r)
		err := m.readDirectFromLive(off, chunk)
		if err == nil {
			err = c.Write(replRegion, m.physDirect(off), chunk)
		}
		m.directLocks.release(shared, r)
		if err != nil {
			return err
		}
	}
	return nil
}

// readDirectFromLive reads a direct-zone range from any live node without
// taking locks (the caller holds them).
func (m *Memory) readDirectFromLive(addr uint64, buf []byte) error {
	for _, j := range m.nodesInState(nodeLive) {
		cj, err := m.conn(j)
		if err == nil {
			if err = cj.Read(replRegion, m.physDirect(addr), buf); err == nil {
				return nil
			}
		}
		m.nodeFailed(j, err)
		if e := m.checkOpen(); e != nil {
			return e
		}
	}
	return fmt.Errorf("%w: no live source for direct copy", ErrNoQuorum)
}

// copyMainMemory copies the materialized memory to node i in read-locked
// batches. Under erasure coding each block is reconstructed from the
// surviving chunks and re-encoded to regenerate exactly the chunk node i is
// responsible for (§5.1: "the coordinator rebuilds each block and encodes
// it to generate the missing chunks").
func (m *Memory) copyMainMemory(i int, c rdma.Verbs) error {
	if m.code != nil {
		B := uint64(m.cfg.ECBlockSize)
		blocks := uint64(m.cfg.MemSize) / B
		k := m.code.K()
		for b := uint64(0); b < blocks; b++ {
			r := lockRange{addr: b * B, size: int(B)}
			m.locks.acquire(shared, r)
			// readBlockEC skips checksum-failing chunks like dead nodes, so
			// corruption on a source node is never copied to the target.
			block, _, err := m.readBlockEC(b)
			var chunk []byte
			if err == nil {
				if i < k {
					chunk = block[i*m.chunk : (i+1)*m.chunk]
				} else {
					var chunks [][]byte
					chunks, err = m.code.Encode(block)
					if err == nil {
						chunk = chunks[i]
					}
				}
				if err == nil {
					err = c.Write(replRegion, m.layout.MainBase()+b*uint64(m.chunk), chunk)
				}
				if err == nil {
					sum := crcBlock(chunk)
					m.integ.setSum(i, b, sum)
					err = c.Write(replRegion, m.integ.stripOff(b), stripEntry(sum))
				}
			}
			m.locks.release(shared, r)
			if err != nil {
				return err
			}
		}
		return nil
	}
	return m.copyMainVerified(i, c)
}

// copyMainVerified copies the plain-replicated main memory block by block,
// verifying each source block against the checksum cache — an unverified
// copy would bless a corrupt source byte-for-byte onto the rebuilt node,
// strip entry and all. A block with no verified source replica is repaired
// (under write locks) and the copy retried.
func (m *Memory) copyMainVerified(i int, c rdma.Verbs) error {
	g := m.integ
	for b := uint64(0); b < uint64(g.blocks); b++ {
		var err error
		for attempt := 0; attempt < 2; attempt++ {
			start, length := g.blockRange(b)
			r := lockRange{addr: start, size: length}
			m.locks.acquire(shared, r)
			var blk []byte
			blk, err = g.readPlainBlockNoRepair(b)
			if err == nil {
				if err = c.Write(replRegion, g.physOff(b), blk); err == nil {
					err = c.Write(replRegion, g.stripOff(b), stripEntry(g.sum(0, b)))
				}
			}
			m.locks.release(shared, r)
			if err == nil || !errors.Is(err, ErrCorrupt) {
				break
			}
			if rerr := g.repairBlocks([]uint64{b}); rerr != nil {
				return rerr
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
