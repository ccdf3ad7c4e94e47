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
			m.markNodeDead(i)
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

// errSuspectRepair routes a responsive suspect through nodeFailed so the
// ordinary dead-node recovery path repairs it: a suspect may have missed
// best-effort writes while gray, so it must be rebuilt in full before it
// serves reads again.
var errSuspectRepair = fmt.Errorf("repmem: suspect node responsive, repairing")

// errDegradedRepair routes a degraded node whose probes have come back under
// the straggler floor through the same full rebuild — it too received only
// best-effort writes while excluded.
var errDegradedRepair = fmt.Errorf("repmem: degraded node fast again, repairing")

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
				// Probe live nodes so failures are detected even on an idle
				// group (ops would detect them too, but a read-from-cache
				// workload may touch no memory node for a while). Probe
				// timeouts feed the same suspicion counters as op timeouts.
				for _, i := range m.nodesInState(nodeLive) {
					c, err := m.conn(i)
					if err == nil {
						var probe [1]byte
						err = c.Read(replRegion, 0, probe[:])
					}
					if err != nil {
						m.noteConnError(i, c, err)
					}
				}
				// Probe suspects: one that answers again is routed through
				// the dead-node repair below (it may have missed best-effort
				// writes while gray); one that keeps timing out is declared
				// dead after suspectProbeLimit strikes.
				for _, i := range m.nodesInState(nodeSuspect) {
					c, err := m.conn(i)
					if err == nil {
						var probe [1]byte
						err = c.Read(replRegion, 0, probe[:])
					}
					if err == nil {
						m.health[i].probeFails.Store(0)
						m.nodeFailed(i, errSuspectRepair)
					} else if m.health[i].probeFails.Add(1) >= suspectProbeLimit {
						m.nodeFailed(i, err)
					}
				}
				m.probeDegraded()
				m.checkStragglers()
				for _, i := range m.nodesInState(nodeDead) {
					if err := m.recoverNode(i); err == nil {
						m.stats.nodeRecovered.Add(1)
					}
				}
			}
		}
	}()
	return func() { close(done) }
}

// checkStragglers marks live nodes whose smoothed write latency has drifted
// far above the fastest live node's as degraded, so a node that is slow but
// not hung (a gray straggler, Velos-style) stops delaying quorum writes.
// Both a relative bar (stragglerFactor × the best live EWMA) and an
// absolute floor (StragglerMinLatency) must be exceeded, and only nodes
// with at least stragglerMinSamples samples are judged, and never so many
// that fewer than a majority of the group stays live.
//
// Degraded — not suspect: a suspect is repaired the moment it answers a
// probe, which a merely-slow node always does; the repair resets its EWMA,
// the straggler check re-fires once the EWMA refills, and the node loops
// through exclusion and rebuild forever. Sustained slowness (a replica
// across a WAN link) instead parks in the degraded state until its probe
// latency actually recovers — see probeDegraded.
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
		if m.degradeNode(worst, "straggler") {
			m.stats.stragglerSuspects.Add(1)
		}
	}
}

// probeDegraded times a small read against each degraded node. Successful
// probes keep the node's latency EWMA current for the health surface; once
// degradeExitProbes consecutive probes land under the straggler floor the
// slowness has genuinely passed and the node is routed through the full
// rebuild (it may have missed best-effort writes while excluded). Probes
// that fail outright count toward suspectProbeLimit and then death — a
// degraded node that stops answering is just dead.
func (m *Memory) probeDegraded() {
	for _, i := range m.nodesInState(nodeDegraded) {
		c, err := m.conn(i)
		start := time.Now()
		if err == nil {
			var probe [1]byte
			err = c.Read(replRegion, 0, probe[:])
		}
		if err != nil {
			m.health[i].fastProbes.Store(0)
			if m.health[i].probeFails.Add(1) >= suspectProbeLimit {
				m.nodeFailed(i, err)
			}
			continue
		}
		lat := time.Since(start)
		m.health[i].probeFails.Store(0)
		m.health[i].ewma.Observe(float64(lat.Microseconds()))
		if lat < m.cfg.StragglerMinLatency {
			if m.health[i].fastProbes.Add(1) >= degradeExitProbes {
				m.nodeFailed(i, errDegradedRepair)
			}
		} else {
			m.health[i].fastProbes.Store(0)
		}
	}
}

// RecoverNodeNow synchronously attempts to reintegrate the named memory
// node. It is the hook tests and the failure-recovery benchmarks use to
// avoid waiting for the background manager's poll tick. A suspect node is
// demoted to dead first so it goes through the full rebuild.
func (m *Memory) RecoverNodeNow(node string) error {
	for i := range m.nodes {
		if m.nodeName(i) == node {
			if m.state[i].Load() == nodeSuspect {
				m.nodeFailed(i, errSuspectRepair)
			}
			if m.state[i].Load() == nodeDegraded {
				m.nodeFailed(i, errDegradedRepair)
			}
			if m.state[i].Load() == nodeLive {
				// An apparently healthy node may have rebooted without the
				// failure evidence having surfaced yet: an op parked on the
				// old connection only completes with ErrFenced once the
				// node's post-reboot epoch bump is observed. The populated
				// marker disambiguates synchronously — the admin region is
				// shared, so even a stale connection can read it, and a
				// rebooted node reads empty.
				if c, err := m.conn(i); err == nil {
					if populated, err := readPopulated(c); err != nil {
						m.noteConnError(i, c, err)
					} else if !populated {
						m.markNodeDead(i)
					}
				}
			}
			if m.state[i].Load() != nodeDead {
				return nil
			}
			err := m.recoverNode(i)
			if err == nil {
				m.stats.nodeRecovered.Add(1)
			}
			return err
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
	// Reconnect. The old connection (if any) was dropped on failure. A
	// recovery attempt is deliberate, so it bypasses the redial circuit
	// breaker rather than waiting out a backoff opened by the hot path.
	m.redialers[i].reset()
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
	m.state[i].Store(nodeSyncing)

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
	m.health[i].consecTimeouts.Store(0)
	m.health[i].probeFails.Store(0)
	m.health[i].fastProbes.Store(0)
	m.health[i].corruptBlocks.Store(0)
	m.health[i].ewma.Reset()
	m.state[i].Store(nodeLive)
	m.emit("node.recovered", m.nodeName(i), "")
	m.publishMembership()
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

// LiveMemoryNodes returns the names of nodes currently serving reads.
func (m *Memory) LiveMemoryNodes() []string {
	var out []string
	for _, i := range m.nodesInState(nodeLive) {
		out = append(out, m.nodeName(i))
	}
	return out
}

// DeadMemoryNodes returns the names of nodes currently considered failed.
func (m *Memory) DeadMemoryNodes() []string {
	var out []string
	for _, i := range m.nodesInState(nodeDead) {
		out = append(out, m.nodeName(i))
	}
	return out
}

// SuspectMemoryNodes returns the names of nodes currently suspected gray:
// excluded from quorum waits but still receiving writes best-effort.
func (m *Memory) SuspectMemoryNodes() []string {
	var out []string
	for _, i := range m.nodesInState(nodeSuspect) {
		out = append(out, m.nodeName(i))
	}
	return out
}

// DegradedMemoryNodes returns the names of nodes classified as persistently
// slow: served around like suspects, but held out of the repair cycle until
// their probe latency recovers.
func (m *Memory) DegradedMemoryNodes() []string {
	var out []string
	for _, i := range m.nodesInState(nodeDegraded) {
		out = append(out, m.nodeName(i))
	}
	return out
}
