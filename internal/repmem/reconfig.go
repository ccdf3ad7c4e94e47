package repmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/repro/sift/internal/erasure"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// Online reconfiguration (ROADMAP "elastic membership"): the group's member
// set can change while it serves traffic. Two operations exist:
//
//   - ReplaceNode swaps one member for a fresh machine in place, keeping the
//     group size and data geometry. The joining node is brought to
//     byte-identity with a shadow write mirror plus the verified recovery
//     copies, then the slot's identity is cut over under the write gate.
//
//   - Restripe moves the group to a different member set and/or erasure
//     geometry (node count, Fm). Fresh targets are swept to byte-identity
//     under traffic with dirty-range tracking; the cutover re-copies only
//     what changed, commits the new config epoch, and closes this Memory
//     with ErrReconfigured so the owner rebuilds against the new set.
//
// Both commit by advancing the config-epoch word (memnode.AdminEpochOffset)
// after planting the new configuration descriptor on both the outgoing and
// incoming member sets — a discoverer holding any one node can chase to the
// authoritative configuration. Removed nodes are retired: tombstoned,
// de-populated, and write-fenced, so their frozen DRAM can never serve a
// read or accept a data-plane write in the new epoch.

// dirtyMaxRanges bounds the dirty tracker before it degrades to
// whole-space mode (the final drain then re-copies everything).
const dirtyMaxRanges = 4096

// dirtyTracker collects the address ranges mutated while a restripe sweep
// runs, so the cutover can re-copy exactly what the sweep may have missed.
// Writers note ranges while holding their range locks, which orders every
// note against the sweep's locked reads: a write is either fully visible to
// the sweep's copy of its range, or noted and re-copied at cutover.
type dirtyTracker struct {
	mu     sync.Mutex
	ranges []lockRange
	all    bool
}

func newDirtyTracker() *dirtyTracker { return &dirtyTracker{} }

func (t *dirtyTracker) note(addr uint64, size int) {
	if size <= 0 {
		return
	}
	t.mu.Lock()
	if !t.all {
		t.ranges = append(t.ranges, lockRange{addr: addr, size: size})
		if len(t.ranges) > dirtyMaxRanges {
			t.coalesceLocked()
			if len(t.ranges) > dirtyMaxRanges {
				t.all, t.ranges = true, nil
			}
		}
	}
	t.mu.Unlock()
}

// coalesceLocked sorts and merges overlapping/adjacent ranges in place.
func (t *dirtyTracker) coalesceLocked() {
	rs := t.ranges
	if len(rs) < 2 {
		return
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].addr < rs[j].addr })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.addr <= last.addr+uint64(last.size) {
			if end := r.addr + uint64(r.size); end > last.addr+uint64(last.size) {
				last.size = int(end - last.addr)
			}
			continue
		}
		out = append(out, r)
	}
	t.ranges = out
}

// snapshot returns the merged dirty set. all means "treat the whole space
// as dirty" (tracker overflowed).
func (t *dirtyTracker) snapshot() (all bool, ranges []lockRange) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.all {
		return true, nil
	}
	t.coalesceLocked()
	return false, append([]lockRange(nil), t.ranges...)
}

// noteDirtyMain records a main-space mutation for an in-flight restripe
// sweep. No-op (one atomic load) when no restripe is running.
func (m *Memory) noteDirtyMain(addr uint64, size int) {
	if t := m.dirtyMain.Load(); t != nil {
		t.note(addr, size)
	}
}

// noteDirtyDirect records a direct-space mutation for an in-flight restripe
// sweep.
func (m *Memory) noteDirtyDirect(addr uint64, size int) {
	if t := m.dirtyDirect.Load(); t != nil {
		t.note(addr, size)
	}
}

// drainApplies blocks until every reserved WAL index has been applied to
// the materialized memory. The caller must hold the write gate, so no new
// index can be reserved while draining.
func (m *Memory) drainApplies() {
	m.seqMu.Lock()
	for m.watermark+1 != m.nextIndex && !m.closed.Load() {
		m.seqCond.Wait()
	}
	m.seqMu.Unlock()
}

// closeReconfigured closes the memory marking ErrReconfigured as the cause:
// the member set this handle serves is no longer authoritative.
func (m *Memory) closeReconfigured() {
	m.reconfigured.Store(true)
	m.seqMu.Lock()
	m.seqCond.Broadcast()
	m.seqMu.Unlock()
	m.Close()
}

// zeroWAL clears a node's whole write-ahead-log area over conn c.
func (m *Memory) zeroWAL(c rdma.Verbs) error {
	zeros := make([]byte, recoveryBatch)
	walBytes := uint64(m.layout.WALBytes())
	for off := uint64(0); off < walBytes; off += uint64(len(zeros)) {
		chunk := zeros
		if rem := walBytes - off; rem < uint64(len(zeros)) {
			chunk = zeros[:rem]
		}
		if err := c.Write(replRegion, off, chunk); err != nil {
			return err
		}
	}
	return nil
}

// initJoiningNode prepares a freshly dialed node for state transfer: clear
// any retired tombstone from a previous membership, mark it unpopulated (a
// half-copied node must never be trusted by a successor), and zero its WAL.
func (m *Memory) initJoiningNode(c rdma.Verbs) error {
	var zero [8]byte
	if err := c.Write(memnode.AdminRegionID, memnode.AdminRetiredOffset, zero[:]); err != nil {
		return err
	}
	if err := writePopulated(c, memnode.MarkerEmpty); err != nil {
		return err
	}
	return m.zeroWAL(c)
}

// cfgTarget is one node participating in a config-epoch commit.
type cfgTarget struct {
	name     string
	conn     rdma.Verbs
	inOld    bool // member of the outgoing configuration
	inNew    bool // member of the incoming configuration
	retained bool // carries the old epoch word (advance by CAS, not blind write)
}

// commitDescriptor plants rec's encoded descriptor on every target and
// requires a majority of BOTH the outgoing and incoming member sets to
// carry it before the epoch may advance: any future discoverer reaching a
// majority of either set then finds the record. Failing here aborts the
// reconfiguration cleanly — no epoch word has moved.
func commitDescriptor(rec memnode.ConfigRecord, oldN, newN int, targets []cfgTarget) error {
	image, err := memnode.EncodeConfig(rec)
	if err != nil {
		return err
	}
	oldOK, newOK := 0, 0
	for _, t := range targets {
		if t.conn == nil {
			continue
		}
		if err := t.conn.Write(memnode.AdminRegionID, memnode.AdminConfigOffset, image); err != nil {
			continue
		}
		if t.inOld {
			oldOK++
		}
		if t.inNew {
			newOK++
		}
	}
	if oldOK < oldN/2+1 || newOK < newN/2+1 {
		return fmt.Errorf("%w: config descriptor reached %d/%d old and %d/%d new nodes",
			ErrNoQuorum, oldOK, oldN, newOK, newN)
	}
	return nil
}

// advanceEpochWords moves every target's config-epoch word to rec's
// (epoch, term). Retained nodes advance by CAS from their observed word so
// a racing newer configuration can never be regressed; fresh nodes (whose
// exclusive region we hold) and outgoing-only nodes are written directly.
// The commit point of the reconfiguration is the first successful advance
// on an incoming-set node; success requires a majority of the incoming set.
func advanceEpochWords(rec memnode.ConfigRecord, newN int, targets []cfgTarget) error {
	want := memnode.PackServing(rec.Epoch, rec.Term)
	newOK := 0
	for _, t := range targets {
		if t.conn == nil {
			continue
		}
		ok := false
		if !t.retained {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], want)
			ok = t.conn.Write(memnode.AdminRegionID, memnode.AdminEpochOffset, buf[:]) == nil
		} else {
			for attempt := 0; attempt < 4; attempt++ {
				e, tm, err := readEpochWord(t.conn)
				if err != nil {
					break
				}
				cur := memnode.PackServing(e, tm)
				if cur >= want {
					ok = cur == want
					break
				}
				if got, err := t.conn.CompareAndSwap(memnode.AdminRegionID, memnode.AdminEpochOffset, cur, want); err == nil && (got == cur || got == want) {
					ok = true
					break
				}
			}
		}
		if ok && t.inNew {
			newOK++
		}
	}
	if newOK < newN/2+1 {
		return fmt.Errorf("%w: config epoch %d reached %d/%d incoming nodes",
			ErrNoQuorum, rec.Epoch, newOK, newN)
	}
	return nil
}

// writeMembershipTo plants a membership record for the given epoch on one
// node, bypassing the publisher (used at cutover, before the new epoch's
// Memory exists to publish for itself).
func writeMembershipTo(c rdma.Verbs, epoch uint32, term, version uint16, bitmap uint32) error {
	w0, w1 := memnode.PackMembership(epoch, term, version, bitmap)
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], w0)
	binary.LittleEndian.PutUint64(buf[8:], w1)
	return c.Write(memnode.AdminRegionID, memnode.AdminMembershipOffset, buf[:])
}

// retireNode stamps a removed node with the epoch that removed it, clears
// its populated marker, and — by dialing a fresh exclusive connection —
// revokes whatever data-plane connection the node last granted, so writes
// still buffered toward it fail with ErrFenced instead of landing. Best
// effort: an unreachable node cannot serve anyone either, and if it returns
// it returns tombstoned-by-peers (every current node's descriptor names the
// new configuration, which excludes it).
func (m *Memory) retireNode(name string, epoch uint32) {
	c, err := m.cfg.Dial(name)
	if err != nil {
		m.emit("reconfig.retire-unreachable", name, err.Error())
		return
	}
	defer c.Close()
	err = writePopulated(c, memnode.MarkerEmpty)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(epoch))
	if werr := c.Write(memnode.AdminRegionID, memnode.AdminRetiredOffset, buf[:]); err == nil {
		err = werr
	}
	if err != nil {
		// A gray node (dial up, host silent) lands here: the tombstone
		// never reached it, so if it returns it returns undecorated —
		// safety rests on the peers' epoch words and descriptors.
		m.emit("reconfig.retire-unreachable", name, err.Error())
		return
	}
	m.emit("reconfig.retired", name, fmt.Sprintf("epoch %d", epoch))
}

// ReplaceNode swaps group member oldName for the fresh machine newName,
// preserving the group size, data geometry, and — crucially under erasure
// coding — the slot's chunk index. The epoch advances by one; the memory
// keeps serving throughout (writers see added latency only during the brief
// gated cutover).
//
// If the outgoing node is live, its write stream is mirrored to the joining
// node (see shadowNode) while the verified recovery copies bring it to
// byte-identity, so no catch-up delta pass is needed: by cutover time the
// mirror has applied everything the copies missed. If the outgoing node is
// dead, the slot identity is swapped first and the ordinary rebuild
// pipeline runs against the new machine.
func (m *Memory) ReplaceNode(oldName, newName string) error {
	m.reconfigMu.Lock()
	defer m.reconfigMu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	m.transferring.Store(true)
	defer m.transferring.Store(false)
	slot := -1
	for j := range m.nodes {
		switch m.nodeName(j) {
		case oldName:
			slot = j
		case newName:
			return fmt.Errorf("repmem: %q is already a group member", newName)
		}
	}
	if slot < 0 {
		return fmt.Errorf("repmem: unknown memory node %q", oldName)
	}
	next := m.epoch.Load() + 1

	c, err := m.cfg.Dial(newName)
	if err != nil {
		return fmt.Errorf("repmem: dial joining node %s: %w", newName, err)
	}
	if err := m.initJoiningNode(c); err != nil {
		c.Close()
		return fmt.Errorf("repmem: init joining node %s: %w", newName, err)
	}

	if m.state[slot].Load() != nodeDead {
		if err := m.replaceLive(slot, newName, next, c); err != nil {
			return err
		}
	} else {
		if err := m.replaceDead(slot, newName, next, c); err != nil {
			return err
		}
	}

	// The outgoing node leaves the readable set this instant: start the
	// exclusion clock so lease-based backup acks are held long enough for
	// every ≤W-stale backup mask to expire (kv AckHold interplay).
	m.MarkExclusion(time.Now())
	m.publishMembership()
	m.PublishServing()
	m.retireNode(oldName, next)
	m.emit("reconfig.replaced", newName, fmt.Sprintf("replaced %s at epoch %d", oldName, next))
	return nil
}

// newMembersWith returns the member list with slot replaced by name.
func (m *Memory) newMembersWith(slot int, name string) []string {
	members := m.MemberNames()
	members[slot] = name
	return members
}

// replaceTargets builds the epoch-commit target list for a single-slot
// replacement: every writable current member (the outgoing node's conn
// included, pre-swap) plus the joining node's fresh connection.
func (m *Memory) replaceTargets(slot int, joining rdma.Verbs) []cfgTarget {
	var targets []cfgTarget
	for _, i := range m.writableNodes() {
		ci, err := m.conn(i)
		if err != nil {
			continue
		}
		targets = append(targets, cfgTarget{
			name: m.nodeName(i), conn: ci,
			inOld: true, inNew: i != slot, retained: true,
		})
	}
	targets = append(targets, cfgTarget{name: "joining", conn: joining, inNew: true})
	return targets
}

// swapSlot installs conn c and name as slot's identity. The slot's health
// record starts afresh: the new machine has nothing to do with its
// predecessor's history. A slot that was not dead is live from here on.
func (m *Memory) swapSlot(slot int, name string, c rdma.Verbs) {
	h := &m.health[slot]
	h.dialMu.Lock()
	old := m.conns[slot].Swap(&connBox{v: c})
	m.setNodeName(slot, name)
	h.dialMu.Unlock()
	if old != nil && old.v != c {
		old.v.Close()
	}
	m.observe(slot, healthEvent{kind: evSlotSwapped})
}

// replaceLive is the shadow-mirror replacement of a live (or gray) member.
func (m *Memory) replaceLive(slot int, newName string, next uint32, c rdma.Verbs) error {
	sh := newShadowNode(newName, c)
	m.shadows[slot].Store(sh)
	abort := func(err error) error {
		m.shadows[slot].Store(nil)
		sh.detach()
		c.Close()
		return err
	}

	// State transfer under traffic: verified copies of the direct zone and
	// materialized memory, while the mirror forwards every concurrent write.
	// Each copied range is read and written under its range lock, and
	// writers' locks are held until their mirror lands, so every byte is
	// covered by exactly one of copy-after-write or mirror-after-copy.
	if err := m.copyDirectZone(slot, c); err != nil {
		return abort(fmt.Errorf("repmem: state transfer to %s: %w", newName, err))
	}
	if err := m.copyMainMemory(slot, c); err != nil {
		return abort(fmt.Errorf("repmem: state transfer to %s: %w", newName, err))
	}
	if err := sh.Err(); err != nil {
		return abort(fmt.Errorf("repmem: write mirror to %s: %w", newName, err))
	}
	if err := writePopulated(c, memnode.MarkerPopulated); err != nil {
		return abort(fmt.Errorf("repmem: mark %s populated: %w", newName, err))
	}

	// The outgoing node may have died during the transfer, stopping the
	// mirror with it; fall back to the dead-slot pipeline (full rebuild of
	// the joining node — the mirror can no longer be trusted complete).
	if m.state[slot].Load() == nodeDead {
		m.shadows[slot].Store(nil)
		sh.detach()
		return m.replaceDead(slot, newName, next, c)
	}

	// Cutover under the write gate: drain the apply pipeline so every
	// committed WAL entry is materialized everywhere (the joining node's WAL
	// holds only post-attach entries — an entry absent from it must not be
	// needed by any successor), then commit the epoch and swap identities.
	m.gate.Lock()
	m.drainApplies()
	if m.state[slot].Load() == nodeDead {
		m.gate.Unlock()
		m.shadows[slot].Store(nil)
		sh.detach()
		return m.replaceDead(slot, newName, next, c)
	}
	if err := sh.Err(); err != nil {
		m.gate.Unlock()
		return abort(fmt.Errorf("repmem: write mirror to %s: %w", newName, err))
	}
	if err := m.checkOpen(); err != nil {
		m.gate.Unlock()
		return abort(err)
	}

	rec := memnode.ConfigRecord{
		Epoch: next, Term: m.cfg.Term,
		ECData: m.cfg.ECData, ECParity: m.cfg.ECParity, ECBlockSize: m.cfg.ECBlockSize,
		Members: m.newMembersWith(slot, newName),
	}
	n := len(m.nodes)
	targets := m.replaceTargets(slot, c)
	if err := commitDescriptor(rec, n, n, targets); err != nil {
		m.gate.Unlock()
		return abort(err)
	}
	if err := advanceEpochWords(rec, n, targets); err != nil {
		// Some incoming-set epoch words may already carry the new epoch: the
		// outcome is ambiguous, so stop serving and let discovery converge on
		// whichever configuration committed.
		m.gate.Unlock()
		m.shadows[slot].Store(nil)
		sh.detach()
		c.Close()
		m.closeReconfigured()
		return err
	}

	// The epoch first: a gray slot turning live publishes membership, which
	// must be tagged with the epoch whose member list names the new machine.
	m.epoch.Store(next)
	m.swapSlot(slot, newName, c)
	m.shadows[slot].Store(nil)
	m.gate.Unlock()
	sh.detach()
	return nil
}

// replaceDead swaps a dead slot's identity to the joining node and rebuilds
// it through the ordinary recovery pipeline. The epoch is committed BEFORE
// the rebuild: membership bitmaps published during the rebuild must index
// the member list that actually names the joining node, or a successor
// could map the slot's bit back to the outgoing machine and trust its
// frozen DRAM.
func (m *Memory) replaceDead(slot int, newName string, next uint32, c rdma.Verbs) error {
	rec := memnode.ConfigRecord{
		Epoch: next, Term: m.cfg.Term,
		ECData: m.cfg.ECData, ECParity: m.cfg.ECParity, ECBlockSize: m.cfg.ECBlockSize,
		Members: m.newMembersWith(slot, newName),
	}
	n := len(m.nodes)
	targets := m.replaceTargets(slot, c)
	if err := commitDescriptor(rec, n, n, targets); err != nil {
		c.Close()
		return err
	}
	if err := advanceEpochWords(rec, n, targets); err != nil {
		c.Close()
		m.closeReconfigured()
		return err
	}
	m.swapSlot(slot, newName, c)
	m.epoch.Store(next)
	// Slot stays dead until the rebuild completes, exactly as a crashed
	// member would; a successor adopting epoch `next` mid-rebuild sees the
	// joining node unpopulated and absent from the bitmap, and rebuilds it.
	if err := m.rebuildSlot(slot, c); err != nil {
		return fmt.Errorf("repmem: rebuild of joining node %s: %w", newName, err)
	}
	return nil
}

// RestripeTarget describes the configuration Restripe moves the group to.
// The logical memory size, direct-zone size, WAL geometry, and — crucially,
// because the kv layer derives its block layout from it — the EC block size
// are inherited from the current configuration.
type RestripeTarget struct {
	// Members is the incoming member list (order fixes chunk indexes).
	Members []string
	// ECData and ECParity are the incoming erasure geometry. They must be
	// zero iff the current configuration is plain-replicated: an online
	// restripe cannot change the logical block alignment the application
	// layers were built over.
	ECData, ECParity int
}

// RestripeResult reports a committed restripe cutover.
type RestripeResult struct {
	// Record is the committed configuration descriptor (epoch, members,
	// geometry) the owner should rebuild against.
	Record memnode.ConfigRecord
	// CutoverAt is when the outgoing member set stopped being
	// authoritative; the rebuilt memory's exclusion clock must cover it.
	CutoverAt time.Time
}

// Restripe moves the group to the target member set and erasure geometry
// while serving traffic, then commits the new config epoch and closes this
// Memory with ErrReconfigured (the owner rebuilds a Memory over
// Record.Members). Plain-replication restripes keep common nodes without
// copying (every plain node holds the identical full image); erasure-coded
// restripes require an all-new target set — chunk layouts are geometry-
// dependent, and rewriting a retained node in place would corrupt the
// outgoing configuration's state if the coordinator died before the commit.
func (m *Memory) Restripe(t RestripeTarget) (*RestripeResult, error) {
	m.reconfigMu.Lock()
	defer m.reconfigMu.Unlock()
	if err := m.checkOpen(); err != nil {
		return nil, err
	}
	m.transferring.Store(true)
	defer m.transferring.Store(false)

	tgtEC := t.ECData > 0 || t.ECParity > 0
	if tgtEC != (m.code != nil) {
		return nil, fmt.Errorf("repmem: online restripe cannot change between plain replication and erasure coding")
	}
	tcfg := m.cfg
	tcfg.MemoryNodes = t.Members
	tcfg.ECData, tcfg.ECParity = t.ECData, t.ECParity
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}
	tLayout := tcfg.Layout()

	cur := m.MemberNames()
	curSet := make(map[string]bool, len(cur))
	for _, name := range cur {
		curSet[name] = true
	}
	var fresh []string
	retained := make(map[string]bool)
	for _, name := range t.Members {
		if curSet[name] {
			retained[name] = true
		} else {
			fresh = append(fresh, name)
		}
	}
	if tgtEC && len(retained) > 0 {
		return nil, fmt.Errorf("repmem: erasure-coded restripe requires an all-new target node set (retained: %v)", keys(retained))
	}
	if len(fresh) == 0 && len(t.Members) == len(cur) && t.ECData == m.cfg.ECData && t.ECParity == m.cfg.ECParity {
		return nil, fmt.Errorf("repmem: target configuration equals current")
	}
	var removed []string
	tgtSet := make(map[string]bool, len(t.Members))
	for _, name := range t.Members {
		tgtSet[name] = true
	}
	for _, name := range cur {
		if !tgtSet[name] {
			removed = append(removed, name)
		}
	}

	var tCode *erasure.Code
	tChunk := 0
	if tgtEC {
		code, err := erasure.New(t.ECData, t.ECParity)
		if err != nil {
			return nil, err
		}
		tCode = code
		tChunk = m.cfg.ECBlockSize / t.ECData
	}

	next := m.epoch.Load() + 1
	rec := memnode.ConfigRecord{
		Epoch: next, Term: m.cfg.Term,
		ECData: t.ECData, ECParity: t.ECParity, ECBlockSize: tcfg.ECBlockSize,
		Members: append([]string(nil), t.Members...),
	}

	// Phase 0: dial and initialize every fresh target.
	freshConns := make(map[string]rdma.Verbs, len(fresh))
	cleanup := func() {
		for _, c := range freshConns {
			c.Close()
		}
	}
	for _, name := range fresh {
		c, err := m.cfg.Dial(name)
		if err == nil {
			err = m.initJoiningNode(c)
		}
		if err != nil {
			if c != nil {
				c.Close()
			}
			cleanup()
			return nil, fmt.Errorf("repmem: init restripe target %s: %w", name, err)
		}
		freshConns[name] = c
	}
	// sweepConns[j] is the connection for t.Members[j] needing data writes
	// (nil for retained plain nodes, which already hold the full image).
	sweepConns := make([]rdma.Verbs, len(t.Members))
	for j, name := range t.Members {
		sweepConns[j] = freshConns[name]
	}

	// Phase 1: sweep the whole space to the fresh targets under traffic,
	// with the dirty trackers recording concurrent mutations.
	m.dirtyMain.Store(newDirtyTracker())
	m.dirtyDirect.Store(newDirtyTracker())
	defer m.dirtyMain.Store(nil)
	defer m.dirtyDirect.Store(nil)
	m.emit("reconfig.restripe-sweep", "", fmt.Sprintf("epoch %d: %d fresh targets", next, len(fresh)))
	if err := m.sweepDirect(sweepConns, 0, uint64(m.cfg.DirectSize)); err != nil {
		cleanup()
		return nil, err
	}
	if err := m.sweepMain(sweepConns, tCode, tChunk, tLayout, 0, uint64(m.cfg.MemSize)); err != nil {
		cleanup()
		return nil, err
	}

	// Phase 2: gated cutover. No new write can start, and drainApplies
	// guarantees every committed entry is materialized, so the delta
	// re-copy below sees the final state of every dirty range.
	m.gate.Lock()
	m.drainApplies()
	if err := m.checkOpen(); err != nil {
		m.gate.Unlock()
		cleanup()
		return nil, err
	}
	dirtyM := m.dirtyMain.Swap(nil)
	dirtyD := m.dirtyDirect.Swap(nil)
	err := m.replayDirty(dirtyD, uint64(m.cfg.DirectSize), "direct", func(lo, hi uint64) error {
		return m.sweepDirect(sweepConns, lo, hi)
	})
	if err == nil {
		err = m.replayDirty(dirtyM, uint64(m.cfg.MemSize), "main", func(lo, hi uint64) error {
			return m.sweepMain(sweepConns, tCode, tChunk, tLayout, lo, hi)
		})
	}
	if err != nil {
		m.gate.Unlock()
		cleanup()
		return nil, err
	}

	// Every incoming node is now byte-identical: mark fresh ones populated
	// BEFORE the epoch advances, so a committed epoch always implies a
	// usable incoming majority.
	for name, c := range freshConns {
		if err := writePopulated(c, memnode.MarkerPopulated); err != nil {
			m.gate.Unlock()
			cleanup()
			return nil, fmt.Errorf("repmem: mark %s populated: %w", name, err)
		}
	}

	// Commit: descriptor to majorities of both sets, then the epoch words.
	var targets []cfgTarget
	for _, i := range m.writableNodes() {
		ci, err := m.conn(i)
		if err != nil {
			continue
		}
		name := m.nodeName(i)
		targets = append(targets, cfgTarget{
			name: name, conn: ci,
			inOld: true, inNew: retained[name], retained: true,
		})
	}
	for name, c := range freshConns {
		targets = append(targets, cfgTarget{name: name, conn: c, inNew: true})
	}
	if err := commitDescriptor(rec, len(cur), len(t.Members), targets); err != nil {
		m.gate.Unlock()
		cleanup()
		return nil, err
	}
	if err := advanceEpochWords(rec, len(t.Members), targets); err != nil {
		m.gate.Unlock()
		cleanup()
		m.closeReconfigured()
		return nil, err
	}

	// Seed the new epoch's membership record (every incoming node synced)
	// so the rebuilt Memory's takeover hygiene trusts the full set.
	bitmap := uint32(0)
	for j := range t.Members {
		bitmap |= 1 << uint(j)
	}
	for _, tg := range targets {
		if tg.inNew {
			_ = writeMembershipTo(tg.conn, next, m.cfg.Term, 1, bitmap)
		}
	}

	now := time.Now()
	m.gate.Unlock()
	m.closeReconfigured()
	cleanup()
	for _, name := range removed {
		m.retireNode(name, next)
	}
	m.emit("reconfig.restriped", "", fmt.Sprintf("epoch %d: %d members, k=%d m=%d", next, len(t.Members), t.ECData, t.ECParity))
	return &RestripeResult{Record: rec, CutoverAt: now}, nil
}

func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sweepDirect copies the direct-zone range [lo, hi) to every non-nil dst
// connection, batch by batch under read locks (concurrent DirectWrites to a
// batch are excluded for its duration, exactly like a recovery copy).
func (m *Memory) sweepDirect(dst []rdma.Verbs, lo, hi uint64) error {
	buf := make([]byte, recoveryBatch)
	for off := lo; off < hi; off += uint64(len(buf)) {
		n := uint64(len(buf))
		if rem := hi - off; rem < n {
			n = rem
		}
		chunk := buf[:n]
		r := lockRange{addr: off, size: int(n)}
		m.directLocks.acquire(shared, r)
		err := m.readDirectFromLive(off, chunk)
		for _, c := range dst {
			if err != nil {
				break
			}
			if c != nil {
				err = c.Write(replRegion, m.physDirect(off), chunk)
			}
		}
		m.directLocks.release(shared, r)
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepMain copies the main-space range [lo, hi) to the target nodes in the
// TARGET geometry: dst[j] receives member j's share (the full image under
// plain replication, chunk j under erasure coding) plus its integrity strip
// entries. Source reads are verified.
func (m *Memory) sweepMain(dst []rdma.Verbs, tCode *erasure.Code, tChunk int, tLayout memnode.Layout, lo, hi uint64) error {
	if hi > uint64(m.cfg.MemSize) {
		hi = uint64(m.cfg.MemSize)
	}
	if lo >= hi {
		return nil
	}
	if tCode != nil {
		return m.sweepMainEC(dst, tCode, tChunk, tLayout, lo, hi)
	}
	return m.sweepMainPlain(dst, tLayout, lo, hi)
}

// sweepMainPlain handles plain→plain restripes: each target node receives
// the full image, block by block (verified source reads; a corrupt block is
// repaired and retried like a recovery copy).
func (m *Memory) sweepMainPlain(dst []rdma.Verbs, tLayout memnode.Layout, lo, hi uint64) error {
	g := m.integ
	b0 := lo / g.ibs
	b1 := (hi - 1) / g.ibs
	for b := b0; b <= b1; b++ {
		var err error
		for attempt := 0; attempt < 2; attempt++ {
			start, length := g.blockRange(b)
			r := lockRange{addr: start, size: length}
			m.locks.acquire(shared, r)
			var blk []byte
			blk, err = g.readPlainBlockNoRepair(b)
			for _, c := range dst {
				if err != nil {
					break
				}
				if c == nil {
					continue
				}
				if err = c.Write(replRegion, g.physOff(b), blk); err == nil {
					err = c.Write(replRegion, tLayout.IntegrityOffset(b), stripEntry(g.sum(0, b)))
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

// sweepMainEC handles EC→EC restripes: each logical block is reconstructed
// (and verified) through the current geometry, re-encoded with the target
// code, and target chunk j lands on dst[j] with its strip entry.
func (m *Memory) sweepMainEC(dst []rdma.Verbs, tCode *erasure.Code, tChunk int, tLayout memnode.Layout, lo, hi uint64) error {
	B := uint64(m.cfg.ECBlockSize)
	chunks := make([][]byte, len(dst))
	parity := make([]byte, (tCode.M())*tChunk)
	for i := 0; i < tCode.M(); i++ {
		chunks[tCode.K()+i] = parity[i*tChunk : (i+1)*tChunk]
	}
	b0 := lo / B
	b1 := (hi + B - 1) / B
	for b := b0; b < b1; b++ {
		r := lockRange{addr: b * B, size: int(B)}
		m.locks.acquire(shared, r)
		block, _, err := m.readBlockEC(b)
		if err == nil {
			err = tCode.EncodeTo(block, chunks)
		}
		if err == nil {
			for j, c := range dst {
				if c == nil {
					continue
				}
				if err = c.Write(replRegion, tLayout.MainBase()+b*uint64(tChunk), chunks[j]); err != nil {
					break
				}
				if err = c.Write(replRegion, tLayout.IntegrityOffset(b), stripEntry(crcBlock(chunks[j]))); err != nil {
					break
				}
			}
		}
		m.locks.release(shared, r)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayDirty re-copies a dirty tracker's recorded ranges through the given
// sweep function (called at cutover, under the write gate, so the final
// state of every range is what gets copied).
func (m *Memory) replayDirty(t *dirtyTracker, size uint64, space string, sweep func(lo, hi uint64) error) error {
	if t == nil {
		return nil
	}
	all, ranges := t.snapshot()
	if all {
		m.emit("reconfig.dirty-overflow", "", "re-copying entire "+space+" space at cutover")
		return sweep(0, size)
	}
	for _, r := range ranges {
		hi := r.addr + uint64(r.size)
		if hi > size {
			hi = size
		}
		if r.addr >= hi {
			continue
		}
		if err := sweep(r.addr, hi); err != nil {
			return err
		}
	}
	return nil
}
