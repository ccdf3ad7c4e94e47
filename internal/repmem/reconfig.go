package repmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/repro/sift/internal/erasure"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// Online reconfiguration: the group's member set and erasure geometry can
// change while it serves traffic. Reconfigure moves the memory to a target
// configuration — a replacement is a target with one name swapped, an add or
// remove a plain target one longer or shorter, a restripe a new geometry —
// and cuts over in place: the Memory, and whatever serves above it, carries
// on over the new group.
//
// Reconfigure, and the rebuild of a dead member (rebuildSlot), bring their
// joining machines up to date the same way: catchUp sweeps the whole space to
// them under traffic while dirty trackers record what writers change behind
// the sweep, then re-copies those ranges and runs the caller's cutover under
// the write gate.
//
// A reconfiguration commits by advancing the config-epoch word
// (memnode.AdminEpochOffset) after planting the new configuration descriptor
// on both the outgoing and incoming member sets — a discoverer holding any
// one node can chase to the authoritative configuration. Removed nodes are
// retired: tombstoned, de-populated, and write-fenced, so their frozen DRAM
// can never serve a read or accept a data-plane write in the new epoch.

// dirtyMaxRanges bounds the dirty tracker before it degrades to
// whole-space mode (the final drain then re-copies everything).
const dirtyMaxRanges = 4096

// dirtyTracker collects the address ranges mutated while a catch-up sweep
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

// noteDirtyMain records a main-space mutation for an in-flight catch-up
// sweep. No-op (one atomic load) when no catch-up is running.
func (m *Memory) noteDirtyMain(addr uint64, size int) {
	if t := m.dirtyMain.Load(); t != nil {
		t.note(addr, size)
	}
}

// noteDirtyDirect records a direct-space mutation for an in-flight catch-up
// sweep.
func (m *Memory) noteDirtyDirect(addr uint64, size int) {
	if t := m.dirtyDirect.Load(); t != nil {
		t.note(addr, size)
	}
}

// initJoiningNode prepares a freshly dialed node for state transfer: clear
// any retired tombstone from a previous membership and mark it unpopulated
// (a half-copied node must never be trusted by a successor).
func initJoiningNode(c rdma.Verbs) error {
	var zero [8]byte
	if err := c.Write(memnode.AdminRegionID, memnode.AdminRetiredOffset, zero[:]); err != nil {
		return err
	}
	return writePopulated(c, memnode.MarkerEmpty)
}

// cfgTarget is one node participating in a config-epoch commit.
type cfgTarget struct {
	conn  rdma.Verbs
	inOld bool // member of the outgoing configuration: carries the old epoch word
	inNew bool // member of the incoming configuration
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
// (epoch, term). Outgoing-set nodes advance by CAS from their observed word
// so a racing newer configuration can never be regressed; joining nodes
// (whose exclusive region we hold) are written directly.
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
		if !t.inOld {
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

// Target is a configuration Reconfigure moves the memory to. The logical
// memory size, the direct-zone size and the EC block size — which the
// application layers derive their block layout from — stay the current
// ones.
type Target struct {
	// Members is the incoming member list (order fixes chunk indexes).
	Members []string
	// ECData and ECParity are the incoming erasure geometry. They must be
	// zero iff the current configuration is plain-replicated: an online
	// reconfiguration cannot change the logical block alignment the
	// application layers were built over.
	ECData, ECParity int
}

// Reconfigure moves the memory to target t while it serves traffic, and
// advances the config epoch by one. A member of the current group is
// retained without a copy when the target names it and — under erasure
// coding — keeps its chunk index under an unchanged code; it carries its
// connection and health record into the new group, so a dead member stays
// dead there and is rebuilt. Every other target member joins: it must be a
// machine outside the current group, and catchUp fills it in the target
// geometry. A current member the target names at another chunk index, or
// under another code, is refused: rewriting it in place would corrupt the
// outgoing configuration's state if the cutover never committed.
//
// The cutover runs under the write gate: the joiners are marked populated,
// the descriptor and epoch committed, the new epoch's membership record
// seeded, the exclusion clock stamped, the group swapped and the removed
// members' connections closed — all before any write can start. A failed
// copy leaves the configuration as it was. An epoch advance that reaches
// some incoming nodes but not a majority leaves the committed configuration
// ambiguous: the memory fences itself (Config.OnFenced) and its owner stands
// down, leaving a successor to discover whichever configuration committed.
func (m *Memory) Reconfigure(t Target) error {
	m.reconfigMu.Lock()
	defer m.reconfigMu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	cur := m.grp.Load()
	next, removed, err := m.plan(cur, t)
	if err != nil {
		return err
	}
	dst := make([]rdma.Verbs, len(next.members))
	var joiners []*member
	closeJoiners := func() {
		for _, mb := range joiners {
			mb.conn.Load().v.Close()
		}
	}
	for j, mb := range next.members {
		if slices.Contains(cur.members, mb) {
			continue
		}
		c, err := m.cfg.Dial(mb.name)
		if err == nil {
			if err = initJoiningNode(c); err != nil {
				c.Close()
			}
		}
		if err != nil {
			closeJoiners()
			return fmt.Errorf("repmem: init joining node %s: %w", mb.name, err)
		}
		mb.conn.Store(&connBox{v: c})
		dst[j] = c
		joiners = append(joiners, mb)
	}

	rec := m.record(next)
	var gate string
	err = m.catchUp(cur, dst, next, func(cost gateCost) error {
		// Every joiner is now up to date: mark it populated BEFORE the epoch
		// advances, so a committed epoch always implies a usable incoming
		// majority.
		for _, mb := range joiners {
			if err := writePopulated(mb.conn.Load().v, memnode.MarkerPopulated); err != nil {
				return fmt.Errorf("repmem: mark %s populated: %w", mb.name, err)
			}
		}
		var targets []cfgTarget
		for _, i := range cur.nodesInState(nodeLive) {
			mb := cur.members[i]
			if c, err := m.conn(mb); err == nil {
				targets = append(targets, cfgTarget{conn: c, inOld: true, inNew: slices.Contains(next.members, mb)})
			}
		}
		for _, mb := range joiners {
			targets = append(targets, cfgTarget{conn: mb.conn.Load().v, inNew: true})
		}
		if err := commitDescriptor(rec, len(cur.members), len(next.members), targets); err != nil {
			return err
		}
		if err := advanceEpochWords(rec, len(next.members), targets); err != nil {
			// Some incoming-set epoch words may carry the new epoch already:
			// stop serving and let a successor discover whichever
			// configuration committed. Should it resolve to the new one after
			// serving writes at the old, the joiners have missed them:
			// unpopulated, they are rebuilt rather than read.
			for _, mb := range joiners {
				_ = writePopulated(mb.conn.Load().v, memnode.MarkerEmpty)
			}
			m.fence(fmt.Sprintf("config epoch %d ambiguous: %v", rec.Epoch, err))
			return err
		}
		// The new epoch's membership record names the live members only, so
		// a successor rebuilds a retained member that is dead here.
		m.startWorkers(next)
		m.publishMembershipOf(next)
		// The outgoing set leaves the readable set this instant: start the
		// exclusion clock so lease-based backup acks are held long enough for
		// every ≤W-stale backup mask to expire (kv AckHold interplay).
		m.MarkExclusion(time.Now())
		m.grp.Store(next)
		for _, mb := range removed {
			mb.retire()
		}
		if m.closed.Load() {
			m.closeGroup(next) // Close ran during the cutover, on the old group
		}
		gate = cost.String()
		return nil
	})
	if err != nil {
		closeJoiners()
		return fmt.Errorf("repmem: reconfigure to epoch %d: %w", rec.Epoch, err)
	}
	m.stopWorkers(cur)
	// A joiner taking the index of a dead member it removed is that slot's
	// recovery.
	for j, mb := range cur.members {
		if j < len(next.members) && slices.Contains(joiners, next.members[j]) && mb.state.Load() == nodeDead && mb.retired.Load() {
			m.stats.nodeRecovered.Add(1)
			m.emit("node.recovered", next.members[j].name, "replaced "+gate)
		}
	}
	m.publishMembership()
	m.PublishServing()
	for _, mb := range removed {
		m.retireNode(mb.name, rec.Epoch)
	}
	if len(joiners) == 1 && len(removed) == 1 && len(next.members) == len(cur.members) && next.code == cur.code {
		m.emit("reconfig.replaced", joiners[0].name, fmt.Sprintf("replaced %s at epoch %d %s", removed[0].name, rec.Epoch, gate))
	} else {
		m.emit("reconfig.restriped", "", fmt.Sprintf("epoch %d: %d members, k=%d m=%d %s", rec.Epoch, len(rec.Members), rec.ECData, rec.ECParity, gate))
	}
	return nil
}

// plan builds the group Reconfigure moves cur to — its workers not started —
// and lists the current members the target removes.
func (m *Memory) plan(cur *group, t Target) (*group, []*member, error) {
	if (t.ECData > 0 || t.ECParity > 0) != (cur.code != nil) {
		return nil, nil, errors.New("repmem: online reconfiguration cannot change between plain replication and erasure coding")
	}
	tcfg := m.cfg
	tcfg.MemoryNodes = t.Members
	tcfg.ECData, tcfg.ECParity = t.ECData, t.ECParity
	if err := tcfg.Validate(); err != nil {
		return nil, nil, err
	}
	k, p := cur.ecGeometry()
	sameCode := t.ECData == k && t.ECParity == p
	code := cur.code
	if !sameCode {
		var err error
		if code, err = erasure.New(t.ECData, t.ECParity); err != nil {
			return nil, nil, err
		}
	}
	members := make([]*member, len(t.Members))
	joining := 0
	for j, name := range t.Members {
		switch i := cur.index(name); {
		case i < 0:
			members[j] = newMember(name, int64(j)+1)
			joining++
		case cur.code == nil || i == j && sameCode:
			members[j] = cur.members[i]
		default:
			return nil, nil, fmt.Errorf("repmem: erasure-coded member %s cannot move from chunk %d of k=%d m=%d to chunk %d of k=%d m=%d in place",
				name, i, k, p, j, t.ECData, t.ECParity)
		}
	}
	var removed []*member
	for _, mb := range cur.members {
		if !slices.Contains(members, mb) {
			removed = append(removed, mb)
		}
	}
	if joining == 0 && len(removed) == 0 && sameCode {
		return nil, nil, errors.New("repmem: target configuration equals current")
	}
	next := newGroup(tcfg, cur.epoch+1, members, code)
	if next.integ = cur.integ; !sameCode {
		next.integ = newIntegrity(tcfg, next)
	}
	return next, removed, nil
}

// catchUp brings the machines in dst up to date with group src — the
// current one — while it serves, writing them in group tgt's geometry and
// filling tgt's checksum rows; dst indexes tgt's members, and tgt is src for
// a rebuild.
// It is the paper's copy under read locks (§3.4.2) with one change: the
// destinations receive no client writes while the sweep runs. Dirty
// trackers note every range a writer changes instead, and once the sweep is
// done the write gate is taken, the noted ranges are copied again, and
// commit — the caller's cutover, which makes the destinations members —
// runs before any write can start. A failed sweep or commit leaves the
// group as it was, apart from whatever commit itself did.

func (m *Memory) catchUp(src *group, dst []rdma.Verbs, tgt *group, commit func(gateCost) error) error {
	m.transferring.Store(true)
	defer m.transferring.Store(false)
	m.dirtyMain.Store(newDirtyTracker())
	m.dirtyDirect.Store(newDirtyTracker())
	defer m.dirtyMain.Store(nil)
	defer m.dirtyDirect.Store(nil)
	pace := new(pacer)
	copyDirect := func(lo, hi uint64) error { return m.sweepDirect(src, dst, lo, hi, pace) }
	copyMain := func(lo, hi uint64) error { return m.sweepMain(src, dst, tgt, lo, hi, pace) }
	if err := copyDirect(0, uint64(m.cfg.DirectSize)); err != nil {
		return err
	}
	if err := copyMain(0, uint64(m.cfg.MemSize)); err != nil {
		return err
	}

	// No write is in flight or can start, so the delta sees the final state
	// of every dirty range.
	m.gate.Lock()
	defer m.gate.Unlock()
	cost := gateCost{start: time.Now()}
	if err := m.checkOpen(); err != nil {
		return err
	}
	if err := m.replayDirty(m.dirtyDirect.Swap(nil), uint64(m.cfg.DirectSize), "direct", copyDirect, &cost); err != nil {
		return err
	}
	if err := m.replayDirty(m.dirtyMain.Swap(nil), uint64(m.cfg.MemSize), "main", copyMain, &cost); err != nil {
		return err
	}
	return commit(cost)
}

// pacer gives a long CPU-bound loop's processor up about once a
// millisecond. Over in-process verbs a catch-up sweep or a scrub never
// blocks, and the runtime preempts a running goroutine only after 10 ms;
// until then the timers queued on its processor wait, the coordinator's
// heartbeat ticker among them — longer than a backup's suspicion window
// when the heartbeat interval is a few milliseconds.
type pacer struct{ last time.Time }

// step blocks for a goroutine switch if a millisecond has passed since the
// last one (or since the first step). Blocking runs the processor's expired
// timers and what they wake, and the loop is woken straight back onto the
// processor; runtime.Gosched would queue it behind every runnable goroutine
// instead, which cost back to back replacements under a writer a tenth of
// their puts.
func (p *pacer) step() {
	if p.last.IsZero() {
		p.last = time.Now()
		return
	}
	if time.Since(p.last) < time.Millisecond {
		return
	}
	done := make(chan struct{})
	go close(done)
	<-done
	p.last = time.Now()
}

// gateCost is what a catch-up's cutover cost writers: the ranges and bytes
// its delta re-copied under the write gate, and when it took the gate.
type gateCost struct {
	start         time.Time
	ranges, bytes int
}

// String formats the cost for a cutover's event detail; the gate hold is
// measured up to the call, which cutovers make last.
func (g gateCost) String() string {
	return fmt.Sprintf("gate=%.3fms delta_ranges=%d delta_bytes=%d",
		float64(time.Since(g.start).Microseconds())/1000, g.ranges, g.bytes)
}

// sweepDirect copies the direct-zone range [lo, hi) from src to every
// non-nil dst connection, batch by batch under read locks: concurrent DirectWrites to a
// batch are excluded for its duration, so none can slip between the source
// read and the target write and be overwritten by stale data.
func (m *Memory) sweepDirect(src *group, dst []rdma.Verbs, lo, hi uint64, pace *pacer) error {
	buf := make([]byte, recoveryBatch)
	for off := lo; off < hi; off += uint64(len(buf)) {
		pace.step()
		n := uint64(len(buf))
		if rem := hi - off; rem < n {
			n = rem
		}
		chunk := buf[:n]
		r := lockRange{addr: off, size: int(n)}
		m.directLocks.acquire(shared, r)
		err := m.readDirectFromLive(src, off, chunk)
		for _, c := range dst {
			if err != nil {
				break
			}
			if c != nil {
				err = c.Write(replRegion, src.physDirect(off), chunk)
			}
		}
		m.directLocks.release(shared, r)
		if err != nil {
			return err
		}
	}
	return nil
}

// readDirectFromLive reads a direct-zone range from any live member of g
// without taking locks (the caller holds them).
func (m *Memory) readDirectFromLive(g *group, addr uint64, buf []byte) error {
	for _, j := range g.nodesInState(nodeLive) {
		cj, err := m.conn(g.members[j])
		if err == nil {
			if err = cj.Read(replRegion, g.physDirect(addr), buf); err == nil {
				return nil
			}
		}
		m.nodeFailed(g.members[j], err)
		if e := m.checkOpen(); e != nil {
			return e
		}
	}
	return fmt.Errorf("%w: no live source for direct copy", ErrNoQuorum)
}

// sweepMain copies the main-space range [lo, hi) from src to the target
// nodes in tgt's geometry: dst[j] receives member j's share (the full image
// under plain replication, chunk j under erasure coding) plus its integrity
// strip entries. Source reads are verified, so a corrupt source is never
// blessed onto a target, strip entry and all.
func (m *Memory) sweepMain(src *group, dst []rdma.Verbs, tgt *group, lo, hi uint64, pace *pacer) error {
	if hi > uint64(m.cfg.MemSize) {
		hi = uint64(m.cfg.MemSize)
	}
	if lo >= hi {
		return nil
	}
	if tgt.code != nil {
		return m.sweepMainEC(src, dst, tgt, lo, hi, pace)
	}
	return m.sweepMainPlain(src, dst, tgt, lo, hi, pace)
}

// sweepMainPlain handles plain reconfigurations and rebuilds: each target
// node receives the full image, block by block. A block with no verified
// source replica is repaired (under write locks) and retried. The target
// shares src's checksum row, which already holds every block's sum.
func (m *Memory) sweepMainPlain(src *group, dst []rdma.Verbs, tgt *group, lo, hi uint64, pace *pacer) error {
	g := src.integ
	b0 := lo / g.ibs
	b1 := (hi - 1) / g.ibs
	for b := b0; b <= b1; b++ {
		pace.step()
		var err error
		for attempt := 0; attempt < 2; attempt++ {
			start, length := g.blockRange(b)
			r := lockRange{addr: start, size: length}
			m.locks.acquire(shared, r)
			var blk []byte
			blk, err = m.readPlainBlockNoRepair(src, b)
			for _, c := range dst {
				if err != nil {
					break
				}
				if c == nil {
					continue
				}
				if err = c.Write(replRegion, g.physOff(b), blk); err == nil {
					err = c.Write(replRegion, tgt.layout.IntegrityOffset(b), stripEntry(g.sum(0, b)))
				}
			}
			m.locks.release(shared, r)
			if err == nil || !errors.Is(err, ErrCorrupt) {
				break
			}
			if rerr := m.repairBlocks(src, []uint64{b}); rerr != nil {
				return rerr
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepMainEC handles erasure-coded reconfigurations and rebuilds: each
// logical block is reconstructed (and verified) through src's geometry,
// re-encoded with tgt's code, and chunk j lands on dst[j] with its strip
// entry and its sum in tgt's checksum row — a member rebuilt after a
// takeover, or a joiner, has no row loaded.
func (m *Memory) sweepMainEC(src *group, dst []rdma.Verbs, tgt *group, lo, hi uint64, pace *pacer) error {
	B := uint64(m.cfg.ECBlockSize)
	chunks := make([][]byte, len(dst))
	parity := make([]byte, tgt.code.M()*tgt.chunk)
	for i := 0; i < tgt.code.M(); i++ {
		chunks[tgt.code.K()+i] = parity[i*tgt.chunk : (i+1)*tgt.chunk]
	}
	b0 := lo / B
	b1 := (hi + B - 1) / B
	for b := b0; b < b1; b++ {
		pace.step()
		r := lockRange{addr: b * B, size: int(B)}
		m.locks.acquire(shared, r)
		block, _, err := m.readBlockEC(src, b)
		if err == nil {
			err = tgt.code.EncodeTo(block, chunks)
		}
		if err == nil {
			for j, c := range dst {
				if c == nil {
					continue
				}
				sum := crcBlock(chunks[j])
				tgt.integ.setSum(j, b, sum)
				if err = c.Write(replRegion, tgt.layout.MainBase()+b*uint64(tgt.chunk), chunks[j]); err != nil {
					break
				}
				if err = c.Write(replRegion, tgt.layout.IntegrityOffset(b), stripEntry(sum)); err != nil {
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
// sweep function, adding them to cost (called at cutover, under the write
// gate, so the final state of every range is what gets copied).
func (m *Memory) replayDirty(t *dirtyTracker, size uint64, space string, sweep func(lo, hi uint64) error, cost *gateCost) error {
	if t == nil {
		return nil
	}
	all, ranges := t.snapshot()
	if all {
		m.emit("reconfig.dirty-overflow", "", "re-copying entire "+space+" space at cutover")
		ranges = []lockRange{{addr: 0, size: int(size)}}
	}
	for _, r := range ranges {
		hi := min(r.addr+uint64(r.size), size)
		if r.addr >= hi {
			continue
		}
		if err := sweep(r.addr, hi); err != nil {
			return err
		}
		cost.ranges++
		cost.bytes += int(hi - r.addr)
	}
	return nil
}
