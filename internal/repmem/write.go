package repmem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/wal"
)

// Write commits a single logged update to the main space: the update is
// appended to the write-ahead log on a majority of memory nodes (one
// one-sided RDMA WRITE each) and applied to the materialized memory in the
// background. Write returns as soon as the entry is committed; the affected
// range stays locked until the background apply completes, so subsequent
// reads never observe the pre-write state after a successful Write.
func (m *Memory) Write(addr uint64, data []byte) error {
	return m.WriteBatch([]wal.Write{{Addr: addr, Data: data}})
}

// WriteBatch commits several updates atomically: they occupy a single log
// entry, so they are applied together without interleaving with other
// conflicting writes (paper §3.3.2). The whole batch must fit in one WAL
// slot.
func (m *Memory) WriteBatch(writes []wal.Write) error {
	// The reconfiguration gate: held shared by every write-path entry point,
	// exclusively by a cutover. A writer that blocks here across a cutover
	// wakes to find the memory closed (ErrReconfigured) and retries against
	// the rebuilt group.
	m.gate.RLock()
	defer m.gate.RUnlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	if len(writes) == 0 {
		return nil
	}
	var start time.Time
	if m.cfg.Latency != nil {
		start = time.Now()
	}
	ranges := make([]lockRange, len(writes))
	for i, w := range writes {
		if err := m.checkMainRange(w.Addr, len(w.Data)); err != nil {
			return err
		}
		ranges[i] = m.expandWriteRange(w.Addr, len(w.Data))
	}

	// All of the batch's ranges are taken in one atomic acquisition, so
	// batches whose ranges cross cannot deadlock against each other.
	m.locks.acquire(exclusive, ranges...)
	unlock := func() { m.locks.release(exclusive, ranges...) }

	// Reserve a log index, bounded by the circular log capacity: index i may
	// only be written once entry i-Slots has been applied (its slot is being
	// reused).
	m.seqMu.Lock()
	for m.nextIndex > m.watermark+uint64(m.geo.Slots) && !m.closed.Load() {
		m.seqCond.Wait()
	}
	if m.closed.Load() {
		m.seqMu.Unlock()
		unlock()
		return m.checkOpen()
	}
	idx := m.nextIndex
	m.nextIndex++
	m.seqMu.Unlock()

	entry := wal.Entry{Index: idx, Writes: writes}
	slot := m.getSlot()
	n, err := entry.Encode(slot)
	if err != nil {
		m.putSlot(slot)
		m.finishEntry(idx)
		unlock()
		return fmt.Errorf("repmem: %w", err)
	}
	// Zero the slot tail: recovery compares raw slot bytes against freshly
	// encoded (zero-tailed) images, and pooled buffers carry old payloads.
	clear(slot[n:])

	// appendsDone closes once every node's WAL write has completed, at
	// which point the slot buffer is recyclable and — crucially — no write
	// to this log slot is still in flight, so the slot may be reused by a
	// later entry without racing a straggler.
	appendsDone := make(chan struct{})
	err = m.appendQuorum(idx, slot, func() {
		m.putSlot(slot)
		close(appendsDone)
	})
	if err != nil {
		unlock()
		go func() {
			<-appendsDone
			m.finishEntry(idx)
		}()
		return err
	}
	m.stats.writes.Add(1)
	if h := m.cfg.Latency; h != nil {
		h.Write.Record(time.Since(start))
	}

	// Committed: hand the apply to the background pool. The caller's locks
	// are released by the applier.
	m.applyWG.Add(1)
	go func() {
		m.applySem <- struct{}{}
		defer func() {
			<-m.applySem
			m.applyWG.Done()
		}()
		m.applyEntry(entry)
		unlock()
		<-appendsDone
		m.finishEntry(idx)
		m.stats.applies.Add(1)
	}()
	return nil
}

// appendQuorum writes a WAL slot image to every writable node through the
// per-node workers and returns once a majority has acknowledged (or the
// quorum is unreachable). allDone runs exactly once, after the last
// waited-on node completes — success or failure — when slot may be
// recycled. Suspect nodes receive the slot best-effort on a private copy,
// so a gray node neither delays the quorum nor pins the slot buffer.
func (m *Memory) appendQuorum(idx uint64, slot []byte, allDone func()) error {
	offset := m.geo.SlotOffset(idx)
	wait, bestEffort := m.writeTargets(m.Majority())
	g := newQuorumGroup(len(wait), m.Majority(), allDone)
	for _, i := range wait {
		m.enqueue(i, nodeReq{offset: offset, data: slot, done: g.ack})
	}
	for _, i := range bestEffort {
		m.enqueueBestEffort(i, offset, slot)
	}
	err := m.waitQuorum(g)
	if err != nil {
		if oerr := m.checkOpen(); oerr != nil {
			return oerr
		}
		return err
	}
	return m.checkOpen()
}

// waitQuorum blocks on the quorum group, timing the ack wait into the
// Quorum latency hook.
func (m *Memory) waitQuorum(g *quorumGroup) error {
	if h := m.cfg.Latency; h != nil {
		start := time.Now()
		err := g.wait()
		h.Quorum.Record(time.Since(start))
		return err
	}
	return g.wait()
}

// finishEntry marks idx as applied (or abandoned) and advances the
// contiguous watermark, freeing its slot for reuse.
func (m *Memory) finishEntry(idx uint64) {
	m.seqMu.Lock()
	m.applied[idx] = true
	for m.applied[m.watermark+1] {
		delete(m.applied, m.watermark+1)
		m.watermark++
	}
	m.seqCond.Broadcast()
	m.seqMu.Unlock()
}

// applyEntry writes an entry's updates to the materialized memory on every
// writable node. Failures mark the node dead; the entry remains recoverable
// from the WAL.
func (m *Memory) applyEntry(entry wal.Entry) {
	for _, w := range entry.Writes {
		if m.code != nil {
			m.applyEC(w.Addr, w.Data)
		} else {
			m.applyPlain(w.Addr, w.Data)
		}
	}
}

// fanOutWait enqueues one request — data at offset, then more — to every
// waited-on node and blocks until all their completions arrive. Apply paths
// must wait for every non-suspect node (not just a majority): the caller's
// range lock is what keeps a straggler write from racing a later write to
// the same address, so it cannot be released while any waited-on node's
// write is outstanding. Suspect nodes get the write best-effort on a copied
// buffer — their eventual completion is bounded by the transport deadline
// and cannot race a later write to the same range because the node is
// repaired through full recovery (under the same locks) before it serves
// reads again.
func (m *Memory) fanOutWait(wait, bestEffort []int, offset uint64, data []byte, more ...rdma.Seg) {
	for _, i := range bestEffort {
		m.enqueueBestEffort(i, offset, data, more...)
	}
	if len(wait) == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(wait))
	done := func(error) { wg.Done() }
	for _, i := range wait {
		m.enqueue(i, nodeReq{offset: offset, data: data, more: more, done: done})
	}
	wg.Wait()
}

// applyPlain writes data at a main-space address to all writable nodes
// (full-replication layout); suspects are written best-effort. With
// integrity enabled the write is widened to integrity-block boundaries
// (reading back the partial edge blocks — the caller's expanded write lock
// covers them) and the refreshed strip entries ride in the same request as
// the data, so they land in one flight per node.
func (m *Memory) applyPlain(addr uint64, data []byte) {
	m.noteDirtyMain(addr, len(data))
	wait, bestEffort := m.writeTargets(0)
	if m.integ == nil {
		m.fanOutWait(wait, bestEffort, m.physMain(addr), data)
		return
	}
	span, spanStart, strip, ok := m.integ.buildPlainSpan(addr, data)
	if !ok {
		// No retrievable edge-block content (catastrophic loss); the WAL
		// still holds the entry for future recovery.
		return
	}
	m.fanOutWait(wait, bestEffort, m.physMain(spanStart), span,
		rdma.Seg{Offset: m.integ.stripOff(spanStart / m.integ.ibs), Data: strip})
}

// ecScratch is the pooled per-apply/per-read scratch for the EC hot paths:
// a block buffer for read–modify–write and reconstruction, the encode and
// decode chunk sets with their parity backings, the integrity strip image,
// target-list scratch, and a reusable wait group with a prebound completion
// callback. One scratch serves one applyEC or block-read call at a time;
// pooling it makes the steady-state EC write and read paths allocation-free.
type ecScratch struct {
	block   []byte       // ECBlockSize: RMW source / reconstruction target
	chunks  [][]byte     // k+m encode set; parity entries point into parity
	rchunks [][]byte     // k+m read/decode set
	parity  []byte       // m×chunk encode parity backing
	rparity []byte       // m×chunk read parity backing
	strip   []byte       // 4×(k+m) integrity strip image
	segs    [][]rdma.Seg // per node, capacity 1: the request tail carrying its strip entry
	wait    []int        // writeTargetsInto scratch
	best    []int
	wg      sync.WaitGroup
	done    func(error) // prebound wg.Done adapter
}

// getECScratch takes an EC scratch from the pool, constructing it on first
// use. Only valid when erasure coding is enabled.
func (m *Memory) getECScratch() *ecScratch {
	if v := m.ecPool.Get(); v != nil {
		return v.(*ecScratch)
	}
	n := len(m.nodes)
	k := m.code.K()
	mp := m.code.M()
	sc := &ecScratch{
		block:   make([]byte, m.cfg.ECBlockSize),
		chunks:  make([][]byte, n),
		rchunks: make([][]byte, n),
		parity:  make([]byte, mp*m.chunk),
		rparity: make([]byte, mp*m.chunk),
		strip:   make([]byte, 4*n),
		segs:    make([][]rdma.Seg, n),
		wait:    make([]int, 0, n),
		best:    make([]int, 0, n),
	}
	for i := 0; i < mp; i++ {
		sc.chunks[k+i] = sc.parity[i*m.chunk : (i+1)*m.chunk]
	}
	for i := range sc.segs {
		sc.segs[i] = make([]rdma.Seg, 0, 1)
	}
	sc.done = func(error) { sc.wg.Done() }
	return sc
}

func (m *Memory) putECScratch(sc *ecScratch) { m.ecPool.Put(sc) }

// applyEC applies a main-space update under erasure coding: each affected
// EC block is (re)encoded and chunk j is written to memory node j. Partial
// block updates read–modify–write the block; the caller's write lock covers
// the full block, so the RMW is race-free. All buffers come from the
// pooled scratch — a steady-state whole-block apply allocates nothing.
func (m *Memory) applyEC(addr uint64, data []byte) {
	m.noteDirtyMain(addr, len(data))
	sc := m.getECScratch()
	defer m.putECScratch(sc)
	B := uint64(m.cfg.ECBlockSize)
	first := addr / B
	last := (addr + uint64(len(data)) - 1) / B
	for b := first; b <= last; b++ {
		blockStart := b * B
		lo := max64(addr, blockStart)
		hi := min64(addr+uint64(len(data)), blockStart+B)

		var block []byte
		if lo == blockStart && hi == blockStart+B {
			block = data[lo-addr : hi-addr]
		} else {
			// RMW source read; corrupt chunks are skipped like dead nodes and
			// then overwritten below, so apply itself heals them.
			if _, err := m.readBlockECInto(sc, b, sc.block); err != nil {
				// Cannot reconstruct the block (catastrophic loss); the WAL
				// still holds the entry for future recovery.
				continue
			}
			copy(sc.block[lo-blockStart:], data[lo-addr:hi-addr])
			block = sc.block
		}
		if err := m.code.EncodeTo(block, sc.chunks); err != nil {
			continue
		}
		chunks := sc.chunks
		physOff := m.layout.MainBase() + b*uint64(m.chunk)
		// Node j's request is its chunk and, with integrity on, the chunk's
		// strip entry riding as the request's second segment.
		for j := range chunks {
			sc.segs[j] = sc.segs[j][:0]
			if m.integ != nil {
				sum := crcBlock(chunks[j])
				m.integ.setSum(j, b, sum)
				binary.LittleEndian.PutUint32(sc.strip[4*j:], sum)
				sc.segs[j] = append(sc.segs[j], rdma.Seg{Offset: m.integ.stripOff(b), Data: sc.strip[4*j : 4*j+4]})
			}
		}
		wait, bestEffort := m.writeTargetsInto(0, sc.wait, sc.best)
		for _, i := range bestEffort {
			m.enqueueBestEffort(i, physOff, chunks[i], sc.segs[i]...)
		}
		if len(wait) == 0 {
			continue
		}
		sc.wg.Add(len(wait))
		for _, i := range wait {
			m.enqueue(i, nodeReq{offset: physOff, data: chunks[i], more: sc.segs[i], done: sc.done})
		}
		sc.wg.Wait()
	}
}

// DirectWrite commits data to the direct space in a single RDMA round trip
// per node, without logging (paper §3.3.2: "regions of replicated memory
// [that can] be written to directly, without being logged"). It returns
// once a majority of memory nodes acknowledge. The direct zone is never
// erasure coded — it holds write-ahead data whose unencoded form is exactly
// what makes coordinator+quorum-member double failures survivable (§5.1).
//
// The caller must not modify data until every node's write has completed;
// use DirectWriteOwned to learn when that is.
func (m *Memory) DirectWrite(addr uint64, data []byte) error {
	return m.directWrite(addr, data, nil)
}

// DirectWriteOwned is DirectWrite with buffer handoff: the layer takes
// ownership of data and calls release exactly once — on every return path,
// including validation errors — after the last per-node write has resolved.
// The caller may recycle data inside release. release may run on a
// transport goroutine and must not block.
func (m *Memory) DirectWriteOwned(addr uint64, data []byte, release func()) error {
	return m.directWrite(addr, data, release)
}

func (m *Memory) directWrite(addr uint64, data []byte, release func()) error {
	m.gate.RLock()
	defer m.gate.RUnlock()
	if err := m.checkOpen(); err != nil {
		if release != nil {
			release()
		}
		return err
	}
	if err := m.checkDirectRange(addr, len(data)); err != nil {
		if release != nil {
			release()
		}
		return err
	}

	// The range lock is held until every node's write completes (not just
	// the majority that unblocks the caller): a straggler write racing a
	// recovery copy or a later write to the same range on that node would
	// resurrect stale bytes.
	var start time.Time
	if m.cfg.Latency != nil {
		start = time.Now()
	}
	held := lockRange{addr: addr, size: len(data)}
	m.directLocks.acquire(exclusive, held)
	m.noteDirtyDirect(addr, len(data))
	wait, bestEffort := m.writeTargets(m.Majority())
	g := newQuorumGroup(len(wait), m.Majority(), func() {
		m.directLocks.release(exclusive, held)
		if release != nil {
			release()
		}
	})
	off := m.physDirect(addr)
	for _, i := range wait {
		m.enqueue(i, nodeReq{offset: off, data: data, done: g.ack})
	}
	for _, i := range bestEffort {
		m.enqueueBestEffort(i, off, data)
	}
	if err := m.waitQuorum(g); err != nil {
		if oerr := m.checkOpen(); oerr != nil {
			return oerr
		}
		return err
	}
	if err := m.checkOpen(); err != nil {
		return err
	}
	m.stats.directWrites.Add(1)
	if h := m.cfg.Latency; h != nil {
		h.DirectWrite.Record(time.Since(start))
	}
	return nil
}

// UnloggedWrite updates the main space immediately, without a WAL entry.
// It blocks until the update is materialized on every writable node. This
// is for applications that provide their own write-ahead durability (the
// key-value store logs puts in the direct zone and applies blocks through
// this path); a torn update after a coordinator failure is repaired by the
// application replaying its own log.
func (m *Memory) UnloggedWrite(addr uint64, data []byte) error {
	m.gate.RLock()
	defer m.gate.RUnlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	if err := m.checkMainRange(addr, len(data)); err != nil {
		return err
	}
	r := m.expandWriteRange(addr, len(data))
	m.locks.acquire(exclusive, r)
	defer m.locks.release(exclusive, r)
	if m.code != nil {
		m.applyEC(addr, data)
	} else {
		m.applyPlain(addr, data)
	}
	if err := m.checkOpen(); err != nil {
		return err
	}
	// Suspects count toward the quorum here: they still hold the data from
	// before they turned gray plus best-effort copies of everything since,
	// and are repaired in full before rejoining reads.
	alive := 0
	for i := range m.nodes {
		if m.state[i].Load() != nodeDead {
			alive++
		}
	}
	if alive < m.Majority() {
		return fmt.Errorf("%w: lost quorum during unlogged write", ErrNoQuorum)
	}
	return nil
}

// expandWriteRange widens a range so read-modify-write applies and checksum
// verification are covered by the caller's lock: to EC block boundaries
// under erasure coding, to integrity-block boundaries when checksumming
// (identical under EC, where the integrity block is the EC block). Without
// either it returns the range unchanged.
func (m *Memory) expandWriteRange(addr uint64, size int) lockRange {
	var B uint64
	switch {
	case size == 0:
		return lockRange{addr: addr, size: size}
	case m.code != nil:
		B = uint64(m.cfg.ECBlockSize)
	case m.integ != nil:
		B = m.integ.ibs
	default:
		return lockRange{addr: addr, size: size}
	}
	lo := addr / B * B
	hi := (addr + uint64(size) + B - 1) / B * B
	if limit := uint64(m.cfg.MemSize); hi > limit {
		hi = limit
	}
	return lockRange{addr: lo, size: int(hi - lo)}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
