package repmem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/wal"
)

// Write updates the main space: see WriteBatch.
func (m *Memory) Write(addr uint64, data []byte) error {
	return m.WriteBatch([]wal.Write{{Addr: addr, Data: data}})
}

// UnloggedWrite is Write. The name is kept for callers built against the
// time the main space also had a logged write path (the benchmark's traced
// probe); new code calls Write.
func (m *Memory) UnloggedWrite(addr uint64, data []byte) error { return m.Write(addr, data) }

// WriteBatch materializes several main-space writes at once, without a log
// of its own: their expanded ranges are locked in one atomic acquisition,
// every node receives all of them as one vectored request, and the call
// returns when the last waited-on node has completed it. The writes' byte
// ranges must be pairwise disjoint; sub-block writes may share an integrity
// or EC block. Nothing orders the writes of one call against each other on a
// node's memory as a reader sees it — a caller that needs "this before that"
// (a block before the pointer to it) makes two calls. Durability is the
// caller's: the key-value store logs every put in the direct zone first, and
// an update torn by a coordinator failure is repaired by replaying that log.
func (m *Memory) WriteBatch(writes []wal.Write) error {
	// The reconfiguration gate: held shared by every write-path entry point,
	// exclusively by a catch-up's delta and cutover. A writer that blocks
	// here across a cutover wakes to the new group and writes to it.
	m.gate.RLock()
	defer m.gate.RUnlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	g := m.grp.Load()
	var buf [stackRanges]lockRange
	ranges := buf[:0]
	for _, w := range writes {
		if err := m.checkMainRange(w.Addr, len(w.Data)); err != nil {
			return err
		}
		ranges = append(ranges, m.expandWriteRange(g, w.Addr, len(w.Data)))
	}
	m.locks.acquire(exclusive, ranges...)
	m.applyWrites(g, writes)
	m.locks.release(exclusive, ranges...)
	if err := m.checkOpen(); err != nil {
		return err
	}
	// Suspects count toward the quorum here: they still hold the data from
	// before they turned gray plus best-effort copies of everything since,
	// and are repaired in full before rejoining reads.
	alive := 0
	for _, mb := range g.members {
		if mb.state.Load() != nodeDead {
			alive++
		}
	}
	if alive < g.majority() {
		return fmt.Errorf("%w: lost quorum during main-space write", ErrNoQuorum)
	}
	return nil
}

// applyUnit is one run of whole integrity/EC blocks that applyWrites sends:
// blocks [b, b+nb) and their bytes, which are either a range of a caller's
// write (whole blocks need no read-back) or a read-back image that every
// sub-block write falling in the block has been overlaid on.
type applyUnit struct {
	b    uint64
	nb   int
	data []byte
}

// applyScratch is the pooled working set of one applyWrites call: the units,
// the per-node segment vectors (one shared vector in plain mode), the strip
// entries and EC parity the segments point into, the target lists and the
// wait group with its prebound completion. A steady-state apply of whole
// blocks allocates nothing.
type applyScratch struct {
	units  []applyUnit
	images map[uint64]int // partial block -> its unit
	segs   [][]rdma.Seg
	strip  []byte
	parity []byte
	chunks [][]byte
	wait   []int
	best   []int
	wg     sync.WaitGroup
	done   func(error) // prebound wg.Done adapter
}

var applyScratchPool = sync.Pool{New: func() any {
	sc := &applyScratch{images: make(map[uint64]int)}
	sc.done = func(error) { sc.wg.Done() }
	return sc
}}

// putApplyScratch drops every reference to caller and image buffers before
// the scratch goes back to the pool.
func putApplyScratch(sc *applyScratch) {
	clear(sc.units)
	sc.units = sc.units[:0]
	clear(sc.images)
	for j := range sc.segs {
		clear(sc.segs[j])
		sc.segs[j] = sc.segs[j][:0]
	}
	clear(sc.chunks)
	applyScratchPool.Put(sc)
}

// applyBlockSize is the unit applyWrites widens to: the integrity block,
// which under erasure coding is the EC block.
func (g *group) applyBlockSize() uint64 { return g.integ.ibs }

// applyWrites materializes main-space writes on every writable node as ONE
// request per node — every block (or chunk) and every strip entry a segment
// of one vectored write — and waits for all of them. The writes' byte ranges
// must be pairwise disjoint and the caller must hold exclusive locks over
// their expanded ranges.
//
// Whole aligned blocks go out straight from the caller's buffers. A block
// that is only partly written is read back once, however many of the writes
// fall in it (two index words, or a bitmap byte and an index word at the
// region boundary, often share one), every such write is overlaid on that
// one image, and the block goes out once with one strip entry — building a
// span per write instead would make the second clobber the first. A block
// whose content cannot be read back (catastrophic loss) is skipped; the
// owner's log still holds the update for a future recovery.
//
// Apply paths wait for every non-suspect node, not just a majority: the
// caller's range lock is what keeps a straggler write from racing a later
// write to the same address, so it cannot be released while any waited-on
// node's write is outstanding. Suspect nodes get the whole request
// best-effort on copied buffers — their eventual completion is bounded by
// the transport deadline and cannot race a later write to the same range
// because the node is repaired through full recovery (under the same locks)
// before it serves reads again.
func (m *Memory) applyWrites(g *group, writes []wal.Write) {
	sc := applyScratchPool.Get().(*applyScratch)
	defer putApplyScratch(sc)
	for len(sc.segs) < len(g.members) {
		sc.segs = append(sc.segs, nil)
	}
	B := g.applyBlockSize()
	for _, w := range writes {
		if len(w.Data) == 0 {
			continue
		}
		m.noteDirtyMain(w.Addr, len(w.Data))
		m.splitWrite(g, sc, B, w)
	}
	if g.code != nil {
		encodeUnits(g, sc)
	} else {
		checksumUnits(g, sc)
	}

	perNode := g.code != nil
	if len(sc.segs[0]) == 0 {
		return
	}
	sc.wait, sc.best = g.writeTargetsInto(0, sc.wait, sc.best)
	vector := func(i int) []rdma.Seg {
		if perNode {
			return sc.segs[i]
		}
		return sc.segs[0]
	}
	for _, i := range sc.best {
		v := vector(i)
		m.enqueueBestEffort(g, i, v[0].Offset, v[0].Data, v[1:]...)
	}
	if len(sc.wait) == 0 {
		return
	}
	sc.wg.Add(len(sc.wait))
	now := time.Now() // one enqueue time for the whole fan-out
	for _, i := range sc.wait {
		v := vector(i)
		m.enqueue(g, i, nodeReq{offset: v[0].Offset, data: v[0].Data, more: v[1:], enq: now, done: sc.done})
	}
	sc.wg.Wait()
}

// splitWrite cuts one write at block boundaries into sc.units: a run of
// whole blocks becomes one unit over the caller's bytes (one block per unit
// under erasure coding, where every block is encoded on its own); a partly
// written block joins, or starts, that block's read-back image.
func (m *Memory) splitWrite(g *group, sc *applyScratch, B uint64, w wal.Write) {
	end := w.Addr + uint64(len(w.Data))
	run := -1 // the unit holding this write's current run of whole blocks
	for b := w.Addr / B; b*B < end; b++ {
		bStart := b * B
		bEnd := min64(bStart+B, uint64(m.cfg.MemSize))
		lo, hi := max64(w.Addr, bStart), min64(end, bEnd)
		if lo == bStart && hi == bEnd {
			if run >= 0 && g.code == nil {
				u := &sc.units[run]
				u.nb++
				u.data = w.Data[u.b*B-w.Addr : hi-w.Addr]
			} else {
				run = len(sc.units)
				sc.units = append(sc.units, applyUnit{b: b, nb: 1, data: w.Data[lo-w.Addr : hi-w.Addr]})
			}
			continue
		}
		at, ok := sc.images[b]
		if !ok {
			at = len(sc.units)
			sc.images[b] = at
			sc.units = append(sc.units, applyUnit{b: b, nb: 1, data: m.readBackBlock(g, b)})
		}
		if img := sc.units[at].data; img != nil {
			copy(img[lo-bStart:], w.Data[lo-w.Addr:hi-w.Addr])
		}
	}
}

// blocks counts the blocks the units cover.
func (sc *applyScratch) blocks() (n int) {
	for _, u := range sc.units {
		n += u.nb
	}
	return n
}

// readBackBlock returns block b's current content in a buffer of its own, or
// nil when no replica (or no k chunks) can supply it. Caller holds the
// block's write lock, so the read-modify-write is race-free; a corrupt
// replica met on the way is skipped like a dead one and then overwritten by
// the apply, which heals it.
func (m *Memory) readBackBlock(g *group, b uint64) []byte {
	if g.code == nil {
		blk, err := m.readPlainBlockLocked(g, b)
		if err != nil {
			return nil
		}
		return blk
	}
	rs := m.getECScratch(g)
	defer g.ecPool.Put(rs)
	blk := make([]byte, m.cfg.ECBlockSize)
	if _, err := m.readBlockECInto(g, rs, b, blk); err != nil {
		return nil
	}
	return blk
}

// checksumUnits renders the plain-mode request shared by every node: each
// unit's bytes, then the strip entries of its blocks as the next segment, so
// data and checksums land in one flight.
func checksumUnits(grp *group, sc *applyScratch) {
	g := grp.integ
	if need := 4 * sc.blocks(); cap(sc.strip) < need {
		sc.strip = make([]byte, need)
	}
	strip := sc.strip[:0]
	for _, u := range sc.units {
		if u.data == nil {
			continue
		}
		entries := strip[len(strip) : len(strip)+4*u.nb]
		strip = strip[:len(strip)+4*u.nb]
		for i, off := 0, 0; i < u.nb; i++ {
			_, bLen := g.blockRange(u.b + uint64(i))
			sum := crcBlock(u.data[off : off+bLen])
			g.setSum(0, u.b+uint64(i), sum)
			binary.LittleEndian.PutUint32(entries[4*i:], sum)
			off += bLen
		}
		sc.segs[0] = append(sc.segs[0],
			rdma.Seg{Offset: grp.physMain(u.b * g.ibs), Data: u.data},
			rdma.Seg{Offset: g.stripOff(u.b), Data: entries})
	}
}

// encodeUnits renders the per-node requests under erasure coding: every
// block is encoded into its own parity buffers, and node j's vector takes
// chunk j of each block followed by that chunk's strip entry.
func encodeUnits(g *group, sc *applyScratch) {
	n, k, C, blocks := len(g.members), g.code.K(), g.chunk, sc.blocks()
	if need := blocks * (n - k) * C; cap(sc.parity) < need {
		sc.parity = make([]byte, need)
	}
	if cap(sc.strip) < 4*n*blocks {
		sc.strip = make([]byte, 4*n*blocks)
	}
	if len(sc.chunks) != n {
		sc.chunks = make([][]byte, n)
	}
	parity, strip := sc.parity[:0], sc.strip[:0]
	for _, u := range sc.units {
		if u.data == nil {
			continue
		}
		for j := k; j < n; j++ {
			sc.chunks[j] = parity[len(parity) : len(parity)+C]
			parity = parity[:len(parity)+C]
		}
		if err := g.code.EncodeTo(u.data, sc.chunks); err != nil {
			continue
		}
		physOff := g.layout.MainBase() + u.b*uint64(C)
		for j, chunk := range sc.chunks {
			sc.segs[j] = append(sc.segs[j], rdma.Seg{Offset: physOff, Data: chunk})
			sum := crcBlock(chunk)
			g.integ.setSum(j, u.b, sum)
			entry := strip[len(strip) : len(strip)+4]
			strip = strip[:len(strip)+4]
			binary.LittleEndian.PutUint32(entry, sum)
			sc.segs[j] = append(sc.segs[j], rdma.Seg{Offset: g.integ.stripOff(u.b), Data: entry})
		}
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
	//
	// The clock is read twice: here, for the latency start and every node
	// request's enqueue time, and once the outcome is decided, for both the
	// Quorum and the DirectWrite histograms.
	start := time.Now()
	g := m.grp.Load()
	held := lockRange{addr: addr, size: len(data)}
	m.directLocks.acquire(exclusive, held)
	m.noteDirtyDirect(addr, len(data))
	var waitBuf, bestBuf [8]int
	need := g.majority()
	wait, bestEffort := g.writeTargetsInto(need, waitBuf[:0], bestBuf[:0])
	q := getQuorumGroup(len(wait), need, &m.directLocks, held, release)
	off := g.physDirect(addr)
	// Copies first: once the last waited-on write is enqueued it may
	// complete, and release recycle data, at any moment.
	for _, i := range bestEffort {
		m.enqueueBestEffort(g, i, off, data)
	}
	for _, i := range wait {
		m.enqueue(g, i, nodeReq{offset: off, data: data, enq: start, done: q.ack})
	}
	err := q.wait()
	var took time.Duration
	h := m.cfg.Latency
	if h != nil {
		took = time.Since(start)
		h.Quorum.Record(took)
	}
	if err != nil {
		if oerr := m.checkOpen(); oerr != nil {
			return oerr
		}
		return err
	}
	if err := m.checkOpen(); err != nil {
		return err
	}
	m.stats.directWrites.Add(1)
	if h != nil {
		h.DirectWrite.Record(took)
	}
	return nil
}

// expandWriteRange widens a range so read-modify-write applies and checksum
// verification are covered by the caller's lock: to EC block boundaries
// under erasure coding, to integrity-block boundaries otherwise (identical
// under EC, where the integrity block is the EC block).
func (m *Memory) expandWriteRange(g *group, addr uint64, size int) lockRange {
	B := g.applyBlockSize()
	if size == 0 {
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
