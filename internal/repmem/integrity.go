package repmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"github.com/repro/sift/internal/memnode"
)

// Checksummed main memory. Every logical integrity block — one EC block
// under erasure coding, IntegrityBlockSize bytes otherwise — carries a
// CRC32C per replica, stored in a strip at the end of each node's
// replicated region and mirrored in a coordinator-side cache. Reads verify
// against the cache (no extra RDMA read on the hot path), a failed check is
// treated like a dead-node read — the data is served from another replica
// or reconstructed from the surviving chunks — and the damaged replica is
// rewritten in place. The strip rides the same one-sided writes as the data
// so a successor coordinator can reload the cache at takeover.

// castagnoli is the CRC32C polynomial table (same polynomial the WAL uses).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcBlock checksums one block or chunk.
func crcBlock(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ErrCorrupt means a main-memory range failed checksum verification and
// could not be repaired from the surviving replicas.
var ErrCorrupt = errors.New("repmem: unrepairable corruption")

// integrity is the checksum cache of one group: one row shared by all
// replicas in plain mode (replicas are byte-identical), one row per member
// index under erasure coding (each node stores a different chunk). A
// Reconfigure that keeps the code keeps the integrity too: a row is a
// function of the logical data and the code alone.
type integrity struct {
	ibs     uint64 // logical block size
	blocks  int    // logical block count
	memSize uint64
	physIBS uint64 // per-node bytes per block (chunk size under EC)
	perNode bool   // one row per member (erasure coding)
	layout  memnode.Layout
	sums    [][]atomic.Uint32
}

// newIntegrity sizes an empty checksum cache for group g under cfg.
func newIntegrity(cfg Config, g *group) *integrity {
	ig := &integrity{ibs: uint64(cfg.IntegrityBlockSize), memSize: uint64(cfg.MemSize), layout: g.layout}
	ig.blocks = (cfg.MemSize + int(ig.ibs) - 1) / int(ig.ibs)
	ig.physIBS = ig.ibs
	rows := 1
	if g.code != nil {
		ig.physIBS = uint64(g.chunk)
		ig.perNode = true
		rows = len(g.members)
	}
	ig.sums = make([][]atomic.Uint32, rows)
	for r := range ig.sums {
		ig.sums[r] = make([]atomic.Uint32, ig.blocks)
	}
	return ig
}

// row returns the checksum row for member index i.
func (g *integrity) row(i int) []atomic.Uint32 {
	if !g.perNode {
		return g.sums[0]
	}
	return g.sums[i]
}

func (g *integrity) sum(i int, b uint64) uint32       { return g.row(i)[b].Load() }
func (g *integrity) setSum(i int, b uint64, v uint32) { g.row(i)[b].Store(v) }

// blockRange returns logical block b's address and length (the final block
// may be short when MemSize is not a multiple of the block size).
func (g *integrity) blockRange(b uint64) (addr uint64, length int) {
	addr = b * g.ibs
	length = int(min64(g.ibs, g.memSize-addr))
	return addr, length
}

// physOff returns the region offset of block b's bytes on any node.
func (g *integrity) physOff(b uint64) uint64 {
	return g.layout.MainBase() + b*g.physIBS
}

// physLen returns how many bytes of block b each node stores.
func (g *integrity) physLen(b uint64) int {
	if g.perNode {
		return int(g.physIBS)
	}
	_, length := g.blockRange(b)
	return length
}

// stripOff returns the region offset of block b's strip entry.
func (g *integrity) stripOff(b uint64) uint64 { return g.layout.IntegrityOffset(b) }

// stripEntry renders one strip entry.
func stripEntry(sum uint32) []byte {
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint32(buf, sum)
	return buf
}

// bootstrapFresh initializes group g's checksum cache and every reachable
// node's strip for an all-zero fresh deployment (the CRC of a zero block is
// not zero, so the zeroed strip would otherwise flag every block corrupt).
// Every block but a short last one has the same zero CRC, so it is
// computed once.
func (m *Memory) bootstrapFresh(grp *group) {
	g := grp.integ
	image := make([]byte, 4*g.blocks)
	zero := make([]byte, g.physIBS)
	full := crcBlock(zero)
	for b := uint64(0); b < uint64(g.blocks); b++ {
		sum := full
		if n := g.physLen(b); n != len(zero) {
			sum = crcBlock(zero[:n])
		}
		for r := range g.sums {
			g.sums[r][b].Store(sum)
		}
		binary.LittleEndian.PutUint32(image[4*b:], sum)
	}
	for _, i := range grp.nodesInState(nodeLive) {
		mb := grp.members[i]
		c, err := m.conn(mb)
		if err == nil {
			err = c.Write(replRegion, grp.layout.IntegrityBase(), image)
		}
		if err != nil {
			m.nodeFailed(mb, err)
		}
	}
}

// loadSums reloads group g's checksum cache from the nodes' strips at
// coordinator takeover, every live node's strip read at once. A node whose
// strip cannot be read leaves the group until it is rebuilt, whatever the
// error was: its cache row would otherwise be missing while it keeps
// serving. Fewer than a majority of readable strips fails with ErrNoQuorum.
// Plain mode majority-votes each entry across the strips read (a node that
// died mid-write may hold a stale or torn strip); under erasure coding each
// node's strip fills its own row, and a dead node's row is rewritten when
// the node is rebuilt.
func (m *Memory) loadSums(grp *group) error {
	g := grp.integ
	rr := m.readReplicas(grp, 0, Span{Addr: grp.layout.IntegrityBase(), Size: 4 * g.blocks})
	defer rr.release()
	images := rr.rows
	got := 0
	for i, row := range images {
		if row != nil {
			got++
		} else if mb := grp.members[i]; mb.state.Load() == nodeLive {
			m.observe(mb, healthEvent{kind: evOpError})
		}
	}
	if e := m.checkOpen(); e != nil {
		return e
	}
	if got < grp.majority() {
		return fmt.Errorf("%w: read checksum strips from %d of %d nodes", ErrNoQuorum, got, len(grp.members))
	}
	if g.perNode {
		for i := range grp.members {
			if images[i] == nil {
				continue
			}
			for b := 0; b < g.blocks; b++ {
				g.sums[i][b].Store(binary.LittleEndian.Uint32(images[i][4*b:]))
			}
		}
		return nil
	}
	for b := 0; b < g.blocks; b++ {
		g.sums[0][b].Store(voteSum(images, 4*b))
	}
	return nil
}

// voteSum is the strip entry at off that the most images hold: the first
// value, in member order, to reach the highest count. An image's count so
// far is how many images up to it hold its value, so the tally needs no
// map and no table; a value held by more than half the images has won, so
// agreeing strips stop the count there.
func voteSum(images [][]byte, off int) uint32 {
	var winner uint32
	best := 0
	for i, img := range images {
		if img == nil {
			continue
		}
		v := binary.LittleEndian.Uint32(img[off:])
		n := 1
		for _, prev := range images[:i] {
			if prev != nil && binary.LittleEndian.Uint32(prev[off:]) == v {
				n++
			}
		}
		if n > best {
			best, winner = n, v
			if 2*n > len(images) {
				break
			}
		}
	}
	return winner
}

// verifySpan checks every block covered by data against node i's checksum
// row. spanStart must be block-aligned and data must end at a block
// boundary or at MemSize. It returns the logical blocks that failed.
func (g *integrity) verifySpan(i int, spanStart uint64, data []byte) []uint64 {
	var bad []uint64
	for off := uint64(0); off < uint64(len(data)); {
		b := (spanStart + off) / g.ibs
		_, length := g.blockRange(b)
		if crcBlock(data[off:off+uint64(length)]) != g.sum(i, b) {
			bad = append(bad, b)
		}
		off += uint64(length)
	}
	return bad
}

// readVerified serves a verified main-space read from group grp: it reads
// under expanded read locks, and when verification fails it repairs the
// damaged blocks under write locks and retries. A read that can be served
// from a clean replica (or reconstructed) succeeds immediately; the repair
// then runs before returning so the damaged replica never lingers.
func (m *Memory) readVerified(grp *group, addr uint64, buf []byte) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		r := m.expandWriteRange(grp, addr, len(buf))
		m.locks.acquire(shared, r)
		var bad []uint64
		var err error
		if grp.code == nil {
			bad, err = m.readPlainVerified(grp, addr, buf)
		} else {
			bad, err = m.readECVerified(grp, addr, buf)
		}
		m.locks.release(shared, r)
		if len(bad) == 0 {
			return err
		}
		lastErr = err
		m.stats.readRepairs.Add(1)
		m.emit("read.repair", "", fmt.Sprintf("%d corrupt block(s) at read time", len(bad)))
		if rerr := m.repairBlocks(grp, bad); rerr != nil && err != nil {
			return fmt.Errorf("%w (block repair: %v)", err, rerr)
		}
		if err == nil {
			return nil
		}
	}
	return lastErr
}

// readPlainVerified reads the block-expanded range from one live node and
// verifies it, failing over to the next replica when a block is corrupt.
// It returns every corrupt block observed (for post-read repair) even when
// a later replica served the data cleanly. Caller holds expanded rlocks.
func (m *Memory) readPlainVerified(grp *group, addr uint64, buf []byte) ([]uint64, error) {
	g := grp.integ
	firstB := addr / g.ibs
	lastB := firstB
	if len(buf) > 0 {
		lastB = (addr + uint64(len(buf)) - 1) / g.ibs
	}
	spanStart := firstB * g.ibs
	spanEnd := min64((lastB+1)*g.ibs, g.memSize)
	scratch := buf
	aligned := addr == spanStart && addr+uint64(len(buf)) == spanEnd
	if !aligned {
		scratch = make([]byte, spanEnd-spanStart)
	}

	live := grp.nodesInState(nodeLive)
	if len(live) == 0 {
		return nil, fmt.Errorf("%w: no live memory nodes", ErrNoQuorum)
	}
	badSet := make(map[uint64]struct{})
	start := int(m.readRR.Add(1))
	for k := 0; k < len(live); k++ {
		i := live[(start+k)%len(live)]
		mb := grp.members[i]
		c, err := m.conn(mb)
		if err == nil {
			err = c.Read(replRegion, grp.physMain(spanStart), scratch)
		}
		if err != nil {
			m.noteConnError(mb, c, err)
			if e := m.checkOpen(); e != nil {
				return blockSet(badSet), e
			}
			continue
		}
		m.stats.remoteReads.Add(1)
		nodeBad := g.verifySpan(i, spanStart, scratch)
		if len(nodeBad) == 0 {
			if !aligned {
				copy(buf, scratch[addr-spanStart:])
			}
			return blockSet(badSet), nil
		}
		m.noteCorruption(mb, len(nodeBad))
		for _, b := range nodeBad {
			badSet[b] = struct{}{}
		}
	}
	return blockSet(badSet), fmt.Errorf("%w: every replica failed or was corrupt", ErrCorrupt)
}

// readECVerified reads a main-space range under erasure coding with chunk
// verification, falling back from the single-chunk fast path to block
// reconstruction when the owner's chunk is corrupt. Caller holds expanded
// rlocks.
func (m *Memory) readECVerified(grp *group, addr uint64, buf []byte) ([]uint64, error) {
	g := grp.integ
	C := uint64(grp.chunk)
	B := uint64(m.cfg.ECBlockSize)
	var bad []uint64

	// Fast path: the range lies inside a single chunk whose owner is live.
	// The full chunk is read (still one RDMA READ, into a pooled buffer) so
	// it can be verified.
	if len(buf) > 0 {
		b := addr / B
		within := addr % B
		j := int(within / C)
		endWithin := within + uint64(len(buf)) - 1
		if mb := grp.members[j]; int(endWithin/C) == j && mb.state.Load() == nodeLive {
			c, err := m.conn(mb)
			if err == nil {
				cp := grp.chunkPool.Get().(*[]byte)
				chunk := *cp
				if err = c.Read(replRegion, g.physOff(b), chunk); err == nil {
					m.stats.remoteReads.Add(1)
					if crcBlock(chunk) == g.sum(j, b) {
						copy(buf, chunk[within%C:])
						grp.chunkPool.Put(cp)
						return nil, nil
					}
					// Corrupt owner: treat exactly like a dead-node read and
					// reconstruct below.
					m.noteCorruption(mb, 1)
					bad = append(bad, b)
				}
				grp.chunkPool.Put(cp)
			}
			if err != nil {
				m.noteConnError(mb, c, err)
				if e := m.checkOpen(); e != nil {
					return bad, e
				}
			}
		}
	}

	// General path: reconstruct each affected block — whole-block spans
	// straight into the caller's buffer, partial edges via scratch.
	sc := m.getECScratch(grp)
	defer grp.ecPool.Put(sc)
	first := addr / B
	last := first
	if len(buf) > 0 {
		last = (addr + uint64(len(buf)) - 1) / B
	}
	for b := first; b <= last; b++ {
		blockStart := b * B
		lo := max64(addr, blockStart)
		hi := min64(addr+uint64(len(buf)), blockStart+B)
		target := sc.block
		whole := lo == blockStart && hi == blockStart+B
		if whole {
			target = buf[lo-addr : hi-addr]
		}
		corrupt, err := m.readBlockECInto(grp, sc, b, target)
		if len(corrupt) > 0 {
			bad = append(bad, b)
		}
		if err != nil {
			return bad, err
		}
		if !whole {
			copy(buf[lo-addr:hi-addr], sc.block[lo-blockStart:hi-blockStart])
		}
	}
	return bad, nil
}

// blockSet flattens a block set into a sorted-enough slice.
func blockSet(s map[uint64]struct{}) []uint64 {
	if len(s) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(s))
	for b := range s {
		out = append(out, b)
	}
	return out
}

// repairBlocks rewrites damaged replicas of the given blocks under write
// locks. It is called with no locks held.
func (m *Memory) repairBlocks(grp *group, blocks []uint64) error {
	var firstErr error
	for _, b := range blocks {
		start, length := grp.integ.blockRange(b)
		r := lockRange{addr: start, size: length}
		m.locks.acquire(exclusive, r)
		var err error
		if grp.code == nil {
			_, _, err = m.repairPlainBlockLocked(grp, b)
		} else {
			_, err = m.repairECBlockLocked(grp, b)
		}
		m.locks.release(exclusive, r)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("block %d: %w", b, err)
		}
	}
	return firstErr
}

// repairPlainBlockLocked re-reads block b from every live replica, picks a
// canonical copy, and rewrites the deviants (data and strip entry) in
// place. The canonical copy is the first replica matching the cached
// checksum; if none matches — the cache itself was stale, e.g. a diverged
// strip at takeover — a strict majority of agreeing replicas is adopted and
// the cache and strips are corrected instead. Caller holds the block's
// write lock. Returns the canonical content.
func (m *Memory) repairPlainBlockLocked(grp *group, b uint64) ([]byte, int, error) {
	g := grp.integ
	length := g.physLen(b)
	copies := make(map[int][]byte)
	for _, i := range grp.nodesInState(nodeLive) {
		mb := grp.members[i]
		c, err := m.conn(mb)
		if err == nil {
			data := make([]byte, length)
			if err = c.Read(replRegion, g.physOff(b), data); err == nil {
				copies[i] = data
				continue
			}
		}
		m.noteConnError(mb, c, err)
		if e := m.checkOpen(); e != nil {
			return nil, 0, e
		}
	}
	if len(copies) == 0 {
		return nil, 0, fmt.Errorf("%w: no live replica of block %d", ErrNoQuorum, b)
	}

	want := g.sum(0, b)
	var canonical []byte
	fixStrip := false
	for i := range grp.members {
		data, ok := copies[i]
		if ok && crcBlock(data) == want {
			canonical = data
			break
		}
	}
	if canonical == nil {
		// No replica matches the cached checksum. Adopt a strict majority of
		// byte-identical replicas: corruption is independent per node, so
		// agreement means the cache (not the data) was wrong.
		best, total := 0, 0
		for i := range grp.members {
			data, ok := copies[i]
			if !ok {
				continue
			}
			total++
			n := 0
			for _, other := range copies {
				if bytes.Equal(data, other) {
					n++
				}
			}
			if n > best {
				best, canonical = n, data
			}
		}
		if best < 2 || 2*best <= total {
			return nil, 0, fmt.Errorf("%w: block %d has no verified or majority copy", ErrCorrupt, b)
		}
		want = crcBlock(canonical)
		g.setSum(0, b, want)
		fixStrip = true
	}

	entry := stripEntry(want)
	repaired := 0
	for i, mb := range grp.members {
		data, ok := copies[i]
		if !ok {
			continue
		}
		deviant := !bytes.Equal(data, canonical)
		if !deviant && !fixStrip {
			continue
		}
		c, err := m.conn(mb)
		if err == nil {
			if deviant {
				err = c.Write(replRegion, g.physOff(b), canonical)
			}
			if err == nil {
				err = c.Write(replRegion, g.stripOff(b), entry)
			}
		}
		if err != nil {
			m.noteConnError(mb, c, err)
			continue
		}
		if deviant {
			m.stats.repairs.Add(1)
			repaired++
		}
	}
	return canonical, repaired, nil
}

// repairECBlockLocked re-reads every live chunk of EC block b, reconstructs
// the block from the chunks that verify, re-encodes it, and rewrites every
// deviant chunk (and strip entry) in place. Caller holds the block's write
// lock.
func (m *Memory) repairECBlockLocked(grp *group, b uint64) (int, error) {
	g := grp.integ
	k := grp.code.K()
	stored := make([][]byte, len(grp.members))
	verified := make([][]byte, len(grp.members))
	good := 0
	for _, j := range grp.nodesInState(nodeLive) {
		mb := grp.members[j]
		c, err := m.conn(mb)
		if err == nil {
			chunk := make([]byte, grp.chunk)
			if err = c.Read(replRegion, g.physOff(b), chunk); err == nil {
				stored[j] = chunk
				if crcBlock(chunk) == g.sum(j, b) {
					verified[j] = chunk
					good++
				}
				continue
			}
		}
		m.noteConnError(mb, c, err)
		if e := m.checkOpen(); e != nil {
			return 0, e
		}
	}
	if good < k {
		return 0, fmt.Errorf("%w: EC block %d has %d verified chunks, need %d", ErrCorrupt, b, good, k)
	}
	block, err := grp.code.Decode(verified)
	if err != nil {
		return 0, err
	}
	enc, err := grp.code.Encode(block)
	if err != nil {
		return 0, err
	}
	repaired := 0
	for j, mb := range grp.members {
		if stored[j] == nil {
			continue
		}
		sum := crcBlock(enc[j])
		deviant := !bytes.Equal(stored[j], enc[j])
		fixStrip := g.sum(j, b) != sum
		if !deviant && !fixStrip {
			continue
		}
		g.setSum(j, b, sum)
		c, err := m.conn(mb)
		if err == nil {
			if deviant {
				err = c.Write(replRegion, g.physOff(b), enc[j])
			}
			if err == nil {
				err = c.Write(replRegion, g.stripOff(b), stripEntry(sum))
			}
		}
		if err != nil {
			m.noteConnError(mb, c, err)
			continue
		}
		if deviant {
			m.stats.repairs.Add(1)
			repaired++
		}
	}
	return repaired, nil
}

// readPlainBlockNoRepair returns block b's verified content from any live
// replica. It returns an error wrapping ErrCorrupt when every live replica
// fails verification, and performs no writes, so it is safe under a read
// lock.
func (m *Memory) readPlainBlockNoRepair(grp *group, b uint64) ([]byte, error) {
	g := grp.integ
	length := g.physLen(b)
	want := g.sum(0, b)
	var bad int
	for _, i := range grp.nodesInState(nodeLive) {
		mb := grp.members[i]
		c, err := m.conn(mb)
		if err == nil {
			data := make([]byte, length)
			if err = c.Read(replRegion, g.physOff(b), data); err == nil {
				if crcBlock(data) == want {
					return data, nil
				}
				bad++
				m.noteCorruption(mb, 1)
				continue
			}
		}
		m.noteConnError(mb, c, err)
		if e := m.checkOpen(); e != nil {
			return nil, e
		}
	}
	if bad == 0 {
		return nil, fmt.Errorf("%w: no live source for block %d", ErrNoQuorum, b)
	}
	return nil, fmt.Errorf("%w: no verified replica of block %d", ErrCorrupt, b)
}

// readPlainBlockLocked returns block b's verified content for a
// read-modify-write under an already-held write lock, repairing in place
// when no replica verifies.
func (m *Memory) readPlainBlockLocked(grp *group, b uint64) ([]byte, error) {
	blk, err := m.readPlainBlockNoRepair(grp, b)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		return blk, err
	}
	canonical, _, rerr := m.repairPlainBlockLocked(grp, b)
	return canonical, rerr
}
