package repmem

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"github.com/repro/sift/internal/rdma"
)

// Background scrubber: sweeps the materialized main memory (checksum
// verification against the coordinator's cache) and the direct-write zone
// (cross-replica agreement — its contents are self-validating WAL slots, so
// no strip is kept) at a configurable rate, repairing what it can. Latent
// corruption on a replica that reads happen not to touch would otherwise
// survive until that replica becomes the read source — or worse, the
// recovery source — so the scrubber bounds the time a flipped bit can hide.

// scrubBatch is how many blocks/ranges one scrub tick examines. Small
// enough that a tick's lock footprint never bothers the hot path.
const scrubBatch = 32

// scrubDirectChunk is the granularity of direct-zone agreement checks.
const scrubDirectChunk = 4096

// ScrubReport summarizes one full synchronous scrub sweep.
type ScrubReport struct {
	MainBlocks   int // main-memory blocks examined
	DirectRanges int // direct-zone ranges examined
	Corrupt      int // replica blocks that failed their CRC or diverged
	Repaired     int // replica blocks rewritten in place
	Unrepaired   int // damage found that could not be safely repaired
}

// scrubMainBlocks returns how many main-memory blocks the scrubber covers.
func (m *Memory) scrubMainBlocks() int {
	return m.grp.Load().integ.blocks
}

// scrubDirectRanges returns how many direct-zone ranges the scrubber covers.
func (m *Memory) scrubDirectRanges() int {
	return (m.cfg.DirectSize + scrubDirectChunk - 1) / scrubDirectChunk
}

// StartScrub launches the background scrubber: every tick it verifies the
// next scrubBatch blocks, wrapping around indefinitely. The returned
// function stops it. Pass progress and findings surface through Stats.
func (m *Memory) StartScrub(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		cursor := 0
		passStart := time.Now()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if m.checkOpen() != nil {
					return
				}
				cursor = m.scrubStep(cursor, scrubBatch)
				if cursor == 0 {
					m.stats.scrubPasses.Add(1)
					m.scrubPassTime.Observe(float64(time.Since(passStart).Microseconds()))
					passStart = time.Now()
				}
			}
		}
	}()
	return func() { close(done) }
}

// ScrubOnce runs one full synchronous sweep over the main memory and the
// direct zone. It is the hook tests and operators use to force a complete
// pass without waiting for the background cadence.
func (m *Memory) ScrubOnce() (ScrubReport, error) {
	var r ScrubReport
	if err := m.checkOpen(); err != nil {
		return r, err
	}
	start := time.Now()
	pace := new(pacer)
	for b := 0; b < m.scrubMainBlocks(); b++ {
		pace.step()
		c, rep, un := m.scrubMainBlock(m.grp.Load(), uint64(b))
		r.MainBlocks++
		r.Corrupt += c
		r.Repaired += rep
		r.Unrepaired += un
	}
	for i := 0; i < m.scrubDirectRanges(); i++ {
		pace.step()
		c, rep, un := m.scrubDirectRange(m.grp.Load(), i)
		r.DirectRanges++
		r.Corrupt += c
		r.Repaired += rep
		r.Unrepaired += un
	}
	m.stats.scrubPasses.Add(1)
	m.scrubPassTime.Observe(float64(time.Since(start).Microseconds()))
	return r, m.checkOpen()
}

// scrubStep examines n blocks starting at the sweep cursor and returns the
// new cursor (zero after completing a pass).
func (m *Memory) scrubStep(cursor, n int) int {
	mainBlocks := m.scrubMainBlocks()
	total := mainBlocks + m.scrubDirectRanges()
	if total == 0 {
		return 0
	}
	if cursor >= total {
		cursor = 0
	}
	pace := new(pacer)
	for ; n > 0 && cursor < total; n, cursor = n-1, cursor+1 {
		pace.step()
		if m.checkOpen() != nil {
			return 0
		}
		if g := m.grp.Load(); cursor < mainBlocks {
			m.scrubMainBlock(g, uint64(cursor))
		} else {
			m.scrubDirectRange(g, cursor-mainBlocks)
		}
	}
	if cursor >= total {
		return 0
	}
	return cursor
}

// readReplicas reads the same spans of the replicated region, at base, from
// every live member of g, as one vectored read per node with every node's in flight
// at once, so a caller holding a range lock pays one round trip however many
// replicas and spans it compares. It returns each node's copy of the spans
// back to back; a node that is not live, or failed its read, has a nil row.
func (m *Memory) readReplicas(g *group, base uint64, spans ...Span) [][]byte {
	got := make([][]byte, len(g.members))
	conns := make([]rdma.Verbs, len(g.members))
	errs := make([]error, len(g.members))
	total := 0
	for _, sp := range spans {
		total += sp.Size
	}
	var wg sync.WaitGroup
	for _, i := range g.nodesInState(nodeLive) {
		c, err := m.conn(g.members[i])
		if err != nil {
			m.noteConnError(g.members[i], c, err)
			continue
		}
		conns[i] = c
		got[i] = make([]byte, total)
		segs := make([]rdma.Seg, len(spans))
		at := 0
		for k, sp := range spans {
			segs[k] = rdma.Seg{Offset: base + sp.Addr, Data: got[i][at : at+sp.Size : at+sp.Size]}
			at += sp.Size
		}
		wg.Add(1)
		rdma.Send(c, &rdma.Op{Kind: rdma.OpRead, Region: replRegion, Offset: segs[0].Offset, Data: segs[0].Data, More: segs[1:],
			Done: func(o *rdma.Op) {
				errs[i] = o.Err
				wg.Done()
			}})
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			m.noteConnError(g.members[i], conns[i], err)
			got[i] = nil
		}
	}
	return got
}

// scrubMainBlock verifies block b on every live replica of grp against the
// checksum cache and repairs deviants in place.
func (m *Memory) scrubMainBlock(grp *group, b uint64) (corrupt, repaired, unrepaired int) {
	g := grp.integ
	m.stats.scrubbed.Add(1)
	defer func() {
		if repaired > 0 {
			m.emit("scrub.repair", "", fmt.Sprintf("main block %d: repaired %d replica(s)", b, repaired))
		}
	}()
	start, length := g.blockRange(b)
	r := lockRange{addr: start, size: length}
	m.locks.acquire(shared, r)
	var bad int
	var stripFix []int
	n := g.physLen(b)
	for i, got := range m.readReplicas(grp, 0, Span{g.physOff(b), n}, Span{g.stripOff(b), 4}) {
		if got == nil {
			continue
		}
		if crcBlock(got[:n]) != g.sum(i, b) {
			m.noteCorruption(grp.members[i], 1)
			bad++
		} else if !bytes.Equal(got[n:], stripEntry(g.sum(i, b))) {
			// Data is good; the stored strip entry must agree (a corrupted
			// strip write leaves clean data under a lying checksum, which
			// would poison the next recovery's loadSums vote).
			stripFix = append(stripFix, i)
		}
	}
	m.locks.release(shared, r)
	for _, i := range stripFix {
		mb := grp.members[i]
		m.locks.acquire(exclusive, r)
		c, err := m.conn(mb)
		if err == nil {
			err = c.Write(replRegion, g.stripOff(b), stripEntry(g.sum(i, b)))
		}
		m.locks.release(exclusive, r)
		corrupt++
		m.noteCorruption(mb, 1)
		if err != nil {
			m.noteConnError(mb, c, err)
			unrepaired++
			continue
		}
		m.stats.repairs.Add(1)
		repaired++
	}
	if bad == 0 {
		return corrupt, repaired, unrepaired
	}
	m.locks.acquire(exclusive, r)
	var fixed int
	var err error
	if grp.code == nil {
		_, fixed, err = m.repairPlainBlockLocked(grp, b)
	} else {
		fixed, err = m.repairECBlockLocked(grp, b)
	}
	m.locks.release(exclusive, r)
	corrupt += bad
	repaired += fixed
	if err != nil {
		unrepaired += bad - fixed
	}
	return corrupt, repaired, unrepaired
}

// scrubDirectRange checks cross-replica agreement on the idx-th direct-zone
// range. The direct zone has no checksum strip — its contents are the KV
// store's self-validating WAL slots, quorum-merged at recovery — so the
// scrubber's job is only to re-converge replicas: a diverging minority is
// overwritten when a strict majority of the full membership is
// byte-identical (every live node receives every direct write, so the
// honest copies agree); anything less is left alone and counted.
func (m *Memory) scrubDirectRange(g *group, idx int) (corrupt, repaired, unrepaired int) {
	m.stats.scrubbed.Add(1)
	defer func() {
		if repaired > 0 {
			m.emit("scrub.repair", "", fmt.Sprintf("direct range %d: repaired %d replica(s)", idx, repaired))
		}
	}()
	off := uint64(idx) * scrubDirectChunk
	n := min64(scrubDirectChunk, uint64(m.cfg.DirectSize)-off)
	if n == 0 {
		return 0, 0, 0
	}

	read := func() [][]byte { return m.readReplicas(g, g.layout.DirectBase(), Span{off, int(n)}) }
	agree := func(copies [][]byte) bool {
		var first []byte
		for _, c := range copies {
			if c == nil {
				continue
			}
			if first == nil {
				first = c
			} else if !bytes.Equal(first, c) {
				return false
			}
		}
		return true
	}

	r := lockRange{addr: off, size: int(n)}
	m.directLocks.acquire(shared, r)
	copies := read()
	m.directLocks.release(shared, r)
	if agree(copies) {
		return 0, 0, 0
	}

	// Divergence seen: re-read under the write lock (the first pass may have
	// raced an in-flight DirectWrite fan-out) and repair.
	m.directLocks.acquire(exclusive, r)
	defer m.directLocks.release(exclusive, r)
	copies = read()
	if agree(copies) {
		return 0, 0, 0
	}
	var canonical []byte
	best := 0
	for _, c := range copies {
		if c == nil {
			continue
		}
		votes := 0
		for _, other := range copies {
			if other != nil && bytes.Equal(c, other) {
				votes++
			}
		}
		if votes > best {
			best, canonical = votes, c
		}
	}
	for i, c := range copies {
		if c == nil || bytes.Equal(c, canonical) {
			continue
		}
		mb := g.members[i]
		corrupt++
		m.noteCorruption(mb, 1)
		if 2*best <= len(g.members) {
			unrepaired++
			continue
		}
		conn, err := m.conn(mb)
		if err == nil {
			err = conn.Write(replRegion, g.physDirect(off), canonical)
		}
		if err != nil {
			m.noteConnError(mb, conn, err)
			unrepaired++
			continue
		}
		m.stats.repairs.Add(1)
		repaired++
	}
	return corrupt, repaired, unrepaired
}
