package repmem

import (
	"fmt"
	"time"

	"github.com/repro/sift/internal/memnode"
)

// replRegion is the replicated region id on every memory node.
const replRegion = memnode.ReplRegionID

// Read serves a main-space read. Because all requests flow through the
// coordinator, which holds an effective lease on the whole memory (§3.3.1),
// no quorum is needed: one one-sided RDMA READ from any live node suffices.
// Under erasure coding, reads within a single chunk go straight to the
// chunk's owner node; anything else reconstructs the affected blocks from
// any k chunks, preferring data chunks to skip decoding (§5.1).
func (m *Memory) Read(addr uint64, buf []byte) error {
	if err := m.checkOpen(); err != nil {
		return err
	}
	if err := m.checkMainRange(addr, len(buf)); err != nil {
		return err
	}
	m.stats.reads.Add(1)
	h := m.cfg.Latency
	var start time.Time
	if h != nil {
		start = time.Now()
	}
	// Verified read with transparent read-repair; takes its own locks.
	err := m.retryOnCurrent(func(g *group) error { return m.readVerified(g, addr, buf) })
	if h != nil {
		h.Read.Record(time.Since(start))
	}
	return err
}

// retryOnCurrent runs a read against the current group and, when it fails
// after a Reconfigure replaced that group, once more against the new one. A
// read does not hold the write gate, so it can outlive its group; the
// members the cutover removed had their connections closed before the gate
// opened, so the first attempt either read what they held before any
// post-cutover write or failed on them.
func (m *Memory) retryOnCurrent(read func(*group) error) error {
	g := m.grp.Load()
	err := read(g)
	if cur := m.grp.Load(); err != nil && cur != g && m.checkOpen() == nil {
		err = read(cur)
	}
	return err
}

// ecScratch is the pooled scratch of an EC block read: a block buffer for
// partial-range reads and the read chunk set with its parity backing. One
// scratch serves one block read at a time; pooling it keeps the
// steady-state EC read path allocation-free.
type ecScratch struct {
	block   []byte   // ECBlockSize: reconstruction target for partial ranges
	rchunks [][]byte // k+m read/decode set
	rparity []byte   // m×chunk read parity backing
}

// getECScratch takes an EC scratch from g's pool, constructing it on first
// use; return it with g.ecPool.Put. Only valid when g is erasure coded.
func (m *Memory) getECScratch(g *group) *ecScratch {
	if v := g.ecPool.Get(); v != nil {
		return v.(*ecScratch)
	}
	return &ecScratch{
		block:   make([]byte, m.cfg.ECBlockSize),
		rchunks: make([][]byte, len(g.members)),
		rparity: make([]byte, g.code.M()*g.chunk),
	}
}

// readBlockEC fetches any k chunks of EC block b from live nodes (data
// chunks first) and reconstructs the block into a fresh buffer. A chunk that
// fails its checksum is skipped like a dead node; the second return value
// lists the nodes whose chunks were corrupt.
func (m *Memory) readBlockEC(g *group, b uint64) ([]byte, []int, error) {
	sc := m.getECScratch(g)
	defer g.ecPool.Put(sc)
	block := make([]byte, m.cfg.ECBlockSize)
	corrupt, err := m.readBlockECInto(g, sc, b, block)
	if err != nil {
		return nil, corrupt, err
	}
	return block, corrupt, nil
}

// readBlockECInto reconstructs EC block b into block (exactly ECBlockSize
// bytes) without allocating: data chunks are RDMA-read directly into their
// positions in block, parity chunks (touched only when a data chunk is
// unavailable) land in sc's parity scratch, and DecodeInto recomputes only
// the missing data rows. A chunk that fails its CRC or its read leaves
// garbage in its block range, but its nil entry in the chunk set forces
// DecodeInto to overwrite that range from the survivors.
func (m *Memory) readBlockECInto(g *group, sc *ecScratch, b uint64, block []byte) ([]int, error) {
	n := len(g.members)
	k := g.code.K()
	C := g.chunk
	phys := g.layout.MainBase() + b*uint64(C)
	chunks := sc.rchunks
	for j := range chunks {
		chunks[j] = nil
	}
	var corrupt []int
	got := 0
	decodedNeeded := false
	for j := 0; j < n && got < k; j++ {
		mb := g.members[j]
		if mb.state.Load() != nodeLive {
			if j < k {
				decodedNeeded = true
			}
			continue
		}
		var target []byte
		if j < k {
			target = block[j*C : (j+1)*C]
		} else {
			target = sc.rparity[(j-k)*C : (j-k+1)*C]
		}
		c, err := m.conn(mb)
		if err == nil {
			if err = c.Read(replRegion, phys, target); err == nil {
				m.stats.remoteReads.Add(1)
				if crcBlock(target) != g.integ.sum(j, b) {
					m.noteCorruption(mb, 1)
					corrupt = append(corrupt, j)
					if j < k {
						decodedNeeded = true
					}
					continue
				}
				chunks[j] = target
				got++
				continue
			}
		}
		m.noteConnError(mb, c, err)
		if e := m.checkOpen(); e != nil {
			return corrupt, e
		}
		if j < k {
			decodedNeeded = true
		}
	}
	if got < k {
		return corrupt, fmt.Errorf("%w: only %d of %d chunks usable", ErrNoQuorum, got, k)
	}
	if decodedNeeded {
		m.stats.decodedReads.Add(1)
	}
	return corrupt, g.code.DecodeInto(block, chunks)
}

// DirectRead serves a direct-space read from one live node.
func (m *Memory) DirectRead(addr uint64, buf []byte) error {
	if err := m.checkOpen(); err != nil {
		return err
	}
	if err := m.checkDirectRange(addr, len(buf)); err != nil {
		return err
	}
	r := lockRange{addr: addr, size: len(buf)}
	m.directLocks.acquire(shared, r)
	defer m.directLocks.release(shared, r)
	return m.retryOnCurrent(func(g *group) error { return m.directRead(g, addr, buf) })
}

// directRead reads a direct-space range from one live member of g, failing
// over member by member. The caller holds the range's shared lock.
func (m *Memory) directRead(g *group, addr uint64, buf []byte) error {
	live := g.nodesInState(nodeLive)
	if len(live) == 0 {
		return fmt.Errorf("%w: no live memory nodes", ErrNoQuorum)
	}
	start := int(m.readRR.Add(1))
	for k := 0; k < len(live); k++ {
		mb := g.members[live[(start+k)%len(live)]]
		c, err := m.conn(mb)
		if err == nil {
			err = c.Read(replRegion, g.physDirect(addr), buf)
		}
		if err != nil {
			m.noteConnError(mb, c, err)
			if e := m.checkOpen(); e != nil {
				return e
			}
			continue
		}
		return nil
	}
	return fmt.Errorf("%w: all read attempts failed", ErrNoQuorum)
}

// Span is a direct-space byte range: Size bytes at Addr.
type Span struct {
	Addr uint64
	Size int
}

// DirectReadAll returns each live node's copy of several direct-space
// ranges, the spans back to back in one row per node, read as one vectored
// read per node — letting callers quorum-merge self-validating data (the
// key-value store's log recovery). Nodes not read yield nil rows. Fewer than
// a majority of copies is ErrNoQuorum: an entry acknowledged at a majority is
// only certain to be in a majority's copies.
func (m *Memory) DirectReadAll(spans ...Span) ([][]byte, error) {
	if err := m.checkOpen(); err != nil {
		return nil, err
	}
	if len(spans) == 0 {
		return make([][]byte, len(m.grp.Load().members)), nil
	}
	lo, hi := spans[0].Addr, spans[0].Addr
	for _, sp := range spans {
		if err := m.checkDirectRange(sp.Addr, sp.Size); err != nil {
			return nil, err
		}
		lo, hi = min(lo, sp.Addr), max(hi, sp.Addr+uint64(sp.Size))
	}
	// One shared lock over the spans' hull: the lock's cost is per range
	// held, and a scan names thousands.
	r := lockRange{addr: lo, size: int(hi - lo)}
	m.directLocks.acquire(shared, r)
	defer m.directLocks.release(shared, r)
	var out [][]byte
	err := m.retryOnCurrent(func(g *group) error {
		// The rows are the caller's to keep, so the read's working set is
		// never released for reuse.
		out = m.readReplicas(g, g.layout.DirectBase(), spans...).rows
		if e := m.checkOpen(); e != nil {
			return e
		}
		got := 0
		for _, row := range out {
			if row != nil {
				got++
			}
		}
		if got < g.majority() {
			return fmt.Errorf("%w: %d of %d copies readable", ErrNoQuorum, got, len(g.members))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
