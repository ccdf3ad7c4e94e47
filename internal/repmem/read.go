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
	if h := m.cfg.Latency; h != nil {
		start := time.Now()
		defer func() { h.Read.Record(time.Since(start)) }()
	}
	// Verified read with transparent read-repair; takes its own locks.
	return m.integ.read(addr, buf)
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

// getECScratch takes an EC scratch from the pool, constructing it on first
// use. Only valid when erasure coding is enabled.
func (m *Memory) getECScratch() *ecScratch {
	if v := m.ecPool.Get(); v != nil {
		return v.(*ecScratch)
	}
	return &ecScratch{
		block:   make([]byte, m.cfg.ECBlockSize),
		rchunks: make([][]byte, len(m.nodes)),
		rparity: make([]byte, m.code.M()*m.chunk),
	}
}

func (m *Memory) putECScratch(sc *ecScratch) { m.ecPool.Put(sc) }

// readBlockEC fetches any k chunks of EC block b from live nodes (data
// chunks first) and reconstructs the block into a fresh buffer. A chunk that
// fails its checksum is skipped like a dead node; the second return value
// lists the nodes whose chunks were corrupt.
func (m *Memory) readBlockEC(b uint64) ([]byte, []int, error) {
	sc := m.getECScratch()
	defer m.putECScratch(sc)
	block := make([]byte, m.cfg.ECBlockSize)
	corrupt, err := m.readBlockECInto(sc, b, block)
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
func (m *Memory) readBlockECInto(sc *ecScratch, b uint64, block []byte) ([]int, error) {
	n := len(m.nodes)
	k := m.code.K()
	C := m.chunk
	phys := m.layout.MainBase() + b*uint64(C)
	chunks := sc.rchunks
	for j := range chunks {
		chunks[j] = nil
	}
	var corrupt []int
	got := 0
	decodedNeeded := false
	for j := 0; j < n && got < k; j++ {
		if m.state[j].Load() != nodeLive {
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
		c, err := m.conn(j)
		if err == nil {
			if err = c.Read(replRegion, phys, target); err == nil {
				m.stats.remoteReads.Add(1)
				if crcBlock(target) != m.integ.sum(j, b) {
					m.noteCorruption(j, 1)
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
		m.noteConnError(j, c, err)
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
	return corrupt, m.code.DecodeInto(block, chunks)
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
	live := m.nodesInState(nodeLive)
	if len(live) == 0 {
		return fmt.Errorf("%w: no live memory nodes", ErrNoQuorum)
	}
	start := int(m.readRR.Add(1))
	for k := 0; k < len(live); k++ {
		i := live[(start+k)%len(live)]
		c, err := m.conn(i)
		if err == nil {
			err = c.Read(replRegion, m.physDirect(addr), buf)
		}
		if err != nil {
			m.noteConnError(i, c, err)
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
		return make([][]byte, len(m.nodes)), nil
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
	out := m.readReplicas(m.layout.DirectBase(), spans...)
	if e := m.checkOpen(); e != nil {
		return nil, e
	}
	got := 0
	for _, row := range out {
		if row != nil {
			got++
		}
	}
	if got < m.Majority() {
		return nil, fmt.Errorf("%w: %d of %d copies readable", ErrNoQuorum, got, len(m.nodes))
	}
	return out, nil
}
