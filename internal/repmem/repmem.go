// Package repmem implements Sift's replicated memory layer (paper §3): the
// coordinator-side logic that presents the group's 2Fm+1 passive memory
// nodes as a single logical memory.
//
// Two logical address spaces are exposed:
//
//   - Main space [0, MemSize): read with Read, updated with Write/WriteBatch.
//     A write is materialized on every writable node (one vectored one-sided
//     RDMA WRITE per node) before it returns. With erasure coding enabled,
//     the materialized memory is stored as Cauchy Reed–Solomon chunks — one
//     chunk per node (§5.1).
//
//   - Direct space [0, DirectSize): never erasure coded, committed in a
//     single RDMA round trip on majority ack (DirectWrite). The key-value
//     store keeps its circular write-ahead log here (§3.3.2, §4.1): that
//     log is the paper's memory-level WAL, and because it stays unencoded a
//     coordinator plus quorum-member double failure stays survivable. The
//     main space carries no log of its own; a write torn by a coordinator
//     failure is repaired by the application replaying its log.
//
// Consistency: writers hold per-range locks until their write has completed
// on every waited-on node, so reads never observe a half-applied range.
package repmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/erasure"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/metrics"
	"github.com/repro/sift/internal/obs"
	"github.com/repro/sift/internal/rdma"
)

// LatencyHooks holds the hot-path latency histograms. They live outside the
// Memory because a Memory is rebuilt on every coordinator promotion while
// the observed distributions should span terms: allocate one set at
// cluster/daemon scope, pass it through Config.Latency on every term, and
// register the histograms with an obs.Registry once.
type LatencyHooks struct {
	DirectWrite metrics.Histogram // direct-zone write commit latency
	Read        metrics.Histogram // main-space read latency
	Quorum      metrics.Histogram // quorum ack wait inside a write
}

// Errors returned by the replicated memory layer.
var (
	// ErrNoQuorum means fewer than a majority of memory nodes acknowledged.
	ErrNoQuorum = errors.New("repmem: no quorum of memory nodes")
	// ErrFenced means a newer coordinator has taken over the group.
	ErrFenced = rdma.ErrFenced
	// ErrOutOfRange means an access fell outside the logical space.
	ErrOutOfRange = errors.New("repmem: access out of logical address range")
	// ErrClosed means the memory has been closed or fenced.
	ErrClosed = errors.New("repmem: closed")
	// ErrStaleConfig means the memory nodes belong to a newer config epoch
	// than the caller's member list: a reconfiguration committed after this
	// configuration was discovered. The caller must re-read the configuration
	// descriptor (memnode.AdminConfigOffset) and rebuild against it.
	ErrStaleConfig = errors.New("repmem: config epoch superseded")
)

// Dialer opens an RDMA connection to a memory node with the replicated
// region held exclusively (at-most-one-connection fencing).
type Dialer func(node string) (rdma.Verbs, error)

// Config parameterises the replicated memory layer.
type Config struct {
	// MemoryNodes lists the group's 2Fm+1 memory nodes.
	MemoryNodes []string
	// Dial opens an exclusive replicated-region connection.
	Dial Dialer

	// MemSize is the logical main memory size in bytes.
	MemSize int
	// DirectSize is the direct-write zone size in bytes.
	DirectSize int

	// ECData (k = Fm+1) and ECParity (m = Fm) enable erasure coding when
	// both are non-zero; ECData+ECParity must equal len(MemoryNodes) and
	// ECBlockSize must divide MemSize and be divisible by ECData.
	ECData      int
	ECParity    int
	ECBlockSize int

	// IntegrityBlockSize is the logical granularity of main-memory
	// checksumming: each block of this many bytes carries a CRC32C in a
	// strip on every memory node, verified on reads and repaired on
	// mismatch. Zero selects the default (the EC block size under erasure
	// coding, 4096 otherwise); checksumming cannot be turned off. Under
	// erasure coding the value is forced to ECBlockSize — the chunk is the
	// physical unit of verification.
	IntegrityBlockSize int

	// Term tags this coordinator's membership publications (see
	// internal/memnode.AdminMembershipOffset); pass the election term that
	// made this node coordinator. Zero is valid for direct library use —
	// publications still order by version within the zero term.
	Term uint16

	// Epoch is the config epoch MemoryNodes belongs to (see
	// internal/memnode.AdminEpochOffset): membership records from any other
	// epoch are ignored, and New fails with ErrStaleConfig when the nodes
	// have committed a newer epoch. Zero selects epoch 1, the epoch of every
	// fresh deployment.
	Epoch uint32

	// OnFenced, if set, is called once when the layer discovers it has been
	// fenced by a newer coordinator.
	OnFenced func()

	// Events, if set, receives control-plane events (node.suspect,
	// node.dead, node.recovered, repmem.fenced, scrub.repair, read.repair).
	// A nil ring drops them.
	Events *obs.Ring
	// Latency, if set, receives hot-path latency observations. Pass the
	// same hooks across coordinator terms so distributions survive
	// re-promotion.
	Latency *LatencyHooks

	// StragglerMinLatency is the absolute EWMA floor below which the
	// straggler check (EWMA above stragglerFactor × the fastest live node's)
	// never fires, preventing false suspicion when all nodes are fast
	// (default 2ms). It doubles as the degraded-exit threshold: a degraded
	// node is readmitted (via rebuild) only after its probes drop back below
	// this floor. The other health thresholds are constants (health.go).
	StragglerMinLatency time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.StragglerMinLatency <= 0 {
		out.StragglerMinLatency = 2 * time.Millisecond
	}
	switch {
	case out.ECData > 0:
		out.IntegrityBlockSize = out.ECBlockSize
	case out.IntegrityBlockSize == 0:
		out.IntegrityBlockSize = 4096
	}
	if out.Epoch == 0 {
		out.Epoch = 1
	}
	return out
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.MemoryNodes) == 0 {
		return errors.New("repmem: need at least one memory node")
	}
	// The membership word packs the live-node set as a uint32 bitmap
	// (memnode.AdminMembershipOffset), so the group is hard-capped at 32
	// nodes; silently truncating bits would make the staleness protection
	// lie. The canonical deployment is an odd 2Fm+1 group, but intermediate
	// even sizes are legal (majority is still ⌊n/2⌋+1) so reconfiguration
	// can move through them.
	if len(c.MemoryNodes) > 32 {
		return fmt.Errorf("repmem: %d memory nodes exceeds the 32-node membership-bitmap limit", len(c.MemoryNodes))
	}
	seen := make(map[string]struct{}, len(c.MemoryNodes))
	for _, n := range c.MemoryNodes {
		if n == "" {
			return errors.New("repmem: empty memory node name")
		}
		if _, dup := seen[n]; dup {
			return fmt.Errorf("repmem: duplicate memory node %q", n)
		}
		seen[n] = struct{}{}
	}
	if c.Dial == nil {
		return errors.New("repmem: Dial is required")
	}
	if c.MemSize <= 0 {
		return errors.New("repmem: MemSize must be positive")
	}
	if c.DirectSize < 0 {
		return errors.New("repmem: DirectSize must be non-negative")
	}
	if c.IntegrityBlockSize < 0 {
		return errors.New("repmem: IntegrityBlockSize must be non-negative (main-memory checksumming cannot be disabled)")
	}
	if (c.ECData == 0) != (c.ECParity == 0) {
		return errors.New("repmem: ECData and ECParity must be set together")
	}
	if c.ECData > 0 {
		if c.ECData+c.ECParity != len(c.MemoryNodes) {
			return fmt.Errorf("repmem: ECData+ECParity = %d must equal memory node count %d",
				c.ECData+c.ECParity, len(c.MemoryNodes))
		}
		if c.ECBlockSize <= 0 || c.ECBlockSize%c.ECData != 0 {
			return fmt.Errorf("repmem: ECBlockSize %d must be a positive multiple of ECData %d", c.ECBlockSize, c.ECData)
		}
		if c.MemSize%c.ECBlockSize != 0 {
			return fmt.Errorf("repmem: MemSize %d must be a multiple of ECBlockSize %d", c.MemSize, c.ECBlockSize)
		}
	}
	return nil
}

// WriteAlign returns the alignment at which a main-space write is whole:
// the EC block size under erasure coding, otherwise the integrity block
// size. A write that starts and ends on multiples of it
// (or at MemSize) is applied without first reading back the blocks it only
// partly covers. Applications that own their layout (the key-value store's
// data blocks) place their write units by it; every party deriving addresses
// for the same memory must use the same value.
func (c Config) WriteAlign() int {
	return c.withDefaults().IntegrityBlockSize
}

// Layout returns the physical memory-node layout implied by the config.
func (c Config) Layout() memnode.Layout {
	cfg := c.withDefaults()
	main := cfg.MemSize
	ibs := cfg.IntegrityBlockSize
	if cfg.ECData > 0 {
		main = cfg.MemSize / cfg.ECData
		// Per node, the unit of verification is one chunk per EC block.
		ibs = cfg.ECBlockSize / cfg.ECData
	}
	return memnode.Layout{
		DirectSize:         cfg.DirectSize,
		MainSize:           main,
		IntegrityBlockSize: ibs,
	}
}

// Stats are cumulative operation counters, exposed for the benchmark
// harness.
type Stats struct {
	DirectWrites  uint64 // direct-zone writes committed
	Reads         uint64 // main-space read requests served
	RemoteReads   uint64 // RDMA READ operations issued for main-space reads
	DecodedReads  uint64 // main-space reads requiring erasure decoding
	NodeFailures  uint64 // memory node failure detections
	NodeRecovered uint64 // memory node recoveries completed
	NodeTimeouts  uint64 // per-operation deadline expiries observed
	NodeSuspected uint64 // live → suspect transitions (gray-failure detections)
	NodeDegraded  uint64 // live → degraded transitions (sustained-slowness detections)
	// ReadRepairs counts read operations that triggered an inline block
	// repair (a subset of BlocksRepaired is attributable to them).
	ReadRepairs  uint64
	Redials      uint64 // successful reconnections to failed nodes
	RedialErrors uint64 // failed reconnection attempts (circuit-breaker refusals excluded)

	// MembershipPublishErrors counts failed per-node membership-record
	// writes: publishMembership is best-effort, so a wedged admin region
	// would otherwise be invisible until a failover goes wrong.
	MembershipPublishErrors uint64

	// Integrity counters (checksummed main memory + scrubber).
	CorruptionsDetected uint64 // replica blocks/chunks that failed their CRC or diverged
	BlocksRepaired      uint64 // replica blocks/chunks rewritten from a verified copy
	ScrubbedBlocks      uint64 // blocks/ranges examined by the scrubber
	ScrubPasses         uint64 // completed full scrub sweeps
	ScrubPassUs         uint64 // smoothed (EWMA) full-sweep duration in microseconds

	// Pipeline counters (per-node worker queues + transport connections).
	Enqueued         uint64 // write ops handed to per-node workers
	QueueWaitUs      uint64 // cumulative µs ops spent queued before dispatch
	MaxQueueDepth    uint64 // high-water mark of ops queued across workers
	TransportOps     uint64 // ops submitted on currently live connections
	TransportFlushes uint64 // doorbell flushes on currently live connections
	MaxInFlight      uint64 // max ops in flight on any single live connection
}

// Memory is the coordinator-side replicated memory handle. It is safe for
// concurrent use. Create with New, then call Recover exactly once before
// serving (it loads the checksum cache the previous coordinator left).
type Memory struct {
	// cfg is the configuration New was given. Its MemoryNodes, Epoch, ECData
	// and ECParity describe the first group only; the current ones are the
	// group's.
	cfg Config
	// grp is the current configuration (group.go).
	grp atomic.Pointer[group]

	// reconfigMu serializes structural node-set changes (Reconfigure) with
	// background node recovery, which copies state into the same members; it
	// also keeps catch-ups, which share the dirty trackers, one at a time.
	reconfigMu sync.Mutex

	// transferring is set while a catch-up's bulk state transfer is
	// running. The relative straggler check is suspended for its duration:
	// a sweep saturating the fabric skews every node's latency EWMA, and a
	// spurious suspicion can cost the read path its EC quorum mid-transfer.
	// Timeout-based failure detection stays active throughout.
	transferring atomic.Bool

	// gate is the reconfiguration write gate: every mutating client path
	// holds the read side for its duration; a cutover takes the write side
	// to get a moment with no write in flight anywhere.
	gate sync.RWMutex

	// dirtyMain and dirtyDirect, when non-nil, collect the ranges mutated by
	// the write paths so a catch-up can re-copy what changed under its sweep
	// (see dirtyTracker).
	dirtyMain   atomic.Pointer[dirtyTracker]
	dirtyDirect atomic.Pointer[dirtyTracker]

	locks       rangeLock // main space
	directLocks rangeLock // direct space

	queueDepth metrics.Depth

	membership membership

	// lastExclusion is the wall time (UnixNano) a node last left the
	// waited-on write set (live→suspect or →dead, or at a cutover).
	// Acknowledgement paths that feed lease-based backup readers hold acks
	// until this is at least a lease window old, so a backup's ≤W-stale view
	// of membership can never make it read an excluded node for an
	// already-acked write.
	lastExclusion atomic.Int64

	readRR atomic.Uint64

	closed atomic.Bool
	fenced atomic.Bool

	recoveredOnce atomic.Bool

	stats struct {
		directWrites                     atomic.Uint64
		reads, remoteReads, decodedReads atomic.Uint64
		nodeFailures, nodeRecovered      atomic.Uint64
		nodeTimeouts, nodeSuspected      atomic.Uint64
		nodeDegraded, readRepairs        atomic.Uint64
		redials, redialErrors            atomic.Uint64
		enqueued, queueWaitUs            atomic.Uint64
		corruptions, repairs             atomic.Uint64
		scrubbed, scrubPasses            atomic.Uint64
		membershipPublishErrors          atomic.Uint64
	}
	scrubPassTime metrics.EWMA // full-sweep duration, µs
}

// New validates the config and dials the memory nodes. Nodes that cannot be
// dialed start in the dead state; New succeeds as long as a majority is
// reachable.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	var code *erasure.Code
	if c.ECData > 0 {
		var err error
		if code, err = erasure.New(c.ECData, c.ECParity); err != nil {
			return nil, err
		}
	}
	members := make([]*member, len(c.MemoryNodes))
	for i, name := range c.MemoryNodes {
		members[i] = newMember(name, int64(i)+1)
	}
	g := newGroup(c, c.Epoch, members, code)
	g.integ = newIntegrity(c, g)
	m := &Memory{cfg: c}
	m.grp.Store(g)
	m.startWorkers(g)

	conns := make([]rdma.Verbs, len(members))
	for i, mb := range members {
		conn, err := c.Dial(mb.name)
		if err != nil {
			mb.state.Store(nodeDead)
			continue
		}
		mb.conn.Store(&connBox{v: conn})
		conns[i] = conn
	}

	// Takeover hygiene, part 0: the configuration plane. A node carrying a
	// committed config epoch newer than ours means our member list is
	// obsolete — refuse to serve from it (the caller re-discovers the
	// descriptor). A node carrying a retired tombstone was removed from the
	// group in some epoch; a current config never lists one, so seeing it
	// also means we are stale.
	for i, cc := range conns {
		if cc == nil {
			continue
		}
		e, _, err := readEpochWord(cc)
		if err != nil {
			m.nodeFailed(members[i], err)
			conns[i] = nil
			continue
		}
		if e > c.Epoch {
			m.Close()
			return nil, fmt.Errorf("%w: node %s at epoch %d, config built for %d",
				ErrStaleConfig, members[i].name, e, c.Epoch)
		}
		if re, err := readRetired(cc); err == nil && re != 0 {
			m.Close()
			return nil, fmt.Errorf("%w: node %s retired at epoch %d",
				ErrStaleConfig, members[i].name, re)
		}
	}

	// Takeover hygiene, part 1: consult the previous coordinator's
	// membership record. A node absent from the most recent published bitmap
	// missed updates while it was down — even if its memory is intact, it
	// must be rebuilt, not read. Records are only meaningful for our own
	// epoch: bit positions index a member list, and ours only describes
	// epoch cfg.Epoch (readMembershipAt ignores older-epoch words; newer
	// ones were caught above).
	if t, version, bitmap, ok := readMembershipAt(conns, c.Epoch); ok {
		for i, mb := range members {
			if mb.state.Load() == nodeLive && bitmap&(1<<uint(i)) == 0 {
				mb.state.Store(nodeDead)
				m.stats.nodeFailures.Add(1)
			}
		}
		// A Memory rebuilt in the same term (a takeover retried against a
		// rediscovered configuration) must continue the record's version
		// sequence — restarting at 1 would publish records that readers order
		// below the existing one.
		if t == c.Term {
			m.membership.version = version
		}
	}

	// Takeover hygiene, part 2: a reachable node whose "populated" marker is clear
	// holds no trustworthy state — it is a fresh machine, a rebooted one
	// (volatile DRAM gone), or a node whose recovery copy was interrupted
	// by the previous coordinator's death. Such nodes must be rebuilt, not
	// read. A group where no reachable node is populated is a fresh
	// deployment: mark them all populated and start empty.
	populated := make([]bool, len(members))
	anyPopulated := false
	for i, mb := range members {
		if mb.state.Load() != nodeLive {
			continue
		}
		p, err := readPopulated(mb.conn.Load().v)
		if err != nil {
			m.nodeFailed(mb, err)
			continue
		}
		populated[i] = p
		if p {
			anyPopulated = true
		}
	}
	reachable := 0
	for i, mb := range members {
		if mb.state.Load() != nodeLive {
			continue
		}
		if !anyPopulated {
			if err := writePopulated(mb.conn.Load().v, memnode.MarkerPopulated); err != nil {
				m.nodeFailed(mb, err)
				continue
			}
		} else if !populated[i] {
			// Stale/empty node among a populated group: rebuild it.
			mb.state.Store(nodeDead)
			m.stats.nodeFailures.Add(1)
			continue
		}
		reachable++
	}
	if reachable < g.majority() {
		m.Close()
		return nil, fmt.Errorf("%w: reached %d trustworthy nodes of %d", ErrNoQuorum, reachable, len(members))
	}
	// On a fresh deployment the materialized memory is all zeroes but the
	// (also zeroed) strip does not equal the CRC of a zero block, so the
	// strip must be initialized before the first verified read. On a
	// populated group Recover loads the strips instead.
	if !anyPopulated {
		m.bootstrapFresh(g)
	}
	// Anchor the configuration plane: make sure every reachable node carries
	// our epoch's descriptor and epoch word (repairing nodes that missed a
	// cutover or were freshly bootstrapped), then publish this coordinator's
	// initial membership view under its own term.
	m.publishConfigPlane(g)
	m.publishMembership()
	return m, nil
}

// readEpochWord reads a node's config-epoch word.
func readEpochWord(c rdma.Verbs) (epoch uint32, term uint16, err error) {
	var buf [8]byte
	if err := c.Read(memnode.AdminRegionID, memnode.AdminEpochOffset, buf[:]); err != nil {
		return 0, 0, err
	}
	e, t := memnode.UnpackServing(binary.LittleEndian.Uint64(buf[:]))
	return e, t, nil
}

// readRetired reads a node's retired tombstone (0 = active member).
func readRetired(c rdma.Verbs) (uint32, error) {
	var buf [8]byte
	if err := c.Read(memnode.AdminRegionID, memnode.AdminRetiredOffset, buf[:]); err != nil {
		return 0, err
	}
	return uint32(binary.LittleEndian.Uint64(buf[:])), nil
}

// ConfigRecord renders this memory's current configuration as a descriptor
// record (member list in group-index order, EC geometry, epoch, term).
func (m *Memory) ConfigRecord() memnode.ConfigRecord { return m.record(m.grp.Load()) }

// record renders group g as a descriptor record.
func (m *Memory) record(g *group) memnode.ConfigRecord {
	k, p := g.ecGeometry()
	return memnode.ConfigRecord{
		Epoch:       g.epoch,
		Term:        m.cfg.Term,
		ECData:      k,
		ECParity:    p,
		ECBlockSize: m.cfg.ECBlockSize,
		Members:     g.names(),
	}
}

// publishConfigPlane writes group g's descriptor and advances the epoch word
// on every live member that is behind. CAS (expect = observed) guards the
// epoch word so a stale coordinator racing a newer one cannot regress it; the
// descriptor write is guarded by the epoch-word read (a node at a newer epoch
// is never touched — New refuses such configs before serving anyway).
func (m *Memory) publishConfigPlane(g *group) {
	rec := m.record(g)
	image, err := memnode.EncodeConfig(rec)
	if err != nil {
		return
	}
	want := memnode.PackServing(rec.Epoch, rec.Term)
	for _, i := range g.nodesInState(nodeLive) {
		c, err := m.conn(g.members[i])
		if err != nil {
			continue
		}
		e, t, err := readEpochWord(c)
		if err != nil || e > rec.Epoch || (e == rec.Epoch && t > rec.Term) {
			continue
		}
		if err := c.Write(memnode.AdminRegionID, memnode.AdminConfigOffset, image); err != nil {
			continue
		}
		old := memnode.PackServing(e, t)
		if old != want {
			// Best effort; a lost race means a newer epoch or term won.
			_, _ = c.CompareAndSwap(memnode.AdminRegionID, memnode.AdminEpochOffset, old, want)
		}
	}
}

// readPopulated reads a node's populated marker from its admin region.
func readPopulated(c rdma.Verbs) (bool, error) {
	var buf [8]byte
	if err := c.Read(memnode.AdminRegionID, memnode.AdminPopulatedOffset, buf[:]); err != nil {
		return false, err
	}
	return buf[0] == memnode.MarkerPopulated, nil
}

// writePopulated sets a node's populated marker.
func writePopulated(c rdma.Verbs, v byte) error {
	var buf [8]byte
	buf[0] = v
	return c.Write(memnode.AdminRegionID, memnode.AdminPopulatedOffset, buf[:])
}

// SinceExclusion returns how long ago a node last left the waited-on write
// set, or a very large duration if none ever has. See lastExclusion.
func (m *Memory) SinceExclusion() time.Duration {
	ns := m.lastExclusion.Load()
	if ns == 0 {
		return time.Duration(1<<63 - 1)
	}
	return time.Since(time.Unix(0, ns))
}

// Majority returns the commit quorum size (⌊n/2⌋+1 over full membership).
func (m *Memory) Majority() int { return m.grp.Load().majority() }

// Epoch returns the config epoch this memory currently serves.
func (m *Memory) Epoch() uint32 { return m.grp.Load().epoch }

// MemberNames returns the current member list in group-index order.
func (m *Memory) MemberNames() []string { return m.grp.Load().names() }

// MarkExclusion stamps the exclusion clock (see lastExclusion) at the given
// time. A Reconfigure cutover calls it under the write gate, so lease-based
// acknowledgement holds (kv.Config.AckHold) keep covering backup readers
// whose ≤W-stale masks still name the outgoing member set.
func (m *Memory) MarkExclusion(t time.Time) {
	m.lastExclusion.Store(t.UnixNano())
}

// MemSize returns the logical main memory size.
func (m *Memory) MemSize() int { return m.cfg.MemSize }

// DirectSize returns the direct zone size.
func (m *Memory) DirectSize() int { return m.cfg.DirectSize }

// ErasureEnabled reports whether the main space is erasure coded.
func (m *Memory) ErasureEnabled() bool { return m.grp.Load().code != nil }

// WriteAlign returns the memory's write alignment (see Config.WriteAlign).
func (m *Memory) WriteAlign() int { return m.cfg.WriteAlign() }

// Stats returns a snapshot of the operation counters. Transport counters
// aggregate over currently live connections (a connection dropped after a
// node failure takes its counters with it).
func (m *Memory) Stats() Stats {
	s := Stats{
		DirectWrites:  m.stats.directWrites.Load(),
		Reads:         m.stats.reads.Load(),
		RemoteReads:   m.stats.remoteReads.Load(),
		DecodedReads:  m.stats.decodedReads.Load(),
		NodeFailures:  m.stats.nodeFailures.Load(),
		NodeRecovered: m.stats.nodeRecovered.Load(),
		NodeTimeouts:  m.stats.nodeTimeouts.Load(),
		NodeSuspected: m.stats.nodeSuspected.Load(),
		NodeDegraded:  m.stats.nodeDegraded.Load(),
		ReadRepairs:   m.stats.readRepairs.Load(),

		Redials:                 m.stats.redials.Load(),
		RedialErrors:            m.stats.redialErrors.Load(),
		MembershipPublishErrors: m.stats.membershipPublishErrors.Load(),
		Enqueued:                m.stats.enqueued.Load(),
		QueueWaitUs:             m.stats.queueWaitUs.Load(),
		MaxQueueDepth:           uint64(m.queueDepth.Max()),

		CorruptionsDetected: m.stats.corruptions.Load(),
		BlocksRepaired:      m.stats.repairs.Load(),
		ScrubbedBlocks:      m.stats.scrubbed.Load(),
		ScrubPasses:         m.stats.scrubPasses.Load(),
		ScrubPassUs:         uint64(m.scrubPassTime.Value()),
	}
	for _, mb := range m.grp.Load().members {
		b := mb.conn.Load()
		if b == nil {
			continue
		}
		ps, ok := b.v.(rdma.PipelineStatser)
		if !ok {
			continue
		}
		p := ps.PipelineStats()
		s.TransportOps += p.Submitted
		s.TransportFlushes += p.Flushes
		if p.MaxInFlight > s.MaxInFlight {
			s.MaxInFlight = p.MaxInFlight
		}
	}
	return s
}

// bufPool returns a pool of size-byte buffers. It is an object of its own
// and its constructor closes over the size alone, because the runtime keeps
// every pool it has seen in use reachable until two collections later: a
// pool that is a field of the Memory or its group, or whose constructor
// captures either, keeps a closed Memory reachable that long — and through
// its dialer the memory nodes' regions under it, which a process that
// builds deployments one after another (tests, the benchmark's set-ups)
// then cannot reuse.
func bufPool(size int) *sync.Pool {
	return &sync.Pool{New: func() any {
		b := make([]byte, size)
		return &b
	}}
}

// emit records a control-plane event against the named node, tagged with
// this coordinator's term. Safe with no ring configured.
func (m *Memory) emit(typ, node, detail string) {
	m.cfg.Events.Emit(typ, node, m.cfg.Term, detail)
}

// QueueDepth reports the per-node worker queues' current depth and
// high-water mark, for the status surface.
func (m *Memory) QueueDepth() (current, max int64) {
	return m.queueDepth.Current(), m.queueDepth.Max()
}

// fence marks the memory as fenced and fires the callback once: a newer
// coordinator took over, or a reconfiguration left the config epoch
// ambiguous. Either way this memory stops serving and its owner stands down;
// its group is released by the owner's Close.
func (m *Memory) fence(why string) {
	if m.fenced.CompareAndSwap(false, true) {
		m.emit("repmem.fenced", "", why)
		if m.cfg.OnFenced != nil {
			go m.cfg.OnFenced()
		}
	}
}

// checkOpen returns an error when the memory is closed or fenced.
func (m *Memory) checkOpen() error {
	if m.fenced.Load() {
		return ErrFenced
	}
	if m.closed.Load() {
		return ErrClosed
	}
	return nil
}

// writeTargetsInto partitions a write fan-out over g: wait lists the nodes
// whose completions the caller counts (the live ones); bestEffort lists
// suspect and degraded nodes, which receive the write without anyone waiting
// on them. When the wait set alone cannot reach need, best-effort nodes are
// promoted back into it: a majority ack must always mean a true majority of
// the full membership, never a majority of the healthy subset. The lists are
// appended to wait and bestEffort, reset to length zero, so a caller with
// scratch of its own allocates nothing.
func (g *group) writeTargetsInto(need int, wait, bestEffort []int) ([]int, []int) {
	wait, bestEffort = wait[:0], bestEffort[:0]
	for i, mb := range g.members {
		switch mb.state.Load() {
		case nodeLive:
			wait = append(wait, i)
		case nodeSuspect, nodeDegraded:
			bestEffort = append(bestEffort, i)
		}
	}
	if len(wait) < need && len(bestEffort) > 0 {
		wait = append(wait, bestEffort...)
		bestEffort = bestEffort[:0]
	}
	return wait, bestEffort
}

// Close tears down all connections and stops background work.
func (m *Memory) Close() {
	if m.closed.Swap(true) {
		return
	}
	m.closeGroup(m.grp.Load())
}

// closeGroup stops g's workers, then closes its members' connections (queued
// requests still need them).
func (m *Memory) closeGroup(g *group) {
	m.stopWorkers(g)
	for _, mb := range g.members {
		if b := mb.conn.Swap(nil); b != nil {
			b.v.Close()
		}
	}
}

// physMain maps a main-space address to the physical region offset on any
// member, valid only for the full-replication layout (EC uses chunk math).
func (g *group) physMain(addr uint64) uint64 { return g.layout.MainBase() + addr }

// physDirect maps a direct-space address to its physical region offset.
func (g *group) physDirect(addr uint64) uint64 { return g.layout.DirectBase() + addr }

// checkMainRange validates a main-space access.
func (m *Memory) checkMainRange(addr uint64, n int) error {
	if n < 0 || addr > uint64(m.cfg.MemSize) || addr+uint64(n) > uint64(m.cfg.MemSize) {
		return fmt.Errorf("%w: main [%d,%d) of %d", ErrOutOfRange, addr, addr+uint64(n), m.cfg.MemSize)
	}
	return nil
}

// checkDirectRange validates a direct-space access.
func (m *Memory) checkDirectRange(addr uint64, n int) error {
	if n < 0 || addr > uint64(m.cfg.DirectSize) || addr+uint64(n) > uint64(m.cfg.DirectSize) {
		return fmt.Errorf("%w: direct [%d,%d) of %d", ErrOutOfRange, addr, addr+uint64(n), m.cfg.DirectSize)
	}
	return nil
}
