// Package rdma simulates one-sided RDMA over reliable connections.
//
// It models the subset of RDMA semantics that Sift's design depends on:
//
//   - Registered memory regions on passive nodes, addressed by (region id,
//     offset). The owning node's application logic is never involved in
//     serving an operation — operations are executed by the transport's
//     "RNIC engine" directly against the registered buffers.
//   - One-sided READ, WRITE, and 64-bit COMPARE-AND-SWAP verbs.
//   - Reliable-connection completion semantics: every verb call blocks until
//     the remote operation has been performed and acknowledged, and
//     operations issued sequentially on one connection execute in order.
//   - At-most-one-connection fencing on exclusive regions: connecting a new
//     initiator to an exclusive region revokes all previous connections'
//     access to it, so delayed writes from a deposed coordinator are dropped
//     "by the NIC" (paper §3.2).
//
// Two transports are provided: an in-process transport driven by a
// netsim.Fabric (see inproc.go) and a TCP transport where a passive memory
// node daemon's wire handler plays the role of the RNIC (see tcp.go).
package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// Common verb errors.
var (
	// ErrFenced indicates the connection's access to an exclusive region was
	// revoked by a newer exclusive connection.
	ErrFenced = errors.New("rdma: connection fenced by newer exclusive connection")
	// ErrOutOfBounds indicates an access outside the registered region.
	ErrOutOfBounds = errors.New("rdma: access out of region bounds")
	// ErrUnknownRegion indicates the region id is not registered on the node.
	ErrUnknownRegion = errors.New("rdma: unknown region")
	// ErrMisaligned indicates a CAS at a non-8-byte-aligned offset.
	ErrMisaligned = errors.New("rdma: atomic access must be 8-byte aligned")
	// ErrClosed indicates the connection has been closed.
	ErrClosed = errors.New("rdma: connection closed")
	// ErrDeadline indicates an operation exceeded the connection's per-op
	// deadline. The remote node may or may not have executed the operation
	// (it may still execute it later); callers must treat the outcome as
	// unknown. The connection itself stays usable — gray-failure detection
	// is built on these per-operation timeouts, not on connection liveness.
	ErrDeadline = errors.New("rdma: operation deadline exceeded")
)

// RegionID names a registered memory region on a node.
type RegionID uint32

// Verbs is the one-sided operation set available over a connection.
// All calls block until remotely complete (reliable-connection semantics).
type Verbs interface {
	// Read copies len(buf) bytes from the remote region at offset into buf.
	Read(region RegionID, offset uint64, buf []byte) error
	// Write copies data into the remote region at offset and waits for the
	// remote acknowledgement.
	Write(region RegionID, offset uint64, data []byte) error
	// CompareAndSwap atomically replaces the 8-byte word at offset with swap
	// if it currently equals expect. It returns the value observed before
	// the operation (equal to expect iff the swap happened).
	CompareAndSwap(region RegionID, offset uint64, expect, swap uint64) (uint64, error)
	// Close tears down the connection. Further verbs return ErrClosed.
	Close() error
}

const regionStripes = 64

// Region is a registered memory region. Access is striped so that
// non-overlapping DMA operations proceed in parallel, as on real hardware.
type Region struct {
	buf []byte

	// stripes guard disjoint address ranges of buf; a multi-stripe access
	// locks its stripes in ascending order to avoid deadlock.
	stripes [regionStripes]sync.RWMutex

	exclusive bool
	epoch     atomic.Uint64 // current owner epoch; conns with older epochs are fenced
}

// NewRegion allocates a region of the given size. If exclusive is true the
// region enforces at-most-one-connection semantics.
func NewRegion(size int, exclusive bool) *Region {
	return &Region{buf: make([]byte, size), exclusive: exclusive}
}

// Size returns the region's length in bytes.
func (r *Region) Size() int { return len(r.buf) }

// Exclusive reports whether the region enforces at-most-one-connection.
func (r *Region) Exclusive() bool { return r.exclusive }

// ObserverEpoch is the epoch token granting read-only access to an
// exclusive region that survives ownership changes — the moral equivalent
// of a real RNIC handing out a read-only rkey beside the writer's
// protection domain. Transports must never use it for writes or CAS; they
// enforce read-only-ness at the connection layer (see DialOpts.ReadOnly).
const ObserverEpoch = ^uint64(0)

// Acquire registers a new exclusive owner and returns its epoch token,
// revoking all prior owners. For non-exclusive regions it returns 0; all
// epoch-0 tokens remain valid forever.
func (r *Region) Acquire() uint64 {
	if !r.exclusive {
		return 0
	}
	return r.epoch.Add(1)
}

// check validates an epoch token against the current owner epoch.
func (r *Region) check(epoch uint64) error {
	if !r.exclusive || epoch == ObserverEpoch {
		return nil
	}
	if epoch != r.epoch.Load() {
		return ErrFenced
	}
	return nil
}

func (r *Region) stripeRange(offset uint64, n int) (first, last int) {
	if len(r.buf) == 0 || n <= 0 {
		return 0, 0
	}
	stripeSize := (len(r.buf) + regionStripes - 1) / regionStripes
	first = int(offset) / stripeSize
	last = (int(offset) + n - 1) / stripeSize
	if last >= regionStripes {
		last = regionStripes - 1
	}
	return first, last
}

func (r *Region) bounds(offset uint64, n int) error {
	if n < 0 || offset > uint64(len(r.buf)) || offset+uint64(n) > uint64(len(r.buf)) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, offset, offset+uint64(n), len(r.buf))
	}
	return nil
}

// ReadAt copies region bytes at offset into buf. epoch is the caller's
// fencing token from Acquire.
func (r *Region) ReadAt(epoch, offset uint64, buf []byte) error {
	if err := r.check(epoch); err != nil {
		return err
	}
	return r.readv(offset, buf, nil)
}

// readv is a read once the epoch has been checked: (offset, buf) and then
// every segment of more. The segments are bounds-checked and their stripes
// locked as one hull, so a vectored read of thousands of small segments costs
// one pass over the locks, not one per segment. (An end that wraps past 2^64
// leaves the hull ending at its offset, which is then out of bounds.)
func (r *Region) readv(offset uint64, buf []byte, more []Seg) error {
	lo, hi := offset, max(offset, offset+uint64(len(buf)))
	for _, s := range more {
		lo, hi = min(lo, s.Offset), max(hi, s.Offset, s.Offset+uint64(len(s.Data)))
	}
	if err := r.bounds(lo, int(hi-lo)); err != nil {
		return err
	}
	first, last := r.stripeRange(lo, int(hi-lo))
	for i := first; i <= last; i++ {
		r.stripes[i].RLock()
	}
	copy(buf, r.buf[offset:])
	for _, s := range more {
		copy(s.Data, r.buf[s.Offset:])
	}
	for i := last; i >= first; i-- {
		r.stripes[i].RUnlock()
	}
	return nil
}

// WriteAt copies data into the region at offset.
func (r *Region) WriteAt(epoch, offset uint64, data []byte) error {
	if err := r.check(epoch); err != nil {
		return err
	}
	if err := r.bounds(offset, len(data)); err != nil {
		return err
	}
	first, last := r.stripeRange(offset, len(data))
	for i := first; i <= last; i++ {
		r.stripes[i].Lock()
	}
	copy(r.buf[offset:], data)
	for i := last; i >= first; i-- {
		r.stripes[i].Unlock()
	}
	return nil
}

// CASAt performs an atomic 64-bit compare-and-swap at the 8-byte-aligned
// offset, returning the previously stored value.
func (r *Region) CASAt(epoch, offset uint64, expect, swap uint64) (uint64, error) {
	if err := r.check(epoch); err != nil {
		return 0, err
	}
	if offset%8 != 0 {
		return 0, ErrMisaligned
	}
	if err := r.bounds(offset, 8); err != nil {
		return 0, err
	}
	first, _ := r.stripeRange(offset, 8)
	r.stripes[first].Lock()
	defer r.stripes[first].Unlock()
	old := binary.LittleEndian.Uint64(r.buf[offset:])
	if old == expect {
		binary.LittleEndian.PutUint64(r.buf[offset:], swap)
	}
	return old, nil
}

// Corrupt XORs mask into the byte at offset, bypassing epoch fencing. It is
// a node-local maintenance operation modelling silent memory corruption —
// flipped DRAM bits do not hold ownership tokens — not a network verb.
func (r *Region) Corrupt(offset uint64, mask byte) error {
	if err := r.bounds(offset, 1); err != nil {
		return err
	}
	first, _ := r.stripeRange(offset, 1)
	r.stripes[first].Lock()
	r.buf[offset] ^= mask
	r.stripes[first].Unlock()
	return nil
}

// Snapshot returns a copy of the region contents. It is a node-local
// maintenance operation (used to model local persistence and tests), not a
// network verb.
func (r *Region) Snapshot() []byte {
	out := make([]byte, len(r.buf))
	for i := 0; i < regionStripes; i++ {
		r.stripes[i].RLock()
	}
	copy(out, r.buf)
	for i := regionStripes - 1; i >= 0; i-- {
		r.stripes[i].RUnlock()
	}
	return out
}

// Node is a passive memory host: a set of registered regions. After setup
// (region registration and, for the TCP transport, listening), the node runs
// no protocol logic of its own. The region table is copy-on-write: a lookup
// is one atomic load, and Register publishes a new table under mu.
type Node struct {
	name string

	mu      sync.Mutex // serializes Register
	regions atomic.Pointer[map[RegionID]*Region]
}

// NewNode creates a node with the given name. The name identifies the node
// on a netsim.Fabric for failure injection.
func NewNode(name string) *Node {
	n := &Node{name: name}
	n.regions.Store(&map[RegionID]*Region{})
	return n
}

// Name returns the node's fabric name.
func (n *Node) Name() string { return n.name }

// Register registers a memory region under id, replacing any existing one.
func (n *Node) Register(id RegionID, r *Region) {
	n.mu.Lock()
	regions := maps.Clone(*n.regions.Load())
	regions[id] = r
	n.regions.Store(&regions)
	n.mu.Unlock()
}

// Alloc allocates and registers a fresh region of the given size.
func (n *Node) Alloc(id RegionID, size int, exclusive bool) *Region {
	r := NewRegion(size, exclusive)
	n.Register(id, r)
	return r
}

// Region returns the region registered under id, or nil.
func (n *Node) Region(id RegionID) *Region {
	return (*n.regions.Load())[id]
}

// RegionIDs returns all registered region ids.
func (n *Node) RegionIDs() []RegionID {
	regions := *n.regions.Load()
	ids := make([]RegionID, 0, len(regions))
	for id := range regions {
		ids = append(ids, id)
	}
	return ids
}
