package rdma

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/metrics"
	"github.com/repro/sift/internal/netsim"
)

// opHeaderSize approximates the on-wire size of a verb header (opcode,
// region, offset, length) plus transport framing; used for latency modelling.
const opHeaderSize = 32

// DialOpts configures a new connection.
type DialOpts struct {
	// Exclusive lists regions to open with at-most-one-connection semantics.
	// Dialing revokes every prior connection's access to these regions.
	// Regions not registered as exclusive are silently opened shared.
	Exclusive []RegionID

	// ReadOnly lists exclusive regions to open with observer access: reads
	// bypass epoch fencing (they keep working across ownership changes), and
	// writes and CAS on the connection fail with ErrFenced. Backup CPU nodes
	// use this to serve lease-based reads from replicated memory without
	// revoking the coordinator's exclusive write access.
	ReadOnly []RegionID

	// OpDeadline bounds every operation on the connection: an operation not
	// remotely acknowledged within this duration completes with ErrDeadline,
	// and the connection stays usable for later operations. Zero disables
	// deadlines (operations may block for as long as the peer is silent).
	OpDeadline time.Duration

	// DialTimeout bounds connection establishment, including the region
	// handshake. Zero means the transport's default (no limit for in-proc;
	// OpDeadline, if set, for TCP).
	DialTimeout time.Duration
}

// Network is an in-process RDMA network: a set of passive nodes joined by a
// netsim.Fabric that models latency, partitions, and node failures.
type Network struct {
	fabric *netsim.Fabric

	mu    sync.RWMutex
	nodes map[string]*Node
}

// NewNetwork creates a network over the given fabric. A nil fabric gets a
// zero-latency default.
func NewNetwork(fabric *netsim.Fabric) *Network {
	if fabric == nil {
		fabric = netsim.NewFabric(nil)
	}
	return &Network{fabric: fabric, nodes: make(map[string]*Node)}
}

// Fabric returns the underlying fabric for failure injection.
func (n *Network) Fabric() *netsim.Fabric { return n.fabric }

// AddNode attaches a node to the network.
func (n *Network) AddNode(node *Node) {
	n.mu.Lock()
	n.nodes[node.Name()] = node
	n.mu.Unlock()
}

// RemoveNode detaches a node (e.g. permanent decommission).
func (n *Network) RemoveNode(name string) {
	n.mu.Lock()
	delete(n.nodes, name)
	n.mu.Unlock()
}

// Node returns the attached node with the given name, or nil.
func (n *Network) Node(name string) *Node {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.nodes[name]
}

// Dial opens a connection from initiator src to the node named dst.
// Establishing the connection involves the remote node's CPU (as in real
// RDMA connection setup); all subsequent verbs are one-sided.
func (n *Network) Dial(src, dst string, opts DialOpts) (Verbs, error) {
	n.mu.RLock()
	node := n.nodes[dst]
	n.mu.RUnlock()
	if node == nil {
		return nil, fmt.Errorf("rdma: dial %s: %w", dst, ErrUnknownRegion)
	}
	// Connection setup round trip.
	if err := n.fabric.Transfer(src, dst, opHeaderSize); err != nil {
		return nil, fmt.Errorf("rdma: dial %s: %w", dst, err)
	}
	c := &inprocConn{net: n, src: src, dst: dst, node: node, epochs: make(map[RegionID]uint64), opDeadline: opts.OpDeadline}
	for _, id := range opts.Exclusive {
		r := node.Region(id)
		if r == nil {
			c.Close()
			return nil, fmt.Errorf("rdma: dial %s region %d: %w", dst, id, ErrUnknownRegion)
		}
		c.epochs[id] = r.Acquire()
	}
	if len(opts.ReadOnly) > 0 {
		c.readonly = make(map[RegionID]bool, len(opts.ReadOnly))
		for _, id := range opts.ReadOnly {
			if node.Region(id) == nil {
				c.Close()
				return nil, fmt.Errorf("rdma: dial %s region %d: %w", dst, id, ErrUnknownRegion)
			}
			c.epochs[id] = ObserverEpoch
			c.readonly[id] = true
		}
	}
	if err := n.fabric.Transfer(dst, src, opHeaderSize); err != nil {
		return nil, fmt.Errorf("rdma: dial %s: %w", dst, err)
	}
	return c, nil
}

// The in-process send queue, as parameters of the latency model (they are
// not deployment settings and no configuration reaches them). It serves only
// links that carry modelled delay: an op whose link takes no modelled time
// runs on the goroutine that submits it, as a one-sided verb runs on the
// RNIC with no host thread handing it on.
//
//   - inprocWorkers is the number of lanes: operations one connection can
//     have on a delayed link at once, each occupying its lane for a full
//     round trip. A real RC queue pair keeps hundreds of work requests in
//     flight; eight lanes keep the goroutine count per connection small, and
//     cap a connection at inprocWorkers operations per round trip over slow
//     links.
//   - inprocQueue is the submit-channel depth; submissions beyond it apply
//     backpressure to the submitter.
const (
	inprocWorkers = 8
	inprocQueue   = 128
)

// segHeaderSize approximates the wire cost of one further segment of a
// vectored op (offset, length).
const segHeaderSize = 16

// inprocConn is a reliable connection on the in-process transport. Verbs are
// executed directly against the remote node's registered regions; the
// netsim.Fabric supplies latency and failure behaviour. The epochs map is
// immutable after Dial, so the verb paths are lock-free.
type inprocConn struct {
	net  *Network
	src  string
	dst  string
	node *Node

	closed     atomic.Bool
	epochs     map[RegionID]uint64
	readonly   map[RegionID]bool // observer regions: reads only
	opDeadline time.Duration

	// subMu guards the submit channel's lifecycle: Submit sends while
	// holding the read side so Close (write side) cannot close the channel
	// under an in-progress send. Workers start lazily on the first Submit
	// over a delayed link.
	subMu sync.RWMutex
	subCh chan *Op

	submitted atomic.Uint64
	inflight  metrics.Depth
}

var (
	_ Submitter       = (*inprocConn)(nil)
	_ PipelineStatser = (*inprocConn)(nil)
)

// admit checks what the initiator's side of a verb checks before anything
// is sent, and resolves the op's region. The lookup is per operation, so a
// region re-registered by a restarted memory node is seen by the next one.
func (c *inprocConn) admit(op *Op) (*Region, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if err := checkSegments(op); err != nil {
		return nil, err
	}
	if op.Kind != OpRead && c.readonly[op.Region] {
		return nil, ErrFenced
	}
	r := c.node.Region(op.Region)
	if r == nil {
		return nil, fmt.Errorf("rdma: region %d: %w", op.Region, ErrUnknownRegion)
	}
	return r, nil
}

// execute is the remote NIC's part of a verb: op applied to region r, a
// vectored op segment by segment in order, stopping at the first error.
func (c *inprocConn) execute(r *Region, op *Op) (err error) {
	epoch := c.epochs[op.Region]
	switch op.Kind {
	case OpRead:
		if err = r.check(epoch); err != nil {
			return err
		}
		return r.readv(op.Offset, op.Data, op.More)
	case OpWrite:
		err = r.WriteAt(epoch, op.Offset, op.Data)
		for i := 0; err == nil && i < len(op.More); i++ {
			err = r.WriteAt(epoch, op.More[i].Offset, op.More[i].Data)
		}
		return err
	case OpCAS:
		op.Old, err = r.CASAt(epoch, op.Offset, op.Expect, op.Swap)
		return err
	}
	return fmt.Errorf("rdma: unknown op kind %d", op.Kind)
}

// wireSizes returns the modelled sizes of op's request and response legs.
func wireSizes(op *Op) (req, resp int) {
	switch op.Kind {
	case OpRead:
		req, resp = opHeaderSize, opHeaderSize+len(op.Data)
		for i := range op.More {
			req += segHeaderSize
			resp += len(op.More[i].Data)
		}
		return req, resp
	case OpWrite:
		req = opHeaderSize + len(op.Data)
		for i := range op.More {
			req += segHeaderSize + len(op.More[i].Data)
		}
		return req, opHeaderSize
	case OpCAS:
		return opHeaderSize + 16, opHeaderSize + 8
	}
	return opHeaderSize, opHeaderSize
}

// Submit implements Submitter. Over a link that takes no modelled time the
// op runs inline, through the blocking verbs' path, and completes before
// Submit returns. Otherwise it executes on one of the connection's lanes, so
// many operations proceed concurrently while the submitter keeps going.
func (c *inprocConn) Submit(op *Op) {
	if c.net.fabric.Instant(c.src, c.dst) {
		c.submitted.Add(1)
		c.inflight.Inc()
		err := c.do(op)
		c.inflight.Dec()
		op.complete(err)
		return
	}
	for {
		c.subMu.RLock()
		if c.closed.Load() {
			c.subMu.RUnlock()
			op.complete(ErrClosed)
			return
		}
		if ch := c.subCh; ch != nil {
			op.deadline = time.Time{}
			if c.opDeadline > 0 {
				op.deadline = time.Now().Add(c.opDeadline)
			}
			c.submitted.Add(1)
			ch <- op
			c.subMu.RUnlock()
			return
		}
		c.subMu.RUnlock()
		c.startWorkers()
	}
}

// startWorkers lazily creates the submit channel and worker pool, so
// connections that never carry a delayed op cost no goroutines.
func (c *inprocConn) startWorkers() {
	c.subMu.Lock()
	if c.subCh == nil && !c.closed.Load() {
		ch := make(chan *Op, inprocQueue)
		c.subCh = ch
		for i := 0; i < inprocWorkers; i++ {
			go c.workerLoop(ch)
		}
	}
	c.subMu.Unlock()
}

// workerLoop is one lane: one operation at a time, each a full round trip,
// counted in flight while it holds the lane. The clock is read once before
// and once after: an op that expired while queued completes without
// executing; one that expires during the round trip still executed remotely
// but reports ErrDeadline, mirroring the TCP transport's ambiguity (the
// initiator cannot tell whether a late operation landed).
func (c *inprocConn) workerLoop(ch chan *Op) {
	timed := c.opDeadline > 0
	for op := range ch {
		c.inflight.Inc()
		var err error
		if timed && time.Now().After(op.deadline) {
			err = ErrDeadline
		} else if err = c.roundTrip(op); err == nil && timed && time.Now().After(op.deadline) {
			err = ErrDeadline
		}
		c.inflight.Dec()
		op.complete(err)
	}
}

// roundTrip carries one operation: a request leg sized for every payload,
// the operation itself, and the reliable-connection acknowledgement (with
// the read or CAS result).
func (c *inprocConn) roundTrip(op *Op) error {
	r, err := c.admit(op)
	if err != nil {
		return err
	}
	req, resp := wireSizes(op)
	if err := c.net.fabric.Transfer(c.src, c.dst, req); err != nil {
		return err
	}
	if err := c.execute(r, op); err != nil {
		return err
	}
	return c.net.fabric.Transfer(c.dst, c.src, resp)
}

// do is the blocking verb path: one round trip on the caller's goroutine. An
// execution that outlasts the connection's deadline reports ErrDeadline;
// errors that already occurred take precedence.
func (c *inprocConn) do(op *Op) error {
	var start time.Time
	if c.opDeadline > 0 {
		start = time.Now()
	}
	err := c.roundTrip(op)
	if err == nil && c.opDeadline > 0 && time.Since(start) > c.opDeadline {
		return ErrDeadline
	}
	return err
}

// Read implements Verbs.
func (c *inprocConn) Read(region RegionID, offset uint64, buf []byte) error {
	return c.do(&Op{Kind: OpRead, Region: region, Offset: offset, Data: buf})
}

// Write implements Verbs.
func (c *inprocConn) Write(region RegionID, offset uint64, data []byte) error {
	return c.do(&Op{Kind: OpWrite, Region: region, Offset: offset, Data: data})
}

// CompareAndSwap implements Verbs.
func (c *inprocConn) CompareAndSwap(region RegionID, offset uint64, expect, swap uint64) (uint64, error) {
	op := Op{Kind: OpCAS, Region: region, Offset: offset, Expect: expect, Swap: swap}
	if err := c.do(&op); err != nil {
		return 0, err
	}
	return op.Old, nil
}

// Close implements Verbs. Queued operations complete with ErrClosed as the
// workers drain the channel.
func (c *inprocConn) Close() error {
	c.subMu.Lock()
	first := !c.closed.Swap(true)
	ch := c.subCh
	c.subCh = nil
	c.subMu.Unlock()
	if first && ch != nil {
		close(ch)
	}
	return nil
}

// PipelineStats implements PipelineStatser. Flushes equals Submitted: the
// in-process transport has no wire to batch onto, so every submission is
// its own doorbell.
func (c *inprocConn) PipelineStats() PipelineStats {
	n := c.submitted.Load()
	return PipelineStats{
		Submitted:   n,
		Flushes:     n,
		MaxInFlight: uint64(c.inflight.Max()),
	}
}
