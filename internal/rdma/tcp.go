package rdma

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/metrics"
)

// TCP transport: a passive memory node daemon serves verbs over TCP. The
// daemon's per-connection handler is the moral equivalent of the RNIC — it
// executes READ/WRITE/CAS directly against the node's registered regions and
// runs no protocol logic. Initiators use DialTCP to obtain a Verbs
// connection.
//
// The wire protocol is pipelined: every request carries a 64-bit ID, so many
// operations can be outstanding on one connection (as on a real QP). On the
// initiator a dedicated writer goroutine coalesces queued requests into one
// buffered flush (doorbell batching) and a dedicated reader goroutine
// demultiplexes responses to their waiting submitters by ID. The daemon
// executes requests strictly in arrival order (reliable-connection
// semantics) and pushes responses through its own coalescing writer.

const tcpMagic = "SIFTRDM2"

// tcpReadOnlyBit flags a handshake region id as observer (read-only)
// access; ids without it are opened exclusively, as before.
const tcpReadOnlyBit = uint32(1) << 31

// Verb opcodes on the wire.
const (
	opRead  = 1
	opWrite = 2
	opCAS   = 3
)

// Wire status codes.
const (
	statusOK = iota
	statusFenced
	statusOutOfBounds
	statusUnknownRegion
	statusMisaligned
)

func statusToError(s byte) error {
	switch s {
	case statusOK:
		return nil
	case statusFenced:
		return ErrFenced
	case statusOutOfBounds:
		return ErrOutOfBounds
	case statusUnknownRegion:
		return ErrUnknownRegion
	case statusMisaligned:
		return ErrMisaligned
	default:
		return fmt.Errorf("rdma: unknown wire status %d", s)
	}
}

func errorToStatus(err error) byte {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, ErrFenced):
		return statusFenced
	case errors.Is(err, ErrOutOfBounds):
		return statusOutOfBounds
	case errors.Is(err, ErrUnknownRegion):
		return statusUnknownRegion
	case errors.Is(err, ErrMisaligned):
		return statusMisaligned
	default:
		return statusOutOfBounds
	}
}

// maxWireData bounds a single transfer to keep a malformed peer from forcing
// huge allocations.
const maxWireData = 64 << 20

// Frame sizes.
const (
	reqHeaderSize  = 25 // id(8) opcode(1) region(4) offset(8) length(4)
	respHeaderSize = 13 // id(8) status(1) length(4)
	casArgsSize    = 16 // expect(8) swap(8)
)

// wireBufs pools transfer buffers on the daemon side; read-response payloads
// are held until the response writer has flushed them.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getWireBuf(n int) []byte {
	b := *wireBufs.Get().(*[]byte)
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func putWireBuf(b []byte) {
	b = b[:0]
	wireBufs.Put(&b)
}

// Serve accepts connections on l and serves one-sided operations against
// node until l is closed. It is the only code a memory node runs after
// startup, mirroring the passivity of Sift memory nodes.
func Serve(l net.Listener, node *Node) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go serveConn(conn, node)
	}
}

// srvResp is one queued response awaiting the daemon's writer goroutine.
// payload, when pooled is true, is returned to wireBufs after the flush.
type srvResp struct {
	id      uint64
	status  byte
	payload []byte
	pooled  bool
}

// srvWriter coalesces queued responses into single flushes.
type srvWriter struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []srvResp
	closed bool
}

func (w *srvWriter) push(r srvResp) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		if r.pooled {
			putWireBuf(r.payload)
		}
		return
	}
	w.queue = append(w.queue, r)
	w.mu.Unlock()
	w.cond.Signal()
}

func (w *srvWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

// run drains the response queue onto bw until close() is called and the
// queue is empty, or a write fails. It owns closing conn.
func (w *srvWriter) run(conn net.Conn, bw *bufio.Writer) {
	defer conn.Close()
	var hdr [respHeaderSize]byte
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 && w.closed {
			w.mu.Unlock()
			return
		}
		batch := w.queue
		w.queue = nil
		w.mu.Unlock()

		ok := true
		for _, r := range batch {
			binary.LittleEndian.PutUint64(hdr[0:8], r.id)
			hdr[8] = r.status
			binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(r.payload)))
			if _, err := bw.Write(hdr[:]); err != nil {
				ok = false
			}
			if len(r.payload) > 0 {
				if _, err := bw.Write(r.payload); err != nil {
					ok = false
				}
			}
			if r.pooled {
				putWireBuf(r.payload)
			}
		}
		if !ok || bw.Flush() != nil {
			// Transport broken: closing conn unblocks the request reader,
			// which will shut the queue down.
			w.close()
			return
		}
	}
}

func serveConn(conn net.Conn, node *Node) {
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)

	// Handshake: magic, then the list of regions to open exclusively.
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != tcpMagic {
		conn.Close()
		return
	}
	var nEx uint16
	if err := binary.Read(br, binary.LittleEndian, &nEx); err != nil {
		conn.Close()
		return
	}
	epochs := make(map[RegionID]uint64)
	readonly := make(map[RegionID]bool)
	ok := byte(statusOK)
	for i := 0; i < int(nEx); i++ {
		var id uint32
		if err := binary.Read(br, binary.LittleEndian, &id); err != nil {
			conn.Close()
			return
		}
		// The high bit marks observer (read-only) access: reads bypass epoch
		// fencing, writes and CAS are rejected (see DialOpts.ReadOnly).
		observer := id&tcpReadOnlyBit != 0
		id &^= tcpReadOnlyBit
		r := node.Region(RegionID(id))
		if r == nil {
			ok = statusUnknownRegion
			continue
		}
		if observer {
			epochs[RegionID(id)] = ObserverEpoch
			readonly[RegionID(id)] = true
		} else {
			epochs[RegionID(id)] = r.Acquire()
		}
	}
	if err := bw.WriteByte(ok); err != nil || bw.Flush() != nil || ok != statusOK {
		conn.Close()
		return
	}

	// Request loop: execute strictly in arrival order (the ordering the
	// initiator's repmem layer relies on for same-address writes), handing
	// responses to the coalescing writer.
	w := &srvWriter{}
	w.cond = sync.NewCond(&w.mu)
	go w.run(conn, bw)
	defer w.close()

	var hdr [reqHeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		id := binary.LittleEndian.Uint64(hdr[0:8])
		opcode := hdr[8]
		region := RegionID(binary.LittleEndian.Uint32(hdr[9:13]))
		offset := binary.LittleEndian.Uint64(hdr[13:21])
		length := binary.LittleEndian.Uint32(hdr[21:25])
		if length > maxWireData {
			return
		}
		r := node.Region(region)
		epoch := epochs[region]

		switch opcode {
		case opRead:
			var data []byte
			var err error
			if r == nil {
				err = ErrUnknownRegion
			} else {
				data = getWireBuf(int(length))
				err = r.ReadAt(epoch, offset, data)
			}
			if err != nil {
				if data != nil {
					putWireBuf(data)
				}
				w.push(srvResp{id: id, status: errorToStatus(err)})
			} else {
				w.push(srvResp{id: id, status: statusOK, payload: data, pooled: true})
			}
		case opWrite:
			payload := getWireBuf(int(length))
			if _, err := io.ReadFull(br, payload); err != nil {
				putWireBuf(payload)
				return
			}
			var err error
			if r == nil {
				err = ErrUnknownRegion
			} else if readonly[region] {
				err = ErrFenced
			} else {
				err = r.WriteAt(epoch, offset, payload)
			}
			putWireBuf(payload)
			w.push(srvResp{id: id, status: errorToStatus(err)})
		case opCAS:
			var args [casArgsSize]byte
			if _, err := io.ReadFull(br, args[:]); err != nil {
				return
			}
			expect := binary.LittleEndian.Uint64(args[0:8])
			swap := binary.LittleEndian.Uint64(args[8:16])
			var old uint64
			var err error
			if r == nil {
				err = ErrUnknownRegion
			} else if readonly[region] {
				err = ErrFenced
			} else {
				old, err = r.CASAt(epoch, offset, expect, swap)
			}
			if err != nil {
				w.push(srvResp{id: id, status: errorToStatus(err)})
			} else {
				ov := getWireBuf(8)
				binary.LittleEndian.PutUint64(ov, old)
				w.push(srvResp{id: id, status: statusOK, payload: ov, pooled: true})
			}
		default:
			return
		}
	}
}

// maxExpiredIDs bounds the set of request IDs abandoned by the deadline
// sweep whose responses are still owed by the peer. A peer that falls this
// far behind is not gray, it is gone — the connection is failed outright.
const maxExpiredIDs = 4096

// tcpConn implements Submitter over a TCP connection to a memory node
// daemon. Completion ownership: an Op is completed exactly once, by
// whichever goroutine removes it from the queue or the pending map — the
// writer for ops that never reach the wire, the reader for everything else,
// and the deadline sweep for ops the peer left hanging past their deadline.
type tcpConn struct {
	conn       net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	opDeadline time.Duration

	// mu guards queue, pending, expired, nextID and the sticky transport
	// error; cond (on mu) wakes the writer. wmu serializes request
	// serialization against failAll and the deadline sweep so an Op's Data
	// buffer is never handed back to its owner while the writer may still be
	// reading it.
	mu      sync.Mutex
	cond    *sync.Cond
	wmu     sync.Mutex
	queue   []*Op
	pending map[uint64]*Op
	// expired records IDs of timed-out ops already completed with
	// ErrDeadline; a late response for one is discarded instead of killing
	// the connection.
	expired map[uint64]struct{}
	err     error
	nextID  uint64

	sweepStop chan struct{}
	stopSweep sync.Once

	submitted atomic.Uint64
	flushes   atomic.Uint64
	expiries  atomic.Uint64
	inflight  metrics.Depth
}

var (
	_ Submitter       = (*tcpConn)(nil)
	_ PipelineStatser = (*tcpConn)(nil)
)

// DialTCP connects to a memory node daemon at addr. Regions listed in
// opts.Exclusive are opened with at-most-one-connection semantics: the
// daemon revokes all earlier exclusive holders.
func DialTCP(addr string, opts DialOpts) (Verbs, error) {
	dialTimeout := opts.DialTimeout
	if dialTimeout == 0 {
		dialTimeout = opts.OpDeadline
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &tcpConn{
		conn:       conn,
		br:         bufio.NewReaderSize(conn, 64<<10),
		bw:         bufio.NewWriterSize(conn, 64<<10),
		pending:    make(map[uint64]*Op),
		expired:    make(map[uint64]struct{}),
		opDeadline: opts.OpDeadline,
		sweepStop:  make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	if dialTimeout > 0 {
		conn.SetDeadline(time.Now().Add(dialTimeout))
	}
	c.bw.WriteString(tcpMagic)
	binary.Write(c.bw, binary.LittleEndian, uint16(len(opts.Exclusive)+len(opts.ReadOnly)))
	for _, id := range opts.Exclusive {
		binary.Write(c.bw, binary.LittleEndian, uint32(id))
	}
	for _, id := range opts.ReadOnly {
		binary.Write(c.bw, binary.LittleEndian, uint32(id)|tcpReadOnlyBit)
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	status, err := c.br.ReadByte()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if status != statusOK {
		conn.Close()
		return nil, statusToError(status)
	}
	conn.SetDeadline(time.Time{})
	go c.writeLoop()
	go c.readLoop()
	if c.opDeadline > 0 {
		go c.sweepLoop()
	}
	return c, nil
}

// fail records the first transport error, wakes the writer, and tears down
// the socket (unblocking any goroutine stuck in socket I/O). It returns the
// sticky error.
func (c *tcpConn) fail(err error) error {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	c.mu.Unlock()
	c.cond.Broadcast()
	if c.sweepStop != nil {
		c.stopSweep.Do(func() { close(c.sweepStop) })
	}
	c.conn.Close()
	return err
}

// sweepLoop periodically expires pending requests whose deadline has passed.
// The sweep is what turns a hung-but-connected peer (a gray failure) into
// per-operation ErrDeadline completions instead of an indefinitely blocked
// demux reader.
func (c *tcpConn) sweepLoop() {
	period := c.opDeadline / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	if period > 250*time.Millisecond {
		period = 250 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case now := <-t.C:
			c.expireOverdue(now)
		}
	}
}

// expireOverdue completes every queued or in-flight op whose deadline has
// passed with ErrDeadline (a vectored op with every frame it is still owed
// an answer for). Taking wmu first keeps the sweep from completing
// an op whose Data the writer is still serializing. Expired in-flight IDs
// are remembered so their late responses can be discarded.
func (c *tcpConn) expireOverdue(now time.Time) {
	var victims []*Op
	c.wmu.Lock()
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		c.wmu.Unlock()
		return
	}
	for id, op := range c.pending {
		if !op.deadline.IsZero() && now.After(op.deadline) {
			delete(c.pending, id)
			c.expired[id] = struct{}{}
			// A vectored op is pending under one ID per frame; it is a
			// victim once, at the first of them met.
			if op.acks > 0 {
				op.acks = 0
				victims = append(victims, op)
			}
		}
	}
	if len(c.queue) > 0 {
		kept := c.queue[:0]
		for _, op := range c.queue {
			if !op.deadline.IsZero() && now.After(op.deadline) {
				victims = append(victims, op)
			} else {
				kept = append(kept, op)
			}
		}
		c.queue = kept
	}
	overrun := len(c.expired) > maxExpiredIDs
	c.mu.Unlock()
	c.wmu.Unlock()
	for _, op := range victims {
		c.expiries.Add(1)
		c.finish(op, ErrDeadline)
	}
	if overrun {
		c.failAll(c.fail(fmt.Errorf("%w: peer owes %d responses", ErrDeadline, maxExpiredIDs)))
	}
}

// finish completes op and drops it from the in-flight gauge.
func (c *tcpConn) finish(op *Op, err error) {
	c.inflight.Dec()
	op.complete(err)
}

// abort fails the connection over a malformed response to op and completes
// op with everything else in flight. owned says the reader took op's last
// frame out of pending; otherwise op is a vectored op that failAll (or the
// deadline sweep) finds under its other frames.
func (c *tcpConn) abort(op *Op, owned bool, err error) {
	err = c.fail(err)
	if owned {
		c.finish(op, err)
	}
	c.failAll(err)
}

// failAll completes every queued and in-flight op with err. Taking wmu
// first waits out a writer that may be mid-serialization (the socket is
// already closed, so it cannot block for long). The victims are chosen under
// mu, as in expireOverdue, and no op is looked at again once the first Done
// has run: a Done may recycle its op onto another connection, whose writer
// then owns its fields.
func (c *tcpConn) failAll(err error) {
	var victims []*Op
	c.wmu.Lock()
	c.mu.Lock()
	for id, op := range c.pending {
		delete(c.pending, id)
		if op.acks > 0 { // once per op, however many frames it is pending under
			op.acks = 0
			victims = append(victims, op)
		}
	}
	victims = append(victims, c.queue...)
	c.queue = nil
	c.mu.Unlock()
	c.wmu.Unlock()
	for _, op := range victims {
		c.finish(op, err)
	}
}

// Submit implements Submitter.
func (c *tcpConn) Submit(op *Op) {
	wire := len(op.Data)
	switch op.Kind {
	case OpCAS:
		wire = casArgsSize
	case OpRead, OpWrite:
	default:
		op.complete(fmt.Errorf("rdma: unknown op kind %d", op.Kind))
		return
	}
	if err := checkSegments(op); err != nil {
		op.complete(err)
		return
	}
	for _, seg := range op.More {
		wire = max(wire, len(seg.Data))
	}
	if wire > maxWireData {
		op.complete(fmt.Errorf("%w: transfer of %d bytes exceeds wire limit", ErrOutOfBounds, wire))
		return
	}
	op.Err = nil // accumulates the first error across a vectored op's frames
	op.deadline = time.Time{}
	if c.opDeadline > 0 {
		op.deadline = time.Now().Add(c.opDeadline)
	}
	c.inflight.Inc()
	c.submitted.Add(1)
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		c.finish(op, err)
		return
	}
	c.queue = append(c.queue, op)
	c.mu.Unlock()
	c.cond.Signal()
}

// encodeOp serializes op into the buffered writer: one request frame, or for
// a vectored op one frame per segment, back to back under consecutive IDs.
// The wire format knows nothing of vectors; the daemon executes the frames in
// arrival order and answers each.
func (c *tcpConn) encodeOp(op *Op) error {
	if err := c.encodeFrame(op, op.id, op.Offset, op.Data); err != nil {
		return err
	}
	for i, seg := range op.More {
		if err := c.encodeFrame(op, op.id+1+uint64(i), seg.Offset, seg.Data); err != nil {
			return err
		}
	}
	return nil
}

// encodeFrame serializes one request frame of op.
func (c *tcpConn) encodeFrame(op *Op, id, offset uint64, data []byte) error {
	var hdr [reqHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], id)
	length := uint32(len(data))
	switch op.Kind {
	case OpRead:
		hdr[8] = opRead
	case OpWrite:
		hdr[8] = opWrite
	case OpCAS:
		hdr[8] = opCAS
		length = casArgsSize
	}
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(op.Region))
	binary.LittleEndian.PutUint64(hdr[13:21], offset)
	binary.LittleEndian.PutUint32(hdr[21:25], length)
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	switch op.Kind {
	case OpWrite:
		if _, err := c.bw.Write(data); err != nil {
			return err
		}
	case OpCAS:
		var args [casArgsSize]byte
		binary.LittleEndian.PutUint64(args[0:8], op.Expect)
		binary.LittleEndian.PutUint64(args[8:16], op.Swap)
		if _, err := c.bw.Write(args[:]); err != nil {
			return err
		}
	}
	return nil
}

// writeLoop drains the submit queue: it registers each batch in the pending
// map, serializes it, and pushes it to the wire in one flush (doorbell
// batching).
func (c *tcpConn) writeLoop() {
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && c.err == nil {
			c.cond.Wait()
		}
		if err := c.err; err != nil {
			q := c.queue
			c.queue = nil
			c.mu.Unlock()
			for _, op := range q {
				c.finish(op, err)
			}
			return
		}
		batch := c.queue
		c.queue = nil
		c.mu.Unlock()

		c.wmu.Lock()
		c.mu.Lock()
		if err := c.err; err != nil {
			// The reader died while this batch was detached from the queue;
			// its failAll cannot see these ops, so complete them here.
			c.mu.Unlock()
			c.wmu.Unlock()
			for _, op := range batch {
				c.finish(op, err)
			}
			return
		}
		for _, op := range batch {
			op.id = c.nextID
			op.acks = 1 + len(op.More)
			for i := 0; i < op.acks; i++ {
				c.pending[c.nextID] = op
				c.nextID++
			}
		}
		c.mu.Unlock()
		// Bound the push itself: a peer that stops draining its socket must
		// not wedge the writer forever once the kernel buffers fill.
		if c.opDeadline > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(c.opDeadline))
		}
		var werr error
		for _, op := range batch {
			if werr = c.encodeOp(op); werr != nil {
				break
			}
		}
		if werr == nil {
			werr = c.bw.Flush()
		}
		c.wmu.Unlock()
		c.flushes.Add(1)
		if werr != nil {
			// The batch is registered in pending; the reader's failAll
			// completes it once the closed socket wakes it.
			c.fail(werr)
			return
		}
	}
}

// readLoop demultiplexes responses to their submitters by request ID.
// Per-op region errors (fenced, out of bounds, …) complete only their op;
// transport or protocol errors fail the connection and every in-flight op.
func (c *tcpConn) readLoop() {
	var hdr [respHeaderSize]byte
	for {
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			c.failAll(c.fail(err))
			return
		}
		id := binary.LittleEndian.Uint64(hdr[0:8])
		status := hdr[8]
		length := binary.LittleEndian.Uint32(hdr[9:13])
		if length > maxWireData {
			c.failAll(c.fail(fmt.Errorf("rdma: oversized response (%d bytes)", length)))
			return
		}
		c.mu.Lock()
		op, ok := c.pending[id]
		var wasExpired, last bool
		var kind OpKind
		var dst []byte // a read frame's destination
		if !ok {
			_, wasExpired = c.expired[id]
			delete(c.expired, id)
		} else {
			// A vectored op completes on the last of its frames' responses,
			// with the first error any of them reported. Until then the
			// deadline sweep may still complete it, so everything read from or
			// written to the op happens here, under mu; after the last response
			// it is the reader's alone.
			kind = op.Kind
			if kind == OpRead {
				dst = op.Data
				if k := id - op.id; k > 0 {
					dst = op.More[k-1].Data
				}
			}
			if kind == OpRead && status == statusOK && op.acks > 1 {
				c.mu.Unlock()
				if err := c.stageFrame(op, id, dst, length); err != nil {
					c.failAll(c.fail(err))
					return
				}
				continue
			}
			delete(c.pending, id)
			if status != statusOK && op.Err == nil {
				op.Err = statusToError(status)
			}
			op.acks--
			last = op.acks == 0
		}
		c.mu.Unlock()
		if !ok {
			if !wasExpired {
				c.failAll(c.fail(fmt.Errorf("rdma: response for unknown request %d", id)))
				return
			}
			// Late response for an op the deadline sweep already failed:
			// swallow its payload and keep demultiplexing. The connection
			// survives a gray episode.
			if length > 0 {
				if _, err := io.CopyN(io.Discard, c.br, int64(length)); err != nil {
					c.failAll(c.fail(err))
					return
				}
			}
			continue
		}

		switch {
		case status != statusOK:
			if length != 0 {
				c.abort(op, last, fmt.Errorf("rdma: error response carries %d payload bytes", length))
				return
			}
		case kind == OpRead:
			if int(length) != len(dst) {
				c.abort(op, last, fmt.Errorf("rdma: read response length %d, want %d", length, len(dst)))
				return
			}
			if _, err := io.ReadFull(c.br, dst); err != nil {
				c.abort(op, last, err)
				return
			}
		case kind == OpCAS:
			if length != 8 {
				c.abort(op, last, fmt.Errorf("rdma: CAS response length %d, want 8", length))
				return
			}
			var ov [8]byte
			if _, err := io.ReadFull(c.br, ov[:]); err != nil {
				c.abort(op, last, err)
				return
			}
			op.Old = binary.LittleEndian.Uint64(ov[:])
		default: // OpWrite
			if length != 0 {
				c.abort(op, last, fmt.Errorf("rdma: write response carries %d payload bytes", length))
				return
			}
		}
		if last {
			c.finish(op, op.Err)
		}
	}
}

// stageFrame takes in a successful frame of a vectored read other than its
// last. Until the last frame is in, the deadline sweep or failAll may
// complete the op and hand its buffers back to the submitter, so the payload
// is read aside and copied to dst under mu, and only if the frame is still
// pending then; a frame the sweep expired meanwhile has had its late answer.
func (c *tcpConn) stageFrame(op *Op, id uint64, dst []byte, length uint32) error {
	if int(length) != len(dst) {
		return fmt.Errorf("rdma: read response length %d, want %d", length, len(dst))
	}
	buf := getWireBuf(len(dst))
	defer putWireBuf(buf)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return err
	}
	c.mu.Lock()
	if c.pending[id] == op {
		copy(dst, buf)
		delete(c.pending, id)
		op.acks--
	} else {
		delete(c.expired, id)
	}
	c.mu.Unlock()
	return nil
}

// Read implements Verbs.
func (c *tcpConn) Read(region RegionID, offset uint64, buf []byte) error {
	return submitWait(c, &Op{Kind: OpRead, Region: region, Offset: offset, Data: buf})
}

// Write implements Verbs.
func (c *tcpConn) Write(region RegionID, offset uint64, data []byte) error {
	return submitWait(c, &Op{Kind: OpWrite, Region: region, Offset: offset, Data: data})
}

// CompareAndSwap implements Verbs.
func (c *tcpConn) CompareAndSwap(region RegionID, offset uint64, expect, swap uint64) (uint64, error) {
	op := &Op{Kind: OpCAS, Region: region, Offset: offset, Expect: expect, Swap: swap}
	if err := submitWait(c, op); err != nil {
		return 0, err
	}
	return op.Old, nil
}

// Close implements Verbs. In-flight operations complete with ErrClosed.
func (c *tcpConn) Close() error {
	c.fail(ErrClosed)
	return nil
}

// PipelineStats implements PipelineStatser.
func (c *tcpConn) PipelineStats() PipelineStats {
	return PipelineStats{
		Submitted:   c.submitted.Load(),
		Flushes:     c.flushes.Load(),
		MaxInFlight: uint64(c.inflight.Max()),
		Expiries:    c.expiries.Load(),
	}
}
