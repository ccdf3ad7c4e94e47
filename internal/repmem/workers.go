package repmem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/rdma"
)

// Per-node I/O workers: every memory node has one persistent worker
// goroutine fed by a channel. A quorum write is an enqueue per node plus a
// wait, rather than a goroutine spawn per node per operation. The worker
// submits asynchronously when the connection supports pipelined submission
// (both built-in transports do), so many operations from many concurrent
// writers are in flight on the node's single connection at once — the
// paper's deep per-QP pipeline. Requests enqueued to one node are submitted
// in order, which together with the transport's reliable-connection
// ordering keeps same-address writes ordered per node.
//
// A worker sends flights, not requests: after its blocking receive it takes
// whatever else is already queued for the node and submits the lot as one
// vectored write (DESIGN.md §8, "Vectored writes and queue coalescing").
// Concurrent committers' KV log slots, and the appliers' blocks, then share one
// channel hop, one transport round trip and one completion per node. The
// window is whatever has queued while the worker was busy — empty, and so
// free, when a writer is alone.

const (
	// nodeQueueDepth bounds a node worker's submit queue; enqueues beyond it
	// apply backpressure to writers.
	nodeQueueDepth = 256
	// nodeFlightMax bounds how many queued requests one flight carries, which
	// bounds how many requests one transport error fails and how long the
	// first of them waits for the last one's bytes to be sent.
	nodeFlightMax = 32
)

// nodeReq is one write to the replicated region of a single memory node:
// data at offset, then each segment of more, in that order (a block and the
// checksum strip entry that goes with it). done fires exactly once with the
// outcome of the whole request; it may run on a transport goroutine and must
// not block.
type nodeReq struct {
	offset uint64
	data   []byte
	more   []rdma.Seg
	enq    time.Time
	done   func(error)
}

// nodeWorker owns one node's request channel. mu guards the channel against
// close: enqueuers send while holding the read side, stop takes the write
// side.
type nodeWorker struct {
	mu     sync.RWMutex
	ch     chan nodeReq
	closed bool
}

// startWorkers launches one worker per memory node.
func (m *Memory) startWorkers() {
	m.workers = make([]*nodeWorker, len(m.nodes))
	for i := range m.workers {
		w := &nodeWorker{ch: make(chan nodeReq, nodeQueueDepth)}
		m.workers[i] = w
		m.workerWG.Add(1)
		go m.nodeWorkerLoop(i, w.ch)
	}
}

// stopWorkers closes every worker channel; the workers drain what is queued
// and exit. Callers must still be able to reach the connections, so this
// runs before conns are torn down in Close.
func (m *Memory) stopWorkers() {
	for _, w := range m.workers {
		w.mu.Lock()
		if !w.closed {
			w.closed = true
			close(w.ch)
		}
		w.mu.Unlock()
	}
	m.workerWG.Wait()
}

// enqueue hands req to node i's worker. After the memory is closed, done
// fires immediately with ErrClosed. While a shadow is attached to slot i
// (node replacement in progress), the request is also mirrored to the
// joining node, and done fires only after BOTH complete — so range locks
// and pooled buffers stay held until the mirror has landed too.
func (m *Memory) enqueue(i int, req nodeReq) {
	req.enq = time.Now()
	w := m.workers[i]
	w.mu.RLock()
	if w.closed {
		w.mu.RUnlock()
		req.done(ErrClosed)
		return
	}
	if sh := m.shadows[i].Load(); sh != nil {
		req = sh.mirror(req)
	}
	m.stats.enqueued.Add(1)
	m.queueDepth.Inc()
	w.ch <- req
	w.mu.RUnlock()
}

// shadowNode mirrors one group slot's write stream to a joining node during
// replacement. It is the single funnel: every per-node write — main-memory
// block, EC chunk, integrity strip, direct write — reaches node
// i through enqueue, so mirroring there captures the full stream, every
// segment of every request. The shadow's own worker writes one request at a
// time and waits for it; a replacement window is short and correctness
// (per-slot ordering) matters more than mirror throughput.
type shadowNode struct {
	name string
	conn rdma.Verbs

	mu     sync.RWMutex
	ch     chan nodeReq
	closed bool
	wg     sync.WaitGroup

	failed  bool
	failErr error
	errMu   sync.Mutex
}

func newShadowNode(name string, conn rdma.Verbs) *shadowNode {
	sh := &shadowNode{name: name, conn: conn, ch: make(chan nodeReq, nodeQueueDepth)}
	sh.wg.Add(1)
	go sh.loop()
	return sh
}

// shadowFanIn joins a primary completion and its mirror: the original done
// fires exactly once, after both, with the primary's outcome. The shadow's
// outcome never surfaces to writers — a failed shadow aborts the
// replacement, not the client write.
type shadowFanIn struct {
	orig    func(error)
	err     error
	pending atomic.Int32
}

func (f *shadowFanIn) finish(err error, primary bool) {
	if primary {
		f.err = err
	}
	if f.pending.Add(-1) == 0 {
		f.orig(f.err)
	}
}

// mirror enqueues a copy of req to the shadow and rewires req.done through
// a fan-in. Requests share the data buffer: the caller's buffer lifetime is
// bounded by its done firing, which now waits for the mirror as well. If
// the shadow is already detached, req passes through unchanged.
func (sh *shadowNode) mirror(req nodeReq) nodeReq {
	sh.mu.RLock()
	if sh.closed {
		sh.mu.RUnlock()
		return req
	}
	f := &shadowFanIn{orig: req.done}
	f.pending.Store(2)
	sh.ch <- nodeReq{offset: req.offset, data: req.data, more: req.more, enq: req.enq,
		done: func(err error) { f.finish(err, false) }}
	sh.mu.RUnlock()
	req.done = func(err error) { f.finish(err, true) }
	return req
}

func (sh *shadowNode) loop() {
	defer sh.wg.Done()
	for req := range sh.ch {
		var err error
		if sh.Err() != nil {
			err = sh.failErr // sticky: one lost mirror write aborts the replacement
		} else {
			err = writeReq(sh.conn, req)
			if err != nil {
				sh.fail(err)
			}
		}
		req.done(err)
	}
}

func (sh *shadowNode) fail(err error) {
	sh.errMu.Lock()
	if !sh.failed {
		sh.failed, sh.failErr = true, err
	}
	sh.errMu.Unlock()
}

// Err returns the first mirror-write failure, if any.
func (sh *shadowNode) Err() error {
	sh.errMu.Lock()
	defer sh.errMu.Unlock()
	return sh.failErr
}

// detach stops the mirror: no new requests are accepted, queued ones drain,
// and detach returns once the last has completed. Callers detach only AFTER
// swapping the slot's primary connection to the shadow's (or on abort), so
// a drained duplicate against the swapped-in connection is harmless — the
// primary path writes the same bytes to the same addresses.
func (sh *shadowNode) detach() {
	sh.mu.Lock()
	if !sh.closed {
		sh.closed = true
		close(sh.ch)
	}
	sh.mu.Unlock()
	sh.wg.Wait()
}

// flightCtx bundles the rdma.Op of one flight with its completion context so
// a pipelined submission needs no per-op closure: the ctx is pooled, its
// slices keep their backing arrays, and fn is a method value bound once at
// construction, making the submit path allocation-free.
type flightCtx struct {
	op    rdma.Op
	segs  []rdma.Seg    // backing for op.More
	dones []func(error) // one per request carried
	m     *Memory
	node  int
	conn  rdma.Verbs
	start time.Time
	fn    func(*rdma.Op)
}

var flightCtxPool = sync.Pool{}

func getFlightCtx() *flightCtx {
	if v := flightCtxPool.Get(); v != nil {
		return v.(*flightCtx)
	}
	c := new(flightCtx)
	c.fn = c.complete
	return c
}

// load renders reqs, in order, as the ctx's one vectored write.
func (c *flightCtx) load(reqs []nodeReq) {
	segs, dones := c.segs[:0], c.dones[:0]
	for k, r := range reqs {
		if k > 0 { // the first request's own write is the op's Offset and Data
			segs = append(segs, rdma.Seg{Offset: r.offset, Data: r.data})
		}
		segs = append(segs, r.more...)
		dones = append(dones, r.done)
	}
	c.segs, c.dones = segs, dones
	c.op = rdma.Op{Kind: rdma.OpWrite, Region: replRegion,
		Offset: reqs[0].offset, Data: reqs[0].data, More: segs, Done: c.fn}
}

// complete is the transport completion callback. The flight's outcome is
// every request's: it feeds the health accounting once, then each done, and
// the ctx is recycled with no buffer or callback left referenced.
func (c *flightCtx) complete(o *rdma.Op) {
	err := o.Err
	c.m.noteOpResult(c.node, c.conn, time.Since(c.start), err)
	for _, done := range c.dones {
		done(err)
	}
	*o = rdma.Op{}
	clear(c.segs)
	clear(c.dones)
	c.m, c.conn = nil, nil
	flightCtxPool.Put(c)
}

// writeReq writes one request over conn as one flight and waits for it.
func writeReq(conn rdma.Verbs, req nodeReq) error {
	ch := make(chan error, 1)
	rdma.Send(conn, &rdma.Op{
		Kind: rdma.OpWrite, Region: replRegion, Offset: req.offset, Data: req.data, More: req.more,
		Done: func(o *rdma.Op) { ch <- o.Err },
	})
	return <-ch
}

// nodeWorkerLoop drains node i's queue, a flight at a time: the request it
// blocked for plus what is queued behind it, FIFO, up to nodeFlightMax. With
// a pipelined connection the loop submits and immediately moves on —
// completions arrive on transport goroutines, or inside Submit over a
// zero-delay in-process link — so the queue drains at submission speed, not
// round-trip speed.
func (m *Memory) nodeWorkerLoop(i int, ch chan nodeReq) {
	defer m.workerWG.Done()
	flight := make([]nodeReq, 0, nodeFlightMax)
	for req := range ch {
		flight = append(flight[:0], req)
	drain:
		for len(flight) < nodeFlightMax {
			select {
			case more, ok := <-ch:
				if !ok {
					break drain
				}
				flight = append(flight, more)
			default:
				break drain
			}
		}
		m.sendFlight(i, flight)
	}
}

// sendFlight submits reqs to node i as one vectored write. The clock is read
// once, for every request's queue wait and the flight's latency.
func (m *Memory) sendFlight(i int, reqs []nodeReq) {
	now := time.Now()
	m.queueDepth.Add(-int64(len(reqs)))
	var waited time.Duration
	for _, r := range reqs {
		waited += now.Sub(r.enq)
	}
	m.stats.queueWaitUs.Add(uint64(waited.Microseconds()))
	// conn redials through the circuit breaker, so a node that was down at
	// connect time (or lost its connection mid-run) is re-established from
	// the write path itself, not only by the recovery manager.
	conn, err := m.conn(i)
	if err != nil {
		m.noteConnError(i, nil, err)
		for _, r := range reqs {
			r.done(err)
		}
		return
	}
	c := getFlightCtx()
	c.m, c.node, c.conn, c.start = m, i, conn, now
	c.load(reqs)
	rdma.Send(conn, &c.op)
}

// enqueueBestEffort sends a write to a suspect node without making any
// caller wait on it. The payload is copied — the caller's buffer may be
// pooled and recycled the moment the waited-on completions finish, while a
// gray node can sit on this op until its deadline — and the outcome feeds
// only the health accounting in the worker.
func (m *Memory) enqueueBestEffort(i int, offset uint64, data []byte, more ...rdma.Seg) {
	req := nodeReq{offset: offset, data: append([]byte(nil), data...), done: func(error) {}}
	for _, s := range more {
		req.more = append(req.more, rdma.Seg{Offset: s.Offset, Data: append([]byte(nil), s.Data...)})
	}
	m.enqueue(i, req)
}

// quorumGroup tracks one fan-out's completions. wait returns as soon as the
// outcome is decided — need acks for success, or too many failures — while
// the group keeps counting stragglers; onAll runs exactly once after the
// final completion, when per-op resources (buffers, range locks) may be
// released.
type quorumGroup struct {
	mu        sync.Mutex
	remaining int
	total     int
	need      int
	acks      int
	decided   bool
	failed    bool
	decCh     chan struct{}
	onAll     func()
}

// newQuorumGroup creates a group over total completions needing need acks.
// If need can never be reached (need > total), the group is born decided.
func newQuorumGroup(total, need int, onAll func()) *quorumGroup {
	g := &quorumGroup{remaining: total, total: total, need: need, decCh: make(chan struct{}), onAll: onAll}
	if need > total {
		g.decided = true
		g.failed = true
		close(g.decCh)
	}
	if total == 0 {
		g.finishAll()
	}
	return g
}

func (g *quorumGroup) finishAll() {
	if g.onAll != nil {
		g.onAll()
	}
}

// ack records one completion. Safe to call from transport goroutines.
func (g *quorumGroup) ack(err error) {
	g.mu.Lock()
	g.remaining--
	if err == nil {
		g.acks++
	}
	if !g.decided {
		if g.acks >= g.need {
			g.decided = true
			close(g.decCh)
		} else if g.acks+g.remaining < g.need {
			g.decided = true
			g.failed = true
			close(g.decCh)
		}
	}
	last := g.remaining == 0
	g.mu.Unlock()
	if last {
		g.finishAll()
	}
}

// wait blocks until the outcome is decided and returns it. The failure
// message reads the ack counter at report time, so acks that arrived before
// (or even after) the fatal decision are reflected instead of the
// zero-value count the group was born with.
func (g *quorumGroup) wait() error {
	<-g.decCh
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.failed {
		return fmt.Errorf("%w: %d of %d acks (need %d)", ErrNoQuorum, g.acks, g.total, g.need)
	}
	return nil
}
