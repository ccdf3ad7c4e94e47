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
//
// Workers belong to a group (group.go). A Reconfigure starts the incoming
// group's before it publishes the group, and once the cutover is done stops
// the outgoing group's, which first drain what is queued.

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

// startWorkers launches one worker per member of g.
func (m *Memory) startWorkers(g *group) {
	g.workers = make([]*nodeWorker, len(g.members))
	for i := range g.workers {
		w := &nodeWorker{ch: make(chan nodeReq, nodeQueueDepth)}
		g.workers[i] = w
		g.workerWG.Add(1)
		go m.nodeWorkerLoop(g, i, w.ch)
	}
}

// stopWorkers closes every worker channel of g; the workers drain what is
// queued and exit. Callers must still be able to reach the connections, so
// this runs before they are torn down.
func (m *Memory) stopWorkers(g *group) {
	for _, w := range g.workers {
		w.mu.Lock()
		if !w.closed {
			w.closed = true
			close(w.ch)
		}
		w.mu.Unlock()
	}
	g.workerWG.Wait()
}

// enqueue hands req to the worker of g's member i, stamped with the enqueue
// time unless a fan-out stamped all its requests with one reading. After the
// group's workers stopped, done fires immediately with ErrClosed.
func (m *Memory) enqueue(g *group, i int, req nodeReq) {
	if req.enq.IsZero() {
		req.enq = time.Now()
	}
	w := g.workers[i]
	w.mu.RLock()
	if w.closed {
		w.mu.RUnlock()
		req.done(ErrClosed)
		return
	}
	m.stats.enqueued.Add(1)
	m.queueDepth.Inc()
	w.ch <- req
	w.mu.RUnlock()
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
	mb    *member
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
	c.m.noteOpResult(c.mb, c.conn, time.Since(c.start), err)
	for _, done := range c.dones {
		done(err)
	}
	*o = rdma.Op{}
	clear(c.segs)
	clear(c.dones)
	c.m, c.mb, c.conn = nil, nil, nil
	flightCtxPool.Put(c)
}

// nodeWorkerLoop drains the queue of g's member i, a flight at a time: the request it
// blocked for plus what is queued behind it, FIFO, up to nodeFlightMax. With
// a pipelined connection the loop submits and immediately moves on —
// completions arrive on transport goroutines, or inside Submit over a
// zero-delay in-process link — so the queue drains at submission speed, not
// round-trip speed.
func (m *Memory) nodeWorkerLoop(g *group, i int, ch chan nodeReq) {
	defer g.workerWG.Done()
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
		m.sendFlight(g.members[i], flight)
	}
}

// sendFlight submits reqs to member mb as one vectored write. The clock is read
// once, for every request's queue wait and the flight's latency.
func (m *Memory) sendFlight(mb *member, reqs []nodeReq) {
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
	conn, err := m.conn(mb)
	if err != nil {
		m.noteConnError(mb, nil, err)
		for _, r := range reqs {
			r.done(err)
		}
		return
	}
	c := getFlightCtx()
	c.m, c.mb, c.conn, c.start = m, mb, conn, now
	c.load(reqs)
	rdma.Send(conn, &c.op)
}

// enqueueBestEffort sends a write to a suspect node without making any
// caller wait on it. The payload is copied — the caller's buffer may be
// pooled and recycled the moment the waited-on completions finish, while a
// gray node can sit on this op until its deadline — and the outcome feeds
// only the health accounting in the worker.
func (m *Memory) enqueueBestEffort(g *group, i int, offset uint64, data []byte, more ...rdma.Seg) {
	req := nodeReq{offset: offset, data: append([]byte(nil), data...), done: func(error) {}}
	for _, s := range more {
		req.more = append(req.more, rdma.Seg{Offset: s.Offset, Data: append([]byte(nil), s.Data...)})
	}
	m.enqueue(g, i, req)
}

// quorumGroup tracks one direct write's fan-out. wait returns as soon as
// the outcome is decided — need acks for success, or too many failures —
// while the group keeps counting stragglers; the final completion releases
// the write's range lock and calls the caller's release. Groups are pooled,
// the decision channel (capacity one, one token per use) and ack (bound
// once, as flightCtx's fn is) with them. The waiter and the final completion
// own a group, which goes back to the pool when both are done with it —
// never at the decision, which stragglers outlive.
type quorumGroup struct {
	mu                     sync.Mutex
	remaining, total, need int
	acks                   int
	decided, failed        bool
	refs                   atomic.Int32
	decCh                  chan struct{}
	ack                    func(error) // prebound ackOne
	locks                  *rangeLock
	held                   lockRange
	release                func()
}

var quorumPool sync.Pool

// getQuorumGroup returns a group over total completions needing need acks,
// which releases held on locks and then calls release (if non-nil) after
// the final completion. If need > total, the group is born decided.
func getQuorumGroup(total, need int, locks *rangeLock, held lockRange, release func()) *quorumGroup {
	q, _ := quorumPool.Get().(*quorumGroup)
	if q == nil {
		q = &quorumGroup{decCh: make(chan struct{}, 1)}
		q.ack = q.ackOne
	}
	q.remaining, q.total, q.need, q.acks = total, total, need, 0
	q.decided, q.failed = false, false
	q.locks, q.held, q.release = locks, held, release
	q.refs.Store(2)
	if need > total {
		q.decide(true)
	}
	if total == 0 {
		q.finish()
	}
	return q
}

// decide records the outcome and posts the token wait takes.
func (q *quorumGroup) decide(failed bool) {
	q.decided, q.failed = true, failed
	q.decCh <- struct{}{}
}

// finish runs once, after the final completion.
func (q *quorumGroup) finish() {
	q.locks.release(exclusive, q.held)
	if q.release != nil {
		q.release()
	}
	q.unref()
}

// unref drops one owner's reference; the last one recycles the group.
func (q *quorumGroup) unref() {
	if q.refs.Add(-1) == 0 {
		q.locks, q.release = nil, nil
		quorumPool.Put(q)
	}
}

// ackOne records one completion. Safe to call from transport goroutines.
func (q *quorumGroup) ackOne(err error) {
	q.mu.Lock()
	q.remaining--
	if err == nil {
		q.acks++
	}
	if !q.decided && q.acks >= q.need {
		q.decide(false)
	} else if !q.decided && q.acks+q.remaining < q.need {
		q.decide(true)
	}
	last := q.remaining == 0
	q.mu.Unlock()
	if last {
		q.finish()
	}
}

// wait blocks until the outcome is decided and returns it, after which the
// group is no longer the caller's. The failure message reads the ack counter
// at report time, so acks that arrived before (or even after) the fatal
// decision are reflected.
func (q *quorumGroup) wait() error {
	<-q.decCh
	defer q.unref()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.failed {
		return fmt.Errorf("%w: %d of %d acks (need %d)", ErrNoQuorum, q.acks, q.total, q.need)
	}
	return nil
}
