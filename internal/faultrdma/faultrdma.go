// Package faultrdma wraps any rdma transport with composable, deterministic
// fault injection. It implements rdma.Verbs (and rdma.Submitter) over an
// inner connection and interposes on every operation and dial, injecting:
//
//   - drop: the operation fails immediately with ErrInjected, as if the
//     reliable connection exhausted its retransmissions (NAK).
//   - delay: the operation executes after a (jittered) delay. If the delay
//     exceeds the controller's op deadline, the submitter sees ErrDeadline
//     at the deadline while the operation still executes late — a gray peer
//     that did the work but never acknowledged in time.
//   - hang: the node stops acknowledging entirely. Operations park; with an
//     op deadline they complete with rdma.ErrDeadline, and when the node
//     resumes the parked work executes late against the inner transport.
//   - duplicate: the operation executes twice (at-least-once delivery after
//     a spurious retransmit); the submitter sees one completion.
//   - fail-stop: after N operations the node crashes — every subsequent
//     operation and dial fails fast.
//   - flaky dial: the next K dials to the node fail.
//
// Faults are keyed by remote node name, so one Controller drives a whole
// cluster's schedule. Each fault class on each node draws from its own
// rand.Rand seeded from (controller seed, node name, class), and every armed
// class rolls exactly once per operation, so a class's fault schedule is a
// pure function of the seed and the node's operation order — reproducible,
// and invariant under composing other fault classes or netsim latency
// models onto the same run.
//
// Unlike netsim.Fabric's Kill/Partition (which sever connectivity and
// surface ErrUnreachable), faultrdma models the failures a connected
// transport cannot see from liveness alone — the gray failures Sift's
// deadline/suspicion machinery exists to catch. The wrapper composes with
// both the in-process and TCP transports.
package faultrdma

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/rdma"
)

// ErrInjected is the base error for injected transport faults (drop,
// fail-stop, refused dial). Deadline-shaped faults surface rdma.ErrDeadline
// instead, since that is what a real transport would report.
var ErrInjected = errors.New("faultrdma: injected fault")

// maxParked bounds the ops parked on one hung connection. Beyond it,
// further ops fail fast — mirroring the TCP transport's expired-ID cap.
const maxParked = 4096

// Controller owns the fault schedule for a set of nodes.
type Controller struct {
	seed       int64
	opDeadline time.Duration

	mu    sync.Mutex
	nodes map[string]*NodeFaults
}

// NewController creates a controller. opDeadline bounds how long a parked
// or delayed operation may keep its submitter waiting; it should match the
// DialOpts.OpDeadline of the wrapped transport. Zero means injected hangs
// block until the node resumes or the connection closes.
func NewController(seed int64, opDeadline time.Duration) *Controller {
	return &Controller{seed: seed, opDeadline: opDeadline, nodes: make(map[string]*NodeFaults)}
}

// Node returns the fault state for a node, creating it on first use.
func (c *Controller) Node(name string) *NodeFaults {
	c.mu.Lock()
	defer c.mu.Unlock()
	nf := c.nodes[name]
	if nf == nil {
		h := fnv.New64a()
		h.Write([]byte(name))
		base := c.seed ^ int64(h.Sum64())
		nf = &NodeFaults{
			name:       name,
			dropRng:    rand.New(rand.NewSource(base ^ saltDrop)),
			delayRng:   rand.New(rand.NewSource(base ^ saltDelay)),
			dupRng:     rand.New(rand.NewSource(base ^ saltDup)),
			corruptRng: rand.New(rand.NewSource(base ^ saltCorrupt)),
			conns:      make(map[*conn]struct{}),
		}
		c.nodes[name] = nf
	}
	return nf
}

// Per-class rng stream salts. Each fault class draws from its own stream
// seeded (controller seed, node name, class), and decide() draws exactly one
// roll per armed class per operation regardless of which action wins. A
// class's fault schedule is therefore a pure function of (seed, op ordinal):
// arming or disarming another class — or composing with a netsim latency
// model — cannot shift where its faults land.
const (
	saltDrop    int64 = 0x64726f70 // "drop"
	saltDelay   int64 = 0x64656c61 // "dela"
	saltDup     int64 = 0x00647570 // "dup"
	saltCorrupt int64 = 0x636f7272 // "corr"
)

// Wrap interposes the node's fault schedule on an established connection.
func (c *Controller) Wrap(node string, inner rdma.Verbs) rdma.Verbs {
	nf := c.Node(node)
	fc := &conn{nf: nf, inner: inner, opDeadline: c.opDeadline}
	fc.sub, _ = inner.(rdma.Submitter)
	nf.mu.Lock()
	nf.conns[fc] = struct{}{}
	nf.mu.Unlock()
	return fc
}

// WrapDialer interposes on a node-keyed dial function: dials hit the flaky
// dial / fail-stop schedule, and successful connections are wrapped.
func (c *Controller) WrapDialer(dial func(node string) (rdma.Verbs, error)) func(node string) (rdma.Verbs, error) {
	return func(node string) (rdma.Verbs, error) {
		if err := c.Node(node).dialFault(); err != nil {
			return nil, err
		}
		inner, err := dial(node)
		if err != nil {
			return nil, err
		}
		return c.Wrap(node, inner), nil
	}
}

// FaultStats counts injected faults on one node.
type FaultStats struct {
	Drops       uint64
	Delays      uint64
	Parked      uint64 // ops parked on a hung connection
	ParkedLate  uint64 // parked/delayed ops that executed after ErrDeadline
	Duplicates  uint64
	FailStopped uint64
	DialsFailed uint64
	Corrupts    uint64 // ops whose payload bytes were silently flipped
}

// NodeFaults is the mutable fault schedule for one node. All setters are
// safe for concurrent use with in-flight traffic.
type NodeFaults struct {
	name string

	mu          sync.Mutex
	dropRng     *rand.Rand
	delayRng    *rand.Rand
	dupRng      *rand.Rand
	corruptRng  *rand.Rand
	hang        bool
	dropP       float64
	delayP      float64
	delay       time.Duration
	delayJitter time.Duration
	dupP        float64
	corruptP    float64
	corruptIn   map[rdma.RegionID]bool // nil = every region
	failAfter   int64                  // ops until fail-stop; 0 = disarmed
	failStopped bool
	failDials   int
	conns       map[*conn]struct{}

	drops       atomic.Uint64
	delays      atomic.Uint64
	parked      atomic.Uint64
	parkedLate  atomic.Uint64
	dups        atomic.Uint64
	failStops   atomic.Uint64
	dialsFailed atomic.Uint64
	corrupts    atomic.Uint64
}

// Stats snapshots the node's injected-fault counters.
func (nf *NodeFaults) Stats() FaultStats {
	return FaultStats{
		Drops:       nf.drops.Load(),
		Delays:      nf.delays.Load(),
		Parked:      nf.parked.Load(),
		ParkedLate:  nf.parkedLate.Load(),
		Duplicates:  nf.dups.Load(),
		FailStopped: nf.failStops.Load(),
		DialsFailed: nf.dialsFailed.Load(),
		Corrupts:    nf.corrupts.Load(),
	}
}

// Hang makes the node stop acknowledging: in-flight and future operations
// park until Resume (completing with rdma.ErrDeadline first if the
// controller has an op deadline). The connection stays established — this
// is the canonical gray failure.
func (nf *NodeFaults) Hang() {
	nf.mu.Lock()
	nf.hang = true
	nf.mu.Unlock()
}

// Resume lets a hung node proceed: parked operations execute, in parked
// order, against the inner transport — including ones whose submitters
// already saw ErrDeadline (late execution).
func (nf *NodeFaults) Resume() {
	nf.mu.Lock()
	nf.hang = false
	conns := make([]*conn, 0, len(nf.conns))
	for fc := range nf.conns {
		conns = append(conns, fc)
	}
	nf.mu.Unlock()
	for _, fc := range conns {
		fc.releaseParked()
	}
}

// SetDrop drops each operation with probability p.
func (nf *NodeFaults) SetDrop(p float64) {
	nf.mu.Lock()
	nf.dropP = p
	nf.mu.Unlock()
}

// SetDelay delays each operation, with probability p, by d plus a uniform
// jitter in [0, jitter).
func (nf *NodeFaults) SetDelay(d, jitter time.Duration, p float64) {
	nf.mu.Lock()
	nf.delay, nf.delayJitter, nf.delayP = d, jitter, p
	nf.mu.Unlock()
}

// SetDuplicate executes each operation twice with probability p.
func (nf *NodeFaults) SetDuplicate(p float64) {
	nf.mu.Lock()
	nf.dupP = p
	nf.mu.Unlock()
}

// SetCorrupt silently flips 1–3 payload bytes of each READ response and
// each stored WRITE payload with probability p, modelling memory or NIC
// bit rot on the node. The operation still reports success — corruption is
// only detectable end-to-end (checksums, cross-replica comparison). CAS
// words are never corrupted: a flipped heartbeat would model a Byzantine
// election participant, which is outside Sift's fault model.
func (nf *NodeFaults) SetCorrupt(p float64) {
	nf.mu.Lock()
	nf.corruptP = p
	nf.mu.Unlock()
}

// SetCorruptRegions restricts SetCorrupt to the given regions (no call, or
// a call with no arguments, means every region). Tests use this to confine
// bit rot to the replicated data region while keeping the admin/election
// plane honest.
func (nf *NodeFaults) SetCorruptRegions(regions ...rdma.RegionID) {
	nf.mu.Lock()
	if len(regions) == 0 {
		nf.corruptIn = nil
	} else {
		nf.corruptIn = make(map[rdma.RegionID]bool, len(regions))
		for _, r := range regions {
			nf.corruptIn[r] = true
		}
	}
	nf.mu.Unlock()
}

// byteFlip is one planned corruption: XOR mask into payload byte pos.
type byteFlip struct {
	pos  int
	mask byte
}

// planCorruption decides, under the schedule lock, whether and how to
// corrupt op's payload. It returns nil to leave the op untouched.
func (nf *NodeFaults) planCorruption(op *rdma.Op) []byteFlip {
	if op.Kind != rdma.OpRead && op.Kind != rdma.OpWrite {
		return nil
	}
	n := len(op.Data)
	for _, seg := range op.More {
		n += len(seg.Data)
	}
	if n == 0 {
		return nil
	}
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if nf.corruptP <= 0 || nf.corruptRng.Float64() >= nf.corruptP {
		return nil
	}
	if nf.corruptIn != nil && !nf.corruptIn[op.Region] {
		return nil
	}
	flips := make([]byteFlip, 1+nf.corruptRng.Intn(3))
	for i := range flips {
		flips[i] = byteFlip{pos: nf.corruptRng.Intn(n), mask: byte(1 + nf.corruptRng.Intn(255))}
	}
	return flips
}

// FailStopAfter crashes the node after n more operations: the n-th and all
// later operations (and dials) fail fast. n <= 0 disarms.
func (nf *NodeFaults) FailStopAfter(n int) {
	nf.mu.Lock()
	if n <= 0 {
		nf.failAfter, nf.failStopped = 0, false
	} else {
		nf.failAfter = int64(n)
	}
	nf.mu.Unlock()
}

// FailDials makes the next n dials to the node fail.
func (nf *NodeFaults) FailDials(n int) {
	nf.mu.Lock()
	nf.failDials = n
	nf.mu.Unlock()
}

func (nf *NodeFaults) dialFault() error {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if nf.failStopped {
		return fmt.Errorf("%w: %s fail-stopped", ErrInjected, nf.name)
	}
	if nf.failDials > 0 {
		nf.failDials--
		nf.dialsFailed.Add(1)
		return fmt.Errorf("%w: dial %s refused", ErrInjected, nf.name)
	}
	return nil
}

// Injection decisions.
const (
	actForward = iota
	actDrop
	actDelay
	actHang
	actDup
	actFailStop
)

func (nf *NodeFaults) decide() (act int, delay time.Duration) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	if nf.failStopped {
		return actFailStop, 0
	}
	if nf.failAfter > 0 {
		nf.failAfter--
		if nf.failAfter == 0 {
			nf.failStopped = true
			nf.failStops.Add(1)
			return actFailStop, 0
		}
	}
	if nf.hang {
		return actHang, 0
	}
	// Draw every armed class before picking a winner: each stream advances
	// once per op whether or not its class acts, so a class's schedule never
	// shifts when another class is toggled mid-run.
	dropHit := nf.dropP > 0 && nf.dropRng.Float64() < nf.dropP
	delayHit := nf.delayP > 0 && nf.delayRng.Float64() < nf.delayP
	var d time.Duration
	if delayHit {
		d = nf.delay
		if nf.delayJitter > 0 {
			d += time.Duration(nf.delayRng.Int63n(int64(nf.delayJitter)))
		}
	}
	dupHit := nf.dupP > 0 && nf.dupRng.Float64() < nf.dupP
	switch {
	case dropHit:
		return actDrop, 0
	case delayHit:
		return actDelay, d
	case dupHit:
		return actDup, 0
	}
	return actForward, 0
}

func (nf *NodeFaults) unregister(fc *conn) {
	nf.mu.Lock()
	delete(nf.conns, fc)
	nf.mu.Unlock()
}

// parkedOp is one operation held on a hung connection. Once its deadline
// fires, the submitter's Op is completed with ErrDeadline and only the
// shadow clone remains, to be executed late on resume.
type parkedOp struct {
	op       *rdma.Op
	shadow   *rdma.Op // carries copied buffers; survives the submitter's Op
	timedOut bool
	timer    *time.Timer
}

// conn is one fault-injected connection.
type conn struct {
	nf         *NodeFaults
	inner      rdma.Verbs
	sub        rdma.Submitter // nil when inner is blocking-only
	opDeadline time.Duration

	mu     sync.Mutex
	closed bool
	park   []*parkedOp
}

var (
	_ rdma.Submitter       = (*conn)(nil)
	_ rdma.PipelineStatser = (*conn)(nil)
)

// Submit implements rdma.Submitter. It never blocks: fault handling either
// completes the op, forwards it, or parks it. A vectored write is judged
// segment by segment — each can be dropped, delayed, corrupted or parked on
// its own, as the separate writes it stands for would have been. A vectored
// read is one operation, judged once: a per-op drop rate p must not fail a
// scan of n segments with probability 1 − (1 − p)^n.
func (c *conn) Submit(op *rdma.Op) {
	if len(op.More) > 0 && op.Kind == rdma.OpWrite {
		rdma.SubmitSegments(op, c.Submit)
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		op.Complete(rdma.ErrClosed)
		return
	}
	c.mu.Unlock()

	if flips := c.nf.planCorruption(op); flips != nil {
		op = c.corruptOp(op, flips)
	}
	act, delay := c.nf.decide()
	switch act {
	case actFailStop:
		op.Complete(fmt.Errorf("%w: %s fail-stopped", ErrInjected, c.nf.name))
	case actDrop:
		c.nf.drops.Add(1)
		op.Complete(fmt.Errorf("%w: %s dropped %s", ErrInjected, c.nf.name, kindName(op.Kind)))
	case actDelay:
		c.nf.delays.Add(1)
		c.delayOp(op, delay)
	case actHang:
		c.parkOp(op)
	case actDup:
		c.nf.dups.Add(1)
		shadow := op.Shadow()
		c.forward(op)
		c.forward(shadow)
	default:
		c.forward(op)
	}
}

// corruptOp applies planned byte flips to op. A WRITE is replaced by a
// shadow carrying a flipped copy of the payload — the submitter's buffer
// may be pooled and must not be mutated — whose completion resolves the
// original op, so the store lands corrupted while the submitter sees clean
// success. A READ has its completion wrapped to flip response bytes after a
// successful transfer.
func (c *conn) corruptOp(op *rdma.Op, flips []byteFlip) *rdma.Op {
	switch op.Kind {
	case rdma.OpWrite:
		shadow := op.Shadow()
		for _, f := range flips {
			shadow.Data[f.pos] ^= f.mask
		}
		shadow.Done = func(s *rdma.Op) { op.Complete(s.Err) }
		c.nf.corrupts.Add(1)
		return shadow
	case rdma.OpRead:
		prev := op.Done
		if prev == nil {
			// Completion flows through the transport's internal channel,
			// which a wrapper cannot interpose on; leave the op alone.
			return op
		}
		op.Done = func(o *rdma.Op) {
			if o.Err == nil {
				for _, f := range flips {
					flipRead(o, f)
				}
				c.nf.corrupts.Add(1)
			}
			prev(o)
		}
		return op
	}
	return op
}

// flipRead applies f to a read's payload, its segments counted as one run of
// bytes after Data.
func flipRead(op *rdma.Op, f byteFlip) {
	buf := op.Data
	for i := 0; f.pos >= len(buf); i++ {
		f.pos -= len(buf)
		buf = op.More[i].Data
	}
	buf[f.pos] ^= f.mask
}

// delayOp executes op after d. When d overruns the op deadline the
// submitter is released with ErrDeadline at the deadline and a shadow
// executes the real work at d (it happened, just too late to matter).
func (c *conn) delayOp(op *rdma.Op, d time.Duration) {
	if c.opDeadline > 0 && d >= c.opDeadline {
		shadow := op.Shadow()
		time.AfterFunc(c.opDeadline, func() { op.Complete(rdma.ErrDeadline) })
		time.AfterFunc(d, func() {
			c.nf.parkedLate.Add(1)
			c.forward(shadow)
		})
		return
	}
	time.AfterFunc(d, func() { c.forward(op) })
}

// parkOp holds op while the node is hung.
func (c *conn) parkOp(op *rdma.Op) {
	p := &parkedOp{op: op}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		op.Complete(rdma.ErrClosed)
		return
	}
	if len(c.park) >= maxParked {
		c.mu.Unlock()
		op.Complete(fmt.Errorf("%w: %s parked-op overflow", ErrInjected, c.nf.name))
		return
	}
	c.park = append(c.park, p)
	if c.opDeadline > 0 {
		p.shadow = op.Shadow()
		p.timer = time.AfterFunc(c.opDeadline, func() { c.timeoutParked(p) })
	}
	c.mu.Unlock()
	c.nf.parked.Add(1)
}

// timeoutParked releases a parked op's submitter with ErrDeadline; the
// shadow stays parked for late execution.
func (c *conn) timeoutParked(p *parkedOp) {
	c.mu.Lock()
	if p.timedOut || p.op == nil {
		c.mu.Unlock()
		return
	}
	p.timedOut = true
	op := p.op
	p.op = nil
	c.mu.Unlock()
	op.Complete(rdma.ErrDeadline)
}

// releaseParked executes every parked op against the inner transport, in
// parked order. Ops whose submitters already timed out run through their
// shadows.
func (c *conn) releaseParked() {
	c.mu.Lock()
	park := c.park
	c.park = nil
	c.mu.Unlock()
	for _, p := range park {
		if p.timer != nil {
			p.timer.Stop()
		}
		c.mu.Lock()
		timedOut := p.timedOut
		op := p.op
		p.op = nil
		c.mu.Unlock()
		if timedOut || op == nil {
			if p.shadow != nil {
				c.nf.parkedLate.Add(1)
				c.forward(p.shadow)
			}
			continue
		}
		c.forward(op)
	}
}

// forward hands op to the inner transport; a blocking-only one is driven
// from a goroutine of its own.
func (c *conn) forward(op *rdma.Op) {
	if c.sub != nil {
		c.sub.Submit(op)
		return
	}
	go rdma.Send(c.inner, op)
}

// do submits op and waits, implementing the blocking Verbs methods. Waits
// are bounded by the controller's op deadline (hangs complete via the
// parked-op timer), so a blocking caller never wedges on a gray node when
// a deadline is configured.
func (c *conn) do(op *rdma.Op) error {
	ch := make(chan struct{})
	op.Done = func(*rdma.Op) { close(ch) }
	c.Submit(op)
	<-ch
	return op.Err
}

// Read implements rdma.Verbs.
func (c *conn) Read(region rdma.RegionID, offset uint64, buf []byte) error {
	return c.do(&rdma.Op{Kind: rdma.OpRead, Region: region, Offset: offset, Data: buf})
}

// Write implements rdma.Verbs.
func (c *conn) Write(region rdma.RegionID, offset uint64, data []byte) error {
	return c.do(&rdma.Op{Kind: rdma.OpWrite, Region: region, Offset: offset, Data: data})
}

// CompareAndSwap implements rdma.Verbs.
func (c *conn) CompareAndSwap(region rdma.RegionID, offset uint64, expect, swap uint64) (uint64, error) {
	op := &rdma.Op{Kind: rdma.OpCAS, Region: region, Offset: offset, Expect: expect, Swap: swap}
	if err := c.do(op); err != nil {
		return 0, err
	}
	return op.Old, nil
}

// Close implements rdma.Verbs. Parked submitters complete with ErrClosed;
// their shadows are dropped (the node is gone, late execution is moot).
func (c *conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	park := c.park
	c.park = nil
	c.mu.Unlock()
	for _, p := range park {
		if p.timer != nil {
			p.timer.Stop()
		}
		c.mu.Lock()
		op := p.op
		p.op = nil
		c.mu.Unlock()
		if op != nil {
			op.Complete(rdma.ErrClosed)
		}
	}
	c.nf.unregister(c)
	return c.inner.Close()
}

// PipelineStats implements rdma.PipelineStatser, passing through to the
// inner transport when it keeps pipeline counters.
func (c *conn) PipelineStats() rdma.PipelineStats {
	if ps, ok := c.inner.(rdma.PipelineStatser); ok {
		return ps.PipelineStats()
	}
	return rdma.PipelineStats{}
}

func kindName(k rdma.OpKind) string {
	switch k {
	case rdma.OpRead:
		return "read"
	case rdma.OpWrite:
		return "write"
	case rdma.OpCAS:
		return "cas"
	default:
		return "op"
	}
}
