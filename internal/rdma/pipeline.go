package rdma

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pipelined submission: both transports allow many operations in flight on
// one connection, the way a real RNIC allows many work requests on one QP.
// Submit queues an operation and returns immediately; the completion
// callback fires when the remote operation has executed. Operations
// submitted on one connection are delivered to the remote node in
// submission order (reliable-connection ordering) but may *complete* — fire
// their callbacks — out of order, because responses are demultiplexed by
// request ID.

// OpKind selects the verb an Op performs.
type OpKind uint8

// Op kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpCAS
)

// Seg is one further segment of a vectored op: an offset and the payload
// written there, or the buffer read into.
type Seg struct {
	Offset uint64
	Data   []byte
}

// Op is an asynchronous one-sided operation. The submitter fills in the
// request fields; the transport fills in the result fields and then invokes
// Done exactly once. Between Submit and the Done callback the transport owns
// the Op and its buffers (Data and every More[i].Data) — the caller must not
// touch them. Once Done returns, the transport holds no reference to the Op,
// so Done may recycle it (and the buffers) into a pool.
type Op struct {
	Kind   OpKind
	Region RegionID
	Offset uint64

	// Data is the destination buffer for OpRead or the payload for OpWrite.
	Data []byte

	// More makes an OpWrite or OpRead vectored: after (Offset, Data) each
	// segment is written to, or read from, the same Region, in order, in the
	// same flight — one request leg, one response leg carrying every payload,
	// one Done. The outcome is all-or-error: Err is the first failing
	// segment's error, and then nothing is promised about which segments
	// landed or which buffers were filled. Connections that do not carry
	// vectors natively expand them with SubmitSegments.
	More []Seg

	// Expect and Swap are the OpCAS arguments; Old receives the value
	// observed before the swap.
	Expect, Swap uint64
	Old          uint64

	// Err is the operation's outcome, valid once Done fires. Region-level
	// errors (ErrFenced, ErrOutOfBounds, …) affect only this Op; transport
	// errors additionally fail the connection and every other in-flight Op.
	Err error

	// Done is the completion callback. It may run on a transport goroutine
	// and must not block. Leave nil only when submitting through a helper
	// (such as the synchronous Verbs methods) that waits internally.
	Done func(*Op)

	id       uint64    // wire request ID (of the first frame), assigned by the transport
	acks     int       // TCP: frames of this op still owed an acknowledgement
	done     chan *Op  // internal completion channel for synchronous waits
	deadline time.Time // completion deadline, assigned by the transport at Submit
}

// SubmitSegments carries a vectored op over a connection that handles one
// segment per operation: each segment goes through submit as its own
// single-segment op of the same kind, in order, and op completes once, after
// the last of them has, with the first error any reported. An op without More
// goes to submit as it is.
func SubmitSegments(op *Op, submit func(*Op)) {
	if len(op.More) == 0 {
		submit(op)
		return
	}
	if err := checkSegments(op); err != nil {
		op.complete(err)
		return
	}
	segs := append([]Seg{{Offset: op.Offset, Data: op.Data}}, op.More...)
	f := &segFanIn{op: op}
	f.left.Store(int32(len(segs)))
	for _, seg := range segs {
		submit(&Op{Kind: op.Kind, Region: op.Region, Offset: seg.Offset, Data: seg.Data, Done: f.done})
	}
}

// checkSegments rejects a vector on a CAS; every connection kind refuses
// such an op before any of it is sent.
func checkSegments(op *Op) error {
	if len(op.More) > 0 && op.Kind != OpWrite && op.Kind != OpRead {
		return fmt.Errorf("rdma: op kind %d cannot carry segments", op.Kind)
	}
	return nil
}

// Send carries op over v: submitted when v pipelines, otherwise through v's
// blocking verbs on the calling goroutine, a vector one segment at a time.
func Send(v Verbs, op *Op) {
	if sub, ok := v.(Submitter); ok {
		sub.Submit(op)
		return
	}
	SubmitSegments(op, func(o *Op) {
		var err error
		switch o.Kind {
		case OpRead:
			err = v.Read(o.Region, o.Offset, o.Data)
		case OpWrite:
			err = v.Write(o.Region, o.Offset, o.Data)
		case OpCAS:
			o.Old, err = v.CompareAndSwap(o.Region, o.Offset, o.Expect, o.Swap)
		default:
			err = fmt.Errorf("rdma: unknown op kind %d", o.Kind)
		}
		o.Complete(err)
	})
}

// Shadow returns a copy of op that owns its buffers, for a wrapper that
// executes op late after its submitter has been answered: a write's payloads
// are copied, a read gets fresh destinations, and Done does nothing.
func (op *Op) Shadow() *Op {
	own := func(b []byte) []byte {
		if op.Kind == OpRead {
			return make([]byte, len(b))
		}
		return append([]byte(nil), b...)
	}
	s := &Op{Kind: op.Kind, Region: op.Region, Offset: op.Offset, Data: own(op.Data), Expect: op.Expect, Swap: op.Swap, Done: func(*Op) {}}
	for _, seg := range op.More {
		s.More = append(s.More, Seg{Offset: seg.Offset, Data: own(seg.Data)})
	}
	return s
}

// segFanIn completes a vectored op once all of its single-segment ops have.
type segFanIn struct {
	op   *Op
	left atomic.Int32
	err  atomic.Pointer[error]
}

func (f *segFanIn) done(seg *Op) {
	if err := seg.Err; err != nil {
		f.err.CompareAndSwap(nil, &err)
	}
	if f.left.Add(-1) > 0 {
		return
	}
	var err error
	if e := f.err.Load(); e != nil {
		err = *e
	}
	f.op.complete(err)
}

// Complete delivers err as the operation's outcome, firing the completion
// callback exactly once. It exists for transport implementations outside
// this package (fault-injection wrappers and the like); ordinary submitters
// never call it.
func (op *Op) Complete(err error) { op.complete(err) }

// complete delivers the outcome to whoever is waiting on the Op.
func (op *Op) complete(err error) {
	op.Err = err
	switch {
	case op.Done != nil:
		op.Done(op)
	case op.done != nil:
		op.done <- op
	}
}

// Submitter is implemented by connections that support pipelined
// (asynchronous, many-in-flight) operation submission alongside the
// blocking Verbs methods.
type Submitter interface {
	Verbs
	// Submit queues op for execution. It never blocks on the network; the
	// outcome is delivered through op.Done (which may fire before Submit
	// returns, e.g. when the connection is already dead).
	Submit(op *Op)
}

// PipelineStats is a snapshot of a pipelined connection's counters.
type PipelineStats struct {
	// Submitted counts operations submitted over the connection's lifetime
	// (a vectored op is one).
	Submitted uint64
	// Flushes counts writer wake-ups that pushed a batch to the wire
	// (doorbells). Submitted/Flushes is the mean coalescing factor.
	Flushes uint64
	// MaxInFlight is the high-water mark of concurrently outstanding
	// operations on the connection.
	MaxInFlight uint64
	// Expiries counts operations abandoned by the deadline sweep
	// (completed with ErrDeadline while still owed a response).
	Expiries uint64
}

// PipelineStatser is implemented by connections that export PipelineStats.
type PipelineStatser interface {
	PipelineStats() PipelineStats
}

// doneChans pools the single-slot channels used by synchronous waits.
var doneChans = sync.Pool{New: func() any { return make(chan *Op, 1) }}

// submitWait submits op and blocks until it completes, implementing the
// blocking Verbs methods in terms of Submit.
func submitWait(s Submitter, op *Op) error {
	ch := doneChans.Get().(chan *Op)
	op.done = ch
	s.Submit(op)
	<-ch
	op.done = nil
	doneChans.Put(ch)
	return op.Err
}
