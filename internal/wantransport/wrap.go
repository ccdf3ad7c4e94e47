package wantransport

import (
	"time"

	"github.com/repro/sift/internal/rdma"
)

// opHeaderWire approximates the per-op wire header of the inproc transport;
// the exact constant matters less than charging small ops a realistic floor.
const opHeaderWire = 32

// Wrap interposes the WAN transport on an rdma connection: every operation
// is charged the simulated flight time of its request and response legs
// before reaching the inner transport. When a flight's retry budget expires,
// the submitter is released with rdma.ErrDeadline at the budget boundary and
// the operation still executes late through a shadow — the retransmission
// machinery eventually delivers, exactly like a kernel ARQ stack, so the
// remote's state matches what a real lossy link would leave behind. That
// keeps the established gray-failure contract: ErrDeadline means "outcome
// unknown, possibly late", never "never happened".
func (t *Transport) Wrap(inner rdma.Verbs, link Link) rdma.Verbs {
	c := &wanConn{t: t, link: link, inner: inner}
	c.sub, _ = inner.(rdma.Submitter)
	return c
}

// Dialer mirrors the dial function shape used by the cluster wiring.
type Dialer func(node string) (rdma.Verbs, error)

// WrapDialer wraps connections dialed to wanNode with the WAN transport;
// dials to every other node pass through untouched.
func (t *Transport) WrapDialer(dial Dialer, wanNode string, link Link) Dialer {
	return func(node string) (rdma.Verbs, error) {
		v, err := dial(node)
		if err != nil || node != wanNode {
			return v, err
		}
		return t.Wrap(v, link), nil
	}
}

type wanConn struct {
	t     *Transport
	link  Link
	inner rdma.Verbs
	sub   rdma.Submitter // nil when inner is blocking-only
}

var _ rdma.Submitter = (*wanConn)(nil)

// segHeaderWire approximates the wire cost of one further segment of a
// vectored read (offset, length), as the inproc transport charges it.
const segHeaderWire = 16

// wireSizes returns the request and response datagram payload sizes of op, a
// vectored read's segments included.
func wireSizes(op *rdma.Op) (req, resp int) {
	switch op.Kind {
	case rdma.OpRead:
		req, resp = opHeaderWire, opHeaderWire+len(op.Data)
		for _, seg := range op.More {
			req += segHeaderWire
			resp += len(seg.Data)
		}
		return req, resp
	case rdma.OpWrite:
		return opHeaderWire + len(op.Data), opHeaderWire
	case rdma.OpCAS:
		return opHeaderWire + 16, opHeaderWire + 8
	default:
		return opHeaderWire, opHeaderWire
	}
}

// Submit implements rdma.Submitter. It never blocks: flight times are
// computed (not slept) and the op is scheduled onto the inner transport
// after the simulated WAN delay. A vectored write crosses the link as the
// separate writes it stands for, one flight each; a vectored read is one
// flight, sized by all of its segments.
func (c *wanConn) Submit(op *rdma.Op) {
	if len(op.More) > 0 && op.Kind == rdma.OpWrite {
		rdma.SubmitSegments(op, c.Submit)
		return
	}
	reqSize, respSize := wireSizes(op)
	d1, ok1, err := c.t.flightTime(c.link, reqSize)
	if err != nil {
		// Path administratively dead — let the inner transport report the
		// real unreachable/closed error without extra delay.
		c.forward(op)
		return
	}
	d2, ok2, err := c.t.flightTime(c.link, respSize)
	if err != nil {
		c.forward(op)
		return
	}
	total := d1 + d2
	if !ok1 || !ok2 {
		// Budget expired: release the submitter with a deadline, execute the
		// op late via a shadow carrying copied buffers.
		shadow := op.Shadow()
		time.AfterFunc(total, func() { op.Complete(rdma.ErrDeadline) })
		time.AfterFunc(total+c.t.cfg.RTT, func() { c.forward(shadow) })
		return
	}
	if total <= 0 {
		c.forward(op)
		return
	}
	time.AfterFunc(total, func() { c.forward(op) })
}

// forward hands op to the inner transport; a blocking-only one is driven
// from a goroutine of its own.
func (c *wanConn) forward(op *rdma.Op) {
	if c.sub != nil {
		c.sub.Submit(op)
		return
	}
	go rdma.Send(c.inner, op)
}

// do submits op and waits, implementing the blocking Verbs methods.
func (c *wanConn) do(op *rdma.Op) error {
	ch := make(chan struct{})
	op.Done = func(*rdma.Op) { close(ch) }
	c.Submit(op)
	<-ch
	return op.Err
}

// Read implements rdma.Verbs.
func (c *wanConn) Read(region rdma.RegionID, offset uint64, buf []byte) error {
	return c.do(&rdma.Op{Kind: rdma.OpRead, Region: region, Offset: offset, Data: buf})
}

// Write implements rdma.Verbs.
func (c *wanConn) Write(region rdma.RegionID, offset uint64, data []byte) error {
	return c.do(&rdma.Op{Kind: rdma.OpWrite, Region: region, Offset: offset, Data: data})
}

// CompareAndSwap implements rdma.Verbs.
func (c *wanConn) CompareAndSwap(region rdma.RegionID, offset uint64, expect, swap uint64) (uint64, error) {
	op := &rdma.Op{Kind: rdma.OpCAS, Region: region, Offset: offset, Expect: expect, Swap: swap}
	if err := c.do(op); err != nil {
		return 0, err
	}
	return op.Old, nil
}

// Close implements rdma.Verbs.
func (c *wanConn) Close() error { return c.inner.Close() }

// PipelineStats passes through to the inner transport's counters.
func (c *wanConn) PipelineStats() rdma.PipelineStats {
	if ps, ok := c.inner.(rdma.PipelineStatser); ok {
		return ps.PipelineStats()
	}
	return rdma.PipelineStats{}
}
