package rdma_test

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/faultrdma"
	"github.com/repro/sift/internal/netsim"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/wantransport"
)

// Vectored-op conformance: one table of expectations, run against every
// connection a vectored op can meet — the two transports that carry vectors
// natively, and the two wrappers, which expand a vectored write and pass a
// vectored read through whole, each over a pipelined and over a
// blocking-only inner connection (the wrappers' synchronous fallback).

const vecLimit = 10 * time.Second // bounds waits that must end; no passing case runs it out

// blockingOnly hides a connection's Submit, leaving the blocking verbs.
type blockingOnly struct{ rdma.Verbs }

// vecEnv is one connection kind: dial opens a connection to a fresh node's
// regions (1 shared, 2 exclusive, 4 KiB each), read returns region bytes as
// the node holds them.
type vecEnv struct {
	dial   func(t *testing.T, opts rdma.DialOpts) rdma.Verbs
	read   func(region rdma.RegionID, off uint64, n int) []byte
	faults *faultrdma.NodeFaults // nil unless the kind injects faults
}

func newVecNode() *rdma.Node {
	n := rdma.NewNode("m0")
	n.Alloc(1, 4096, false)
	n.Alloc(2, 4096, true)
	return n
}

func nodeReader(n *rdma.Node) func(rdma.RegionID, uint64, int) []byte {
	return func(region rdma.RegionID, off uint64, size int) []byte {
		return n.Region(region).Snapshot()[off : off+uint64(size)]
	}
}

func inprocEnv(t *testing.T, wrap func(rdma.Verbs) rdma.Verbs) vecEnv {
	node := newVecNode()
	nw := rdma.NewNetwork(nil)
	nw.AddNode(node)
	return vecEnv{
		read: nodeReader(node),
		dial: func(t *testing.T, opts rdma.DialOpts) rdma.Verbs {
			c, err := nw.Dial("cpu0", "m0", opts)
			if err != nil {
				t.Fatal(err)
			}
			if wrap != nil {
				c = wrap(c)
			}
			t.Cleanup(func() { c.Close() })
			return c
		},
	}
}

func tcpEnv(t *testing.T) vecEnv {
	node := newVecNode()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go rdma.Serve(l, node)
	return vecEnv{
		read: nodeReader(node),
		dial: func(t *testing.T, opts rdma.DialOpts) rdma.Verbs {
			c, err := rdma.DialTCP(l.Addr().String(), opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		},
	}
}

func faultEnv(t *testing.T, blocking bool) vecEnv {
	ctl := faultrdma.NewController(1, 0)
	e := inprocEnv(t, func(c rdma.Verbs) rdma.Verbs {
		if blocking {
			c = blockingOnly{c}
		}
		return ctl.Wrap("m0", c)
	})
	e.faults = ctl.Node("m0")
	return e
}

func wanEnv(t *testing.T, blocking bool) vecEnv {
	tr := wantransport.New(wantransport.Config{RTT: time.Millisecond})
	im := &netsim.Impairment{OneWay: 100 * time.Microsecond}
	im.Seed(1)
	link := wantransport.ImpairedLink{Imp: im}
	return inprocEnv(t, func(c rdma.Verbs) rdma.Verbs {
		if blocking {
			c = blockingOnly{c}
		}
		return tr.Wrap(c, link)
	})
}

// submitVec submits a vectored write and returns its outcome, failing the
// test if Done fires more than once or not at all.
func submitVec(t *testing.T, c rdma.Verbs, region rdma.RegionID, segs ...rdma.Seg) error {
	t.Helper()
	var fired atomic.Int32
	done := make(chan error, len(segs)+1)
	op := &rdma.Op{Kind: rdma.OpWrite, Region: region, Offset: segs[0].Offset, Data: segs[0].Data, More: segs[1:],
		Done: func(o *rdma.Op) {
			fired.Add(1)
			done <- o.Err
		}}
	c.(rdma.Submitter).Submit(op)
	select {
	case err := <-done:
		// A second Done would be a bug in the fan-in or the ack counting;
		// give a stray one the chance to show before reading the count.
		time.Sleep(5 * time.Millisecond)
		if n := fired.Load(); n != 1 {
			t.Fatalf("Done fired %d times, want 1", n)
		}
		return err
	case <-time.After(vecLimit):
		t.Fatal("vectored write never completed")
		return nil
	}
}

func fill(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

// vecKinds are the connection kinds. native kinds carry a vectored write as
// one request and apply it in list order; the wrappers issue its segments in
// list order as separate writes, which (like any separate writes on one
// connection) the in-process lanes may then execute side by side, so only
// disjoint segments are checked through them.
var vecKinds = []struct {
	name   string
	native bool
	env    func(t *testing.T) vecEnv
}{
	{"inproc", true, func(t *testing.T) vecEnv { return inprocEnv(t, nil) }},
	{"tcp", true, tcpEnv},
	{"faultrdma", false, func(t *testing.T) vecEnv { return faultEnv(t, false) }},
	{"faultrdma-blocking", false, func(t *testing.T) vecEnv { return faultEnv(t, true) }},
	{"wantransport", false, func(t *testing.T) vecEnv { return wanEnv(t, false) }},
	{"wantransport-blocking", false, func(t *testing.T) vecEnv { return wanEnv(t, true) }},
}

func TestVectoredWriteConformance(t *testing.T) {
	for _, k := range vecKinds {
		t.Run(k.name, func(t *testing.T) {
			t.Run("segments land in order with one completion", func(t *testing.T) {
				e := k.env(t)
				c := e.dial(t, rdma.DialOpts{})
				// The third segment overwrites the middle of the first and the
				// fourth the start of the third: the final bytes are right only
				// if the segments were applied in list order.
				third, fourth := uint64(120), uint64(120)
				want := append(append(append(fill(20, 'a'), fill(4, 'd')...), fill(12, 'c')...), fill(28, 'a')...)
				if !k.native {
					third, fourth = 3000, 3500
					want = fill(64, 'a')
				}
				err := submitVec(t, c, 1,
					rdma.Seg{Offset: 100, Data: fill(64, 'a')},
					rdma.Seg{Offset: 2000, Data: fill(8, 'b')},
					rdma.Seg{Offset: third, Data: fill(16, 'c')},
					rdma.Seg{Offset: fourth, Data: fill(4, 'd')},
					rdma.Seg{Offset: 4000, Data: nil},
				)
				if err != nil {
					t.Fatalf("vectored write: %v", err)
				}
				if got := e.read(1, 100, 64); !bytes.Equal(got, want) {
					t.Fatalf("first range = %q, want %q", got, want)
				}
				if got := e.read(1, 2000, 8); !bytes.Equal(got, fill(8, 'b')) {
					t.Fatalf("second segment lost: %q", got)
				}
				if got := e.read(1, fourth, 4); !bytes.Equal(got, fill(4, 'd')) {
					t.Fatalf("fourth segment lost: %q", got)
				}
				if got := e.read(1, third+4, 12); !bytes.Equal(got, fill(12, 'c')) {
					t.Fatalf("third segment lost: %q", got)
				}
			})

			t.Run("a failing segment fails the op", func(t *testing.T) {
				e := k.env(t)
				c := e.dial(t, rdma.DialOpts{})
				err := submitVec(t, c, 1,
					rdma.Seg{Offset: 0, Data: fill(8, 'x')},
					rdma.Seg{Offset: 4090, Data: fill(8, 'y')}, // runs past the region
					rdma.Seg{Offset: 64, Data: fill(8, 'z')},
				)
				if !errors.Is(err, rdma.ErrOutOfBounds) {
					t.Fatalf("out-of-bounds segment: err=%v, want ErrOutOfBounds", err)
				}

				owner := e.dial(t, rdma.DialOpts{Exclusive: []rdma.RegionID{2}})
				e.dial(t, rdma.DialOpts{Exclusive: []rdma.RegionID{2}}) // revokes owner
				err = submitVec(t, owner, 2,
					rdma.Seg{Offset: 0, Data: fill(8, 'x')},
					rdma.Seg{Offset: 64, Data: fill(8, 'y')},
				)
				if !errors.Is(err, rdma.ErrFenced) {
					t.Fatalf("fenced connection: err=%v, want ErrFenced", err)
				}
				if got := e.read(2, 0, 8); !bytes.Equal(got, make([]byte, 8)) {
					t.Fatalf("fenced write landed: %q", got)
				}

				c.Close()
				err = submitVec(t, c, 1,
					rdma.Seg{Offset: 0, Data: fill(8, 'x')},
					rdma.Seg{Offset: 64, Data: fill(8, 'y')},
				)
				if err == nil {
					t.Fatal("vectored write on a closed connection succeeded")
				}
			})

			// Of the ops that change a node, only a write carries segments:
			// a CAS carrying them is refused before it is sent (a read may
			// carry them: TestVectoredReadConformance).
			t.Run("only a write carries segments", func(t *testing.T) {
				e := k.env(t)
				c := e.dial(t, rdma.DialOpts{})
				done := make(chan error, 2)
				c.(rdma.Submitter).Submit(&rdma.Op{Kind: rdma.OpCAS, Region: 1, Offset: 0, Swap: 7,
					More: []rdma.Seg{{Offset: 64, Data: fill(8, 'm')}},
					Done: func(o *rdma.Op) { done <- o.Err }})
				select {
				case err := <-done:
					if err == nil {
						t.Fatal("a CAS carrying segments succeeded")
					}
				case <-time.After(vecLimit):
					t.Fatal("a CAS carrying segments never completed")
				}
				if got := e.read(1, 0, 72); !bytes.Equal(got, make([]byte, 72)) {
					t.Fatalf("a rejected CAS reached the region: %q", got)
				}
			})

			t.Run("injected faults still apply", func(t *testing.T) {
				e := k.env(t)
				if e.faults == nil {
					t.Skip("no fault injection on this connection")
				}
				c := e.dial(t, rdma.DialOpts{})
				segs := []rdma.Seg{
					{Offset: 0, Data: fill(32, 'p')},
					{Offset: 512, Data: fill(32, 'q')},
					{Offset: 1024, Data: fill(32, 'r')},
				}

				e.faults.SetDrop(1)
				if err := submitVec(t, c, 1, segs...); !errors.Is(err, faultrdma.ErrInjected) {
					t.Fatalf("all segments dropped: err=%v, want ErrInjected", err)
				}
				if got := e.read(1, 0, 32); !bytes.Equal(got, make([]byte, 32)) {
					t.Fatalf("dropped segment landed: %q", got)
				}
				e.faults.SetDrop(0)

				e.faults.SetDelay(20*time.Millisecond, 0, 1)
				start := time.Now()
				if err := submitVec(t, c, 1, segs...); err != nil {
					t.Fatalf("delayed vectored write: %v", err)
				}
				if d := time.Since(start); d < 20*time.Millisecond {
					t.Fatalf("delayed write completed after %v, before the injected 20ms", d)
				}
				for _, s := range segs {
					if got := e.read(1, s.Offset, len(s.Data)); !bytes.Equal(got, s.Data) {
						t.Fatalf("delayed segment at %d lost: %q", s.Offset, got)
					}
				}
				e.faults.SetDelay(0, 0, 0)

				// Corruption reports success and stores flipped bytes, segment
				// by segment; the submitter's buffers are left alone.
				e.faults.SetCorrupt(1)
				payloads := [][]byte{fill(32, 's'), fill(32, 't'), fill(32, 'u')}
				if err := submitVec(t, c, 1,
					rdma.Seg{Offset: 0, Data: payloads[0]},
					rdma.Seg{Offset: 512, Data: payloads[1]},
					rdma.Seg{Offset: 1024, Data: payloads[2]},
				); err != nil {
					t.Fatalf("corrupted vectored write: %v", err)
				}
				for i, off := range []uint64{0, 512, 1024} {
					if got := e.read(1, off, 32); bytes.Equal(got, payloads[i]) {
						t.Fatalf("segment %d stored clean under corruption probability 1", i)
					}
					if !bytes.Equal(payloads[i], fill(32, "stu"[i])) {
						t.Fatalf("segment %d: the submitter's buffer was modified", i)
					}
				}
			})
		})
	}
}

// submitVecRead submits a vectored read of segs (their Data the buffers to
// fill) and returns its outcome, failing the test unless Done fires once.
func submitVecRead(t *testing.T, c rdma.Verbs, region rdma.RegionID, segs ...rdma.Seg) error {
	t.Helper()
	var fired atomic.Int32
	done := make(chan error, 2)
	c.(rdma.Submitter).Submit(&rdma.Op{Kind: rdma.OpRead, Region: region, Offset: segs[0].Offset, Data: segs[0].Data, More: segs[1:],
		Done: func(o *rdma.Op) {
			fired.Add(1)
			done <- o.Err
		}})
	select {
	case err := <-done:
		time.Sleep(5 * time.Millisecond) // room for a stray second Done
		if n := fired.Load(); n != 1 {
			t.Fatalf("Done fired %d times, want 1", n)
		}
		return err
	case <-time.After(vecLimit):
		t.Fatal("vectored read never completed")
		return nil
	}
}

func TestVectoredReadConformance(t *testing.T) {
	for _, k := range vecKinds {
		t.Run(k.name, func(t *testing.T) {
			t.Run("every segment is filled with one completion", func(t *testing.T) {
				e := k.env(t)
				c := e.dial(t, rdma.DialOpts{})
				if err := submitVec(t, c, 1, rdma.Seg{Offset: 0, Data: []byte("0123456789abcdefghijklmnopqrstuv")}); err != nil {
					t.Fatal(err)
				}
				// Overlapping, out of order, empty and region-edge segments.
				segs := []rdma.Seg{
					{Offset: 8, Data: make([]byte, 4)},
					{Offset: 0, Data: make([]byte, 32)},
					{Offset: 30, Data: make([]byte, 2)},
					{Offset: 100, Data: nil},
					{Offset: 4092, Data: make([]byte, 4)},
				}
				if err := submitVecRead(t, c, 1, segs...); err != nil {
					t.Fatalf("vectored read: %v", err)
				}
				for _, s := range segs {
					if want := e.read(1, s.Offset, len(s.Data)); !bytes.Equal(s.Data, want) {
						t.Fatalf("segment at %d read %q, the region holds %q", s.Offset, s.Data, want)
					}
				}
			})

			t.Run("a failing segment fails the op", func(t *testing.T) {
				e := k.env(t)
				c := e.dial(t, rdma.DialOpts{})
				err := submitVecRead(t, c, 1,
					rdma.Seg{Offset: 0, Data: make([]byte, 8)},
					rdma.Seg{Offset: 4090, Data: make([]byte, 8)}, // runs past the region
					rdma.Seg{Offset: 64, Data: make([]byte, 8)},
				)
				if !errors.Is(err, rdma.ErrOutOfBounds) {
					t.Fatalf("out-of-bounds segment: err=%v, want ErrOutOfBounds", err)
				}
				c.Close()
				if err := submitVecRead(t, c, 1, rdma.Seg{Offset: 0, Data: make([]byte, 8)}, rdma.Seg{Offset: 64, Data: make([]byte, 8)}); err == nil {
					t.Fatal("vectored read on a closed connection succeeded")
				}
			})

			t.Run("a fault is judged once", func(t *testing.T) {
				e := k.env(t)
				if e.faults == nil {
					t.Skip("no fault injection on this connection")
				}
				c := e.dial(t, rdma.DialOpts{})
				segs := func() []rdma.Seg {
					return []rdma.Seg{{Offset: 0, Data: make([]byte, 16)}, {Offset: 512, Data: make([]byte, 16)}, {Offset: 1024, Data: make([]byte, 16)}}
				}
				e.faults.SetDrop(1)
				if err := submitVecRead(t, c, 1, segs()...); !errors.Is(err, faultrdma.ErrInjected) {
					t.Fatalf("dropped vectored read: err=%v, want ErrInjected", err)
				}
				e.faults.SetDrop(0)
				if st := e.faults.Stats(); st.Drops != 1 {
					t.Fatalf("one vectored read of three segments counted %d drops, want 1", st.Drops)
				}
				// Corruption flips 1–3 bytes somewhere in the op's payload: once.
				e.faults.SetCorrupt(1)
				got := segs()
				if err := submitVecRead(t, c, 1, got...); err != nil {
					t.Fatalf("corrupted vectored read: %v", err)
				}
				e.faults.SetCorrupt(0)
				flipped := 0
				for _, s := range got {
					for _, b := range s.Data {
						if b != 0 {
							flipped++
						}
					}
				}
				if st := e.faults.Stats(); st.Corrupts != 1 || flipped < 1 || flipped > 3 {
					t.Fatalf("corrupted vectored read: %d corruptions, %d bytes flipped; want 1 and 1–3", st.Corrupts, flipped)
				}
			})
		})
	}
}

// TestSubmitSegmentsCompletesOnceOnSynchronousFailure covers the fan-in when
// every segment completes inside submit, before the next is issued.
func TestSubmitSegmentsCompletesOnceOnSynchronousFailure(t *testing.T) {
	boom := errors.New("boom")
	var seen []uint64
	fired := 0
	op := &rdma.Op{Kind: rdma.OpWrite, Region: 1, Offset: 1, Data: []byte{1},
		More: []rdma.Seg{{Offset: 2, Data: []byte{2}}, {Offset: 3, Data: []byte{3}}},
		Done: func(*rdma.Op) { fired++ }}
	rdma.SubmitSegments(op, func(seg *rdma.Op) {
		seen = append(seen, seg.Offset)
		if len(seg.More) != 0 {
			t.Errorf("segment op at %d still carries a vector", seg.Offset)
		}
		var err error
		if seg.Offset == 2 {
			err = boom
		}
		seg.Complete(err)
	})
	if fired != 1 || !errors.Is(op.Err, boom) {
		t.Fatalf("Done fired %d times with err=%v, want once with boom", fired, op.Err)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Fatalf("segments submitted as %v, want [1 2 3]", seen)
	}
}
