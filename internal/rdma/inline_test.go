package rdma

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/repro/sift/internal/netsim"
)

// submitInline submits op and returns its outcome, failing the test unless
// Done fired exactly once before Submit returned.
func submitInline(t *testing.T, c Verbs, op *Op) error {
	t.Helper()
	fired := 0
	op.Done = func(*Op) { fired++ }
	c.(Submitter).Submit(op)
	if fired != 1 {
		t.Fatalf("Done fired %d times before Submit returned, want 1", fired)
	}
	return op.Err
}

// TestInprocZeroDelaySubmitInline: over a zero-delay link an op completes on
// the goroutine that submits it, before Submit returns, with the error the
// blocking verbs return, and the connection starts no lane.
func TestInprocZeroDelaySubmitInline(t *testing.T) {
	nw := NewNetwork(nil)
	node := newTestNode("m0")
	nw.AddNode(node)
	dial := func(opts DialOpts) Verbs {
		c, err := nw.Dial("cpu0", "m0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c := dial(DialOpts{Exclusive: []RegionID{2}})

	// A vectored write, then a vectored read of what it wrote.
	if err := submitInline(t, c, &Op{Kind: OpWrite, Region: 1, Offset: 0, Data: []byte("ab"),
		More: []Seg{{Offset: 100, Data: []byte("cd")}, {Offset: 4094, Data: []byte("ef")}}}); err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{make([]byte, 2), make([]byte, 2), make([]byte, 2)}
	if err := submitInline(t, c, &Op{Kind: OpRead, Region: 1, Offset: 4094, Data: bufs[0],
		More: []Seg{{Offset: 100, Data: bufs[1]}, {Offset: 0, Data: bufs[2]}}}); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(bufs, nil); string(got) != "efcdab" {
		t.Fatalf("vectored read got %q, want efcdab", got)
	}
	cas := &Op{Kind: OpCAS, Region: 2, Offset: 8, Expect: 0, Swap: 5}
	if err := submitInline(t, c, cas); err != nil || cas.Old != 0 {
		t.Fatalf("CAS: old=%d err=%v", cas.Old, err)
	}

	readOnly := dial(DialOpts{ReadOnly: []RegionID{2}})
	fenced := dial(DialOpts{Exclusive: []RegionID{2}})
	dial(DialOpts{Exclusive: []RegionID{2}}) // revokes fenced's epoch
	closed := dial(DialOpts{})
	closed.Close()
	cases := []struct {
		name     string
		c        Verbs
		op       func() *Op
		blocking func(v Verbs) error
		want     error
	}{
		{"closed", closed, func() *Op { return &Op{Kind: OpWrite, Region: 1, Data: []byte{1}} },
			func(v Verbs) error { return v.Write(1, 0, []byte{1}) }, ErrClosed},
		{"fenced", fenced, func() *Op { return &Op{Kind: OpWrite, Region: 2, Data: []byte{1}} },
			func(v Verbs) error { return v.Write(2, 0, []byte{1}) }, ErrFenced},
		{"read-only", readOnly, func() *Op { return &Op{Kind: OpWrite, Region: 2, Data: []byte{1}} },
			func(v Verbs) error { return v.Write(2, 0, []byte{1}) }, ErrFenced},
		{"unknown region", c, func() *Op { return &Op{Kind: OpRead, Region: 9, Data: make([]byte, 1)} },
			func(v Verbs) error { return v.Read(9, 0, make([]byte, 1)) }, ErrUnknownRegion},
		{"out of bounds", c, func() *Op { return &Op{Kind: OpWrite, Region: 1, Offset: 4090, Data: make([]byte, 64)} },
			func(v Verbs) error { return v.Write(1, 4090, make([]byte, 64)) }, ErrOutOfBounds},
		{"out-of-bounds segment", c, func() *Op {
			return &Op{Kind: OpRead, Region: 1, Data: make([]byte, 1), More: []Seg{{Offset: 4096, Data: make([]byte, 1)}}}
		}, func(v Verbs) error { return v.Read(1, 4096, make([]byte, 1)) }, ErrOutOfBounds},
	}
	for _, tc := range cases {
		if err := submitInline(t, tc.c, tc.op()); !errors.Is(err, tc.want) {
			t.Errorf("%s: Submit got %v, want %v", tc.name, err, tc.want)
		}
		if err := tc.blocking(tc.c); !errors.Is(err, tc.want) {
			t.Errorf("%s: blocking verb got %v, want %v", tc.name, err, tc.want)
		}
	}

	nw.Fabric().Kill("m0")
	if err := submitInline(t, c, &Op{Kind: OpWrite, Region: 1, Data: []byte{1}}); !errors.Is(err, netsim.ErrUnreachable) {
		t.Errorf("unreachable: Submit got %v", err)
	}
	if err := c.Write(1, 0, []byte{1}); !errors.Is(err, netsim.ErrUnreachable) {
		t.Errorf("unreachable: blocking write got %v", err)
	}
	nw.Fabric().Restart("m0")

	if ch := c.(*inprocConn).subCh; ch != nil {
		t.Error("a connection that carried only zero-delay ops started its lanes")
	}
}

// TestInprocDelayedLinksUseLanes: once the links carry modelled delay, ops
// go to the lanes, at most inprocWorkers of them in flight; back at zero
// delay they run inline again.
func TestInprocDelayedLinksUseLanes(t *testing.T) {
	nw := NewNetwork(nil)
	nw.AddNode(newTestNode("m0"))
	v, err := nw.Dial("cpu0", "m0", DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	c := v.(*inprocConn)

	nw.Fabric().SetLatency(netsim.FixedLatency{Base: 2 * time.Millisecond})
	const ops = 4 * inprocWorkers
	var wg sync.WaitGroup
	wg.Add(ops)
	for i := 0; i < ops; i++ {
		c.Submit(&Op{Kind: OpWrite, Region: 1, Offset: uint64(8 * i), Data: []byte{byte(i)},
			Done: func(op *Op) {
				if op.Err != nil {
					t.Errorf("delayed write: %v", op.Err)
				}
				wg.Done()
			}})
	}
	wg.Wait()
	st := c.PipelineStats()
	if st.Submitted != ops || st.MaxInFlight == 0 || st.MaxInFlight > inprocWorkers {
		t.Errorf("over delayed links: Submitted=%d MaxInFlight=%d, want %d and 1..%d", st.Submitted, st.MaxInFlight, ops, inprocWorkers)
	}
	if c.subCh == nil {
		t.Error("delayed ops started no lanes")
	}

	nw.Fabric().SetLatency(netsim.FixedLatency{})
	if err := submitInline(t, c, &Op{Kind: OpWrite, Region: 1, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
}

// TestInprocInlineConcurrent has several goroutines submit zero-delay ops on
// one connection while the node's region table and an exclusive region's
// epoch change under them (for the race detector): every op lands or fails
// with the error its region's state at that moment gives.
func TestInprocInlineConcurrent(t *testing.T) {
	nw := NewNetwork(nil)
	node := newTestNode("m0")
	nw.AddNode(node)
	c, err := nw.Dial("cpu0", "m0", DialOpts{Exclusive: []RegionID{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			node.Alloc(RegionID(10+i%8), 64, false)
			node.Region(2).Acquire()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				op := &Op{Kind: OpWrite, Region: 1, Offset: uint64(8 * g), Data: []byte{byte(i)}}
				if i%2 == 1 {
					op.Region = 2 // fenced as soon as the churn re-acquires it
				}
				fired := false
				op.Done = func(*Op) { fired = true }
				c.(Submitter).Submit(op)
				if !fired {
					t.Error("zero-delay op did not complete inside Submit")
					return
				}
				if op.Err != nil && (op.Region == 1 || !errors.Is(op.Err, ErrFenced)) {
					t.Errorf("region %d: %v", op.Region, op.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if st := c.(PipelineStatser).PipelineStats(); st.Submitted != 4*500 {
		t.Errorf("Submitted = %d, want %d", st.Submitted, 4*500)
	}
}
