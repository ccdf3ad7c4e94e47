package faultrdma

import (
	"errors"
	"testing"
	"time"

	"github.com/repro/sift/internal/rdma"
)

// newTestNet builds an in-process network with one memory node "m0" holding
// a shared 4 KiB region 1.
func newTestNet() *rdma.Network {
	n := rdma.NewNetwork(nil)
	node := rdma.NewNode("m0")
	node.Alloc(1, 4096, false)
	n.AddNode(node)
	return n
}

func dialWrapped(t *testing.T, ctrl *Controller, n *rdma.Network) rdma.Verbs {
	t.Helper()
	dial := ctrl.WrapDialer(func(node string) (rdma.Verbs, error) {
		return n.Dial("c0", node, rdma.DialOpts{})
	})
	v, err := dial("m0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

func TestPassthrough(t *testing.T) {
	n := newTestNet()
	ctrl := NewController(1, 100*time.Millisecond)
	v := dialWrapped(t, ctrl, n)

	if err := v.Write(1, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := v.Read(1, 0, buf); err != nil || buf[0] != 1 || buf[2] != 3 {
		t.Fatalf("read back %v, err %v", buf, err)
	}
	old, err := v.CompareAndSwap(1, 8, 0, 42)
	if err != nil || old != 0 {
		t.Fatalf("cas old=%d err=%v", old, err)
	}
}

func TestDropAlways(t *testing.T) {
	n := newTestNet()
	ctrl := NewController(1, 100*time.Millisecond)
	v := dialWrapped(t, ctrl, n)
	ctrl.Node("m0").SetDrop(1.0)

	if err := v.Write(1, 0, []byte{1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if st := ctrl.Node("m0").Stats(); st.Drops == 0 {
		t.Fatal("drop not counted")
	}
	ctrl.Node("m0").SetDrop(0)
	if err := v.Write(1, 0, []byte{1}); err != nil {
		t.Fatalf("write after clearing drop: %v", err)
	}
}

// TestHangDeadlineAndResume is the gray-node schedule in miniature: ops
// against a hung node complete with rdma.ErrDeadline at the deadline, and on
// Resume the parked work executes late — visible in memory afterwards.
func TestHangDeadlineAndResume(t *testing.T) {
	net := newTestNet()
	const deadline = 30 * time.Millisecond
	ctrl := NewController(1, deadline)
	v := dialWrapped(t, ctrl, net)

	ctrl.Node("m0").Hang()
	start := time.Now()
	if err := v.Write(1, 0, []byte{7}); !errors.Is(err, rdma.ErrDeadline) {
		t.Fatalf("hung write: got %v, want ErrDeadline", err)
	}
	if waited := time.Since(start); waited > 10*deadline {
		t.Fatalf("hung write blocked %v, want ~%v", waited, deadline)
	}
	if st := ctrl.Node("m0").Stats(); st.Parked == 0 {
		t.Fatal("park not counted")
	}

	ctrl.Node("m0").Resume()
	// The late shadow executes on Resume; the byte must land.
	deadlineAt := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1)
		if err := v.Read(1, 0, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] == 7 {
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatal("parked write never executed after Resume")
		}
		time.Sleep(time.Millisecond)
	}
	if st := ctrl.Node("m0").Stats(); st.ParkedLate == 0 {
		t.Fatal("late execution not counted")
	}
}

// TestHangWithoutDeadlineBlocksUntilResume checks zero-deadline semantics:
// the op parks indefinitely and completes only on Resume.
func TestHangWithoutDeadlineBlocksUntilResume(t *testing.T) {
	net := newTestNet()
	ctrl := NewController(1, 0)
	v := dialWrapped(t, ctrl, net)

	ctrl.Node("m0").Hang()
	done := make(chan error, 1)
	go func() { done <- v.Write(1, 0, []byte{9}) }()
	select {
	case err := <-done:
		t.Fatalf("hung write completed early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	ctrl.Node("m0").Resume()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("resumed write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write still blocked after Resume")
	}
}

func TestDelayPastDeadline(t *testing.T) {
	net := newTestNet()
	const deadline = 25 * time.Millisecond
	ctrl := NewController(1, deadline)
	v := dialWrapped(t, ctrl, net)

	ctrl.Node("m0").SetDelay(4*deadline, 0, 1.0)
	if err := v.Write(1, 0, []byte{5}); !errors.Is(err, rdma.ErrDeadline) {
		t.Fatalf("delayed write: got %v, want ErrDeadline", err)
	}
	// The shadow executes at the full delay regardless.
	ctrl.Node("m0").SetDelay(0, 0, 0)
	deadlineAt := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1)
		if err := v.Read(1, 0, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] == 5 {
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatal("delayed write never landed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDelayUnderDeadline(t *testing.T) {
	net := newTestNet()
	ctrl := NewController(1, time.Second)
	v := dialWrapped(t, ctrl, net)
	ctrl.Node("m0").SetDelay(5*time.Millisecond, 5*time.Millisecond, 1.0)
	if err := v.Write(1, 0, []byte{3}); err != nil {
		t.Fatalf("short delay should succeed: %v", err)
	}
}

func TestDuplicate(t *testing.T) {
	net := newTestNet()
	ctrl := NewController(1, time.Second)
	v := dialWrapped(t, ctrl, net)
	ctrl.Node("m0").SetDuplicate(1.0)
	if err := v.Write(1, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if st := ctrl.Node("m0").Stats(); st.Duplicates == 0 {
		t.Fatal("duplicate not counted")
	}
}

func TestFailStopAfter(t *testing.T) {
	net := newTestNet()
	ctrl := NewController(1, time.Second)
	v := dialWrapped(t, ctrl, net)
	ctrl.Node("m0").FailStopAfter(3)
	var firstErr error
	for i := 0; i < 5; i++ {
		if err := v.Write(1, 0, []byte{byte(i)}); err != nil && firstErr == nil {
			firstErr = err
			if i != 2 {
				t.Fatalf("fail-stop fired at op %d, want op 2", i)
			}
		}
	}
	if !errors.Is(firstErr, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", firstErr)
	}
	// Dials to a fail-stopped node fail too.
	dial := ctrl.WrapDialer(func(node string) (rdma.Verbs, error) {
		return net.Dial("c1", node, rdma.DialOpts{})
	})
	if _, err := dial("m0"); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial to fail-stopped node: got %v, want ErrInjected", err)
	}
}

func TestFailDials(t *testing.T) {
	net := newTestNet()
	ctrl := NewController(1, time.Second)
	ctrl.Node("m0").FailDials(2)
	dial := ctrl.WrapDialer(func(node string) (rdma.Verbs, error) {
		return net.Dial("c0", node, rdma.DialOpts{})
	})
	for i := 0; i < 2; i++ {
		if _, err := dial("m0"); !errors.Is(err, ErrInjected) {
			t.Fatalf("dial %d: got %v, want ErrInjected", i, err)
		}
	}
	v, err := dial("m0")
	if err != nil {
		t.Fatalf("third dial: %v", err)
	}
	v.Close()
	if st := ctrl.Node("m0").Stats(); st.DialsFailed != 2 {
		t.Fatalf("DialsFailed = %d, want 2", st.DialsFailed)
	}
}

// TestDeterminism re-runs an identical probabilistic schedule and expects an
// identical outcome sequence for the same seed.
func TestDeterminism(t *testing.T) {
	run := func() []bool {
		net := newTestNet()
		ctrl := NewController(42, time.Second)
		v := dialWrapped(t, ctrl, net)
		ctrl.Node("m0").SetDrop(0.5)
		out := make([]bool, 64)
		for i := range out {
			out[i] = v.Write(1, 0, []byte{byte(i)}) == nil
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at op %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCloseCompletesParked ensures a hung connection's waiters are released
// with ErrClosed on Close, not leaked.
func TestCloseCompletesParked(t *testing.T) {
	net := newTestNet()
	ctrl := NewController(1, 0) // no deadline: parked ops wait for Close
	dial := ctrl.WrapDialer(func(node string) (rdma.Verbs, error) {
		return net.Dial("c0", node, rdma.DialOpts{})
	})
	v, err := dial("m0")
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Node("m0").Hang()
	done := make(chan error, 1)
	go func() { done <- v.Write(1, 0, []byte{1}) }()
	time.Sleep(10 * time.Millisecond)
	v.Close()
	select {
	case err := <-done:
		if !errors.Is(err, rdma.ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked op leaked across Close")
	}
}

// TestCorruptRead checks read-path corruption: stored memory is clean, but
// the bytes surfaced to the caller are flipped, and the event is counted.
func TestCorruptRead(t *testing.T) {
	net := newTestNet()
	ctrl := NewController(7, time.Second)
	v := dialWrapped(t, ctrl, net)

	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := v.Write(1, 0, want); err != nil {
		t.Fatal(err)
	}
	ctrl.Node("m0").SetCorrupt(1.0)
	buf := make([]byte, len(want))
	if err := v.Read(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) == string(want) {
		t.Fatal("read with corruptP=1 returned clean bytes")
	}
	if st := ctrl.Node("m0").Stats(); st.Corrupts == 0 {
		t.Fatal("corruption not counted")
	}
	// Stored memory was never touched: a clean read sees the original.
	ctrl.Node("m0").SetCorrupt(0)
	if err := v.Read(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(want) {
		t.Fatalf("stored bytes damaged by read corruption: %v", buf)
	}
}

// TestCorruptWrite checks write-path corruption: the payload lands flipped
// in remote memory while the submitter's own buffer is untouched.
func TestCorruptWrite(t *testing.T) {
	net := newTestNet()
	ctrl := NewController(7, time.Second)
	v := dialWrapped(t, ctrl, net)

	ctrl.Node("m0").SetCorrupt(1.0)
	payload := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	orig := append([]byte(nil), payload...)
	if err := v.Write(1, 64, payload); err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(orig) {
		t.Fatal("submitter's buffer was mutated")
	}
	ctrl.Node("m0").SetCorrupt(0)
	buf := make([]byte, len(payload))
	if err := v.Read(1, 64, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) == string(orig) {
		t.Fatal("write with corruptP=1 stored clean bytes")
	}
	if st := ctrl.Node("m0").Stats(); st.Corrupts == 0 {
		t.Fatal("corruption not counted")
	}
}

// TestCorruptRegionScoping confirms SetCorruptRegions limits damage to the
// listed regions; CAS is never corrupted regardless.
func TestCorruptRegionScoping(t *testing.T) {
	net := newTestNet()
	ctrl := NewController(7, time.Second)
	v := dialWrapped(t, ctrl, net)

	ctrl.Node("m0").SetCorrupt(1.0)
	ctrl.Node("m0").SetCorruptRegions(99) // a region this node doesn't serve
	want := []byte{4, 3, 2, 1}
	if err := v.Write(1, 0, want); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(want))
	if err := v.Read(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(want) {
		t.Fatalf("corruption escaped its region scope: %v", buf)
	}
	if st := ctrl.Node("m0").Stats(); st.Corrupts != 0 {
		t.Fatalf("Corrupts = %d, want 0", st.Corrupts)
	}
	// Widen back to all regions: CAS must still pass through untouched.
	ctrl.Node("m0").SetCorruptRegions()
	if old, err := v.CompareAndSwap(1, 1024, 0, 77); err != nil || old != 0 {
		t.Fatalf("cas under corruption: old=%d err=%v", old, err)
	}
	if got, err := v.CompareAndSwap(1, 1024, 77, 78); err != nil || got != 77 {
		t.Fatalf("cas word corrupted: old=%d err=%v", got, err)
	}
}

// TestVectoredReadDrawsOnce: to the fault schedule a vectored read is one
// operation. With a drop rate of one half, a run of 64-segment reads fails
// exactly where a run of plain reads under the same seed does — one drop draw
// each, not one per segment.
func TestVectoredReadDrawsOnce(t *testing.T) {
	outcomes := func(segments int) []bool {
		ctrl := NewController(7, 0)
		ctrl.Node("m0").SetDrop(0.5)
		v := dialWrapped(t, ctrl, newTestNet())
		var ok []bool
		for i := 0; i < 64; i++ {
			op := &rdma.Op{Kind: rdma.OpRead, Region: 1, Data: make([]byte, 8)}
			for k := 1; k < segments; k++ {
				op.More = append(op.More, rdma.Seg{Offset: uint64(16 * k), Data: make([]byte, 8)})
			}
			done := make(chan error, 1)
			op.Done = func(o *rdma.Op) { done <- o.Err }
			v.(rdma.Submitter).Submit(op)
			ok = append(ok, <-done == nil)
		}
		return ok
	}
	plain, vectored := outcomes(1), outcomes(64)
	drops := 0
	for i := range plain {
		if plain[i] != vectored[i] {
			t.Fatalf("read %d: plain succeeded=%v, vectored succeeded=%v; the schedules diverge", i, plain[i], vectored[i])
		}
		if !plain[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(plain) {
		t.Fatalf("%d of %d reads dropped at rate 0.5: the check compares nothing", drops, len(plain))
	}
}
