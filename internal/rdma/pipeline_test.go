package rdma

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
)

// startPipelineServer serves a standard test node over TCP and returns its
// address.
func startPipelineServer(t *testing.T) string {
	t.Helper()
	node := newTestNode("m0")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, node)
	return l.Addr().String()
}

// TestTCPPipelineConcurrentMixed drives one connection from many goroutines
// with mixed READ/WRITE/CAS. Each goroutine owns a disjoint 128-byte span of
// region 1 (64 B of write/read scratch plus an 8-byte CAS word), so any
// response misrouted to another request surfaces as a data mismatch or an
// unexpected CAS old value.
func TestTCPPipelineConcurrentMixed(t *testing.T) {
	addr := startPipelineServer(t)
	v, err := DialTCP(addr, DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	sub, ok := v.(Submitter)
	if !ok {
		t.Fatal("TCP connection does not implement Submitter")
	}

	const goroutines = 8
	const iters = 50
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 128)
			buf := make([]byte, 64)
			var prev uint64
			for i := 0; i < iters; i++ {
				want := bytes.Repeat([]byte{byte(g*31 + i + 1)}, 64)
				if err := v.Write(1, base, want); err != nil {
					errCh <- fmt.Errorf("g%d write: %w", g, err)
					return
				}
				if err := v.Read(1, base, buf); err != nil {
					errCh <- fmt.Errorf("g%d read: %w", g, err)
					return
				}
				if !bytes.Equal(buf, want) {
					errCh <- fmt.Errorf("g%d iter %d: read %x, want %x", g, i, buf[0], want[0])
					return
				}
				old, err := v.CompareAndSwap(1, base+64, prev, prev+1)
				if err != nil || old != prev {
					errCh <- fmt.Errorf("g%d CAS: old=%d err=%v, want %d", g, old, err, prev)
					return
				}
				prev++
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := sub.(PipelineStatser).PipelineStats()
	if want := uint64(goroutines * iters * 3); st.Submitted != want {
		t.Errorf("Submitted = %d, want %d", st.Submitted, want)
	}
	if st.Flushes == 0 || st.Flushes > st.Submitted {
		t.Errorf("Flushes = %d out of range (Submitted %d)", st.Flushes, st.Submitted)
	}
	if st.MaxInFlight == 0 || st.MaxInFlight > goroutines {
		t.Errorf("MaxInFlight = %d, want 1..%d", st.MaxInFlight, goroutines)
	}
}

// TestTCPPipelineResponseMatching floods one connection with asynchronous
// reads submitted in a scrambled order and checks every completion carries
// the bytes for its own offset — i.e. responses are demultiplexed by request
// ID, not by arrival position.
func TestTCPPipelineResponseMatching(t *testing.T) {
	addr := startPipelineServer(t)
	v, err := DialTCP(addr, DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	sub := v.(Submitter)

	const slots = 64
	for i := 0; i < slots; i++ {
		if err := v.Write(1, uint64(i*64), bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatalf("seed write %d: %v", i, err)
		}
	}

	done := make(chan *Op, slots)
	ops := make([]*Op, slots)
	for i := range ops {
		ops[i] = &Op{
			Kind:   OpRead,
			Region: 1,
			Offset: uint64(i * 64),
			Data:   make([]byte, 64),
			Done:   func(op *Op) { done <- op },
		}
	}
	// 17 is coprime with 64, so this visits every op exactly once but far
	// from sequentially — queued requests and in-flight responses interleave.
	for i := 0; i < slots; i++ {
		sub.Submit(ops[(i*17)%slots])
	}
	for i := 0; i < slots; i++ {
		op := <-done
		if op.Err != nil {
			t.Fatalf("read at %d: %v", op.Offset, op.Err)
		}
		want := byte(op.Offset/64 + 1)
		for _, b := range op.Data {
			if b != want {
				t.Fatalf("read at %d: got byte %d, want %d (response misrouted)", op.Offset, b, want)
			}
		}
	}
}

// TestTCPPipelineStickyError kills the transport under a pipeline of
// unanswered requests: a fake daemon completes the handshake, swallows
// requests without responding, then closes. Every in-flight waiter must be
// failed, and the error must stick so later submissions fail fast.
func TestTCPPipelineStickyError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srvConn := make(chan net.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		hs := make([]byte, len(tcpMagic)+2) // magic + nEx(0)
		if _, err := io.ReadFull(conn, hs); err != nil {
			conn.Close()
			return
		}
		if _, err := conn.Write([]byte{statusOK}); err != nil {
			conn.Close()
			return
		}
		srvConn <- conn
		io.Copy(io.Discard, conn) //nolint:errcheck — swallow requests, never answer
	}()

	v, err := DialTCP(l.Addr().String(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	sub := v.(Submitter)

	const n = 32
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		sub.Submit(&Op{
			Kind:   OpWrite,
			Region: 1,
			Offset: uint64(i),
			Data:   []byte{byte(i)},
			Done:   func(op *Op) { done <- op.Err },
		})
	}
	(<-srvConn).Close()
	for i := 0; i < n; i++ {
		if err := <-done; err == nil {
			t.Fatalf("waiter %d completed without error after transport death", i)
		}
	}
	if err := v.Write(1, 0, []byte{1}); err == nil {
		t.Fatal("write after transport death should fail immediately")
	}
	if err := v.Read(1, 0, make([]byte, 1)); err == nil {
		t.Fatal("read after transport death should fail immediately")
	}
}

// TestTCPPipelineFencedRevocation revokes a connection's exclusive region
// while a pipeline of operations targets it. The fenced operations must fail
// with ErrFenced individually; interleaved operations on a shared region —
// and the connection itself — must keep working.
func TestTCPPipelineFencedRevocation(t *testing.T) {
	addr := startPipelineServer(t)
	c1v, err := DialTCP(addr, DialOpts{Exclusive: []RegionID{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c1v.Close()
	c1 := c1v.(Submitter)
	if err := c1v.Write(2, 0, []byte{1}); err != nil {
		t.Fatalf("owner write before revocation: %v", err)
	}

	// A second exclusive dial bumps the region epoch; once it returns, every
	// c1 request the daemon executes afterwards observes the stale epoch.
	c2, err := DialTCP(addr, DialOpts{Exclusive: []RegionID{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	const n = 16
	done := make(chan *Op, 2*n)
	for i := 0; i < n; i++ {
		c1.Submit(&Op{Kind: OpWrite, Region: 2, Offset: 0, Data: []byte{9},
			Done: func(op *Op) { done <- op }})
		c1.Submit(&Op{Kind: OpRead, Region: 1, Offset: 0, Data: make([]byte, 8),
			Done: func(op *Op) { done <- op }})
	}
	for i := 0; i < 2*n; i++ {
		op := <-done
		if op.Region == 2 {
			if !errors.Is(op.Err, ErrFenced) {
				t.Fatalf("revoked-region write: err=%v, want ErrFenced", op.Err)
			}
		} else if op.Err != nil {
			t.Fatalf("shared-region read mid-revocation: %v", op.Err)
		}
	}

	// Fencing is per-op, not sticky: the connection still serves the shared
	// region, and further revoked-region ops keep reporting ErrFenced.
	if err := c1v.Write(1, 0, []byte{5}); err != nil {
		t.Fatalf("shared-region write after revocation: %v", err)
	}
	if _, err := c1v.CompareAndSwap(2, 0, 0, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("revoked-region CAS: err=%v, want ErrFenced", err)
	}
	if err := c2.Write(2, 0, []byte{2}); err != nil {
		t.Fatalf("new owner write: %v", err)
	}
}

// TestInprocPipelineAsync mirrors the asynchronous-submission contract on
// the in-process transport: concurrent completions carry the right results,
// and Close fails queued operations with ErrClosed.
func TestInprocPipelineAsync(t *testing.T) {
	nw := NewNetwork(nil)
	nw.AddNode(newTestNode("m0"))
	v, err := nw.Dial("cpu0", "m0", DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := v.(Submitter)
	if !ok {
		t.Fatal("in-process connection does not implement Submitter")
	}

	// Async writes to disjoint offsets. The worker pool may execute them in
	// any order, which is fine: no two ops touch the same bytes.
	const slots = 32
	var wg sync.WaitGroup
	wg.Add(slots)
	for i := 0; i < slots; i++ {
		sub.Submit(&Op{
			Kind:   OpWrite,
			Region: 1,
			Offset: uint64(i * 64),
			Data:   bytes.Repeat([]byte{byte(i + 1)}, 64),
			Done: func(op *Op) {
				if op.Err != nil {
					t.Errorf("async write at %d: %v", op.Offset, op.Err)
				}
				wg.Done()
			},
		})
	}
	wg.Wait()

	// Async reads must each see their own offset's pattern.
	done := make(chan *Op, slots)
	for i := 0; i < slots; i++ {
		sub.Submit(&Op{
			Kind:   OpRead,
			Region: 1,
			Offset: uint64(i * 64),
			Data:   make([]byte, 64),
			Done:   func(op *Op) { done <- op },
		})
	}
	for i := 0; i < slots; i++ {
		op := <-done
		if op.Err != nil {
			t.Fatalf("async read at %d: %v", op.Offset, op.Err)
		}
		want := byte(op.Offset/64 + 1)
		for _, b := range op.Data {
			if b != want {
				t.Fatalf("read at %d: got byte %d, want %d", op.Offset, b, want)
			}
		}
	}

	// Async CAS returns the observed old value.
	casDone := make(chan *Op, 1)
	sub.Submit(&Op{Kind: OpCAS, Region: 1, Offset: 2048, Expect: 0, Swap: 7,
		Done: func(op *Op) { casDone <- op }})
	op := <-casDone
	if op.Err != nil || op.Old != 0 {
		t.Fatalf("async CAS: old=%d err=%v", op.Old, op.Err)
	}

	st := sub.(PipelineStatser).PipelineStats()
	if want := uint64(2*slots + 1); st.Submitted != want {
		t.Errorf("Submitted = %d, want %d", st.Submitted, want)
	}
	if st.MaxInFlight == 0 {
		t.Error("MaxInFlight = 0, want > 0")
	}

	v.Close()
	closedDone := make(chan error, 1)
	sub.Submit(&Op{Kind: OpWrite, Region: 1, Offset: 0, Data: []byte{1},
		Done: func(op *Op) { closedDone <- op.Err }})
	if err := <-closedDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err=%v, want ErrClosed", err)
	}
}
