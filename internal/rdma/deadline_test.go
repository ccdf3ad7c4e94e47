package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// startHungServer accepts one connection, completes the handshake, then
// swallows every request without ever answering — a gray peer: connected,
// readable, and silent.
func startHungServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hs := make([]byte, len(tcpMagic)+2)
		if _, err := io.ReadFull(conn, hs); err != nil {
			return
		}
		if _, err := conn.Write([]byte{statusOK}); err != nil {
			return
		}
		io.Copy(io.Discard, conn) //nolint:errcheck — never answer
	}()
	return l.Addr().String()
}

// TestTCPDeadlineExpiresHungPeer pins the tentpole semantics: a peer that
// stops answering fails every in-flight operation with ErrDeadline within a
// bounded time, and the connection itself stays alive (later operations get
// their own deadline, not a sticky transport error).
func TestTCPDeadlineExpiresHungPeer(t *testing.T) {
	addr := startHungServer(t)
	const deadline = 40 * time.Millisecond
	v, err := DialTCP(addr, DialOpts{OpDeadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	sub := v.(Submitter)

	const n = 8
	done := make(chan error, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		sub.Submit(&Op{
			Kind:   OpWrite,
			Region: 1,
			Offset: uint64(i * 8),
			Data:   []byte{byte(i)},
			Done:   func(op *Op) { done <- op.Err },
		})
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("waiter %d: got %v, want ErrDeadline", i, err)
			}
		case <-time.After(10 * deadline):
			t.Fatalf("waiter %d still blocked %v after submit", i, time.Since(start))
		}
	}

	// The connection must remain usable: a fresh blocking op times out on
	// its own schedule rather than failing with a sticky transport error.
	if err := v.Write(1, 0, []byte{1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("write after expiry: got %v, want ErrDeadline", err)
	}
	st := v.(PipelineStatser).PipelineStats()
	if st.Expiries < n+1 {
		t.Fatalf("Expiries = %d, want >= %d", st.Expiries, n+1)
	}
}

// TestTCPLateResponseDiscarded checks the expired-ID path: a response that
// arrives after its operation was abandoned is dropped silently, and the
// connection keeps demultiplexing later responses correctly.
func TestTCPLateResponseDiscarded(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const deadline = 40 * time.Millisecond
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hs := make([]byte, len(tcpMagic)+2)
		if _, err := io.ReadFull(conn, hs); err != nil {
			return
		}
		if _, err := conn.Write([]byte{statusOK}); err != nil {
			return
		}
		first := true
		for {
			var hdr [reqHeaderSize]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			id := binary.LittleEndian.Uint64(hdr[0:8])
			length := binary.LittleEndian.Uint32(hdr[21:25])
			if _, err := io.CopyN(io.Discard, conn, int64(length)); err != nil {
				return
			}
			if first {
				first = false
				time.Sleep(4 * deadline) // answer well past the deadline
			}
			var resp [respHeaderSize]byte
			binary.LittleEndian.PutUint64(resp[0:8], id)
			resp[8] = statusOK
			if _, err := conn.Write(resp[:]); err != nil {
				return
			}
		}
	}()

	v, err := DialTCP(l.Addr().String(), DialOpts{OpDeadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.Write(1, 0, []byte{1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("first write: got %v, want ErrDeadline", err)
	}
	// The late response for the first write is in flight or already
	// consumed; a prompt second operation must still succeed.
	dl := time.Now().Add(5 * time.Second)
	for {
		err := v.Write(1, 8, []byte{2})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrDeadline) || time.Now().After(dl) {
			t.Fatalf("second write: got %v, want eventual success", err)
		}
	}
}

// TestTCPRedialAfterDeadline mirrors the repmem redial flow at the
// transport level: after a connection's operations expire against a hung
// peer, dialing a healthy peer succeeds and serves operations normally.
func TestTCPRedialAfterDeadline(t *testing.T) {
	hungAddr := startHungServer(t)
	goodAddr := startPipelineServer(t)

	const deadline = 30 * time.Millisecond
	v1, err := DialTCP(hungAddr, DialOpts{OpDeadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	if err := v1.Write(1, 0, []byte{1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("hung peer write: got %v, want ErrDeadline", err)
	}

	v2, err := DialTCP(goodAddr, DialOpts{OpDeadline: deadline, DialTimeout: time.Second})
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer v2.Close()
	if err := v2.Write(1, 0, []byte{42}); err != nil {
		t.Fatalf("write after redial: %v", err)
	}
	buf := make([]byte, 1)
	if err := v2.Read(1, 0, buf); err != nil || buf[0] != 42 {
		t.Fatalf("read after redial: %v %v", buf, err)
	}
}

// TestInprocDeadline checks the in-process transport mirrors the TCP
// deadline semantics: an op already expired when a worker dequeues it
// completes with ErrDeadline without executing.
func TestInprocDeadline(t *testing.T) {
	n := NewNetwork(nil)
	node := NewNode("m0")
	node.Alloc(1, 4096, false)
	n.AddNode(node)

	v, err := n.Dial("c0", "m0", DialOpts{OpDeadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	done := make(chan error, 1)
	v.(Submitter).Submit(&Op{
		Kind:   OpWrite,
		Region: 1,
		Offset: 0,
		Data:   []byte{1},
		Done:   func(op *Op) { done <- op.Err },
	})
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("got %v, want ErrDeadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("op never completed")
	}

	// A generous deadline on the same network must not produce spurious
	// expiries.
	v2, err := n.Dial("c0", "m0", DialOpts{OpDeadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if err := v2.Write(1, 0, []byte{7}); err != nil {
		t.Fatalf("write with generous deadline: %v", err)
	}
}

// TestTCPVectoredWriteExpiresOnce has a peer acknowledge the first frame of
// a three-segment write promptly and the other two well past the deadline:
// the op must complete exactly once, with ErrDeadline, the late
// acknowledgements must be discarded frame by frame, and the connection must
// keep serving.
func TestTCPVectoredWriteExpiresOnce(t *testing.T) { testVectorExpiresOnce(t, OpWrite) }

// TestTCPVectoredReadExpiresOnce is the same for a read: the first frame's
// payload lands in the first buffer, the late ones are swallowed.
func TestTCPVectoredReadExpiresOnce(t *testing.T) { testVectorExpiresOnce(t, OpRead) }

func testVectorExpiresOnce(t *testing.T, kind OpKind) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const deadline = 40 * time.Millisecond
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hs := make([]byte, len(tcpMagic)+2)
		if _, err := io.ReadFull(conn, hs); err != nil {
			return
		}
		if _, err := conn.Write([]byte{statusOK}); err != nil {
			return
		}
		for n := 0; ; n++ {
			var hdr [reqHeaderSize]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			length := binary.LittleEndian.Uint32(hdr[21:25])
			var payload []byte
			if hdr[8] == opRead {
				payload = bytes.Repeat([]byte{byte(n + 1)}, int(length))
			} else if _, err := io.CopyN(io.Discard, conn, int64(length)); err != nil {
				return
			}
			if n == 1 {
				time.Sleep(4 * deadline) // the second frame's answer comes late
			}
			var resp [respHeaderSize]byte
			copy(resp[0:8], hdr[0:8])
			resp[8] = statusOK
			binary.LittleEndian.PutUint32(resp[9:13], uint32(len(payload)))
			if _, err := conn.Write(append(resp[:], payload...)); err != nil {
				return
			}
		}
	}()

	v, err := DialTCP(l.Addr().String(), DialOpts{OpDeadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	done := make(chan error, 4)
	bufs := [][]byte{{0}, {0}, {0}}
	v.(Submitter).Submit(&Op{Kind: kind, Region: 1, Offset: 0, Data: bufs[0],
		More: []Seg{{Offset: 8, Data: bufs[1]}, {Offset: 16, Data: bufs[2]}},
		Done: func(op *Op) { done <- op.Err }})
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("vectored op: got %v, want ErrDeadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("vectored op never completed")
	}
	if st := v.(PipelineStatser).PipelineStats(); st.Expiries != 1 {
		t.Fatalf("Expiries = %d, want 1 (one op, however many frames)", st.Expiries)
	}
	// The two late answers arrive while these run; each must be swallowed
	// without failing the connection, completing anything twice or touching
	// the buffers the expired op handed back.
	dl := time.Now().Add(5 * time.Second)
	for {
		err := v.Write(1, 24, []byte{4})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrDeadline) || time.Now().After(dl) {
			t.Fatalf("write after the expired vector: got %v, want eventual success", err)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("vectored op completed a second time (err=%v)", err)
	default:
	}
	if kind == OpRead && (bufs[0][0] != 1 || bufs[1][0] != 0 || bufs[2][0] != 0) {
		t.Fatalf("buffers after the expiry = %v, want only the prompt first frame's [1 0 0]", bufs)
	}
}

// TestTCPFailAllCompletesVectoredWriteOnce fails a connection while a
// 64-frame write is pending on it under 64 IDs. The write's Done does what
// repmem's does — hands the op straight to another, healthy connection, whose
// writer then owns its fields — and only returns once that connection has it
// in flight. The dead connection must still complete the op exactly once: a
// second completion would carry the dead connection's error to the healthy
// one's flight.
func TestTCPFailAllCompletesVectoredWriteOnce(t *testing.T) { testFailAllCompletesOnce(t, OpWrite) }

// TestTCPFailAllCompletesVectoredReadOnce is the same for a 64-frame read.
func TestTCPFailAllCompletesVectoredReadOnce(t *testing.T) { testFailAllCompletesOnce(t, OpRead) }

func testFailAllCompletesOnce(t *testing.T, kind OpKind) {
	dial := func() *tcpConn {
		v, err := DialTCP(startHungServer(t), DialOpts{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		return v.(*tcpConn)
	}
	dead, healthy := dial(), dial()
	const frames = 64
	inFlight := func(c *tcpConn) bool {
		dl := time.Now().Add(5 * time.Second)
		for time.Now().Before(dl) {
			c.mu.Lock()
			n := len(c.pending)
			c.mu.Unlock()
			if n == frames {
				return true
			}
			time.Sleep(100 * time.Microsecond)
		}
		return false
	}

	more := make([]Seg, frames-1)
	for i := range more {
		more[i] = Seg{Offset: uint64(8 * (i + 1)), Data: []byte{byte(i)}}
	}
	var dones atomic.Int32
	op := &Op{Kind: kind, Region: 1, Data: []byte{0xff}, More: more}
	op.Done = func(op *Op) {
		if dones.Add(1) == 1 {
			healthy.Submit(op)
			if !inFlight(healthy) {
				t.Error("resubmitted op never reached the healthy connection's pending map")
			}
		}
	}
	dead.Submit(op)
	if !inFlight(dead) {
		t.Fatal("vectored op never reached the pending map")
	}

	// Fail the connection from here rather than through Close, so failAll has
	// returned by the time the count is read (the socket stays open and the
	// reader asleep; the cleanup closes it).
	dead.mu.Lock()
	dead.err = ErrClosed
	dead.mu.Unlock()
	dead.failAll(ErrClosed)
	if n := dones.Load(); n != 1 {
		t.Fatalf("Done ran %d times for one failed connection, want 1", n)
	}
	if n := dead.inflight.Current(); n != 0 {
		t.Fatalf("dead connection's in-flight gauge = %d, want 0", n)
	}
	if n := healthy.inflight.Current(); n != 1 {
		t.Fatalf("healthy connection's in-flight gauge = %d, want 1", n)
	}
}
