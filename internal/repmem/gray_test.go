package repmem

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/repro/sift/internal/rdma"
)

func TestQuorumGroupReportsRealAckCount(t *testing.T) {
	injected := errors.New("boom")
	g := newQuorumGroup(3, 3, nil)
	g.ack(nil)
	g.ack(injected)
	g.ack(injected)
	err := g.wait()
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("got %v, want ErrNoQuorum", err)
	}
	if !strings.Contains(err.Error(), "1 of 3 acks") {
		t.Fatalf("error %q should report the real ack count (1 of 3)", err)
	}
}

func TestQuorumGroupBornDecidedStillCountsLateAcks(t *testing.T) {
	g := newQuorumGroup(1, 2, nil)
	g.ack(nil)
	err := g.wait()
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("got %v, want ErrNoQuorum", err)
	}
	if !strings.Contains(err.Error(), "1 of 1 acks") {
		t.Fatalf("error %q should reflect the ack that did arrive", err)
	}
}

func TestRedialerBackoffBounds(t *testing.T) {
	const min, max = 10 * time.Millisecond, 80 * time.Millisecond
	r := newRedialer("m0", nil, min, max, 7)
	for failures := 1; failures <= 8; failures++ {
		r.failures = failures
		base := min << (failures - 1)
		if base > max {
			base = max
		}
		for i := 0; i < 50; i++ {
			b := r.backoffLocked()
			if b < base/2 || b >= base+base/2 {
				t.Fatalf("failures=%d: backoff %v outside [%v, %v)", failures, b, base/2, base+base/2)
			}
		}
	}
}

func TestRedialerCircuitOpensAfterFailure(t *testing.T) {
	dialErr := errors.New("refused")
	calls := 0
	r := newRedialer("m0", func(string) (rdma.Verbs, error) {
		calls++
		return nil, dialErr
	}, 50*time.Millisecond, time.Second, 1)

	if _, err := r.dialNow(); !errors.Is(err, dialErr) {
		t.Fatalf("first dial: got %v, want dial error", err)
	}
	// The circuit is now open: the next attempt is refused without dialing.
	if _, err := r.dialNow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second dial: got %v, want ErrCircuitOpen", err)
	}
	if calls != 1 {
		t.Fatalf("dialer called %d times, want 1 (circuit should fail fast)", calls)
	}
}

func TestRedialerRecoversAfterBackoff(t *testing.T) {
	e := newEnv(t, 1, Config{MemSize: 1024, DirectSize: 0, WALSlots: 4, WALSlotSize: 128}.Layout())
	fail := true
	inner := e.dialer("c0")
	r := newRedialer("m0", func(node string) (rdma.Verbs, error) {
		if fail {
			return nil, errors.New("down")
		}
		return inner(node)
	}, time.Millisecond, 4*time.Millisecond, 1)

	if _, err := r.dialNow(); err == nil {
		t.Fatal("dial to down node should fail")
	}
	fail = false
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := r.dialNow()
		if err == nil {
			v.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("redial never succeeded: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if f, open := r.snapshot(); f != 0 || open != 0 {
		t.Fatalf("snapshot after success: failures=%d open=%v, want zeroes", f, open)
	}
}

func TestWriteTargetsPartitionsSuspects(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))

	m.state[1].Store(nodeSuspect)
	wait, best := m.writeTargets(m.Majority())
	if len(wait) != 2 || len(best) != 1 || best[0] != 1 {
		t.Fatalf("wait=%v best=%v, want wait={0,2} best={1}", wait, best)
	}

	// Degraded mode: with two suspects a true majority is impossible from
	// the healthy subset alone, so suspects are promoted back into the wait
	// set — a quorum ack must never mean a majority of the healthy few.
	m.state[2].Store(nodeSuspect)
	wait, best = m.writeTargets(m.Majority())
	if len(wait) != 3 || len(best) != 0 {
		t.Fatalf("degraded: wait=%v best=%v, want all three waited on", wait, best)
	}
}

func TestNoteNodeErrorSuspicionThenDeath(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}.Layout())
	cfg := baseConfig(e, "c0")
	cfg.SuspectAfter = 2
	cfg.DeadAfter = 4
	m := newMemory(t, cfg)

	m.noteNodeError(0, rdma.ErrDeadline)
	if s := m.state[0].Load(); s != nodeLive {
		t.Fatalf("after 1 timeout: state %d, want live", s)
	}
	m.noteNodeError(0, rdma.ErrDeadline)
	if s := m.state[0].Load(); s != nodeSuspect {
		t.Fatalf("after 2 timeouts: state %d, want suspect", s)
	}
	m.noteNodeError(0, rdma.ErrDeadline)
	m.noteNodeError(0, rdma.ErrDeadline)
	if s := m.state[0].Load(); s != nodeDead {
		t.Fatalf("after 4 timeouts: state %d, want dead", s)
	}
	st := m.Stats()
	if st.NodeTimeouts != 4 || st.NodeSuspected != 1 {
		t.Fatalf("stats timeouts=%d suspected=%d, want 4 and 1", st.NodeTimeouts, st.NodeSuspected)
	}

	// A success on another node clears its streak.
	m.noteNodeError(1, rdma.ErrDeadline)
	m.noteOpResult(1, nil, time.Millisecond, nil)
	if n := m.health[1].consecTimeouts.Load(); n != 0 {
		t.Fatalf("streak after success = %d, want 0", n)
	}

	// Non-deadline errors kill immediately.
	m.noteNodeError(2, errors.New("connection reset"))
	if s := m.state[2].Load(); s != nodeDead {
		t.Fatalf("after transport error: state %d, want dead", s)
	}
}

// TestWriteCommitsWithSuspectNode is the repmem-level acceptance shape:
// with one node suspected gray, quorum writes commit without waiting on it,
// the suspect still receives data best-effort, and RecoverNodeNow repairs
// it back to live.
func TestWriteCommitsWithSuspectNode(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))

	m.state[1].Store(nodeSuspect)
	want := []byte("gray-failure payload")
	if err := m.Write(100, want); err != nil {
		t.Fatalf("write with suspect node: %v", err)
	}
	got := make([]byte, len(want))
	if err := m.Read(100, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %q err %v", got, err)
	}
	if names := m.SuspectMemoryNodes(); len(names) != 1 || names[0] != "m1" {
		t.Fatalf("SuspectMemoryNodes = %v, want [m1]", names)
	}
	h := m.Health()
	if len(h) != 3 || h[1].State != "suspect" {
		t.Fatalf("health = %+v, want m1 suspect", h)
	}

	if err := m.RecoverNodeNow("m1"); err != nil {
		t.Fatalf("recover suspect: %v", err)
	}
	if s := m.state[1].Load(); s != nodeLive {
		t.Fatalf("after recovery: state %d, want live", s)
	}
	if err := m.Read(100, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after recovery %q err %v", got, err)
	}
}

// TestDirectWriteCommitsWithSuspectNode covers the direct (unlogged) path.
func TestDirectWriteCommitsWithSuspectNode(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))

	m.state[2].Store(nodeSuspect)
	want := []byte("direct under gray")
	if err := m.DirectWrite(64, want); err != nil {
		t.Fatalf("direct write with suspect: %v", err)
	}
	got := make([]byte, len(want))
	if err := m.DirectRead(64, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("direct read back %q err %v", got, err)
	}
}

// TestStragglerCheckKeepsWriteQuorum: one pass that finds two of three live
// nodes above the straggler bar (a scheduling hiccup inflates EWMAs together)
// degrades only the slower one — degrading both would leave one live node,
// no write quorum, and every put waiting out its retry budget.
func TestStragglerCheckKeepsWriteQuorum(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}
	e := newEnv(t, 3, cfg0.Layout())
	m := newMemory(t, baseConfig(e, "c"))
	for i, us := range []float64{50, 40_000, 90_000} { // bar: 16 × 50 µs, floor 2 ms
		m.health[i].ewma.Reset()
		for n := 0; n < stragglerMinSamples; n++ {
			m.health[i].ewma.Observe(us)
		}
	}
	m.checkStragglers()
	m.checkStragglers() // a second pass finds nothing more it may exclude
	if got := m.DegradedMemoryNodes(); len(got) != 1 || got[0] != "m2" {
		t.Fatalf("degraded %v, want only the slowest node m2", got)
	}
	if got := len(m.LiveMemoryNodes()); got < m.Majority() {
		t.Fatalf("%d live nodes left, below the majority %d", got, m.Majority())
	}
	if err := m.DirectWrite(0, []byte("still writable")); err != nil {
		t.Fatalf("write after the straggler pass: %v", err)
	}
}
