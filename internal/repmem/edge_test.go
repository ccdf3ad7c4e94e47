package repmem

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/faultrdma"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/wal"
)

func TestWriteBatchEmptyIsNoop(t *testing.T) {
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)
	if err := m.WriteBatch(nil); err != nil {
		t.Fatal(err)
	}
	if n := m.Stats().Enqueued; n != 0 {
		t.Fatalf("empty batch sent %d node requests", n)
	}
}

func TestUnloggedWriteRoundTrip(t *testing.T) {
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)

	// UnloggedWrite is Write under the name older callers use.
	data := []byte("unlogged but replicated")
	if err := m.UnloggedWrite(100, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := m.Read(100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %q", buf)
	}
	if err := m.UnloggedWrite(uint64(cfg.MemSize), []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("OOB unlogged write: %v", err)
	}
}

func TestUnloggedWriteLosesQuorum(t *testing.T) {
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)
	e.nw.Fabric().Kill(e.names[0])
	e.nw.Fabric().Kill(e.names[1])
	if err := m.UnloggedWrite(0, []byte{1}); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestOnFencedCallbackFires(t *testing.T) {
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 1 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 1 << 10
	var fencedFlag atomic.Bool
	cfg.OnFenced = func() { fencedFlag.Store(true) }
	m1 := newMemory(t, cfg)
	if err := m1.Write(0, []byte("pre")); err != nil {
		t.Fatal(err)
	}

	// A new coordinator takes over the exclusive regions.
	cfg2 := baseConfig(e, "cpu2")
	cfg2.MemSize = 8 << 10
	cfg2.DirectSize = 1 << 10
	m2 := newMemory(t, cfg2)
	_ = m2

	// m1's next operation discovers the fencing and fires the callback.
	err := m1.Write(0, []byte("stale"))
	if err == nil {
		t.Fatal("fenced write succeeded")
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && !fencedFlag.Load() {
		time.Sleep(time.Millisecond)
	}
	if !fencedFlag.Load() {
		t.Fatal("OnFenced never fired")
	}
	// All subsequent ops fail fast with ErrFenced.
	if err := m1.DirectWrite(0, []byte{1}); !errors.Is(err, ErrFenced) {
		t.Fatalf("direct write after fencing: %v", err)
	}
	if err := m1.Read(0, make([]byte, 1)); !errors.Is(err, ErrFenced) {
		t.Fatalf("read after fencing: %v", err)
	}
}

func TestRecoverTwiceRejected(t *testing.T) {
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg) // newMemory already calls Recover
	if err := m.Recover(); err == nil {
		t.Fatal("second Recover accepted")
	}
}

// TestRecoverDropsUnreadableNodes: a takeover marks dead every node whose
// checksum strip it cannot read, whatever the error, and refuses to serve
// when fewer than a majority can be read. The nodes refuse only once New has
// accepted them, so the strip read is what finds them out. A timed-out read
// alone would only start a node's timeout streak; the takeover rule is
// stricter.
func TestRecoverDropsUnreadableNodes(t *testing.T) {
	for _, tc := range []struct {
		refusing int
		timeout  bool // reads fail with rdma.ErrDeadline instead of an injected drop
	}{{1, false}, {2, false}, {1, true}} {
		t.Run(fmt.Sprintf("%d_of_3_refusing_timeout_%v", tc.refusing, tc.timeout), func(t *testing.T) {
			cfg0 := Config{MemSize: 16 << 10, DirectSize: 4 << 10}
			e := newEnv(t, 3, cfg0.Layout())
			prev := baseConfig(e, "cpu1")
			prev.MemSize, prev.DirectSize = cfg0.MemSize, cfg0.DirectSize
			m1 := newMemory(t, prev)
			if err := m1.Write(100, []byte("kept")); err != nil {
				t.Fatal(err)
			}
			m1.Close()

			faults := faultrdma.NewController(1, 0)
			var timingOut atomic.Bool
			cfg := baseConfig(e, "cpu2")
			cfg.MemSize, cfg.DirectSize = cfg0.MemSize, cfg0.DirectSize
			dial := faults.WrapDialer(cfg.Dial)
			cfg.Dial = func(node string) (rdma.Verbs, error) {
				c, err := dial(node)
				if err != nil || node != e.names[0] {
					return c, err
				}
				return deadlineConn{Verbs: c, on: &timingOut}, nil
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			if tc.timeout {
				timingOut.Store(true)
			} else {
				for _, name := range e.names[:tc.refusing] {
					faults.Node(name).SetDrop(1)
				}
			}
			err = m.Recover()
			if tc.refusing == 2 {
				if !errors.Is(err, ErrNoQuorum) {
					t.Fatalf("Recover with 1 of 3 strips readable: %v, want ErrNoQuorum", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Recover with 2 of 3 strips readable: %v", err)
			}
			if dead := m.DeadMemoryNodes(); len(dead) != 1 || dead[0] != e.names[0] {
				t.Fatalf("dead after Recover = %v, want [%s]", dead, e.names[0])
			}
			buf := make([]byte, 4)
			if err := m.Read(100, buf); err != nil || string(buf) != "kept" {
				t.Fatalf("read after Recover: %q, %v", buf, err)
			}
		})
	}
}

// deadlineConn fails every replicated-region read with rdma.ErrDeadline, at
// once, while on is set.
type deadlineConn struct {
	rdma.Verbs
	on *atomic.Bool
}

func (c deadlineConn) Read(region rdma.RegionID, offset uint64, buf []byte) error {
	if region == replRegion && c.on.Load() {
		return rdma.ErrDeadline
	}
	return c.Verbs.Read(region, offset, buf)
}

func TestNewWithoutQuorumFails(t *testing.T) {
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	e.nw.Fabric().Kill(e.names[0])
	e.nw.Fabric().Kill(e.names[1])
	cfg := baseConfig(e, "c")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 0
	if _, err := New(cfg); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestRecoverNodeNowUnknownNode(t *testing.T) {
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)
	if err := m.RecoverNodeNow("ghost"); err == nil {
		t.Fatal("unknown node accepted")
	}
	// Recovering a live node is a no-op.
	if err := m.RecoverNodeNow(e.names[0]); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundRecoveryManagerDetectsAndRepairs(t *testing.T) {
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 1 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 1 << 10
	m := newMemory(t, cfg)
	stop := m.StartRecovery(5 * time.Millisecond)
	defer stop()

	if err := m.Write(64, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Kill a node with NO triggering operation: the prober must notice.
	victim := e.names[1]
	e.nw.Fabric().Kill(victim)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && m.Stats().NodeFailures == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if m.Stats().NodeFailures == 0 {
		t.Fatal("failure never detected by prober")
	}
	memnode.Reset(e.nw.Node(victim), cfg.Layout())
	e.nw.Fabric().Restart(victim)
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && m.Stats().NodeRecovered == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if m.Stats().NodeRecovered == 0 {
		t.Fatal("node never recovered by manager")
	}
}

func TestDirectWriteOnlySurvivingCopyRecovered(t *testing.T) {
	// A direct write acked by a majority must be visible after failover even
	// if one acking node subsequently dies: DirectReadAll exposes surviving
	// copies for quorum-merge (the KV log's recovery path).
	cfg0 := Config{MemSize: 4 << 10, DirectSize: 4 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.MemSize = 4 << 10
	cfg.DirectSize = 4 << 10
	m1 := newMemory(t, cfg)

	entry := wal.Entry{Index: 1, Writes: []wal.Write{{Addr: 7, Data: []byte("kv-record")}}}
	slot := make([]byte, 256)
	entry.Encode(slot)
	if err := m1.DirectWrite(0, slot); err != nil {
		t.Fatal(err)
	}
	// One acking node dies.
	e.nw.Fabric().Kill(e.names[0])

	cfg2 := baseConfig(e, "cpu2")
	cfg2.MemSize = 4 << 10
	cfg2.DirectSize = 4 << 10
	m2 := newMemory(t, cfg2)
	copies, err := m2.DirectReadAll(0, 256)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	geo := wal.Geometry{Base: 0, SlotSize: 256, Slots: 1}
	for _, cp := range copies {
		if cp == nil {
			continue
		}
		if entries := geo.ScanWindow(cp); len(entries) == 1 && entries[0].Index == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("acked direct write not recoverable from surviving copies")
	}
}

func TestReadEmptyBuffer(t *testing.T) {
	cfg0 := Config{MemSize: 4 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 4 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)
	if err := m.Read(0, nil); err != nil {
		t.Fatalf("zero-length read: %v", err)
	}
}

// Interface conformance: an rdma.Verbs is what Dial must produce.
var _ rdma.Verbs = (*rdmaVerbsCheck)(nil)

type rdmaVerbsCheck struct{ rdma.Verbs }
