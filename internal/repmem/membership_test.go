package repmem

import (
	"testing"
	"testing/quick"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

func TestMembershipPackUnpack(t *testing.T) {
	f := func(epoch uint32, term, version uint16, bitmap uint32) bool {
		e, tm, v, b, ok := memnode.UnpackMembership(memnode.PackMembership(epoch, term, version, bitmap))
		return ok && e == epoch && tm == term && v == version && b == bitmap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStaleNodeNotTrustedAfterFailover is the regression for the silent
// staleness hole: a memory node that is partitioned (DRAM intact!) while
// the group keeps committing, then returns right as the coordinator dies,
// must NOT be treated as current by the successor.
func TestStaleNodeNotTrustedAfterFailover(t *testing.T) {
	cfg0 := Config{MemSize: 32 << 10, DirectSize: 4 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.MemSize = 32 << 10
	cfg.DirectSize = 4 << 10
	cfg.Term = 1
	m1 := newMemory(t, cfg)

	// Commit a value, then partition node 0 (memory intact — no Reset).
	if err := m1.Write(100, []byte("old")); err != nil {
		t.Fatal(err)
	}
	e.nw.Fabric().Kill(e.names[0])

	// Overwrite the value and keep writing while node 0 is away.
	if err := m1.Write(100, []byte("new")); err != nil {
		t.Fatal(err) // also triggers failure detection for node 0
	}
	for i := 0; i < 20; i++ {
		if err := m1.Write(uint64(1024+i*64), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Node 0 returns with its STALE memory, and the coordinator dies.
	e.nw.Fabric().Restart(e.names[0])

	cfg2 := baseConfig(e, "cpu2")
	cfg2.MemSize = 32 << 10
	cfg2.DirectSize = 4 << 10
	cfg2.Term = 2
	m2 := newMemory(t, cfg2)

	// The successor must have demoted node 0 (absent from the published
	// membership) rather than serving its stale bytes.
	for _, dead := range m2.DeadMemoryNodes() {
		if dead == e.names[0] {
			goto demoted
		}
	}
	t.Fatalf("stale node %s trusted by successor (dead=%v)", e.names[0], m2.DeadMemoryNodes())
demoted:
	// Every read must see the new value, never "old" — repeat to cover all
	// read targets.
	for i := 0; i < 12; i++ {
		buf := make([]byte, 3)
		if err := m2.Read(100, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "new" {
			t.Fatalf("stale read: %q", buf)
		}
	}
	// And the stale node is rebuildable.
	if err := m2.RecoverNodeNow(e.names[0]); err != nil {
		t.Fatal(err)
	}
}

// TestRebootedNodeNotTrustedAfterFailover covers the DRAM-loss variant: a
// node restarts empty between coordinatorships; the successor must rebuild
// it instead of reading zeros.
func TestRebootedNodeNotTrustedAfterFailover(t *testing.T) {
	cfg0 := Config{MemSize: 16 << 10, DirectSize: 4 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.MemSize = 16 << 10
	cfg.DirectSize = 4 << 10
	cfg.Term = 1
	m1 := newMemory(t, cfg)
	if err := m1.Write(0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m1.Write(uint64(1024+i*64), []byte{byte(i)})
	}

	// Node 2 "reboots": memory wiped, but it was never marked failed by m1
	// (no op touched it after the wipe... simulate an instant wipe+return).
	memnode.Reset(e.nw.Node(e.names[2]), cfg.Layout())

	cfg2 := baseConfig(e, "cpu2")
	cfg2.MemSize = 16 << 10
	cfg2.DirectSize = 4 << 10
	cfg2.Term = 2
	m2 := newMemory(t, cfg2)

	found := false
	for _, dead := range m2.DeadMemoryNodes() {
		if dead == e.names[2] {
			found = true
		}
	}
	if !found {
		t.Fatalf("rebooted-empty node trusted by successor (dead=%v)", m2.DeadMemoryNodes())
	}
	for i := 0; i < 12; i++ {
		buf := make([]byte, 7)
		if err := m2.Read(0, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "durable" {
			t.Fatalf("read zeros from rebooted node: %q", buf)
		}
	}
}

// TestFreshGroupBootstraps ensures the populated/membership machinery does
// not break first-ever startup (no marker, no membership word anywhere).
func TestFreshGroupBootstraps(t *testing.T) {
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)
	if got := len(m.LiveMemoryNodes()); got != 3 {
		t.Fatalf("live after fresh bootstrap = %d", got)
	}
	if err := m.Write(0, []byte("first")); err != nil {
		t.Fatal(err)
	}
}

// TestMidRecoveryFailoverRebuildsTarget: the coordinator dies while copying
// a node back in; the successor must not read the half-copied node.
func TestMidRecoveryFailoverRebuildsTarget(t *testing.T) {
	cfg0 := Config{MemSize: 16 << 10, DirectSize: 4 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.MemSize = 16 << 10
	cfg.DirectSize = 4 << 10
	cfg.Term = 1
	m1 := newMemory(t, cfg)
	m1.Write(0, []byte("payload"))

	victim := e.names[1]
	e.nw.Fabric().Kill(victim)
	m1.Write(64, []byte("x")) // detect failure
	memnode.Reset(e.nw.Node(victim), cfg.Layout())
	e.nw.Fabric().Restart(victim)

	// Simulate "copy started but coordinator died": mark unpopulated (what
	// recoverNode does first) without completing the copy.
	conn, err := e.nw.Dial("cpu1b", victim, rdma.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := writePopulated(conn, memnode.MarkerEmpty); err != nil {
		t.Fatal(err)
	}

	cfg2 := baseConfig(e, "cpu2")
	cfg2.MemSize = 16 << 10
	cfg2.DirectSize = 4 << 10
	cfg2.Term = 2
	m2 := newMemory(t, cfg2)
	for _, dead := range m2.DeadMemoryNodes() {
		if dead == victim {
			return // correctly scheduled for rebuild
		}
	}
	t.Fatalf("half-copied node trusted (dead=%v)", m2.DeadMemoryNodes())
}
