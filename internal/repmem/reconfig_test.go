package repmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// addMachine adds one more memory-node machine to a test env's network.
func addMachine(t *testing.T, e *testEnv, name string, layout memnode.Layout) {
	t.Helper()
	node, err := memnode.New(name, layout)
	if err != nil {
		t.Fatal(err)
	}
	e.nw.AddNode(node)
}

// readAdminWord reads one 8-byte admin word from a node via a throwaway
// observer connection.
func readAdminWord(t *testing.T, e *testEnv, node string, off uint64) uint64 {
	t.Helper()
	c, err := e.nw.Dial("probe-"+node, node, rdma.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf [8]byte
	if err := c.Read(memnode.AdminRegionID, off, buf[:]); err != nil {
		t.Fatal(err)
	}
	e2, _, _ := readEpochWord(c)
	_ = e2
	w := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
		uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56
	return w
}

func TestReplaceLiveNodeUnderTraffic(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	addMachine(t, e, "m3", cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.Term = 1
	m := newMemory(t, cfg)

	// Seed data in both spaces.
	want := make([]byte, 384)
	rand.New(rand.NewSource(7)).Read(want)
	if err := m.Write(100, want); err != nil {
		t.Fatal(err)
	}
	if err := m.DirectWrite(64, []byte("direct-payload")); err != nil {
		t.Fatal(err)
	}

	// Concurrent writer traffic across the replacement.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	var writerErr error
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for i := 0; !stop.Load(); i++ {
			val := []byte(fmt.Sprintf("traffic-%d", i))
			if err := m.Write(uint64(8192+rng.Intn(64)*128), val); err != nil {
				writerErr = err
				return
			}
		}
	}()

	if err := replaceNode(m, "m1", "m3"); err != nil {
		t.Fatalf("replace: %v", err)
	}
	stop.Store(true)
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer during replacement: %v", writerErr)
	}

	if got := m.Epoch(); got != 2 {
		t.Fatalf("epoch after replace = %d, want 2", got)
	}
	names := m.MemberNames()
	if names[1] != "m3" {
		t.Fatalf("slot 1 = %q, want m3", names[1])
	}

	// Data survives, and the replaced group passes a full verification.
	got := make([]byte, len(want))
	if err := m.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("main data mismatch after replacement")
	}
	db := make([]byte, 14)
	if err := m.DirectRead(64, db); err != nil {
		t.Fatal(err)
	}
	if string(db) != "direct-payload" {
		t.Fatalf("direct data mismatch after replacement: %q", db)
	}

	// The outgoing node is tombstoned with the epoch that removed it and
	// de-populated, so no successor can ever trust its frozen DRAM.
	if w := readAdminWord(t, e, "m1", memnode.AdminRetiredOffset); w != 2 {
		t.Fatalf("m1 retired word = %d, want 2", w)
	}
	if w := readAdminWord(t, e, "m1", memnode.AdminPopulatedOffset); w != memnode.MarkerEmpty {
		t.Fatalf("m1 populated marker = %d, want empty", w)
	}
}

func TestReplaceDeadNode(t *testing.T) {
	cfg0 := Config{MemSize: 32 << 10, DirectSize: 8 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	addMachine(t, e, "m3", cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.MemSize, cfg.DirectSize = cfg0.MemSize, cfg0.DirectSize
	cfg.Term = 1
	m := newMemory(t, cfg)

	if err := m.Write(0, []byte("survives-crash")); err != nil {
		t.Fatal(err)
	}

	// m1 dies for good: machine crashed, never coming back under that name.
	e.nw.Fabric().Kill("m1")
	m.Write(128, []byte("detect")) // trigger failure detection
	awaitState(t, m, "m1", "dead")

	if err := replaceNode(m, "m1", "m3"); err != nil {
		t.Fatalf("replace (dead): %v", err)
	}
	if got := m.Epoch(); got != 2 {
		t.Fatalf("epoch = %d, want 2", got)
	}

	// The replacement was rebuilt from surviving copies; all data readable,
	// including with one of the remaining originals masked out.
	buf := make([]byte, 14)
	if err := m.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "survives-crash" {
		t.Fatalf("data after dead replacement: %q", buf)
	}
	if got := len(m.LiveMemoryNodes()); got != 3 {
		t.Fatalf("live nodes = %d, want 3", got)
	}
}

// TestReplacedGroupRefusesStaleConfig: after a replacement, a coordinator
// built with the OLD member list (e.g. a backup that missed the change) must
// refuse to serve, and discovery through any node must yield the new config.
func TestReplacedGroupRefusesStaleConfig(t *testing.T) {
	cfg0 := Config{MemSize: 16 << 10, DirectSize: 4 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	addMachine(t, e, "m3", cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.MemSize, cfg.DirectSize = cfg0.MemSize, cfg0.DirectSize
	cfg.Term = 1
	m := newMemory(t, cfg)
	if err := m.Write(0, []byte("epoch1")); err != nil {
		t.Fatal(err)
	}
	if err := replaceNode(m, "m0", "m3"); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Successor with the stale member list (still naming m0) at epoch 1.
	stale := cfg
	stale.Dial = e.dialer("cpu2")
	stale.Term = 2
	if _, err := New(stale); !errors.Is(err, ErrStaleConfig) {
		t.Fatalf("stale-config successor error = %v, want ErrStaleConfig", err)
	}

	// Discovery over any retained node finds the committed descriptor; a
	// successor built from it serves the data.
	vcfg := cfg
	vcfg.Dial = func(node string) (rdma.Verbs, error) {
		return e.nw.Dial("probe", node, rdma.DialOpts{})
	}
	v, err := NewView(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := v.ReadConfig()
	v.Close()
	if !ok || rec.Epoch != 2 {
		t.Fatalf("discovered config = %+v ok=%v, want epoch 2", rec, ok)
	}
	succ := cfg
	succ.Dial = e.dialer("cpu3")
	succ.Term = 2
	succ.MemoryNodes = rec.Members
	succ.Epoch = rec.Epoch
	m2 := newMemory(t, succ)
	buf := make([]byte, 6)
	if err := m2.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "epoch1" {
		t.Fatalf("successor read %q", buf)
	}
}

func TestRestripePlainGrowAndShrink(t *testing.T) {
	cfg0 := Config{MemSize: 32 << 10, DirectSize: 8 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	for _, n := range []string{"m3", "m4"} {
		addMachine(t, e, n, cfg0.Layout())
	}
	cfg := baseConfig(e, "cpu1")
	cfg.MemSize, cfg.DirectSize = cfg0.MemSize, cfg0.DirectSize
	cfg.Term = 1
	m := newMemory(t, cfg)

	want := make([]byte, 384)
	rand.New(rand.NewSource(3)).Read(want)
	if err := m.Write(512, want); err != nil {
		t.Fatal(err)
	}
	if err := m.DirectWrite(0, []byte("dz")); err != nil {
		t.Fatal(err)
	}

	// Grow 3 → 5 under traffic: the writer carries on across the cutover,
	// on the same handle.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := m.Write(uint64(8192+(i%32)*128), []byte{byte(i)}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	grown := append(append([]string(nil), e.names...), "m3", "m4")
	err := m.Reconfigure(Target{Members: grown})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("grow: %v", err)
	}
	if rec := m.ConfigRecord(); rec.Epoch != 2 || !slices.Equal(rec.Members, grown) {
		t.Fatalf("grow record = %+v", rec)
	}
	got := make([]byte, len(want))
	if err := m.Read(512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data lost growing 3→5")
	}
	db := make([]byte, 2)
	if err := m.DirectRead(0, db); err != nil || string(db) != "dz" {
		t.Fatalf("direct zone after grow: %q err=%v", db, err)
	}
	if got := len(m.LiveMemoryNodes()); got != 5 {
		t.Fatalf("live after grow = %d, want 5", got)
	}

	// Shrink 5 → 3, dropping one original and one joiner.
	shrunk := []string{"m0", "m2", "m3"}
	if err := m.Reconfigure(Target{Members: shrunk}); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	got = make([]byte, len(want))
	if err := m.Read(512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data lost shrinking 5→3")
	}
	// Removed nodes are tombstoned.
	for _, name := range []string{"m1", "m4"} {
		if w := readAdminWord(t, e, name, memnode.AdminRetiredOffset); w != 3 {
			t.Fatalf("%s retired word = %d, want 3", name, w)
		}
	}
	// A successor built from the committed record serves the same data.
	cfg3 := cfg
	cfg3.Dial = e.dialer("cpu2")
	cfg3.Term = 2
	cfg3.MemoryNodes = m.MemberNames()
	cfg3.Epoch = m.Epoch()
	m.Close()
	m3 := newMemory(t, cfg3)
	got = make([]byte, len(want))
	if err := m3.Read(512, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("successor read after shrink: err=%v equal=%v", err, bytes.Equal(got, want))
	}
}

func TestRestripeECOntoFreshSet(t *testing.T) {
	e, cfg := newECEnv(t, 1) // 3 nodes, k=2 m=1
	for _, n := range []string{"f0", "f1", "f2"} {
		addMachine(t, e, n, cfg.Layout())
	}
	cfg.Term = 1
	m := newMemory(t, cfg)

	want := make([]byte, 3*blockFor(1))
	rand.New(rand.NewSource(5)).Read(want)
	if err := m.Write(uint64(blockFor(1)), want); err != nil {
		t.Fatal(err)
	}

	if err := m.Reconfigure(Target{Members: []string{"f0", "f1", "f2"}, ECData: 2, ECParity: 1}); err != nil {
		t.Fatalf("EC restripe: %v", err)
	}
	got := make([]byte, len(want))
	if err := m.Read(uint64(blockFor(1)), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data lost in EC restripe onto fresh set")
	}
	// Old nodes are all retired.
	for _, name := range e.names {
		if w := readAdminWord(t, e, name, memnode.AdminRetiredOffset); w != 2 {
			t.Fatalf("%s retired word = %d, want 2", name, w)
		}
	}
	// Reconstruction still works with a chunk lost on the NEW set.
	e.nw.Fabric().Kill("f1")
	m.Write(0, []byte("detect"))
	awaitState(t, m, "f1", "dead")
	got = make([]byte, len(want))
	if err := m.Read(uint64(blockFor(1)), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded read wrong after EC restripe")
	}
}

func TestRestripeRejections(t *testing.T) {
	// stillServing checks that m serves after rejected reconfigurations, at
	// the epoch it started in.
	stillServing := func(t *testing.T, m *Memory) {
		t.Helper()
		if err := m.Write(0, []byte("still-alive")); err != nil {
			t.Fatal(err)
		}
		if got := m.Epoch(); got != 1 {
			t.Fatalf("epoch after rejected reconfigurations = %d, want 1", got)
		}
	}

	t.Run("plain", func(t *testing.T) {
		cfg0 := Config{MemSize: 16 << 10, DirectSize: 0}
		e := newEnv(t, 3, cfg0.Layout())
		cfg := baseConfig(e, "c")
		cfg.MemSize = 16 << 10
		cfg.DirectSize = 0
		m := newMemory(t, cfg)

		// Plain → EC online is forbidden (block alignment would change
		// under the live kv layer).
		if err := m.Reconfigure(Target{Members: e.names, ECData: 2, ECParity: 1}); err == nil {
			t.Fatal("plain→EC reconfiguration accepted")
		}
		// Identical configuration is rejected.
		if err := m.Reconfigure(Target{Members: e.names}); err == nil {
			t.Fatal("no-op reconfiguration accepted")
		}
		// Group-size cap is enforced through Validate.
		big := make([]string, 33)
		for i := range big {
			big[i] = fmt.Sprintf("x%d", i)
		}
		if err := m.Reconfigure(Target{Members: big}); err == nil {
			t.Fatal("33-node reconfiguration accepted")
		}
		stillServing(t, m)
	})

	t.Run("ec", func(t *testing.T) {
		e, cfg := newECEnv(t, 1) // 3 nodes, k=2 m=1
		addMachine(t, e, "f0", cfg.Layout())
		m := newMemory(t, cfg)

		if err := m.Reconfigure(Target{Members: e.names}); err == nil {
			t.Fatal("EC→plain reconfiguration accepted")
		}
		if err := m.Reconfigure(Target{Members: e.names, ECData: 2, ECParity: 1}); err == nil {
			t.Fatal("no-op reconfiguration accepted")
		}
		// An erasure-coded member cannot move to another chunk index in
		// place.
		if err := m.Reconfigure(Target{Members: []string{"m1", "m0", "f0"}, ECData: 2, ECParity: 1}); err == nil {
			t.Fatal("EC reconfiguration moving a member's chunk index accepted")
		}
		stillServing(t, m)
	})
}

// TestReconfigureKeepsDeadRetainedMemberDead: a restripe that keeps a
// member which is dead but reachable — excluded after an op error, its DRAM
// intact but missing every write since — must not count it live in the new
// epoch. The same handle keeps it dead, and a successor built from the
// committed record rebuilds it instead of reading what it missed.
func TestReconfigureKeepsDeadRetainedMemberDead(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	addMachine(t, e, "m3", cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.Term = 1
	m := newMemory(t, cfg)

	main := func(v byte) []byte { return bytes.Repeat([]byte{v}, 4096) }
	if err := m.DirectWrite(0, []byte("old-direct")); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, main('o')); err != nil {
		t.Fatal(err)
	}
	m.nodeFailed(m.at(1), errors.New("injected op error"))
	if err := m.DirectWrite(0, []byte("new-direct")); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, main('n')); err != nil {
		t.Fatal(err)
	}
	if err := m.Reconfigure(Target{Members: []string{"m0", "m1", "m2", "m3"}}); err != nil {
		t.Fatal(err)
	}
	if dead := m.DeadMemoryNodes(); !slices.Equal(dead, []string{"m1"}) {
		t.Fatalf("dead after the restripe = %v, want [m1]", dead)
	}

	succ := cfg
	succ.Dial, succ.Term = e.dialer("cpu2"), 2
	succ.MemoryNodes, succ.Epoch = m.MemberNames(), m.Epoch()
	m.Close()
	m2 := newMemory(t, succ)
	if dead := m2.DeadMemoryNodes(); !slices.Equal(dead, []string{"m1"}) {
		t.Fatalf("successor's dead nodes = %v, want [m1]", dead)
	}
	check := func(who string) {
		t.Helper()
		buf := make([]byte, len("new-direct"))
		for i := 0; i < 16; i++ {
			if err := m2.DirectRead(0, buf); err != nil || string(buf) != "new-direct" {
				t.Fatalf("%s: direct read %d = %q, %v; want new-direct", who, i, buf, err)
			}
		}
		blk := make([]byte, 4096)
		for i := 0; i < 16; i++ {
			if err := m2.Read(0, blk); err != nil || !bytes.Equal(blk, main('n')) {
				t.Fatalf("%s: main read %d = %q…, %v; want the new block", who, i, blk[:4], err)
			}
		}
		if st := m2.Stats(); st.CorruptionsDetected != 0 || st.BlocksRepaired != 0 {
			t.Fatalf("%s: %d corruptions and %d repairs counted, want none", who, st.CorruptionsDetected, st.BlocksRepaired)
		}
	}
	check("successor")
	if err := m2.RecoverNodeNow("m1"); err != nil {
		t.Fatalf("rebuild m1: %v", err)
	}
	if live := m2.LiveMemoryNodes(); len(live) != 4 {
		t.Fatalf("live after m1's rebuild = %v, want all four", live)
	}
	check("after m1's rebuild")
}

// casRefusingConn fails every config-epoch CAS while refuse is set, and
// counts its Close calls in closes.
type casRefusingConn struct {
	rdma.Verbs
	refuse *atomic.Bool
	closes *atomic.Int32
}

func (c casRefusingConn) Close() error {
	c.closes.Add(1)
	return c.Verbs.Close()
}

func (c casRefusingConn) CompareAndSwap(region rdma.RegionID, off, expect, swap uint64) (uint64, error) {
	if c.refuse.Load() && region == memnode.AdminRegionID && off == memnode.AdminEpochOffset {
		return 0, errors.New("injected: epoch CAS refused")
	}
	return c.Verbs.CompareAndSwap(region, off, expect, swap)
}

// TestReconfigureAmbiguousCommitFences: an epoch advance that reaches some
// incoming nodes but not a majority of them — here the retained members
// refuse the CAS and only the joiner takes the new epoch — leaves the
// committed configuration ambiguous. Reconfigure fails, the memory fences
// itself (so its owner stands down) without swapping its group, and a
// successor over the old configuration serves what was written before.
func TestReconfigureAmbiguousCommitFences(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	addMachine(t, e, "m3", cfg0.Layout())
	var refuse atomic.Bool
	var opened, closes atomic.Int32
	cfg := baseConfig(e, "cpu1")
	cfg.Term = 1
	dial := cfg.Dial
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		c, err := dial(node)
		if err != nil || node == "m3" {
			return c, err
		}
		opened.Add(1)
		return casRefusingConn{Verbs: c, refuse: &refuse, closes: &closes}, nil
	}
	fenced := make(chan struct{})
	cfg.OnFenced = func() { close(fenced) }
	m := newMemory(t, cfg)
	if err := m.Write(0, []byte("acked-before")); err != nil {
		t.Fatal(err)
	}

	refuse.Store(true)
	if err := m.Reconfigure(Target{Members: []string{"m0", "m1", "m2", "m3"}}); err == nil {
		t.Fatal("Reconfigure succeeded with the epoch advance below a majority")
	}
	select {
	case <-fenced:
	case <-time.After(lockTestLimit):
		t.Fatal("OnFenced never fired after an ambiguous commit")
	}
	if err := m.Write(0, []byte("x")); !errors.Is(err, ErrFenced) {
		t.Fatalf("write after an ambiguous commit = %v, want ErrFenced", err)
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("group epoch after an ambiguous commit = %d, want 1 (no cutover)", got)
	}
	for n, want := range map[string]uint32{"m0": 1, "m1": 1, "m2": 1, "m3": 2} {
		if got := uint32(readAdminWord(t, e, n, memnode.AdminEpochOffset) >> 16); got != want {
			t.Fatalf("%s epoch word = %d, want %d", n, got, want)
		}
	}
	// The owner's Close still releases the fenced memory's group: its
	// workers exit and every member connection closes.
	g := m.grp.Load()
	m.Close()
	for i, w := range g.workers {
		if !w.closed {
			t.Fatalf("worker %d still running after Close of a fenced memory", i)
		}
	}
	if o, c := opened.Load(), closes.Load(); c != o {
		t.Fatalf("Close of a fenced memory closed %d of its %d connections", c, o)
	}

	succ := baseConfig(e, "cpu2")
	succ.Term = 2
	m2 := newMemory(t, succ)
	buf := make([]byte, len("acked-before"))
	if err := m2.Read(0, buf); err != nil || string(buf) != "acked-before" {
		t.Fatalf("successor read %q, %v; want acked-before", buf, err)
	}
}

// awaitState waits for a node to reach the named health state.
func awaitState(t *testing.T, m *Memory, node, state string) {
	t.Helper()
	for i := 0; i < 500; i++ {
		for _, h := range m.Health() {
			if h.Node == node && h.State == state {
				return
			}
		}
		m.Write(uint64(12<<10+256*(i%8)), []byte{1}) // keep the detector fed
	}
	t.Fatalf("node %s never reached state %s (health=%+v)", node, state, m.Health())
}
