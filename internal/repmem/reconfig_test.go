package repmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

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

	if err := m.ReplaceNode("m1", "m3"); err != nil {
		t.Fatalf("ReplaceNode: %v", err)
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

	if err := m.ReplaceNode("m1", "m3"); err != nil {
		t.Fatalf("ReplaceNode(dead): %v", err)
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
	if err := m.ReplaceNode("m0", "m3"); err != nil {
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

	// Grow 3 → 5 under traffic.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := m.Write(uint64(8192+(i%32)*128), []byte{byte(i)}); err != nil {
				if errors.Is(err, ErrReconfigured) {
					return // expected at the cutover instant
				}
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	grown := append(append([]string(nil), e.names...), "m3", "m4")
	res, err := m.Restripe(RestripeTarget{Members: grown})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("grow restripe: %v", err)
	}
	if res.Record.Epoch != 2 || len(res.Record.Members) != 5 {
		t.Fatalf("grow record = %+v", res.Record)
	}
	// The old handle is dead.
	if err := m.Write(0, []byte("x")); !errors.Is(err, ErrReconfigured) {
		t.Fatalf("write on restriped handle = %v, want ErrReconfigured", err)
	}

	// Rebuild over the committed record; data intact on the 5-node group.
	cfg2 := cfg
	cfg2.Dial = e.dialer("cpu1b")
	cfg2.MemoryNodes = res.Record.Members
	cfg2.Epoch = res.Record.Epoch
	m2 := newMemory(t, cfg2)
	got := make([]byte, len(want))
	if err := m2.Read(512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data lost growing 3→5")
	}
	db := make([]byte, 2)
	if err := m2.DirectRead(0, db); err != nil || string(db) != "dz" {
		t.Fatalf("direct zone after grow: %q err=%v", db, err)
	}
	if got := len(m2.LiveMemoryNodes()); got != 5 {
		t.Fatalf("live after grow = %d, want 5", got)
	}

	// Shrink 5 → 3, dropping one original and one joiner.
	shrunk := []string{"m0", "m2", "m3"}
	res2, err := m2.Restripe(RestripeTarget{Members: shrunk})
	if err != nil {
		t.Fatalf("shrink restripe: %v", err)
	}
	cfg3 := cfg
	cfg3.Dial = e.dialer("cpu1c")
	cfg3.MemoryNodes = res2.Record.Members
	cfg3.Epoch = res2.Record.Epoch
	m3 := newMemory(t, cfg3)
	got = make([]byte, len(want))
	if err := m3.Read(512, got); err != nil {
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

	res, err := m.Restripe(RestripeTarget{Members: []string{"f0", "f1", "f2"}, ECData: 2, ECParity: 1})
	if err != nil {
		t.Fatalf("EC restripe: %v", err)
	}

	cfg2 := ecConfig(e, "cpu2", 1)
	cfg2.Term = 1
	cfg2.MemoryNodes = res.Record.Members
	cfg2.Epoch = res.Record.Epoch
	m2 := newMemory(t, cfg2)
	got := make([]byte, len(want))
	if err := m2.Read(uint64(blockFor(1)), got); err != nil {
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
	m2.Write(0, []byte("detect"))
	awaitState(t, m2, "f1", "dead")
	got = make([]byte, len(want))
	if err := m2.Read(uint64(blockFor(1)), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded read wrong after EC restripe")
	}
}

func TestRestripeRejections(t *testing.T) {
	cfg0 := Config{MemSize: 16 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 16 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)

	// Plain → EC online is forbidden (block alignment would change under the
	// live kv layer).
	if _, err := m.Restripe(RestripeTarget{Members: e.names, ECData: 2, ECParity: 1}); err == nil {
		t.Fatal("plain→EC restripe accepted")
	}
	// Identical configuration is rejected.
	if _, err := m.Restripe(RestripeTarget{Members: e.names}); err == nil {
		t.Fatal("no-op restripe accepted")
	}
	// Group-size cap is enforced through Validate.
	big := make([]string, 33)
	for i := range big {
		big[i] = fmt.Sprintf("x%d", i)
	}
	if _, err := m.Restripe(RestripeTarget{Members: big}); err == nil {
		t.Fatal("33-node restripe accepted")
	}
	// The memory must still be serving after rejected restripes.
	if err := m.Write(0, []byte("still-alive")); err != nil {
		t.Fatal(err)
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
