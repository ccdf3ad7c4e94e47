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
	"testing/quick"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/wal"
)

// testEnv is an in-process group: n memory nodes plus a dialer factory.
type testEnv struct {
	nw    *rdma.Network
	names []string
}

func newEnv(t *testing.T, n int, layout memnode.Layout) *testEnv {
	t.Helper()
	nw := rdma.NewNetwork(nil)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("m%d", i)
		node, err := memnode.New(names[i], layout)
		if err != nil {
			t.Fatal(err)
		}
		nw.AddNode(node)
	}
	return &testEnv{nw: nw, names: names}
}

func (e *testEnv) dialer(cpu string) Dialer {
	return func(node string) (rdma.Verbs, error) {
		return e.nw.Dial(cpu, node, rdma.DialOpts{Exclusive: []rdma.RegionID{memnode.ReplRegionID}})
	}
}

func baseConfig(e *testEnv, cpu string) Config {
	return Config{
		MemoryNodes: e.names,
		Dial:        e.dialer(cpu),
		MemSize:     64 << 10,
		DirectSize:  16 << 10,
	}
}

func newMemory(t *testing.T, cfg Config) *Memory {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestConfigValidate(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 1024, DirectSize: 0}.Layout())
	good := baseConfig(e, "c")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { // 33 nodes: exceeds the uint32 membership bitmap
			c.MemoryNodes = nil
			for i := 0; i < 33; i++ {
				c.MemoryNodes = append(c.MemoryNodes, fmt.Sprintf("n%d", i))
			}
		},
		func(c *Config) { c.MemoryNodes = nil },
		func(c *Config) { c.Dial = nil },
		func(c *Config) { c.MemSize = 0 },
		func(c *Config) { c.DirectSize = -1 },
		func(c *Config) { c.IntegrityBlockSize = -1 },                          // checksumming has no off switch
		func(c *Config) { c.ECData = 2 },                                       // parity missing
		func(c *Config) { c.ECData = 2; c.ECParity = 2 },                       // sum != nodes
		func(c *Config) { c.ECData = 2; c.ECParity = 1; c.ECBlockSize = 3 },    // not divisible by k
		func(c *Config) { c.ECData = 2; c.ECParity = 1; c.ECBlockSize = 4096 }, // doesn't divide MemSize? 64k%4096==0 -> use odd
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if i == len(cases)-1 {
			c.MemSize = 1000 // not a multiple of 4096
		}
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	m := newMemory(t, baseConfig(e, "c"))

	data := []byte("replicated memory payload")
	if err := m.Write(1000, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := m.Read(1000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %q, want %q", buf, data)
	}
	if st := m.Stats(); st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteReplicatedToAllNodes(t *testing.T) {
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)

	if err := m.Write(128, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	layout := cfg.Layout()
	for _, name := range e.names {
		node := e.nw.Node(name)
		snap := node.Region(memnode.ReplRegionID).Snapshot()
		got := snap[layout.MainBase()+128 : layout.MainBase()+132]
		if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
			t.Fatalf("node %s materialized %v", name, got)
		}
	}
}

func TestWriteBatchAtomicEntry(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.DirectSize = 0
	m := newMemory(t, cfg)

	batch := []wal.Write{
		{Addr: 0, Data: []byte("aaa")},
		{Addr: 100, Data: []byte("bbb")},
		{Addr: 200, Data: []byte("ccc")},
	}
	if err := m.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, w := range batch {
		buf := make([]byte, len(w.Data))
		if err := m.Read(w.Addr, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w.Data) {
			t.Fatalf("addr %d: read %q", w.Addr, buf)
		}
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	cfg0 := Config{MemSize: 4 << 10, DirectSize: 1 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 4 << 10
	cfg.DirectSize = 1 << 10
	m := newMemory(t, cfg)

	if err := m.Write(uint64(cfg.MemSize), []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("main write OOB: %v", err)
	}
	if err := m.Read(uint64(cfg.MemSize)-1, make([]byte, 2)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("main read OOB: %v", err)
	}
	if err := m.DirectWrite(uint64(cfg.DirectSize), []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("direct write OOB: %v", err)
	}
	if err := m.DirectRead(uint64(cfg.DirectSize)-1, make([]byte, 2)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("direct read OOB: %v", err)
	}
}

func TestDirectWriteRead(t *testing.T) {
	cfg0 := Config{MemSize: 4 << 10, DirectSize: 8 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 4 << 10
	cfg.DirectSize = 8 << 10
	m := newMemory(t, cfg)

	data := []byte("direct, unlogged")
	if err := m.DirectWrite(4096, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := m.DirectRead(4096, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %q", buf)
	}
	copies, err := m.DirectReadAll(Span{Addr: 4096, Size: len(data)})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, c := range copies {
		if c != nil {
			found++
			if !bytes.Equal(c, data) {
				t.Fatalf("copy %q", c)
			}
		}
	}
	if found != 3 {
		t.Fatalf("found %d copies", found)
	}
}

func TestWriteToleratesMinorityFailure(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 5, cfg0.Layout())
	m := newMemory(t, baseConfig(e, "c"))

	e.nw.Fabric().Kill(e.names[0])
	e.nw.Fabric().Kill(e.names[1])
	if err := m.Write(0, []byte("still working")); err != nil {
		t.Fatalf("write with Fm=2 failures: %v", err)
	}
	buf := make([]byte, 13)
	if err := m.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "still working" {
		t.Fatalf("read %q", buf)
	}
	if len(m.DeadMemoryNodes()) != 2 {
		t.Fatalf("dead = %v", m.DeadMemoryNodes())
	}
}

func TestWriteFailsWithoutQuorum(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	m := newMemory(t, baseConfig(e, "c"))
	e.nw.Fabric().Kill(e.names[0])
	e.nw.Fabric().Kill(e.names[1])
	if err := m.Write(0, []byte("doomed")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestReadFailsOverToAnotherNode(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	m := newMemory(t, baseConfig(e, "c"))
	if err := m.Write(10, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	e.nw.Fabric().Kill(e.names[0])
	e.nw.Fabric().Kill(e.names[1])
	// One node left: reads must still succeed (no read quorum needed).
	buf := make([]byte, 3)
	var lastErr error
	ok := false
	for i := 0; i < 4; i++ { // RR may hit dead nodes first; failover marks them dead
		if lastErr = m.Read(10, buf); lastErr == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("read after failover: %v", lastErr)
	}
	if string(buf) != "xyz" {
		t.Fatalf("read %q", buf)
	}
}

func TestConcurrentWritersDisjointRanges(t *testing.T) {
	cfg0 := Config{MemSize: 256 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 256 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)

	const workers = 8
	const writesPerWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, 512)
			base := uint64(w) * 32 << 10
			for i := 0; i < writesPerWorker; i++ {
				off := base + uint64(i%4)*1024
				if err := m.Write(off, payload); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		buf := make([]byte, 512)
		if err := m.Read(uint64(w)*32<<10, buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != byte(w+1) {
				t.Fatalf("worker %d range corrupted: %d", w, b)
			}
		}
	}
}

func TestOverlappingWritesSerialized(t *testing.T) {
	// Concurrent writes to the same address: the final state must equal one
	// of the writes in full (no interleaving), and reads during the storm
	// must always see a complete payload.
	cfg0 := Config{MemSize: 16 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 16 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, 256)
			for i := 0; i < 30; i++ {
				if err := m.Write(0, payload); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]byte, 256)
		for i := 0; i < 100; i++ {
			if err := m.Read(0, buf); err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			first := buf[0]
			if first == 0 {
				continue // before any apply
			}
			for _, b := range buf {
				if b != first {
					t.Errorf("torn read: %d vs %d", first, b)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-readerDone
}

func TestRepeatedWritesLastWriterWins(t *testing.T) {
	// Many more writes than addresses: each address reads back the last value
	// written to it.
	cfg0 := Config{MemSize: 16 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 16 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)

	for i := 0; i < 100; i++ {
		if err := m.Write(uint64(i%16)*64, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for a := 0; a < 16; a++ {
		buf := make([]byte, 2)
		if err := m.Read(uint64(a)*64, buf); err != nil {
			t.Fatal(err)
		}
		if want := byte(a + (99-a)/16*16); buf[0] != want || buf[1] != 0 {
			t.Fatalf("address %d read %v, want [%d 0]", a*64, buf, want)
		}
	}
}

func TestCoordinatorFailoverRecoversCommittedWrites(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())

	m1 := newMemory(t, baseConfig(e, "cpu1"))
	want := map[uint64][]byte{}
	for i := uint64(0); i < 20; i++ {
		data := []byte(fmt.Sprintf("value-%d", i))
		if err := m1.Write(i*100, data); err != nil {
			t.Fatal(err)
		}
		want[i*100] = data
	}
	// Coordinator "dies" without applying cleanup; new coordinator takes
	// over (its exclusive dial fences m1).
	m2 := newMemory(t, baseConfig(e, "cpu2"))
	for addr, data := range want {
		buf := make([]byte, len(data))
		if err := m2.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("addr %d: read %q, want %q", addr, buf, data)
		}
	}
	// The fenced coordinator must refuse further work.
	err := m1.Write(0, []byte("stale"))
	if !errors.Is(err, ErrFenced) && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("old coordinator write: %v", err)
	}
}

// TestClosedMemoryDialsNoMore: a closed memory must not dial again. A
// best-effort membership publication runs on its own goroutine and can pass
// its open check just before Close; its dial would open an exclusive
// connection that fences the successor's, and that nobody closes.
func TestClosedMemoryDialsNoMore(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10}.Layout())
	cfg := baseConfig(e, "cpu1")
	var dials atomic.Int32
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		dials.Add(1)
		return e.dialer("cpu1")(node)
	}
	m := newMemory(t, cfg)
	m.Close()
	before := dials.Load()
	if _, err := m.conn(m.grp.Load().members[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("conn on a closed memory: %v, want ErrClosed", err)
	}
	if n := dials.Load() - before; n != 0 {
		t.Fatalf("a closed memory dialed %d times", n)
	}
}

func TestFailoverMidLogUncommittedTailDiscardedOrKept(t *testing.T) {
	// Every acknowledged write survives a coordinator handover. The main
	// space has no log, so there is no uncommitted tail to keep or discard:
	// a write acknowledges only once materialized, and the successor reads
	// the materialized memory directly.
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.DirectSize = 0
	m1 := newMemory(t, cfg)

	for i := uint64(0); i < 10; i++ {
		if err := m1.Write(i*64, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	m1.Close()

	cfg2 := baseConfig(e, "cpu2")
	cfg2.DirectSize = 0
	m2 := newMemory(t, cfg2)
	for i := uint64(0); i < 10; i++ {
		buf := make([]byte, 1)
		if err := m2.Read(i*64, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("entry %d lost: read %d", i, buf[0])
		}
	}
}

func TestMemoryNodeRecoveryRestoresData(t *testing.T) {
	cfg0 := Config{MemSize: 32 << 10, DirectSize: 8 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 32 << 10
	cfg.DirectSize = 8 << 10
	m := newMemory(t, cfg)

	for i := uint64(0); i < 10; i++ {
		if err := m.Write(i*512, bytes.Repeat([]byte{byte(i + 1)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DirectWrite(100, []byte("direct data")); err != nil {
		t.Fatal(err)
	}

	// Kill node 0, wipe its memory (volatile DRAM), do more writes, restart.
	victim := e.names[0]
	e.nw.Fabric().Kill(victim)
	if err := m.Write(0, []byte("post-failure write")); err != nil {
		t.Fatal(err) // triggers failure detection
	}
	memnode.Reset(e.nw.Node(victim), cfg.Layout())
	// A write returns only after every waited-on node's completion, the
	// victim's failed one included, and a completion is accounted before it
	// is delivered: detection is then a fact, not a race with the victim's
	// worker.
	if len(m.DeadMemoryNodes()) != 1 {
		t.Fatalf("dead = %v", m.DeadMemoryNodes())
	}
	for i := uint64(10); i < 20; i++ {
		if err := m.Write(i*512, bytes.Repeat([]byte{byte(i + 1)}, 128)); err != nil {
			t.Fatal(err)
		}
	}

	e.nw.Fabric().Restart(victim)
	if err := m.RecoverNodeNow(victim); err != nil {
		t.Fatalf("RecoverNodeNow: %v", err)
	}
	if got := len(m.LiveMemoryNodes()); got != 3 {
		t.Fatalf("live = %d", got)
	}

	// The recovered node must now hold a full copy: kill the other two and
	// read everything back from the recovered one.
	e.nw.Fabric().Kill(e.names[1])
	e.nw.Fabric().Kill(e.names[2])
	for i := uint64(1); i < 20; i++ { // block 0 was overwritten post-failure
		buf := make([]byte, 128)
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if err = m.Read(i*512, buf); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("read %d from recovered node: %v", i, err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("block %d: read %d", i, buf[0])
		}
	}
	post := make([]byte, len("post-failure write"))
	var perr error
	for attempt := 0; attempt < 3; attempt++ {
		if perr = m.Read(0, post); perr == nil {
			break
		}
	}
	if perr != nil || string(post) != "post-failure write" {
		t.Fatalf("post-failure write on recovered node: %q err=%v", post, perr)
	}
	buf := make([]byte, 11)
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = m.DirectRead(100, buf); err == nil {
			break
		}
	}
	if err != nil || string(buf) != "direct data" {
		t.Fatalf("direct read: %q err=%v", buf, err)
	}
}

func TestQuickMainSpaceMatchesModel(t *testing.T) {
	// Random writes and reads against a model byte array.
	cfg0 := Config{MemSize: 8 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 8 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)
	model := make([]byte, cfg.MemSize)

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 20; op++ {
			addr := uint64(rng.Intn(cfg.MemSize - 256))
			size := 1 + rng.Intn(255)
			if rng.Intn(2) == 0 {
				data := make([]byte, size)
				rng.Read(data)
				if err := m.Write(addr, data); err != nil {
					return false
				}
				copy(model[addr:], data)
			} else {
				buf := make([]byte, size)
				if err := m.Read(addr, buf); err != nil {
					return false
				}
				if !bytes.Equal(buf, model[addr:addr+uint64(size)]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// at returns member i of m's current group.
func (m *Memory) at(i int) *member { return m.grp.Load().members[i] }

// setState places member i of the current group in state s with no side
// effect, to stage a test.
func (m *Memory) setState(i int, s int32) { m.at(i).state.Store(s) }

// replaceNode reconfigures m to its current configuration with member old
// swapped for the machine new: a replacement.
func replaceNode(m *Memory, old, new string) error {
	rec := m.ConfigRecord()
	rec.Members[slices.Index(rec.Members, old)] = new
	return m.Reconfigure(Target{Members: rec.Members, ECData: rec.ECData, ECParity: rec.ECParity})
}
