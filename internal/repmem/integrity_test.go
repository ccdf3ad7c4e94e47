package repmem

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/repro/sift/internal/memnode"
)

// corruptByte flips one byte of a node's replicated region directly,
// modelling silent bit rot the transport cannot see.
func (e *testEnv) corruptByte(t *testing.T, node string, offset uint64) {
	t.Helper()
	r := e.nw.Node(node).Region(memnode.ReplRegionID)
	if err := r.Corrupt(offset, 0x5a); err != nil {
		t.Fatal(err)
	}
}

// replSnapshot returns node i's whole replicated region: direct zone, main
// memory and checksum strip.
func (e *testEnv) replSnapshot(i int) []byte {
	return e.nw.Node(e.names[i]).Region(memnode.ReplRegionID).Snapshot()
}

func TestPlainReadRepair(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	m := newMemory(t, baseConfig(e, "c"))
	layout := m.cfg.Layout()

	data := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(data)
	if err := m.Write(0, data); err != nil {
		t.Fatal(err)
	}

	// Flip a byte of block 0 on one replica.
	e.corruptByte(t, e.names[1], layout.MainBase()+100)

	// Every read must return correct bytes no matter which replica the
	// round-robin lands on; once it lands on the corrupt one, the block is
	// detected and repaired in place.
	buf := make([]byte, len(data))
	for i := 0; i < 2*len(e.names); i++ {
		if err := m.Read(0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("read %d returned corrupt data", i)
		}
	}
	st := m.Stats()
	if st.CorruptionsDetected == 0 || st.BlocksRepaired == 0 {
		t.Fatalf("corruptions=%d repaired=%d, want both > 0", st.CorruptionsDetected, st.BlocksRepaired)
	}
	// The bad replica was rewritten in place.
	for i := range e.names {
		if got := e.replSnapshot(i); !bytes.Equal(got, e.replSnapshot(0)) {
			t.Fatalf("node %d diverges after read-repair", i)
		}
	}
}

// TestECFastPathCorruptChunkReconstructs covers the readEC fast path: the
// single live chunk owner returns corrupt bytes and the read must still
// come back correct, via reconstruction from the remaining chunks.
func TestECFastPathCorruptChunkReconstructs(t *testing.T) {
	e, cfg := newECEnv(t, 1) // 3 nodes, k=2, chunk=512, block=1024
	m := newMemory(t, cfg)
	layout := m.cfg.Layout()

	B := uint64(m.cfg.ECBlockSize)
	data := make([]byte, B)
	rand.New(rand.NewSource(11)).Read(data)
	const block = 2
	if err := m.Write(block*B, data); err != nil {
		t.Fatal(err)
	}

	// Corrupt the stored chunk on node 0 — the owner of the first chunk of
	// every block, and therefore the fast-path target for this read.
	e.corruptByte(t, e.names[0], layout.MainBase()+block*uint64(m.grp.Load().chunk)+17)

	buf := make([]byte, 100)
	if err := m.Read(block*B, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[:100]) {
		t.Fatalf("fast-path read returned corrupt data")
	}
	st := m.Stats()
	if st.CorruptionsDetected == 0 {
		t.Fatal("corruption went undetected")
	}
	if st.BlocksRepaired == 0 {
		t.Fatal("corrupt chunk was not repaired")
	}
	// Read again: the repaired chunk must satisfy the fast path (one remote
	// read, correct bytes).
	before := m.Stats().RemoteReads
	if err := m.Read(block*B, buf); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().RemoteReads - before; got != 1 {
		t.Fatalf("post-repair fast path used %d remote reads, want 1", got)
	}
	if !bytes.Equal(buf, data[:100]) {
		t.Fatalf("post-repair read returned corrupt data")
	}
}

func TestScrubRepairsSilentCorruption(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	m := newMemory(t, baseConfig(e, "c"))
	layout := m.cfg.Layout()

	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 12<<10)
	rng.Read(data)
	if err := m.Write(0, data); err != nil {
		t.Fatal(err)
	}
	direct := make([]byte, 2048)
	rng.Read(direct)
	if err := m.DirectWrite(512, direct); err != nil {
		t.Fatal(err)
	}
	// DirectWrite returns on a majority. A read of the range queues behind
	// its range lock until the last node's copy has landed, so a straggling
	// write cannot heal the damage planted below before the scrubber looks.
	if err := m.DirectRead(512, make([]byte, len(direct))); err != nil {
		t.Fatal(err)
	}

	// Silent damage on one node: three main-memory blocks and one
	// direct-zone byte. No read touches them — only the scrubber can find
	// this. (Few enough observations to stay under suspectAfterCorrupt.)
	e.corruptByte(t, e.names[2], layout.MainBase()+10)
	e.corruptByte(t, e.names[2], layout.MainBase()+5000)
	e.corruptByte(t, e.names[2], layout.MainBase()+9000)
	e.corruptByte(t, e.names[2], layout.DirectBase()+600)

	rep, err := m.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt < 4 || rep.Repaired < 4 || rep.Unrepaired != 0 {
		t.Fatalf("scrub report %+v, want >=4 corrupt, >=4 repaired, 0 unrepaired", rep)
	}
	for i := 1; i < len(e.names); i++ {
		if !bytes.Equal(e.replSnapshot(i), e.replSnapshot(0)) {
			t.Fatalf("node %d diverges after scrub", i)
		}
	}
	// A second sweep over healed memory finds nothing.
	rep, err = m.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Repaired != 0 {
		t.Fatalf("second scrub found damage: %+v", rep)
	}
	st := m.Stats()
	if st.ScrubPasses < 2 || st.ScrubbedBlocks == 0 {
		t.Fatalf("scrub stats %+v", st)
	}
}

func TestBackgroundScrubHeals(t *testing.T) {
	cfg0 := Config{MemSize: 32 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = 32 << 10
	cfg.DirectSize = 0
	m := newMemory(t, cfg)
	layout := m.cfg.Layout()

	data := make([]byte, 8<<10)
	rand.New(rand.NewSource(5)).Read(data)
	if err := m.Write(0, data); err != nil {
		t.Fatal(err)
	}
	e.corruptByte(t, e.names[0], layout.MainBase()+4097)

	stop := m.StartScrub(time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.Stats().BlocksRepaired > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("background scrubber never repaired the corrupt block")
}

func TestCorruptionFeedsSuspicion(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 0}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.DirectSize = 0
	m := newMemory(t, cfg)
	layout := m.cfg.Layout()
	corrupt := func(from, to int) {
		for b := from; b < to; b++ {
			e.corruptByte(t, e.names[1], layout.MainBase()+uint64(b*4096)+1)
		}
		if _, err := m.ScrubOnce(); err != nil {
			t.Fatal(err)
		}
	}

	// One block short of the threshold, the node stays live; the count
	// survives the repairs, so the next corrupt block crosses it.
	corrupt(0, suspectAfterCorrupt-1)
	if suspects := m.SuspectMemoryNodes(); len(suspects) != 0 {
		t.Fatalf("suspects after %d corrupt blocks = %v, want none", suspectAfterCorrupt-1, suspects)
	}
	corrupt(suspectAfterCorrupt-1, suspectAfterCorrupt)
	suspects := m.SuspectMemoryNodes()
	if len(suspects) != 1 || suspects[0] != e.names[1] {
		t.Fatalf("suspects = %v, want [%s]", suspects, e.names[1])
	}
	var h NodeHealth
	for _, nh := range m.Health() {
		if nh.Node == e.names[1] {
			h = nh
		}
	}
	if h.Corruptions != suspectAfterCorrupt {
		t.Fatalf("health corruptions = %d, want %d", h.Corruptions, suspectAfterCorrupt)
	}
}
