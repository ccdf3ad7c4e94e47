package repmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/repro/sift/internal/memnode"
)

// blockFor returns an EC block size divisible by k = fm+1; the matching
// MemSize below is a multiple of it.
func blockFor(fm int) int { return (fm + 1) * 512 }

// memFor returns a MemSize that blockFor(fm) divides.
func memFor(fm int) int { return (fm + 1) * 16384 }

// ecConfig builds an EC-enabled config for Fm failures (2Fm+1 nodes,
// k=Fm+1 data chunks, m=Fm parity chunks).
func ecConfig(e *testEnv, cpu string, fm int) Config {
	return Config{
		MemoryNodes: e.names,
		Dial:        e.dialer(cpu),
		MemSize:     memFor(fm),
		DirectSize:  8 << 10,
		ECData:      fm + 1,
		ECParity:    fm,
		ECBlockSize: blockFor(fm),
	}
}

func newECEnv(t *testing.T, fm int) (*testEnv, Config) {
	t.Helper()
	cfg := Config{
		MemSize: memFor(fm), DirectSize: 8 << 10,
		ECData: fm + 1, ECParity: fm, ECBlockSize: blockFor(fm),
	}
	e := newEnv(t, 2*fm+1, cfg.Layout())
	return e, ecConfig(e, "c", fm)
}

func TestECLayoutShrinksPerNodeMemory(t *testing.T) {
	for fm := 1; fm <= 3; fm++ {
		cfg := Config{
			MemSize: 1 << 20, DirectSize: 0,
			ECData: fm + 1, ECParity: fm, ECBlockSize: 4096,
		}
		l := cfg.Layout()
		if l.MainSize != (1<<20)/(fm+1) {
			t.Fatalf("Fm=%d: per-node main = %d, want %d", fm, l.MainSize, (1<<20)/(fm+1))
		}
	}
}

func TestECWriteReadRoundTrip(t *testing.T) {
	e, cfg := newECEnv(t, 1)
	_ = e
	m := newMemory(t, cfg)
	if !m.ErasureEnabled() {
		t.Fatal("EC should be enabled")
	}

	// Full-block aligned write.
	block := bytes.Repeat([]byte{0xAB}, 1024)
	if err := m.Write(2048, block); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if err := m.Read(2048, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, block) {
		t.Fatal("full-block round trip failed")
	}

	// Partial (sub-chunk) write: read-modify-write path.
	if err := m.Write(2100, []byte("partial")); err != nil {
		t.Fatal(err)
	}
	if err := m.Read(2048, buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), block...)
	copy(want[52:], "partial")
	if !bytes.Equal(buf, want) {
		t.Fatal("partial write merged incorrectly")
	}
}

func TestECCrossBlockWrite(t *testing.T) {
	_, cfg := newECEnv(t, 1)
	m := newMemory(t, cfg)
	data := make([]byte, 3000) // spans 4 EC blocks
	rand.New(rand.NewSource(5)).Read(data)
	if err := m.Write(500, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := m.Read(500, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("cross-block round trip failed")
	}
}

func TestECReadSurvivesFmFailures(t *testing.T) {
	for fm := 1; fm <= 2; fm++ {
		fm := fm
		t.Run(fmt.Sprintf("Fm=%d", fm), func(t *testing.T) {
			e, cfg := newECEnv(t, fm)
			m := newMemory(t, cfg)
			data := bytes.Repeat([]byte{0xCD}, 1024)
			if err := m.Write(0, data); err != nil {
				t.Fatal(err)
			}
			// Kill Fm nodes, including data-chunk owners (nodes 0..k-1 hold
			// data chunks, so killing node 0 forces decoding).
			for i := 0; i < fm; i++ {
				e.nw.Fabric().Kill(e.names[i])
			}
			buf := make([]byte, 1024)
			var err error
			for attempt := 0; attempt < 3; attempt++ {
				if err = m.Read(0, buf); err == nil {
					break
				}
			}
			if err != nil {
				t.Fatalf("read with %d failures: %v", fm, err)
			}
			if !bytes.Equal(buf, data) {
				t.Fatal("decoded data mismatch")
			}
			if m.Stats().DecodedReads == 0 {
				t.Fatal("expected decoding to have occurred")
			}
		})
	}
}

func TestECSubChunkReadSingleRemoteRead(t *testing.T) {
	_, cfg := newECEnv(t, 1)
	m := newMemory(t, cfg)
	data := bytes.Repeat([]byte{7}, 1024)
	if err := m.Write(0, data); err != nil {
		t.Fatal(err)
	}
	before := m.Stats().RemoteReads
	// Chunk size is 512 (block 1024 / k 2); a 100-byte read within chunk 0
	// should cost exactly one RDMA read.
	buf := make([]byte, 100)
	if err := m.Read(10, buf); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().RemoteReads - before; got != 1 {
		t.Fatalf("sub-chunk read issued %d remote reads, want 1", got)
	}
}

func TestECWritesCommitWithQuorum(t *testing.T) {
	// With Fm=1 (3 nodes), killing one node must not block writes: the two
	// surviving chunks still reconstruct every block.
	e, cfg := newECEnv(t, 1)
	m := newMemory(t, cfg)
	e.nw.Fabric().Kill(e.names[2]) // kill a parity holder
	data := bytes.Repeat([]byte{9}, 1024)
	if err := m.Write(1024, data); err != nil {
		t.Fatalf("EC write with one failure: %v", err)
	}
	buf := make([]byte, 1024)
	if err := m.Read(1024, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("mismatch")
	}
}

func TestECCoordinatorFailoverPreservesData(t *testing.T) {
	e, cfg := newECEnv(t, 1)
	m1 := newMemory(t, cfg)
	want := map[uint64][]byte{}
	rng := rand.New(rand.NewSource(11))
	for i := uint64(0); i < 16; i++ {
		data := make([]byte, 1024)
		rng.Read(data)
		if err := m1.Write(i*1024, data); err != nil {
			t.Fatal(err)
		}
		want[i*1024] = data
	}
	cfg2 := ecConfig(e, "cpu2", 1)
	m2 := newMemory(t, cfg2)
	for addr, data := range want {
		buf := make([]byte, len(data))
		if err := m2.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("addr %d mismatch after EC failover", addr)
		}
	}
}

func TestECNodeRecoveryRebuildsChunks(t *testing.T) {
	e, cfg := newECEnv(t, 1)
	m := newMemory(t, cfg)
	rng := rand.New(rand.NewSource(3))
	want := make([][]byte, 8)
	for i := range want {
		want[i] = make([]byte, 1024)
		rng.Read(want[i])
		if err := m.Write(uint64(i)*1024, want[i]); err != nil {
			t.Fatal(err)
		}
	}

	victim := e.names[0] // data-chunk owner
	e.nw.Fabric().Kill(victim)
	m.Write(0, want[0]) // trigger failure detection
	memnode.Reset(e.nw.Node(victim), cfg.Layout())
	e.nw.Fabric().Restart(victim)
	if err := m.RecoverNodeNow(victim); err != nil {
		t.Fatal(err)
	}

	// Kill the other data holder; reads of its chunks must decode from the
	// recovered node's chunk + parity.
	e.nw.Fabric().Kill(e.names[1])
	for i := range want {
		buf := make([]byte, 1024)
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if err = m.Read(uint64(i)*1024, buf); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(buf, want[i]) {
			t.Fatalf("block %d mismatch after chunk rebuild", i)
		}
	}
}

func TestECQuickMatchesModel(t *testing.T) {
	_, cfg := newECEnv(t, 1)
	m := newMemory(t, cfg)
	model := make([]byte, cfg.MemSize)
	rng := rand.New(rand.NewSource(21))
	for op := 0; op < 150; op++ {
		addr := uint64(rng.Intn(cfg.MemSize - 2048))
		size := 1 + rng.Intn(2000)
		if rng.Intn(2) == 0 {
			data := make([]byte, size)
			rng.Read(data)
			if err := m.Write(addr, data); err != nil {
				t.Fatal(err)
			}
			copy(model[addr:], data)
		} else {
			buf := make([]byte, size)
			if err := m.Read(addr, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, model[addr:addr+uint64(size)]) {
				t.Fatalf("op %d: mismatch at %d+%d", op, addr, size)
			}
		}
	}
}
