package repmem

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// Steady-state EC hot-path benchmarks: whole-block writes (the
// key-value store's block apply path) and main-space reads, with allocs
// reported — the acceptance bar for this layer is 0 allocs/op once the
// pools are warm.

func benchECMemory(b *testing.B, fm int) (*Memory, int) {
	blockSize := (fm + 1) * 512
	cfg := Config{
		MemSize:     blockSize * 256,
		DirectSize:  8 << 10,
		ECData:      fm + 1,
		ECParity:    fm,
		ECBlockSize: blockSize,
	}
	nw := rdma.NewNetwork(nil)
	names := make([]string, 2*fm+1)
	layout := cfg.Layout()
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		node, err := memnode.New(names[i], layout)
		if err != nil {
			b.Fatal(err)
		}
		nw.AddNode(node)
	}
	cfg.MemoryNodes = names
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		return nw.Dial("c", node, rdma.DialOpts{Exclusive: []rdma.RegionID{memnode.ReplRegionID}})
	}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Recover(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
	return m, blockSize
}

// BenchmarkECApply measures whole-EC-block writes (encode + fan-out
// to every node + integrity strip update).
func BenchmarkECApply(b *testing.B) {
	for _, fm := range []int{1, 2} {
		b.Run(fmt.Sprintf("F%d", fm), func(b *testing.B) {
			m, blockSize := benchECMemory(b, fm)
			data := make([]byte, blockSize)
			rand.New(rand.NewSource(1)).Read(data)
			blocks := uint64(m.MemSize() / blockSize)
			b.SetBytes(int64(blockSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := (uint64(i) % blocks) * uint64(blockSize)
				if err := m.Write(addr, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkECRead measures steady-state verified reads: Block reconstructs a
// whole EC block from its data chunks; Chunk reads a range inside a single
// chunk through the owner fast path.
func BenchmarkECRead(b *testing.B) {
	for _, fm := range []int{1, 2} {
		for _, mode := range []string{"Block", "Chunk"} {
			b.Run(fmt.Sprintf("F%d/%s", fm, mode), func(b *testing.B) {
				m, blockSize := benchECMemory(b, fm)
				data := make([]byte, blockSize)
				rand.New(rand.NewSource(2)).Read(data)
				blocks := uint64(m.MemSize() / blockSize)
				for a := uint64(0); a < blocks; a++ {
					if err := m.Write(a*uint64(blockSize), data); err != nil {
						b.Fatal(err)
					}
				}
				size := blockSize
				if mode == "Chunk" {
					size = blockSize / (m.grp.Load().code.K() + 1) // strictly inside chunk 0
				}
				buf := make([]byte, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					addr := (uint64(i) % blocks) * uint64(blockSize)
					if err := m.Read(addr, buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
