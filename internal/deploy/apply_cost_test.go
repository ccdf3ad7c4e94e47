package deploy

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
)

// nodeCounts is what crossed one node's connection to its replicated region.
type nodeCounts struct {
	reads    atomic.Int64
	writes   atomic.Int64 // write submissions: a vectored write is one
	segments atomic.Int64 // (offset, payload) pairs those writes carried
}

// countingConn counts the one-sided operations on the replicated region that
// cross one connection.
type countingConn struct {
	rdma.Submitter
	n *nodeCounts
}

func (c countingConn) count(kind rdma.OpKind, region rdma.RegionID, segments int) {
	if region != memnode.ReplRegionID {
		return
	}
	switch kind {
	case rdma.OpRead:
		c.n.reads.Add(1)
	case rdma.OpWrite:
		c.n.writes.Add(1)
		c.n.segments.Add(int64(segments))
	}
}

func (c countingConn) Read(region rdma.RegionID, offset uint64, buf []byte) error {
	c.count(rdma.OpRead, region, 0)
	return c.Submitter.Read(region, offset, buf)
}

func (c countingConn) Write(region rdma.RegionID, offset uint64, data []byte) error {
	c.count(rdma.OpWrite, region, 1)
	return c.Submitter.Write(region, offset, data)
}

func (c countingConn) Submit(op *rdma.Op) {
	c.count(op.Kind, op.Region, 1+len(op.More))
	c.Submitter.Submit(op)
}

// TestInPlacePutCostsOneReadAndOneApplyFlightPerNode builds the stack the
// way a deployment does — sizes and alignment from Derive, nothing set by
// hand — and counts what one put to an existing key costs. Per node: three
// segments written (the log slot; the block and its checksum entry) in at
// most two submissions (the block and its entry always share one; a node
// whose worker is behind takes the log slot along too), and at most one read
// (the chain walk's block: one node in plain mode, each data node under
// erasure coding). A data block that is not placed on the memory's write
// alignment shows up here at once as extra reads (edge blocks read back).
func TestInPlacePutCostsOneReadAndOneApplyFlightPerNode(t *testing.T) {
	for _, ec := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "ec"}[ec], func(t *testing.T) {
			kcfg, mcfg, err := Params{F: 1, EC: ec, Keys: 256}.Derive()
			if err != nil {
				t.Fatal(err)
			}
			nw := rdma.NewNetwork(nil)
			counts := make([]nodeCounts, 3)
			index := map[string]int{}
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("m%d", i)
				node, err := memnode.New(name, mcfg.Layout())
				if err != nil {
					t.Fatal(err)
				}
				nw.AddNode(node)
				mcfg.MemoryNodes = append(mcfg.MemoryNodes, name)
				index[name] = i
			}
			mcfg.Dial = func(node string) (rdma.Verbs, error) {
				v, err := nw.Dial("cpu", node, rdma.DialOpts{Exclusive: []rdma.RegionID{memnode.ReplRegionID}})
				if err != nil {
					return nil, err
				}
				return countingConn{Submitter: v.(rdma.Submitter), n: &counts[index[node]]}, nil
			}
			mem, err := repmem.New(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()
			if err := mem.Recover(); err != nil {
				t.Fatal(err)
			}
			st, err := kv.New(mem, kcfg)
			if err != nil {
				t.Fatalf("kv.New over the derived memory: %v", err)
			}
			defer st.Close()

			applied := func() {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
					if s := st.Stats(); s.Applies >= s.Puts {
						return
					}
					if time.Now().After(deadline) {
						t.Fatal("apply never finished")
					}
				}
			}
			key, val := []byte("the-key"), make([]byte, kcfg.MaxValue)
			if err := st.Put(key, val); err != nil {
				t.Fatal(err)
			}
			applied()
			var r0, w0, s0 [3]int64
			for i := range counts {
				r0[i], w0[i], s0[i] = counts[i].reads.Load(), counts[i].writes.Load(), counts[i].segments.Load()
			}

			val[0] = 1
			if err := st.Put(key, val); err != nil {
				t.Fatal(err)
			}
			applied()
			totalReads, wantReads := int64(0), int64(1)
			if ec {
				wantReads = int64(mcfg.ECData)
			}
			for i := range counts {
				r, w, s := counts[i].reads.Load()-r0[i], counts[i].writes.Load()-w0[i], counts[i].segments.Load()-s0[i]
				if w < 1 || w > 2 {
					t.Errorf("node %d: %d write submissions for an in-place put, want 2 (log slot + one apply flight) or those two in 1", i, w)
				}
				if s != 3 {
					t.Errorf("node %d: %d segments written for an in-place put, want 3 (log slot, block, checksum entry)", i, s)
				}
				if r > 1 {
					t.Errorf("node %d: %d reads for an in-place put, want at most 1", i, r)
				}
				totalReads += r
			}
			if totalReads != wantReads {
				t.Errorf("%d remote reads for an in-place put, want %d", totalReads, wantReads)
			}
		})
	}
}

// TestDeriveSizesMemoryForTheStoresAlignment keeps deploy and kv agreeing:
// the memory Derive sizes is what the store needs at the alignment the
// memory will report to it (rounded up to a whole EC block under erasure
// coding), and with integrity on the data blocks start on a block boundary.
func TestDeriveSizesMemoryForTheStoresAlignment(t *testing.T) {
	for _, p := range []Params{{}, {EC: true}, {NoIntegrity: true}, {Keys: 1000, MaxValue: 100}} {
		kcfg, mcfg, err := p.Derive()
		if err != nil {
			t.Fatal(err)
		}
		align := mcfg.WriteAlign()
		if need := kcfg.RequiredMemSize(align); mcfg.MemSize < need || mcfg.MemSize >= need+align {
			t.Errorf("%+v: MemSize %d, store needs %d at alignment %d", p, mcfg.MemSize, need, align)
		}
		if base := kcfg.BlocksBase(align); base%uint64(align) != 0 {
			t.Errorf("%+v: data blocks start at %d, off the %d-byte write alignment", p, base, align)
		}
	}
}
