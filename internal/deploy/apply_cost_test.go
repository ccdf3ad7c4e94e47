package deploy

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
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

// lane is one node's submission turnstile. Open, everything passes; shut, each
// write submission waits inside Submit — which keeps the node's worker there,
// so later requests queue behind it — until step lets exactly one through.
type lane struct {
	mu sync.Mutex
	ch chan struct{} // nil: open
}

func (l *lane) pass() {
	l.mu.Lock()
	ch := l.ch
	l.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

func (l *lane) shut() {
	l.mu.Lock()
	l.ch = make(chan struct{})
	l.mu.Unlock()
}

// step returns once a submission was waiting and has been let through, or
// once done reports that the node has nothing more to send.
func (l *lane) step(done func() bool) {
	for {
		select {
		case l.ch <- struct{}{}:
			return
		default:
		}
		if done() {
			return
		}
		runtime.Gosched()
	}
}

func (l *lane) open() {
	l.mu.Lock()
	close(l.ch)
	l.ch = nil
	l.mu.Unlock()
}

// countingConn counts the one-sided operations on the replicated region that
// cross one connection, and passes its write submissions through a lane.
type countingConn struct {
	rdma.Submitter
	n    *nodeCounts
	lane *lane
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
	if op.Kind == rdma.OpWrite && op.Region == memnode.ReplRegionID {
		c.lane.pass()
	}
	c.Submitter.Submit(op)
}

// oneShardKeys returns n keys whose buckets one applier owns, so that their
// applies form one queue.
func oneShardKeys(kcfg kv.Config, n int) [][]byte {
	var keys [][]byte
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		h := fnv.New64a()
		h.Write(k)
		if h.Sum64()%uint64(kcfg.Buckets())%uint64(kcfg.ApplyShards) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestPutApplyCostsNoReadAndQueuedPutsShareFlights builds the stack the way a
// deployment does — sizes and alignment from Derive, nothing set by hand —
// and counts what puts to existing keys cost. One put, per node: three
// segments written (the log slot; the block and its checksum entry) in at
// most two submissions, and no read at all — the coordinator knows where a
// key it has applied before lives. Eight puts that arrive while a node is
// busy, per node: one submission for their eight log slots and one for their
// eight blocks. A data block that is not placed on the memory's write
// alignment shows up here at once as reads (edge blocks read back).
func TestPutApplyCostsNoReadAndQueuedPutsShareFlights(t *testing.T) {
	for _, ec := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "ec"}[ec], func(t *testing.T) {
			kcfg, mcfg, err := Params{F: 1, EC: ec, Keys: 256}.Derive()
			if err != nil {
				t.Fatal(err)
			}
			nw := rdma.NewNetwork(nil)
			counts := make([]nodeCounts, 3)
			lanes := make([]lane, 3)
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
				return countingConn{Submitter: v.(rdma.Submitter), n: &counts[index[node]], lane: &lanes[index[node]]}, nil
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

			waitFor := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Fatal(what + ": never happened")
					}
				}
			}
			applied := func() {
				t.Helper()
				waitFor("apply", func() bool { s := st.Stats(); return s.Applies >= s.Puts })
			}
			var r0, w0, s0 [3]int64
			mark := func() {
				for i := range counts {
					r0[i], w0[i], s0[i] = counts[i].reads.Load(), counts[i].writes.Load(), counts[i].segments.Load()
				}
			}
			since := func(i int) (r, w, s int64) {
				return counts[i].reads.Load() - r0[i], counts[i].writes.Load() - w0[i], counts[i].segments.Load() - s0[i]
			}

			const queued = 8
			keys, val := oneShardKeys(kcfg, 1+queued), make([]byte, kcfg.MaxValue)
			for _, k := range keys {
				if err := st.Put(k, val); err != nil {
					t.Fatal(err)
				}
			}
			applied()

			// One put to an existing key.
			mark()
			val[0] = 1
			if err := st.Put(keys[0], val); err != nil {
				t.Fatal(err)
			}
			applied()
			for i := range counts {
				r, w, s := since(i)
				if w < 1 || w > 2 {
					t.Errorf("node %d: %d write submissions for an in-place put, want 2 (log slot + one apply flight) or those two in 1", i, w)
				}
				if s != 3 {
					t.Errorf("node %d: %d segments written for an in-place put, want 3 (log slot, block, checksum entry)", i, s)
				}
				if r != 0 {
					t.Errorf("node %d: %d reads for an in-place put, want 0", i, r)
				}
			}

			// Eight puts behind a busy node. The lanes let one submission
			// through at a time: the lone put's log slot, the eight slots that
			// queued behind it, the lone put's block, the eight blocks that
			// queued behind that.
			mark()
			for i := range lanes {
				lanes[i].shut()
			}
			var wg sync.WaitGroup
			put := func(k []byte) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := st.Put(k, val); err != nil {
						t.Errorf("put %s: %v", k, err)
					}
				}()
			}
			put(keys[0])
			waitFor("the lone put's log slot at every lane", func() bool {
				_, w0, _ := since(0)
				_, w1, _ := since(1)
				_, w2, _ := since(2)
				return w0 == 1 && w1 == 1 && w2 == 1
			})
			for _, k := range keys[1:] {
				put(k)
			}
			waitFor("eight log slots queued at every node", func() bool {
				cur, _ := mem.QueueDepth()
				return cur == 3*queued
			})
			// A node whose worker finds later requests already queued when it
			// collects sends fewer submissions: the lone put's block with the
			// eight log slots, or — descheduled until the other nodes'
			// acknowledgements committed all nine — every block with them. So
			// each round steps the three lanes at once (the applier submits a
			// node's remaining blocks only once the others let theirs through),
			// and a lane whose node has sent all its segments is not waited on.
			total := int64(3 * (1 + queued))
			for step := 0; step < 3; step++ {
				var stepped sync.WaitGroup
				for i := range lanes {
					stepped.Add(1)
					go func() {
						defer stepped.Done()
						lanes[i].step(func() bool { _, _, s := since(i); return s == total })
					}()
				}
				stepped.Wait()
				if step == 1 {
					wg.Wait() // all nine committed: the eight are queued at the applier
				}
			}
			for i := range lanes {
				lanes[i].open()
			}
			applied()
			for i := range counts {
				r, w, s := since(i)
				// Four, or fewer on a node whose worker found later requests
				// already queued (see the steps above).
				if w > 4 {
					t.Errorf("node %d: %d write submissions for a put and eight queued behind it, want at most 4 (two for the one, two for all eight)", i, w)
				}
				if s != total {
					t.Errorf("node %d: %d segments written, want %d", i, s, total)
				}
				if r != 0 {
					t.Errorf("node %d: %d reads for puts to existing keys, want 0", i, r)
				}
			}
		})
	}
}

// TestDeriveSizesMemoryForTheStoresAlignment keeps deploy and kv agreeing:
// the memory Derive sizes is what the store needs at the alignment the
// memory will report to it (rounded up to a whole EC block under erasure
// coding), and with integrity on the data blocks start on a block boundary.
func TestDeriveSizesMemoryForTheStoresAlignment(t *testing.T) {
	for _, p := range []Params{{}, {EC: true}, {Keys: 1000, MaxValue: 100}} {
		kcfg, mcfg, err := p.Derive()
		if err != nil {
			t.Fatal(err)
		}
		align := mcfg.WriteAlign()
		if mcfg.IntegrityBlockSize < 0 || align <= 1 {
			t.Errorf("%+v: derived a memory without checksum blocks (IntegrityBlockSize %d, alignment %d)", p, mcfg.IntegrityBlockSize, align)
		}
		if need := kcfg.RequiredMemSize(align); mcfg.MemSize < need || mcfg.MemSize >= need+align {
			t.Errorf("%+v: MemSize %d, store needs %d at alignment %d", p, mcfg.MemSize, need, align)
		}
		if base := kcfg.BlocksBase(align); base%uint64(align) != 0 {
			t.Errorf("%+v: data blocks start at %d, off the %d-byte write alignment", p, base, align)
		}
	}
}
