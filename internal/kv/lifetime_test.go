package kv

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/wal"
)

// logHold is a pipelined connection that holds back the completion of every
// write carrying a segment in [lo, hi) of the replicated region — the write
// lands, its acknowledgement waits — until open is closed.
type logHold struct {
	rdma.Verbs
	lo, hi uint64
	open   <-chan struct{}
	held   *atomic.Int64
}

func (c logHold) Submit(op *rdma.Op) {
	in := func(off uint64) bool { return off >= c.lo && off < c.hi }
	hold := op.Kind == rdma.OpWrite && op.Region == memnode.ReplRegionID && in(op.Offset)
	for _, s := range op.More {
		hold = hold || (op.Kind == rdma.OpWrite && op.Region == memnode.ReplRegionID && in(s.Offset))
	}
	if hold {
		c.held.Add(1)
		done := op.Done
		op.Done = func(o *rdma.Op) {
			go func() {
				<-c.open
				done(o)
			}()
		}
	}
	c.Verbs.(rdma.Submitter).Submit(op)
}

// TestPooledCommitLivesUntilLastCompletion pins the commit path's pooled
// objects against a node that acknowledges late. One node's completions of
// every log write are held while 1,024 puts commit on the other two, so the
// puts recycle their tasks and fan-outs long before the held node is done
// with their slot buffers. Until it is, no slot buffer may be released;
// afterwards each must be released exactly once, and every log slot on
// every node must decode to the entry that was acknowledged for it.
func TestPooledCommitLivesUntilLastCompletion(t *testing.T) {
	const writers, perWriter = 8, 128
	const puts = writers * perWriter
	cfg := testCfg()
	cfg.WALSlots = 2 * puts // no lap: every acknowledged entry stays in its slot
	e := newKVEnv(t, cfg, false)
	// The held completions arrive late by design; they must not make the
	// held node a straggler and move later writes to best effort.
	e.mcfg.StragglerMinLatency = time.Hour
	layout := e.mcfg.Layout()
	open := make(chan struct{})
	var heldOps atomic.Int64
	e.setWrap(func(node string, v rdma.Verbs) rdma.Verbs {
		if node != "m2" {
			return v
		}
		return logHold{Verbs: v, lo: layout.DirectBase(), hi: layout.DirectBase() + uint64(e.mcfg.DirectSize), open: open, held: &heldOps}
	})
	s := newStore(t, e, "c", cfg)
	// Slot buffers that are never reused, each counting its releases.
	var mu sync.Mutex
	var taken []*atomic.Int32
	s.slotPool = &sync.Pool{New: func() any {
		n := new(atomic.Int32)
		mu.Lock()
		taken = append(taken, n)
		mu.Unlock()
		return &slotBuf{b: make([]byte, s.kvGeo.SlotSize), release: func() { n.Add(1) }}
	}}

	key := func(p int) string { return fmt.Sprintf("k%02d", p%61) }
	value := func(p int) string { return fmt.Sprintf("v%05d", p) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				p := w*perWriter + j
				if err := s.Put([]byte(key(p)), []byte(value(p))); err != nil {
					t.Errorf("put %d: %v", p, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if heldOps.Load() == 0 {
		t.Fatal("no log write to m2 was held; the test exercised nothing")
	}
	mu.Lock()
	if len(taken) != puts {
		t.Fatalf("%d slot buffers taken for %d puts", len(taken), puts)
	}
	for i, n := range taken {
		if got := n.Load(); got != 0 {
			t.Fatalf("slot buffer %d released %d times before its last node completed", i, got)
		}
	}
	mu.Unlock()

	close(open)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		done := 0
		for _, n := range taken {
			if n.Load() > 0 {
				done++
			}
		}
		if done == puts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after m2 completed, %d of %d slot buffers released", done, puts)
		}
	}
	for i, n := range taken {
		if got := n.Load(); got != 1 {
			t.Fatalf("slot buffer %d released %d times, want exactly once", i, got)
		}
	}

	seen := make(map[string]bool, puts)
	var first []byte
	for node, name := range e.names {
		img := e.nw.Node(name).Region(memnode.ReplRegionID).Snapshot()[layout.DirectBase():]
		if node == 0 {
			first = img[:s.kvGeo.TotalSize()]
		} else if !bytes.Equal(img[:s.kvGeo.TotalSize()], first) {
			t.Fatalf("%s's log differs from %s's", name, e.names[0])
		}
	}
	for idx := uint64(1); idx <= puts; idx++ {
		off := s.kvGeo.SlotOffset(idx)
		entry, err := wal.Decode(first[off : off+uint64(s.kvGeo.SlotSize)])
		if err != nil || entry.Index != idx {
			t.Fatalf("slot of index %d: %+v, %v", idx, entry, err)
		}
		recs, err := recordsOf(entry)
		if err != nil || len(recs) != 1 {
			t.Fatalf("index %d: records %v, %v", idx, recs, err)
		}
		var p int
		if _, err := fmt.Sscanf(string(recs[0].value), "v%05d", &p); err != nil || recs[0].op != opPut ||
			string(recs[0].key) != key(p) || seen[value(p)] {
			t.Fatalf("index %d holds %q=%q, which is no acknowledged put's entry, or one seen twice", idx, recs[0].key, recs[0].value)
		}
		seen[value(p)] = true
	}
}
