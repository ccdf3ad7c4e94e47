package repmem

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// TestPooledQuorumLivesUntilLastCompletion pins the pooled fan-out's
// lifetime. One node's completions of every direct write are held while
// 1,024 direct writes to distinct ranges commit on the other two, so every
// quorum group the writers recycle is decided long before its last
// completion arrives. Until the held node completes, no write's range lock
// and no write's buffer may be released; afterwards each must be released
// exactly once, and every node must hold every write's bytes. A group
// recycled at its decision instead would hand its stragglers to a later
// write's fan-out: locks and buffers released early, twice or never.
func TestPooledQuorumLivesUntilLastCompletion(t *testing.T) {
	const writers, perWriter, size = 8, 128, 64
	const writes = writers * perWriter
	cfg0 := Config{MemSize: 64 << 10, DirectSize: writes * size}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.DirectSize = cfg0.DirectSize
	// The held completions arrive late by design; they must not make the
	// held node a straggler and move later writes to best effort.
	cfg.StragglerMinLatency = time.Hour
	gates := &completionGates{gates: make(map[uint64]*completionGate)}
	dial := cfg.Dial
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		c, err := dial(node)
		if err != nil || node != "m2" {
			return c, err
		}
		return gatedConn{Verbs: c, g: gates}, nil
	}
	m := newMemory(t, cfg)
	g := m.grp.Load()
	held := &completionGate{open: make(chan struct{}), submitted: make(chan struct{})}
	gates.mu.Lock()
	for w := 0; w < writes; w++ {
		gates.gates[g.physDirect(uint64(w*size))] = held
	}
	gates.mu.Unlock()

	payload := func(w int) []byte {
		b := bytes.Repeat([]byte{byte(w)}, size)
		binary.LittleEndian.PutUint32(b, uint32(w))
		return b
	}
	var releases [writes]atomic.Int32
	var wg sync.WaitGroup
	for k := 0; k < writers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				w := k*perWriter + j
				if err := m.DirectWriteOwned(uint64(w*size), payload(w), func() { releases[w].Add(1) }); err != nil {
					t.Errorf("write %d: %v", w, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	mustGet(t, held.submitted, "a write's submission to m2")
	for w := range releases {
		if n := releases[w].Load(); n != 0 {
			t.Fatalf("write %d's buffer released %d times before its last node completed", w, n)
		}
	}
	m.directLocks.mu.Lock()
	locked := len(m.directLocks.held)
	m.directLocks.mu.Unlock()
	if locked != writes {
		t.Fatalf("%d range locks held while m2 holds every completion, want %d", locked, writes)
	}

	close(held.open)
	for deadline := time.Now().Add(lockTestLimit); ; time.Sleep(time.Millisecond) {
		m.directLocks.mu.Lock()
		locked = len(m.directLocks.held)
		m.directLocks.mu.Unlock()
		done := 0
		for w := range releases {
			if releases[w].Load() > 0 {
				done++
			}
		}
		if locked == 0 && done == writes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after m2 completed: %d range locks still held, %d of %d buffers released", locked, done, writes)
		}
	}
	mustBeIdle(t, &m.directLocks)
	for w := range releases {
		if n := releases[w].Load(); n != 1 {
			t.Fatalf("write %d's buffer released %d times, want exactly once", w, n)
		}
	}
	for _, name := range e.names {
		img := e.nw.Node(name).Region(memnode.ReplRegionID).Snapshot()
		for w := 0; w < writes; w++ {
			off := g.physDirect(uint64(w * size))
			if got := img[off : off+size]; !bytes.Equal(got, payload(w)) {
				t.Fatalf("%s holds %x at write %d's range, want its payload", name, got[:8], w)
			}
		}
	}
}
