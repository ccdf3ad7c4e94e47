package repmem

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/rdma"
)

// flightLog records the write submissions one connection sees — for each,
// the offsets it carries, in order — and can shut the lane: while shut,
// Submit blocks before handing the op on, which keeps the node's worker
// inside Submit and lets requests queue behind it.
type flightLog struct {
	mu      sync.Mutex
	subs    [][]uint64
	reads   int           // reads of the replicated region
	shut    chan struct{} // nil: open
	blocked int           // Submit calls waiting at the shut lane
}

func (l *flightLog) shutLane() (open func()) {
	gate := make(chan struct{})
	l.mu.Lock()
	l.shut = gate
	l.mu.Unlock()
	return func() {
		l.mu.Lock()
		l.shut = nil
		l.mu.Unlock()
		close(gate)
	}
}

func (l *flightLog) snapshot() (subs [][]uint64, blocked int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]uint64(nil), l.subs...), l.blocked
}

type loggedConn struct {
	rdma.Verbs
	log *flightLog
}

func (c loggedConn) Read(region rdma.RegionID, offset uint64, buf []byte) error {
	if region == replRegion {
		c.log.mu.Lock()
		c.log.reads++
		c.log.mu.Unlock()
	}
	return c.Verbs.Read(region, offset, buf)
}

func (c loggedConn) Submit(op *rdma.Op) {
	if op.Kind == rdma.OpWrite && op.Region == replRegion {
		offs := []uint64{op.Offset}
		for _, s := range op.More {
			offs = append(offs, s.Offset)
		}
		c.log.mu.Lock()
		c.log.subs = append(c.log.subs, offs)
		gate := c.log.shut
		if gate != nil {
			c.log.blocked++
		}
		c.log.mu.Unlock()
		if gate != nil {
			<-gate
		}
	}
	c.Verbs.(rdma.Submitter).Submit(op)
}

// loggedMemory builds a three-node memory from cfg (node names and dialer
// filled in here) whose connections all log their submissions.
func loggedMemory(t *testing.T, cfg Config) (*Memory, map[string]*flightLog) {
	t.Helper()
	e := newEnv(t, 3, cfg.Layout())
	cfg.MemoryNodes = e.names
	logs := map[string]*flightLog{}
	for _, n := range e.names {
		logs[n] = &flightLog{}
	}
	dial := e.dialer("c")
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		c, err := dial(node)
		if err != nil {
			return nil, err
		}
		return loggedConn{Verbs: c, log: logs[node]}, nil
	}
	return newMemory(t, cfg), logs
}

// eventually polls cond until it holds; a passing test never waits for the
// limit to run out.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(lockTestLimit); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened", what)
		}
	}
}

// TestQueuedCommitsShareOneFlightPerNode is group commit at the node queue:
// a writer alone is submitted at once, on its own; writers that arrive while
// the node's worker is busy are taken together, FIFO, into one submission
// per node, and each still gets its own completion.
func TestQueuedCommitsShareOneFlightPerNode(t *testing.T) {
	const slotSize, writers = 1088, 8
	m, logs := loggedMemory(t, Config{MemSize: 64 << 10, DirectSize: 16 << 10})

	var opens []func()
	for _, l := range logs {
		opens = append(opens, l.shutLane())
	}
	// wg counts each write twice: its return (a majority has it) and its
	// release (every node has resolved it, so every log is complete).
	var wg sync.WaitGroup
	write := func(slot int) {
		wg.Add(2)
		go func() {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(slot + 1)}, slotSize)
			if err := m.DirectWriteOwned(uint64(slot*slotSize), data, wg.Done); err != nil {
				t.Errorf("DirectWriteOwned(slot %d): %v", slot, err)
			}
		}()
	}

	// One writer, nothing else queued: each node's worker is inside Submit
	// with that request alone, having waited for nothing.
	write(0)
	for name, l := range logs {
		eventually(t, "lone writer's submission to "+name, func() bool {
			subs, blocked := l.snapshot()
			return blocked == 1 && len(subs) == 1
		})
	}
	// Eight more arrive while every worker is held in Submit.
	for s := 1; s <= writers; s++ {
		write(s)
	}
	eventually(t, "eight requests queued per node", func() bool {
		cur, _ := m.QueueDepth()
		return cur == int64(writers*len(logs))
	})
	for _, open := range opens {
		open()
	}
	wg.Wait()

	for name, l := range logs {
		subs, _ := l.snapshot()
		if len(subs) != 2 {
			t.Fatalf("%s saw %d submissions for %d writes, want 2: %v", name, len(subs), writers+1, subs)
		}
		if len(subs[0]) != 1 || subs[0][0] != m.grp.Load().physDirect(0) {
			t.Fatalf("%s: lone writer's submission carried %v", name, subs[0])
		}
		seen := map[uint64]bool{}
		for _, off := range subs[1] {
			seen[off] = true
		}
		for s := 1; s <= writers; s++ {
			if !seen[m.grp.Load().physDirect(uint64(s*slotSize))] {
				t.Fatalf("%s: slot %d missing from the shared flight %v", name, s, subs[1])
			}
		}
		if len(subs[1]) != writers {
			t.Fatalf("%s: shared flight carried %d segments, want %d", name, len(subs[1]), writers)
		}
	}
	got := make([]byte, slotSize)
	for s := 0; s <= writers; s++ {
		if err := m.DirectRead(uint64(s*slotSize), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(s + 1)}, slotSize)) {
			t.Fatalf("slot %d holds the wrong bytes after the shared flight", s)
		}
	}
}

// TestDrainPreservesPerNodeOrder enqueues more requests than one flight
// holds, from one goroutine, behind a busy worker: the node must see every
// segment exactly once, in enqueue order, a request's own segments adjacent,
// in flights of at most nodeFlightMax requests.
func TestDrainPreservesPerNodeOrder(t *testing.T) {
	m, logs := loggedMemory(t, Config{MemSize: 64 << 10, DirectSize: 16 << 10})
	const node, reqs = 1, 2*nodeFlightMax + 7
	log := logs[m.at(node).name]
	open := log.shutLane()

	var done sync.WaitGroup
	done.Add(reqs + 1)
	ack := func(err error) {
		if err != nil {
			t.Errorf("request failed: %v", err)
		}
		done.Done()
	}
	m.enqueue(m.grp.Load(), node, nodeReq{offset: m.grp.Load().physDirect(0), data: []byte{0xff}, done: ack})
	eventually(t, "worker held in Submit", func() bool { _, blocked := log.snapshot(); return blocked == 1 })

	var want []uint64
	for i := 0; i < reqs; i++ {
		off := m.grp.Load().physDirect(uint64(64 + 16*i))
		req := nodeReq{offset: off, data: []byte{byte(i)}, done: ack}
		want = append(want, off)
		if i%3 == 0 { // some requests carry a second segment
			req.more = []rdma.Seg{{Offset: off + 8, Data: []byte{byte(i)}}}
			want = append(want, off+8)
		}
		m.enqueue(m.grp.Load(), node, req)
	}
	open()
	done.Wait()

	subs, _ := log.snapshot()
	var got []uint64
	for _, s := range subs[1:] {
		if len(s) > 2*nodeFlightMax { // at most two segments per request here
			t.Fatalf("a flight carried %d segments, more than %d requests' worth", len(s), nodeFlightMax)
		}
		got = append(got, s...)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("node saw segments in order\n%v\nwant enqueue order\n%v", got, want)
	}
	if flights := len(subs) - 1; flights < 3 || flights > reqs {
		t.Fatalf("%d requests went out in %d flights", reqs, flights)
	}
}

// TestBlockApplyIsOneFlightPerNode pins the span-and-strip request: an
// aligned block write through the checksummed apply path reaches each node
// as one submission of two segments (block, then strip entry), plain and EC.
func TestBlockApplyIsOneFlightPerNode(t *testing.T) {
	for _, ec := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "ec"}[ec], func(t *testing.T) {
			cfg0 := Config{MemSize: 64 << 10, DirectSize: 4 << 10, IntegrityBlockSize: 1024}
			if ec {
				cfg0.ECData, cfg0.ECParity, cfg0.ECBlockSize = 2, 1, 1024
			}
			m, logs := loggedMemory(t, cfg0)
			block := bytes.Repeat([]byte{7}, 1024)
			if err := m.Write(3*1024, block); err != nil {
				t.Fatal(err)
			}
			for name, l := range logs {
				subs, _ := l.snapshot()
				if len(subs) != 1 || len(subs[0]) != 2 {
					t.Fatalf("%s: block apply arrived as %v, want one submission of two segments", name, subs)
				}
				if subs[0][1] != m.grp.Load().integ.stripOff(3) {
					t.Fatalf("%s: second segment at %d, want the strip entry at %d", name, subs[0][1], m.grp.Load().integ.stripOff(3))
				}
			}
			got := make([]byte, 1024)
			if err := m.Read(3*1024, got); err != nil || !bytes.Equal(got, block) {
				t.Fatalf("verified read after the apply: err=%v", err)
			}
		})
	}
}

// TestFlightsRaceTrackersAndClose runs commits and applies from many
// goroutines while a catch-up's dirty trackers are installed, snapshotted
// and removed over and over, then closes the memory under them. The race
// detector checks the flight path's sharing (pooled contexts, segment lists,
// completions) and the writers' notes; the test itself checks that nothing
// hangs and no write is acknowledged and then lost.
func TestFlightsRaceTrackersAndClose(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10, IntegrityBlockSize: 1024}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := cfg0
	cfg.MemoryNodes, cfg.Dial = e.names, e.dialer("c")
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			block := make([]byte, 1024)
			for i := 0; !stop.Load(); i++ {
				var err error
				if w%2 == 0 {
					// A fresh buffer each time: DirectWrite returns on a
					// majority, with the last node's write possibly still out.
					err = m.DirectWrite(uint64(w*256), bytes.Repeat([]byte{byte(i)}, 256))
				} else {
					block[0] = byte(i)
					err = m.Write(uint64(8+w)*1024, block)
				}
				if err != nil {
					if m.checkOpen() == nil {
						t.Errorf("writer %d on an open memory: %v", w, err)
					}
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			m.dirtyMain.Store(newDirtyTracker())
			m.dirtyDirect.Store(newDirtyTracker())
			time.Sleep(200 * time.Microsecond)
			m.dirtyMain.Swap(nil).snapshot()
			m.dirtyDirect.Swap(nil).snapshot()
		}
	}()

	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(lockTestLimit):
		t.Fatal("Close hung with flights and a catch-up in progress")
	}
	stop.Store(true)
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(lockTestLimit):
		t.Fatal("writers hung after Close")
	}
}
