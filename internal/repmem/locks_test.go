package repmem

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/repro/sift/internal/rdma"
)

// lockTestLimit bounds waits for events that must happen; no passing test
// waits for it to run out.
const lockTestLimit = 10 * time.Second

// goAcquire runs an acquire on its own goroutine and returns a channel
// closed once it has been granted.
func goAcquire(l *rangeLock, mode lockMode, rs ...lockRange) <-chan struct{} {
	got := make(chan struct{})
	go func() {
		l.acquire(mode, rs...)
		close(got)
	}()
	return got
}

func mustGet(t *testing.T, got <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-got:
	case <-time.After(lockTestLimit):
		t.Fatalf("%s: not granted", what)
	}
}

// mustQueue waits until n requests are queued on l. A queued request is
// granted only by a release, so once it is seen queued, "still blocked" is a
// fact and not a matter of timing.
func mustQueue(t *testing.T, l *rangeLock, n int) {
	t.Helper()
	for deadline := time.Now().Add(lockTestLimit); ; time.Sleep(50 * time.Microsecond) {
		l.mu.Lock()
		q := len(l.queue)
		l.mu.Unlock()
		if q == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue length %d, want %d", q, n)
		}
	}
}

func mustWait(t *testing.T, got <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-got:
		t.Fatalf("%s: granted while a conflicting range is held", what)
	default:
	}
}

func mustBeIdle(t *testing.T, l *rangeLock) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.held) != 0 || len(l.queue) != 0 {
		t.Fatalf("lock not idle: %d held, %d queued", len(l.held), len(l.queue))
	}
}

func TestRangeLockDisjointWritersNeverBlock(t *testing.T) {
	var l rangeLock
	// Neighbouring 1088-byte log slots inside one 4 KiB block, an empty
	// range inside a held one, and a range far away: all granted inline —
	// a wrongly blocked acquire would hang the test on its own goroutine.
	rs := []lockRange{{0, 1088}, {1088, 1088}, {2176, 1088}, {500, 0}, {1 << 30, 4096}}
	for _, r := range rs {
		l.acquire(exclusive, r)
	}
	mustQueue(t, &l, 0)
	for _, r := range rs {
		l.release(exclusive, r)
	}
	mustBeIdle(t, &l)
}

func TestRangeLockOverlappingWritersExclude(t *testing.T) {
	var l rangeLock
	a, b := lockRange{0, 100}, lockRange{99, 100}
	l.acquire(exclusive, a)
	got := goAcquire(&l, exclusive, b)
	mustQueue(t, &l, 1)
	mustWait(t, got, "writer sharing one byte with a held writer")
	l.release(exclusive, a)
	mustGet(t, got, "writer after the overlapping holder released")
	l.release(exclusive, b)
	mustBeIdle(t, &l)
}

func TestRangeLockSharedHoldersCoexist(t *testing.T) {
	var l rangeLock
	chunk, part := lockRange{0, 4096}, lockRange{1088, 1088}
	l.acquire(shared, chunk)
	l.acquire(shared, part)
	l.acquire(shared, chunk)
	got := goAcquire(&l, exclusive, part)
	mustQueue(t, &l, 1)
	l.release(shared, chunk)
	l.release(shared, part)
	mustWait(t, got, "writer under one remaining shared holder")
	l.release(shared, chunk)
	mustGet(t, got, "writer after every shared holder released")
	l.release(exclusive, part)
	mustBeIdle(t, &l)
}

func TestRangeLockWaitingWriterNotOvertaken(t *testing.T) {
	var l rangeLock
	chunk, slot := lockRange{0, 4096}, lockRange{1088, 1088}
	l.acquire(shared, chunk)
	writer := goAcquire(&l, exclusive, slot)
	mustQueue(t, &l, 1)
	// A later reader overlapping the waiting writer queues behind it, though
	// nothing held conflicts with it; a reader elsewhere is not held up.
	reader := goAcquire(&l, shared, chunk)
	mustQueue(t, &l, 2)
	l.acquire(shared, lockRange{8192, 4096})
	l.release(shared, lockRange{8192, 4096})

	l.release(shared, chunk)
	mustGet(t, writer, "writer at the head of the queue")
	mustWait(t, reader, "reader queued behind the writer")
	l.release(exclusive, slot)
	mustGet(t, reader, "reader after the writer released")
	l.release(shared, chunk)
	mustBeIdle(t, &l)
}

func TestRangeLockMultiRangeIsAtomic(t *testing.T) {
	var l rangeLock
	a, b := lockRange{0, 64}, lockRange{4096, 64}
	l.acquire(exclusive, b)
	both := goAcquire(&l, exclusive, a, b, a) // a repeated range does not block itself
	mustQueue(t, &l, 1)
	// The blocked request holds nothing yet: a is still free for others.
	l.acquire(shared, lockRange{1 << 20, 1})
	l.release(shared, lockRange{1 << 20, 1})
	l.release(exclusive, b)
	mustGet(t, both, "multi-range request")
	l.release(exclusive, a, b, a)
	mustBeIdle(t, &l)
}

// TestRangeLockCrossingRangeSetsStress has many goroutines take crossing
// sets of ranges, in every order, over a few cells. It must terminate (no
// ordering of ranges can deadlock an all-or-nothing acquire), and the race
// detector checks the exclusion: exclusive holders write their cells with
// plain stores, shared holders read them.
func TestRangeLockCrossingRangeSetsStress(t *testing.T) {
	const (
		cells      = 8
		cellSize   = 1088
		goroutines = 16
		rounds     = 400
	)
	var l rangeLock
	var data [cells]int
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			sink := 0
			for i := 0; i < rounds; i++ {
				picked := rng.Perm(cells)[:1+rng.Intn(3)]
				rs := make([]lockRange, len(picked))
				for k, c := range picked {
					rs[k] = lockRange{uint64(c * cellSize), cellSize}
				}
				mode := lockMode(rng.Intn(4) == 0)
				if rng.Intn(16) == 0 { // a scrub-style chunk lock across cells
					rs, picked = []lockRange{{0, cells * cellSize}}, rng.Perm(cells)
				}
				l.acquire(mode, rs...)
				for _, c := range picked {
					if mode == exclusive {
						data[c]++
					} else {
						sink += data[c]
					}
				}
				l.release(mode, rs...)
			}
			_ = sink
		}(int64(g))
	}
	wg.Wait()
	mustBeIdle(t, &l)
}

func TestRangeLockUncontendedPathDoesNotAllocate(t *testing.T) {
	var l rangeLock
	other := lockRange{1 << 20, 4096}
	l.acquire(shared, other) // a non-empty held set, as on a busy write path
	r := lockRange{1088, 1088}
	if n := testing.AllocsPerRun(200, func() {
		l.acquire(exclusive, r)
		l.release(exclusive, r)
	}); n != 0 {
		t.Fatalf("uncontended acquire+release allocates %.1f times, want 0", n)
	}
	l.release(shared, other)
}

// completionGates holds back the completions of writes to chosen offsets of
// the replicated region — the writes land, their acknowledgements do not —
// until the test opens the offset's gate.
type completionGates struct {
	mu    sync.Mutex
	gates map[uint64]*completionGate
}

// completionGate is one held offset: open lets completions through,
// submitted is closed when the first write to the offset has been submitted.
type completionGate struct {
	open, submitted chan struct{}
	once            sync.Once
}

func (g *completionGates) hold(off uint64) (open func(), submitted <-chan struct{}) {
	gate := &completionGate{open: make(chan struct{}), submitted: make(chan struct{})}
	g.mu.Lock()
	if g.gates == nil {
		g.gates = make(map[uint64]*completionGate)
	}
	g.gates[off] = gate
	g.mu.Unlock()
	return func() { close(gate.open) }, gate.submitted
}

// gatedConn is a pipelined connection whose write completions pass through
// a completionGates. A vectored write waits for the gate of every segment it
// carries.
type gatedConn struct {
	rdma.Verbs
	g *completionGates
}

func (c gatedConn) Submit(op *rdma.Op) {
	var held []*completionGate
	if op.Kind == rdma.OpWrite && op.Region == replRegion {
		c.g.mu.Lock()
		if gate := c.g.gates[op.Offset]; gate != nil {
			held = append(held, gate)
		}
		for _, s := range op.More {
			if gate := c.g.gates[s.Offset]; gate != nil {
				held = append(held, gate)
			}
		}
		c.g.mu.Unlock()
	}
	if len(held) > 0 {
		done := op.Done
		op.Done = func(o *rdma.Op) {
			go func() {
				for _, gate := range held {
					<-gate.open
				}
				done(o)
			}()
		}
	}
	c.Verbs.(rdma.Submitter).Submit(op)
	for _, gate := range held {
		gate.once.Do(func() { close(gate.submitted) })
	}
}

// TestDirectWriteNeighbourSlotsDoNotSerialize pins the hold rule and its
// reach at the repmem level: a direct write keeps its bytes locked until the
// last waited-on node completes, which delays a write to the same log slot
// and a recovery-style shared lock over the enclosing chunk, but not a write
// to the next slot — two 1088-byte KV log slots share a 4 KiB block.
func TestDirectWriteNeighbourSlotsDoNotSerialize(t *testing.T) {
	const slotSize = 1088
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	var gates completionGates
	dial := cfg.Dial
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		c, err := dial(node)
		if err != nil || node != "m2" {
			return c, err
		}
		return gatedConn{Verbs: c, g: &gates}, nil
	}
	m := newMemory(t, cfg)

	// m2's acknowledgements of slots 1 and 2 are held back; m0 and m1 still
	// make the majority that lets each DirectWriteOwned return. Each write is
	// seen submitted to m2 before the next starts, so that m2's worker never
	// finds two of them queued and sends them as one flight, which would tie
	// their completions together.
	openSlot1, sentSlot1 := gates.hold(m.physDirect(1 * slotSize))
	openSlot2, sentSlot2 := gates.hold(m.physDirect(2 * slotSize))
	write := func(slot int) (returned, released chan struct{}) {
		returned, released = make(chan struct{}), make(chan struct{})
		go func() {
			data := make([]byte, slotSize)
			data[0] = byte(slot)
			if err := m.DirectWriteOwned(uint64(slot*slotSize), data, func() { close(released) }); err != nil {
				t.Errorf("DirectWriteOwned(slot %d): %v", slot, err)
			}
			close(returned)
		}()
		return returned, released
	}

	ret1, rel1 := write(1)
	mustGet(t, ret1, "write to slot 1 on a majority")
	mustGet(t, sentSlot1, "slot 1's submission to m2")
	mustWait(t, rel1, "slot 1's buffer release before its last node completed")

	ret2, rel2 := write(2)
	mustGet(t, ret2, "write to slot 2 while slot 1 is pending")
	mustGet(t, sentSlot2, "slot 2's submission to m2")

	ret1b, rel1b := write(1)
	mustQueue(t, &m.directLocks, 1)
	mustWait(t, ret1b, "second write to slot 1 while the first is pending")

	chunkRead := make(chan struct{})
	go func() {
		if _, err := m.DirectReadAll(Span{Addr: 0, Size: 4096}); err != nil {
			t.Errorf("DirectReadAll: %v", err)
		}
		close(chunkRead)
	}()
	mustQueue(t, &m.directLocks, 2)

	openSlot1()
	mustGet(t, rel1, "slot 1's release once its last node completed")
	mustGet(t, ret1b, "second write to slot 1")
	mustGet(t, rel1b, "second slot 1 write's release")
	// Slot 2 is still pending on m2, so the chunk lock is still queued.
	mustQueue(t, &m.directLocks, 1)
	mustWait(t, chunkRead, "chunk-wide shared lock while slot 2 is pending")
	mustWait(t, rel2, "slot 2's buffer release before its last node completed")

	openSlot2()
	mustGet(t, rel2, "slot 2's release")
	mustGet(t, chunkRead, "chunk-wide shared lock after both slots completed")
	mustBeIdle(t, &m.directLocks)
}
