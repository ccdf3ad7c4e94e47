package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// applyTestLimit bounds waits for events that must happen; no passing test
// waits for it to run out.
const applyTestLimit = 10 * time.Second

// eventually polls cond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(applyTestLimit); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened", what)
		}
	}
}

// probe watches and steers the apply traffic of one coordinator: the write
// submissions that carry main-space segments (a log slot goes to the direct
// zone, below MainBase). It can hold their completions back — the writes
// land, the applier does not hear of it — which keeps the applier inside its
// current batch while later commits queue behind it; it can cut the
// coordinator off after a number of flights (from then on nothing it sends
// executes), which is a crash between two flights; and in plain mode it keeps,
// per node, the main-space image with and without the flights still
// outstanding, for the walkability check.
type probe struct {
	mainBase, stripBase uint64
	index               map[string]int

	mu     sync.Mutex
	hold   chan struct{} // non-nil: apply completions wait for it to close
	subs   [][][]uint64  // per node, per apply submission: the segment offsets
	reads  []int         // per node: main-space reads
	allow  []int         // per node: apply submissions still let through; -1: no limit
	refuse []int         // per node: log-slot submissions still to be refused
	slots  []int         // per node: log slots submitted so far, refused ones included
	dead   bool
	lo, hi [][]byte     // per node: main space as completed / with every outstanding flight landed
	check  func() error // run under mu after every apply submission and completion
	errs   []error
}

func newProbe(e *env) *probe {
	l := e.mcfg.Layout()
	p := &probe{mainBase: l.MainBase(), stripBase: l.IntegrityBase(), index: map[string]int{}}
	for i, n := range e.names {
		p.index[n] = i
	}
	n := len(e.names)
	p.subs, p.reads, p.allow, p.refuse, p.slots = make([][][]uint64, n), make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	for i := range p.allow {
		p.allow[i] = -1
	}
	e.setWrap(func(node string, v rdma.Verbs) rdma.Verbs {
		return probeConn{Verbs: v, p: p, node: p.index[node]}
	})
	return p
}

// trackImages starts the per-node main-space images from what the nodes hold
// now (plain mode only: main-space address a is at MainBase+a on every node).
func (p *probe) trackImages(e *env, check func() error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range e.names {
		img := e.nw.Node(n).Region(memnode.ReplRegionID).Snapshot()[p.mainBase:p.stripBase]
		p.lo = append(p.lo, img)
		p.hi = append(p.hi, append([]byte(nil), img...))
	}
	p.check = check
}

func (p *probe) land(img []byte, off uint64, data []byte) {
	if off >= p.mainBase && off < p.stripBase {
		copy(img[off-p.mainBase:], data)
	}
}

func (p *probe) event() {
	if p.check != nil {
		if err := p.check(); err != nil {
			p.errs = append(p.errs, err)
		}
	}
}

// holdApplies holds back apply completions until the returned func is
// called, or the test ends (a failed test must not leave the appliers stuck
// under the store's Close).
func (p *probe) holdApplies(t *testing.T) (release func()) {
	gate := make(chan struct{})
	p.mu.Lock()
	p.hold = gate
	p.mu.Unlock()
	var once sync.Once
	release = func() {
		once.Do(func() {
			p.mu.Lock()
			p.hold = nil
			p.mu.Unlock()
			close(gate)
		})
	}
	t.Cleanup(release)
	return release
}

// flightsSince reports whether every node has seen an apply submission since
// before was taken.
func (p *probe) flightsSince(before []int) bool {
	now, _ := p.counts()
	for i := range now {
		if now[i] == before[i] {
			return false
		}
	}
	return true
}

// counts returns, per node, the apply submissions and main-space reads so far.
func (p *probe) counts() (subs, reads []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.subs {
		subs = append(subs, len(p.subs[i]))
	}
	return subs, append([]int(nil), p.reads...)
}

type probeConn struct {
	rdma.Verbs
	p    *probe
	node int
}

// cutOff reports whether the coordinator has been cut off: nothing it sends
// any more executes — no write, no read, no membership word.
func (p *probe) cutOff() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

func (c probeConn) Read(region rdma.RegionID, offset uint64, buf []byte) error {
	if c.p.cutOff() {
		return rdma.ErrClosed
	}
	if region == memnode.ReplRegionID && offset >= c.p.mainBase {
		c.p.mu.Lock()
		c.p.reads[c.node]++
		c.p.mu.Unlock()
	}
	return c.Verbs.Read(region, offset, buf)
}

func (c probeConn) Write(region rdma.RegionID, offset uint64, data []byte) error {
	if c.p.cutOff() {
		return rdma.ErrClosed
	}
	return c.Verbs.Write(region, offset, data)
}

func (c probeConn) CompareAndSwap(region rdma.RegionID, offset uint64, expect, swap uint64) (uint64, error) {
	if c.p.cutOff() {
		return 0, rdma.ErrClosed
	}
	return c.Verbs.CompareAndSwap(region, offset, expect, swap)
}

func (c probeConn) Submit(op *rdma.Op) {
	p, next := c.p, c.Verbs.(rdma.Submitter)
	if op.Kind != rdma.OpWrite || op.Region != memnode.ReplRegionID {
		if p.cutOff() {
			op.Complete(rdma.ErrClosed)
			return
		}
		next.Submit(op)
		return
	}
	segs := append([]rdma.Seg{{Offset: op.Offset, Data: op.Data}}, op.More...)
	apply, slots := false, 0
	for _, s := range segs {
		if s.Offset >= p.mainBase {
			apply = true
		} else {
			slots++
		}
	}
	p.mu.Lock()
	p.slots[c.node] += slots
	if apply && p.allow[c.node] == 0 {
		p.dead = true
	}
	if p.dead {
		p.mu.Unlock()
		op.Complete(rdma.ErrClosed)
		return
	}
	if !apply {
		refused := p.refuse[c.node] > 0
		if refused {
			p.refuse[c.node]--
		}
		p.mu.Unlock()
		if refused {
			// A deadline, not a broken connection: the node stays in the group.
			op.Complete(rdma.ErrDeadline)
			return
		}
		next.Submit(op)
		return
	}
	if p.allow[c.node] > 0 {
		p.allow[c.node]--
	}
	// A node that is behind may send a straggling log slot (its put long
	// acknowledged by the other two) in the same flight; only the main-space
	// segments are the apply's.
	var offs []uint64
	for _, s := range segs {
		if s.Offset < p.mainBase {
			continue
		}
		offs = append(offs, s.Offset)
		if p.hi != nil {
			p.land(p.hi[c.node], s.Offset, s.Data)
		}
	}
	p.subs[c.node] = append(p.subs[c.node], offs)
	p.event()
	hold := p.hold
	p.mu.Unlock()

	done := op.Done
	op.Done = func(o *rdma.Op) {
		finish := func() {
			p.mu.Lock()
			if o.Err == nil && p.lo != nil {
				for _, s := range segs {
					p.land(p.lo[c.node], s.Offset, s.Data)
				}
			}
			p.event()
			p.mu.Unlock()
			done(o)
		}
		if hold == nil {
			finish()
			return
		}
		go func() {
			<-hold
			finish()
		}()
	}
	next.Submit(op)
}

// applyCfg is a store with four buckets, so chains are long, and one applier,
// so batches form the same way every run. It has room to spare: a
// coordinator cut off between a batch's first and second flight leaves that
// batch's new blocks allocated and unlinked (bits are set before anything
// points to a block, never after), and its successor allocates them again.
func applyCfg() Config {
	return Config{
		Capacity: 512, MaxKey: 16, MaxValue: 64, LoadFactor: 128,
		CacheFraction: 0.5, WALSlots: 512, ApplyShards: 1,
	}
}

func newProbedStore(t *testing.T, e *env, cpu string, cfg Config) (*Store, *probe) {
	t.Helper()
	p := newProbe(e)
	return newStore(t, e, cpu, cfg), p
}

// resolved counts the queued tasks whose commit has resolved.
func (q *shardQueue) resolved() (n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, t := range q.items[q.head:] {
		if t.resolved() {
			n++
		}
	}
	return n
}

// shardKeys returns n fresh keys, named after prefix, that shard 0's applier
// owns.
func shardKeys(s *Store, prefix string, n int) [][]byte {
	var keys [][]byte
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("%s%d", prefix, i))
		if s.bucketOf(k)%uint64(len(s.shards)) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// chain returns the keys of bucket's chain as replicated memory holds it,
// head first.
func (s *Store) chain(t *testing.T, bucket uint64) []string {
	t.Helper()
	var keys []string
	for cur := s.index[bucket]; cur != 0; {
		blk, err := s.readBlock(cur - 1)
		if err != nil || !blk.used {
			t.Fatalf("bucket %d: block %d in the chain: used=%v err=%v", bucket, cur-1, blk.used, err)
		}
		keys = append(keys, string(blk.key))
		cur = blk.next
	}
	return keys
}

// heldBatch makes ops one batch: with apply completions held, first goes
// alone (the applier takes a lone record at once) and stays outstanding while
// rest commit and queue; on release the applier finds them all resolved.
func heldBatch(t *testing.T, s *Store, p *probe, first func() error, rest func()) {
	t.Helper()
	before, _ := p.counts()
	release := p.holdApplies(t)
	if err := first(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the lone record's flight on every node", func() bool { return p.flightsSince(before) })
	rest()
	release()
	s.drain(t)
}

// TestQueuedRecordsApplyAsOneFlightPerStage: a record alone is submitted at
// once; the records that commit while the applier is busy are applied
// together, one submission per node per stage, and a key the coordinator has
// applied before is rewritten without a single remote read.
func TestQueuedRecordsApplyAsOneFlightPerStage(t *testing.T) {
	for _, ec := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "ec"}[ec], func(t *testing.T) {
			cfg := testCfg()
			cfg.WALSlots = 256
			e := newKVEnv(t, cfg, ec)
			s, p := newProbedStore(t, e, "c", cfg)
			const n = 9
			keys := shardKeys(s, "k", n)
			val := func(i, gen int) []byte { return []byte(fmt.Sprintf("v%d-%d", i, gen)) }
			for i, k := range keys {
				if err := s.Put(k, val(i, 0)); err != nil {
					t.Fatal(err)
				}
			}
			s.drain(t)

			subs0, reads0 := p.counts()
			st0 := s.Stats()
			heldBatch(t, s, p, func() error { return s.Put(keys[0], val(0, 1)) }, func() {
				for i := 1; i < n; i++ {
					if err := s.Put(keys[i], val(i, 1)); err != nil {
						t.Fatal(err)
					}
				}
			})
			subs1, reads1 := p.counts()
			for i := range subs1 {
				if got := subs1[i] - subs0[i]; got != 2 {
					t.Errorf("node %d: %d apply submissions for a lone in-place put and %d queued behind it, want 2", i, got, n-1)
				}
				if got := reads1[i] - reads0[i]; got != 0 {
					t.Errorf("node %d: %d remote reads applying puts to located keys, want 0", i, got)
				}
				p.mu.Lock()
				last := p.subs[i][len(p.subs[i])-1]
				p.mu.Unlock()
				if len(last) != 2*(n-1) {
					t.Errorf("node %d: the batch's submission carries %d segments, want %d (a block and its checksum entry per record)", i, len(last), 2*(n-1))
				}
			}
			st1 := s.Stats()
			if b, l := st1.ApplyBatches-st0.ApplyBatches, st1.LocatedApplies-st0.LocatedApplies; b != 2 || l != n {
				t.Errorf("%d batches, %d located applies; want 2 and %d", b, l, n)
			}

			// Inserts: one flight for the blocks and bitmap bytes, one for the
			// index words, however many records.
			fresh := shardKeys(s, "fresh", n)
			heldBatch(t, s, p, func() error { return s.Put(fresh[0], val(0, 2)) }, func() {
				for i := 1; i < n; i++ {
					if err := s.Put(fresh[i], val(i, 2)); err != nil {
						t.Fatal(err)
					}
				}
			})
			subs2, _ := p.counts()
			for i := range subs2 {
				if got := subs2[i] - subs1[i]; got != 4 {
					t.Errorf("node %d: %d apply submissions for a lone insert and %d queued behind it, want 2 each (blocks, then index words)", i, got, n-1)
				}
			}
			for i, k := range append(append([][]byte(nil), keys...), fresh...) {
				gen := 1 + i/n
				if blk, _, err := s.findInChain(s.bucketOf(k), k); err != nil || !blk.used || !bytes.Equal(blk.value, val(i%n, gen)) {
					t.Fatalf("key %s in replicated memory: %+v err=%v", k, blk, err)
				}
			}
		})
	}
}

// walkable is the invariant the flight order exists for, checked against the
// probe's images after every apply submission and completion: whatever node a
// lock-free walker reads an index word or a next pointer from, with or
// without the outstanding flight landed there, the block it names is a used
// block with a valid checksum on every node, in both states.
func (p *probe) walkable(s *Store) error {
	images := append(append([][]byte(nil), p.lo...), p.hi...)
	for x, from := range images {
		for bucket := uint64(0); bucket < s.buckets; bucket++ {
			ptr := binary.LittleEndian.Uint64(from[s.indexAddr(bucket):])
			for hops := 0; ptr != 0; hops++ {
				if hops > s.cfg.Capacity {
					return fmt.Errorf("image %d: bucket %d's chain does not end", x, bucket)
				}
				addr := s.blockAddr(ptr - 1)
				for y, at := range images {
					if b, err := s.bcodec.decodeVerified(at[addr : addr+uint64(s.blockSize)]); err != nil || !b.used {
						return fmt.Errorf("a pointer in image %d (bucket %d) leads to block %d, which in image %d is used=%v err=%v",
							x, bucket, ptr-1, y, b.used, err)
					}
				}
				b, _ := s.bcodec.decode(from[addr : addr+uint64(s.blockSize)])
				ptr = b.next
			}
		}
	}
	return nil
}

// nodeSource reads main-space addresses straight from the memory nodes'
// regions, a different node each time, as a backup's view would.
type nodeSource struct {
	e    *env
	base uint64
	turn atomic.Uint64
}

func (n *nodeSource) Read(addr uint64, buf []byte) error {
	name := n.e.names[n.turn.Add(1)%uint64(len(n.e.names))]
	return n.e.nw.Node(name).Region(memnode.ReplRegionID).ReadAt(rdma.ObserverEpoch, n.base+addr, buf)
}

// TestBatchStagesKeepChainsWalkable applies one mixed batch — in-place put,
// insert, two inserts into one bucket, delete at a chain's head, delete in
// mid-chain, delete-then-put and put-then-delete of one key — and checks the
// order of its flights two ways: the walkability invariant at every event,
// and a ChainReader looping over the nodes' memory the whole time, which may
// only ever return a value its key has held.
func TestBatchStagesKeepChainsWalkable(t *testing.T) {
	cfg := applyCfg()
	e := newKVEnv(t, cfg, false)
	s, p := newProbedStore(t, e, "c", cfg)

	put := func(k, v string) {
		t.Helper()
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	del := func(k string) {
		t.Helper()
		if err := s.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		put(fmt.Sprintf("old%d", i), "v0")
	}
	s.drain(t)

	// Pick the batch's keys by where they sit.
	var head, mid string
	for b := uint64(0); b < s.buckets; b++ {
		if c := s.chain(t, b); len(c) >= 3 && head == "" {
			head = c[0]
		} else if len(c) >= 3 && mid == "" {
			mid = c[1]
		}
	}
	if head == "" || mid == "" {
		t.Fatal("population left no two chains of three")
	}
	var twins []string // two new keys of one bucket
	for i := 0; len(twins) < 2; i++ {
		if k := fmt.Sprintf("twin%d", i); s.bucketOf([]byte(k)) == 3 {
			twins = append(twins, k)
		}
	}
	var rest []string
	for i := 0; len(rest) < 3; i++ {
		if k := fmt.Sprintf("old%d", i); k != head && k != mid {
			rest = append(rest, k)
		}
	}
	inPlace, reborn, warm := rest[0], rest[1], rest[2]

	// Every value a populated key holds before or after the batch; the map is
	// complete before the reader starts.
	held := map[string]map[string]bool{warm: {"v1": true}, inPlace: {"v2": true}, reborn: {"v3": true}}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("old%d", i)
		if held[k] == nil {
			held[k] = map[string]bool{}
		}
		held[k]["v0"] = true
	}
	p.trackImages(e, func() error { return p.walkable(s) })
	reader, err := NewChainReader(cfg, e.mcfg.WriteAlign(), &nodeSource{e: e, base: p.mainBase})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for i := 0; i < 16; i++ {
				k := fmt.Sprintf("old%d", i)
				v, err := reader.Get([]byte(k))
				if err == nil && !held[k][string(v)] {
					t.Errorf("backup read of %s returned %q, a value it never held", k, v)
				} else if err != nil && !errors.Is(err, ErrBackupRetry) {
					t.Errorf("backup read of %s: %v", k, err)
				}
			}
		}
	}()

	heldBatch(t, s, p, func() error { return s.Put([]byte(warm), []byte("v1")) }, func() {
		put(inPlace, "v2")
		put("brand-new", "v2")
		put(twins[0], "v2")
		put(twins[1], "v2")
		del(head)
		del(mid)
		del(reborn)
		put(reborn, "v3")
		put("passing", "v2")
		del("passing")
	})
	stop.Store(true)
	wg.Wait()

	p.mu.Lock()
	errs, subs := p.errs, len(p.subs[0])
	p.mu.Unlock()
	for _, err := range errs {
		t.Error(err)
	}
	if subs < 4 { // the warm-up's one flight, then three for the mixed batch
		t.Errorf("the mixed batch went out in %d flights, want three", subs-1)
	}
	want := map[string]string{warm: "v1", inPlace: "v2", "brand-new": "v2", twins[0]: "v2", twins[1]: "v2", reborn: "v3"}
	for _, gone := range []string{head, mid, "passing"} {
		if blk, _, err := s.findInChain(s.bucketOf([]byte(gone)), []byte(gone)); err != nil || blk.used {
			t.Errorf("deleted key %s still in its chain (err=%v)", gone, err)
		}
	}
	for k, v := range want {
		if blk, _, err := s.findInChain(s.bucketOf([]byte(k)), []byte(k)); err != nil || !blk.used || string(blk.value) != v {
			t.Errorf("key %s in replicated memory: %+v err=%v, want %q", k, blk, err, v)
		}
	}
}

// modelRun drives a seeded stream of puts and deletes over a few keys through
// a four-bucket store in batches of random size (heldBatch: one record, then
// up to the cap and beyond), keeping a map beside it. crashAfter ≥ 0 cuts the
// coordinator off after that many apply flights; the run then stops at the
// first operation that fails, and the model holds what was acknowledged.
// It returns the model, how many apply flights node 0 saw, and how many
// records a successor may have to replay: those the store had reserved above
// the applied mark it held when the last acknowledged operation began — that
// operation's log entry carries at least that mark, and is on a majority.
func modelRun(t *testing.T, e *env, seed int64, crashAfter int) (model map[string]string, flights, pending int) {
	t.Helper()
	cfg := applyCfg()
	p := newProbe(e)
	if crashAfter >= 0 {
		for i := range p.allow {
			p.allow[i] = crashAfter
		}
	}
	mem := e.memory(t, fmt.Sprintf("c%d", crashAfter))
	s, err := New(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Close()
		mem.Close()
	}()

	rng := rand.New(rand.NewSource(seed))
	model = map[string]string{}
	crashed := false
	var ackedMark uint64
	op := func() error {
		before, _ := s.AppliedMark()
		k := fmt.Sprintf("key%d", rng.Intn(24))
		if rng.Intn(4) == 0 {
			if err := s.Delete([]byte(k)); err != nil {
				return err
			}
			delete(model, k)
			ackedMark = before
			return nil
		}
		v := fmt.Sprintf("v%d", rng.Int31())
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			return err
		}
		model[k] = v
		ackedMark = before
		return nil
	}
	for round := 0; round < 12 && !crashed; round++ {
		n := rng.Intn(applyBatchMax + 16)
		release := p.holdApplies(t)
		// Lone records until one is outstanding, its completion held: the rest
		// then queue behind it. A delete of an absent key writes nothing and
		// is retired with no flight; the next record goes alone in its place.
		for outstanding := false; !outstanding && !crashed; {
			before, _ := p.counts()
			if crashed = op() != nil; crashed {
				break
			}
			eventually(t, "the lone record's flight or retirement", func() bool {
				s.seqMu.Lock()
				idle := s.watermark+1 == s.nextIdx
				s.seqMu.Unlock()
				p.mu.Lock()
				crashed = p.dead
				p.mu.Unlock()
				outstanding = p.flightsSince(before)
				return idle || crashed || outstanding
			})
		}
		for i := 0; i < n && !crashed; i++ {
			crashed = op() != nil
		}
		release()
		s.drain(t)
	}
	if crashAfter < 0 {
		for k, v := range model {
			if blk, _, err := s.findInChain(s.bucketOf([]byte(k)), []byte(k)); err != nil || !blk.used || string(blk.value) != v {
				t.Fatalf("seed %d: key %s in replicated memory: %+v err=%v, want %q", seed, k, blk, err, v)
			}
		}
		for b := uint64(0); b < s.buckets; b++ {
			for _, k := range s.chain(t, b) {
				if _, ok := model[k]; !ok {
					t.Fatalf("seed %d: deleted key %s still in bucket %d's chain", seed, k, b)
				}
			}
		}
	}
	subs, _ := p.counts()
	_, next := s.AppliedMark()
	return model, subs[0], int(next - 1 - ackedMark)
}

// TestBatchedApplyMatchesModelAcrossCrashes is the model check: random
// streams applied in random batch sizes leave replicated memory equal to a
// map; and with the coordinator cut off between any two flights — between
// the stages of a batch, between the last stage and the retirement, between
// batches — a fresh store over the same memory recovers exactly what was
// acknowledged, because replaying the log over any prefix of the flights is
// idempotent record by record.
func TestBatchedApplyMatchesModelAcrossCrashes(t *testing.T) {
	for _, ec := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "ec"}[ec], func(t *testing.T) {
			const seed = 7
			_, flights, _ := modelRun(t, newKVEnv(t, applyCfg(), ec), seed, -1)
			if flights < 20 {
				t.Fatalf("only %d apply flights in the whole run", flights)
			}
			step := 1
			if testing.Short() {
				step = 7
			}
			for crashAfter := 0; crashAfter <= flights; crashAfter += step {
				e := newKVEnv(t, applyCfg(), ec)
				model, _, _ := modelRun(t, e, seed, crashAfter)
				e.setWrap(nil)
				checkSuccessor(t, newStore(t, e, "successor", applyCfg()), model, crashAfter)
			}
		})
	}
}

// checkSuccessor checks that a store recovered after modelRun's cut serves
// exactly the model, from its cache and from replicated memory.
func checkSuccessor(t *testing.T, s *Store, model map[string]string, crashAfter int) {
	t.Helper()
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("key%d", i)
		for _, how := range []string{"cache", "memory"} {
			var got []byte
			var err error
			if how == "cache" {
				got, err = s.Get([]byte(k))
			} else if blk, _, ferr := s.findInChain(s.bucketOf([]byte(k)), []byte(k)); ferr != nil {
				err = ferr
			} else if !blk.used {
				err = ErrNotFound
			} else {
				got = blk.value
			}
			if want, ok := model[k]; ok && (err != nil || string(got) != want) {
				t.Fatalf("cut off after %d flights: %s from the successor's %s = %q, %v; want %q", crashAfter, k, how, got, err, want)
			} else if !ok && !errors.Is(err, ErrNotFound) {
				t.Fatalf("cut off after %d flights: deleted key %s from the successor's %s = %q, %v", crashAfter, k, how, got, err)
			}
		}
	}
}

// TestBitmapStaysLockedUntilItsFlightCompletes pins the allocator's order.
// Two shards' inserts take neighbouring blocks, so both write the same bitmap
// byte, each its own snapshot. Every connection delivers in order, so the
// snapshots land in the order they were enqueued — which is the order they
// were taken in only because the mutex is still held at the enqueue: shard
// B cannot snapshot, let alone enqueue, until shard A's flight has completed.
// (Releasing the mutex once the bits are set would let A's older snapshot be
// enqueued after B's and wipe B's bit in replicated memory alone; the next
// coordinator would then hand B's block to a new key.)
func TestBitmapStaysLockedUntilItsFlightCompletes(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s, p := newProbedStore(t, e, "c", cfg)
	var a, b []byte
	for i := 0; a == nil || b == nil; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if shard := s.bucketOf(k) % 2; shard == 0 && a == nil {
			a = k
		} else if shard == 1 && b == nil {
			b = k
		}
	}

	before, _ := p.counts()
	release := p.holdApplies(t)
	if err := s.Put(a, []byte("va")); err != nil {
		t.Fatal(err)
	}
	eventually(t, "shard A's first flight on every node", func() bool { return p.flightsSince(before) })
	if s.bitmapMu.TryLock() {
		s.bitmapMu.Unlock()
		release()
		t.Fatal("the bitmap is unlocked while the flight carrying its changed byte is outstanding")
	}
	if err := s.Put(b, []byte("vb")); err != nil {
		t.Fatal(err)
	}
	release()
	s.drain(t)

	e.setWrap(nil)
	next := newStore(t, e, "successor", cfg)
	if got := next.bitmap[0] & 3; got != 3 {
		t.Fatalf("successor loaded bitmap byte %02b: a bit of the two inserts is lost", got)
	}
	if err := next.Put([]byte("third"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	next.drain(t)
	for _, k := range [][]byte{a, b, []byte("third")} {
		if blk, _, err := next.findInChain(next.bucketOf(k), k); err != nil || !blk.used {
			t.Fatalf("key %s after the successor's insert: %+v err=%v", k, blk, err)
		}
	}
}

// TestCachedLocationFollowsUnlinkAndDelete: a location carries the block's
// next pointer, so unlinking a block must correct its predecessor's cached
// location in the same batch, and a deleted key must lose its own.
func TestCachedLocationFollowsUnlinkAndDelete(t *testing.T) {
	cfg := applyCfg()
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	var keys []string // three keys of bucket 0; the chain will be c -> b -> a
	for i := 0; len(keys) < 3; i++ {
		if k := fmt.Sprintf("k%d", i); s.bucketOf([]byte(k)) == 0 {
			keys = append(keys, k)
		}
	}
	a, b, c := []byte(keys[0]), []byte(keys[1]), []byte(keys[2])
	for _, k := range [][]byte{a, b, c} {
		if err := s.Put(k, []byte("v0")); err != nil {
			t.Fatal(err)
		}
		s.drain(t)
	}

	if err := s.Delete(b); err != nil { // c's next now skips b's block
		t.Fatal(err)
	}
	s.drain(t)
	reads := s.Stats().ChainReads
	if err := s.Put(c, []byte("v1")); err != nil { // rewritten from its location
		t.Fatal(err)
	}
	s.drain(t)
	if got := s.Stats().ChainReads - reads; got != 0 {
		t.Errorf("put to a located key walked its chain (%d reads)", got)
	}
	if got := fmt.Sprint(s.chain(t, 0)); got != fmt.Sprint([]string{keys[2], keys[0]}) {
		t.Fatalf("chain after the predecessor's in-place put: %v", got)
	}

	if err := s.Put(b, []byte("v2")); err != nil { // must not trust b's old block
		t.Fatal(err)
	}
	s.drain(t)
	if got := fmt.Sprint(s.chain(t, 0)); got != fmt.Sprint([]string{keys[1], keys[2], keys[0]}) {
		t.Fatalf("chain after re-inserting the deleted key: %v", got)
	}
	for k, v := range map[string]string{keys[0]: "v0", keys[1]: "v2", keys[2]: "v1"} {
		if blk, _, err := s.findInChain(0, []byte(k)); err != nil || !blk.used || string(blk.value) != v {
			t.Errorf("key %s: %+v err=%v, want %q", k, blk, err, v)
		}
	}
}

// TestAbsorbedRecordsAreAckedAndPersistedOnce: several records for one key in
// one batch become one image. Each SyncApply writer is still acknowledged
// (after the image is in replicated memory), Applies still counts every
// record, and the persistent sink receives each key's surviving record only.
func TestAbsorbedRecordsAreAckedAndPersistedOnce(t *testing.T) {
	cfg := applyCfg()
	cfg.SyncApply = true
	sink := newRecordingSink()
	cfg.Persist = sink
	e := newKVEnv(t, cfg, false)
	s, p := newProbedStore(t, e, "c", cfg)

	before, _ := p.counts()
	release := p.holdApplies(t)
	var wg sync.WaitGroup
	queued := 0
	write := func(k, v string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if v == "" {
				err = s.Delete([]byte(k))
			} else {
				err = s.Put([]byte(k), []byte(v))
			}
			if err != nil {
				t.Errorf("%s=%q: %v", k, v, err)
			}
		}()
		// A SyncApply writer returns only after the apply, so its commit is
		// watched from the side; the next write starts after it, in log order.
		queued++
		eventually(t, "commit of "+k, func() bool { return s.shards[0].resolved() == queued-1 })
	}
	write("warm", "w") // the applier takes the lone record out of the queue
	eventually(t, "the lone record's flight", func() bool { return p.flightsSince(before) })
	write("x", "x1")
	write("x", "x2")
	write("y", "y1")
	write("x", "x3")
	write("y", "")
	st0 := s.Stats()
	release()
	wg.Wait() // every writer acknowledged, absorbed or not
	s.drain(t)

	st := s.Stats()
	if got := st.AbsorbedRecords - st0.AbsorbedRecords; got != 3 {
		t.Errorf("%d records absorbed, want 3 (x1, x2, y1)", got)
	}
	if got := st.Applies; got != 6 {
		t.Errorf("Applies = %d, want all 6 retired records", got)
	}
	if v, ok := sink.get("x"); !ok || v != "x3" {
		t.Errorf("sink holds x=%q (%v), want x3", v, ok)
	}
	if _, ok := sink.get("y"); ok {
		t.Error("sink still holds y")
	}
	if got := sink.calls(); got != 3 {
		t.Errorf("sink saw %d updates, want 3 (warm, x3, delete y)", got)
	}
	if blk, _, err := s.findInChain(s.bucketOf([]byte("x")), []byte("x")); err != nil || !blk.used || string(blk.value) != "x3" {
		t.Errorf("x in replicated memory: %+v err=%v", blk, err)
	}
}

// TestFullStoreBatchReusesFreedBlocks: a batch frees blocks only with its
// last flight, so an insert that finds the store full while the same batch
// holds a delete ends the run early; the flights give the block back and the
// insert goes in the next run, as it would have one record at a time.
func TestFullStoreBatchReusesFreedBlocks(t *testing.T) {
	cfg := applyCfg()
	cfg.Capacity, cfg.LoadFactor = 8, 2
	e := newKVEnv(t, cfg, false)
	s, p := newProbedStore(t, e, "c", cfg)
	for i := 0; i < 8; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	s.drain(t)
	heldBatch(t, s, p, func() error { return s.Put([]byte("k1"), []byte("v1")) }, func() {
		for _, k := range []string{"k0", "k2"} {
			if err := s.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []string{"new0", "new1", "new2"} { // the third finds no block
			if err := s.Put([]byte(k), []byte("v2")); err != nil {
				t.Fatal(err)
			}
		}
	})
	want := map[string]string{"k1": "v1", "k3": "v0", "new0": "v2", "new1": "v2"}
	for _, k := range []string{"k0", "k2", "new2"} {
		if blk, _, err := s.findInChain(s.bucketOf([]byte(k)), []byte(k)); err != nil || blk.used {
			t.Errorf("key %s is in its chain (err=%v)", k, err)
		}
	}
	for k, v := range want {
		if blk, _, err := s.findInChain(s.bucketOf([]byte(k)), []byte(k)); err != nil || !blk.used || string(blk.value) != v {
			t.Errorf("key %s in replicated memory: %+v err=%v, want %q", k, blk, err, v)
		}
	}
}

// TestOverlayResetForgetsOnlyItsBatch: after a full 256-record batch, a
// 1-record batch leaves only its own entries in the overlay's maps (its key,
// and the blocks it met on the way), reset empties both, and each batch's
// records land as they would without the bigger batch before them.
func TestOverlayResetForgetsOnlyItsBatch(t *testing.T) {
	cfg := applyCfg()
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	task := func(k, v string) *applyTask {
		return &applyTask{rec: record{op: opPut, key: []byte(k), value: []byte(v)}, key: k, ok: true}
	}
	ov := newOverlay()
	var big []*applyTask
	for i := 0; i < applyBatchMax; i++ {
		big = append(big, task(fmt.Sprintf("k%d", i), "v0"))
	}
	s.applyBatch(ov, big)
	s.applyBatch(ov, []*applyTask{task("k7", "v1")})
	if len(ov.keys) != 1 || len(ov.at) != len(ov.blocks) {
		t.Errorf("after the 1-record batch: %d keys, %d blocks in the overlay's maps, want 1 and %d", len(ov.keys), len(ov.at), len(ov.blocks))
	}
	ov.reset()
	if len(ov.keys) != 0 || len(ov.at) != 0 {
		t.Errorf("after reset: %d keys, %d blocks in the overlay's maps, want none", len(ov.keys), len(ov.at))
	}
	for i, tk := range big {
		want := "v0"
		if i == 7 {
			want = "v1"
		}
		if tk.applyErr != nil {
			t.Fatalf("%s: %v", tk.key, tk.applyErr)
		}
		if blk, _, err := s.findInChain(s.bucketOf(tk.rec.key), tk.rec.key); err != nil || !blk.used || string(blk.value) != want {
			t.Fatalf("key %s in replicated memory: %+v err=%v, want %q", tk.key, blk, err, want)
		}
	}
}
