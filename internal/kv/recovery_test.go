package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
	"github.com/repro/sift/internal/wal"
)

// TestRecoveryReplaysOnlyAboveTheMark runs the model check's streams and cuts
// (TestBatchedApplyMatchesModelAcrossCrashes) with an eye on what the
// successor's recovery cost: it still recovers exactly what was acknowledged,
// it applies again no more records than the failed store had left unretired,
// and everything else in the window costs it no remote read at all.
func TestRecoveryReplaysOnlyAboveTheMark(t *testing.T) {
	for _, ec := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "ec"}[ec], func(t *testing.T) {
			const seed = 7
			_, flights, _ := modelRun(t, newKVEnv(t, applyCfg(), ec), seed, -1)
			step := 1
			if testing.Short() {
				step = 7
			}
			scanned, replayed := 0, 0
			for crashAfter := 0; crashAfter <= flights; crashAfter += step {
				e := newKVEnv(t, applyCfg(), ec)
				model, _, pending := modelRun(t, e, seed, crashAfter)
				e.setWrap(nil)
				s := newStore(t, e, "successor", applyCfg())
				r := s.Recovery()
				checkSuccessor(t, s, model, crashAfter)
				if r.Replayed > pending {
					t.Fatalf("cut off after %d flights: recovery replayed %d records, the failed store had %d unretired (%+v)", crashAfter, r.Replayed, pending, r)
				}
				// A replayed record walks one chain at most: 24 keys in all.
				if r.ChainReads > uint64(24*r.Replayed) {
					t.Fatalf("cut off after %d flights: %d chain reads for %d replayed records (%+v)", crashAfter, r.ChainReads, r.Replayed, r)
				}
				scanned += r.Scanned
				replayed += r.Replayed
			}
			if replayed*2 > scanned {
				t.Fatalf("over all cuts recovery replayed %d of %d log entries: the mark bounds nothing", replayed, scanned)
			}
		})
	}
}

// TestOldLogWithoutMarkReplaysEverything: a log whose entries carry no mark —
// written by a build from before they did, where the field was always zero —
// is replayed in full, which is what that build's successor would have done.
// Nothing of it has been applied, so the values can only come from the replay.
func TestOldLogWithoutMarkReplaysEverything(t *testing.T) {
	cfg := applyCfg()
	e := newKVEnv(t, cfg, false)
	old := newStore(t, e, "old", cfg) // lends its memory and geometry; commits nothing itself
	mem, geo := old.mem, old.kvGeo
	const n = 40
	for i := uint64(1); i <= n; i++ {
		entry := entryFor(i, 0, record{op: opPut, key: []byte(fmt.Sprintf("key%d", i%30)), value: []byte(fmt.Sprintf("v%d", i))})
		slot := make([]byte, geo.SlotSize) // its own: a write returns at a majority
		if _, err := entry.Encode(slot); err != nil {
			t.Fatal(err)
		}
		if err := mem.DirectWrite(geo.SlotOffset(i), slot); err != nil {
			t.Fatal(err)
		}
	}

	s := newStore(t, e, "successor", cfg)
	if r := s.Recovery(); r.Mark != 0 || r.Scanned != n || r.Above != n || r.Replayed != n {
		t.Fatalf("recovery of a log without marks: %+v, want all %d entries replayed", r, n)
	}
	for i := uint64(n - 29); i <= n; i++ {
		k := []byte(fmt.Sprintf("key%d", i%30))
		if blk, _, err := s.findInChain(s.bucketOf(k), k); err != nil || !blk.used || string(blk.value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s in replicated memory: %+v err=%v, want v%d", k, blk, err, i)
		}
	}
	if mark, next := s.AppliedMark(); mark != n || next != n+1 {
		t.Fatalf("after recovery mark=%d next=%d, want %d and %d", mark, next, n, n+1)
	}
}

// refuseLogSlot makes s's next log-slot write time out on nodes 1 and 2: the
// commit fails for want of a quorum, and node 0 alone holds the entry. The
// refusal must meet that write alone, so it first waits for what is still on
// its way: the applies (a node's flight can carry a log slot beside an
// apply's blocks) and, a commit returning at a majority, the earlier slots
// not yet sent to the third node.
func (p *probe) refuseLogSlot(t *testing.T, s *Store) {
	t.Helper()
	s.drain(t)
	eventually(t, "every node sent every log slot", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.slots[0] != p.slots[1] || p.slots[1] != p.slots[2] {
			return false
		}
		p.refuse[1], p.refuse[2] = 1, 1
		return true
	})
}

// TestFailedCommitHoldsTheMark pins the one rule the mark's safety rests on:
// an index whose commit failed keeps the mark below it for as long as a copy
// of its entry can reach a successor. A put and an idempotent batch fail
// their quorum and stay on one node; commits go on past them; the batch's
// retry commits and the coordinator dies before applying it. Were the mark to
// pass the failed indices, the successor would take both stranded entries for
// applied: the batch's token would suppress the retry that committed — a lost
// batch — and the put's value would sit in the cache while the tables never
// received it — a read that changes once the entry is evicted.
func TestFailedCommitHoldsTheMark(t *testing.T) {
	cfg := applyCfg()
	e := newKVEnv(t, cfg, false)
	p := newProbe(e)
	mem := e.memory(t, "c")
	s, err := New(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Close()
		mem.Close()
	}()
	put := func(k, v string) {
		t.Helper()
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	tok := []byte("retried")
	batch := []Pair{{Key: []byte("b1"), Value: []byte("batched1")}, {Key: []byte("b2"), Value: []byte("batched2")}}

	put("victim", "acknowledged")
	put("b1", "before")
	s.drain(t)
	_, failed := s.AppliedMark() // the index the next commit takes
	p.refuseLogSlot(t, s)
	if err := s.Put([]byte("victim"), []byte("never acknowledged")); err == nil {
		t.Fatal("a put refused by two of three nodes committed")
	}
	put("between", "x") // a success between the two, or the timeouts would add up to a suspicion
	p.refuseLogSlot(t, s)
	if err := s.PutBatchIdem(tok, batch); err == nil {
		t.Fatal("a batch refused by two of three nodes committed")
	}
	for i := 0; i < 8; i++ {
		put(fmt.Sprintf("past%d", i), "x")
	}
	s.drain(t)
	if mark, next := s.AppliedMark(); mark != failed-1 {
		t.Errorf("with index %d failed and %d reserved since, the mark is %d; want it held at %d", failed, next-1-failed, mark, failed-1)
	}

	// The retry commits; the coordinator is cut off before the apply.
	p.mu.Lock()
	for i := range p.allow {
		p.allow[i] = 0
	}
	p.mu.Unlock()
	if err := s.PutBatchIdem(tok, batch); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the cut at the retry's apply", p.cutOff)

	e.setWrap(nil)
	succ := newStore(t, e, "successor", cfg)
	fromTable := func(k string) string {
		t.Helper()
		blk, _, err := succ.findInChain(succ.bucketOf([]byte(k)), []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !blk.used {
			return "(absent)"
		}
		return string(blk.value)
	}
	fromGet := func(k string) string {
		t.Helper()
		v, err := succ.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		return string(v)
	}
	for _, pr := range batch {
		if got, table := fromGet(string(pr.Key)), fromTable(string(pr.Key)); got != string(pr.Value) || table != got {
			t.Errorf("%s after recovery: get %q, tables %q; the acknowledged retry wrote %q", pr.Key, got, table, pr.Value)
		}
	}
	cached := fromGet("victim")
	if table := fromTable("victim"); table != cached {
		t.Errorf("victim after recovery: the cache serves %q, the tables hold %q", cached, table)
	}
	// Push the entry out of the cache: the read must not change.
	for i := 0; succ.cache.has("victim"); i++ {
		if err := succ.Put([]byte(fmt.Sprintf("filler%d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
		succ.drain(t)
	}
	if got := fromGet("victim"); got != cached {
		t.Errorf("victim read %q from the cache and %q once evicted", cached, got)
	}
}

// TestHeldIndexIsReleasedByTheOverwrite: the hold ends when a committed entry
// has taken the failed entry's slot — a lap later, or several if the commits
// into that slot keep failing — and not before.
func TestHeldIndexIsReleasedByTheOverwrite(t *testing.T) {
	cfg := applyCfg()
	cfg.WALSlots = 8
	e := newKVEnv(t, cfg, false)
	s, p := newProbedStore(t, e, "c", cfg)
	_, failed := s.AppliedMark()
	for i := 0; i <= 3*cfg.WALSlots; i++ {
		// The first commit fails, and so does the next one into its slot.
		refused := i == 0 || i == cfg.WALSlots
		if refused {
			p.refuseLogSlot(t, s)
		}
		if err := s.Put([]byte("k"), []byte("v")); (err == nil) == refused {
			t.Fatalf("commit %d: err=%v with the log slot refused=%v", i, err, refused)
		}
		s.drain(t)
		mark, next := s.AppliedMark()
		if want := failed - 1; i < 2*cfg.WALSlots && mark != want {
			t.Fatalf("%d commits after the failed index %d the mark is %d, want it held at %d", i, failed, mark, want)
		} else if i >= 2*cfg.WALSlots && mark != next-1 {
			t.Fatalf("%d commits after the failed index %d, its slot overwritten, the mark is %d of %d", i, failed, mark, next-1)
		}
	}
	if len(s.held) != 0 {
		t.Fatalf("indices still held after their slot was overwritten: %v", s.held)
	}
}

// recoverWhole is recovery as it was before it read only the log's tail:
// every node's whole log read and reconciled, tokens registered, the slots
// above the mark settled, entries at or below it warming the cache unpinned,
// the rest replayed pinned. It is the reference recover is checked against.
func (s *Store) recoverWhole() error {
	r := &s.recovery
	idxBuf := make([]byte, s.cfg.IndexBytes())
	if err := s.mem.Read(0, idxBuf); err != nil {
		return err
	}
	for b := range s.index {
		s.index[b] = binary.LittleEndian.Uint64(idxBuf[b*8:])
	}
	if err := s.mem.Read(s.bitmapBase, s.bitmap); err != nil {
		return err
	}
	rows, err := s.mem.DirectReadAll(repmem.Span{Addr: 0, Size: s.kvGeo.TotalSize()})
	if err != nil {
		return err
	}
	areas := slices.DeleteFunc(rows, func(row []byte) bool { return row == nil })
	slots := make([]int, s.kvGeo.Slots)
	copies := make([][][]byte, s.kvGeo.Slots)
	for slot := range slots {
		slots[slot] = slot
		for _, a := range areas {
			copies[slot] = append(copies[slot], a[slot*s.kvGeo.SlotSize:(slot+1)*s.kvGeo.SlotSize])
		}
	}
	entries := wal.Reconcile(s.kvGeo, slots, copies)
	for _, e := range entries {
		r.Mark = max(r.Mark, markOf(e))
	}
	r.Scanned, r.ReadSlots = len(entries), s.kvGeo.Slots
	recs := make([][]record, len(entries))
	for i, e := range entries {
		rs, err := recordsOf(e)
		if err != nil {
			continue
		}
		if rs[0].op == opBatchToken {
			tok := string(rs[0].key)
			if prev, dup := s.dedup[tok]; dup && prev != e.Index {
				s.stats.batchDedupHits.Add(1)
				continue
			}
			s.dedup[tok] = e.Index
		}
		recs[i] = rs
	}
	occupied := make([]bool, s.kvGeo.Slots)
	zeros := make([]byte, s.kvGeo.SlotSize)
	settle := func(slot int, want []byte) error {
		off := slot * s.kvGeo.SlotSize
		for _, area := range areas {
			if !bytes.Equal(area[off:off+len(want)], want) {
				return s.mem.DirectWrite(uint64(off), want)
			}
		}
		return nil
	}
	for i, e := range entries {
		slot := int(e.Index % uint64(s.kvGeo.Slots))
		if e.Index <= r.Mark {
			occupied[slot] = true
			continue
		}
		r.Above++
		if recs[i] == nil {
			continue
		}
		occupied[slot] = true
		buf := make([]byte, s.kvGeo.SlotSize)
		if _, err := e.Encode(buf); err != nil {
			return err
		}
		if err := settle(slot, buf); err != nil {
			return err
		}
	}
	for slot, full := range occupied {
		if !full {
			if err := settle(slot, zeros); err != nil {
				return err
			}
		}
	}
	var maxIdx uint64
	ov := newOverlay()
	var batch []*applyTask
	for i, e := range entries {
		maxIdx = e.Index
		applied := e.Index <= r.Mark
		for _, rec := range recs[i] {
			if rec.op == opBatchToken {
				continue
			}
			value := rec.value
			if rec.op == opDelete {
				value = nil
			}
			key := s.cache.put(rec.key, value, !applied, e.Index)
			if !applied {
				batch = append(batch, &applyTask{idx: e.Index, rec: rec, key: key, ok: true})
			}
		}
	}
	for len(batch) > 0 {
		n := min(len(batch), applyBatchMax)
		s.applyBatch(ov, batch[:n])
		for _, t := range batch[:n] {
			if t.applyErr != nil {
				return t.applyErr
			}
		}
		r.Replayed += n
		batch = batch[n:]
	}
	if maxIdx+1 > s.nextIdx {
		s.nextIdx = maxIdx + 1
	}
	s.watermark = s.nextIdx - 1
	s.mark = s.watermark
	return nil
}

// plant writes a slot image straight into a node's region, as a failed
// coordinator's writes left it there.
func (e *env) plant(t *testing.T, node int, off uint64, img []byte) {
	t.Helper()
	r := e.nw.Node(e.names[node]).Region(memnode.ReplRegionID)
	if err := r.WriteAt(r.Acquire(), e.mcfg.Layout().DirectBase()+off, img); err != nil {
		t.Fatal(err)
	}
}

// plantedLog is one random log as three nodes hold it after a failure: what
// every node has in every slot, and which node, if any, is down.
type plantedLog struct {
	images [][]byte
	dead   int // -1: none
}

// randomLog builds a log of up to three laps. Committed entries are on two
// or three nodes, some of their batches carry idempotency tokens from a small
// set (so a retried batch can commit twice), and the marks they carry rise
// with the index and stay below it. Above the last mark some entries failed
// and sit on one node only, and some newest copies are torn; a node may also
// hold a torn copy of an index never committed, carrying a mark above every
// real one (a garbage hint). One log in six carries no marks at all.
func randomLog(t *testing.T, rng *rand.Rand, geo wal.Geometry) plantedLog {
	t.Helper()
	images := make([][]byte, 3)
	for i := range images {
		images[i] = make([]byte, geo.TotalSize())
	}
	place := func(node int, e wal.Entry) []byte {
		slot := int(e.Index % uint64(geo.Slots))
		buf := images[node][slot*geo.SlotSize : (slot+1)*geo.SlotSize]
		clear(buf)
		if _, err := e.Encode(buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	n := uint64(rng.Intn(3 * geo.Slots))
	noMarks, lag := rng.Intn(6) == 0, rng.Intn(geo.Slots/2)
	marks := make([]uint64, n+1)
	for i := uint64(1); i <= n; i++ {
		marks[i] = marks[i-1]
		if cand := int(i) - 1 - rng.Intn(lag+1); !noMarks && cand > int(marks[i]) {
			marks[i] = uint64(cand)
		}
	}
	last := marks[n]
	for i := uint64(1); i <= n; i++ {
		var e wal.Entry
		switch rng.Intn(4) {
		case 0:
			tok := fmt.Sprintf("t%d", rng.Intn(3))
			recs := []record{{op: opBatchToken, key: []byte(tok)}}
			for k := 0; k < 1+rng.Intn(2); k++ {
				recs = append(recs, record{op: opPut, key: []byte(fmt.Sprintf("k%d", rng.Intn(12))), value: []byte(fmt.Sprintf("b%d", i))})
			}
			e = batchEntryFor(i, marks[i], recs)
		case 1:
			e = entryFor(i, marks[i], record{op: opDelete, key: []byte(fmt.Sprintf("k%d", rng.Intn(12)))})
		default:
			e = entryFor(i, marks[i], record{op: opPut, key: []byte(fmt.Sprintf("k%d", rng.Intn(12))), value: []byte(fmt.Sprintf("v%d", i))})
		}
		nodes := rng.Perm(3)[:2+rng.Intn(2)]
		if i > last && rng.Intn(4) == 0 {
			nodes = nodes[:1] // a failed commit: the mark never passed it
		}
		for _, node := range nodes {
			buf := place(node, e)
			if i > last && i+3 > n && rng.Intn(3) == 0 {
				buf[wal.HeadSize+rng.Intn(len(buf)-wal.HeadSize)] ^= 0x5a // torn past its head
			}
		}
	}
	if n > 0 && rng.Intn(4) == 0 {
		garbage := entryFor(n+1, n, record{op: opPut, key: []byte("k0"), value: []byte("never")})
		place(rng.Intn(3), garbage)[wal.HeadSize] ^= 0xff
	}
	dead := -1
	if rng.Intn(4) == 0 {
		dead = rng.Intn(3)
	}
	return plantedLog{images: images, dead: dead}
}

// recoveryOutcome is everything a recovery leaves behind but the cache.
type recoveryOutcome struct {
	mark, next, hits uint64
	scanned, above   int
	replayed         int
	dedup            map[string]uint64
	direct, main     [][]byte
}

// recoverPlanted plants log on a fresh group and recovers a store from it,
// with the whole-log reference or with recover.
func recoverPlanted(t *testing.T, cfg Config, log plantedLog, whole bool) recoveryOutcome {
	t.Helper()
	e := newKVEnv(t, cfg, false)
	for node, img := range log.images {
		e.plant(t, node, 0, img)
	}
	if log.dead >= 0 {
		e.nw.Fabric().Kill(e.names[log.dead])
	}
	mem := e.memory(t, "successor")
	s, err := open(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if whole {
		err = s.recoverWhole()
	} else {
		err = s.recover()
	}
	if err != nil {
		t.Fatal(err)
	}
	s.startAppliers()
	defer func() {
		s.Close()
		mem.Close()
	}()
	// The shared lock over the whole log waits out every rewrite still on
	// its way to a third node.
	rows, err := mem.DirectReadAll(repmem.Span{Addr: 0, Size: cfg.RequiredDirectSize()})
	if err != nil {
		t.Fatal(err)
	}
	o := recoveryOutcome{hits: s.stats.batchDedupHits.Load(), dedup: s.dedup}
	o.mark, o.next = s.AppliedMark()
	r := s.Recovery()
	o.scanned, o.above, o.replayed = r.Scanned, r.Above, r.Replayed
	for i, row := range rows {
		o.direct = append(o.direct, row)
		if row == nil {
			o.main = append(o.main, nil)
			continue
		}
		l := e.mcfg.Layout()
		o.main = append(o.main, e.nw.Node(e.names[i]).Region(memnode.ReplRegionID).Snapshot()[l.MainBase():])
	}
	return o
}

// TestTailRecoveryMatchesWholeLog: over seeded random logs — torn newest
// slots, minority copies above the mark, a garbage hint, token batches below
// the mark, skipped duplicates, stale laps, logs without marks and a node
// down — reading the heads and then the tail recovers what reading every
// node's whole log did: the same entries replayed into the same tables, the
// same tokens, the same slots rewritten and zeroed, the same mark and next
// index.
func TestTailRecoveryMatchesWholeLog(t *testing.T) {
	cfg := testCfg()
	geo := wal.Geometry{SlotSize: cfg.WALSlotSize(), Slots: cfg.WALSlots}
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for seed := int64(1); seed <= int64(rounds); seed++ {
		log := randomLog(t, rand.New(rand.NewSource(seed)), geo)
		want, got := recoverPlanted(t, cfg, log, true), recoverPlanted(t, cfg, log, false)
		if got.mark != want.mark || got.next != want.next || got.hits != want.hits ||
			got.scanned != want.scanned || got.above != want.above || got.replayed != want.replayed {
			t.Fatalf("seed %d: mark %d next %d dups %d scanned %d above %d replayed %d; the whole-log reference: %d %d %d %d %d %d",
				seed, got.mark, got.next, got.hits, got.scanned, got.above, got.replayed,
				want.mark, want.next, want.hits, want.scanned, want.above, want.replayed)
		}
		if !maps.Equal(got.dedup, want.dedup) {
			t.Fatalf("seed %d: tokens %v, the whole-log reference %v", seed, got.dedup, want.dedup)
		}
		for i := range want.direct {
			if !bytes.Equal(got.direct[i], want.direct[i]) {
				for slot := 0; slot < geo.Slots; slot++ {
					a, b := got.direct[i][slot*geo.SlotSize:(slot+1)*geo.SlotSize], want.direct[i][slot*geo.SlotSize:(slot+1)*geo.SlotSize]
					if !bytes.Equal(a, b) {
						t.Fatalf("seed %d: node %d slot %d is %x, the whole-log reference left %x", seed, i, slot, a[:wal.HeadSize], b[:wal.HeadSize])
					}
				}
			}
			if !bytes.Equal(got.main[i], want.main[i]) {
				t.Fatalf("seed %d: node %d's tables differ from the whole-log reference's", seed, i)
			}
		}
	}
}

// countingConn records, per node, the vectored reads of the replicated
// region's log zone: how many, and which slots each read in full.
type countingConn struct {
	rdma.Verbs
	c    *readCounter
	node int
}

type readCounter struct {
	logEnd   uint64 // the direct zone's end in the region: the log lies below
	slotSize int

	mu    sync.Mutex
	scans []int   // per node: head scans
	full  [][]int // per node: slots read in full
}

func (c countingConn) Submit(op *rdma.Op) {
	if op.Kind == rdma.OpRead && op.Region == memnode.ReplRegionID && op.Offset < c.c.logEnd {
		segs := append([]rdma.Seg{{Offset: op.Offset, Data: op.Data}}, op.More...)
		c.c.mu.Lock()
		for k, s := range segs {
			switch len(s.Data) {
			case wal.HeadSize:
				if k == 0 {
					c.c.scans[c.node]++
				}
			case c.c.slotSize:
				c.c.full[c.node] = append(c.c.full[c.node], int(s.Offset)/c.c.slotSize)
			}
		}
		c.c.mu.Unlock()
	}
	c.Verbs.(rdma.Submitter).Submit(op)
}

// TestRecoveryReadsOnlyTheTail: at the paper's 65,536 slots, a log whose
// last ten entries are unapplied and which holds two token batches below the
// mark is recovered from one head scan per node and a full read of exactly
// those twelve slots (among them the one carrying the hint) from each node.
// The count is of operations on the connection, not of time.
func TestRecoveryReadsOnlyTheTail(t *testing.T) {
	cfg := testCfg()
	cfg.WALSlots = 64 * 1024
	e := newKVEnv(t, cfg, false)
	geo := wal.Geometry{SlotSize: cfg.WALSlotSize(), Slots: cfg.WALSlots}
	const n, unapplied = 300, 10
	tokens := []uint64{100, 200}
	img := make([]byte, geo.TotalSize())
	for i := uint64(1); i <= n; i++ {
		mark := min(i-1, n-unapplied)
		e := entryFor(i, mark, record{op: opPut, key: []byte(fmt.Sprintf("k%d", i%20)), value: []byte("v")})
		if slices.Contains(tokens, i) {
			e = batchEntryFor(i, mark, []record{{op: opBatchToken, key: []byte(fmt.Sprintf("tok%d", i))}, {op: opPut, key: []byte("b"), value: []byte("v")}})
		}
		if _, err := e.Encode(img[geo.SlotOffset(i):]); err != nil {
			t.Fatal(err)
		}
	}
	for node := range e.names {
		e.plant(t, node, 0, img)
	}
	counter := &readCounter{logEnd: e.mcfg.Layout().MainBase(), slotSize: geo.SlotSize, scans: make([]int, 3), full: make([][]int, 3)}
	e.setWrap(func(node string, v rdma.Verbs) rdma.Verbs {
		return countingConn{Verbs: v, c: counter, node: slices.Index(e.names, node)}
	})
	s := newStore(t, e, "successor", cfg)
	r := s.Recovery()
	if r.Mark != n-unapplied || r.Above != unapplied || r.Scanned != n {
		t.Fatalf("recovery %+v: want mark %d, %d above it, %d in the window", r, n-unapplied, unapplied, n)
	}
	want := append([]int(nil), int(tokens[0]), int(tokens[1]))
	for i := n - unapplied + 1; i <= n; i++ {
		want = append(want, i) // the hint's carriers among them
	}
	slices.Sort(want)
	counter.mu.Lock()
	defer counter.mu.Unlock()
	for node := range e.names {
		got := slices.Clone(counter.full[node])
		slices.Sort(got)
		if counter.scans[node] != 1 || !slices.Equal(got, want) {
			t.Fatalf("node %d: %d head scans and slots %v read in full; want 1 scan and %v", node, counter.scans[node], got, want)
		}
	}
	if r.ReadSlots != len(want) {
		t.Fatalf("Recovery.ReadSlots = %d, want %d", r.ReadSlots, len(want))
	}
}

// blindConn fails every read of the log zone, as a node whose log the
// successor cannot read.
type blindConn struct {
	rdma.Verbs
	logEnd uint64
}

func (c blindConn) Submit(op *rdma.Op) {
	if op.Kind == rdma.OpRead && op.Region == memnode.ReplRegionID && op.Offset < c.logEnd {
		op.Complete(rdma.ErrDeadline)
		return
	}
	c.Verbs.(rdma.Submitter).Submit(op)
}

// TestRecoveryNeedsAMajorityOfTheLog: an acknowledged entry sits on nodes 0
// and 1, and only node 2 answers the successor's log read. One copy of the
// log cannot show what a majority holds, so recovery refuses to go on rather
// than lose the entry.
func TestRecoveryNeedsAMajorityOfTheLog(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	p := newProbe(e)
	s := newStore(t, e, "old", cfg)
	p.mu.Lock()
	p.refuse[2] = 1
	p.mu.Unlock()
	if err := s.Put([]byte("acked"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	slot := s.kvGeo.SlotOffset(1)
	if img := e.nw.Node(e.names[2]).Region(memnode.ReplRegionID).Snapshot()[slot : slot+wal.HeadSize]; !bytes.Equal(img, make([]byte, wal.HeadSize)) {
		t.Fatalf("node 2 holds the entry the test means it to miss: %x", img)
	}

	logEnd := e.mcfg.Layout().MainBase()
	e.setWrap(func(node string, v rdma.Verbs) rdma.Verbs {
		if node == e.names[2] {
			return v
		}
		return blindConn{Verbs: v, logEnd: logEnd}
	})
	mem := e.memory(t, "successor")
	defer mem.Close()
	if succ, err := New(mem, cfg); !errors.Is(err, repmem.ErrNoQuorum) {
		if err == nil {
			succ.Close()
		}
		t.Fatalf("recovery from one node's log: err=%v, want ErrNoQuorum", err)
	}
}
