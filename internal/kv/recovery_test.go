package kv

import (
	"fmt"
	"testing"
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
				e.wrap = nil
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
		if blk, _, err := s.findInChain(s.bucketOf(k), k); err != nil || blk == nil || string(blk.value) != fmt.Sprintf("v%d", i) {
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

	e.wrap = nil
	succ := newStore(t, e, "successor", cfg)
	fromTable := func(k string) string {
		t.Helper()
		blk, _, err := succ.findInChain(succ.bucketOf([]byte(k)), []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if blk == nil {
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
