package kv

import (
	"bytes"
	"fmt"
	"slices"

	"github.com/repro/sift/internal/wal"
)

// The background apply (paper §4.2's second phase) works a batch at a time.
// An applier takes every committed record queued for its shard, replays them
// in log order against an in-memory overlay of the block images, index words
// and bitmap bytes they change, and then writes the overlay out in at most
// three ordered flights, each one vectored request per memory node
// (DESIGN.md §8, "Batched apply").

// applyBatchMax bounds how many records an applier materializes as one
// batch, which bounds how long a bucket stays locked against gets and how
// many segments one request to a memory node carries. Like repmem's
// nodeFlightMax it is a bound, not a window: a batch is whatever has queued
// while the applier was busy (about six records at put_sat's saturation).
// The bound is what the apply rate rests on when flights are slow: a flight
// must complete on every node, so over 2 ms links with 16 writers it waits
// ~80 ms behind what majority commits leave queued at the slowest node, and
// four appliers retire at most 4 × applyBatchMax records per 80 ms. At 64
// that is the commit ceiling itself (~3 k puts/s) and a backlog never
// drains; at 256 the appliers outrun the committers four times over.
const applyBatchMax = 256

// applyTask carries a committed log entry to its shard's applier. Tasks are
// enqueued in log-index order under the sequence lock, so per-key apply
// order always matches commit order.
type applyTask struct {
	idx       uint64
	rec       record
	key       string        // rec.key, as the cache and the overlay index it
	committed chan struct{} // closed once the log write resolves
	ok        bool          // valid after committed is closed
	// applied, when non-nil (SyncApply mode), is closed once the record has
	// been materialized in replicated memory; applyErr is valid after.
	applied  chan struct{}
	applyErr error
}

// resolved reports whether the task's commit has succeeded or failed.
func (t *applyTask) resolved() bool {
	select {
	case <-t.committed:
		return true
	default:
		return false
	}
}

// ovBlock is one data block as a batch sees it: the image replicated memory
// holds (read, or taken on trust from the key's cached location, in which
// case the old value is unknown and is about to be replaced or freed), with
// the batch's changes on top. A freed block keeps its key, so that the key's
// location can be forgotten when the batch settles.
type ovBlock struct {
	idx      uint64
	blk      block
	buf      []byte // the buffer blk was decoded from, reused for its new image
	dirty    bool
	fresh    bool // allocated by this batch: nothing points to it yet
	relinked bool // next differs from what replicated memory holds
}

// overlay is one applier's working set, reused from batch to batch so that a
// steady-state batch allocates no buffer. Blocks keep the order the batch
// first met them in, which makes the flights deterministic.
type overlay struct {
	live    []*applyTask     // the batch's committed data records, in log order
	names   []string         // their keys
	locs    []location       // their keys' cached locations when the batch began
	keys    map[string]int32 // keys the batch has met -> position in blocks, -1 once absent
	blocks  []ovBlock
	at      map[uint64]int32 // block index -> position in blocks
	buckets []uint64         // index words changed
	allocs  []uint64         // blocks taken from the bitmap
	frees   []uint64         // blocks to give back
	stripes []int            // bucket lock stripes held, ascending

	bitmapHeld bool
	absorbed   int // records superseded by a later record of the same batch
	located    int // records whose block was known without a chain walk

	stage   [3][]wal.Write
	bufs    [][]byte // block-image arena; used counts the ones taken
	used    int
	small   []byte // arena for index words and bitmap bytes
	settled []keyLoc
}

func newOverlay() *overlay {
	return &overlay{keys: make(map[string]int32), at: make(map[uint64]int32)}
}

// reset forgets the previous batch, dropping every reference to its records
// while keeping the buffers.
func (ov *overlay) reset() {
	clear(ov.live)
	clear(ov.names)
	clear(ov.blocks)
	clear(ov.settled)
	clear(ov.keys)
	clear(ov.at)
	for i := range ov.stage {
		clear(ov.stage[i])
		ov.stage[i] = ov.stage[i][:0]
	}
	ov.live, ov.names, ov.locs, ov.blocks, ov.settled = ov.live[:0], ov.names[:0], ov.locs[:0], ov.blocks[:0], ov.settled[:0]
	ov.buckets, ov.allocs, ov.frees, ov.stripes = ov.buckets[:0], ov.allocs[:0], ov.frees[:0], ov.stripes[:0]
	ov.small = ov.small[:0]
	ov.used = 0
}

// getBuf takes a stride-sized buffer from the arena.
func (ov *overlay) getBuf(stride int) []byte {
	if ov.used == len(ov.bufs) {
		ov.bufs = append(ov.bufs, make([]byte, stride))
	}
	ov.used++
	return ov.bufs[ov.used-1]
}

// smallBuf takes n bytes from the small arena. Growing the arena leaves
// earlier slices pointing at the old array, which stays valid.
func (ov *overlay) smallBuf(n int) []byte {
	at := len(ov.small)
	ov.small = append(ov.small, make([]byte, n)...)
	return ov.small[at : at+n : at+n]
}

func (ov *overlay) add(b ovBlock) int32 {
	slot := int32(len(ov.blocks))
	ov.blocks = append(ov.blocks, b)
	ov.at[b.idx] = slot
	return slot
}

// load returns the overlay position of data block i, reading the block from
// replicated memory the first time the batch meets it.
func (s *Store) load(ov *overlay, i uint64) (int32, error) {
	if slot, ok := ov.at[i]; ok {
		return slot, nil
	}
	buf := ov.getBuf(s.stride)
	if err := s.mem.Read(s.blockAddr(i), buf); err != nil {
		return -1, err
	}
	s.stats.chainReads.Add(1)
	blk, err := s.decodeBlock(buf)
	if err != nil {
		return -1, err
	}
	return ov.add(ovBlock{idx: i, blk: blk, buf: buf}), nil
}

// find walks bucket's chain, as the batch has left it so far, looking for
// key. It returns the block's overlay position, -1 if the key is absent.
func (s *Store) find(ov *overlay, bucket uint64, key []byte) (int32, error) {
	for cur := s.index[bucket]; cur != 0; {
		slot, err := s.load(ov, cur-1)
		if err != nil {
			return -1, err
		}
		b := &ov.blocks[slot].blk
		if b.used && bytes.Equal(b.key, key) {
			return slot, nil
		}
		cur = b.next
	}
	return -1, nil
}

// unlink takes block idx, whose next pointer is next, out of bucket's chain:
// the bucket's index word when the block is the head, otherwise its
// predecessor's next pointer, found by walking from the head. A cached
// location carries no back pointer, so this walk is the price of a delete.
func (s *Store) unlink(ov *overlay, bucket, idx, next uint64) error {
	if s.index[bucket] == idx+1 {
		s.index[bucket] = next
		ov.touchBucket(bucket)
		return nil
	}
	for cur := s.index[bucket]; cur != 0; {
		slot, err := s.load(ov, cur-1)
		if err != nil {
			return err
		}
		p := &ov.blocks[slot]
		if p.blk.next == idx+1 {
			p.blk.next = next
			p.dirty, p.relinked = true, true
			return nil
		}
		cur = p.blk.next
	}
	return fmt.Errorf("kv: block %d is not in bucket %d's chain", idx, bucket)
}

func (ov *overlay) touchBucket(bucket uint64) {
	if !slices.Contains(ov.buckets, bucket) {
		ov.buckets = append(ov.buckets, bucket)
	}
}

// replay applies live record i to the overlay. Every step that can fail
// comes before the first change, so a failed record leaves the overlay as it
// found it and the rest of the batch goes on.
func (s *Store) replay(ov *overlay, i int, r record) error {
	if r.op != opPut && r.op != opDelete {
		return fmt.Errorf("kv: unknown opcode %d", r.op)
	}
	key := ov.names[i]
	bucket := s.bucketOf(r.key)
	slot, seen := ov.keys[key]
	switch loc := ov.locs[i]; {
	case seen:
		// A second record for the key: the first is absorbed into the same
		// image, wherever it left the key.
		ov.absorbed++
		ov.located++
	case loc.blk != 0:
		// Located: the block is rewritten (or freed) without being read.
		var ok bool
		if slot, ok = ov.at[uint64(loc.blk-1)]; !ok {
			slot = ov.add(ovBlock{idx: uint64(loc.blk - 1), blk: block{used: true, key: r.key, next: uint64(loc.next)}})
		}
		ov.located++
	default:
		var err error
		if slot, err = s.find(ov, bucket, r.key); err != nil {
			return err
		}
	}

	switch {
	case r.op == opPut && slot >= 0:
		b := &ov.blocks[slot]
		b.blk.value, b.dirty = r.value, true
	case r.op == opPut:
		// Insert at the chain head. The bitmap stays locked from the first
		// allocation of the batch until the flight carrying the changed bytes
		// has completed (see flush).
		if !ov.bitmapHeld {
			s.bitmapMu.Lock()
			ov.bitmapHeld = true
		}
		idx, err := s.allocBlock()
		if err != nil {
			return err
		}
		ov.allocs = append(ov.allocs, idx)
		slot = ov.add(ovBlock{idx: idx, dirty: true, fresh: true,
			blk: block{used: true, key: r.key, value: r.value, next: s.index[bucket]}})
		s.index[bucket] = idx + 1
		ov.touchBucket(bucket)
	case slot >= 0:
		b := &ov.blocks[slot]
		if err := s.unlink(ov, bucket, b.idx, b.blk.next); err != nil {
			return err
		}
		b = &ov.blocks[slot] // unlink may have grown the slice
		b.blk.used, b.dirty = false, true
		ov.frees = append(ov.frees, b.idx)
		slot = -1
	}
	ov.keys[key] = slot
	return nil
}

// applyBatch materializes committed records — tasks, in log order, all with
// their commit resolved — in the hash-table structures (paper §4.2's "apply"
// step), and sets each task's applyErr. Tasks whose commit failed and batch
// tokens have nothing to materialize. It is the one apply path: the
// appliers, PutBatch's records and recovery's replay all come through here.
// Replaying a record again is harmless, so replay may repeat any of it.
func (s *Store) applyBatch(ov *overlay, tasks []*applyTask) {
	ov.absorbed, ov.located = 0, 0
	for from := 0; from < len(tasks); {
		from += s.applyRun(ov, tasks[from:])
	}
}

// applyRun replays tasks against a fresh overlay and flushes it, and returns
// how many of them that settled: all, except when an insert finds the store
// full while blocks this run has freed are still waiting for their flight.
// The run then ends before that record, its flights give the blocks back, and
// the next run starts with it — what a full store could do one record at a
// time it can still do a batch at a time.
func (s *Store) applyRun(ov *overlay, tasks []*applyTask) (done int) {
	ov.reset()
	for _, t := range tasks {
		if t.ok && t.rec.op != opBatchToken {
			ov.live = append(ov.live, t)
			ov.names = append(ov.names, t.key)
			if stripe := int(s.bucketOf(t.rec.key) % bucketStripes); !slices.Contains(ov.stripes, stripe) {
				ov.stripes = append(ov.stripes, stripe)
			}
		}
	}
	if len(ov.live) == 0 {
		return len(tasks)
	}
	// The batch's buckets stay locked against gets until their chains are
	// whole again in replicated memory. Ascending order, because two
	// appliers' stripe sets overlap when ApplyShards does not divide the
	// stripe count.
	slices.Sort(ov.stripes)
	for _, st := range ov.stripes {
		s.bucketLocks[st].Lock()
	}
	ov.locs = s.cache.locate(ov.names, ov.locs)
	done = len(tasks)
	for i, t := range ov.live {
		if t.applyErr = s.replay(ov, i, t.rec); t.applyErr == ErrFull && len(ov.frees) > 0 {
			t.applyErr = nil
			ov.live, ov.names = ov.live[:i], ov.names[:i]
			done = slices.Index(tasks, t)
			break
		}
	}
	err := s.flush(ov)
	if err != nil {
		for _, t := range ov.live {
			if t.applyErr == nil {
				t.applyErr = err
			}
		}
	}
	// Locations are recorded before the buckets unlock: the next batch to
	// touch these buckets, this applier's own, finds them exact.
	s.cache.settle(ov.names, ov.locations(err == nil))
	for _, st := range ov.stripes {
		s.bucketLocks[st].Unlock()
	}
	return done
}

// locations lists where the batch left every key it touched or walked past:
// a freed block's key has no location any more, a used block's key is at
// that block — in that order, so a key deleted and put again ends at its new
// block. After a failed flush nothing is known, and every key is forgotten.
func (ov *overlay) locations(flushed bool) []keyLoc {
	for i := range ov.blocks {
		if b := &ov.blocks[i]; !b.blk.used || !flushed {
			ov.settled = append(ov.settled, keyLoc{key: b.blk.key})
		}
	}
	for i := range ov.blocks {
		if b := &ov.blocks[i]; b.blk.used && flushed {
			ov.settled = append(ov.settled, keyLoc{key: b.blk.key, loc: location{blk: uint32(b.idx + 1), next: uint32(b.blk.next)}})
		}
	}
	return ov.settled
}

// flush writes the overlay to replicated memory in up to three flights, each
// complete on every waited-on node before the next is submitted:
//
//  1. new blocks, blocks rewritten in place, and the bitmap bytes whose bits
//     the batch set;
//  2. index words, and blocks that stay in a chain with a changed next
//     pointer (the predecessor of an unlinked block);
//  3. zeroes over the freed blocks, and the bitmap bytes whose bits it clears.
//
// Readers that take no bucket lock — a backup's ChainReader — and a
// successor replaying the log after a crash between flights therefore never
// follow a pointer to a block that has not been written (1 before 2) and
// never find a linked block zeroed or handed to another key (2 before 3). A
// batch of in-place puts is flight 1 alone.
func (s *Store) flush(ov *overlay) error {
	for i := range ov.blocks {
		b := &ov.blocks[i]
		if !b.dirty {
			continue
		}
		w := wal.Write{Addr: s.blockAddr(b.idx), Data: s.zeroBlock}
		stage := 2
		if b.blk.used {
			if b.buf == nil {
				b.buf = ov.getBuf(s.stride)
			}
			s.encodeBlock(b.buf, b.blk)
			w.Data = b.buf
			stage = 0
			if b.relinked && !b.fresh {
				stage = 1
			}
		}
		ov.stage[stage] = append(ov.stage[stage], w)
	}
	for _, bucket := range ov.buckets {
		word := ov.smallBuf(8)
		putUint64(word, s.index[bucket])
		ov.stage[1] = append(ov.stage[1], wal.Write{Addr: s.indexAddr(bucket), Data: word})
	}

	// Two shards' batches can change bits of one bitmap byte, and each writes
	// its own snapshot of the byte. bitmapMu is therefore held from the bit
	// change until the flight carrying the snapshot has completed everywhere:
	// released any earlier, an older snapshot could land after a newer one and
	// un-set its bit in replicated memory only, and the next coordinator would
	// hand an in-use block to a new key.
	s.bitmapWrites(ov, 0, ov.allocs)
	err := s.writeStage(ov.stage[0])
	if ov.bitmapHeld {
		s.bitmapMu.Unlock()
		ov.bitmapHeld = false
	}
	if err == nil {
		err = s.writeStage(ov.stage[1])
	}
	if err != nil || len(ov.frees) == 0 {
		return err
	}
	s.bitmapMu.Lock()
	defer s.bitmapMu.Unlock()
	for _, i := range ov.frees {
		s.bitmap[i/8] &^= 1 << (i % 8)
		s.freeHint = min(s.freeHint, int(i))
	}
	s.bitmapWrites(ov, 2, ov.frees)
	return s.writeStage(ov.stage[2])
}

// bitmapWrites adds to a stage one write per bitmap byte holding a bit of
// blocks, each the byte's current value. Caller holds bitmapMu.
func (s *Store) bitmapWrites(ov *overlay, stage int, blocks []uint64) {
	first := len(ov.stage[stage])
	for _, i := range blocks {
		addr := s.bitmapBase + i/8
		if slices.ContainsFunc(ov.stage[stage][first:], func(w wal.Write) bool { return w.Addr == addr }) {
			continue
		}
		b := ov.smallBuf(1)
		b[0] = s.bitmap[i/8]
		ov.stage[stage] = append(ov.stage[stage], wal.Write{Addr: addr, Data: b})
	}
}

// writeStage sends one flight. The KV log provides the durability, so the
// flight is written straight to the materialized memory (§3.3.2).
func (s *Store) writeStage(writes []wal.Write) error {
	if len(writes) == 0 {
		return nil
	}
	return s.mem.WriteBatch(writes)
}

// applyLoop drains one shard's task queue, a batch at a time.
func (s *Store) applyLoop(q *shardQueue) {
	defer s.applyWG.Done()
	ov := newOverlay()
	batch := make([]*applyTask, 0, applyBatchMax)
	for {
		var ok bool
		if batch, ok = q.popBatch(batch[:0], applyBatchMax); !ok {
			return
		}
		s.applyBatch(ov, batch)
		s.retire(ov, batch)
	}
}

// retire finishes a batch the applier has materialized: SyncApply waiters
// are released, the surviving record of each key goes to the persistent
// sink, and the batch's log indices are retired together.
func (s *Store) retire(ov *overlay, batch []*applyTask) {
	applies := 0
	for _, t := range batch {
		if t.ok {
			applies++
		}
		if t.applied != nil {
			// An absorbed record is acknowledged with the batch: the image
			// that replaced it is in replicated memory, so a backup reading
			// the table after this ack sees that record's value or a later
			// one, which is all an acknowledged write promises.
			close(t.applied)
		}
	}
	// Absorbed records count as applied: Puts − Applies is the apply lag.
	s.stats.applies.Add(uint64(applies))
	s.stats.applyBatches.Add(1)
	s.stats.absorbed.Add(uint64(ov.absorbed))
	s.stats.located.Add(uint64(ov.located))

	if p := s.cfg.Persist; p != nil {
		// Synchronous persistence by the background thread (§3.5): commit
		// latency is unaffected, and the number of outstanding (unpersisted)
		// writes is bounded by the log. Only a key's last record in the batch
		// is handed over — the sink would overwrite the others at once.
		last := make(map[string]*applyTask)
		for _, t := range batch {
			if t.ok && t.rec.op != opBatchToken {
				last[t.key] = t
			}
		}
		for _, t := range batch {
			if last[t.key] != t {
				continue
			}
			if t.rec.op == opDelete {
				p.Delete(t.rec.key) //nolint:errcheck — persistence is best-effort beside the WAL
			} else {
				p.Put(t.rec.key, t.rec.value) //nolint:errcheck
			}
		}
	}

	// Retire the log indices: an index is done when the last of its records
	// is (a PutBatch's records share one), and the watermark passes every
	// leading index that is done, freeing its circular slot. The applied mark
	// follows it as far as the lowest held index allows.
	slots := uint64(s.kvGeo.Slots)
	s.seqMu.Lock()
	for _, t := range batch {
		s.unapplied[t.idx%slots]--
		failed := !t.ok || t.applyErr != nil
		if !failed && len(s.held) == 0 {
			continue
		}
		slot := t.idx % slots
		if t.ok {
			// Committed over the slot of every index a whole number of laps
			// down: no copy of those entries can reach a successor's window
			// any more.
			s.held = slices.DeleteFunc(s.held, func(h uint64) bool { return h%slots == slot && h < t.idx })
		}
		// One held index per slot is enough, the lowest: a commit over the
		// slot releases everything below itself at once.
		if failed && !slices.ContainsFunc(s.held, func(h uint64) bool { return h%slots == slot }) {
			s.held = append(s.held, t.idx)
		}
	}
	for s.watermark+1 < s.nextIdx && s.unapplied[(s.watermark+1)%slots] == 0 {
		s.watermark++
	}
	s.mark = s.watermark
	for _, h := range s.held {
		s.mark = min(s.mark, h-1)
	}
	s.seqCond.Broadcast()
	s.seqMu.Unlock()
}
