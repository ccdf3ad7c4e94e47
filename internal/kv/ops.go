package kv

import (
	"bytes"
	"fmt"
	"time"
)

// Put stores value under key. It returns once the update is committed: the
// record is written to the circular KV log on a majority of memory nodes in
// a single RDMA round trip (paper §4.2). The hash-table update happens in
// the background.
func (s *Store) Put(key, value []byte) error {
	if len(key) > s.cfg.MaxKey || len(value) > s.cfg.MaxValue {
		return fmt.Errorf("%w: key %d B (max %d), value %d B (max %d)",
			ErrTooLarge, len(key), s.cfg.MaxKey, len(value), s.cfg.MaxValue)
	}
	if len(key) == 0 {
		return fmt.Errorf("%w: empty key", ErrTooLarge)
	}
	_, err := s.commit(newRecord(opPut, key, value))
	if err == nil {
		s.stats.puts.Add(1)
	}
	return err
}

// Delete removes key. Deleting a missing key is not an error (the record
// still commits; its apply is a no-op).
func (s *Store) Delete(key []byte) error {
	if len(key) > s.cfg.MaxKey || len(key) == 0 {
		return fmt.Errorf("%w: key %d B (max %d)", ErrTooLarge, len(key), s.cfg.MaxKey)
	}
	_, err := s.commit(newRecord(opDelete, key, nil))
	if err == nil {
		s.stats.deletes.Add(1)
	}
	return err
}

// commit reserves one log index for recs — one record for Put and Delete,
// several for a batch — enqueues their applies (to the shards their keys
// hash to, in order), writes the log slot, and updates the cache. The
// records are the store's own copies (newRecord). It returns the log index
// they committed at.
func (s *Store) commit(recs ...record) (uint64, error) {
	var one [1]*applyTask
	tasks := one[:] // a put's stays on the stack
	if len(recs) > 1 {
		tasks = make([]*applyTask, len(recs))
	}
	for i, r := range recs {
		tasks[i] = getTask()
		tasks[i].rec = r
		if s.cfg.SyncApply {
			tasks[i].applied = make(chan struct{})
		}
	}
	// The committer's references are dropped last thing, whatever the
	// outcome: an applier may retire a task the moment it is resolved.
	defer unrefAll(tasks)

	s.seqMu.Lock()
	for s.nextIdx > s.watermark+uint64(s.kvGeo.Slots) && !s.closed.Load() {
		s.seqCond.Wait()
	}
	if s.closed.Load() {
		s.seqMu.Unlock()
		unrefAll(tasks) // never queued: no retire will drop these references
		return 0, ErrClosed
	}
	idx := s.nextIdx
	s.nextIdx++
	// All records share the log index, which retires with the last of them.
	s.unapplied[idx%uint64(s.kvGeo.Slots)] = int32(len(recs))
	mark := s.mark
	for _, t := range tasks {
		t.idx = idx
		s.shards[s.bucketOf(t.rec.key)%uint64(len(s.shards))].push(t)
	}
	s.seqMu.Unlock()

	// The entry is encoded straight into a pooled slot buffer, which goes
	// back to its pool when the last node's write has resolved.
	h := s.slotPool.Get().(*slotBuf)
	n, err := encodeEntry(h.b, idx, mark, recs...)
	if err != nil {
		h.release()
	} else {
		clear(h.b[n:]) // pooled buffers carry old payloads past the entry
		err = s.mem.DirectWriteOwned(s.kvGeo.SlotOffset(idx), h.b, h.release)
	}
	if err != nil {
		for _, t := range tasks {
			t.resolve(false)
		}
		return 0, err
	}
	// Committed: the cache immediately reflects every record so gets see it
	// before the background apply lands; the pin keeps it resident until
	// then. The tasks are resolved only once all of them are in the cache.
	for _, t := range tasks {
		switch t.rec.op {
		case opBatchToken:
			// Tokens are log metadata, not keys: keep them out of the cache.
		case opDelete:
			t.key = s.cache.put(t.rec.key, nil, true, idx)
		default:
			t.key = s.cache.put(t.rec.key, t.rec.value, true, idx)
		}
	}
	for _, t := range tasks {
		t.resolve(true)
	}
	if s.cfg.SyncApply {
		// Acknowledge only once the update is materialized, so a
		// lease-holding backup that reads the table structures after this
		// ack is guaranteed to see it (the apply fan-out waits on every
		// non-excluded node).
		for _, t := range tasks {
			if <-t.applied; t.applyErr != nil {
				return 0, t.applyErr
			}
		}
		s.holdAck()
	}
	return idx, nil
}

// holdAck delays an acknowledgement until at least AckHold has passed since
// the replicated memory last excluded a node from its waited-on write set.
// A backup's view of membership can be up to a lease window stale; holding
// acks for that long after an exclusion means no backup still reading the
// excluded node can miss an acked write.
func (s *Store) holdAck() {
	if h := s.cfg.AckHold; h > 0 {
		if rem := h - s.mem.SinceExclusion(); rem > 0 {
			time.Sleep(rem)
		}
	}
}

// Get returns the value stored under key. It checks the coordinator cache
// first and falls back to walking the bucket's chain in replicated memory
// (paper §4.2). The returned slice is the caller's to keep.
func (s *Store) Get(key []byte) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.stats.gets.Add(1)
	if v, tomb, ok := s.cache.get(string(key)); ok {
		s.stats.cacheHits.Add(1)
		if tomb {
			return nil, ErrNotFound
		}
		return append([]byte(nil), v...), nil
	}
	s.stats.cacheMisses.Add(1)

	bucket := s.bucketOf(key)
	lk := s.bucketLock(bucket)
	lk.RLock()
	blk, _, err := s.findInChain(bucket, key)
	lk.RUnlock()
	if err != nil {
		return nil, err
	}
	if !blk.used {
		return nil, ErrNotFound
	}
	// blk.value is a fresh per-read buffer, so the caller can own it
	// directly; the cache gets its own copy (cached values are shared and
	// must never be handed to callers who may modify them). The walk also
	// knows where the block is, but recording that would mean taking the
	// cache's lock under the bucket's (an applier may move the block the
	// moment the bucket unlocks), which cost mix_miss 5% of its gets: only
	// appliers record locations.
	s.cache.insertClean(string(key), append([]byte(nil), blk.value...))
	return blk.value, nil
}

// slotBuf is a pooled log-slot buffer with its release, which puts it back,
// bound once at construction: a commit hands DirectWriteOwned a buffer and
// a callback without allocating either.
type slotBuf struct {
	b       []byte
	release func()
}

// findInChain walks bucket's chain in replicated memory looking for key. It
// returns the matching block (the zero block, whose used is false, if
// absent) and its block index. The block is returned by value so that the
// walk's temporaries stay on the stack. Caller holds the bucket lock.
func (s *Store) findInChain(bucket uint64, key []byte) (block, uint64, error) {
	for cur := s.index[bucket]; cur != 0; {
		blk, err := s.readBlock(cur - 1)
		if err != nil {
			return block{}, 0, err
		}
		if blk.used && bytes.Equal(blk.key, key) {
			return blk, cur - 1, nil
		}
		cur = blk.next
	}
	return block{}, 0, nil
}

// readBlock fetches data block i from replicated memory. The read covers
// the full stride so that under erasure coding it is a whole-EC-block
// reconstruction (no partial-block scratch copy).
func (s *Store) readBlock(i uint64) (block, error) {
	buf := make([]byte, s.stride)
	if err := s.mem.Read(s.blockAddr(i), buf); err != nil {
		return block{}, err
	}
	s.stats.chainReads.Add(1)
	return s.decodeBlock(buf)
}

// allocBlock takes a free block from the cached bitmap. Caller holds
// bitmapMu; the changed byte reaches replicated memory with the batch's
// first flight.
func (s *Store) allocBlock() (uint64, error) {
	n := s.cfg.Capacity
	for scanned := 0; scanned < n; scanned++ {
		i := (s.freeHint + scanned) % n
		if s.bitmap[i/8]&(1<<(i%8)) == 0 {
			s.bitmap[i/8] |= 1 << (i % 8)
			s.freeHint = (i + 1) % n
			return uint64(i), nil
		}
	}
	return 0, ErrFull
}

func putUint64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
