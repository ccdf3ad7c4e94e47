package kv

import "fmt"

// PutBatch commits several updates atomically: the whole batch occupies a
// single KV log entry, so after any coordinator failure either every
// update in the batch is replayed or none is, and no other conflicting
// write interleaves between them — the §3.3.2 multi-write commit interface
// surfaced at the key-value level.
//
// The batch must fit in one log slot: with the default sizing that is one
// full-size record, so batched updates should use proportionally smaller
// values (the slot holds MaxKey+MaxValue bytes of payload in total, plus
// per-record framing). Deletes are expressed as nil values.
func (s *Store) PutBatch(pairs []Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	recs, err := s.recsForPairs(pairs)
	if err != nil {
		return err
	}
	if _, err := s.commitBatch(recs); err != nil {
		return err
	}
	s.countBatch(recs)
	return nil
}

// PutBatchIdem is PutBatch with at-most-once semantics under retry: the
// batch commits tagged with the caller-chosen token (an opBatchToken record
// leads the log entry), and a later PutBatchIdem with the same token is a
// no-op if the tagged entry is still within the circular log's active
// window. The dedup set is rebuilt from the log during coordinator
// recovery, so a retry after an ambiguous failure (client saw an error, but
// the entry was durable and a new coordinator replayed it) does not apply
// the batch a second time — which could otherwise resurrect values that a
// concurrent writer had since overwritten.
//
// An empty token degrades to plain PutBatch.
func (s *Store) PutBatchIdem(token []byte, pairs []Pair) error {
	if len(token) == 0 {
		return s.PutBatch(pairs)
	}
	if len(pairs) == 0 {
		return nil
	}
	if len(token) > s.cfg.MaxKey {
		return fmt.Errorf("%w: token %d B (max %d)", ErrTooLarge, len(token), s.cfg.MaxKey)
	}
	tok := string(token)
	s.dedupMu.Lock()
	_, dup := s.dedup[tok]
	s.dedupMu.Unlock()
	if dup {
		s.stats.batchDedupHits.Add(1)
		return nil
	}
	recs, err := s.recsForPairs(pairs)
	if err != nil {
		return err
	}
	all := make([]record, 0, len(recs)+1)
	all = append(all, record{op: opBatchToken, key: append([]byte(nil), token...)})
	all = append(all, recs...)
	idx, err := s.commitBatch(all)
	if err != nil {
		return err
	}
	s.registerToken(tok, idx)
	s.countBatch(recs)
	return nil
}

// recsForPairs validates and copies a batch's pairs into log records.
func (s *Store) recsForPairs(pairs []Pair) ([]record, error) {
	recs := make([]record, len(pairs))
	for i, p := range pairs {
		if len(p.Key) == 0 || len(p.Key) > s.cfg.MaxKey {
			return nil, fmt.Errorf("%w: key %d B (max %d)", ErrTooLarge, len(p.Key), s.cfg.MaxKey)
		}
		if len(p.Value) > s.cfg.MaxValue {
			return nil, fmt.Errorf("%w: value %d B (max %d)", ErrTooLarge, len(p.Value), s.cfg.MaxValue)
		}
		op := byte(opPut)
		if p.Value == nil {
			op = opDelete
		}
		recs[i] = record{
			op:    op,
			key:   append([]byte(nil), p.Key...),
			value: append([]byte(nil), p.Value...),
		}
	}
	return recs, nil
}

// countBatch bumps the per-op counters for a committed batch.
func (s *Store) countBatch(recs []record) {
	for _, r := range recs {
		switch r.op {
		case opDelete:
			s.stats.deletes.Add(1)
		case opPut:
			s.stats.puts.Add(1)
		}
	}
}

// registerToken records that token committed at idx, pruning tokens whose
// entries have left the log's active window (a retry that late would find
// nothing to dedup against after a recovery either, so keeping them would
// only grow the map).
func (s *Store) registerToken(tok string, idx uint64) {
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	s.dedup[tok] = idx
	if len(s.dedup) > 2*s.kvGeo.Slots {
		floor := uint64(0)
		if idx > uint64(s.kvGeo.Slots) {
			floor = idx - uint64(s.kvGeo.Slots)
		}
		for t, i := range s.dedup {
			if i < floor {
				delete(s.dedup, t)
			}
		}
	}
}

// Pair is one update in a PutBatch. A nil Value deletes the key.
type Pair struct {
	Key   []byte
	Value []byte
}

// commitBatch reserves one log index for all records, enqueues their
// applies (to the shards their keys hash to, in batch order), writes the
// single log slot, and updates the cache. It returns the log index the
// batch committed at.
func (s *Store) commitBatch(recs []record) (uint64, error) {
	tasks := make([]*applyTask, len(recs))
	committed := make(chan struct{})

	s.seqMu.Lock()
	for s.nextIdx > s.watermark+uint64(s.kvGeo.Slots) && !s.closed.Load() {
		s.seqCond.Wait()
	}
	if s.closed.Load() {
		s.seqMu.Unlock()
		return 0, ErrClosed
	}
	idx := s.nextIdx
	s.nextIdx++
	// All records share the log index, which retires with the last of them.
	s.unapplied[idx%uint64(s.kvGeo.Slots)] = int32(len(recs))
	mark := s.mark
	for i, r := range recs {
		t := &applyTask{idx: idx, rec: r, key: string(r.key), committed: committed}
		if s.cfg.SyncApply {
			t.applied = make(chan struct{})
		}
		tasks[i] = t
		shard := s.bucketOf(r.key) % uint64(len(s.shards))
		s.shards[shard].push(t)
	}
	s.seqMu.Unlock()

	entry := batchEntryFor(idx, mark, recs)
	slot := s.getSlot()
	n, err := entry.Encode(slot)
	if err == nil {
		clear(slot[n:]) // pooled buffers carry old payloads past the entry
		err = s.mem.DirectWriteOwned(s.kvGeo.SlotOffset(idx), slot, func() { s.putSlot(slot) })
	} else {
		s.putSlot(slot)
	}
	if err != nil {
		for _, t := range tasks {
			t.ok = false
		}
		close(committed)
		return 0, err
	}
	for _, t := range tasks {
		switch t.rec.op {
		case opBatchToken:
			// Tokens are log metadata, not keys: keep them out of the cache.
		case opDelete:
			s.cache.put(t.key, nil, true, idx)
		default:
			s.cache.put(t.key, t.rec.value, true, idx)
		}
		t.ok = true
	}
	close(committed)
	if s.cfg.SyncApply {
		for _, t := range tasks {
			<-t.applied
			if t.applyErr != nil {
				return 0, t.applyErr
			}
		}
		s.holdAck()
	}
	return idx, nil
}
