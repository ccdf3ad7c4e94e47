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
	if _, err := s.commit(recs...); err != nil {
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
	all = append(all, newRecord(opBatchToken, token, nil))
	all = append(all, recs...)
	idx, err := s.commit(all...)
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
		recs[i] = newRecord(op, p.Key, p.Value)
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
