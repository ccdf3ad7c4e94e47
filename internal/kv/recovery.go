package kv

import (
	"encoding/binary"
	"fmt"

	"github.com/repro/sift/internal/wal"
)

// recover rebuilds the coordinator's soft state after a key-value process
// failure (paper §4.3): it loads the index table and bitmap from replicated
// memory, merges the per-node copies of the circular KV log, replays the
// merged log in index order, and warms the cache with the replayed values.
// On a fresh deployment everything is zeroed and recovery is a no-op.
//
// Replay is idempotent and, because every entry in the log's active window
// is still present, replaying the full window in order converges to exactly
// the state the failed process had committed.
func (s *Store) recover() error {
	// Index table.
	idxBuf := make([]byte, s.cfg.IndexBytes())
	if err := s.mem.Read(0, idxBuf); err != nil {
		return fmt.Errorf("kv recovery: index table: %w", err)
	}
	for b := range s.index {
		s.index[b] = binary.LittleEndian.Uint64(idxBuf[b*8:])
	}
	// Bitmap.
	if err := s.mem.Read(s.bitmapBase, s.bitmap); err != nil {
		return fmt.Errorf("kv recovery: bitmap: %w", err)
	}

	// Merge the per-node copies of the KV log. An entry committed by the old
	// process was durable on a majority, so it appears in at least one copy.
	areas, err := s.mem.DirectReadAll(0, s.kvGeo.TotalSize())
	if err != nil {
		return fmt.Errorf("kv recovery: log read: %w", err)
	}
	entries := wal.Reconcile(s.kvGeo, areas)

	// Make the nodes' logs consistent with the merged view so a subsequent
	// recovery (before this window fully turns over) sees the same log.
	desired := make(map[int][]byte, len(entries))
	for _, e := range entries {
		slot := make([]byte, s.kvGeo.SlotSize)
		if _, err := e.Encode(slot); err != nil {
			return fmt.Errorf("kv recovery: re-encode: %w", err)
		}
		desired[int(e.Index%uint64(s.kvGeo.Slots))] = slot
	}
	zeros := make([]byte, s.kvGeo.SlotSize)
	for slot := 0; slot < s.kvGeo.Slots; slot++ {
		want, ok := desired[slot]
		if !ok {
			want = zeros
		}
		differs := false
		for _, area := range areas {
			if area == nil {
				continue
			}
			have := area[slot*s.kvGeo.SlotSize : (slot+1)*s.kvGeo.SlotSize]
			if !bytesEqual(have, want) {
				differs = true
				break
			}
		}
		if differs {
			if err := s.mem.DirectWrite(uint64(slot*s.kvGeo.SlotSize), want); err != nil {
				return fmt.Errorf("kv recovery: log rewrite: %w", err)
			}
		}
	}

	// Replay in index order through the appliers' own batch path, a window of
	// applyBatchMax records at a time, populating the cache as we go (§6.5:
	// "while the log is being replayed, the cache is populated in parallel").
	// Each record is pinned in the cache like a fresh commit, so its block's
	// location is recorded as the batch settles, and the new coordinator's
	// first put to a replayed key costs no chain walk.
	var maxIdx uint64
	ov := newOverlay()
	batch := make([]*applyTask, 0, applyBatchMax)
	replay := func() error {
		s.applyBatch(ov, batch)
		for _, t := range batch {
			if t.applyErr != nil {
				return fmt.Errorf("kv recovery: replay %d: %w", t.idx, t.applyErr)
			}
		}
		batch = batch[:0]
		return nil
	}
	for _, e := range entries {
		recs, err := recordsOf(e)
		if err != nil {
			continue // unreadable entry: skip (was never decodable)
		}
		if len(recs) > 0 && recs[0].op == opBatchToken {
			tok := string(recs[0].key)
			if prev, dup := s.dedup[tok]; dup && prev != e.Index {
				// A retried idempotent batch double-committed (the first
				// attempt was durable but its ack was lost). The lower-index
				// entry already applied; re-applying here could clobber
				// writes that legitimately interleaved between the two
				// commits. Skip, but still resolve the index.
				s.stats.batchDedupHits.Add(1)
				if e.Index > maxIdx {
					maxIdx = e.Index
				}
				continue
			}
			// Register so post-recovery retries of this batch dedup against
			// the replayed commit. Replay runs before the appliers start, so
			// the map is ours alone — no lock needed.
			s.dedup[tok] = e.Index
		}
		for _, rec := range recs {
			t := &applyTask{idx: e.Index, rec: rec, key: string(rec.key), ok: true}
			switch rec.op {
			case opBatchToken:
				// Log metadata, not a key: stays out of the cache.
			case opDelete:
				s.cache.put(t.key, nil, true, e.Index)
			default:
				s.cache.put(t.key, rec.value, true, e.Index)
			}
			if batch = append(batch, t); len(batch) == applyBatchMax {
				if err := replay(); err != nil {
					return err
				}
			}
		}
		if e.Index > maxIdx {
			maxIdx = e.Index
		}
	}
	if err := replay(); err != nil {
		return err
	}
	if maxIdx+1 > s.nextIdx {
		s.nextIdx = maxIdx + 1
	}
	s.watermark = s.nextIdx - 1
	return nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
