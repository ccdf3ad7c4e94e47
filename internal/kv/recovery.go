package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"github.com/repro/sift/internal/wal"
)

// Recovery is what one store's recovery did, phase by phase: the account a
// takeover gives of itself (the promotion event, /metrics).
type Recovery struct {
	Tables    time.Duration // index table and bitmap read
	LogRead   time.Duration // every node's copy of the KV log
	Reconcile time.Duration // merging the copies
	Rewrite   time.Duration // re-encoding and comparing slots above the mark
	Replay    time.Duration // token map, cache warm-up, re-applying above the mark
	Total     time.Duration

	Mark       uint64 // largest applied mark a valid entry carried
	Scanned    int    // entries in the log's window
	Above      int    // of those, entries above the mark
	Replayed   int    // their records, applied again
	ChainReads uint64 // remote block reads the replay cost
}

// recover rebuilds the coordinator's soft state after a key-value process
// failure (paper §4.3): it loads the index table and bitmap from replicated
// memory, merges the per-node copies of the circular KV log, and replays the
// merged log in index order, warming the cache as it goes. On a fresh
// deployment everything is zeroed and recovery is a no-op.
//
// What it replays is bounded by the applied mark (Store.mark). Every entry
// carries the mark its committer had read, and a mark only ever says what was
// true when it was read, so the largest one among the valid entries holds
// whichever node it came from. Entries at or below it are in the tables
// already: they only rebuild the idempotency-token map and warm the value
// cache. Entries above it — the few the failed process had not retired, or
// the whole window of a log written before entries carried a mark — are made
// the same on every node and applied again, which is idempotent record by
// record because every later record for the same key is replayed after it.
func (s *Store) recover() error {
	r := &s.recovery
	start := time.Now()
	lap := func(d *time.Duration, since time.Time) time.Time {
		now := time.Now()
		*d = now.Sub(since)
		return now
	}

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
	at := lap(&r.Tables, start)

	// Merge the per-node copies of the KV log. An entry committed by the old
	// process was durable on a majority, so it appears in at least one copy.
	areas, err := s.mem.DirectReadAll(0, s.kvGeo.TotalSize())
	if err != nil {
		return fmt.Errorf("kv recovery: log read: %w", err)
	}
	at = lap(&r.LogRead, at)
	entries := wal.Reconcile(s.kvGeo, areas)
	for _, e := range entries {
		r.Mark = max(r.Mark, markOf(e))
	}
	r.Scanned = len(entries)
	at = lap(&r.Reconcile, at)

	// Resolve the idempotency tokens, in index order. Recovery runs before
	// the appliers start, so the map is ours alone — no lock needed.
	recs := make([][]record, len(entries))
	for i, e := range entries {
		rs, err := recordsOf(e)
		if err != nil {
			continue // unreadable entry: skip (was never decodable)
		}
		if rs[0].op == opBatchToken {
			tok := string(rs[0].key)
			if prev, dup := s.dedup[tok]; dup && prev != e.Index {
				// A retried idempotent batch double-committed (the first
				// attempt failed at its coordinator but reached a node, and
				// this recovery or an earlier one found it). The lower-index
				// entry is the one that is applied; applying this one too
				// could clobber writes that legitimately interleaved between
				// the two commits. Its slot is cleared below, so that no
				// later recovery takes it for an applied entry.
				s.stats.batchDedupHits.Add(1)
				continue
			}
			// Register so post-recovery retries of this batch dedup against
			// the replayed commit.
			s.dedup[tok] = e.Index
		}
		recs[i] = rs
	}

	// Make the nodes' logs consistent with the merged view above the mark, so
	// a subsequent recovery (before this window fully turns over) replays the
	// same log: an entry to replay is on every node as it was decoded, and a
	// slot that holds no entry of the window, or a skipped duplicate, is
	// zeroes. At or below the mark nothing is compared or written: a majority
	// holds each of those entries, and whatever else a node has in such a slot
	// is older and stays outside every later window.
	occupied := make([]bool, s.kvGeo.Slots)
	var slotBuf []byte
	zeros := make([]byte, s.kvGeo.SlotSize)
	settle := func(slot int, want []byte) (wrote bool, err error) {
		off := slot * s.kvGeo.SlotSize
		for _, area := range areas {
			if area != nil && !bytes.Equal(area[off:off+len(want)], want) {
				if err := s.mem.DirectWrite(uint64(off), want); err != nil {
					return false, fmt.Errorf("kv recovery: log rewrite: %w", err)
				}
				return true, nil
			}
		}
		return false, nil
	}
	for i, e := range entries {
		slot := int(e.Index % uint64(s.kvGeo.Slots))
		if e.Index <= r.Mark {
			occupied[slot] = true
			continue
		}
		r.Above++
		if recs[i] == nil {
			continue // skipped duplicate or undecodable: cleared with the empty slots
		}
		occupied[slot] = true
		if slotBuf == nil {
			slotBuf = make([]byte, s.kvGeo.SlotSize)
		}
		n, err := e.Encode(slotBuf)
		if err != nil {
			return fmt.Errorf("kv recovery: re-encode: %w", err)
		}
		clear(slotBuf[n:])
		wrote, err := settle(slot, slotBuf)
		if err != nil {
			return err
		}
		if wrote {
			// The write returns at a majority; the node still to complete
			// it reads the buffer until then. Only an unwritten one is reused.
			slotBuf = nil
		}
	}
	for slot, full := range occupied {
		if !full {
			if _, err := settle(slot, zeros); err != nil {
				return err
			}
		}
	}
	at = lap(&r.Rewrite, at)

	// Replay in index order, populating the cache as we go (§6.5: "while the
	// log is being replayed, the cache is populated in parallel"). An entry at
	// or below the mark only warms the cache, unpinned. One above it goes
	// through the appliers' own batch path, a window of applyBatchMax records
	// at a time: each record is pinned in the cache like a fresh commit, so
	// its block's location is recorded as the batch settles, and the new
	// coordinator's first put to a replayed key costs no chain walk.
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
		r.Replayed += len(batch)
		batch = batch[:0]
		return nil
	}
	for i, e := range entries {
		maxIdx = e.Index // entries are in index order
		applied := e.Index <= r.Mark
		for _, rec := range recs[i] {
			if rec.op == opBatchToken {
				continue // log metadata, not a key: stays out of the cache
			}
			value := rec.value
			if rec.op == opDelete {
				value = nil
			}
			key := string(rec.key)
			s.cache.put(key, value, !applied, e.Index)
			if applied {
				continue
			}
			batch = append(batch, &applyTask{idx: e.Index, rec: rec, key: key, ok: true})
			if len(batch) == applyBatchMax {
				if err := replay(); err != nil {
					return err
				}
			}
		}
	}
	if err := replay(); err != nil {
		return err
	}
	if maxIdx+1 > s.nextIdx {
		s.nextIdx = maxIdx + 1
	}
	// Everything in the window is now applied, and every slot above the old
	// mark is the same on all nodes: the new process starts with nothing held.
	s.watermark = s.nextIdx - 1
	s.mark = s.watermark
	r.ChainReads = s.stats.chainReads.Load()
	lap(&r.Replay, at)
	r.Total = time.Since(start)
	return nil
}
