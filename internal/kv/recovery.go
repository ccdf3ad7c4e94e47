package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/repro/sift/internal/repmem"
	"github.com/repro/sift/internal/wal"
)

// Recovery is what one store's recovery did, phase by phase: the account a
// takeover gives of itself (the promotion event, /metrics).
type Recovery struct {
	Tables    time.Duration // index table and bitmap read
	Scan      time.Duration // every node's head of every log slot
	LogRead   time.Duration // every node's copy of the slots read in full
	Reconcile time.Duration // merging the copies
	Rewrite   time.Duration // re-encoding and comparing slots above the mark
	Replay    time.Duration // token map and re-applying above the mark
	Total     time.Duration

	Mark       uint64 // largest applied mark a valid entry carried
	Scanned    int    // entries in the log's window
	ReadSlots  int    // slots read in full
	Above      int    // of the window's entries, those above the mark
	Replayed   int    // their records, applied again
	ChainReads uint64 // remote block reads the replay cost
}

// recover rebuilds the coordinator's soft state after a key-value process
// failure (paper §4.3): it loads the index table and bitmap from replicated
// memory, merges the per-node copies of the circular KV log, and replays what
// the failed process had not applied, in index order. On a fresh deployment
// everything is zeroed and recovery is a no-op.
//
// What it reads and replays is bounded by the applied mark (Store.mark), the
// largest mark a valid entry carries: entries at or below it are in the
// tables, and of them only the idempotency tokens are needed; entries above
// it are made the same on every node and applied again, which is idempotent
// record by record. So a scan first reads every slot's head from every node,
// and the largest mark the heads carry is the hint h. Only the slots whose
// heads name an index above h, or an idempotent batch, are read in full; if
// the verified mark r falls short of h, so are those naming (r, h]. Every
// slot whose newest copy could hold an index above the mark is thus read in
// full from every node that answered (DESIGN.md §8).
func (s *Store) recover() error {
	r := &s.recovery
	start := time.Now()
	lap := func(d *time.Duration, since time.Time) time.Time {
		now := time.Now()
		*d += now.Sub(since)
		return now
	}

	if err := s.readTables(); err != nil {
		return err
	}
	at := lap(&r.Tables, start)

	// Scan every node's head of every slot. A head naming an index of
	// another slot is garbage and names nothing; a mark at or above its own
	// entry's index cannot have been read when that index was reserved.
	geo := s.kvGeo
	n := uint64(geo.Slots)
	spans := make([]repmem.Span, geo.Slots)
	for slot := range spans {
		spans[slot] = repmem.Span{Addr: uint64(slot * geo.SlotSize), Size: wal.HeadSize}
	}
	scan, err := s.mem.DirectReadAll(spans...)
	if err != nil {
		return fmt.Errorf("kv recovery: log scan: %w", err)
	}
	scan = slices.DeleteFunc(scan, func(row []byte) bool { return row == nil })
	// The passes over the heads test what is cheap first: the residue check
	// divides, and a healthy log has a head in every slot of every node.
	var hint uint64
	for _, row := range scan {
		for slot := 0; slot < geo.Slots; slot++ {
			if h := wal.ParseHead(row[slot*wal.HeadSize:]); h.Addr > hint && h.Addr < h.Index && h.Index%n == uint64(slot) {
				hint = h.Addr
			}
		}
	}
	at = lap(&r.Scan, at)

	// Read in full, from every node, the slots whose head on some node names
	// an index above the hint, or an idempotent batch; reconcile them.
	read := make(map[int][][]byte) // a slot's copies, once read in full
	fetched := make([]bool, geo.Slots)
	var readSlots []int
	want := func(lo, hi uint64, tokens bool) (slots []int) {
		for slot := 0; slot < geo.Slots; slot++ {
			if fetched[slot] {
				continue
			}
			for _, row := range scan {
				h := wal.ParseHead(row[slot*wal.HeadSize:])
				if (lo < h.Index && h.Index <= hi || tokens && h.Index != 0 && h.First == opBatchToken) && h.Index%n == uint64(slot) {
					slots = append(slots, slot)
					break
				}
			}
		}
		return slots
	}
	var entries []wal.Entry
	floor, slots := hint, want(hint, math.MaxUint64, true)
	for {
		if len(slots) > 0 {
			spans := make([]repmem.Span, len(slots))
			for k, slot := range slots {
				spans[k] = repmem.Span{Addr: uint64(slot * geo.SlotSize), Size: geo.SlotSize}
			}
			rows, err := s.mem.DirectReadAll(spans...)
			if err != nil {
				return fmt.Errorf("kv recovery: log read: %w", err)
			}
			for k, slot := range slots {
				cs := make([][]byte, 0, len(rows))
				for _, row := range rows {
					if row != nil {
						cs = append(cs, row[k*geo.SlotSize:(k+1)*geo.SlotSize])
					}
				}
				read[slot], fetched[slot] = cs, true
			}
			readSlots = append(readSlots, slots...)
		}
		at = lap(&r.LogRead, at)
		copies := make([][][]byte, len(readSlots))
		for k, slot := range readSlots {
			copies[k] = read[slot]
		}
		entries = wal.Reconcile(geo, readSlots, copies)
		r.Mark = 0
		for _, e := range entries {
			r.Mark = max(r.Mark, markOf(e))
		}
		at = lap(&r.Reconcile, at)
		if r.Mark >= floor {
			break
		}
		// The hint's carrier did not verify (torn, or garbage that looked like
		// a head): what lies between the mark that did and the hint is read too.
		slots, floor = want(r.Mark, floor, false), r.Mark
	}
	r.ReadSlots = len(readSlots)
	var top uint64 // the largest index found: entries are in index order
	if len(entries) > 0 {
		top = entries[len(entries)-1].Index
	}
	r.Scanned = len(entries)

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
	// zeroes. A slot holding an entry at or below the mark is not compared or
	// written: a majority holds each of those entries, and whatever else a
	// node has in such a slot is older and stays outside every later window.
	occupied := make([]bool, geo.Slots)
	var slotBuf []byte
	zeros := make([]byte, geo.SlotSize)
	settle := func(slot int, want []byte) (wrote bool, err error) {
		for _, c := range read[slot] {
			if !bytes.Equal(c[:len(want)], want) {
				if err := s.mem.DirectWrite(uint64(slot*geo.SlotSize), want); err != nil {
					return false, fmt.Errorf("kv recovery: log rewrite: %w", err)
				}
				return true, nil
			}
		}
		return false, nil
	}
	for i, e := range entries {
		slot := int(e.Index % n)
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
			slotBuf = make([]byte, geo.SlotSize)
		}
		size, err := e.Encode(slotBuf)
		if err != nil {
			return fmt.Errorf("kv recovery: re-encode: %w", err)
		}
		clear(slotBuf[size:])
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
		switch {
		case full:
		case fetched[slot]:
			if _, err := settle(slot, zeros); err != nil {
				return err
			}
		default:
			// Not read in full, so its heads name nothing above the mark. One
			// that names pos, the index the window puts here, is an applied
			// entry; otherwise the slot holds no entry of the window, and one
			// whose head is not zeroes somewhere is cleared. (Before the log
			// has come round, pos wraps past top for the slots beyond it.)
			pos := top - top%n + uint64(slot)
			if uint64(slot) > top%n {
				pos -= n
			}
			off := slot * wal.HeadSize
			if pos > 0 && pos <= top && slices.ContainsFunc(scan, func(row []byte) bool { return wal.ParseHead(row[off:]).Index == pos }) {
				r.Scanned++
			} else if slices.ContainsFunc(scan, func(row []byte) bool { return !bytes.Equal(row[off:off+wal.HeadSize], zeros[:wal.HeadSize]) }) {
				if err := s.mem.DirectWrite(uint64(slot*geo.SlotSize), zeros); err != nil {
					return fmt.Errorf("kv recovery: log rewrite: %w", err)
				}
			}
		}
	}
	at = lap(&r.Rewrite, at)

	// Replay above the mark, in index order, through the appliers' own batch
	// path, a window of applyBatchMax records at a time: each record is pinned
	// in the cache like a fresh commit, so its block's location is recorded
	// as the batch settles, and the new coordinator's first put to a replayed
	// key costs no chain walk. Entries at or below the mark warm nothing: the
	// tables hold their values, and a miss reads them there.
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
		if e.Index <= r.Mark {
			continue
		}
		for _, rec := range recs[i] {
			if rec.op == opBatchToken {
				continue // log metadata, not a key: stays out of the cache
			}
			value := rec.value
			if rec.op == opDelete {
				value = nil
			}
			key := s.cache.put(rec.key, value, true, e.Index)
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
	if top+1 > s.nextIdx {
		s.nextIdx = top + 1
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

// tableChunk is about how many bytes readTables reads at a time.
const tableChunk = 64 << 10

// readTables loads the index table and the bitmap, which sit back to back at
// the start of the main space, through one buffer of whole integrity blocks:
// a read that starts and ends on block boundaries is verified in place,
// with no scratch copy of its own. A chunk is a multiple of 8 bytes too, so
// no index entry straddles two; the last one runs on to the end of its
// block, which is still below the data blocks (BlocksBase rounds up to it).
func (s *Store) readTables() error {
	align := uint64(max(1, s.mem.WriteAlign()))
	chunk := 8 * align * max(1, tableChunk/(8*align))
	end := s.bitmapBase + uint64(len(s.bitmap))
	buf := make([]byte, min(chunk, (end+align-1)/align*align))
	for off := uint64(0); off < end; off += chunk {
		b := buf[:min(chunk, (end-off+align-1)/align*align)]
		if err := s.mem.Read(off, b); err != nil {
			return fmt.Errorf("kv recovery: index table and bitmap: %w", err)
		}
		if off < s.bitmapBase {
			idx := s.index[off/8 : min(off+uint64(len(b)), s.bitmapBase)/8]
			for k := range idx {
				idx[k] = binary.LittleEndian.Uint64(b[8*k : 8*k+8])
			}
		}
		if hi := min(off+uint64(len(b)), end); hi > s.bitmapBase {
			lo := max(off, s.bitmapBase)
			copy(s.bitmap[lo-s.bitmapBase:], b[lo-off:hi-off])
		}
	}
	return nil
}
