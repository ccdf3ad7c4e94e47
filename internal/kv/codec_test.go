package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/repro/sift/internal/wal"
)

// encodeRecord serialises a record for embedding in a wal.Entry write: the
// reference encodeEntry's record framing is checked against.
func encodeRecord(r record) []byte {
	buf := make([]byte, recordOverhead+len(r.key)+len(r.value))
	buf[0] = r.op
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(r.key)))
	binary.LittleEndian.PutUint16(buf[3:5], uint16(len(r.value)))
	copy(buf[recordOverhead:], r.key)
	copy(buf[recordOverhead+len(r.key):], r.value)
	return buf
}

// entryFor wraps a record in the wal.Entry a put's slot holds: the first
// write's Addr carries the applied mark.
func entryFor(idx, mark uint64, r record) wal.Entry {
	return wal.Entry{Index: idx, Writes: []wal.Write{{Addr: mark, Data: encodeRecord(r)}}}
}

// batchEntryFor packs several records into the wal.Entry a PutBatch's slot
// holds: one wal.Write per record, all under a single log index.
func batchEntryFor(idx, mark uint64, recs []record) wal.Entry {
	ws := make([]wal.Write, len(recs))
	for i, r := range recs {
		ws[i] = wal.Write{Data: encodeRecord(r)}
	}
	ws[0].Addr = mark
	return wal.Entry{Index: idx, Writes: ws}
}

// TestEncodeEntryMatchesWALEncode: the slot image a commit lays down in
// place is byte for byte wal.Entry.Encode of the same entry, for random
// single and batch records, over a slot that held an older payload — so
// recovery, which decodes and compares raw slot images, cannot tell them
// apart.
func TestEncodeEntryMatchesWALEncode(t *testing.T) {
	cfg := DefaultConfig()
	slotSize := cfg.WALSlotSize()
	rng := rand.New(rand.NewSource(40))
	randRecord := func(maxKey, maxValue int) record {
		r := record{op: opPut, key: make([]byte, 1+rng.Intn(maxKey)), value: make([]byte, rng.Intn(maxValue+1))}
		rng.Read(r.key)
		rng.Read(r.value)
		switch rng.Intn(4) {
		case 0:
			r.op, r.value = opDelete, nil
		case 1:
			r.op, r.value = opBatchToken, nil
		}
		return newRecord(r.op, r.key, r.value)
	}
	got, want := make([]byte, slotSize), make([]byte, slotSize)
	for i := 0; i < 2000; i++ {
		idx, mark := 1+rng.Uint64()%(1<<40), rng.Uint64()%(1<<40)
		var recs []record
		var e wal.Entry
		if i%2 == 0 {
			recs = []record{randRecord(cfg.MaxKey, cfg.MaxValue)}
			e = entryFor(idx, mark, recs[0])
		} else {
			n := 1 + rng.Intn(6)
			for j := 0; j < n; j++ {
				recs = append(recs, randRecord(cfg.MaxKey, cfg.MaxValue/n-wal.WriteHeaderSize-recordOverhead-cfg.MaxKey))
			}
			e = batchEntryFor(idx, mark, recs)
		}
		rng.Read(got)
		copy(want, got)
		n, err := encodeEntry(got, idx, mark, recs...)
		if err != nil {
			t.Fatalf("case %d: encodeEntry: %v", i, err)
		}
		wn, err := e.Encode(want)
		if err != nil {
			t.Fatalf("case %d: wal.Entry.Encode: %v", i, err)
		}
		if n != wn || !bytes.Equal(got, want) {
			t.Fatalf("case %d (%d records): in-place image differs from wal.Entry.Encode (lengths %d, %d)", i, len(recs), n, wn)
		}
		back, err := wal.Decode(got)
		if err != nil || back.Index != idx || markOf(back) != mark {
			t.Fatalf("case %d: decoded %+v, %v", i, back, err)
		}
	}

	// A batch the slot cannot hold is refused, and the slot left as it was.
	full := newRecord(opPut, make([]byte, cfg.MaxKey), make([]byte, cfg.MaxValue))
	big := []record{full, full}
	before := append([]byte(nil), got...)
	if _, err := encodeEntry(got, 1, 0, big...); !errors.Is(err, wal.ErrTooLarge) {
		t.Fatalf("oversized batch: %v, want wal.ErrTooLarge", err)
	}
	if !bytes.Equal(got, before) {
		t.Fatal("a refused entry changed the slot")
	}
}
