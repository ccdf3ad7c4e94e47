// Package wal implements the write-ahead-log entry format and circular log
// geometry of the key-value store's log, the only log Sift keeps in
// replicated memory (paper §3.3, §3.4.1, §4.1). Its Write type also names
// the main-space writes the replicated memory layer takes.
//
// The log is a fixed array of fixed-size slots living inside a replicated
// memory region. An entry carries its own log index, so a slot's occupant is
// self-describing: slot s holds the entry with the largest index i ≡ s
// (mod slots) written so far, and stale entries from earlier laps are
// recognisable by their smaller index. Entries are protected by a CRC so a
// torn (partially written) slot decodes as invalid rather than as garbage.
//
// Recovery correctness depends on one property of this geometry: every entry
// in the window (maxIndex-slots, maxIndex] is still in the log, so replaying
// the whole decoded window in index order reproduces exactly the state the
// failed coordinator could have exposed — even without an applied-index
// watermark (see Reconcile).
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
)

// Codec errors.
var (
	ErrTooLarge = errors.New("wal: entry exceeds slot size")
	ErrCorrupt  = errors.New("wal: corrupt or torn entry")
)

// castagnoli is the CRC32-C table; CRC32-C has better error detection than
// IEEE and hardware support on amd64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write is one (address, data) update within an entry. Entries may carry
// several writes that must be applied together without interleaving
// (the multi-write commit interface of §3.3.2).
type Write struct {
	Addr uint64
	Data []byte
}

// Entry is a single log record.
type Entry struct {
	Index  uint64 // 1-based log sequence number; 0 is never a valid index
	Writes []Write
}

// Size returns the encoded size of the entry in bytes.
func (e *Entry) Size() int {
	n := entryHeaderSize
	for _, w := range e.Writes {
		n += writeHeaderSize + len(w.Data)
	}
	return n
}

const (
	// entryHeaderSize: index(8) + count(2) + payloadLen(4) + crc(4)
	entryHeaderSize = 18
	// writeHeaderSize: addr(8) + len(4)
	writeHeaderSize = 12
)

// Encode serialises the entry into buf, which must be at least e.Size()
// bytes (typically a full slot). Returns the number of bytes written.
func (e *Entry) Encode(buf []byte) (int, error) {
	need := e.Size()
	if need > len(buf) {
		return 0, fmt.Errorf("%w: need %d, slot %d", ErrTooLarge, need, len(buf))
	}
	payloadLen := need - entryHeaderSize
	binary.LittleEndian.PutUint64(buf[0:8], e.Index)
	binary.LittleEndian.PutUint16(buf[8:10], uint16(len(e.Writes)))
	binary.LittleEndian.PutUint32(buf[10:14], uint32(payloadLen))
	off := entryHeaderSize
	for _, w := range e.Writes {
		binary.LittleEndian.PutUint64(buf[off:], w.Addr)
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(len(w.Data)))
		copy(buf[off+writeHeaderSize:], w.Data)
		off += writeHeaderSize + len(w.Data)
	}
	// CRC covers index, count, payload length, and payload.
	crc := crc32.Checksum(buf[0:10], castagnoli)
	crc = crc32.Update(crc, castagnoli, buf[10:14])
	crc = crc32.Update(crc, castagnoli, buf[entryHeaderSize:off])
	binary.LittleEndian.PutUint32(buf[14:18], crc)
	return off, nil
}

// Decode parses an entry from buf (a slot image). It returns ErrCorrupt for
// empty, torn, or otherwise invalid slots.
func Decode(buf []byte) (Entry, error) {
	if len(buf) < entryHeaderSize {
		return Entry{}, fmt.Errorf("%w: short slot", ErrCorrupt)
	}
	index := binary.LittleEndian.Uint64(buf[0:8])
	count := int(binary.LittleEndian.Uint16(buf[8:10]))
	payloadLen := int(binary.LittleEndian.Uint32(buf[10:14]))
	crc := binary.LittleEndian.Uint32(buf[14:18])
	if index == 0 {
		return Entry{}, fmt.Errorf("%w: zero index", ErrCorrupt)
	}
	if payloadLen < 0 || entryHeaderSize+payloadLen > len(buf) {
		return Entry{}, fmt.Errorf("%w: bad payload length %d", ErrCorrupt, payloadLen)
	}
	want := crc32.Checksum(buf[0:10], castagnoli)
	want = crc32.Update(want, castagnoli, buf[10:14])
	want = crc32.Update(want, castagnoli, buf[entryHeaderSize:entryHeaderSize+payloadLen])
	if crc != want {
		return Entry{}, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	e := Entry{Index: index, Writes: make([]Write, 0, count)}
	off := entryHeaderSize
	end := entryHeaderSize + payloadLen
	for i := 0; i < count; i++ {
		if off+writeHeaderSize > end {
			return Entry{}, fmt.Errorf("%w: truncated write header", ErrCorrupt)
		}
		addr := binary.LittleEndian.Uint64(buf[off:])
		dlen := int(binary.LittleEndian.Uint32(buf[off+8:]))
		off += writeHeaderSize
		if dlen < 0 || off+dlen > end {
			return Entry{}, fmt.Errorf("%w: truncated write data", ErrCorrupt)
		}
		data := make([]byte, dlen)
		copy(data, buf[off:off+dlen])
		e.Writes = append(e.Writes, Write{Addr: addr, Data: data})
		off += dlen
	}
	if off != end {
		return Entry{}, fmt.Errorf("%w: trailing payload bytes", ErrCorrupt)
	}
	return e, nil
}

// Geometry describes a circular log's placement inside a memory region.
type Geometry struct {
	Base     uint64 // byte offset of slot 0 within the region
	SlotSize int    // bytes per slot; every entry must fit in one slot
	Slots    int    // number of slots
}

// TotalSize returns the log area's size in bytes.
func (g Geometry) TotalSize() int { return g.SlotSize * g.Slots }

// SlotOffset returns the region offset of the slot for the given index.
func (g Geometry) SlotOffset(index uint64) uint64 {
	return g.Base + uint64(int(index%uint64(g.Slots)))*uint64(g.SlotSize)
}

// ScanWindow decodes every valid entry in a snapshot of the log area (a
// byte image of length TotalSize, without Base offset applied) and returns
// entries belonging to the active window (maxIndex-Slots, maxIndex], sorted
// by index. Torn and stale-lap slots are skipped.
func (g Geometry) ScanWindow(area []byte) []Entry {
	var entries []Entry
	var maxIndex uint64
	for s := 0; s < g.Slots; s++ {
		slot := area[s*g.SlotSize : (s+1)*g.SlotSize]
		e, err := Decode(slot)
		if err != nil {
			continue
		}
		// A slot can only legitimately hold indexes ≡ s (mod Slots); anything
		// else is garbage from a buggy writer or bit flip that passed CRC.
		if e.Index%uint64(g.Slots) != uint64(s) {
			continue
		}
		entries = append(entries, e)
		if e.Index > maxIndex {
			maxIndex = e.Index
		}
	}
	// Keep only the active window.
	lo := uint64(0)
	if maxIndex > uint64(g.Slots) {
		lo = maxIndex - uint64(g.Slots)
	}
	out := entries[:0]
	for _, e := range entries {
		if e.Index > lo {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Reconcile merges per-node snapshots of the same log area into the single
// consistent, up-to-date log the paper's coordinator recovery constructs
// (§3.4.1): the union of valid entries across nodes, restricted to the
// global active window, deduplicated, in index order.
//
// It is one pass over the slots. The window holds exactly one index per
// slot, so of a slot's copies only the newest valid entry can be in it; the
// copies are compared first and a copy equal to an earlier one is not
// decoded again — in a healthy log that is one CRC and one payload copy per
// slot, however many nodes were read. Where copies hold different entries of
// one index, the first area's wins.
//
// Safety: an entry acked to a client was durable on a majority of nodes, so
// with at most Fm of 2Fm+1 snapshots missing it appears in at least one
// snapshot and is therefore always recovered. Unacked entries may or may not
// appear; either outcome is correct because the client never saw a commit.
func Reconcile(g Geometry, areas [][]byte) []Entry {
	newest := make([]Entry, g.Slots)
	copies := make([][]byte, 0, len(areas))
	var maxIndex uint64
	for s := 0; s < g.Slots; s++ {
		copies = copies[:0]
		for _, area := range areas {
			if area != nil {
				copies = append(copies, area[s*g.SlotSize:(s+1)*g.SlotSize])
			}
		}
		for i, c := range copies {
			if slices.ContainsFunc(copies[:i], func(seen []byte) bool { return bytes.Equal(seen, c) }) {
				continue
			}
			e, err := Decode(c)
			// A slot can only legitimately hold indexes ≡ s (mod Slots).
			if err != nil || e.Index%uint64(g.Slots) != uint64(s) || e.Index <= newest[s].Index {
				continue
			}
			newest[s] = e
			if e.Index > maxIndex {
				maxIndex = e.Index
			}
		}
	}
	lo := uint64(0)
	if maxIndex > uint64(g.Slots) {
		lo = maxIndex - uint64(g.Slots)
	}
	out := make([]Entry, 0, min(maxIndex-lo, uint64(g.Slots)))
	for i := lo + 1; i <= maxIndex; i++ {
		if e := newest[i%uint64(g.Slots)]; e.Index == i {
			out = append(out, e)
		}
	}
	return out
}
