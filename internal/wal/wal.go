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
// in the window (maxIndex-slots, maxIndex] is still in the log, so a recovery
// that finds the window's upper end and everything above what was already
// applied has all it must replay (see Reconcile). A slot's first HeadSize
// bytes say, unverified, which index it holds and what its first write
// carries, which is enough to choose the slots worth reading in full.
package wal

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
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
	n := EntryHeaderSize
	for _, w := range e.Writes {
		n += WriteHeaderSize + len(w.Data)
	}
	return n
}

const (
	// EntryHeaderSize is an entry's header: index(8) count(2) payloadLen(4)
	// crc(4).
	EntryHeaderSize = 18
	// WriteHeaderSize is each write's header: addr(8) len(4).
	WriteHeaderSize = 12
)

// Encode serialises the entry into buf, which must be at least e.Size()
// bytes (typically a full slot). Returns the number of bytes written.
func (e *Entry) Encode(buf []byte) (int, error) {
	if need := e.Size(); need > len(buf) {
		return 0, fmt.Errorf("%w: need %d, slot %d", ErrTooLarge, need, len(buf))
	}
	off := EntryHeaderSize
	for _, w := range e.Writes {
		var data []byte
		data, off = PutWrite(buf, off, w.Addr, len(w.Data))
		copy(data, w.Data)
	}
	Seal(buf, e.Index, len(e.Writes), off)
	return off, nil
}

// PutWrite lays the header of an n-byte write to addr at buf[off:], the
// first at EntryHeaderSize, and returns the write's data for the caller to
// fill in place and the offset after it.
func PutWrite(buf []byte, off int, addr uint64, n int) (data []byte, next int) {
	binary.LittleEndian.PutUint64(buf[off:], addr)
	binary.LittleEndian.PutUint32(buf[off+8:], uint32(n))
	next = off + WriteHeaderSize + n
	return buf[off+WriteHeaderSize : next], next
}

// Seal completes the entry whose count writes PutWrite laid out in
// buf[EntryHeaderSize:end]: its index, count, payload length and CRC, which
// covers all of them and the payload.
func Seal(buf []byte, index uint64, count, end int) {
	binary.LittleEndian.PutUint64(buf[0:8], index)
	binary.LittleEndian.PutUint16(buf[8:10], uint16(count))
	binary.LittleEndian.PutUint32(buf[10:14], uint32(end-EntryHeaderSize))
	crc := crc32.Checksum(buf[0:14], castagnoli)
	crc = crc32.Update(crc, castagnoli, buf[EntryHeaderSize:end])
	binary.LittleEndian.PutUint32(buf[14:18], crc)
}

// Decode parses an entry from buf (a slot image). It returns ErrCorrupt for
// empty, torn, or otherwise invalid slots.
func Decode(buf []byte) (Entry, error) {
	if len(buf) < EntryHeaderSize {
		return Entry{}, fmt.Errorf("%w: short slot", ErrCorrupt)
	}
	index := binary.LittleEndian.Uint64(buf[0:8])
	count := int(binary.LittleEndian.Uint16(buf[8:10]))
	payloadLen := int(binary.LittleEndian.Uint32(buf[10:14]))
	crc := binary.LittleEndian.Uint32(buf[14:18])
	if index == 0 {
		return Entry{}, fmt.Errorf("%w: zero index", ErrCorrupt)
	}
	if payloadLen < 0 || EntryHeaderSize+payloadLen > len(buf) {
		return Entry{}, fmt.Errorf("%w: bad payload length %d", ErrCorrupt, payloadLen)
	}
	want := crc32.Checksum(buf[0:10], castagnoli)
	want = crc32.Update(want, castagnoli, buf[10:14])
	want = crc32.Update(want, castagnoli, buf[EntryHeaderSize:EntryHeaderSize+payloadLen])
	if crc != want {
		return Entry{}, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	e := Entry{Index: index, Writes: make([]Write, 0, count)}
	off := EntryHeaderSize
	end := EntryHeaderSize + payloadLen
	for i := 0; i < count; i++ {
		if off+WriteHeaderSize > end {
			return Entry{}, fmt.Errorf("%w: truncated write header", ErrCorrupt)
		}
		addr := binary.LittleEndian.Uint64(buf[off:])
		dlen := int(binary.LittleEndian.Uint32(buf[off+8:]))
		off += WriteHeaderSize
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

// HeadSize is the length of a slot's head: the entry header, the first
// write's header and the first byte of its data.
const HeadSize = 32

// Head is what a slot's first HeadSize bytes say of the entry in it. It is
// unverified — the CRC covers the whole entry — so it can only choose what
// to read in full, never stand for the entry.
type Head struct {
	Index uint64 // 0: the slot is empty, or holds no entry at all
	Addr  uint64 // the first write's Addr
	First byte   // the first byte of the first write's data
}

// ParseHead reads the head of a slot image at least HeadSize bytes long.
func ParseHead(b []byte) Head {
	h := Head{Index: binary.LittleEndian.Uint64(b[0:8])}
	if binary.LittleEndian.Uint16(b[8:10]) > 0 {
		h.Addr = binary.LittleEndian.Uint64(b[EntryHeaderSize:])
		if binary.LittleEndian.Uint32(b[EntryHeaderSize+8:]) > 0 {
			h.First = b[EntryHeaderSize+WriteHeaderSize]
		}
	}
	return h
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

// Reconcile merges per-node copies of some of the log's slots into the
// single consistent, up-to-date log the paper's coordinator recovery
// constructs (§3.4.1): copies[k] holds the copies of slot slots[k] (nil ones
// were not read), and the result is the union of valid entries across them,
// restricted to the active window of the largest index found, deduplicated,
// in index order. Given every slot, that is the whole log; given a subset, it
// is exact for those slots as long as the slot holding the largest index is
// among them.
//
// Of a slot's copies only the newest valid entry can be in the window, which
// holds exactly one index per slot. The copies are compared first and a copy
// equal to an earlier one is not decoded again — in a healthy log that is one
// CRC and one payload copy per slot, however many nodes were read. Where
// copies hold different entries of one index, the first copy's wins.
//
// Safety: an entry acked to a client was durable on a majority of nodes, so
// with at most Fm of 2Fm+1 snapshots missing it appears in at least one
// snapshot and is therefore always recovered. Unacked entries may or may not
// appear; either outcome is correct because the client never saw a commit.
func Reconcile(g Geometry, slots []int, copies [][][]byte) []Entry {
	out := make([]Entry, 0, len(slots))
	var maxIndex uint64
	for k, s := range slots {
		var newest Entry
		cs := copies[k]
		for i, c := range cs {
			if c == nil || slices.ContainsFunc(cs[:i], func(seen []byte) bool { return bytes.Equal(seen, c) }) {
				continue
			}
			e, err := Decode(c)
			// A slot can only legitimately hold indexes ≡ s (mod Slots).
			if err != nil || e.Index%uint64(g.Slots) != uint64(s) || e.Index <= newest.Index {
				continue
			}
			newest = e
		}
		if newest.Index != 0 {
			out = append(out, newest)
			maxIndex = max(maxIndex, newest.Index)
		}
	}
	lo := uint64(0)
	if maxIndex > uint64(g.Slots) {
		lo = maxIndex - uint64(g.Slots)
	}
	out = slices.DeleteFunc(out, func(e Entry) bool { return e.Index <= lo })
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Index, b.Index) })
	return out
}
