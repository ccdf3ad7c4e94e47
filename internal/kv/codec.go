package kv

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/repro/sift/internal/wal"
)

// Log record opcodes.
const (
	opPut    = 1
	opDelete = 2
	// opBatchToken tags an idempotent batch: it is always the first record
	// of its entry, its key is the client-chosen batch token, and its apply
	// is a no-op. Recovery replay and PutBatchIdem use the token to detect a
	// retried batch that already committed (possibly under a previous
	// coordinator) and skip the duplicate apply.
	opBatchToken = 3
)

// recordOverhead is the record's own header: op(1) keyLen(2) valLen(2).
const recordOverhead = 5

// record is one KV log record.
type record struct {
	op    byte
	key   []byte
	value []byte
}

// newRecord copies key and value into one allocation, which outlives the
// caller's buffers: the cache shares value, the background apply reads both.
func newRecord(op byte, key, value []byte) record {
	buf := make([]byte, len(key)+len(value))
	copy(buf, key)
	copy(buf[len(key):], value)
	return record{op: op, key: buf[:len(key):len(key)], value: buf[len(key):]}
}

// encodeEntry lays the KV log entry of recs straight into buf (a log slot)
// and returns its length: byte for byte wal.Entry.Encode of the entry at idx
// with one write per record, its data the record's encoding. The KV log's
// writes have no address of their own, so the first carries the committer's
// applied mark (see Store.mark); an entry from before marks reads as mark 0.
func encodeEntry(buf []byte, idx, mark uint64, recs ...record) (int, error) {
	need := wal.EntryHeaderSize
	for _, r := range recs {
		need += wal.WriteHeaderSize + recordOverhead + len(r.key) + len(r.value)
	}
	if need > len(buf) {
		return 0, fmt.Errorf("%w: need %d, slot %d", wal.ErrTooLarge, need, len(buf))
	}
	off := wal.EntryHeaderSize
	for _, r := range recs {
		var rec []byte
		rec, off = wal.PutWrite(buf, off, mark, recordOverhead+len(r.key)+len(r.value))
		mark = 0 // the first write's alone
		rec[0] = r.op
		binary.LittleEndian.PutUint16(rec[1:3], uint16(len(r.key)))
		binary.LittleEndian.PutUint16(rec[3:5], uint16(len(r.value)))
		copy(rec[recordOverhead:], r.key)
		copy(rec[recordOverhead+len(r.key):], r.value)
	}
	wal.Seal(buf, idx, len(recs), off)
	return off, nil
}

// decodeRecord parses a record.
func decodeRecord(buf []byte) (record, error) {
	if len(buf) < recordOverhead {
		return record{}, fmt.Errorf("kv: short record (%d bytes)", len(buf))
	}
	op := buf[0]
	kl := int(binary.LittleEndian.Uint16(buf[1:3]))
	vl := int(binary.LittleEndian.Uint16(buf[3:5]))
	if recordOverhead+kl+vl > len(buf) {
		return record{}, fmt.Errorf("kv: truncated record")
	}
	return record{
		op:    op,
		key:   buf[recordOverhead : recordOverhead+kl],
		value: buf[recordOverhead+kl : recordOverhead+kl+vl],
	}, nil
}

// markOf returns the applied mark an entry carries.
func markOf(e wal.Entry) uint64 {
	if len(e.Writes) == 0 {
		return 0
	}
	return e.Writes[0].Addr
}

// recordsOf extracts every record from a KV log entry (single puts carry
// one; batches carry several).
func recordsOf(e wal.Entry) ([]record, error) {
	if len(e.Writes) == 0 {
		return nil, fmt.Errorf("kv: entry %d has no writes", e.Index)
	}
	recs := make([]record, 0, len(e.Writes))
	for _, w := range e.Writes {
		r, err := decodeRecord(w.Data)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// Data block layout: used(1) keyLen(2) valLen(2) next(8) crc(4) key[MaxKey]
// value[MaxValue]. next holds blockIdx+1; 0 terminates the chain. crc is a
// CRC-32C over the whole block image with the crc field itself zeroed; it
// is what lets a backup CPU node, reading blocks without the coordinator's
// locks, reject a torn image (e.g. an erasure-coded block whose chunks it
// fetched from nodes straddling an in-flight update) instead of decoding
// garbage. The coordinator's own reads are serialized by its locks and
// skip verification.
const blockHeaderSize = 17

// blockCRCOffset locates the crc field within the header.
const blockCRCOffset = 13

// blockCRCTable is the Castagnoli table (hardware-accelerated on amd64/arm64).
var blockCRCTable = crc32.MakeTable(crc32.Castagnoli)

// block is a decoded data block.
type block struct {
	used  bool
	key   []byte
	value []byte
	next  uint64 // blockIdx+1; 0 = end of chain
}

// blockCodec serialises data blocks. It is shared by the coordinator's
// Store and by backup-side chain readers, which have no Store.
type blockCodec struct {
	maxKey, maxValue, blockSize int
}

func (c Config) codec() blockCodec {
	return blockCodec{maxKey: c.MaxKey, maxValue: c.MaxValue, blockSize: c.BlockSize()}
}

// zeroCRC stands in for the crc field while the CRC is computed; a local
// one escapes through crc32.Update, an allocation per block encoded.
var zeroCRC [4]byte

// crcOf computes the block CRC of buf with the crc field treated as zero.
func (c blockCodec) crcOf(buf []byte) uint32 {
	crc := crc32.Update(0, blockCRCTable, buf[:blockCRCOffset])
	crc = crc32.Update(crc, blockCRCTable, zeroCRC[:])
	return crc32.Update(crc, blockCRCTable, buf[blockHeaderSize:c.blockSize])
}

// encode writes a block image into buf (length ≥ blockSize), zeroing what
// the block does not fill: buf may be a reused buffer, or the very buffer
// b.key and b.value were decoded from.
func (c blockCodec) encode(buf []byte, b block) {
	clear(buf[:blockHeaderSize])
	if b.used {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(b.key)))
	binary.LittleEndian.PutUint16(buf[3:5], uint16(len(b.value)))
	binary.LittleEndian.PutUint64(buf[5:13], b.next)
	copy(buf[blockHeaderSize:], b.key)
	clear(buf[blockHeaderSize+len(b.key) : blockHeaderSize+c.maxKey])
	copy(buf[blockHeaderSize+c.maxKey:], b.value)
	clear(buf[blockHeaderSize+c.maxKey+len(b.value):])
	binary.LittleEndian.PutUint32(buf[blockCRCOffset:blockHeaderSize], c.crcOf(buf))
}

// decode parses a block image without CRC verification.
func (c blockCodec) decode(buf []byte) (block, error) {
	if len(buf) < c.blockSize {
		return block{}, fmt.Errorf("kv: short block image (%d bytes)", len(buf))
	}
	kl := int(binary.LittleEndian.Uint16(buf[1:3]))
	vl := int(binary.LittleEndian.Uint16(buf[3:5]))
	if kl > c.maxKey || vl > c.maxValue {
		return block{}, fmt.Errorf("kv: corrupt block header (kl=%d vl=%d)", kl, vl)
	}
	return block{
		used:  buf[0] == 1,
		key:   buf[blockHeaderSize : blockHeaderSize+kl],
		value: buf[blockHeaderSize+c.maxKey : blockHeaderSize+c.maxKey+vl],
		next:  binary.LittleEndian.Uint64(buf[5:13]),
	}, nil
}

// decodeVerified parses a block image, first checking its CRC. A block
// that was never written (all zeroes) fails the check, as does any torn or
// stale image.
func (c blockCodec) decodeVerified(buf []byte) (block, error) {
	if len(buf) < c.blockSize {
		return block{}, fmt.Errorf("kv: short block image (%d bytes)", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[blockCRCOffset:blockHeaderSize]) != c.crcOf(buf) {
		return block{}, errBlockCRC
	}
	return c.decode(buf)
}

// errBlockCRC marks a torn or unwritten block image on the backup path.
var errBlockCRC = fmt.Errorf("kv: block image failed CRC")

// encodeBlock writes a block image into buf (length ≥ BlockSize).
func (s *Store) encodeBlock(buf []byte, b block) { s.bcodec.encode(buf, b) }

// decodeBlock parses a block image.
func (s *Store) decodeBlock(buf []byte) (block, error) { return s.bcodec.decode(buf) }
