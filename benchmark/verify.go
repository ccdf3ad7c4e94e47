package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Every value the benchmark writes is valueSize bytes:
//
//	[0:4)   key id      [4:8)  writer id      [8:16)  sequence number
//	[16:988) filler     [988:992) CRC-32C of bytes [0:988)
//
// so a get can be checked on its own (CRC, key id) and against the ledger
// (sequence number), with no second copy of the data set.
const (
	valueSize = 992
	crcOffset = valueSize - 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeValue stamps key id, writer and seq into buf (whose filler bytes the
// caller set once) and seals it with the CRC.
func encodeValue(buf []byte, key, writer uint32, seq uint64) {
	binary.LittleEndian.PutUint32(buf[0:], key)
	binary.LittleEndian.PutUint32(buf[4:], writer)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint32(buf[crcOffset:], crc32.Checksum(buf[:crcOffset], castagnoli))
}

// decodeValue checks size and CRC and returns the embedded fields.
func decodeValue(v []byte) (key, writer uint32, seq uint64, err error) {
	if len(v) != valueSize {
		return 0, 0, 0, fmt.Errorf("value is %d bytes, want %d", len(v), valueSize)
	}
	if got, want := crc32.Checksum(v[:crcOffset], castagnoli), binary.LittleEndian.Uint32(v[crcOffset:]); got != want {
		return 0, 0, 0, fmt.Errorf("value CRC %08x, stored %08x", got, want)
	}
	return binary.LittleEndian.Uint32(v[0:]), binary.LittleEndian.Uint32(v[4:]), binary.LittleEndian.Uint64(v[8:]), nil
}

// ledger is what the benchmark knows must be in the store. Each key has one
// writer, which numbers its puts 1, 2, 3, …; issued is the last number it
// sent and acked the last one the store acknowledged. A put that returned an
// error may or may not have committed, so the store may hold any sequence
// number in [acked, issued] and nothing else.
type ledger struct {
	issued []atomic.Uint64
	acked  []atomic.Uint64
}

func newLedger(keys int) *ledger {
	return &ledger{issued: make([]atomic.Uint64, keys), acked: make([]atomic.Uint64, keys)}
}

// nextSeq is called by the key's writer before a put.
func (l *ledger) nextSeq(key uint32) uint64 { return l.issued[key].Add(1) }

// ack is called by the key's writer after the store acknowledged seq.
func (l *ledger) ack(key uint32, seq uint64) { l.acked[key].Store(seq) }

// floor is the oldest sequence number a get issued now may return.
func (l *ledger) floor(key uint32) uint64 { return l.acked[key].Load() }

// check verifies a value read for key: intact, the right key, not older than
// floor (the key's acked number when the get was issued; for the final sweep,
// the last acked number) and not newer than anything its writer sent.
func (l *ledger) check(key uint32, floor uint64, v []byte) error {
	k, _, seq, err := decodeValue(v)
	if err != nil {
		return fmt.Errorf("key %d: %w", key, err)
	}
	if k != key {
		return fmt.Errorf("key %d: value belongs to key %d", key, k)
	}
	if seq < floor {
		return fmt.Errorf("key %d: stale read, seq %d older than acknowledged %d", key, seq, floor)
	}
	if hi := l.issued[key].Load(); seq > hi {
		return fmt.Errorf("key %d: seq %d was never written (last issued %d)", key, seq, hi)
	}
	return nil
}

// sweep reads every key back through get and checks it holds its writer's
// last acknowledged value, or a later one whose put returned an error. It
// returns the number of keys that fail and the first failure.
func (l *ledger) sweep(get func(key uint32) ([]byte, error)) (bad int, first error) {
	for k := range l.acked {
		key := uint32(k)
		v, err := get(key)
		if err == nil {
			err = l.check(key, l.floor(key), v)
		} else {
			err = fmt.Errorf("key %d: lost write, get failed: %w", key, err)
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}
