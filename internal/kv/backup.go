package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrBackupRetry marks a backup-side read anomaly: a torn or unverifiable
// block image, a broken chain, or a failed remote read. It never means the
// key is absent — the caller must retry the lookup at the coordinator.
var ErrBackupRetry = errors.New("kv: backup read must retry at coordinator")

// BlockSource supplies main-space reads for a ChainReader. In production it
// is a repmem.View restricted to the published membership mask.
type BlockSource interface {
	Read(addr uint64, buf []byte) error
}

// ChainReader performs lock-free hash-table lookups against replicated
// memory for a backup CPU node. It shares the coordinator's layout math
// (Config + EC alignment) but holds none of its state: every lookup walks
// the on-memory index entry and chain blocks directly.
//
// Concurrency with the coordinator makes two anomalies possible, and both
// are converted to ErrBackupRetry rather than answers:
//
//   - A torn block: under erasure coding the chunks of a block may be read
//     while a rewrite is in flight, mixing generations. The per-block CRC
//     (see blockCodec) rejects such images.
//   - A wandering chain: a block freed by a delete can be reallocated into
//     a different bucket's chain while we hold its old "next" pointer. The
//     walk would continue in the wrong chain and could conclude the key is
//     absent when it exists. For this reason a ChainReader NEVER reports
//     ErrNotFound as authoritative — a missing key is also ErrBackupRetry,
//     and only found values are served. (A found value is sound: its block
//     carried the key with used=1 and a valid CRC, so the value was current
//     at some instant during the walk — see DESIGN.md §13 for the
//     linearizability argument.)
type ChainReader struct {
	cfg        Config
	buckets    uint64
	stride     int
	blocksBase uint64
	capacity   uint64
	codec      blockCodec
	src        BlockSource
}

// NewChainReader builds a reader over src. cfg and align must match the
// coordinator's store configuration (align is the replicated memory's
// repmem.Config.WriteAlign) or every lookup will read from the wrong
// addresses.
func NewChainReader(cfg Config, align int, src BlockSource) (*ChainReader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	return &ChainReader{
		cfg:        c,
		buckets:    uint64(c.Buckets()),
		stride:     c.BlockStride(align),
		blocksBase: c.BlocksBase(align),
		capacity:   uint64(c.Capacity),
		codec:      c.codec(),
		src:        src,
	}, nil
}

// Get looks up key. It returns the value only when a verified chain block
// holds it; every other outcome — including "not found" — is ErrBackupRetry
// (wrapped with the cause) and must be retried at the coordinator.
func (r *ChainReader) Get(key []byte) ([]byte, error) {
	if len(key) == 0 || len(key) > r.cfg.MaxKey {
		return nil, fmt.Errorf("%w: key %d B (max %d)", ErrTooLarge, len(key), r.cfg.MaxKey)
	}
	h := hashKey(key)
	bucket := h % r.buckets

	var entry [8]byte
	if err := r.src.Read(bucket*8, entry[:]); err != nil {
		return nil, fmt.Errorf("%w: index read: %v", ErrBackupRetry, err)
	}
	next := binary.LittleEndian.Uint64(entry[:])

	buf := make([]byte, r.stride)
	// The hop bound caps a cyclic chain (possible only mid-mutation).
	for hops := uint64(0); next != 0; hops++ {
		if hops >= r.capacity {
			return nil, fmt.Errorf("%w: chain exceeds capacity", ErrBackupRetry)
		}
		idx := next - 1
		if idx >= r.capacity {
			return nil, fmt.Errorf("%w: block index %d out of range", ErrBackupRetry, idx)
		}
		addr := r.blocksBase + idx*uint64(r.stride)
		if err := r.src.Read(addr, buf); err != nil {
			return nil, fmt.Errorf("%w: block read: %v", ErrBackupRetry, err)
		}
		b, err := r.codec.decodeVerified(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBackupRetry, err)
		}
		if !b.used {
			// A linked-but-unused block means we read mid-delete or walked
			// into freed space; the chain beyond it is untrustworthy.
			return nil, fmt.Errorf("%w: unused block in chain", ErrBackupRetry)
		}
		if bytes.Equal(b.key, key) {
			return append([]byte(nil), b.value...), nil
		}
		next = b.next
	}
	return nil, fmt.Errorf("%w: key not in chain", ErrBackupRetry)
}

// hashKey mirrors Store.bucketOf's FNV-1a hash without requiring a Store.
func hashKey(key []byte) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
