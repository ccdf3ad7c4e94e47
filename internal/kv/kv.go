// Package kv implements Sift's recoverable key-value store on top of the
// replicated memory layer (paper §4).
//
// The store is a hash table with chaining, built from four structures that
// all live in replicated memory at predefined locations:
//
//   - an index table of bucket-head pointers,
//   - a bitmap tracking free data blocks,
//   - an array of fixed-size data blocks (key, value, next pointer), and
//   - a circular write-ahead log, placed in the direct-write zone so a put
//     commits in a single RDMA round trip (§4.2).
//
// The index table and bitmap are cached at the coordinator, eliminating up
// to two remote reads per put; a value cache (default: half the keys)
// absorbs most gets, and its entries remember where their keys' blocks are,
// eliminating the third. Logged puts are applied to the table structures in
// the background by per-shard appliers, which preserve per-key commit order
// and work a batch at a time: everything that has committed while an applier
// was busy is replayed against an in-memory overlay and written out in up to
// three ordered flights of one vectored request per memory node (apply.go).
// An in-place put costs its share of one flight and no read; an insert adds
// a share of a second flight (the index word, after the block it names); a
// delete walks to its predecessor and adds a share of a third (zeroes, after
// the unlink).
package kv

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/repmem"
	"github.com/repro/sift/internal/wal"
)

// Store errors.
var (
	// ErrNotFound is returned by Get for missing keys.
	ErrNotFound = errors.New("kv: key not found")
	// ErrTooLarge is returned when a key or value exceeds the configured max.
	ErrTooLarge = errors.New("kv: key or value too large")
	// ErrFull is returned when all data blocks are allocated.
	ErrFull = errors.New("kv: store is full")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("kv: store closed")
)

// Config sizes the key-value store. The zero value is unusable; use
// DefaultConfig for the paper's evaluation configuration.
type Config struct {
	// Capacity is the maximum number of keys (data blocks).
	Capacity int
	// MaxKey and MaxValue bound key and value sizes (paper: 32 B and 992 B).
	MaxKey   int
	MaxValue int
	// LoadFactor is the maximum index-table load factor (paper: 0.125).
	LoadFactor float64
	// CacheFraction sizes the value cache relative to Capacity (paper: 0.5).
	CacheFraction float64
	// WALSlots is the circular KV log's entry count (paper: 64k).
	WALSlots int
	// ApplyShards is the number of background appliers (per-key ordering is
	// preserved by sharding on the bucket).
	ApplyShards int
	// SyncApply, when set, makes Put/Delete/PutBatch wait for the background
	// apply to materialize the update in the hash-table structures before
	// returning. This is required when backup CPU nodes serve lease-based
	// reads directly from replicated memory: an acknowledged write must be
	// visible to a reader that only sees the table, not the log.
	SyncApply bool
	// AckHold, with SyncApply, delays acknowledgements until at least this
	// long has passed since a memory node was last excluded from the
	// waited-on write set. Set it to the backup read-lease window (plus
	// margin): it guarantees that no backup whose membership view predates
	// the exclusion can still be serving reads from the excluded node by the
	// time a write that skipped that node is acknowledged.
	AckHold time.Duration
	// Persist, when set, receives every committed update from the
	// background appliers — the paper's §3.5 design where "all updates are
	// synchronously written to the persistent database by a background
	// thread" (RocksDB there; internal/persist's minidb here, or anything
	// else implementing the interface).
	Persist Persistence
}

// Persistence is the optional durable sink for committed updates (§3.5).
type Persistence interface {
	Put(key, value []byte) error
	Delete(key []byte) error
}

// DefaultConfig returns the paper's §6.2 configuration: 1M keys, 32 B keys,
// 992 B values, 12.5% load factor, 50% cache, 64k-entry log.
func DefaultConfig() Config {
	return Config{
		Capacity:      1_000_000,
		MaxKey:        32,
		MaxValue:      992,
		LoadFactor:    0.125,
		CacheFraction: 0.5,
		WALSlots:      64 * 1024,
		ApplyShards:   4,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.LoadFactor <= 0 {
		out.LoadFactor = 0.125
	}
	if out.CacheFraction < 0 {
		out.CacheFraction = 0
	}
	if out.WALSlots <= 0 {
		out.WALSlots = 64 * 1024
	}
	if out.ApplyShards <= 0 {
		out.ApplyShards = 4
	}
	return out
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Capacity <= 0 || uint64(c.Capacity) >= math.MaxUint32 || c.MaxKey <= 0 || c.MaxValue < 0 {
		return fmt.Errorf("kv: invalid sizes in config %+v", c)
	}
	if c.LoadFactor < 0 {
		// Chaining tolerates load factors above 1 (they set the mean chain
		// length), so only negative values are rejected.
		return fmt.Errorf("kv: load factor %v out of range", c.LoadFactor)
	}
	return nil
}

// Buckets returns the index table size implied by the config.
func (c Config) Buckets() int {
	cc := c.withDefaults()
	b := int(float64(cc.Capacity)/cc.LoadFactor + 0.5)
	if b < 1 {
		b = 1
	}
	return b
}

// BlockSize returns the fixed data block size.
func (c Config) BlockSize() int { return blockHeaderSize + c.MaxKey + c.MaxValue }

// IndexBytes returns the index table's footprint.
func (c Config) IndexBytes() int { return c.Buckets() * 8 }

// BitmapBytes returns the allocator bitmap's footprint.
func (c Config) BitmapBytes() int { return (c.Capacity + 7) / 8 }

// BlocksBase returns the main-space offset of the data block array, aligned
// so that block i starts at BlocksBase + i*BlockStride. align must be ≥1
// (pass the replicated memory's WriteAlign).
func (c Config) BlocksBase(align int) uint64 {
	base := uint64(c.IndexBytes() + c.BitmapBytes())
	if align > 1 {
		a := uint64(align)
		base = (base + a - 1) / a * a
	}
	return base
}

// BlockStride returns the spacing between consecutive data blocks:
// BlockSize rounded up to a multiple of align. align is the replicated
// memory's write alignment (EC block or integrity block), which confines
// every data block to a whole number of those blocks — block writes are then
// pure (encode-and-)fan-out with no read-modify-write of a shared edge
// block, and a reader can fetch a data block without touching its
// neighbours.
func (c Config) BlockStride(align int) int {
	bs := c.BlockSize()
	if align > 1 {
		bs = (bs + align - 1) / align * align
	}
	return bs
}

// RequiredMemSize returns the main-space bytes the store needs.
func (c Config) RequiredMemSize(align int) int {
	return int(c.BlocksBase(align)) + c.Capacity*c.BlockStride(align)
}

// WALSlotSize returns the KV log slot size: one full put record plus
// framing, rounded up for alignment.
func (c Config) WALSlotSize() int {
	cc := c.withDefaults()
	n := wal.EntryHeaderSize + wal.WriteHeaderSize + recordOverhead + cc.MaxKey + cc.MaxValue
	return (n + 63) / 64 * 64
}

// RequiredDirectSize returns the direct-zone bytes the store needs.
func (c Config) RequiredDirectSize() int {
	cc := c.withDefaults()
	return cc.WALSlotSize() * cc.WALSlots
}

// Stats are cumulative counters exposed for the benchmark harness.
type Stats struct {
	Puts        uint64
	Gets        uint64
	Deletes     uint64
	CacheHits   uint64
	CacheMisses uint64
	// Applies counts the records the appliers have retired, those a later
	// record of the same batch absorbed included, so Puts+Deletes−Applies is
	// the apply lag.
	Applies    uint64
	ChainReads uint64 // remote block reads during chain walks
	// ApplyBatches counts the batches those records were applied in,
	// AbsorbedRecords the ones never written because a later record for the
	// same key was in the same batch, and LocatedApplies the ones whose block
	// was known without a chain walk.
	ApplyBatches    uint64
	AbsorbedRecords uint64
	LocatedApplies  uint64
	// BatchDedupHits counts idempotent batches suppressed because their
	// token had already committed (retry after an ambiguous failure).
	BatchDedupHits uint64
	// RecoveryScanned counts the log entries this store's recovery found in
	// the window, RecoveryReplayed the records of those above the applied
	// mark, which it applied again (Recovery has the rest).
	RecoveryScanned  uint64
	RecoveryReplayed uint64
}

// Store is the coordinator-side key-value store. It is safe for concurrent
// use. Construct with New (fresh or recovering — New always runs recovery,
// which on a fresh store is a no-op).
type Store struct {
	cfg Config
	mem *repmem.Memory

	buckets    uint64
	blockSize  int
	stride     int // blockSize rounded up to the memory's write alignment
	bcodec     blockCodec
	bitmapBase uint64
	blocksBase uint64
	kvGeo      wal.Geometry

	// index caches the index table: bucket -> blockIdx+1 (0 = empty chain).
	index []uint64
	// bitmap caches the block allocator.
	bitmap   []byte
	bitmapMu sync.Mutex
	freeHint int

	bucketLocks []sync.RWMutex

	cache *cache

	seqMu     sync.Mutex
	seqCond   *sync.Cond
	nextIdx   uint64
	watermark uint64
	// unapplied[i%WALSlots] is how many records of log index i are not yet
	// retired (a PutBatch's records share an index); the watermark passes an
	// index at zero. The window never holds two indices of one residue.
	unapplied []int32
	// mark is the applied mark: every index at or below it committed and was
	// applied, so a successor need not replay it. Each log entry carries the
	// mark its committer read here when it reserved the index. It follows the
	// watermark, except that an index whose commit or apply failed is held —
	// the mark stays below it — until a committed entry has overwritten its
	// slot: until then a copy of the failed entry may sit on a minority of
	// nodes, and a successor that finds it must replay it, not take it for
	// applied (DESIGN.md §8, "Recovery and the applied mark"). held lists
	// those indices, at most one per slot.
	mark uint64
	held []uint64

	// dedup maps an idempotent-batch token to the log index it committed at.
	// It is rebuilt from the log during recovery, so the dedup window equals
	// the circular log's active window: a retry arriving within WALSlots
	// subsequent commits is suppressed, across coordinator failovers.
	dedupMu sync.Mutex
	dedup   map[string]uint64

	recovery Recovery // what New's recovery did; never written afterwards

	shards  []*shardQueue
	applyWG sync.WaitGroup
	closed  atomic.Bool

	// slotPool recycles log-slot buffers between commits; a buffer returns
	// to the pool only after every per-node write referencing it resolves.
	slotPool *sync.Pool
	// zeroBlock is what a freed block is overwritten with. Never written to.
	zeroBlock []byte

	stats struct {
		puts, gets, deletes    atomic.Uint64
		cacheHits, cacheMisses atomic.Uint64
		applies, chainReads    atomic.Uint64
		batchDedupHits         atomic.Uint64
		applyBatches           atomic.Uint64
		absorbed, located      atomic.Uint64
	}
}

const bucketStripes = 512

// New builds the store over mem and recovers its state: it loads the index
// table and bitmap from replicated memory and replays the KV write-ahead
// log (paper §4.3). On a fresh deployment both steps see zeroes and the
// store starts empty.
func New(mem *repmem.Memory, cfg Config) (*Store, error) {
	s, err := open(mem, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.startAppliers()
	return s, nil
}

// open builds the store over mem with nothing recovered and no applier
// running.
func open(mem *repmem.Memory, cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	// Data blocks sit on the memory's write alignment, so a block write is
	// whole in both modes: pure encode-and-fan-out under erasure coding, no
	// read-back of neighbouring integrity blocks without it.
	align := mem.WriteAlign()
	if need := c.RequiredMemSize(align); need > mem.MemSize() {
		return nil, fmt.Errorf("kv: needs %d bytes of main memory, have %d", need, mem.MemSize())
	}
	if need := c.RequiredDirectSize(); need > mem.DirectSize() {
		return nil, fmt.Errorf("kv: needs %d bytes of direct memory, have %d", need, mem.DirectSize())
	}
	s := &Store{
		cfg:         c,
		mem:         mem,
		buckets:     uint64(c.Buckets()),
		blockSize:   c.BlockSize(),
		stride:      c.BlockStride(align),
		bcodec:      c.codec(),
		bitmapBase:  uint64(c.IndexBytes()),
		blocksBase:  c.BlocksBase(align),
		kvGeo:       wal.Geometry{Base: 0, SlotSize: c.WALSlotSize(), Slots: c.WALSlots},
		index:       make([]uint64, c.Buckets()),
		bitmap:      make([]byte, c.BitmapBytes()),
		bucketLocks: make([]sync.RWMutex, bucketStripes),
		unapplied:   make([]int32, c.WALSlots),
		dedup:       make(map[string]uint64),
		nextIdx:     1,
	}
	s.seqCond = sync.NewCond(&s.seqMu)
	// Its own object, its constructor closing over itself and the size alone:
	// see repmem's bufPool for why a pool must not lead back to the store.
	pool, slotSize := new(sync.Pool), s.kvGeo.SlotSize
	pool.New = func() any {
		h := &slotBuf{b: make([]byte, slotSize)}
		h.release = func() { pool.Put(h) }
		return h
	}
	s.slotPool = pool
	s.zeroBlock = make([]byte, s.stride)
	cacheEntries := int(float64(c.Capacity) * c.CacheFraction)
	s.cache = newCache(cacheEntries)
	return s, nil
}

// startAppliers starts the background appliers, one per shard.
func (s *Store) startAppliers() {
	s.shards = make([]*shardQueue, s.cfg.ApplyShards)
	for i := range s.shards {
		q := newShardQueue()
		s.shards[i] = q
		s.applyWG.Add(1)
		go s.applyLoop(q)
	}
}

// Close stops the background appliers. Pending applies are drained first so
// every committed put reaches the replicated memory.
func (s *Store) Close() {
	// The sequence lock serialises this against commit's enqueue, so
	// no send can race the channel close.
	s.seqMu.Lock()
	if s.closed.Swap(true) {
		s.seqMu.Unlock()
		return
	}
	for _, q := range s.shards {
		q.close()
	}
	s.seqCond.Broadcast()
	s.seqMu.Unlock()
	s.applyWG.Wait()
}

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:           s.stats.puts.Load(),
		Gets:           s.stats.gets.Load(),
		Deletes:        s.stats.deletes.Load(),
		CacheHits:      s.stats.cacheHits.Load(),
		CacheMisses:    s.stats.cacheMisses.Load(),
		Applies:        s.stats.applies.Load(),
		ChainReads:     s.stats.chainReads.Load(),
		BatchDedupHits: s.stats.batchDedupHits.Load(),

		ApplyBatches:    s.stats.applyBatches.Load(),
		AbsorbedRecords: s.stats.absorbed.Load(),
		LocatedApplies:  s.stats.located.Load(),

		RecoveryScanned:  uint64(s.recovery.Scanned),
		RecoveryReplayed: uint64(s.recovery.Replayed),
	}
}

// Recovery reports what New's recovery read, skipped and replayed.
func (s *Store) Recovery() Recovery { return s.recovery }

// AppliedMark returns the applied mark and the next log index: the records
// between them are what a successor would replay if this store died now.
func (s *Store) AppliedMark() (mark, next uint64) {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.mark, s.nextIdx
}

// Memory returns the underlying replicated memory handle.
func (s *Store) Memory() *repmem.Memory { return s.mem }

// MemoryStats returns the replicated memory layer's counters.
func (s *Store) MemoryStats() repmem.Stats { return s.mem.Stats() }

// MemoryHealth returns the per-memory-node gray-failure view.
func (s *Store) MemoryHealth() []repmem.NodeHealth { return s.mem.Health() }

// bucketOf hashes a key to its bucket.
func (s *Store) bucketOf(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64() % s.buckets
}

func (s *Store) bucketLock(bucket uint64) *sync.RWMutex {
	return &s.bucketLocks[bucket%bucketStripes]
}

// indexAddr returns the main-space address of a bucket's index entry.
func (s *Store) indexAddr(bucket uint64) uint64 { return bucket * 8 }

// blockAddr returns the main-space address of data block i. Blocks are
// stride apart, so under erasure coding each occupies whole EC blocks.
func (s *Store) blockAddr(i uint64) uint64 {
	return s.blocksBase + i*uint64(s.stride)
}
