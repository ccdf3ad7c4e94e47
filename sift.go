// Package sift is a resource-efficient consensus library with a replicated
// key-value store, reproducing "Sift: Resource-Efficient Consensus with
// RDMA" (Kazhamiaka et al., CoNEXT 2019).
//
// Sift disaggregates a consensus group into CPU nodes (stateless; one is
// elected coordinator) and passive memory nodes reached via simulated
// one-sided RDMA (READ/WRITE/CAS over reliable connections). The
// coordinator logs client writes to a circular write-ahead log replicated
// on 2F+1 memory nodes, applies them to materialized replicated memory in
// the background, and serves reads from a local cache or a single remote
// read. F+1 CPU nodes tolerate F CPU failures because election happens
// entirely through compare-and-swap operations on the memory nodes'
// administrative words — CPU nodes never talk to each other.
//
// Optional erasure coding (Cauchy Reed–Solomon) stores one chunk per
// memory node instead of a full copy, cutting per-node memory by a factor
// of F+1 while keeping 2F+1-node fault tolerance; the write-ahead log
// remains unencoded so no committed write is ever lost to a
// coordinator+quorum-member double failure.
//
// The entry point is NewCluster, which builds an in-process deployment:
//
//	cluster, err := sift.NewCluster(sift.Config{F: 1})
//	if err != nil { ... }
//	defer cluster.Close()
//	client := cluster.Client()
//	client.Put([]byte("key"), []byte("value"))
//	v, err := client.Get([]byte("key"))
//
// Multi-process deployments use cmd/memnoded (passive memory node daemon)
// and cmd/siftd (CPU node daemon) over TCP; see the examples directory.
package sift

import (
	"errors"
	"fmt"
	"time"

	"github.com/repro/sift/internal/kv"
)

// Client-visible errors.
var (
	// ErrNotFound is returned by Get for missing keys.
	ErrNotFound = errors.New("sift: key not found")
	// ErrNoCoordinator means no coordinator was available within the
	// operation's retry budget (e.g. during a failover, or with every CPU
	// node down).
	ErrNoCoordinator = errors.New("sift: no coordinator available")
	// ErrClosed is returned after Cluster.Close.
	ErrClosed = errors.New("sift: cluster closed")
	// ErrAmbiguous means the operation exhausted its retry budget after at
	// least one attempt reached a coordinator, so it may or may not have
	// committed (e.g. the ack was lost to a failover mid-write). It wraps
	// ErrNoCoordinator: errors.Is(err, ErrNoCoordinator) still holds, and
	// callers that track consistency must treat the op as open-ended rather
	// than as a definite failure.
	ErrAmbiguous = fmt.Errorf("sift: operation outcome unknown (may have committed): %w", ErrNoCoordinator)
)

// LatencyProfile selects the simulated fabric's latency model.
type LatencyProfile int

// Latency profiles.
const (
	// NoLatency runs verbs at memory speed (tests, functional use).
	NoLatency LatencyProfile = iota
	// RDMALatency models a 10GbE RNIC (~2µs one-way + ~1ns/byte).
	RDMALatency
	// TCPLatency models kernel TCP on the same fabric (~25µs one-way).
	TCPLatency
)

// Config describes an in-process Sift deployment. The zero value is
// usable: F=1, no erasure coding, a modest key-value store, and no
// simulated latency.
type Config struct {
	// F is the fault tolerance level: the deployment has 2F+1 memory nodes
	// (tolerating F memory failures) and CPUNodes CPU nodes. Default 1.
	F int
	// CPUNodes is the number of CPU nodes (default F+1; 1 is valid when an
	// external backup pool supplies failover capacity, §5.2).
	CPUNodes int
	// ErasureCoding stores the materialized memory as Cauchy Reed–Solomon
	// chunks (k=F+1 data + F parity, one chunk per memory node).
	ErasureCoding bool

	// Keys is the key-value store capacity (default 16384; the paper's
	// evaluation uses 1M).
	Keys int
	// MaxKeySize and MaxValueSize bound keys and values (defaults 32 and
	// 992, the paper's §6.2 limits).
	MaxKeySize   int
	MaxValueSize int
	// CacheFraction sizes the coordinator's value cache relative to Keys
	// (default 0.5).
	CacheFraction float64
	// KVWALSlots is the key-value circular log size (default 4096 entries;
	// the paper uses 64k).
	KVWALSlots int
	// MemWALSlots and MemWALSlotSize define the replicated-memory log
	// (defaults 1024 × 4096 B; the paper uses 32k slots).
	MemWALSlots    int
	MemWALSlotSize int

	// HeartbeatInterval, ReadInterval, and MissedBeats configure failure
	// detection (defaults 7ms / 7ms / 3, the §6.5 values).
	HeartbeatInterval time.Duration
	ReadInterval      time.Duration
	MissedBeats       int

	// BackupReads lets follower CPU nodes serve Get requests directly from
	// replicated memory under a read lease piggybacked on their heartbeat
	// reads, spreading read load beyond the coordinator. Writes then wait
	// for their background apply (and briefly longer after a memory-node
	// exclusion) before acknowledging, so the reads stay linearizable; see
	// DESIGN.md §13. Off by default.
	BackupReads bool
	// LeaseWindow is the backup read-lease duration (default
	// 4×HeartbeatInterval). Shorter windows bound coordinator-failover
	// read unavailability tighter; longer windows tolerate heartbeat-read
	// scheduling jitter better.
	LeaseWindow time.Duration
	// NodeRecoveryInterval is the dead-memory-node reintegration poll
	// period (default 250ms).
	NodeRecoveryInterval time.Duration
	// ScrubInterval is the background integrity scrubber's tick; each tick
	// verifies a small batch of main-memory blocks and direct-zone ranges
	// against their checksums and cross-replica agreement, repairing what it
	// can. Default 50ms; negative disables the scrubber.
	ScrubInterval time.Duration

	// OpDeadline bounds every one-sided verb (READ/WRITE/CAS): an
	// operation outstanding longer than this fails with rdma.ErrDeadline
	// instead of blocking its submitter, which is what lets the cluster
	// detect hung-but-connected (gray) memory nodes. Default 1s; negative
	// disables per-operation deadlines entirely.
	OpDeadline time.Duration
	// StragglerMinLatency is the floor of the EWMA straggler detector: a
	// live memory node whose commit-latency EWMA exceeds both 16 × the
	// fastest node's EWMA and this floor is moved to the degraded state —
	// health-reported, written best-effort, excluded from quorum waits, but
	// not oscillated through the suspect→repair cycle (default 2ms).
	StragglerMinLatency time.Duration

	// WAN, when non-nil, places part of the deployment across a simulated
	// wide-area link — sustained latency, bursty loss, reordering — with a
	// loss-adaptive FEC transport on the impaired paths; see WANConfig.
	WAN *WANConfig

	// FaultInjection interposes a fault-injection layer between CPU nodes
	// and the fabric; Faults() then controls per-memory-node drop, delay,
	// hang, and dial failures. For chaos tests only — off by default.
	FaultInjection bool

	// Latency selects the simulated fabric profile.
	Latency LatencyProfile

	// PersistDir, when non-empty, additionally writes every committed
	// update to a durable store (internal/persist's minidb) at this path —
	// the paper's §3.5 persistence option, where a background thread
	// synchronously persists committed writes. The directory is created if
	// missing and survives cluster restarts.
	PersistDir string

	// Seed makes elections and backoffs deterministic.
	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.F <= 0 {
		out.F = 1
	}
	if out.CPUNodes <= 0 {
		out.CPUNodes = out.F + 1
	}
	if out.Keys <= 0 {
		out.Keys = 16384
	}
	if out.MaxKeySize <= 0 {
		out.MaxKeySize = 32
	}
	if out.MaxValueSize <= 0 {
		out.MaxValueSize = 992
	}
	if out.CacheFraction <= 0 {
		out.CacheFraction = 0.5
	}
	if out.KVWALSlots <= 0 {
		out.KVWALSlots = 4096
	}
	if out.MemWALSlots <= 0 {
		out.MemWALSlots = 1024
	}
	if out.MemWALSlotSize <= 0 {
		out.MemWALSlotSize = 4096
	}
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 7 * time.Millisecond
	}
	if out.ReadInterval <= 0 {
		out.ReadInterval = 7 * time.Millisecond
	}
	if out.MissedBeats <= 0 {
		out.MissedBeats = 3
	}
	if out.BackupReads && out.LeaseWindow <= 0 {
		out.LeaseWindow = 4 * out.HeartbeatInterval
	}
	if out.NodeRecoveryInterval <= 0 {
		out.NodeRecoveryInterval = 250 * time.Millisecond
	}
	if out.ScrubInterval == 0 {
		out.ScrubInterval = 50 * time.Millisecond
	}
	if out.OpDeadline == 0 {
		out.OpDeadline = time.Second
	}
	if out.OpDeadline < 0 {
		out.OpDeadline = 0
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// Validate checks the configuration.
func (c Config) Validate() error {
	cc := c.withDefaults()
	if cc.F > 5 {
		return fmt.Errorf("sift: F=%d is unreasonably large for an in-process cluster", cc.F)
	}
	kcfg := cc.kvConfig()
	return kcfg.Validate()
}

// kvConfig derives the key-value store configuration.
func (c Config) kvConfig() kv.Config {
	return kv.Config{
		Capacity:      c.Keys,
		MaxKey:        c.MaxKeySize,
		MaxValue:      c.MaxValueSize,
		CacheFraction: c.CacheFraction,
		WALSlots:      c.KVWALSlots,
		ApplyShards:   4,
	}
}
