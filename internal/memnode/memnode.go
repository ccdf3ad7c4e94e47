// Package memnode defines the memory layout of a Sift memory node and
// helpers to construct one (paper §3.1, Figure 1).
//
// A memory node is completely passive: it registers two RDMA memory regions
// and then only participates by having its NIC (simulated by the rdma
// package transports) serve one-sided operations.
//
//   - The administrative region holds the heartbeat/election word
//     (term_id, node_id, timestamp) and is shared: every CPU node may CAS it.
//   - The replicated memory region is exclusive (at-most-one-connection) and
//     is subdivided into a direct-write zone (unlogged, holding the
//     key-value store's own write-ahead log), the materialized replicated
//     memory, and the materialized memory's checksum strip. The paper's
//     memory-level log is the key-value store's log: nothing else writes one.
package memnode

import (
	"fmt"

	"github.com/repro/sift/internal/rdma"
)

// Region ids used by every Sift memory node.
const (
	// AdminRegionID is the shared administrative (heartbeat) region.
	AdminRegionID rdma.RegionID = 1
	// ReplRegionID is the exclusive replicated memory region.
	ReplRegionID rdma.RegionID = 2
)

// AdminSize is the administrative region size: the fixed control words in
// the first 64 bytes plus the variable-length configuration descriptor at
// AdminConfigOffset.
const AdminSize = 4096

// AdminWordOffset is the offset of the packed heartbeat word.
const AdminWordOffset = 0

// AdminPopulatedOffset is the offset of the "populated" marker word: 0
// means the node's replicated region holds no trustworthy state (fresh
// machine, rebooted DRAM, or a recovery copy in progress); 1 means a
// coordinator has fully populated it. Coordinators check this at takeover
// so a node that lost its memory between coordinatorships is recovered
// rather than read.
const AdminPopulatedOffset = 8

// Populated marker values.
const (
	MarkerEmpty     = 0
	MarkerPopulated = 1
)

// AdminMembershipOffset is the offset of the 16-byte membership record: the
// coordinator publishes (configEpoch, term, version, liveBitmap) here on
// every writable node whenever its view of the live memory nodes changes.
// A successor reads the record from a majority, takes the highest
// (epoch, term, version), and treats nodes absent from that bitmap as
// needing a rebuild — so a node that silently missed updates (partitioned
// with its DRAM intact) is never read after a coordinator failover. The
// bitmap's bit positions are indexes into the member list of the named
// config epoch, so records from any other epoch are meaningless and must be
// ignored, not merely term-compared. Stale coordinators lose automatically:
// their epoch/term tags are smaller.
const AdminMembershipOffset = 16

// AdminServingOffset is the offset of the serving word, packing
// (configEpoch, term): the coordinator of term T at config epoch E writes
// (E, T) here only once its takeover is complete — recovery and log replay
// finished, table structures stable apart from live applies. A backup CPU
// node serving lease-based reads requires its lease term AND its view's
// config epoch to equal this word: a lease alone says nothing about whether
// a replay (which rewrites blocks through older states) is still in flight,
// and a reconfiguration clears/advances the epoch half so views built
// against the outgoing node set refuse to serve until the new epoch's
// coordinator has republished. Monotonic; readers take the maximum.
const AdminServingOffset = 32

// AdminEpochOffset is the offset of the config-epoch word, packing
// (configEpoch, term). It is advanced by CAS during a reconfiguration
// cutover: the acting coordinator (fenced by its term) CASes
// (E, T) → (E+1, T) on the new member set, making the epoch transition a
// single atomic decision point per node. Readers (views, recovering nodes,
// successors) compare it against the epoch their member list was built for
// and re-discover the configuration descriptor on mismatch.
const AdminEpochOffset = 40

// AdminRetiredOffset is the retired tombstone: zero while the node is a
// group member; the epoch at which it was removed otherwise. A removed node
// keeps its DRAM intact, so without the tombstone a partitioned reader
// could mistake its frozen state for current; readers skip any node whose
// tombstone is set. Re-adding a retired machine clears the tombstone as
// part of its (mandatory) rebuild.
const AdminRetiredOffset = 48

// AdminConfigOffset is the offset of the configuration descriptor: a
// CRC-protected, epoch-tagged record of the full member list and erasure
// geometry (see EncodeConfig). It is written to every node — including ones
// being removed — BEFORE the epoch CAS, so a reader holding any node of any
// recent configuration can chase its way to the authoritative member set.
const AdminConfigOffset = 64

// MaxConfigSize bounds the encoded configuration descriptor.
const MaxConfigSize = AdminSize - AdminConfigOffset

// PackMembership builds the two words of a membership record. The second
// word carries the bitmap and its complement, so a torn or zeroed record is
// self-evidently invalid.
func PackMembership(epoch uint32, term, version uint16, bitmap uint32) (w0, w1 uint64) {
	w0 = uint64(epoch)<<32 | uint64(term)<<16 | uint64(version)
	w1 = uint64(bitmap)<<32 | uint64(^bitmap)
	return w0, w1
}

// UnpackMembership splits a membership record. ok is false for a zero or
// torn record.
func UnpackMembership(w0, w1 uint64) (epoch uint32, term, version uint16, bitmap uint32, ok bool) {
	if w0 == 0 || uint32(w1>>32) != ^uint32(w1) {
		return 0, 0, 0, 0, false
	}
	return uint32(w0 >> 32), uint16(w0 >> 16), uint16(w0), uint32(w1 >> 32), true
}

// PackServing builds a serving word from (configEpoch, term); shared by the
// epoch word at AdminEpochOffset, which uses the same packing. Numeric
// order coincides with (epoch, term) order.
func PackServing(epoch uint32, term uint16) uint64 {
	return uint64(epoch)<<16 | uint64(term)
}

// UnpackServing splits a serving (or config-epoch) word.
func UnpackServing(w uint64) (epoch uint32, term uint16) {
	return uint32(w >> 16), uint16(w)
}

// Layout describes how a memory node's replicated region is carved up.
// All coordinators of a group must agree on the layout.
type Layout struct {
	// DirectSize is the size of the direct-write zone (full copy per node),
	// which starts at region offset 0.
	DirectSize int
	// MainSize is the per-node size of the materialized memory: the full
	// logical memory size without erasure coding, or the chunked share
	// (logical size / (Fm+1)) with it.
	MainSize int
	// IntegrityBlockSize is the granularity of the main-memory checksum
	// strip: one CRC32C per IntegrityBlockSize bytes of this node's
	// materialized memory (a plain-replicated block, or one erasure-coded
	// chunk). Zero means no strip.
	IntegrityBlockSize int
}

// Validate checks the layout for consistency.
func (l Layout) Validate() error {
	if l.DirectSize < 0 || l.MainSize <= 0 || l.IntegrityBlockSize < 0 {
		return fmt.Errorf("memnode: invalid layout %+v", l)
	}
	return nil
}

// DirectBase returns the region offset of the direct-write zone.
func (l Layout) DirectBase() uint64 { return 0 }

// MainBase returns the region offset of the materialized memory.
func (l Layout) MainBase() uint64 { return uint64(l.DirectSize) }

// IntegritySlots returns the number of checksum strip entries: one per
// IntegrityBlockSize bytes of the node's materialized memory, with a final
// short block when MainSize is not a multiple. Zero when the strip is off.
func (l Layout) IntegritySlots() int {
	if l.IntegrityBlockSize <= 0 {
		return 0
	}
	return (l.MainSize + l.IntegrityBlockSize - 1) / l.IntegrityBlockSize
}

// IntegrityBytes returns the checksum strip size (4 bytes per slot).
func (l Layout) IntegrityBytes() int { return 4 * l.IntegritySlots() }

// IntegrityBase returns the region offset of the checksum strip. The strip
// sits after the materialized memory, so the direct-zone and main-memory
// offsets do not depend on the integrity block size.
func (l Layout) IntegrityBase() uint64 {
	return uint64(l.DirectSize + l.MainSize)
}

// IntegrityOffset returns the region offset of strip entry b.
func (l Layout) IntegrityOffset(b uint64) uint64 { return l.IntegrityBase() + 4*b }

// ReplSize returns the total replicated region size.
func (l Layout) ReplSize() int {
	return l.DirectSize + l.MainSize + l.IntegrityBytes()
}

// New constructs a memory node with the standard admin and replicated
// regions for the given layout.
func New(name string, l Layout) (*rdma.Node, error) {
	return NewWithCapacity(name, l, 0)
}

// NewWithCapacity constructs a memory node whose replicated region is at
// least capacityBytes, even if the given layout needs less. Reconfiguration
// can change the per-node share (a shrink spreads the same logical memory
// over fewer nodes; an EC→plain change makes each node hold the full copy),
// so a cluster expecting to reconfigure allocates every node at the
// worst-case share up front — DRAM is reserved at boot on real hardware
// anyway, and the layout in use simply leaves the tail idle.
func NewWithCapacity(name string, l Layout, capacityBytes int) (*rdma.Node, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	size := l.ReplSize()
	if capacityBytes > size {
		size = capacityBytes
	}
	n := rdma.NewNode(name)
	n.Alloc(AdminRegionID, AdminSize, false)
	n.Alloc(ReplRegionID, size, true)
	return n, nil
}

// Reset zeroes a node's regions, modelling the loss of volatile memory when
// a memory node restarts (Sift stores everything in DRAM by default, §3.5).
// The populated marker is cleared — that is the point: the next coordinator
// must not trust this node's contents. The election word is preserved as a
// simplification (a real reboot would zero it too; candidates recover from
// that via their CAS return values, but keeping it avoids pointless term
// churn in tests).
func Reset(n *rdma.Node, l Layout) {
	if a := n.Region(AdminRegionID); a != nil {
		var zero [8]byte
		a.WriteAt(0, AdminPopulatedOffset, zero[:]) //nolint:errcheck — admin region is shared (epoch 0)
	}
	if r := n.Region(ReplRegionID); r != nil {
		// Reset is node-local maintenance: acquire a fresh epoch to write
		// (this also fences any lingering coordinator connection, exactly as
		// a machine reboot would). The next coordinator connection acquires
		// a newer epoch on dial.
		epoch := r.Acquire()
		zero := make([]byte, 64<<10)
		size := uint64(r.Size())
		for off := uint64(0); off < size; off += uint64(len(zero)) {
			chunk := zero
			if rem := size - off; rem < uint64(len(zero)) {
				chunk = zero[:rem]
			}
			if err := r.WriteAt(epoch, off, chunk); err != nil {
				return
			}
		}
	}
}
