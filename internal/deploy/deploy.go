// Package deploy derives the key-value and replicated-memory
// configurations (sizes, erasure geometry, memory-node layout) from
// user-facing deployment parameters. The in-process Cluster and the
// multi-process daemons (cmd/memnoded, cmd/siftd) share this derivation so
// their layouts always agree.
package deploy

import (
	"fmt"

	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/repmem"
)

// Params are the user-facing deployment knobs.
type Params struct {
	// F is the fault tolerance level (2F+1 memory nodes).
	F int
	// EC enables erasure coding (k=F+1 data + F parity chunks).
	EC bool
	// Key-value sizing.
	Keys          int
	MaxKey        int
	MaxValue      int
	CacheFraction float64
	KVWALSlots    int
	// Replicated-memory log sizing.
	MemWALSlots    int
	MemWALSlotSize int
}

func (p *Params) withDefaults() Params {
	out := *p
	if out.F <= 0 {
		out.F = 1
	}
	if out.Keys <= 0 {
		out.Keys = 16384
	}
	if out.MaxKey <= 0 {
		out.MaxKey = 32
	}
	if out.MaxValue <= 0 {
		out.MaxValue = 992
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
	return out
}

// Derive computes the layer configurations. The returned repmem.Config has
// MemoryNodes and Dial unset (the deployment wires those).
func (p Params) Derive() (kv.Config, repmem.Config, error) {
	pp := p.withDefaults()
	kcfg := kv.Config{
		Capacity:      pp.Keys,
		MaxKey:        pp.MaxKey,
		MaxValue:      pp.MaxValue,
		CacheFraction: pp.CacheFraction,
		WALSlots:      pp.KVWALSlots,
		ApplyShards:   4,
	}
	if err := kcfg.Validate(); err != nil {
		return kv.Config{}, repmem.Config{}, err
	}
	mcfg := repmem.Config{
		WALSlots:    pp.MemWALSlots,
		WALSlotSize: pp.MemWALSlotSize,
	}
	if pp.EC {
		k := pp.F + 1
		mcfg.ECData = k
		mcfg.ECParity = pp.F
		// The EC block is the KV data block rounded up so every feasible
		// data-chunk count divides it — both today's k and any k' an online
		// restripe may move to. The KV block alignment is derived from this
		// size and cannot change under a live store, so divisibility must be
		// built in up front: lcm(1..8) covers restripes up to 8 data chunks,
		// and larger initial k folds itself in.
		unit := lcm(840, k) // 840 = lcm(1..8)
		mcfg.ECBlockSize = (kcfg.BlockSize() + unit - 1) / unit * unit
	}
	if !pp.EC {
		// Integrity blocks are sized to the KV data block. kv.New places its
		// data blocks on the memory's write alignment (repmem's WriteAlign:
		// this size, or the EC block above), so a block apply covers exactly
		// one integrity block and goes out with no read-back: a batch of
		// in-place puts costs each node one request carrying every block and
		// its checksum entry, and no read (apply_cost_test.go counts it).
		// Only index words and bitmap bytes, which are smaller than a block,
		// are read-modify-written, once per integrity block per batch. The
		// memory is sized for that same alignment here, which is what keeps
		// kv.RequiredMemSize in agreement on both sides.
		mcfg.IntegrityBlockSize = kcfg.BlockSize()
	}
	mcfg.MemSize = kcfg.RequiredMemSize(mcfg.WriteAlign())
	if pp.EC && mcfg.MemSize%mcfg.ECBlockSize != 0 {
		mcfg.MemSize = (mcfg.MemSize/mcfg.ECBlockSize + 1) * mcfg.ECBlockSize
	}
	mcfg.DirectSize = kcfg.RequiredDirectSize()
	return kcfg, mcfg, nil
}

// Layout computes the memory-node layout for these parameters.
func (p Params) Layout() (memnode.Layout, error) {
	_, mcfg, err := p.Derive()
	if err != nil {
		return memnode.Layout{}, err
	}
	return mcfg.Layout(), nil
}

// MemoryNodeCount returns 2F+1.
func (p Params) MemoryNodeCount() int {
	pp := p.withDefaults()
	return 2*pp.F + 1
}

// Validate checks the parameters are internally consistent.
func (p Params) Validate() error {
	if _, _, err := p.Derive(); err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
