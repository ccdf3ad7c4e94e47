// Reconfiguration plane: coordinator-driven add/remove/replace of memory
// nodes under traffic. The heavy lifting (state transfer, re-striping, epoch
// commit, the in-place cutover) lives in internal/repmem; this file adopts
// committed configurations into the CPU-node state machine and lets
// followers discover configurations they were not told about from the admin
// plane itself.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/repro/sift/internal/election"
	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
)

// ErrNotCoordinator is returned by reconfiguration entry points invoked on a
// node that is not currently serving as coordinator.
var ErrNotCoordinator = errors.New("core: not the coordinator")

// ConfigSnapshot returns a copy of the node's currently adopted memory-node
// configuration.
func (n *CPUNode) ConfigSnapshot() memnode.ConfigRecord {
	n.confMu.Lock()
	defer n.confMu.Unlock()
	rec := n.conf
	rec.Members = append([]string(nil), n.conf.Members...)
	return rec
}

// ConfigEpoch returns the adopted config epoch.
func (n *CPUNode) ConfigEpoch() uint32 { return n.ConfigSnapshot().Epoch }

// adoptRecord installs rec as the node's configuration if it supersedes the
// current one, and retargets the elector at the new member set either way
// (idempotent). Followers adopting a pushed record use this too.
func (n *CPUNode) adoptRecord(rec memnode.ConfigRecord) {
	n.confMu.Lock()
	if rec.Newer(n.conf) {
		n.conf = rec
		n.conf.Members = append([]string(nil), rec.Members...)
	}
	members := append([]string(nil), n.conf.Members...)
	n.confMu.Unlock()
	n.elector.UpdateMembers(members)
}

// AdoptConfig lets the control plane push a committed configuration to a
// follower so its elector and next takeover use the new member set without
// waiting for admin-plane discovery.
func (n *CPUNode) AdoptConfig(rec memnode.ConfigRecord) { n.adoptRecord(rec) }

// RefreshConfig adopts any committed configuration on the admin plane newer
// than the adopted one and returns the adopted configuration. Only a
// coordinator learns of its own reconfigurations as they commit; a follower
// answering for the group asks the memory nodes first.
func (n *CPUNode) RefreshConfig() memnode.ConfigRecord {
	n.discoverAndAdopt()
	return n.ConfigSnapshot()
}

// discoverAndAdopt reads the admin plane for a committed configuration newer
// than the adopted one and installs it. Returns whether anything newer was
// found.
func (n *CPUNode) discoverAndAdopt() bool {
	snap := n.ConfigSnapshot()
	rec, ok := discoverConfig(n.cfg.Election.Dial, snap.Members)
	if !ok || !rec.Newer(snap) {
		return false
	}
	n.adoptRecord(rec)
	n.emit("config.adopted", 0, fmt.Sprintf("discovered config epoch %d (%d members)", rec.Epoch, len(rec.Members)))
	return true
}

// readEpochWordAt reads a node's committed (config epoch, term) word.
func readEpochWordAt(c rdma.Verbs) (uint32, uint16, error) {
	var buf [8]byte
	if err := c.Read(memnode.AdminRegionID, memnode.AdminEpochOffset, buf[:]); err != nil {
		return 0, 0, err
	}
	w := binary.LittleEndian.Uint64(buf[:])
	return uint32(w >> 16), uint16(w), nil
}

// discoverConfig crawls the admin plane for the authoritative configuration:
// the highest-(epoch, term) valid descriptor whose epoch does not exceed the
// highest committed epoch word observed (a descriptor above every epoch word
// describes an uncommitted reconfiguration and must not be adopted). It
// chases descriptors' member lists for a bounded number of rounds, so a node
// seeded with a partially replaced member set still finds the current one as
// long as one seed node carries the current descriptor.
func discoverConfig(dial election.Dialer, seed []string) (memnode.ConfigRecord, bool) {
	if dial == nil {
		return memnode.ConfigRecord{}, false
	}
	seen := make(map[string]bool)
	frontier := append([]string(nil), seed...)
	var maxEpoch uint32
	var descs []memnode.ConfigRecord
	for round := 0; round < 3 && len(frontier) > 0; round++ {
		var next []string
		for _, node := range frontier {
			if seen[node] {
				continue
			}
			seen[node] = true
			c, err := dial(node)
			if err != nil {
				continue
			}
			if e, _, err := readEpochWordAt(c); err == nil && e > maxEpoch {
				maxEpoch = e
			}
			buf := make([]byte, memnode.MaxConfigSize)
			if err := c.Read(memnode.AdminRegionID, memnode.AdminConfigOffset, buf); err == nil {
				if rec, ok := memnode.DecodeConfig(buf); ok {
					descs = append(descs, rec)
					for _, m := range rec.Members {
						if !seen[m] {
							next = append(next, m)
						}
					}
				}
			}
			c.Close()
		}
		frontier = next
	}
	var best memnode.ConfigRecord
	found := false
	for _, rec := range descs {
		if rec.Epoch <= maxEpoch && (!found || rec.Newer(best)) {
			best, found = rec, true
		}
	}
	return best, found
}

// coordinatorMemory returns the serving store's memory handle, or
// ErrNotCoordinator.
func (n *CPUNode) coordinatorMemory() (*kv.Store, *repmem.Memory, error) {
	st := n.store.Load()
	if st == nil {
		return nil, nil, ErrNotCoordinator
	}
	mem := st.Memory()
	if mem == nil {
		return nil, nil, ErrNotCoordinator
	}
	return st, mem, nil
}

// RestripeMemoryNodes moves the group to a new member set and/or erasure
// geometry (full replication stays full replication, EC stays EC with the
// same block size — see repmem.Reconfigure for the exact rules) while this
// node coordinates; a replacement is the current member list with one name
// swapped. The memory copies what the joining nodes need under traffic and
// cuts over in place, so the store keeps serving over it throughout, and
// the elector is then retargeted at the committed member set. A commit that
// leaves the epoch ambiguous fences the memory: this node stands down, and
// its successor discovers whichever configuration committed.
func (n *CPUNode) RestripeMemoryNodes(members []string, ecData, ecParity int) error {
	_, mem, err := n.coordinatorMemory()
	if err != nil {
		return err
	}
	if err := mem.Reconfigure(repmem.Target{Members: members, ECData: ecData, ECParity: ecParity}); err != nil {
		return err
	}
	n.adoptRecord(mem.ConfigRecord())
	return nil
}
