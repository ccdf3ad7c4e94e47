package sift

import (
	"fmt"
	"slices"
	"time"

	"github.com/repro/sift/internal/core"
	"github.com/repro/sift/internal/memnode"
)

// Online reconfiguration: add, remove, and replace memory nodes while the
// cluster serves traffic. The coordinator drives state transfer and the
// epoch commit (see internal/repmem); the cluster layer creates the backing
// machines, routes the request to the serving coordinator, and fans the
// committed configuration out to the follower CPU nodes so their electors
// and backup readers follow the member set.

// coordinatorNode returns the serving coordinator CPU node, waiting up to
// timeout for one (reconfigurations race coordinator failovers).
func (cl *Cluster) coordinatorNode(timeout time.Duration) (*core.CPUNode, error) {
	deadline := time.Now().Add(timeout)
	for {
		cl.mu.Lock()
		for _, r := range cl.runners {
			if r.node.Role() == core.Coordinator && r.node.Store() != nil {
				n := r.node
				cl.mu.Unlock()
				return n, nil
			}
		}
		cl.mu.Unlock()
		if time.Now().After(deadline) {
			return nil, ErrNoCoordinator
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ensureMemMachine makes sure a memory-node machine named name exists on the
// fabric with the given layout. A machine that already exists but is not in
// the current member set is wiped to the target layout — joining is always
// from empty; the state-transfer pipeline fills it.
func (cl *Cluster) ensureMemMachine(name string, layout memnode.Layout, current map[string]bool) error {
	if node := cl.network.Node(name); node != nil {
		if current[name] {
			return nil // retained member: leave its contents alone
		}
		memnode.Reset(node, layout)
		cl.fabric.Restart(name)
		return nil
	}
	node, err := memnode.New(name, layout)
	if err != nil {
		return err
	}
	cl.network.AddNode(node)
	cl.registerNodeGauge(name)
	return nil
}

// adoptClusterConfig records a committed configuration at cluster scope
// (member names, repmem config for later CPU-node starts and machine
// resets) and pushes it to every running CPU node.
func (cl *Cluster) adoptClusterConfig(rec memnode.ConfigRecord) {
	cl.mu.Lock()
	cl.memNames = append([]string(nil), rec.Members...)
	cl.mcfg.MemoryNodes = cl.memNames
	cl.mcfg.Epoch = rec.Epoch
	cl.mcfg.ECData, cl.mcfg.ECParity = rec.ECData, rec.ECParity
	if rec.ECBlockSize > 0 {
		cl.mcfg.ECBlockSize = rec.ECBlockSize
	}
	runners := make([]*cpuRunner, 0, len(cl.runners))
	for _, r := range cl.runners {
		runners = append(runners, r)
	}
	cl.mu.Unlock()
	for _, r := range runners {
		r.node.AdoptConfig(rec)
	}
	cl.events.Emit("cluster.reconfigured", "", 0,
		fmt.Sprintf("config epoch %d: %d members", rec.Epoch, len(rec.Members)))
}

// ConfigEpoch returns the serving coordinator's committed config epoch (0
// when no coordinator serves).
func (cl *Cluster) ConfigEpoch() uint32 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, r := range cl.runners {
		if r.node.Role() == core.Coordinator && r.node.Store() != nil {
			return r.node.ConfigEpoch()
		}
	}
	return 0
}

// currentMemberSet returns the member names as a set (under cl.mu).
func (cl *Cluster) currentMemberSet() map[string]bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	set := make(map[string]bool, len(cl.memNames))
	for _, n := range cl.memNames {
		set[n] = true
	}
	return set
}

// freshMemName picks an unused memory-node name ("memN" with the smallest
// free N at or above the current count).
func (cl *Cluster) freshMemName() string {
	used := cl.currentMemberSet()
	for i := 0; ; i++ {
		name := fmt.Sprintf("mem%d", i)
		if !used[name] && cl.network.Node(name) == nil {
			return name
		}
	}
}

// ReplaceMemoryNode live-replaces memory node oldName with a fresh machine
// named newName ("" picks a name): a restripe onto the current member list
// with that one name swapped, in the same geometry. The old node may be
// live or dead: either way the replacement is caught up from the surviving
// copies under traffic and cut over under a short write barrier, and a
// failed copy leaves the configuration as it was. The
// replaced node's machine is left on the fabric, fenced out by the new
// config epoch and its retired tombstone. Returns the replacement's name.
func (cl *Cluster) ReplaceMemoryNode(oldName, newName string) (string, error) {
	cl.mu.Lock()
	members := append([]string(nil), cl.memNames...)
	ecData, ecParity := cl.mcfg.ECData, cl.mcfg.ECParity
	cl.mu.Unlock()
	if newName == "" {
		newName = cl.freshMemName()
	}
	i := slices.Index(members, oldName)
	if i < 0 {
		return "", fmt.Errorf("sift: %q is not a memory node", oldName)
	}
	if slices.Contains(members, newName) {
		return "", fmt.Errorf("sift: %q is already a memory node", newName)
	}
	members[i] = newName
	if err := cl.RestripeMemoryNodes(members, ecData, ecParity); err != nil {
		return "", err
	}
	return newName, nil
}

// AddMemoryNode grows a fully replicated group by one fresh node named name
// ("" picks a name). Erasure-coded groups cannot grow one node at a time
// (the chunk layout is positional); use RestripeMemoryNodes. Returns the new
// node's name.
func (cl *Cluster) AddMemoryNode(name string) (string, error) {
	cl.mu.Lock()
	if cl.cfg.ErasureCoding {
		cl.mu.Unlock()
		return "", fmt.Errorf("sift: cannot add a single node to an erasure-coded group; use RestripeMemoryNodes")
	}
	members := append([]string(nil), cl.memNames...)
	cl.mu.Unlock()
	if name == "" {
		name = cl.freshMemName()
	}
	for _, m := range members {
		if m == name {
			return "", fmt.Errorf("sift: %q is already a memory node", name)
		}
	}
	if err := cl.RestripeMemoryNodes(append(members, name), 0, 0); err != nil {
		return "", err
	}
	return name, nil
}

// RemoveMemoryNode shrinks a fully replicated group by one node. The removed
// node's machine is left on the fabric (fenced by epoch + tombstone).
func (cl *Cluster) RemoveMemoryNode(name string) error {
	cl.mu.Lock()
	if cl.cfg.ErasureCoding {
		cl.mu.Unlock()
		return fmt.Errorf("sift: cannot remove a single node from an erasure-coded group; use RestripeMemoryNodes")
	}
	members := make([]string, 0, len(cl.memNames))
	found := false
	for _, m := range cl.memNames {
		if m == name {
			found = true
			continue
		}
		members = append(members, m)
	}
	cl.mu.Unlock()
	if !found {
		return fmt.Errorf("sift: %q is not a memory node", name)
	}
	if len(members) == 0 {
		return fmt.Errorf("sift: cannot remove the last memory node")
	}
	return cl.RestripeMemoryNodes(members, 0, 0)
}

// RestripeMemoryNodes moves the group onto a new member set and/or erasure
// geometry. Full replication stays full replication and EC stays EC with
// the same block size — the KV layer's block alignment is derived from it
// and cannot change under a live store. Only joining nodes are copied to;
// under EC a current member can stay only at its own chunk index under the
// same code (chunk placement is positional), so a new geometry needs an
// entirely fresh target set. Machines for fresh member names are created
// (or wiped) automatically with the target layout.
func (cl *Cluster) RestripeMemoryNodes(members []string, ecData, ecParity int) error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return ErrClosed
	}
	tcfg := cl.mcfg
	cl.mu.Unlock()
	tcfg.MemoryNodes = members
	tcfg.ECData, tcfg.ECParity = ecData, ecParity
	layout := tcfg.Layout()

	current := cl.currentMemberSet()
	for _, name := range members {
		if err := cl.ensureMemMachine(name, layout, current); err != nil {
			return err
		}
	}
	n, err := cl.coordinatorNode(5 * time.Second)
	if err != nil {
		return err
	}
	if err := n.RestripeMemoryNodes(members, ecData, ecParity); err != nil {
		return err
	}
	cl.adoptClusterConfig(n.ConfigSnapshot())
	return nil
}
