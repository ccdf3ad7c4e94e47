package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// addMemMachine puts one more memory-node machine on the group's fabric.
func (e *groupEnv) addMemMachine(t *testing.T, name string) {
	t.Helper()
	node, err := memnode.New(name, e.mcfg.Layout())
	if err != nil {
		t.Fatal(err)
	}
	e.nw.AddNode(node)
}

// startNodes runs one CPU node per config until the test ends.
func startNodes(t *testing.T, cfgs ...Config) []*CPUNode {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	nodes := make([]*CPUNode, len(cfgs))
	done := make(chan struct{}, len(cfgs))
	for i, cfg := range cfgs {
		nodes[i] = NewCPUNode(cfg)
		go func(n *CPUNode) {
			n.Run(ctx)
			done <- struct{}{}
		}(nodes[i])
	}
	t.Cleanup(func() {
		cancel()
		for range cfgs {
			<-done
		}
	})
	return nodes
}

// TestRefreshConfigFollowerSeesRestripe: followers are not told of a
// reconfiguration, so a follower answering for the group (siftd's epoch
// verb) reads the committed configuration off the memory nodes first.
func TestRefreshConfigFollowerSeesRestripe(t *testing.T) {
	e := newGroupEnv(t, 3)
	e.addMemMachine(t, "m3")
	nodes := startNodes(t, e.nodeConfig(1), e.nodeConfig(2))
	coord := waitCoordinator(t, nodes, 3*time.Second)
	follower := nodes[0]
	if follower == coord {
		follower = nodes[1]
	}
	grown := []string{"m0", "m1", "m2", "m3"}
	if err := coord.RestripeMemoryNodes(grown, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := follower.ConfigSnapshot(); got.Epoch != 1 {
		t.Fatalf("follower adopted epoch %d without being told; the test needs it at 1", got.Epoch)
	}
	got := follower.RefreshConfig()
	if got.Epoch != 2 || !slices.Equal(got.Members, grown) {
		t.Fatalf("follower's refreshed config = epoch %d members %v, want epoch 2 members %v", got.Epoch, got.Members, grown)
	}
}

// casRefusingConn fails every config-epoch CAS while refuse is set.
type casRefusingConn struct {
	rdma.Verbs
	refuse *atomic.Bool
}

func (c casRefusingConn) CompareAndSwap(region rdma.RegionID, off, expect, swap uint64) (uint64, error) {
	if c.refuse.Load() && region == memnode.AdminRegionID && off == memnode.AdminEpochOffset {
		return 0, errors.New("injected: epoch CAS refused")
	}
	return c.Verbs.CompareAndSwap(region, off, expect, swap)
}

// TestReconfigureAmbiguousCommitStandsDown: the retained members refuse the
// epoch CAS, so a restripe's advance reaches only the joiner, below a
// majority of the incoming set. The call fails, the coordinator stands down
// (no rebuild inside its term: whoever serves next does so at a later term),
// the group converges on one configuration epoch, and a write acknowledged
// before the attempt is still readable.
func TestReconfigureAmbiguousCommitStandsDown(t *testing.T) {
	e := newGroupEnv(t, 3)
	e.addMemMachine(t, "m3")
	var refuse atomic.Bool
	cfgs := []Config{e.nodeConfig(1), e.nodeConfig(2)}
	for i := range cfgs {
		dial := cfgs[i].Memory.Dial
		cfgs[i].Memory.Dial = func(node string) (rdma.Verbs, error) {
			c, err := dial(node)
			if err != nil || node == "m3" {
				return c, err
			}
			return casRefusingConn{Verbs: c, refuse: &refuse}, nil
		}
	}
	nodes := startNodes(t, cfgs...)
	coord := waitCoordinator(t, nodes, 3*time.Second)
	term := coord.Term()
	if err := coord.Store().Put([]byte("acked"), []byte("before")); err != nil {
		t.Fatal(err)
	}

	refuse.Store(true)
	err := coord.RestripeMemoryNodes([]string{"m0", "m1", "m2", "m3"}, 0, 0)
	refuse.Store(false)
	if err == nil {
		t.Fatal("restripe succeeded with the epoch advance below a majority")
	}

	servingTerm := func(n *CPUNode, above uint16) bool {
		return n.Role() == Coordinator && n.Store() != nil && n.Term() > above
	}
	for deadline := time.Now().Add(time.Second); coord.Store() != nil && coord.Term() == term; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator still serving term %d a second after an ambiguous commit", term)
		}
	}
	var next *CPUNode
	for deadline := time.Now().Add(10 * time.Second); next == nil; time.Sleep(time.Millisecond) {
		for _, n := range nodes {
			if servingTerm(n, term) {
				next = n
			}
		}
		if next == nil && time.Now().After(deadline) {
			t.Fatal("no coordinator at a later term after the stand-down")
		}
	}
	epoch := next.ConfigEpoch()
	for _, n := range nodes {
		if got := n.RefreshConfig().Epoch; got != epoch {
			t.Fatalf("cpu%d resolves config epoch %d, the coordinator serves %d", n.cfg.NodeID, got, epoch)
		}
	}
	if v, err := next.Store().Get([]byte("acked")); err != nil || string(v) != "before" {
		t.Fatalf("write acknowledged before the attempt: %q, %v", v, err)
	}
}
