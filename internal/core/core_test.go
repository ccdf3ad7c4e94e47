package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/repro/sift/internal/election"
	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
)

// groupEnv wires an in-process group: memory nodes, and config factories
// for CPU nodes.
type groupEnv struct {
	nw    *rdma.Network
	names []string
	kcfg  kv.Config
	mcfg  repmem.Config
}

func newGroupEnv(t *testing.T, memNodes int) *groupEnv {
	t.Helper()
	kcfg := kv.Config{
		Capacity: 128, MaxKey: 16, MaxValue: 64,
		LoadFactor: 0.5, CacheFraction: 0.5, WALSlots: 32, ApplyShards: 2,
	}
	mcfg := repmem.Config{
		DirectSize:         kcfg.RequiredDirectSize(),
		IntegrityBlockSize: kcfg.BlockSize(),
	}
	mcfg.MemSize = kcfg.RequiredMemSize(mcfg.WriteAlign())
	nw := rdma.NewNetwork(nil)
	names := make([]string, memNodes)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		node, err := memnode.New(names[i], mcfg.Layout())
		if err != nil {
			t.Fatal(err)
		}
		nw.AddNode(node)
	}
	mcfg.MemoryNodes = names
	return &groupEnv{nw: nw, names: names, kcfg: kcfg, mcfg: mcfg}
}

func (e *groupEnv) nodeConfig(id uint16) Config {
	cpu := fmt.Sprintf("cpu%d", id)
	mcfg := e.mcfg
	mcfg.Dial = func(node string) (rdma.Verbs, error) {
		return e.nw.Dial(cpu, node, rdma.DialOpts{Exclusive: []rdma.RegionID{memnode.ReplRegionID}})
	}
	return Config{
		NodeID: id,
		Election: election.Config{
			MemoryNodes: e.names,
			AdminRegion: memnode.AdminRegionID,
			AdminOffset: memnode.AdminWordOffset,
			Dial: func(node string) (rdma.Verbs, error) {
				return e.nw.Dial(cpu, node, rdma.DialOpts{})
			},
			HeartbeatInterval: 2 * time.Millisecond,
			ReadInterval:      2 * time.Millisecond,
			MissedBeats:       3,
			Seed:              int64(id) * 7,
		},
		Memory:               mcfg,
		KV:                   e.kcfg,
		NodeRecoveryInterval: 20 * time.Millisecond,
	}
}

// waitCoordinator polls until one of the nodes is coordinator.
func waitCoordinator(t *testing.T, nodes []*CPUNode, timeout time.Duration) *CPUNode {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			if n.Role() == Coordinator && n.Store() != nil {
				return n
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no coordinator elected in time")
	return nil
}

func TestBootstrapElectsCoordinator(t *testing.T) {
	e := newGroupEnv(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	nodes := []*CPUNode{NewCPUNode(e.nodeConfig(1)), NewCPUNode(e.nodeConfig(2))}
	for _, n := range nodes {
		go n.Run(ctx)
	}
	coord := waitCoordinator(t, nodes, 3*time.Second)
	if coord.Term() == 0 {
		t.Fatal("coordinator has zero term")
	}

	// Exactly one coordinator.
	time.Sleep(20 * time.Millisecond)
	count := 0
	for _, n := range nodes {
		if n.Role() == Coordinator {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d coordinators", count)
	}

	// And the store works.
	st := coord.Store()
	if err := st.Put([]byte("boot"), []byte("strap")); err != nil {
		t.Fatal(err)
	}
	v, err := st.Get([]byte("boot"))
	if err != nil || string(v) != "strap" {
		t.Fatalf("got %q err=%v", v, err)
	}
}

func TestCoordinatorFailoverEndToEnd(t *testing.T) {
	e := newGroupEnv(t, 3)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()

	n1 := NewCPUNode(e.nodeConfig(1))
	n2 := NewCPUNode(e.nodeConfig(2))
	go n1.Run(ctx1)
	go n2.Run(ctx2)

	coord := waitCoordinator(t, []*CPUNode{n1, n2}, 3*time.Second)
	st := coord.Store()
	for i := 0; i < 20; i++ {
		if err := st.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the coordinator process.
	var backup *CPUNode
	if coord == n1 {
		cancel1()
		backup = n2
	} else {
		cancel2()
		backup = n1
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if backup.Role() == Coordinator && backup.Store() != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if backup.Role() != Coordinator {
		t.Fatal("backup never took over")
	}
	st2 := backup.Store()
	for i := 0; i < 20; i++ {
		v, err := st2.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d after failover: %q err=%v", i, v, err)
		}
	}
	if backup.Promotions() == 0 {
		t.Fatal("promotion counter not bumped")
	}
}

func TestDethronedCoordinatorStopsServing(t *testing.T) {
	e := newGroupEnv(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	n1 := NewCPUNode(e.nodeConfig(1))
	go n1.Run(ctx)
	coord := waitCoordinator(t, []*CPUNode{n1}, 3*time.Second)
	st1 := coord.Store()
	if err := st1.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}

	// A competing node takes over directly (simulating n1's heartbeats being
	// seen as stale by a partition-side backup).
	n2 := NewCPUNode(e.nodeConfig(2))
	won, err := func() (bool, error) {
		ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel2()
		go func() {
			// Demote n2's coordinatorship shortly after it takes over so
			// TakeOver returns.
			time.Sleep(300 * time.Millisecond)
			cancel2()
		}()
		return n2.TakeOver(ctx2, nil)
	}()
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
	if !won {
		t.Fatal("n2 should have won the takeover")
	}

	// The old coordinator must have stepped down and its store must refuse
	// writes (fenced or closed).
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if n1.Role() != Coordinator {
			break
		}
		time.Sleep(time.Millisecond)
	}
	err = st1.Put([]byte("b"), []byte("2"))
	if err == nil {
		t.Fatal("dethroned coordinator accepted a write")
	}
}

func TestMemoryNodeFailureRecoveryViaManager(t *testing.T) {
	e := newGroupEnv(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	n1 := NewCPUNode(e.nodeConfig(1))
	go n1.Run(ctx)
	coord := waitCoordinator(t, []*CPUNode{n1}, 3*time.Second)
	st := coord.Store()
	for i := 0; i < 10; i++ {
		st.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}

	victim := e.names[2]
	e.nw.Fabric().Kill(victim)
	// Trigger failure detection with a write.
	st.Put([]byte("trigger"), []byte("x"))
	memnode.Reset(e.nw.Node(victim), e.mcfg.Layout())
	e.nw.Fabric().Restart(victim)

	// The background recovery manager should reintegrate it.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		stats, ok := n1.MemoryStats()
		if ok && stats.NodeRecovered >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats, _ := n1.MemoryStats()
	if stats.NodeRecovered == 0 {
		t.Fatal("memory node never recovered")
	}
	// Group still serves.
	v, err := st.Get([]byte("k3"))
	if err != nil || string(v) != "v" {
		t.Fatalf("got %q err=%v", v, err)
	}
}

func TestRoleString(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" ||
		Coordinator.String() != "coordinator" || Role(9).String() != "unknown" {
		t.Fatal("role strings wrong")
	}
}

func TestPoolTakesOverFailedGroup(t *testing.T) {
	e := newGroupEnv(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Primary coordinator for the group.
	primaryCtx, primaryCancel := context.WithCancel(ctx)
	n1 := NewCPUNode(e.nodeConfig(1))
	go n1.Run(primaryCtx)
	waitCoordinator(t, []*CPUNode{n1}, 3*time.Second)
	st := n1.Store()
	for i := 0; i < 10; i++ {
		st.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}

	pool := NewPool(PoolConfig{Workers: 2})
	go pool.Run(ctx, []PoolGroup{{Name: "g0", Config: e.nodeConfig(0)}})

	time.Sleep(30 * time.Millisecond) // let the watcher settle
	primaryCancel()                   // kill the primary

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pool.Stats().Takeovers >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	st2 := pool.Stats()
	if st2.Takeovers == 0 {
		t.Fatalf("pool never took over: %+v", st2)
	}
	if pool.Free() != 1 {
		t.Fatalf("free workers = %d, want 1", pool.Free())
	}
}

func TestPoolStatsAccounting(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, ProvisionDelay: 10 * time.Millisecond})
	if p.Free() != 1 {
		t.Fatalf("free = %d", p.Free())
	}
	id, ok := p.acquire(context.Background())
	if !ok || id == 0 {
		t.Fatalf("acquire: id=%d ok=%v", id, ok)
	}
	if p.Free() != 0 {
		t.Fatal("worker not consumed")
	}
	p.provisionReplacement()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && p.Free() == 0 {
		time.Sleep(time.Millisecond)
	}
	if p.Free() != 1 {
		t.Fatal("replacement never provisioned")
	}
	if p.Stats().Provisioned != 1 {
		t.Fatalf("provisioned = %d", p.Stats().Provisioned)
	}
	p.recordWait(3 * time.Millisecond)
	p.recordWait(5 * time.Millisecond)
	s := p.Stats()
	if s.WaitedFor != 8*time.Millisecond || s.MaxWait != 5*time.Millisecond {
		t.Fatalf("wait stats %+v", s)
	}
}
