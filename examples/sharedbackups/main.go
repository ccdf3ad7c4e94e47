// Shared backup pool example (paper §5.2): several Sift groups each run a
// single dedicated coordinator; one small pool of stateless backup CPU
// nodes watches all of them. When coordinators die, pool workers win the
// CAS elections and take the groups over — G+B CPU nodes instead of
// (F+1)·G.
//
// Run with: go run ./examples/sharedbackups
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/repro/sift/internal/core"
	"github.com/repro/sift/internal/deploy"
	"github.com/repro/sift/internal/election"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/netsim"
	"github.com/repro/sift/internal/rdma"
)

const groups = 4

func main() {
	fabric := netsim.NewFabric(nil)
	network := rdma.NewNetwork(fabric)

	params := deploy.Params{F: 1, Keys: 512, MaxValue: 128, KVWALSlots: 128}
	kcfg, mcfg, err := params.Derive()
	if err != nil {
		log.Fatal(err)
	}

	// Build G groups of 3 memory nodes each, plus one primary coordinator
	// per group — only ONE CPU node per group instead of F+1.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var poolGroups []core.PoolGroup
	primaries := make([]context.CancelFunc, groups)
	nodes := make([]*core.CPUNode, groups)

	nodeConfig := func(g int, id uint16) core.Config {
		memNames := make([]string, 3)
		for i := range memNames {
			memNames[i] = fmt.Sprintf("g%d-mem%d", g, i)
		}
		cpu := fmt.Sprintf("g%d-cpu%d", g, id)
		m := mcfg
		m.MemoryNodes = memNames
		m.Dial = func(node string) (rdma.Verbs, error) {
			return network.Dial(cpu, node, rdma.DialOpts{Exclusive: []rdma.RegionID{memnode.ReplRegionID}})
		}
		return core.Config{
			NodeID: id,
			Election: election.Config{
				MemoryNodes: memNames,
				AdminRegion: memnode.AdminRegionID,
				Dial: func(node string) (rdma.Verbs, error) {
					return network.Dial(cpu, node, rdma.DialOpts{})
				},
				HeartbeatInterval: 3 * time.Millisecond,
				ReadInterval:      3 * time.Millisecond,
				MissedBeats:       3,
				Seed:              int64(g)*100 + int64(id),
			},
			Memory: m,
			KV:     kcfg,
		}
	}

	for g := 0; g < groups; g++ {
		for i := 0; i < 3; i++ {
			node, err := memnode.New(fmt.Sprintf("g%d-mem%d", g, i), mcfg.Layout())
			if err != nil {
				log.Fatal(err)
			}
			network.AddNode(node)
		}
		pctx, pcancel := context.WithCancel(ctx)
		primaries[g] = pcancel
		nodes[g] = core.NewCPUNode(nodeConfig(g, 1))
		go nodes[g].Run(pctx)
		poolGroups = append(poolGroups, core.PoolGroup{
			Name:   fmt.Sprintf("group-%d", g),
			Config: nodeConfig(g, 0), // NodeID assigned by the pool
		})
	}

	// Wait for all primaries to coordinate, then write some data.
	for g := 0; g < groups; g++ {
		waitCoordinator(nodes[g])
		st := nodes[g].Store()
		for i := 0; i < 10; i++ {
			if err := st.Put([]byte(fmt.Sprintf("g%d-key%d", g, i)), []byte("v")); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("%d groups up, each with ONE dedicated coordinator (no per-group backups)\n", groups)

	// One pool of 2 backup workers watches all 4 groups: 4+2 CPU nodes
	// instead of 2×4.
	pool := core.NewPool(core.PoolConfig{Workers: 2, ProvisionDelay: 500 * time.Millisecond})
	go pool.Run(ctx, poolGroups)
	time.Sleep(50 * time.Millisecond) // let the watchers settle
	fmt.Printf("backup pool started: %d workers watching %d groups (G+B=%d CPU nodes vs (F+1)·G=%d)\n",
		pool.Free(), groups, groups+2, 2*groups)

	// Kill two coordinators "simultaneously".
	fmt.Println("\nkilling the coordinators of group-0 and group-2 ...")
	primaries[0]()
	primaries[2]()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && pool.Stats().Takeovers < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	st := pool.Stats()
	fmt.Printf("pool handled %d failovers (%d takeovers); max wait for a worker: %v\n",
		st.Failovers, st.Takeovers, st.MaxWait.Round(time.Millisecond))
	if st.Takeovers < 2 {
		log.Fatal("pool failed to take over both groups")
	}

	// Replacement workers get provisioned behind the consumed ones.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && pool.Stats().Provisioned < 2 {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("replacement workers provisioned: %d (pool free: %d)\n",
		pool.Stats().Provisioned, pool.Free())
	fmt.Println("\nall groups are coordinated again; data written before the failures is intact.")
}

func waitCoordinator(n *core.CPUNode) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if n.Role() == core.Coordinator && n.Store() != nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	log.Fatal("no coordinator elected")
}
