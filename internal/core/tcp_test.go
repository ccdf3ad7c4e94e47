package core

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/repro/sift/internal/deploy"
	"github.com/repro/sift/internal/election"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// TestFullGroupOverTCP runs a complete Sift group over the real TCP
// transport: three passive memory nodes served by rdma.Serve (the daemon
// path cmd/memnoded uses) and two CPU nodes dialing them with
// rdma.DialTCP, with an end-to-end coordinator failover.
func TestFullGroupOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration in -short mode")
	}
	params := deploy.Params{
		F: 1, Keys: 256, MaxValue: 64,
		KVWALSlots: 64,
	}
	kcfg, mcfg, err := params.Derive()
	if err != nil {
		t.Fatal(err)
	}

	// Passive memory nodes on real sockets.
	var memAddrs []string
	for i := 0; i < 3; i++ {
		node, err := memnode.New(fmt.Sprintf("tcpmem%d", i), mcfg.Layout())
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go rdma.Serve(l, node)
		memAddrs = append(memAddrs, l.Addr().String())
	}

	mkConfig := func(id uint16) Config {
		m := mcfg
		m.MemoryNodes = memAddrs
		m.Dial = func(node string) (rdma.Verbs, error) {
			return rdma.DialTCP(node, rdma.DialOpts{Exclusive: []rdma.RegionID{memnode.ReplRegionID}})
		}
		return Config{
			NodeID: id,
			Election: election.Config{
				MemoryNodes: memAddrs,
				AdminRegion: memnode.AdminRegionID,
				AdminOffset: memnode.AdminWordOffset,
				Dial: func(node string) (rdma.Verbs, error) {
					return rdma.DialTCP(node, rdma.DialOpts{})
				},
				HeartbeatInterval: 3 * time.Millisecond,
				ReadInterval:      3 * time.Millisecond,
				MissedBeats:       3,
				Seed:              int64(id) * 13,
			},
			Memory: m,
			KV:     kcfg,
		}
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	n1 := NewCPUNode(mkConfig(1))
	n2 := NewCPUNode(mkConfig(2))
	go n1.Run(ctx1)
	go n2.Run(ctx2)

	coord := waitCoordinator(t, []*CPUNode{n1, n2}, 10*time.Second)
	st := coord.Store()
	for i := 0; i < 25; i++ {
		if err := st.Put([]byte(fmt.Sprintf("tk%d", i)), []byte(fmt.Sprintf("tv%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := st.Get([]byte("tk7"))
	if err != nil || string(v) != "tv7" {
		t.Fatalf("got %q err=%v", v, err)
	}

	// Kill the coordinator; the other node recovers over TCP.
	var backup *CPUNode
	if coord == n1 {
		cancel1()
		backup = n2
	} else {
		cancel2()
		backup = n1
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if backup.Role() == Coordinator && backup.Store() != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	st2 := backup.Store()
	if st2 == nil {
		t.Fatal("backup never took over across TCP")
	}
	for i := 0; i < 25; i++ {
		v, err := st2.Get([]byte(fmt.Sprintf("tk%d", i)))
		if err != nil || string(v) != fmt.Sprintf("tv%d", i) {
			t.Fatalf("tk%d after TCP failover: %q err=%v", i, v, err)
		}
	}
	if err := st2.Put([]byte("post"), []byte("tcp")); err != nil {
		t.Fatal(err)
	}
}
