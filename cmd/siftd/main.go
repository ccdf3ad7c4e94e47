// Command siftd runs a Sift CPU node: it participates in coordinator
// election against a set of memnoded memory nodes and, while coordinator,
// serves the key-value API over the client RPC protocol. Multiple siftd
// processes with the same -mem list form the group's F+1 CPU nodes.
//
// Usage:
//
//	siftd -id 1 -listen :8000 -mem host1:7000,host2:7000,host3:7000
//
// Clients (cmd/sift-cli, or anything speaking internal/rpc's KV protocol)
// may connect to any siftd; non-coordinators reject operations with an
// error naming their role, and clients retry elsewhere.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/repro/sift/internal/core"
	"github.com/repro/sift/internal/deploy"
	"github.com/repro/sift/internal/election"
	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/obs"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
	"github.com/repro/sift/internal/rpc"
)

func main() {
	var (
		id         = flag.Uint("id", 1, "CPU node id (unique per group)")
		listen     = flag.String("listen", ":8000", "client RPC listen address")
		mem        = flag.String("mem", "", "comma-separated memory node addresses (2F+1)")
		f          = flag.Int("f", 1, "fault tolerance level F")
		ec         = flag.Bool("ec", false, "erasure-coded deployment")
		keys       = flag.Int("keys", 16384, "key-value store capacity")
		maxKey     = flag.Int("max-key", 32, "maximum key size in bytes")
		maxValue   = flag.Int("max-value", 992, "maximum value size in bytes")
		kvWALSlots = flag.Int("kv-wal-slots", 4096, "key-value log entries")
		heartbeat  = flag.Duration("heartbeat", 7*time.Millisecond, "heartbeat write/read interval")
		missed     = flag.Int("missed-beats", 3, "missed heartbeats before election")
		opDeadline = flag.Duration("op-deadline", time.Second, "per-operation RDMA deadline (0 disables; hung memory nodes fail ops with rdma.ErrDeadline)")
		scrubEvery = flag.Duration("scrub-interval", 50*time.Millisecond, "background integrity scrub tick (0 disables)")
		debugAddr  = flag.String("debug-addr", "", "debug HTTP listen address serving /metrics, /healthz, /statusz, /events, /debug/pprof ('' disables)")
	)
	flag.Parse()

	memNodes := strings.Split(*mem, ",")
	if *mem == "" || len(memNodes)%2 == 0 {
		log.Fatalf("siftd: -mem must list an odd number (2F+1) of memory node addresses")
	}

	params := deploy.Params{
		F: *f, EC: *ec,
		Keys: *keys, MaxKey: *maxKey, MaxValue: *maxValue,
		KVWALSlots: *kvWALSlots,
	}
	kcfg, mcfg, err := params.Derive()
	if err != nil {
		log.Fatalf("siftd: %v", err)
	}
	mcfg.MemoryNodes = memNodes
	mcfg.Dial = func(node string) (rdma.Verbs, error) {
		return rdma.DialTCP(node, rdma.DialOpts{
			Exclusive:  []rdma.RegionID{memnode.ReplRegionID},
			OpDeadline: *opDeadline,
		})
	}

	reg := obs.NewRegistry()
	obs.RegisterProcess(reg)
	events := obs.NewRing(obs.DefaultRingSize)
	latency := &repmem.LatencyHooks{}
	mcfg.Latency = latency
	reg.Observe("sift_repmem_direct_write_seconds", "Direct-zone write commit latency.", &latency.DirectWrite)
	reg.Observe("sift_repmem_read_seconds", "Main-space read latency.", &latency.Read)
	reg.Observe("sift_repmem_quorum_wait_seconds", "Quorum ack wait inside a write fan-out.", &latency.Quorum)

	node := core.NewCPUNode(core.Config{
		NodeID: uint16(*id),
		Election: election.Config{
			MemoryNodes: memNodes,
			AdminRegion: memnode.AdminRegionID,
			AdminOffset: memnode.AdminWordOffset,
			Dial: func(node string) (rdma.Verbs, error) {
				return rdma.DialTCP(node, rdma.DialOpts{OpDeadline: *opDeadline})
			},
			HeartbeatInterval: *heartbeat,
			ReadInterval:      *heartbeat,
			MissedBeats:       *missed,
			Seed:              int64(*id) * 104729,
		},
		Memory: mcfg,
		KV:     kcfg,
		ScrubInterval: func() time.Duration {
			if *scrubEvery <= 0 {
				return -1
			}
			return *scrubEvery
		}(),
		OnRoleChange: func(r core.Role) {
			log.Printf("siftd: role -> %s", r)
		},
		Events: events,
	})

	// Counters and gauges read through the coordinator's layers at scrape
	// time; they report zero while this node is a follower.
	memStat := func(f func(repmem.Stats) uint64) func() float64 {
		return func() float64 {
			if st := node.Store(); st != nil {
				return float64(f(st.MemoryStats()))
			}
			return 0
		}
	}
	reg.CounterFunc("sift_repmem_quorum_writes_total", "Direct-zone writes committed on a majority.",
		memStat(func(s repmem.Stats) uint64 { return s.DirectWrites }))
	reg.CounterFunc("sift_repmem_reads_total", "Main-space reads served.",
		memStat(func(s repmem.Stats) uint64 { return s.Reads }))
	reg.CounterFunc("sift_repmem_node_failures_total", "Memory node failure detections.",
		memStat(func(s repmem.Stats) uint64 { return s.NodeFailures }))
	reg.CounterFunc("sift_repmem_node_recoveries_total", "Memory node recoveries completed.",
		memStat(func(s repmem.Stats) uint64 { return s.NodeRecovered }))
	reg.CounterFunc("sift_repmem_node_suspected_total", "Live-to-suspect transitions (gray-failure detections).",
		memStat(func(s repmem.Stats) uint64 { return s.NodeSuspected }))
	reg.CounterFunc("sift_repmem_read_repairs_total", "Reads that triggered an inline block repair.",
		memStat(func(s repmem.Stats) uint64 { return s.ReadRepairs }))
	reg.CounterFunc("sift_repmem_corruptions_total", "Replica blocks that failed their checksum or diverged.",
		memStat(func(s repmem.Stats) uint64 { return s.CorruptionsDetected }))
	reg.CounterFunc("sift_scrub_passes_total", "Completed full scrub sweeps.",
		memStat(func(s repmem.Stats) uint64 { return s.ScrubPasses }))
	reg.CounterFunc("sift_election_campaigns_total", "Election campaigns started by this CPU node.",
		func() float64 { return float64(node.Elections()) })
	reg.CounterFunc("sift_election_promotions_total", "Coordinator promotions on this CPU node.",
		func() float64 { return float64(node.Promotions()) })
	reg.CounterFunc("sift_election_dethronements_total", "Times this node was dethroned by a heartbeat failure.",
		func() float64 { return float64(node.Dethronements()) })
	reg.GaugeFunc("sift_election_term", "Term this node coordinates (0 when follower).",
		func() float64 { return float64(node.Term()) })
	reg.GaugeFunc("sift_is_coordinator", "1 while this node is the serving coordinator.",
		func() float64 {
			if node.Store() != nil {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("sift_pipeline_queue_depth", "Current depth of the per-node write worker queues.",
		func() float64 {
			if st := node.Store(); st != nil {
				cur, _ := st.Memory().QueueDepth()
				return float64(cur)
			}
			return 0
		})

	// instrument wraps a client RPC handler with per-op throughput, error,
	// and latency metrics.
	instrument := func(op string, h func([]byte) ([]byte, error)) func([]byte) ([]byte, error) {
		lat := reg.Histogram(fmt.Sprintf("sift_client_op_seconds{op=%q}", op), "Client RPC operation latency.")
		ops := reg.Counter(fmt.Sprintf("sift_client_ops_total{op=%q}", op), "Client RPC operations served.")
		errs := reg.Counter(fmt.Sprintf("sift_client_op_errors_total{op=%q}", op), "Client RPC operations that returned an error.")
		return func(payload []byte) ([]byte, error) {
			start := time.Now()
			out, err := h(payload)
			lat.Record(time.Since(start))
			ops.Inc()
			if err != nil {
				errs.Inc()
			}
			return out, err
		}
	}

	srv := rpc.NewServer()
	srv.Handle(rpc.MethodGet, instrument("get", func(payload []byte) ([]byte, error) {
		st := node.Store()
		if st == nil {
			return nil, fmt.Errorf("not coordinator (role %s)", node.Role())
		}
		key, _, err := rpc.DecodeKV(payload)
		if err != nil {
			return nil, err
		}
		v, err := st.Get(key)
		if errors.Is(err, kv.ErrNotFound) {
			return nil, fmt.Errorf("not found")
		}
		return v, err
	}))
	srv.Handle(rpc.MethodPut, instrument("put", func(payload []byte) ([]byte, error) {
		st := node.Store()
		if st == nil {
			return nil, fmt.Errorf("not coordinator (role %s)", node.Role())
		}
		key, value, err := rpc.DecodeKV(payload)
		if err != nil {
			return nil, err
		}
		return nil, st.Put(key, value)
	}))
	srv.Handle(rpc.MethodDelete, instrument("delete", func(payload []byte) ([]byte, error) {
		st := node.Store()
		if st == nil {
			return nil, fmt.Errorf("not coordinator (role %s)", node.Role())
		}
		key, _, err := rpc.DecodeKV(payload)
		if err != nil {
			return nil, err
		}
		return nil, st.Delete(key)
	}))
	srv.Handle(rpc.MethodStatus, func([]byte) ([]byte, error) {
		return []byte(node.Role().String()), nil
	})
	// Reconfiguration verbs. Only the coordinator drives state transfer;
	// machines for joining addresses must already be running (fresh
	// memnoded processes) — the coordinator fills them. The -mem flag is
	// only the seed list: committed epochs discovered from the admin
	// regions supersede it.
	srv.Handle(rpc.MethodAdmin, instrument("admin", func(payload []byte) ([]byte, error) {
		args := strings.Fields(string(payload))
		if len(args) == 0 {
			return nil, fmt.Errorf("admin: empty verb")
		}
		snap := node.ConfigSnapshot()
		if args[0] == "epoch" {
			// A follower is not told of reconfigurations: ask the memory
			// nodes for the committed configuration before answering.
			snap = node.RefreshConfig()
			return []byte(fmt.Sprintf("epoch %d members %s ec %d+%d",
				snap.Epoch, strings.Join(snap.Members, ","), snap.ECData, snap.ECParity)), nil
		}
		if node.Store() == nil {
			return nil, fmt.Errorf("not coordinator (role %s)", node.Role())
		}
		switch args[0] {
		case "replace":
			if len(args) != 3 {
				return nil, fmt.Errorf("usage: replace <old-addr> <new-addr>")
			}
			i := slices.Index(snap.Members, args[1])
			if i < 0 {
				return nil, fmt.Errorf("admin: %q is not a memory node", args[1])
			}
			snap.Members[i] = args[2]
			if err := node.RestripeMemoryNodes(snap.Members, snap.ECData, snap.ECParity); err != nil {
				return nil, err
			}
		case "add":
			if len(args) != 2 {
				return nil, fmt.Errorf("usage: add <new-addr>")
			}
			if snap.ECData > 0 {
				return nil, fmt.Errorf("admin: cannot add a single node to an erasure-coded group; use restripe")
			}
			if err := node.RestripeMemoryNodes(append(snap.Members, args[1]), 0, 0); err != nil {
				return nil, err
			}
		case "remove":
			if len(args) != 2 {
				return nil, fmt.Errorf("usage: remove <addr>")
			}
			if snap.ECData > 0 {
				return nil, fmt.Errorf("admin: cannot remove a single node from an erasure-coded group; use restripe")
			}
			members := make([]string, 0, len(snap.Members))
			for _, m := range snap.Members {
				if m != args[1] {
					members = append(members, m)
				}
			}
			if len(members) == len(snap.Members) {
				return nil, fmt.Errorf("admin: %q is not a memory node", args[1])
			}
			if err := node.RestripeMemoryNodes(members, 0, 0); err != nil {
				return nil, err
			}
		case "restripe":
			if len(args) != 2 && len(args) != 4 {
				return nil, fmt.Errorf("usage: restripe <addr1,addr2,...> [ec-data ec-parity]")
			}
			members := strings.Split(args[1], ",")
			ecData, ecParity := 0, 0
			if len(args) == 4 {
				var err error
				if ecData, err = strconv.Atoi(args[2]); err != nil {
					return nil, fmt.Errorf("admin: ec-data: %w", err)
				}
				if ecParity, err = strconv.Atoi(args[3]); err != nil {
					return nil, fmt.Errorf("admin: ec-parity: %w", err)
				}
			}
			if err := node.RestripeMemoryNodes(members, ecData, ecParity); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("admin: unknown verb %q", args[0])
		}
		snap = node.ConfigSnapshot()
		return []byte(fmt.Sprintf("epoch %d members %s",
			snap.Epoch, strings.Join(snap.Members, ","))), nil
	}))

	if *debugAddr != "" {
		healthz := func() error {
			st := node.Store()
			if st == nil {
				return nil // follower or candidate: healthy, just not serving
			}
			health := st.MemoryHealth()
			live := 0
			for _, h := range health {
				if h.State == "live" {
					live++
				}
			}
			if need := len(health)/2 + 1; live < need {
				return fmt.Errorf("only %d of %d memory nodes live (need %d)", live, len(health), need)
			}
			return nil
		}
		statusz := func() any {
			doc := map[string]any{
				"node_id":       *id,
				"role":          node.Role().String(),
				"term":          node.Term(),
				"elections":     node.Elections(),
				"promotions":    node.Promotions(),
				"dethronements": node.Dethronements(),
				"memory_nodes":  node.ConfigSnapshot().Members,
				"config_epoch":  node.ConfigEpoch(),
				"events_seen":   events.Seq(),
			}
			if st := node.Store(); st != nil {
				doc["kv"] = st.Stats()
				mark, next := st.AppliedMark()
				doc["kv_log"] = map[string]uint64{"applied_mark": mark, "next_index": next, "apply_lag": next - 1 - mark}
				doc["repmem"] = st.MemoryStats()
				doc["health"] = st.MemoryHealth()
				cur, max := st.Memory().QueueDepth()
				doc["pipeline"] = map[string]int64{"queue_depth": cur, "queue_depth_max": max}
			}
			return doc
		}
		_, addr, err := obs.Start(*debugAddr, obs.Options{
			Registry: reg, Events: events, Healthz: healthz, Statusz: statusz,
		})
		if err != nil {
			log.Fatalf("siftd: %v", err)
		}
		log.Printf("siftd: debug server on http://%s (/metrics /healthz /statusz /events /debug/pprof)", addr)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("siftd: %v", err)
	}
	go func() {
		if err := srv.Serve(l); err != nil {
			log.Printf("siftd: rpc server: %v", err)
		}
	}()
	log.Printf("siftd: CPU node %d serving clients on %s, memory nodes %v", *id, l.Addr(), memNodes)

	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("siftd: shutting down")
		cancel()
		l.Close()
	}()
	if err := node.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("siftd: %v", err)
	}
}
