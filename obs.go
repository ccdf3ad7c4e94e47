package sift

import (
	"fmt"
	"net/http"
	"time"

	"github.com/repro/sift/internal/core"
	"github.com/repro/sift/internal/metrics"
	"github.com/repro/sift/internal/obs"
	"github.com/repro/sift/internal/repmem"
)

// clientMetrics instruments the client layer. The histograms and counters
// live at cluster scope so they aggregate over all Client handles and
// survive coordinator failovers.
type clientMetrics struct {
	putLat    *metrics.Histogram
	getLat    *metrics.Histogram
	deleteLat *metrics.Histogram
	batchLat  *metrics.Histogram

	retries   *obs.Counter // failover retry sleeps taken inside Client.do
	ambiguous *obs.Counter // ops returned ErrAmbiguous after budget expiry
	noCoord   *obs.Counter // ops returned ErrNoCoordinator after budget expiry

	backupGets      *obs.Counter // gets served by a follower under a read lease
	backupFallbacks *obs.Counter // backup attempts that fell back to the coordinator
	leaseRejects    *obs.Counter // backup attempts rejected for lack of a valid lease
}

// initObs builds the cluster's observability surface: the metrics registry,
// the control-plane event ring, and the cross-term latency hooks handed to
// every coordinator incarnation's replicated memory.
func (cl *Cluster) initObs() {
	reg := obs.NewRegistry()
	cl.reg = reg
	cl.events = obs.NewRing(obs.DefaultRingSize)
	cl.latency = &repmem.LatencyHooks{}
	obs.RegisterProcess(reg)

	// Client layer.
	cl.cm = &clientMetrics{
		putLat:    reg.Histogram(`sift_client_op_seconds{op="put"}`, "Client operation latency, end to end across retries."),
		getLat:    reg.Histogram(`sift_client_op_seconds{op="get"}`, "Client operation latency, end to end across retries."),
		deleteLat: reg.Histogram(`sift_client_op_seconds{op="delete"}`, "Client operation latency, end to end across retries."),
		batchLat:  reg.Histogram(`sift_client_op_seconds{op="batch"}`, "Client operation latency, end to end across retries."),
		retries:   reg.Counter("sift_client_retries_total", "Failover retry sleeps taken by client operations."),
		ambiguous: reg.Counter("sift_client_ambiguous_total", "Client operations that expired their retry budget with unknown outcome."),
		noCoord:   reg.Counter("sift_client_no_coordinator_total", "Client operations that never reached any coordinator."),

		backupGets:      reg.Counter(`sift_client_backup_reads_total{outcome="served"}`, "Gets served by a follower CPU node under a read lease."),
		backupFallbacks: reg.Counter(`sift_client_backup_reads_total{outcome="fallback"}`, "Backup read attempts that fell back to the coordinator."),
		leaseRejects:    reg.Counter(`sift_client_backup_reads_total{outcome="no_lease"}`, "Backup read attempts rejected for lack of a valid lease."),
	}

	// Replicated memory hot-path latency (stable across coordinator terms).
	reg.Observe("sift_repmem_direct_write_seconds", "Direct-zone write commit latency.", &cl.latency.DirectWrite)
	reg.Observe("sift_repmem_read_seconds", "Main-space read latency.", &cl.latency.Read)
	reg.Observe("sift_repmem_quorum_wait_seconds", "Direct write from its fan-out's start, before the node requests are enqueued, to the quorum decision.", &cl.latency.Quorum)

	// Counters read through the current coordinator at scrape time. They
	// reset when the coordinatorship moves (each term rebuilds its layers);
	// Prometheus-style consumers handle counter resets natively.
	mem := func(f func(repmem.Stats) uint64) func() float64 {
		return func() float64 {
			if st := cl.coordinatorStore(); st != nil {
				return float64(f(st.MemoryStats()))
			}
			return 0
		}
	}
	reg.CounterFunc("sift_repmem_quorum_writes_total", "Direct-zone writes committed on a majority.",
		mem(func(s repmem.Stats) uint64 { return s.DirectWrites }))
	reg.CounterFunc("sift_repmem_reads_total", "Main-space reads served.",
		mem(func(s repmem.Stats) uint64 { return s.Reads }))
	reg.CounterFunc("sift_repmem_node_failures_total", "Memory node failure detections.",
		mem(func(s repmem.Stats) uint64 { return s.NodeFailures }))
	reg.CounterFunc("sift_repmem_node_recoveries_total", "Memory node recoveries completed.",
		mem(func(s repmem.Stats) uint64 { return s.NodeRecovered }))
	reg.CounterFunc("sift_repmem_node_suspected_total", "Live-to-suspect transitions (gray-failure detections).",
		mem(func(s repmem.Stats) uint64 { return s.NodeSuspected }))
	reg.CounterFunc("sift_repmem_node_degraded_total", "Live-to-degraded transitions (sustained-slowness detections).",
		mem(func(s repmem.Stats) uint64 { return s.NodeDegraded }))
	reg.CounterFunc("sift_repmem_read_repairs_total", "Reads that triggered an inline block repair.",
		mem(func(s repmem.Stats) uint64 { return s.ReadRepairs }))
	reg.CounterFunc("sift_repmem_corruptions_total", "Replica blocks that failed their checksum or diverged.",
		mem(func(s repmem.Stats) uint64 { return s.CorruptionsDetected }))
	reg.CounterFunc("sift_repmem_blocks_repaired_total", "Replica blocks rewritten from a verified copy.",
		mem(func(s repmem.Stats) uint64 { return s.BlocksRepaired }))
	reg.CounterFunc("sift_scrub_passes_total", "Completed full scrub sweeps.",
		mem(func(s repmem.Stats) uint64 { return s.ScrubPasses }))
	reg.CounterFunc("sift_scrub_blocks_total", "Blocks and ranges examined by the scrubber.",
		mem(func(s repmem.Stats) uint64 { return s.ScrubbedBlocks }))
	reg.CounterFunc("sift_membership_publish_errors_total", "Failed per-node membership-record publications.",
		mem(func(s repmem.Stats) uint64 { return s.MembershipPublishErrors }))

	for _, op := range []struct {
		name string
		f    func(Stats) uint64
	}{
		{"put", func(s Stats) uint64 { return s.KV.Puts }},
		{"get", func(s Stats) uint64 { return s.KV.Gets }},
		{"delete", func(s Stats) uint64 { return s.KV.Deletes }},
	} {
		f := op.f
		reg.CounterFunc(fmt.Sprintf("sift_kv_ops_total{op=%q}", op.name), "Key-value operations served by the coordinator.",
			func() float64 { return float64(f(cl.Stats())) })
	}
	reg.CounterFunc(`sift_kv_cache_total{kind="hit"}`, "Coordinator cache lookups.",
		func() float64 { return float64(cl.Stats().KV.CacheHits) })
	reg.CounterFunc(`sift_kv_cache_total{kind="miss"}`, "Coordinator cache lookups.",
		func() float64 { return float64(cl.Stats().KV.CacheMisses) })
	// The background apply: records per batch is applied/batches, and the
	// absorbed and located shares of the applied records say how many block
	// writes and chain walks batching saved.
	reg.CounterFunc("sift_kv_applied_records_total", "Log records the appliers have retired, absorbed ones included.",
		func() float64 { return float64(cl.Stats().KV.Applies) })
	reg.CounterFunc("sift_kv_apply_batches_total", "Batches those records were applied in.",
		func() float64 { return float64(cl.Stats().KV.ApplyBatches) })
	reg.CounterFunc("sift_kv_absorbed_records_total", "Records never written because a later record for the key was in the same batch.",
		func() float64 { return float64(cl.Stats().KV.AbsorbedRecords) })
	reg.CounterFunc("sift_kv_located_applies_total", "Records whose data block was known without a chain walk.",
		func() float64 { return float64(cl.Stats().KV.LocatedApplies) })

	// The serving coordinator's takeover: how long its KV recovery took and
	// how many log records it had to apply again (those above the applied
	// mark its predecessor left in the log).
	reg.GaugeFunc("sift_kv_recovery_seconds", "Duration of the serving coordinator's key-value recovery.",
		func() float64 {
			if st := cl.coordinatorStore(); st != nil {
				return st.Recovery().Total.Seconds()
			}
			return 0
		})
	reg.GaugeFunc("sift_kv_recovery_replayed_records", "Log records the serving coordinator's recovery applied again.",
		func() float64 { return float64(cl.Stats().KV.RecoveryReplayed) })

	// Election lifecycle, summed over the currently running CPU nodes.
	cpu := func(f func(*core.CPUNode) uint64) func() float64 {
		return func() float64 {
			cl.mu.Lock()
			defer cl.mu.Unlock()
			var total uint64
			for _, r := range cl.runners {
				total += f(r.node)
			}
			return float64(total)
		}
	}
	reg.CounterFunc("sift_election_campaigns_total", "Election campaigns started by running CPU nodes.",
		cpu(func(n *core.CPUNode) uint64 { return n.Elections() }))
	reg.CounterFunc("sift_election_promotions_total", "Coordinator promotions on running CPU nodes.",
		cpu(func(n *core.CPUNode) uint64 { return n.Promotions() }))
	reg.CounterFunc("sift_election_dethronements_total", "Coordinators dethroned by a heartbeat failure.",
		cpu(func(n *core.CPUNode) uint64 { return n.Dethronements() }))
	reg.GaugeFunc("sift_election_term", "Current coordinator's term (0 when none).",
		func() float64 {
			cl.mu.Lock()
			defer cl.mu.Unlock()
			for _, r := range cl.runners {
				if r.node.Role() == core.Coordinator {
					return float64(r.node.Term())
				}
			}
			return 0
		})
	reg.GaugeFunc("sift_coordinator_id", "Serving coordinator's CPU node id (0 when none).",
		func() float64 { return float64(cl.Coordinator()) })
	reg.GaugeFunc("sift_config_epoch", "Committed config epoch the coordinator serves at (0 when none).",
		func() float64 { return float64(cl.ConfigEpoch()) })
	reg.GaugeFunc("sift_pipeline_queue_depth", "Current depth of the per-node write worker queues.",
		func() float64 {
			if st := cl.coordinatorStore(); st != nil {
				cur, _ := st.Memory().QueueDepth()
				return float64(cur)
			}
			return 0
		})

	// WAN transport, when part of the deployment crosses a simulated
	// wide-area link (Config.WAN).
	if cl.wan != nil {
		reg.CounterFunc("sift_wan_fec_recovered_total", "WAN flights decoded from parity shards (losses masked without a retransmit round).",
			func() float64 { return float64(cl.WANStats().FECRecovered) })
		reg.CounterFunc("sift_wan_retransmits_total", "WAN flight retransmission rounds after parity could not cover the losses.",
			func() float64 { return float64(cl.WANStats().Retransmits) })
		reg.GaugeFunc("sift_wan_redundancy_ratio", "Current FEC redundancy (k+r)/k chosen by the loss-adaptive controller.",
			func() float64 { return cl.wan.tr.Redundancy() })
		reg.GaugeFunc("sift_wan_loss_estimate", "EWMA of the WAN shard loss rate driving the redundancy controller.",
			func() float64 { return cl.wan.tr.LossEstimate() })
	}

	// Per-node liveness, from the coordinator's gray-failure view.
	cl.nodeGauges = make(map[string]bool)
	for _, name := range cl.memNames {
		cl.registerNodeGauge(name)
	}
}

// registerNodeGauge adds the per-node liveness gauge for a memory node.
// Reconfiguration calls it for nodes joining after startup; re-registering
// a name is a no-op.
func (cl *Cluster) registerNodeGauge(name string) {
	cl.gaugeMu.Lock()
	defer cl.gaugeMu.Unlock()
	if cl.nodeGauges == nil || cl.nodeGauges[name] {
		return
	}
	cl.nodeGauges[name] = true
	node := name
	cl.reg.GaugeFunc(fmt.Sprintf("sift_node_up{node=%q}", node),
		"1 when the coordinator sees the memory node live, 0 otherwise.",
		func() float64 {
			for _, h := range cl.Health() {
				if h.Node == node && h.State == "live" {
					return 1
				}
			}
			return 0
		})
	cl.reg.GaugeFunc(fmt.Sprintf("sift_node_degraded{node=%q}", node),
		"1 when the coordinator holds the memory node degraded (responsive but served around).",
		func() float64 {
			for _, h := range cl.Health() {
				if h.Node == node && h.State == "degraded" {
					return 1
				}
			}
			return 0
		})
}

// Metrics returns the cluster's metrics registry.
func (cl *Cluster) Metrics() *obs.Registry { return cl.reg }

// Events returns the cluster's control-plane event ring.
func (cl *Cluster) Events() *obs.Ring { return cl.events }

// Healthz is the cluster's health predicate: a coordinator must be serving
// and a majority of memory nodes must be live in its view.
func (cl *Cluster) Healthz() error {
	st := cl.coordinatorStore()
	if st == nil {
		return ErrNoCoordinator
	}
	live := 0
	for _, h := range st.MemoryHealth() {
		if h.State == "live" {
			live++
		}
	}
	if total := len(cl.MemoryNodes()); live < total/2+1 {
		return fmt.Errorf("sift: only %d of %d memory nodes live (need %d)", live, total, total/2+1)
	}
	return nil
}

// Statusz builds the /statusz document: coordinator identity, per-CPU-node
// roles, replicated memory stats and health, and pipeline depth.
func (cl *Cluster) Statusz() any {
	doc := map[string]any{
		"time":         time.Now().UTC().Format(time.RFC3339Nano),
		"memory_nodes": cl.MemoryNodes(),
		"config_epoch": cl.ConfigEpoch(),
		"events_seen":  cl.events.Seq(),
	}
	cl.mu.Lock()
	cpus := make(map[string]any, len(cl.runners))
	for id, r := range cl.runners {
		cpus[fmt.Sprintf("cpu%d", id)] = map[string]any{
			"role":       r.node.Role().String(),
			"term":       r.node.Term(),
			"elections":  r.node.Elections(),
			"promotions": r.node.Promotions(),
		}
		if r.node.Role() == core.Coordinator {
			doc["term"] = r.node.Term()
		}
	}
	cl.mu.Unlock()
	doc["cpu_nodes"] = cpus
	doc["coordinator"] = cl.Coordinator()
	if st := cl.coordinatorStore(); st != nil {
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

// DebugHandler returns the cluster's debug HTTP handler (/metrics, /healthz,
// /statusz, /events, /debug/pprof/*) for mounting in tests or embedding
// applications; daemons use obs.Start with the same Options.
func (cl *Cluster) DebugHandler() http.Handler {
	return obs.NewHandler(obs.Options{
		Registry: cl.reg,
		Events:   cl.events,
		Healthz:  cl.Healthz,
		Statusz:  cl.Statusz,
	})
}
