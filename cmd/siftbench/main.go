// Command siftbench is the full benchmark harness: it regenerates every
// table and figure of the paper's evaluation (§6) as text tables.
//
// Usage:
//
//	siftbench -experiment fig5                 # one experiment
//	siftbench -experiment all                  # everything
//	siftbench -experiment fig5 -keys 1000000 -duration 50s -reps 5
//	siftbench -experiment capacity             # open-loop knees + $/Mops
//
// Experiments: table1, fig5, fig6, fig7, fig8, table2, fig9, fig10,
// fig11, fig12, shard, wan, capacity, replace. Defaults are sized for a
// laptop; the flags scale any experiment up to the paper's full parameters.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/repro/sift/internal/backuppool"
	"github.com/repro/sift/internal/bench"
	"github.com/repro/sift/internal/cloudcost"
	"github.com/repro/sift/internal/metrics"
	"github.com/repro/sift/internal/workload"
)

type options struct {
	out       io.Writer
	keys      int
	valueSize int
	clients   int
	duration  time.Duration
	warmup    time.Duration
	reps      int
	seed      int64
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiments ("+strings.Join(order, ", ")+", all)")
		keys       = flag.Int("keys", 4096, "key population (paper: 1000000)")
		valueSize  = flag.Int("value-size", 992, "value payload bytes")
		clients    = flag.Int("clients", 32, "concurrent closed-loop clients")
		duration   = flag.Duration("duration", 2*time.Second, "measured duration per run (paper: 50s)")
		warmup     = flag.Duration("warmup", 500*time.Millisecond, "warm-up before measuring (paper: 10s)")
		reps       = flag.Int("reps", 1, "repetitions per data point (paper: 5-8)")
		seed       = flag.Int64("seed", 42, "base seed")
	)
	flag.Parse()
	opts := options{
		out:  os.Stdout,
		keys: *keys, valueSize: *valueSize, clients: *clients,
		duration: *duration, warmup: *warmup, reps: *reps, seed: *seed,
	}

	if err := run(*experiment, opts); err != nil {
		log.Fatalf("siftbench: %v", err)
	}
}

// experiments maps every experiment name to its runner; order is the
// sequence "all" runs them in.
var (
	experiments = map[string]func(options){
		"table1": table1, "fig5": fig5, "fig6": fig6, "fig7": fig7,
		"fig8": fig8, "table2": table2, "fig9": costFigure(1), "fig10": costFigure(2),
		"fig11": fig11, "fig12": fig12, "shard": shardScaling, "wan": wanDegradation,
		"capacity": capacitySweep, "replace": replaceProbe,
	}
	order = []string{"table1", "fig5", "fig6", "fig7", "fig8", "table2", "fig9", "fig10", "fig11", "fig12", "shard", "wan", "capacity", "replace"}
)

// run executes the comma-separated experiments ("all" = every one, in
// order) and stops at the first unknown name.
func run(experiment string, o options) error {
	want := strings.Split(experiment, ",")
	if experiment == "all" {
		want = order
	}
	for _, name := range want {
		name = strings.TrimSpace(name)
		fn, ok := experiments[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Fprintf(o.out, "==== %s ====\n", name)
		fn(o)
		fmt.Fprintln(o.out)
	}
	return nil
}

func newTab(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

// table1 prints the protocol characteristics comparison (paper Table 1).
func table1(o options) {
	w := newTab(o.out)
	defer w.Flush()
	fmt.Fprintln(w, "Table 1: comparison of key consensus protocol characteristics")
	fmt.Fprintln(w, "type\tresource location\tprotocol\terasure coding\treplication factor")
	fmt.Fprintln(w, "Sift\tDisaggregated\t1-sided RDMA\tYes\t2Fm+1 memory, Fc+1 CPU")
	fmt.Fprintln(w, "Raft\tCoupled\tTCP\tNo\t2F+1")
	fmt.Fprintln(w, "DARE\tCoupled\t1-sided RDMA\tNo\t2F+1")
	fmt.Fprintln(w, "RS-Paxos\tCoupled\tTCP\tYes\tQR+QW-X")
	fmt.Fprintln(w, "Disk Paxos\tDisaggregated*\tUnspecified\tNo\t2F+1 disks + P + L")
}

// buildPopulated constructs and pre-populates one system.
func buildPopulated(kind bench.SystemKind, f int, o options) bench.System {
	sys, err := bench.NewSystem(bench.SystemConfig{
		Kind: kind, F: f, Keys: o.keys, ValueSize: o.valueSize, Seed: o.seed,
	})
	if err != nil {
		log.Fatalf("siftbench: %s: %v", kind, err)
	}
	if err := bench.Populate(sys, o.keys, o.valueSize); err != nil {
		log.Fatalf("siftbench: populate %s: %v", kind, err)
	}
	return sys
}

// repeated runs a config o.reps times and returns mean throughput and CI.
func repeated(o options, mk func(rep int) bench.RunResult) (mean, ci float64, last bench.RunResult) {
	samples := make([]float64, 0, o.reps)
	for rep := 0; rep < o.reps; rep++ {
		last = mk(rep)
		samples = append(samples, last.Throughput)
	}
	mean, ci = metrics.Summarize(samples)
	return mean, ci, last
}

// fig5 reproduces Figure 5: throughput per workload type per system.
func fig5(o options) {
	fmt.Fprintln(o.out, "Figure 5: throughput (ops/sec) by workload type, F=1")
	w := newTab(o.out)
	defer w.Flush()
	fmt.Fprintln(w, "system\twrite-only\tmixed\tread-heavy\tread-only")
	for _, kind := range []bench.SystemKind{bench.SystemEPaxos, bench.SystemSiftEC, bench.SystemSift, bench.SystemRaftR} {
		sys := buildPopulated(kind, 1, o)
		fmt.Fprintf(w, "%s", kind)
		for _, mix := range workload.Mixes {
			mean, ci, _ := repeated(o, func(rep int) bench.RunResult {
				return bench.Run(bench.RunConfig{
					System: sys, Mix: mix, Clients: o.clients,
					Duration: o.duration, Warmup: o.warmup,
					Keys: o.keys, ValueSize: o.valueSize, ZipfTheta: 0.99,
					Seed: o.seed + int64(rep),
				})
			})
			if ci > 0.05*mean {
				fmt.Fprintf(w, "\t%.0f ±%.0f", mean, ci)
			} else {
				fmt.Fprintf(w, "\t%.0f", mean)
			}
		}
		fmt.Fprintln(w)
		sys.Close()
	}
}

// fig6 reproduces Figure 6: latencies at low load and at high load.
func fig6(o options) {
	fmt.Fprintln(o.out, "Figure 6: latency (µs) at low load (1 client) and high load")
	w := newTab(o.out)
	defer w.Flush()
	fmt.Fprintln(w, "system\tread p50/p95 (1 client)\twrite p50/p95 (1 client)\tread p50/p95 (high load)\twrite p50/p95 (high load)")
	for _, kind := range []bench.SystemKind{bench.SystemRaftR, bench.SystemSift, bench.SystemSiftEC} {
		sys := buildPopulated(kind, 1, o)
		cells := make([]string, 0, 4)
		for _, load := range []int{1, o.clients} {
			for _, mixName := range []string{"read-only", "write-only"} {
				mix, _ := workload.MixByName(mixName)
				res := bench.Run(bench.RunConfig{
					System: sys, Mix: mix, Clients: load,
					Duration: o.duration, Warmup: o.warmup,
					Keys: o.keys, ValueSize: o.valueSize, ZipfTheta: 0.99,
					Seed: o.seed,
				})
				lat := res.ReadLat
				if mixName == "write-only" {
					lat = res.WriteLat
				}
				cells = append(cells, fmt.Sprintf("%d/%d",
					lat.Median.Microseconds(), lat.P95.Microseconds()))
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", kind, cells[0], cells[1], cells[2], cells[3])
		sys.Close()
	}
}

// fig7 reproduces Figure 7: read-heavy throughput vs provisioned cores.
func fig7(o options) {
	fmt.Fprintln(o.out, "Figure 7: read-heavy throughput (ops/sec) vs provisioned cores")
	perOp := map[bench.SystemKind]time.Duration{
		bench.SystemRaftR:  20 * time.Microsecond,
		bench.SystemSift:   26 * time.Microsecond,
		bench.SystemSiftEC: 31 * time.Microsecond,
	}
	cores := []int{6, 7, 8, 9, 10, 11, 12}
	w := newTab(o.out)
	defer w.Flush()
	fmt.Fprint(w, "system\t")
	for _, c := range cores {
		fmt.Fprintf(w, "%d cores\t", c)
	}
	fmt.Fprintln(w)
	for _, f := range []int{1, 2} {
		for _, kind := range []bench.SystemKind{bench.SystemRaftR, bench.SystemSift, bench.SystemSiftEC} {
			sys := buildPopulated(kind, f, o)
			fmt.Fprintf(w, "%s (F=%d)\t", kind, f)
			for _, c := range cores {
				res := bench.Run(bench.RunConfig{
					System: sys, Mix: workload.ReadHeavy, Clients: o.clients,
					Duration: o.duration, Warmup: o.warmup,
					Keys: o.keys, ValueSize: o.valueSize, ZipfTheta: 0.99,
					Cores: c, PerOpCPU: perOp[kind], Seed: o.seed,
				})
				fmt.Fprintf(w, "%.0f\t", res.Throughput)
			}
			fmt.Fprintln(w)
			sys.Close()
		}
	}
}

// fig8 reproduces Figure 8 via the backup pool simulation.
func fig8(o options) {
	fmt.Fprintln(o.out, "Figure 8: added recovery time per fault (s) vs backup pool size")
	groups := []int{10, 100, 500, 1000, 2000, 3000}
	backups := []int{0, 1, 2, 4, 6, 8, 12, 16, 20}
	reps := o.reps
	if reps < 3 {
		reps = 3
	}
	sweep := backuppool.Sweep(groups, backups, reps, o.seed)
	w := tabwriter.NewWriter(o.out, 4, 4, 2, ' ', tabwriter.AlignRight)
	defer w.Flush()
	fmt.Fprint(w, "backups\t")
	for _, g := range groups {
		fmt.Fprintf(w, "%d groups\t", g)
	}
	fmt.Fprintln(w)
	for bi, b := range backups {
		fmt.Fprintf(w, "%d\t", b)
		for _, g := range groups {
			fmt.Fprintf(w, "%.3f\t", sweep[g][bi].Seconds())
		}
		fmt.Fprintln(w)
	}
}

// table2 prints the Table 2 machine configurations.
func table2(o options) {
	w := newTab(o.out)
	defer w.Flush()
	fmt.Fprintln(w, "Table 2: machine configurations normalized for performance")
	fmt.Fprintln(w, "system\tF\tCPU node\tmemory node")
	for _, row := range cloudcost.Table2() {
		mem := "-"
		if row.MemNode.Cores > 0 {
			mem = fmt.Sprintf("%d cores / %d GB", row.MemNode.Cores, row.MemNode.MemGB)
		}
		fmt.Fprintf(w, "%s\t%d\t%d cores / %d GB\t%s\n",
			row.System, row.F, row.CPU.Cores, row.CPU.MemGB, mem)
	}
}

// costFigure renders Figure 9 (f=1) or Figure 10 (f=2).
func costFigure(f int) func(options) {
	return func(o options) {
		figure := 9
		if f == 2 {
			figure = 10
		}
		fmt.Fprintf(o.out, "Figure %d: deployment cost relative to Raft-R, F=%d (100 groups, pool of 2)\n", figure, f)
		rows, err := cloudcost.FigureSeries(f)
		if err != nil {
			log.Fatalf("siftbench: %v", err)
		}
		w := newTab(o.out)
		defer w.Flush()
		fmt.Fprintln(w, "provider\tconfiguration\trelative cost")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%+.1f%%\n", r.Provider, r.Label, r.Relative)
		}
	}
}

// fig11 reproduces Figure 11: throughput across a memory node failure.
func fig11(o options) {
	fmt.Fprintln(o.out, "Figure 11: read-heavy throughput during a memory node failure (100ms intervals)")
	tl, err := bench.MemoryNodeFailureTimeline(bench.FailureConfig{
		Keys: o.keys, ValueSize: o.valueSize, Clients: o.clients,
		Steady: o.duration / 2, Outage: o.duration / 2, Observe: o.duration,
		Seed: o.seed,
	})
	if err != nil {
		log.Fatalf("siftbench: fig11: %v", err)
	}
	printTimeline(o.out, tl)
}

// fig12 reproduces Figure 12: throughput across a coordinator failure. It
// then kills the coordinator of a group with the paper's 64k-slot KV log and
// prints that takeover's account too.
func fig12(o options) {
	fmt.Fprintln(o.out, "Figure 12: read-heavy throughput during a coordinator failure (100ms intervals)")
	fc := bench.FailureConfig{
		Keys: o.keys, ValueSize: o.valueSize, Clients: o.clients,
		Steady: o.duration / 2, Outage: o.duration / 2, Observe: o.duration,
		Seed: o.seed,
	}
	tl, err := bench.CoordinatorFailureTimeline(fc)
	if err != nil {
		log.Fatalf("siftbench: fig12: %v", err)
	}
	printTimeline(o.out, tl)
	const paperSlots = 64 * 1024
	takeover, err := bench.TakeoverAt(paperSlots, fc)
	if err != nil {
		log.Fatalf("siftbench: fig12 at %d log slots: %v", paperSlots, err)
	}
	fmt.Fprintf(o.out, "at %d log slots: %s\n", paperSlots, takeover)
}

// shardLinkLatency is the fabric latency of the sharded deployments: the
// scaling experiment is deliberately latency-bound, so aggregate throughput
// tracks the number of groups rather than host-CPU contention — the regime
// the paper's horizontal-sharding argument is about (each group is its own
// failure and commit domain).
const shardLinkLatency = 2 * time.Millisecond

// sweep shapes an open-loop capacity sweep from the flags: each step
// measures for half of -duration after -warmup, but never for less than
// 400ms — a shorter window holds too few arrivals at the bottom of the
// sweep (50/s for 150ms is 7) for its saturation verdict to be more than
// Poisson noise. workers bounds in-flight concurrency, not offered load
// (that is the arrival rate), and has to exceed knee × latency for the
// deployment: 128 in process, 256 over 2ms shard links or a 40ms WAN round
// trip. The working set stays at the probes' default; populating more
// across slow links would dominate the run.
func sweep(o options, workers int, minRate float64) bench.DeploymentCapacityConfig {
	return bench.DeploymentCapacityConfig{
		Sweep: bench.CapacityConfig{
			MinRate:      minRate,
			StepDuration: max(o.duration/2, 400*time.Millisecond),
			StepWarmup:   o.warmup,
			Workers:      workers,
		},
		ValueSize: o.valueSize,
		Seed:      o.seed,
	}
}

// shardScaling sweeps open-loop put arrival rates behind the shard router
// (DESIGN.md §15) at 1, 2, and 4 consensus groups on 2ms links. Each
// configuration is pushed to its own knee, so the speedup is comparable
// regardless of client population and is physically bounded by the group
// count (a fixed closed-loop population under-loads one side or the other
// and manufactures super-linear speedups).
func shardScaling(o options) {
	fmt.Fprintln(o.out, "Sharding: open-loop put knee (ops/sec) vs consensus groups (2ms links, each swept to its own saturation)")
	w := newTab(o.out)
	defer w.Flush()
	fmt.Fprintln(w, "groups\tknee ops/sec\tp50 at knee\tp99 at knee\tspeedup")
	var base float64
	for _, groups := range []int{1, 2, 4} {
		res, err := bench.ShardPutCapacity(groups, shardLinkLatency, sweep(o, 256, 200))
		if err != nil {
			log.Fatalf("siftbench: shard: %v", err)
		}
		if groups == 1 {
			base = res.KneeOpsPerSec
		}
		speedup := "-"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", res.KneeOpsPerSec/base)
		}
		fmt.Fprintf(w, "%d\t%.0f\t%v\t%v\t%s\n", groups, res.KneeOpsPerSec, res.Knee.P50, res.Knee.P99, speedup)
	}
}

// wanDegradation measures acknowledged put throughput and put latency across
// a simulated 40ms-RTT wide-area deployment (one memory node and the client
// hop across the WAN, loss-adaptive FEC transport; DESIGN.md §16) at 0%,
// 5%, and 15% sustained Gilbert–Elliott loss, beside what the transport
// did to deliver them: flights recovered from parity cost no time, every
// retransmission round stalls its flight for one ack timeout.
func wanDegradation(o options) {
	fmt.Fprintln(o.out, "WAN: put throughput and latency vs sustained loss (40ms RTT, adaptive FEC)")
	w := newTab(o.out)
	defer w.Flush()
	fmt.Fprintln(w, "loss\tops/sec\tput p50 (ms)\tput p99 (ms)\tretention\tflights\tFEC-recovered\tretransmits\tgave up")
	var base float64
	for _, loss := range []float64{0, 0.05, 0.15} {
		res, err := bench.WANPutThroughput(bench.WANBenchConfig{
			LossRate: loss, Warmup: o.warmup, Duration: o.duration, Seed: o.seed,
		})
		if err != nil {
			log.Fatalf("siftbench: wan: %v", err)
		}
		if loss == 0 {
			base = res.OpsPerSec
		}
		retention := "-"
		if base > 0 {
			retention = fmt.Sprintf("%.0f%%", 100*res.OpsPerSec/base)
		}
		fmt.Fprintf(w, "%.0f%%\t%.1f\t%.1f\t%.1f\t%s\t%d\t%d\t%d\t%d\n", 100*loss, res.OpsPerSec, res.P50Ms, res.P99Ms,
			retention, res.Flights, res.FECRecovered, res.Retransmits, res.GaveUp)
	}
}

// capacitySweep walks open-loop Poisson arrival rates to the throughput
// knee (DESIGN.md §17) — the highest offered rate served without queue
// growth — for the plain F=1 deployment, the 4-group sharded deployment
// (2ms links) and the WAN deployment at 5% loss. Latency is measured from
// scheduled arrival time, so a saturated or stalled server shows up as
// queue latency instead of a quietly reduced offered load (the
// coordinated-omission failure of closed-loop probes). Each knee then
// prices its deployment in the paper's headline metric, $/million ops, from
// the §6.4 Table 2 machine pricing: the plain and WAN deployments are one
// Sift group (the WAN changes the network, not the bill); the sharded one is
// 4 groups sharing a backup pool of 2 (§5.2).
func capacitySweep(o options) {
	oneGroup := cloudcost.Deployment{System: cloudcost.Sift, F: 1}
	for _, d := range []struct {
		name string
		bill cloudcost.Deployment
		run  func() (bench.CapacityResult, error)
	}{
		{"plain", oneGroup, func() (bench.CapacityResult, error) {
			return bench.PlainPutCapacity(sweep(o, 128, 400))
		}},
		{"shard_4g", cloudcost.Deployment{System: cloudcost.Sift, F: 1, SharedBackups: true, Groups: 4, BackupPool: 2}, func() (bench.CapacityResult, error) {
			return bench.ShardPutCapacity(4, shardLinkLatency, sweep(o, 256, 200))
		}},
		{"wan_5pct", oneGroup, func() (bench.CapacityResult, error) {
			return bench.WANPutCapacity(0.05, sweep(o, 256, 0))
		}},
	} {
		fmt.Fprintf(o.out, "Capacity: open-loop put arrival-rate sweep to the knee (%s deployment)\n", d.name)
		res, err := d.run()
		if err != nil {
			log.Fatalf("siftbench: capacity: %s: %v", d.name, err)
		}
		w := newTab(o.out)
		fmt.Fprintln(w, "offered/s\tachieved/s\tp50\tp99\tp999\tdropped\tbacklog\t")
		for _, p := range res.Points {
			mark := ""
			if p.Offered == res.Knee.Offered {
				mark = "← knee"
			}
			fmt.Fprintf(w, "%.0f\t%.0f\t%v\t%v\t%v\t%d\t%d\t%s\n",
				p.Offered, p.Achieved, p.P50, p.P99, p.P999, p.Dropped, p.Backlog, mark)
		}
		w.Flush()
		if res.Saturated {
			fmt.Fprintln(o.out, "note: even the lowest swept rate saturated; knee is a ceiling estimate")
		}
		fmt.Fprintf(o.out, "knee: %.0f ops/sec (p50=%v p99=%v p999=%v at the knee)\n",
			res.KneeOpsPerSec, res.Knee.P50, res.Knee.P99, res.Knee.P999)

		w = newTab(o.out)
		fmt.Fprintln(w, "provider\t$/million ops at knee")
		for _, p := range []cloudcost.Provider{cloudcost.AWS, cloudcost.GCP} {
			cost, err := cloudcost.DeploymentCostPerMillionOps(d.bill, p, res.KneeOpsPerSec)
			if err != nil {
				log.Fatalf("siftbench: capacity: %v", err)
			}
			fmt.Fprintf(w, "%s\t%.4f\n", p, cost)
		}
		w.Flush()
		fmt.Fprintln(o.out)
	}
}

// replaceProbe measures put throughput while memory nodes are replaced back
// to back (online reconfiguration, DESIGN.md §14).
func replaceProbe(o options) {
	fmt.Fprintln(o.out, "Replace: put throughput (1 closed-loop client) during back-to-back memory-node replacement")
	putOps, replacements, skipped, err := bench.ReplacePutThroughput(o.duration, o.seed)
	if err != nil {
		log.Fatalf("siftbench: replace: %v", err)
	}
	fmt.Fprintf(o.out, "puts/sec: %.1f\nreplacements: %d\nputs skipped (no coordinator): %d\n", putOps, replacements, skipped)
}

func printTimeline(out io.Writer, tl bench.FailureTimeline) {
	w := newTab(out)
	fmt.Fprintln(w, "t (s)\tops/sec")
	for _, p := range tl.Series {
		fmt.Fprintf(w, "%.1f\t%.0f\n", p.T.Seconds(), p.Ops)
	}
	w.Flush()
	fmt.Fprintln(out, "events:")
	for name, at := range tl.Events {
		fmt.Fprintf(out, "  %6.2fs  %s\n", at.Seconds(), name)
	}
	if tl.Takeover != "" {
		fmt.Fprintln(out, tl.Takeover)
	}
}
