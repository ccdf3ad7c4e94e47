package bench

import (
	"fmt"
	"time"

	"github.com/repro/sift"
	"github.com/repro/sift/internal/metrics"
	"github.com/repro/sift/internal/workload"
)

// FailureTimeline is the output of a failure-injection experiment: a
// 100 ms-interval throughput series plus the offsets of the injected
// events, matching the annotations in Figures 11 and 12.
type FailureTimeline struct {
	Series []metrics.Point
	Events map[string]time.Duration
	// Takeover is the successor's own account of its takeover — phases and
	// replay counts, the coordinator.promoted event's detail (Figure 12 only).
	Takeover string
}

// FailureConfig parameterises the Figure 11/12 experiments.
type FailureConfig struct {
	// EC selects Sift EC instead of Sift.
	EC bool
	// Keys / ValueSize / Clients as in RunConfig (read-heavy, Zipf 0.99 —
	// §6.5 uses "a read-heavy throughput with a skewed workload").
	Keys      int
	ValueSize int
	Clients   int
	// Phase durations: run steady, inject, observe, (restart), observe.
	Steady  time.Duration
	Outage  time.Duration
	Observe time.Duration
	Seed    int64
}

func (c *FailureConfig) withDefaults() FailureConfig {
	out := *c
	if out.Keys <= 0 {
		out.Keys = 4096
	}
	if out.ValueSize <= 0 {
		out.ValueSize = 128
	}
	if out.Clients <= 0 {
		out.Clients = 8
	}
	if out.Steady <= 0 {
		out.Steady = time.Second
	}
	if out.Outage <= 0 {
		out.Outage = time.Second
	}
	if out.Observe <= 0 {
		out.Observe = 2 * time.Second
	}
	if out.Seed == 0 {
		out.Seed = 7
	}
	return out
}

// MemoryNodeFailureTimeline reproduces Figure 11: kill a memory node under
// a read-heavy skewed workload, restart it, and watch throughput dip during
// the recovery copy and return to the pre-failure level.
func MemoryNodeFailureTimeline(cfg FailureConfig) (FailureTimeline, error) {
	c := cfg.withDefaults()
	kind := SystemSift
	if c.EC {
		kind = SystemSiftEC
	}
	sys, err := NewSystem(SystemConfig{Kind: kind, F: 1, Keys: c.Keys, ValueSize: c.ValueSize, Seed: c.Seed})
	if err != nil {
		return FailureTimeline{}, err
	}
	defer sys.Close()
	if err := Populate(sys, c.Keys, c.ValueSize); err != nil {
		return FailureTimeline{}, err
	}
	cluster := SiftCluster(sys)
	events := map[string]time.Duration{}

	done := make(chan RunResult, 1)
	start := time.Now()
	go func() {
		done <- Run(RunConfig{
			System: sys, Mix: workload.ReadHeavy,
			Clients: c.Clients, Keys: c.Keys, ValueSize: c.ValueSize,
			ZipfTheta: 0.99, Timeline: true,
			Duration: c.Steady + c.Outage + c.Observe,
			Seed:     c.Seed,
		})
	}()

	time.Sleep(c.Steady)
	victim := cluster.MemoryNodes()[0]
	events["memory node killed"] = time.Since(start)
	cluster.KillMemoryNode(victim)

	time.Sleep(c.Outage)
	events["memory node restarted"] = time.Since(start)
	cluster.RestartMemoryNode(victim)

	if err := cluster.AwaitMemoryNodeRecovery(1, c.Observe+30*time.Second); err == nil {
		events["memory node joins the system"] = time.Since(start)
	}

	res := <-done
	return FailureTimeline{Series: res.Timeline, Events: events}, nil
}

// CoordinatorFailureTimeline reproduces Figure 12: kill the coordinator
// and watch throughput pause until a backup CPU node completes log
// recovery, then resume (with the paper's post-recovery burst from drained
// buffers and a warm cache).
func CoordinatorFailureTimeline(cfg FailureConfig) (FailureTimeline, error) {
	c := cfg.withDefaults()
	kind := SystemSift
	if c.EC {
		kind = SystemSiftEC
	}
	sys, err := NewSystem(SystemConfig{Kind: kind, F: 1, Keys: c.Keys, ValueSize: c.ValueSize, Seed: c.Seed})
	if err != nil {
		return FailureTimeline{}, err
	}
	defer sys.Close()
	if err := Populate(sys, c.Keys, c.ValueSize); err != nil {
		return FailureTimeline{}, err
	}
	cluster := SiftCluster(sys)
	events := map[string]time.Duration{}

	done := make(chan RunResult, 1)
	start := time.Now()
	go func() {
		done <- Run(RunConfig{
			System: sys, Mix: workload.ReadHeavy,
			Clients: c.Clients, Keys: c.Keys, ValueSize: c.ValueSize,
			ZipfTheta: 0.99, Timeline: true,
			Duration: c.Steady + c.Outage + c.Observe,
			Seed:     c.Seed,
		})
	}()

	time.Sleep(c.Steady)
	before, _ := promotions(cluster)
	killed := cluster.KillCoordinator()
	events["coordinator killed"] = time.Since(start)
	if killed == 0 {
		return FailureTimeline{}, fmt.Errorf("bench: no coordinator to kill")
	}

	takeover, err := successor(cluster, before, c.Outage+c.Observe+30*time.Second)
	if err != nil {
		return FailureTimeline{}, err
	}
	events["new coordinator completes log recovery"] = time.Since(start)

	res := <-done
	return FailureTimeline{Series: res.Timeline, Events: events, Takeover: takeover}, nil
}

// TakeoverAt populates a Sift group whose KV log has the given number of
// slots, kills its coordinator, and returns the successor's account of the
// takeover: what CoordinatorFailureTimeline reports, at another log size and
// without the client load.
func TakeoverAt(slots int, cfg FailureConfig) (string, error) {
	c := cfg.withDefaults()
	cl, err := sift.NewCluster(sift.Config{
		F: 1, ErasureCoding: c.EC, Keys: c.Keys, MaxValueSize: maxInt(c.ValueSize, 64),
		KVWALSlots: slots, Seed: c.Seed,
	})
	if err != nil {
		return "", err
	}
	defer cl.Close()
	if err := Populate(&siftSystem{cluster: cl, client: cl.Client()}, c.Keys, c.ValueSize); err != nil {
		return "", err
	}
	before, _ := promotions(cl)
	if cl.KillCoordinator() == 0 {
		return "", fmt.Errorf("bench: no coordinator to kill")
	}
	return successor(cl, before, 30*time.Second)
}

// promotions counts the cluster's coordinator.promoted events and returns
// the last one's detail.
func promotions(cl *sift.Cluster) (n int, last string) {
	for _, e := range cl.Events().Recent(0) {
		if e.Type == "coordinator.promoted" {
			n, last = n+1, e.Detail
		}
	}
	return n, last
}

// successor waits for a promotion after the before-th and returns its
// account of the takeover. A serving store alone does not show it: the
// event is emitted after the store is published.
func successor(cl *sift.Cluster, before int, timeout time.Duration) (string, error) {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n, last := promotions(cl); n > before {
			return last, nil
		}
	}
	return "", fmt.Errorf("bench: no successor promoted within %v", timeout)
}
