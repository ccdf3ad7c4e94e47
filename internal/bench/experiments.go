package bench

import (
	"fmt"
	"time"

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
	killed := cluster.KillCoordinator()
	events["coordinator killed"] = time.Since(start)
	if killed == 0 {
		return FailureTimeline{}, fmt.Errorf("bench: no coordinator to kill")
	}

	if err := cluster.WaitForCoordinator(c.Outage + c.Observe + 30*time.Second); err != nil {
		return FailureTimeline{}, err
	}
	events["new coordinator completes log recovery"] = time.Since(start)
	var takeover string
	for _, e := range cluster.Events().Recent(0) {
		if e.Type == "coordinator.promoted" {
			takeover = e.Detail // the last promotion is the successor's
		}
	}

	res := <-done
	return FailureTimeline{Series: res.Timeline, Events: events, Takeover: takeover}, nil
}
