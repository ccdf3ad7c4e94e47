package bench

import (
	"fmt"
	"time"

	sift "github.com/repro/sift"
)

// CapacityConfig sizes a saturation sweep: open-loop runs at doubling
// arrival rates until the system saturates, then a short bisection
// refines the knee — the highest offered rate the deployment sustains
// without queue growth. "Heavy traffic" claims are made at the knee, not
// at whatever rate a closed-loop client population happened to offer.
type CapacityConfig struct {
	// MinRate and MaxRate bound the sweep in ops/sec (defaults 50 and
	// 50000). The sweep doubles from MinRate and stops at the first
	// saturated step or at MaxRate.
	MinRate, MaxRate float64
	// StepDuration is each step's measured window (default 700ms);
	// StepWarmup runs before it (default 200ms).
	StepDuration time.Duration
	StepWarmup   time.Duration
	// Workers and QueueDepth are passed through to OpenLoop.
	Workers    int
	QueueDepth int
	// Threshold is the achieved/offered ratio below which a step counts
	// as saturated (default 0.9); see OpenLoopResult.Saturated.
	Threshold float64
	// Refine is the number of bisection steps between the last
	// sustainable rate and the first saturated one (default 2).
	Refine int
	// Seed feeds the arrival RNGs.
	Seed int64
	// Op executes one request (see OpenLoopConfig.Op).
	Op func(worker, seq int) error
}

func (c CapacityConfig) withDefaults() CapacityConfig {
	if c.MinRate <= 0 {
		c.MinRate = 50
	}
	if c.MaxRate <= 0 {
		c.MaxRate = 50000
	}
	if c.StepDuration <= 0 {
		c.StepDuration = 700 * time.Millisecond
	}
	if c.StepWarmup <= 0 {
		c.StepWarmup = 200 * time.Millisecond
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		c.Threshold = 0.9
	}
	if c.Refine <= 0 {
		c.Refine = 2
	}
	return c
}

// CapacityResult is one sweep: every step in offered-rate order, plus the
// knee point.
type CapacityResult struct {
	Points []OpenLoopResult
	// Knee is the highest sustainable step. If even MinRate saturated,
	// Knee is that first step (its Achieved is the best estimate of the
	// ceiling) and Saturated is true.
	Knee OpenLoopResult
	// KneeOpsPerSec is Knee.Achieved — the headline capacity number.
	KneeOpsPerSec float64
	// Saturated reports that the sweep never found a sustainable rate.
	Saturated bool
}

// CapacitySweep walks offered arrival rates to the throughput knee, one
// OpenLoop run per step.
func CapacitySweep(cfg CapacityConfig) CapacityResult {
	cfg = cfg.withDefaults()
	return kneeWalk(cfg, func(rate float64) OpenLoopResult {
		return OpenLoop(OpenLoopConfig{
			Rate:       rate,
			Duration:   cfg.StepDuration,
			Warmup:     cfg.StepWarmup,
			Workers:    cfg.Workers,
			QueueDepth: cfg.QueueDepth,
			Seed:       cfg.Seed ^ int64(rate),
			Op:         cfg.Op,
		})
	})
}

// kneeWalk is the search itself, apart from the clock: step measures one
// offered rate however it likes, and the walk doubles from MinRate to the
// first saturated step (or MaxRate), then bisects Refine times between the
// last sustainable rate and the first saturated one.
func kneeWalk(cfg CapacityConfig, step func(rate float64) OpenLoopResult) CapacityResult {
	var res CapacityResult
	var good, bad float64
	for rate := cfg.MinRate; rate <= cfg.MaxRate; rate *= 2 {
		p := step(rate)
		res.Points = append(res.Points, p)
		if p.Saturated(cfg.Threshold) {
			bad = rate
			break
		}
		good = rate
		res.Knee = p
	}
	switch {
	case good == 0:
		// Even the lowest rate saturated: report what it achieved.
		res.Knee = res.Points[0]
		res.Saturated = true
	case bad > 0:
		for i := 0; i < cfg.Refine; i++ {
			mid := (good + bad) / 2
			p := step(mid)
			res.Points = append(res.Points, p)
			if p.Saturated(cfg.Threshold) {
				bad = mid
			} else {
				good = mid
				res.Knee = p
			}
		}
	}
	res.KneeOpsPerSec = res.Knee.Achieved
	return res
}

// DeploymentCapacityConfig parameterizes the cluster-backed capacity
// probes below. Zero values take the probe's defaults.
type DeploymentCapacityConfig struct {
	// Sweep shapes the rate walk; its Op field is supplied by the probe.
	Sweep CapacityConfig
	// Keys is the pre-populated working set (default 1024).
	Keys int
	// ValueSize is the put payload (default 992, the paper's value size).
	ValueSize int
	// Seed feeds the cluster and the sweep.
	Seed int64
}

func (c DeploymentCapacityConfig) withDefaults() DeploymentCapacityConfig {
	if c.Keys <= 0 {
		c.Keys = 1024
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 992
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func capacityKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// PlainPutCapacity sweeps put arrival rates against an in-process F=1
// cluster (no simulated latency) and returns the knee.
func PlainPutCapacity(cfg DeploymentCapacityConfig) (CapacityResult, error) {
	cfg = cfg.withDefaults()
	cl, err := sift.NewCluster(sift.Config{
		F: 1, Keys: 4096, MaxValueSize: 992, Seed: cfg.Seed,
	})
	if err != nil {
		return CapacityResult{}, err
	}
	defer cl.Close()
	clients, err := populateClients(cl.Client, cfg)
	if err != nil {
		return CapacityResult{}, err
	}

	val := make([]byte, cfg.ValueSize)
	sweep := cfg.Sweep
	sweep.Seed = cfg.Seed
	sweep.Op = func(worker, seq int) error {
		return clients[worker].Put(capacityKey(seq%cfg.Keys), val)
	}
	return CapacitySweep(sweep), nil
}

// ShardPutCapacity sweeps put arrival rates through the shard router at
// the given group count with linkLatency on every fabric hop (pass the
// same latency for every group count so the comparison is apples to
// apples), and returns the knee. Aggregate knee throughput per group
// count is the honest form of the shard-scaling experiment: every
// configuration is pushed to its own saturation point instead of being
// offered whatever load a group-proportional client population happens
// to generate.
func ShardPutCapacity(groups int, linkLatency time.Duration, cfg DeploymentCapacityConfig) (CapacityResult, error) {
	cfg = cfg.withDefaults()
	if groups < 1 {
		return CapacityResult{}, fmt.Errorf("bench: ShardPutCapacity needs ≥1 group, got %d", groups)
	}
	sc, err := sift.NewShardCluster(sift.ShardConfig{
		Groups: groups,
		Group: sift.Config{
			F: 1, Keys: 4096, MaxValueSize: 992, Seed: cfg.Seed,
		},
	})
	if err != nil {
		return CapacityResult{}, err
	}
	defer sc.Close()
	if linkLatency > 0 {
		sc.SetLinkLatency(linkLatency, 0)
	}

	sweep := cfg.Sweep.withDefaults()
	clients := make([]*sift.ShardClient, maxWorkers(sweep.Workers))
	loaders := make([]putClient, len(clients))
	for i := range clients {
		clients[i] = sc.Client()
		loaders[i] = clients[i]
	}
	val := make([]byte, cfg.ValueSize)
	if err := populateParallel(loaders, cfg); err != nil {
		return CapacityResult{}, err
	}
	sweep.Seed = cfg.Seed
	sweep.Op = func(worker, seq int) error {
		return clients[worker].Put(capacityKey(seq%cfg.Keys), val)
	}
	return CapacitySweep(sweep), nil
}

// WANPutCapacity sweeps put arrival rates against the WAN deployment
// (40ms RTT, one memory node and the client hop across the impaired
// link, adaptive FEC) at the given sustained loss rate.
func WANPutCapacity(lossRate float64, cfg DeploymentCapacityConfig) (CapacityResult, error) {
	cfg = cfg.withDefaults()
	cl, err := sift.NewCluster(sift.Config{
		F: 1, Keys: 4096, MaxValueSize: 992, Seed: cfg.Seed,
		WAN: &sift.WANConfig{
			RTT:       40 * time.Millisecond,
			Jitter:    time.Millisecond,
			LossRate:  lossRate,
			LossBurst: 8,
			Replica:   "mem2",
			ClientWAN: true,
		},
	})
	if err != nil {
		return CapacityResult{}, err
	}
	defer cl.Close()
	clients, err := populateClients(cl.Client, cfg)
	if err != nil {
		return CapacityResult{}, err
	}

	val := make([]byte, cfg.ValueSize)
	sweep := cfg.Sweep
	if sweep.MaxRate <= 0 {
		sweep.MaxRate = 3200 // WAN puts saturate far below the LAN knee
	}
	if sweep.StepWarmup <= 0 {
		sweep.StepWarmup = 500 * time.Millisecond // loss EWMA convergence
	}
	sweep.Seed = cfg.Seed
	sweep.Op = func(worker, seq int) error {
		return clients[worker].Put(capacityKey(seq%cfg.Keys), val)
	}
	return CapacitySweep(sweep), nil
}

func maxWorkers(w int) int {
	if w <= 0 {
		return 64 // keep in sync with OpenLoop's default
	}
	return w
}

// putClient is the slice of the client surface population needs; both
// *sift.Client and *sift.ShardClient satisfy it.
type putClient interface {
	Put(key, value []byte) error
}

// populateClients pre-populates the working set and returns one client
// per worker so no two workers share a handle.
func populateClients(newClient func() *sift.Client, cfg DeploymentCapacityConfig) ([]*sift.Client, error) {
	clients := make([]*sift.Client, maxWorkers(cfg.Sweep.withDefaults().Workers))
	loaders := make([]putClient, len(clients))
	for i := range clients {
		clients[i] = newClient()
		loaders[i] = clients[i]
	}
	if err := populateParallel(loaders, cfg); err != nil {
		return nil, err
	}
	return clients, nil
}

// populateParallel stripes the key population across up to 16 clients —
// sequential population through a 2ms shard link or a 40ms WAN hop would
// otherwise dominate the probe's wall clock.
func populateParallel(clients []putClient, cfg DeploymentCapacityConfig) error {
	loaders := 16
	if loaders > len(clients) {
		loaders = len(clients)
	}
	val := make([]byte, cfg.ValueSize)
	errCh := make(chan error, loaders)
	for l := 0; l < loaders; l++ {
		go func(l int) {
			for i := l; i < cfg.Keys; i += loaders {
				if err := clients[l].Put(capacityKey(i), val); err != nil {
					errCh <- fmt.Errorf("bench: populate key %d: %w", i, err)
					return
				}
			}
			errCh <- nil
		}(l)
	}
	var firstErr error
	for l := 0; l < loaders; l++ {
		if err := <-errCh; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
