package bench

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoissonRateAccuracy: with a fast no-op operation, the generator's
// absolute schedule must deliver the configured rate — arrivals and
// achieved throughput both within 15% of offered (Poisson noise on ~1000
// arrivals is ~3%; the slack covers coarse sleeps on loaded runners).
func TestPoissonRateAccuracy(t *testing.T) {
	res := OpenLoop(OpenLoopConfig{
		Rate:     1000,
		Warmup:   100 * time.Millisecond,
		Duration: time.Second,
		Workers:  8,
		Seed:     1,
		Op:       func(worker, seq int) error { return nil },
	})
	if res.Dropped != 0 || res.Errors != 0 {
		t.Fatalf("clean run dropped=%d errors=%d", res.Dropped, res.Errors)
	}
	want := 1000.0
	if f := float64(res.Arrivals); f < 0.85*want || f > 1.15*want {
		t.Fatalf("arrivals = %d, want ≈%d", res.Arrivals, int(want))
	}
	if res.Achieved < 0.85*want || res.Achieved > 1.15*want {
		t.Fatalf("achieved = %.0f, want ≈%.0f", res.Achieved, want)
	}
	if res.Saturated(0.9) {
		t.Fatalf("no-op server reported saturated: %+v", res)
	}
}

// TestOpenLoopChargesStallAsQueueLatency: the anti-coordinated-omission
// property. A single 400ms server stall must surface in the measured tail
// (ops scheduled during the stall wait in queue, and their latency is
// measured from scheduled arrival time), and those arrivals must still be
// counted and executed, not silently omitted. A closed-loop probe would
// have recorded one slow op and stopped offering load.
func TestOpenLoopChargesStallAsQueueLatency(t *testing.T) {
	var stalled atomic.Bool
	res := OpenLoop(OpenLoopConfig{
		Rate:       200,
		Warmup:     100 * time.Millisecond,
		Duration:   1200 * time.Millisecond,
		Workers:    1, // single executor: the stall blocks the whole queue
		QueueDepth: 512,
		Seed:       2,
		Op: func(worker, seq int) error {
			if seq == 40 && !stalled.Swap(true) {
				time.Sleep(400 * time.Millisecond)
			}
			return nil
		},
	})
	if !stalled.Load() {
		t.Fatal("stall never injected")
	}
	if res.Dropped != 0 {
		t.Fatalf("queue overflowed (%d dropped); deepen the queue", res.Dropped)
	}
	// ~80 arrivals land during the stall window; the tail must see it.
	if res.P99 < 100*time.Millisecond {
		t.Fatalf("p99 = %v hides a 400ms stall (coordinated omission)", res.P99)
	}
	if res.Max < 300*time.Millisecond {
		t.Fatalf("max = %v, want ≥ the 400ms stall (minus schedule slack)", res.Max)
	}
	// The stall must not erase demand: arrivals during it are still served.
	if got, want := float64(res.Completed+res.Backlog), 0.8*float64(res.Arrivals); got < want {
		t.Fatalf("completed+backlog = %d of %d arrivals", res.Completed+res.Backlog, res.Arrivals)
	}
	// But the common case stays fast.
	if res.P50 > 100*time.Millisecond {
		t.Fatalf("p50 = %v; the stall should live in the tail, not the median", res.P50)
	}
}

// TestOpenLoopQueueOverflowCounted: offered load far beyond service
// capacity must be visible as drops/backlog and a saturated verdict —
// never a silently reduced offered rate.
func TestOpenLoopQueueOverflowCounted(t *testing.T) {
	res := OpenLoop(OpenLoopConfig{
		Rate:       2000,
		Warmup:     50 * time.Millisecond,
		Duration:   500 * time.Millisecond,
		Workers:    1,
		QueueDepth: 8,
		Seed:       3,
		Op: func(worker, seq int) error {
			time.Sleep(5 * time.Millisecond) // ~200 ops/sec ceiling
			return nil
		},
	})
	if res.Dropped == 0 {
		t.Fatalf("10× overload never overflowed the 8-deep queue: %+v", res)
	}
	if res.Achieved > 500 {
		t.Fatalf("achieved %.0f ops/s through a 200 ops/s server", res.Achieved)
	}
	if !res.Saturated(0.9) {
		t.Fatalf("overloaded run not reported saturated: %+v", res)
	}
}

// TestCapacitySweepFindsKnee drives the rate walk with a synthetic step — a
// server that keeps up with exactly 600 ops/s and drops arrivals above it —
// so the search is checked without a clock: no sleep, no tolerance band.
func TestCapacitySweepFindsKnee(t *testing.T) {
	const serverRate = 600
	step := func(rate float64) OpenLoopResult {
		r := OpenLoopResult{Offered: rate, Arrivals: int(rate), Completed: int(rate), Achieved: rate}
		if rate > serverRate {
			r.Completed, r.Achieved = serverRate, serverRate
			r.Dropped = int(rate) - serverRate
		}
		return r
	}
	walk := func(min, max float64, refine int) CapacityResult {
		return kneeWalk(CapacityConfig{MinRate: min, MaxRate: max, Refine: refine}.withDefaults(), step)
	}

	// 100, 200, 400 sustain, 800 saturates; bisect 600 (sustains), 700 (not).
	res := walk(100, 3200, 2)
	var offered []float64
	for _, p := range res.Points {
		offered = append(offered, p.Offered)
	}
	if want := []float64{100, 200, 400, 800, 600, 700}; !reflect.DeepEqual(offered, want) {
		t.Fatalf("walk offered %v, want %v", offered, want)
	}
	if res.Saturated || res.Knee.Offered != 600 || res.KneeOpsPerSec != 600 {
		t.Fatalf("knee = %+v (saturated=%v), want the 600 ops/s step", res.Knee, res.Saturated)
	}
	// Every further bisection halves the bracket around the true rate.
	if res := walk(100, 3200, 5); res.Knee.Offered > serverRate || res.Knee.Offered <= serverRate-400.0/32 {
		t.Fatalf("5 bisections left the knee at %.1f, outside (%.1f, %d]", res.Knee.Offered, serverRate-400.0/32, serverRate)
	}
	// A ceiling below the server's rate is never reported saturated.
	if res := walk(100, 400, 2); res.Saturated || res.Knee.Offered != 400 || len(res.Points) != 3 {
		t.Fatalf("sweep capped at 400: %+v", res)
	}
	// A floor the server cannot sustain: the first step is the estimate.
	if res := walk(1000, 8000, 2); !res.Saturated || len(res.Points) != 1 || res.KneeOpsPerSec != serverRate {
		t.Fatalf("sweep from 1000: saturated=%v points=%d knee=%.0f", res.Saturated, len(res.Points), res.KneeOpsPerSec)
	}
}

// TestCapacityPlainClusterSmoke: the real-cluster probe end to end with a
// tiny sweep — the `make capacity` CI smoke.
func TestCapacityPlainClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep in -short mode")
	}
	res, err := PlainPutCapacity(DeploymentCapacityConfig{
		Sweep: CapacityConfig{
			MinRate:      200,
			MaxRate:      1600,
			StepDuration: 300 * time.Millisecond,
			StepWarmup:   100 * time.Millisecond,
			Workers:      16,
			Refine:       1,
		},
		Keys: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KneeOpsPerSec <= 0 {
		t.Fatalf("no knee measured: %+v", res)
	}
	if res.Knee.P99 <= 0 {
		t.Fatal("no latency percentiles at the knee")
	}
}
