package bench

import (
	"sync"
	"sync/atomic"
	"time"

	sift "github.com/repro/sift"
	"github.com/repro/sift/internal/metrics"
)

// WANBenchConfig sizes a wide-area put-throughput run: a 2F+1 deployment
// with one memory node and the client path across a simulated WAN link
// carrying sustained Gilbert–Elliott loss.
type WANBenchConfig struct {
	// LossRate is the stationary packet loss on the WAN links (0 = clean).
	LossRate float64
	// RTT is the WAN round-trip (default 40ms).
	RTT time.Duration
	// Clients is the closed-loop client population (default 8).
	Clients int
	// KeysPerClient is each client's working set (default 64).
	KeysPerClient int
	// Warmup runs before measurement starts (default 500ms — long enough
	// for the loss EWMA and the straggler detector to converge).
	Warmup time.Duration
	// Duration is the measured window (default 2s).
	Duration time.Duration
	// ValueSize is the put payload (default 64).
	ValueSize int
	// DisableFEC measures the plain-ARQ baseline instead of the
	// loss-adaptive FEC transport.
	DisableFEC bool
	// Seed feeds the cluster and impairment schedules.
	Seed int64
}

func (c WANBenchConfig) withDefaults() WANBenchConfig {
	if c.RTT <= 0 {
		c.RTT = 40 * time.Millisecond
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.KeysPerClient <= 0 {
		c.KeysPerClient = 64
	}
	if c.Warmup <= 0 {
		c.Warmup = 500 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 64
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// WANResult is one WANPutThroughput run: acknowledged puts per second and
// the end-to-end put latency percentiles (milliseconds) over the measured
// window, with what the WAN transport did in that window to deliver them.
type WANResult struct {
	OpsPerSec    float64
	P50Ms, P99Ms float64
	// Flights is the transport's logical transfers; FECRecovered of them
	// needed parity to decode, Retransmits counts retransmission rounds
	// (each a stall of one ack timeout) and GaveUp the transfers that ran
	// out their retry budget.
	Flights, FECRecovered, Retransmits, GaveUp uint64
}

// WANPutThroughput boots a WAN deployment and measures put throughput and
// latency under the configured sustained loss. This is the probe behind the
// WAN degradation curve: run it at 0%, 5%, and 15% loss and compare.
func WANPutThroughput(cfg WANBenchConfig) (WANResult, error) {
	cfg = cfg.withDefaults()
	cl, err := sift.NewCluster(sift.Config{
		F: 1, Keys: 4096, MaxValueSize: 992, Seed: cfg.Seed,
		WAN: &sift.WANConfig{
			RTT:        cfg.RTT,
			Jitter:     time.Millisecond,
			LossRate:   cfg.LossRate,
			LossBurst:  8,
			Replica:    "mem2",
			ClientWAN:  true,
			DisableFEC: cfg.DisableFEC,
		},
	})
	if err != nil {
		return WANResult{}, err
	}
	defer cl.Close()

	var (
		hist    metrics.Histogram
		acked   atomic.Uint64
		measure atomic.Bool
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := cl.Client()
			val := make([]byte, cfg.ValueSize)
			key := make([]byte, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key[0], key[1] = byte(c), byte(i%cfg.KeysPerClient)
				start := time.Now()
				if client.Put(key, val) != nil {
					continue
				}
				if measure.Load() {
					acked.Add(1)
					hist.Record(time.Since(start))
				}
			}
		}(c)
	}

	time.Sleep(cfg.Warmup)
	before := cl.WANStats()
	measure.Store(true)
	start := time.Now()
	time.Sleep(cfg.Duration)
	measure.Store(false)
	elapsed := time.Since(start)
	after := cl.WANStats()
	close(stop)
	wg.Wait()
	return WANResult{
		OpsPerSec:    float64(acked.Load()) / elapsed.Seconds(),
		P50Ms:        float64(hist.Percentile(50)) / 1e6,
		P99Ms:        float64(hist.Percentile(99)) / 1e6,
		Flights:      after.Flights - before.Flights,
		FECRecovered: after.FECRecovered - before.FECRecovered,
		Retransmits:  after.Retransmits - before.Retransmits,
		GaveUp:       after.GaveUp - before.GaveUp,
	}, nil
}
