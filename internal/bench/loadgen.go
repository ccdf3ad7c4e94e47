package bench

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/metrics"
)

// arrival is one scheduled open-loop request.
type arrival struct {
	due time.Time
	seq int
}

// OpenLoopConfig drives one open-loop measurement: Poisson arrivals at
// Rate ops/sec flow through a bounded queue to Workers concurrent
// executors. Unlike the closed-loop probes (whose clients stop offering
// load the moment the server stalls), the arrival schedule is fixed in
// advance and latency is measured from each op's *scheduled* arrival
// time, so time spent waiting behind a stalled or saturated server is
// charged as queue latency instead of silently vanishing — the
// coordinated-omission failure mode.
type OpenLoopConfig struct {
	// Rate is the offered Poisson arrival rate, ops/sec.
	Rate float64
	// Duration is the measured window; Warmup runs before it (same rate,
	// stats discarded).
	Duration time.Duration
	Warmup   time.Duration
	// Workers bounds in-flight operations (default 64).
	Workers int
	// QueueDepth bounds the arrival queue (default 4×Workers). An arrival
	// that finds the queue full is counted as Dropped, never silently
	// discarded: overflow is a saturation signal.
	QueueDepth int
	// Seed feeds the inter-arrival RNG.
	Seed int64
	// Op executes one request. worker identifies the executor (so probes
	// can pin one client per worker); seq is the global arrival sequence.
	Op func(worker, seq int) error
}

// OpenLoopResult summarises one open-loop run. Latency percentiles are
// measured from scheduled arrival time (queue wait + service time).
type OpenLoopResult struct {
	Offered   float64 // configured arrival rate, ops/sec
	Workers   int
	Arrivals  int // arrivals due within the measured window
	Completed int // in-window arrivals that were served (drain included)
	Errors    int
	Dropped   int     // queue-full arrivals (whole run)
	Backlog   int     // enqueued but unserved when the run ended
	Achieved  float64 // completed / duration, ops/sec

	P50, P99, P999, Max time.Duration
}

// Saturated reports whether the run shows the server failing to keep up
// with the offered load: queue overflow, a backlog left at the end of
// the window, or served demand below threshold×arrivals (threshold in
// (0,1], e.g. 0.9). Served demand is judged against the *actual* arrival
// count, not the configured rate — short windows carry enough Poisson
// noise that a configured-rate comparison misflags low rates as
// saturated.
func (r OpenLoopResult) Saturated(threshold float64) bool {
	if r.Dropped > 0 {
		return true
	}
	if float64(r.Backlog) > 0.05*float64(r.Arrivals)+2*float64(r.Workers) {
		return true
	}
	return r.Arrivals > 0 && float64(r.Completed) < threshold*float64(r.Arrivals)
}

// OpenLoop runs one open-loop measurement at cfg.Rate.
func OpenLoop(cfg OpenLoopConfig) OpenLoopResult {
	if cfg.Rate <= 0 {
		return OpenLoopResult{}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.Warmup < 0 {
		cfg.Warmup = 0
	}

	var (
		queue     = make(chan arrival, cfg.QueueDepth)
		hist      metrics.Histogram
		arrivals  atomic.Int64
		completed atomic.Int64
		errs      atomic.Int64
		dropped   atomic.Int64
		backlog   atomic.Int64
		draining  atomic.Bool
	)

	start := time.Now()
	measureStart := start.Add(cfg.Warmup)
	deadline := measureStart.Add(cfg.Duration)
	inWindow := func(due time.Time) bool {
		return due.After(measureStart) && !due.After(deadline)
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := range queue {
				if draining.Load() {
					// The window closed with this arrival still queued: it
					// is unserved demand, not work to burn after the bell.
					if inWindow(a.due) {
						backlog.Add(1)
					}
					continue
				}
				err := cfg.Op(w, a.seq)
				lat := time.Since(a.due)
				if lat < 0 {
					lat = 0
				}
				// In-flight ops finishing during the drain still count:
				// they are served demand. Only unstarted queue entries
				// (Backlog) are unserved.
				if inWindow(a.due) {
					if err != nil {
						errs.Add(1)
					} else {
						hist.Record(lat)
						completed.Add(1)
					}
				}
			}
		}(w)
	}

	// Generator: an absolute Poisson schedule. Each due time is fixed when
	// the previous one is drawn, so an oversleeping generator produces a
	// catch-up burst at the scheduled instants rather than a lower rate —
	// and a backed-up queue never slows the arrival process down.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	next := start
	for seq := 0; ; seq++ {
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if inWindow(next) {
			arrivals.Add(1)
		}
		select {
		case queue <- arrival{due: next, seq: seq}:
		default:
			dropped.Add(1)
		}
	}
	draining.Store(true)
	close(queue)
	wg.Wait()

	return OpenLoopResult{
		Offered:   cfg.Rate,
		Workers:   cfg.Workers,
		Arrivals:  int(arrivals.Load()),
		Completed: int(completed.Load()),
		Errors:    int(errs.Load()),
		Dropped:   int(dropped.Load()),
		Backlog:   int(backlog.Load()),
		Achieved:  float64(completed.Load()) / cfg.Duration.Seconds(),
		P50:       hist.Percentile(50),
		P99:       hist.Percentile(99),
		P999:      hist.Percentile(99.9),
		Max:       hist.Max(),
	}
}
