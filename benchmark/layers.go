package main

import (
	"bufio"
	"bytes"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/repro/sift"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// Series scraped from the cluster's Prometheus text, by the short name the
// sampler keeps them under. Everything else in the scrape is ignored.
var (
	promCounters = map[string]string{
		"sift_client_retries_total":      "client.retries",
		"sift_client_ambiguous_total":    "client.ambiguous",
		"sift_election_campaigns_total":  "election.campaigns",
		"sift_election_promotions_total": "election.promotions",
	}
	promGauges = map[string]string{
		`sift_repmem_quorum_wait_seconds{quantile="0.5"}`:  "repmem.quorum_wait_p50_s",
		`sift_repmem_quorum_wait_seconds{quantile="0.99"}`: "repmem.quorum_wait_p99_s",
	}
)

// sampler reads the cluster's public counters — Cluster.Stats() and a scrape
// of Cluster.Metrics() — and adds up how far each moved during measurement.
// The coordinator's counters start again from zero when the coordinatorship
// moves, and the election counters are summed over the CPU nodes running at
// the time, so the fault schedule calls observe just before a kill and rebase
// just after it: what the dying node counted is kept, and the drop is not
// mistaken for progress.
type sampler struct {
	cl *sift.Cluster

	mu     sync.Mutex
	last   map[string]float64
	total  map[string]float64
	gauges map[string]float64
}

func (s *sampler) read() (counters, gauges map[string]float64) {
	st := s.cl.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	counters = map[string]float64{
		"kv.puts":           float64(st.KV.Puts),
		"kv.gets":           float64(st.KV.Gets),
		"kv.applies":        float64(st.KV.Applies),
		"kv.cache_hits":     float64(st.KV.CacheHits),
		"kv.cache_misses":   float64(st.KV.CacheMisses),
		"kv.chain_reads":    float64(st.KV.ChainReads),
		"repmem.enqueued":   float64(st.Memory.Enqueued),
		"repmem.queue_wait": float64(st.Memory.QueueWaitUs),
		"repmem.remote":     float64(st.Memory.RemoteReads),
		"repmem.decoded":    float64(st.Memory.DecodedReads),
		"repmem.timeouts":   float64(st.Memory.NodeTimeouts),
		"repmem.suspected":  float64(st.Memory.NodeSuspected),
		"repmem.degraded":   float64(st.Memory.NodeDegraded),
		"rdma.ops":          float64(st.Memory.TransportOps),
		"rdma.flushes":      float64(st.Memory.TransportFlushes),
		"proc.mallocs":      float64(ms.Mallocs),
		"proc.gc_cpu_s":     gcCPUSeconds(),
		"proc.cpu_s":        cpuTime().Seconds(),
	}
	gauges = map[string]float64{
		"repmem.max_queue_depth": float64(st.Memory.MaxQueueDepth),
		"kv.apply_lag":           float64(st.KV.Puts) - float64(st.KV.Applies),
		"proc.goroutines":        float64(runtime.NumGoroutine()),
	}

	var text bytes.Buffer
	_ = s.cl.Metrics().WritePrometheus(&text) // a bytes.Buffer write cannot fail
	sc := bufio.NewScanner(&text)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		if name, ok := promCounters[line[:i]]; ok {
			counters[name] = v
		} else if name, ok := promGauges[line[:i]]; ok {
			gauges[name] = v
		}
	}
	return counters, gauges
}

// observe adds each counter's movement since the last observation to its
// total. A counter that went down restarted from zero.
func (s *sampler) observe() {
	cur, gauges := s.read()
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range cur {
		if v >= s.last[k] {
			s.total[k] += v - s.last[k]
		} else {
			s.total[k] += v
		}
	}
	s.last, s.gauges = cur, gauges
}

// rebase takes the current values as the new starting point without counting
// the change.
func (s *sampler) rebase() {
	cur, gauges := s.read()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last, s.gauges = cur, gauges
}

// reset forgets what has been added up so far; measurement starts here.
func (s *sampler) reset() {
	s.rebase()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total = map[string]float64{}
}

func (s *sampler) gauge(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gauges[name]
}

func (s *sampler) moved(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total[name]
}

// ratio is a/b, and 0 when b is 0: a layer that did no work wasted none.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
