package main

import (
	"fmt"
	"math"
	"time"
)

// measurement is everything one workload's run recorded.
type measurement struct {
	w        workload
	sp       span
	lat      [opKinds + 1][][]float64 // per kind (and, last, all kinds) and window: every worker's latencies, µs
	timings  []opTiming               // open loop: every scheduled operation
	cpuAt    []time.Duration          // process CPU time at the start of measurement and at each window's end
	lagAt    []float64                // puts not yet applied at each window's end
	lateness []int64                  // open loop: how late each operation was handed to its worker, ns
	faults   faultLog
	smp      *sampler
}

const allKinds = opKinds // index of the merged latencies in measurement.lat

// collect merges the workers' records, once, into the per-window samples the
// metrics are computed from.
func (m *measurement) collect(ws []*worker) {
	for k := range m.lat {
		m.lat[k] = make([][]float64, m.sp.windows)
	}
	for _, w := range ws {
		m.timings = append(m.timings, w.rec.timings...)
		for k := 0; k < opKinds; k++ {
			for i, ns := range w.rec.lat[k] {
				us := nsToUs(ns)
				m.lat[k][i] = append(m.lat[k][i], us...)
				m.lat[allKinds][i] = append(m.lat[allKinds][i], us...)
			}
		}
	}
}

// overWindows is the median over the windows of f applied to each window's
// latencies of the given kind.
func (m *measurement) overWindows(kind int, f func(lat []float64, window int) float64) float64 {
	var vals []float64
	for i, lat := range m.lat[kind] {
		vals = append(vals, f(lat, i))
	}
	return median(vals)
}

// pctl is the q-th latency percentile of the given kind, median over windows.
func (m *measurement) pctl(kind int, q float64) float64 {
	return m.overWindows(kind, func(lat []float64, _ int) float64 { return percentile(lat, q) })
}

// opsPerS is a window's completed, verified operations per second; on the
// open loop only those completed within the latency limit count.
func (m *measurement) opsPerS(lat []float64, _ int) float64 {
	n := 0
	for _, l := range lat {
		if m.w.rate == 0 || l <= float64(lateLimit.Microseconds()) {
			n++
		}
	}
	return float64(n) / m.sp.winLen.Seconds()
}

// endToEnd computes the metrics a user of the system would see. Each is the
// median over the measurement windows.
func (m *measurement) endToEnd(setupS float64) map[string]metric {
	return map[string]metric{
		"ops_per_s": {m.overWindows(allKinds, m.opsPerS), "1/s"},
		"p50_us":    {m.pctl(allKinds, 50), "us"},
		"p99_us":    {m.pctl(allKinds, 99), "us"},
		"setup_s":   {setupS, "s"},
	}
}

// perLayer computes the metrics of single layers, from the load generator's
// own per-kind latencies and from how far the cluster's public counters moved
// during measurement. A ratio whose denominator did not move reads 0.
func (m *measurement) perLayer(res result) map[string]metric {
	p := func(kind int, q float64) float64 {
		if v := m.pctl(kind, q); !math.IsNaN(v) {
			return v
		}
		return 0 // the workload has no operation of this kind
	}
	cpu := func(lat []float64, i int) float64 {
		return float64((m.cpuAt[i+1] - m.cpuAt[i]).Microseconds()) / float64(len(lat))
	}
	moved := m.smp.moved
	ops := 0.0
	var perWindow []float64
	for _, lat := range m.lat[allKinds] {
		ops += float64(len(lat))
		perWindow = append(perWindow, float64(len(lat)))
	}

	late := 0
	for _, t := range m.timings {
		if !t.ok || t.done-t.due > int64(lateLimit) {
			late++
		}
	}
	failovers := m.faults.failovers(m.timings)
	slow, worst := 0, 0.0
	for _, f := range failovers {
		worst = math.Max(worst, f)
		if f > 500 {
			slow++
		}
	}
	failoverP50 := 0.0
	if len(failovers) > 0 {
		failoverP50 = median(failovers)
	}
	latenessP99 := 0.0
	if len(m.lateness) > 0 {
		latenessP99 = percentile(nsToUs(m.lateness), 99)
	}

	return map[string]metric{
		"client.put_p50_us":               {p(opPut, 50), "us"},
		"client.put_p99_us":               {p(opPut, 99), "us"},
		"client.get_p50_us":               {p(opGet, 50), "us"},
		"client.get_p99_us":               {p(opGet, 99), "us"},
		"client.retries_per_kop":          {ratio(moved("client.retries"), ops/1000), "count"},
		"client.ambiguous":                {moved("client.ambiguous"), "count"},
		"client.failed_frac":              {ratio(float64(res.Failed), float64(res.Attempted)), "frac"},
		"client.late_frac":                {ratio(float64(late), float64(len(m.timings))), "frac"},
		"client.failover_p50_ms":          {failoverP50, "ms"},
		"election.failover_max_ms":        {worst, "ms"},
		"election.slow_failovers":         {float64(slow), "count"},
		"election.campaigns_per_failover": {ratio(moved("election.campaigns"), moved("election.promotions")), "count"},

		"kv.cache_hit_ratio":      {ratio(moved("kv.cache_hits"), moved("kv.cache_hits")+moved("kv.cache_misses")), "frac"},
		"kv.chain_reads_per_miss": {ratio(moved("kv.chain_reads"), moved("kv.cache_misses")), "count"},
		"kv.apply_lag_ops":        {median(append([]float64(nil), m.lagAt...)), "count"},

		"repmem.node_ops_per_put":          {ratio(moved("repmem.enqueued"), moved("kv.puts")), "count"},
		"repmem.queue_wait_us_per_node_op": {ratio(moved("repmem.queue_wait"), moved("repmem.enqueued")), "us"},
		"repmem.max_queue_depth":           {m.smp.gauge("repmem.max_queue_depth"), "count"},
		"repmem.quorum_wait_p50_us":        {m.smp.gauge("repmem.quorum_wait_p50_s") * 1e6, "us"},
		"repmem.quorum_wait_p99_us":        {m.smp.gauge("repmem.quorum_wait_p99_s") * 1e6, "us"},
		"repmem.remote_reads_per_get":      {ratio(moved("repmem.remote"), moved("kv.gets")), "count"},
		"repmem.decoded_reads":             {moved("repmem.decoded"), "count"},
		"repmem.node_timeouts":             {moved("repmem.timeouts"), "count"},
		"repmem.node_suspected":            {moved("repmem.suspected"), "count"},
		"repmem.node_degraded":             {moved("repmem.degraded"), "count"},
		"repmem.recovery_s":                {m.faults.recoveryS, "s"},
		"repmem.replace_s":                 {m.faults.replaceS, "s"},
		"repmem.replace_attempts":          {float64(m.faults.replaceTries), "count"},

		"rdma.ops_per_flush": {ratio(moved("rdma.ops"), moved("rdma.flushes")), "count"},

		"proc.cpu_us_per_op": {m.overWindows(allKinds, cpu), "us"},
		"proc.allocs_per_op": {ratio(moved("proc.mallocs"), ops), "count"},
		"proc.gc_cpu_frac":   {ratio(moved("proc.gc_cpu_s"), moved("proc.cpu_s")), "frac"},
		"proc.peak_rss_mb":   {peakRSSMB(), "MiB"},
		"proc.goroutines":    {m.smp.gauge("proc.goroutines"), "count"},

		"loadgen.lateness_p99_us": {latenessP99, "us"},
		"loadgen.window_spread":   {windowSpread(perWindow), "frac"},
	}
}

// samples says how much data the reported numbers rest on.
func (m *measurement) samples() string {
	var perWindow []int
	total := 0
	for _, lat := range m.lat[allKinds] {
		total += len(lat)
		perWindow = append(perWindow, len(lat))
	}
	return fmt.Sprintf("%d windows of %v, %d operations measured, per window %v, %d coordinator kills",
		m.sp.windows, m.sp.winLen, total, perWindow, len(m.faults.kills))
}
