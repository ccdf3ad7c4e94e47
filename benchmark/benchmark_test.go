package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// stallTarget is a store that answers at once except during one stall, when
// every operation waits for the stall to end.
type stallTarget struct {
	from, to time.Time
	mu       sync.Mutex
	vals     map[string][]byte
}

func (s *stallTarget) wait() {
	if now := time.Now(); now.After(s.from) && now.Before(s.to) {
		time.Sleep(time.Until(s.to))
	}
}

func (s *stallTarget) Put(key, value []byte) error {
	s.wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[string(key)] = append([]byte(nil), value...)
	return nil
}

func (s *stallTarget) Get(key []byte) ([]byte, error) {
	s.wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vals[string(key)]
	if !ok {
		return nil, errors.New("not found")
	}
	return v, nil
}

// The open loop must charge a stall to the operations that were due during
// it, and must keep issuing at the scheduled rate through it.
func TestOpenLoopChargesStallAndKeepsRate(t *testing.T) {
	const (
		rate     = 1000
		length   = 1200 * time.Millisecond
		stall    = 300 * time.Millisecond
		nWorkers = 4
	)
	m := mix{keys: 64, getFrac: 0.5}
	keys := makeKeys(m.keys, 1)
	led := newLedger(m.keys)
	start := time.Now()
	tgt := &stallTarget{from: start.Add(400 * time.Millisecond), vals: map[string][]byte{}}
	tgt.to = tgt.from.Add(stall)
	ws := make([]*worker, nWorkers)
	for i := range ws {
		ws[i] = newWorker(i, nWorkers, tgt, keys, led, m, 1, 1)
		if err := ws[i].populate(); err != nil {
			t.Fatal(err)
		}
	}
	sp := span{t0: start, winLen: length, windows: 1}
	openLoop(ws, sp, start, rate, 1)

	var timings []opTiming
	for _, w := range ws {
		if w.rec.failed > 0 {
			t.Fatalf("operation failed: %v", w.rec.firstErr)
		}
		timings = append(timings, w.rec.timings...)
	}
	if want := int(length.Seconds() * rate); len(timings) < want {
		t.Fatalf("%d operations recorded, the schedule holds %d: the stall lowered the rate", len(timings), want)
	}
	var inStall, outside []float64
	for _, tm := range timings {
		due := start.Add(time.Duration(tm.due))
		lat := float64(tm.done-tm.due) / 1e6
		switch {
		case due.After(tgt.from) && due.Before(tgt.to):
			inStall = append(inStall, lat)
			// Due during the stall: cannot have completed before it ended.
			if rest := float64(tgt.to.Sub(due)) / 1e6; lat < rest-1 {
				t.Fatalf("operation due %.0f ms before the stall ended shows %.1f ms latency", rest, lat)
			}
		case due.Before(tgt.from.Add(-50 * time.Millisecond)):
			outside = append(outside, lat)
		}
	}
	if n, want := len(inStall), int(stall.Seconds()*rate); n < want-5 {
		t.Fatalf("%d operations were due during the stall, want about %d", n, want)
	}
	if worst := percentile(inStall, 100); worst < 250 {
		t.Fatalf("worst latency of an operation due during a 300 ms stall is %.1f ms", worst)
	}
	if p50 := percentile(outside, 50); p50 > 20 {
		t.Fatalf("median latency before the stall is %.1f ms", p50)
	}
}

func TestPercentileMedianAndWindows(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {99, 5}, {100, 5}, {20, 1}, {21, 2}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("an empty sample must give NaN, not a number")
	}
	if got := windowSpread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("windowSpread = %v, want 0.2", got)
	}

	// Three one-second windows with 10, 30 and 20 operations: the reported
	// rate is the median window's, 20/s, and so is each percentile.
	rec := newRecorder(3)
	for i, n := range []int{10, 30, 20} {
		for j := 0; j < n; j++ {
			rec.lat[opPut][i] = append(rec.lat[opPut][i], int64(i+1)*1000)
		}
	}
	m := measurement{
		sp:    span{winLen: time.Second, windows: 3},
		smp:   &sampler{},
		cpuAt: []time.Duration{0, 10 * time.Microsecond, 70 * time.Microsecond, 90 * time.Microsecond},
	}
	m.collect([]*worker{{rec: rec}})
	got := m.endToEnd(0.5)
	got["proc.cpu_us_per_op"] = m.perLayer(result{})["proc.cpu_us_per_op"]
	for name, want := range map[string]float64{"ops_per_s": 20, "p50_us": 2, "p99_us": 2, "proc.cpu_us_per_op": 1, "setup_s": 0.5} {
		if got[name].Value != want {
			t.Errorf("%s = %v, want %v", name, got[name].Value, want)
		}
	}
}

func TestVerifierRejectsStaleReadAndLostWrite(t *testing.T) {
	led := newLedger(2)
	val := func(key uint32, seq uint64) []byte {
		b := make([]byte, valueSize)
		encodeValue(b, key, 0, seq)
		return b
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if got := led.nextSeq(0); got != seq {
			t.Fatalf("nextSeq = %d, want %d", got, seq)
		}
	}
	led.ack(0, 2) // put 3 returned an error: it may or may not be there

	floor := led.floor(0)
	if err := led.check(0, floor, val(0, 2)); err != nil {
		t.Errorf("acknowledged value rejected: %v", err)
	}
	if err := led.check(0, floor, val(0, 3)); err != nil {
		t.Errorf("value of a put with unknown outcome rejected: %v", err)
	}
	if err := led.check(0, floor, val(0, 1)); err == nil {
		t.Error("stale read accepted: seq 1 after seq 2 was acknowledged")
	}
	if err := led.check(0, floor, val(0, 4)); err == nil {
		t.Error("value that was never written accepted")
	}
	if err := led.check(0, floor, val(1, 2)); err == nil {
		t.Error("another key's value accepted")
	}
	torn := val(0, 2)
	torn[500] ^= 1
	if err := led.check(0, floor, torn); err == nil {
		t.Error("value with a flipped bit accepted")
	}

	// Sweep: key 0 holds an acknowledged value, key 1 lost its write.
	led.ack(1, led.nextSeq(1))
	store := map[uint32][]byte{0: val(0, 2)}
	bad, first := led.sweep(func(key uint32) ([]byte, error) {
		if v, ok := store[key]; ok {
			return v, nil
		}
		return nil, errors.New("not found")
	})
	if bad != 1 || first == nil {
		t.Errorf("sweep found %d bad keys (%v), want the 1 lost write", bad, first)
	}
	store[1] = val(1, 1)
	store[0] = val(0, 1)
	if bad, _ := led.sweep(func(key uint32) ([]byte, error) { return store[key], nil }); bad != 1 {
		t.Errorf("sweep found %d bad keys, want the 1 rolled-back write", bad)
	}
}

// repmem pipelines its writes only over a connection that implements
// rdma.Submitter; a tracing wrapper that lost Submit would measure a
// different system.
func TestTracedConnStillPipelines(t *testing.T) {
	tr := newTracer()
	s, err := buildStack(false, 0, true, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	v, err := s.mcfg.Dial("mem0")
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	sub, ok := v.(rdma.Submitter)
	if !ok {
		t.Fatalf("%T does not implement rdma.Submitter", v)
	}
	tr.on.Store(true)
	done := make(chan error, 1)
	sub.Submit(&rdma.Op{Kind: rdma.OpWrite, Region: memnode.ReplRegionID, Data: make([]byte, 64),
		Done: func(o *rdma.Op) { done <- o.Err }})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) != 1 || tr.spans[0].name != "rdma.write" || tr.spans[0].bytes != 64 || tr.spans[0].end < tr.spans[0].start {
		t.Fatalf("spans after one submitted write: %+v", tr.spans)
	}
}

// A short run of every workload must report exactly the metrics
// BENCHMARK.json names: the end-to-end ones untraced, the per-layer ones
// traced.
func TestSmokeReportsEveryDeclaredMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	check := func(w string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		var missing []string
		for _, m := range want {
			if g, ok := got[m.Name]; !ok {
				missing = append(missing, m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", w, m.Name, g.Unit, m.Unit)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 || len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, %d declared, missing %v", w, len(got), len(want), missing)
		}
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, decl.Workloads[i].Name, w.name)
		}
		res, err := runWorkload(w, 7, 0.25, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		check(w.name, res.Metrics, decl.EndToEnd)
	}
	// The traced half is the same code for every workload but for erasure
	// coding, so one traced run with it on covers the per-layer names.
	w, _ := findWorkload("ec_put_sat")
	res, err := runWorkload(w, 7, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	check(w.name+" traced", res.Metrics, decl.PerLayer)
}
