package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/deploy"
	"github.com/repro/sift/internal/election"
	"github.com/repro/sift/internal/erasure"
	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/netsim"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
	"github.com/repro/sift/internal/wal"
)

// The traced run. The end-to-end workloads go through sift.NewCluster, which
// offers no place to record spans, so the traced run builds the same stack
// bottom-up from the layers' public constructors (memory nodes on an
// in-process network → repmem → kv) with a span-recording connection between
// repmem and rdma, and times the layers around the calls into them. Spans
// stay in memory and are summarised when the run ends.

// spanRec is one recorded span. Spans of one operation share op; parent is
// the index of the span that caused this one, -1 for a root.
type spanRec struct {
	name       string
	start, end int64 // nanoseconds since the tracer started
	parent     int32
	op         uint64
	bytes      int
}

type tracer struct {
	t0 time.Time
	on atomic.Bool  // spans are recorded only while set
	at atomic.Int32 // index of the span rdma work is done on behalf of, -1 for none

	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.at.Store(-1)
	return t
}

// begin opens a span under parent, or a root span of operation op when
// parent is -1. It returns the span's index, -1 when tracing is off.
func (t *tracer) begin(name string, parent int32, op uint64) int32 {
	if !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		op = t.spans[parent].op
	}
	t.spans = append(t.spans, spanRec{name: name, start: now, parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32, bytes int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].end, t.spans[i].bytes = now, bytes
	t.mu.Unlock()
}

// root opens a span for one operation of the caller and makes it the parent
// of the rdma work done until release.
func (t *tracer) root(name string, op uint64) int32 {
	i := t.begin(name, -1, op)
	t.at.Store(i)
	return i
}

func (t *tracer) release() { t.at.Store(-1) }

// child opens a span under the current root; background work with no root
// in progress gets a root span of operation 0.
func (t *tracer) child(name string) int32 { return t.begin(name, t.at.Load(), 0) }

// tracedConn records a span around every one-sided operation. It forwards
// Submit and PipelineStats as well as the blocking verbs: repmem's per-node
// workers use Submit when the connection offers it and silently fall back to
// one synchronous write at a time when it does not, which would make the
// traced stack a different system from the one being explained.
type tracedConn struct {
	inner rdma.Submitter
	tr    *tracer
}

var (
	_ rdma.Submitter       = (*tracedConn)(nil)
	_ rdma.PipelineStatser = (*tracedConn)(nil)
)

// verbSpan names the span of a submitted operation by its kind.
func verbSpan(k rdma.OpKind) string {
	switch k {
	case rdma.OpRead:
		return "rdma.read"
	case rdma.OpWrite:
		return "rdma.write"
	case rdma.OpCAS:
		return "rdma.cas"
	}
	return "rdma.unknown" // the transport rejects it; the span still closes
}

func (c *tracedConn) Read(region rdma.RegionID, offset uint64, buf []byte) error {
	s := c.tr.child("rdma.read")
	err := c.inner.Read(region, offset, buf)
	c.tr.end(s, len(buf))
	return err
}

func (c *tracedConn) Write(region rdma.RegionID, offset uint64, data []byte) error {
	s := c.tr.child("rdma.write")
	err := c.inner.Write(region, offset, data)
	c.tr.end(s, len(data))
	return err
}

func (c *tracedConn) CompareAndSwap(region rdma.RegionID, offset uint64, expect, swap uint64) (uint64, error) {
	s := c.tr.child("rdma.cas")
	old, err := c.inner.CompareAndSwap(region, offset, expect, swap)
	c.tr.end(s, 8)
	return old, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

func (c *tracedConn) Submit(op *rdma.Op) {
	s, n := c.tr.child(verbSpan(op.Kind)), len(op.Data)
	if done := op.Done; done != nil {
		op.Done = func(o *rdma.Op) {
			c.tr.end(s, n)
			done(o)
		}
	} else {
		c.tr.end(s, n) // no callback to observe completion through
	}
	c.inner.Submit(op)
}

func (c *tracedConn) PipelineStats() rdma.PipelineStats {
	if ps, ok := c.inner.(rdma.PipelineStatser); ok {
		return ps.PipelineStats()
	}
	return rdma.PipelineStats{}
}

// dialTraced opens an in-process connection and, when tr is not nil, wraps it
// in the span-recording connection.
func dialTraced(nw *rdma.Network, src, node string, opts rdma.DialOpts, tr *tracer) (rdma.Verbs, error) {
	v, err := nw.Dial(src, node, opts)
	if err != nil || tr == nil {
		return v, err
	}
	sub, ok := v.(rdma.Submitter)
	if !ok {
		v.Close()
		return nil, fmt.Errorf("in-process connection to %s does not pipeline", node)
	}
	return &tracedConn{inner: sub, tr: tr}, nil
}

// stack is the hand-built deployment: three memory nodes, one replicated
// memory and, unless memOnly, a key-value store on it.
type stack struct {
	nw   *rdma.Network
	mem  *repmem.Memory
	st   *kv.Store
	kcfg kv.Config
	mcfg repmem.Config
}

// buildStack derives the layer configurations exactly as sift.NewCluster
// does and wires the layers together; tr, when not nil, interposes the
// span-recording connection. cacheKeys sizes the store's cache.
func buildStack(ec bool, cacheKeys int, memOnly bool, tr *tracer) (*stack, error) {
	kcfg, mcfg, err := deploy.Params{F: 1, EC: ec, Keys: storeKeys, CacheFraction: float64(cacheKeys) / storeKeys}.Derive()
	if err != nil {
		return nil, err
	}
	s := &stack{nw: rdma.NewNetwork(nil), kcfg: kcfg}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("mem%d", i)
		node, err := memnode.New(name, mcfg.Layout())
		if err != nil {
			return nil, err
		}
		s.nw.AddNode(node)
		mcfg.MemoryNodes = append(mcfg.MemoryNodes, name)
	}
	mcfg.Dial = func(node string) (rdma.Verbs, error) {
		return dialTraced(s.nw, "bench", node, rdma.DialOpts{Exclusive: []rdma.RegionID{memnode.ReplRegionID}}, tr)
	}
	s.mcfg = mcfg
	if s.mem, err = repmem.New(mcfg); err != nil {
		return nil, err
	}
	if err := s.mem.Recover(); err != nil {
		s.mem.Close()
		return nil, err
	}
	if memOnly {
		return s, nil
	}
	if s.st, err = kv.New(s.mem, kcfg); err != nil {
		s.mem.Close()
		return nil, err
	}
	return s, nil
}

func (s *stack) close() {
	if s.st != nil {
		s.st.Close()
	}
	s.mem.Close()
}

// quiesce waits until every committed put has been applied, so that the next
// traced operation starts with the stack idle and every rdma span belongs to
// the operation in progress.
func (s *stack) quiesce() {
	for {
		st := s.st.Stats()
		if st.Applies >= st.Puts {
			return
		}
		runtime.Gosched()
	}
}

// timeEach runs f until the budget is spent, at least 10 times, and returns
// each call's duration in microseconds.
func timeEach(budget time.Duration, f func(i int) error) ([]float64, error) {
	var us []float64
	for end := time.Now().Add(budget); len(us) < 10 || time.Now().Before(end); {
		start := time.Now()
		if err := f(len(us)); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return us, nil
}

// covered is the length of the part of [lo, hi] the given intervals cover.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			sum += b - a
			lo = b
		}
	}
	return sum
}

const tracedKeys = 2048 // keys the traced store holds; its cache holds an eighth of them

// tracedRun measures the layers of the hand-built stack within about budget
// and returns the traced per-layer metrics. The stack uses the workload's
// erasure-coding setting, so that ec_put_sat's traced numbers explain
// ec_put_sat.
func tracedRun(w workload, seed int64, budget time.Duration) (map[string]metric, error) {
	ms := map[string]metric{}
	rng := rand.New(rand.NewSource(seed))
	keys := makeKeys(tracedKeys, seed)
	val := make([]byte, valueSize)
	rng.Read(val)

	// Spans around kv for one caller, the stack idle between operations.
	tr := newTracer()
	s, err := buildStack(w.ec, tracedKeys/8, false, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	for _, k := range keys {
		if err := s.st.Put(k, val); err != nil {
			return nil, fmt.Errorf("populate traced store: %w", err)
		}
	}
	s.quiesce()
	tr.on.Store(true)
	op := uint64(0)
	if _, err := timeEach(budget/6, func(int) error {
		op++
		sp := tr.root("kv.put", op)
		err := s.st.Put(keys[rng.Intn(len(keys))], val)
		tr.end(sp, len(val))
		s.quiesce() // the apply's rdma work is this put's too
		tr.release()
		return err
	}); err != nil {
		return nil, fmt.Errorf("traced put: %w", err)
	}
	if _, err := timeEach(budget/6, func(int) error {
		op++
		before := s.st.Stats().CacheHits
		sp := tr.root("kv.get", op)
		v, err := s.st.Get(keys[rng.Intn(len(keys))])
		tr.end(sp, len(v))
		tr.release()
		if s.st.Stats().CacheHits > before {
			tr.mu.Lock()
			tr.spans[sp].name = "kv.get_hit"
			tr.mu.Unlock()
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("traced get: %w", err)
	}

	// One heartbeat round: the coordinator's CAS on every node's admin word.
	el := election.New(election.Config{
		NodeID: 1, MemoryNodes: s.mcfg.MemoryNodes,
		AdminRegion: memnode.AdminRegionID, AdminOffset: memnode.AdminWordOffset,
		Dial: func(node string) (rdma.Verbs, error) {
			return dialTraced(s.nw, "bench-elector", node, rdma.DialOpts{}, tr)
		},
	})
	defer el.Close()
	beats, err := timeEach(budget/60, func(i int) error {
		op++
		sp := tr.root("election.heartbeat_round", op)
		err := el.Heartbeat(1, uint32(i+1))
		tr.end(sp, 0)
		tr.release()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("heartbeat round: %w", err)
	}
	ms["election.heartbeat_round_us"] = metric{median(beats), "us"}
	tr.on.Store(false)
	summariseSpans(tr, ms)

	// Tracing overhead: one caller's put throughput on the same stack with
	// and without the recording connection.
	putRate := func(tr *tracer) (float64, error) {
		s, err := buildStack(w.ec, tracedKeys/8, false, tr)
		if err != nil {
			return 0, err
		}
		defer s.close()
		if tr != nil {
			tr.on.Store(true)
		}
		lat, err := timeEach(budget/6, func(i int) error { return s.st.Put(keys[i%len(keys)], val) })
		if err != nil {
			return 0, err
		}
		sum := 0.0
		for _, l := range lat {
			sum += l
		}
		return float64(len(lat)) / sum * 1e6, nil
	}
	plain, err := putRate(nil)
	if err != nil {
		return nil, fmt.Errorf("untraced put rate: %w", err)
	}
	traced, err := putRate(newTracer())
	if err != nil {
		return nil, fmt.Errorf("traced put rate: %w", err)
	}
	ms["trace.overhead_frac"] = metric{(plain - traced) / plain, "frac"}

	if err := timeRepmem(w.ec, budget/12, val, ms); err != nil {
		return nil, err
	}
	if err := timeWAL(val, ms); err != nil {
		return nil, err
	}
	if err := timeErasure(budget/60, ms); err != nil {
		return nil, err
	}
	if err := timeTCP(budget/30, val, ms); err != nil {
		return nil, err
	}

	// The paper's memory saving, exact: bytes of replicated region per node.
	for name, ec := range map[string]bool{"memnode.repl_bytes_per_node_plain": false, "memnode.repl_bytes_per_node_ec": true} {
		l, err := deploy.Params{F: 1, EC: ec, Keys: storeKeys}.Layout()
		if err != nil {
			return nil, err
		}
		ms[name] = metric{float64(l.ReplSize()), "B"}
	}

	// What a 2 ms netsim.Sleep really takes here: the timer quantum that
	// delay_put's injected delay rides on.
	sleeps, _ := timeEach(budget/30, func(int) error { netsim.Sleep(2 * time.Millisecond); return nil })
	ms["netsim.sleep_2ms_actual_us"] = metric{median(sleeps), "us"}
	return ms, nil
}

// summariseSpans turns the recorded spans into metrics.
func summariseSpans(tr *tracer, ms map[string]metric) {
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()

	dur := map[string][]float64{}
	children := map[int32][][2]int64{}
	var putOps, putBytes float64
	for _, sp := range spans {
		dur[sp.name] = append(dur[sp.name], float64(sp.end-sp.start)/1e3)
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], [2]int64{sp.start, sp.end})
			if spans[sp.parent].name == "kv.put" {
				putOps++
				putBytes += float64(sp.bytes)
			}
		}
	}
	var self []float64
	for i, sp := range spans {
		if sp.name == "kv.put" {
			self = append(self, float64(sp.end-sp.start-covered(sp.start, sp.end, children[int32(i)]))/1e3)
		}
	}
	puts := float64(len(dur["kv.put"]))
	med := func(name string) float64 {
		if len(dur[name]) == 0 {
			return 0
		}
		return median(dur[name])
	}
	ms["kv.put_us"] = metric{med("kv.put"), "us"}
	ms["kv.put_self_us"] = metric{median(self), "us"}
	ms["kv.get_hit_us"] = metric{med("kv.get_hit"), "us"}
	ms["kv.get_miss_us"] = metric{med("kv.get"), "us"}
	ms["rdma.ops_per_put"] = metric{ratio(putOps, puts), "count"}
	ms["rdma.bytes_per_put"] = metric{ratio(putBytes, puts), "B"}
	ms["rdma.inproc_write_us"] = metric{med("rdma.write"), "us"}
	ms["rdma.inproc_read_us"] = metric{med("rdma.read"), "us"}
	ms["rdma.inproc_cas_us"] = metric{med("rdma.cas"), "us"}
}

// timeRepmem times the four replicated-memory operations directly, on a
// replicated memory with no store on top, one block at a time.
func timeRepmem(ec bool, budget time.Duration, val []byte, ms map[string]metric) error {
	s, err := buildStack(ec, 0, true, nil)
	if err != nil {
		return err
	}
	defer s.close()
	block := make([]byte, s.kcfg.BlockStride(max(1, s.mcfg.ECBlockSize)))
	copy(block, val)
	blocks := uint64(s.mem.MemSize() / len(block))
	addr := func(i int) uint64 { return uint64(i) % blocks * uint64(len(block)) }
	buf := make([]byte, len(block))
	for _, c := range []struct {
		name string
		f    func(i int) error
	}{
		{"repmem.write_us", func(i int) error { return s.mem.Write(addr(i), val) }},
		{"repmem.unlogged_write_us", func(i int) error { return s.mem.UnloggedWrite(addr(i), block) }},
		{"repmem.read_us", func(i int) error { return s.mem.Read(addr(i), buf) }},
		{"repmem.direct_write_us", func(i int) error {
			return s.mem.DirectWrite(uint64(i)%uint64(s.mem.DirectSize()/len(val))*uint64(len(val)), val)
		}},
	} {
		us, err := timeEach(budget, c.f)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		ms[c.name] = metric{median(us), "us"}
	}
	return nil
}

// timeWAL times encoding and decoding one log entry carrying one value.
func timeWAL(val []byte, ms map[string]metric) error {
	const rounds = 2000
	e := wal.Entry{Index: 1, Writes: []wal.Write{{Addr: 4096, Data: val}}}
	slot := make([]byte, 4096)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := e.Encode(slot); err != nil {
			return fmt.Errorf("wal encode: %w", err)
		}
	}
	ms["wal.encode_ns"] = metric{float64(time.Since(start).Nanoseconds()) / rounds, "ns"}
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := wal.Decode(slot); err != nil {
			return fmt.Errorf("wal decode: %w", err)
		}
	}
	ms["wal.decode_ns"] = metric{float64(time.Since(start).Nanoseconds()) / rounds, "ns"}
	return nil
}

// timeErasure measures the F = 1 code (2 data + 1 parity chunks) at the EC
// block size the cluster configuration derives and at 64 KiB.
func timeErasure(budget time.Duration, ms map[string]metric) error {
	code, err := erasure.New(2, 1)
	if err != nil {
		return err
	}
	_, ecCfg, err := deploy.Params{F: 1, EC: true, Keys: storeKeys}.Derive()
	if err != nil {
		return err
	}
	for suffix, size := range map[string]int{"": ecCfg.ECBlockSize, "_64k": 64 << 10} {
		block := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(block)
		chunks := [][]byte{nil, nil, make([]byte, size/2)}
		enc, err := timeEach(budget, func(int) error { return code.EncodeTo(block, chunks) })
		if err != nil {
			return fmt.Errorf("erasure encode: %w", err)
		}
		rec, err := timeEach(budget, func(int) error {
			chunks[0] = nil
			return code.Reconstruct(chunks)
		})
		if err != nil {
			return fmt.Errorf("erasure reconstruct: %w", err)
		}
		// bytes per microsecond is MB/s
		ms["erasure.encode"+suffix+"_mb_s"] = metric{float64(size) / median(enc), "MB/s"}
		ms["erasure.reconstruct"+suffix+"_mb_s"] = metric{float64(size) / median(rec), "MB/s"}
	}
	return nil
}

// timeTCP measures the TCP transport over one loopback connection. No
// end-to-end workload crosses TCP; the numbers are here so that nobody
// expects one to move when this transport changes.
func timeTCP(budget time.Duration, val []byte, ms map[string]metric) error {
	layout, err := deploy.Params{F: 1, Keys: 64}.Layout()
	if err != nil {
		return err
	}
	node, err := memnode.New("tcp", layout)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- rdma.Serve(l, node) }()
	defer func() {
		l.Close()
		<-served
	}()
	v, err := rdma.DialTCP(l.Addr().String(), rdma.DialOpts{OpDeadline: time.Second})
	if err != nil {
		return err
	}
	defer v.Close()
	us, err := timeEach(budget, func(int) error { return v.Write(memnode.ReplRegionID, 0, val) })
	if err != nil {
		return fmt.Errorf("tcp write: %w", err)
	}
	ms["rdma.tcp_write_us"] = metric{median(us), "us"}

	// Bursts of 32 pipelined writes show how many operations share a flush.
	sub := v.(rdma.Submitter)
	before := v.(rdma.PipelineStatser).PipelineStats()
	if _, err := timeEach(budget, func(int) error {
		const burst = 32
		errs := make(chan error, burst)
		for i := 0; i < burst; i++ {
			sub.Submit(&rdma.Op{Kind: rdma.OpWrite, Region: memnode.ReplRegionID, Offset: uint64(i) * valueSize, Data: val,
				Done: func(o *rdma.Op) { errs <- o.Err }})
		}
		var first error
		for i := 0; i < burst; i++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}); err != nil {
		return fmt.Errorf("tcp pipelined write: %w", err)
	}
	after := v.(rdma.PipelineStatser).PipelineStats()
	ms["rdma.tcp_ops_per_flush"] = metric{ratio(float64(after.Submitted-before.Submitted), float64(after.Flushes-before.Flushes)), "count"}
	return nil
}
