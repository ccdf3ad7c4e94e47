// Package netsim provides network condition simulation for the in-process
// RDMA transport: latency models, jitter, partitions, and link failure
// injection. It lets protocol code run against microsecond-scale "links"
// without real NIC hardware while preserving ordering and loss semantics.
package netsim

import (
	"errors"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrUnreachable is returned for operations across a failed or partitioned link.
var ErrUnreachable = errors.New("netsim: destination unreachable")

// LatencyModel computes a one-way delay for a message of the given size.
type LatencyModel interface {
	// Delay returns the simulated latency for transferring size bytes.
	Delay(size int) time.Duration
}

// NoLatency is a LatencyModel with zero delay. It is the default for unit
// tests where protocol logic, not timing, is under test.
type NoLatency struct{}

// Delay implements LatencyModel.
func (NoLatency) Delay(int) time.Duration { return 0 }

// FixedLatency models a constant base delay plus a per-byte cost.
type FixedLatency struct {
	Base    time.Duration // per-operation latency (propagation + NIC)
	PerByte time.Duration // serialization cost per byte
}

// Delay implements LatencyModel.
func (f FixedLatency) Delay(size int) time.Duration {
	return f.Base + time.Duration(size)*f.PerByte
}

// RDMADefault approximates a 10GbE RNIC: ~2µs base one-way latency and
// ~1 ns/byte serialization.
func RDMADefault() LatencyModel {
	return FixedLatency{Base: 2 * time.Microsecond, PerByte: time.Nanosecond}
}

// TCPDefault approximates kernel TCP on the same fabric: ~25µs base latency.
func TCPDefault() LatencyModel {
	return FixedLatency{Base: 25 * time.Microsecond, PerByte: time.Nanosecond}
}

// JitterLatency wraps another model and adds uniformly distributed jitter in
// [0, Jitter). It is safe for concurrent use.
type JitterLatency struct {
	Inner  LatencyModel
	Jitter time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewJitterLatency creates a JitterLatency with a deterministic seed.
func NewJitterLatency(inner LatencyModel, jitter time.Duration, seed int64) *JitterLatency {
	return &JitterLatency{Inner: inner, Jitter: jitter, rng: rand.New(rand.NewSource(seed))}
}

// Delay implements LatencyModel.
func (j *JitterLatency) Delay(size int) time.Duration {
	d := j.Inner.Delay(size)
	if j.Jitter <= 0 {
		return d
	}
	j.mu.Lock()
	d += time.Duration(j.rng.Int63n(int64(j.Jitter)))
	j.mu.Unlock()
	return d
}

// Sleep blocks for d. Durations below about 100µs use a hybrid spin to get
// microsecond accuracy; longer waits use the runtime timer. Zero and negative
// durations return immediately.
func Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= 100*time.Microsecond {
		time.Sleep(d)
		return
	}
	// Hybrid: sleep is too coarse below ~100µs on most kernels; spin on the
	// monotonic clock instead. This burns CPU, which is acceptable for
	// benchmarks that deliberately model NIC-speed operations.
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// Fabric tracks per-node liveness and pairwise partitions. All transports in
// a simulated deployment share one Fabric so failure injection is globally
// consistent.
//
// The conditions live in one immutable snapshot: readers take it with one
// atomic load, and every mutator replaces it copy-on-write under mu, so a
// transfer never waits on failure injection and a calm fabric costs it no
// map lookup.
type Fabric struct {
	mu    sync.Mutex // serializes mutators
	state atomic.Pointer[fabricState]
}

// fabricState is one snapshot of the fabric's conditions. It is never
// modified once published.
type fabricState struct {
	down       map[string]bool
	partitions map[[2]string]bool
	latency    LatencyModel
	linkImp    map[[2]string]*Impairment // per-link impairment profiles
	nodeImp    map[string]*Impairment    // per-node: applies to every link touching the node

	calm    bool // nothing down, nothing partitioned, nothing impaired
	instant bool // latency is zero for every size
}

// NewFabric creates a Fabric using the given latency model for every link.
// A nil model means no latency.
func NewFabric(latency LatencyModel) *Fabric {
	f := &Fabric{}
	f.state.Store(&fabricState{
		down:       make(map[string]bool),
		partitions: make(map[[2]string]bool),
		linkImp:    make(map[[2]string]*Impairment),
		nodeImp:    make(map[string]*Impairment),
	})
	f.SetLatency(latency)
	return f
}

// update publishes a copy of the current snapshot with change applied.
func (f *Fabric) update(change func(s *fabricState)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.state.Load()
	s := &fabricState{
		down:       maps.Clone(old.down),
		partitions: maps.Clone(old.partitions),
		latency:    old.latency,
		linkImp:    maps.Clone(old.linkImp),
		nodeImp:    maps.Clone(old.nodeImp),
	}
	change(s)
	s.calm = len(s.down)+len(s.partitions)+len(s.linkImp)+len(s.nodeImp) == 0
	switch l := s.latency.(type) {
	case NoLatency:
		s.instant = true
	case FixedLatency:
		s.instant = l.Base == 0 && l.PerByte == 0
	}
	f.state.Store(s)
}

// SetLinkImpairment applies a stationary impairment profile to the a↔b link.
// A nil impairment clears it. Link-specific profiles win over node-level ones.
func (f *Fabric) SetLinkImpairment(a, b string, im *Impairment) {
	f.update(func(s *fabricState) {
		if im == nil {
			delete(s.linkImp, linkKey(a, b))
		} else {
			s.linkImp[linkKey(a, b)] = im
		}
	})
}

// SetNodeImpairment applies a stationary impairment profile to every link
// touching node — the "this replica lives across the WAN" switch. A nil
// impairment clears it.
func (f *Fabric) SetNodeImpairment(node string, im *Impairment) {
	f.update(func(s *fabricState) {
		if im == nil {
			delete(s.nodeImp, node)
		} else {
			s.nodeImp[node] = im
		}
	})
}

// impairment returns the profile governing the src→dst link, or nil.
func (s *fabricState) impairment(src, dst string) *Impairment {
	if s.calm {
		return nil
	}
	if im, ok := s.linkImp[linkKey(src, dst)]; ok {
		return im
	}
	if im, ok := s.nodeImp[src]; ok {
		return im
	}
	return s.nodeImp[dst]
}

// unreachable reports whether src or dst is down or the link is partitioned.
func (s *fabricState) unreachable(src, dst string) bool {
	return !s.calm && (s.down[src] || s.down[dst] || s.partitions[linkKey(src, dst)])
}

// SetLatency replaces the fabric-wide latency model.
func (f *Fabric) SetLatency(m LatencyModel) {
	if m == nil {
		m = NoLatency{}
	}
	f.update(func(s *fabricState) { s.latency = m })
}

// Kill marks a node as failed; all traffic to and from it fails.
func (f *Fabric) Kill(node string) {
	f.update(func(s *fabricState) { s.down[node] = true })
}

// Restart clears a node's failed state.
func (f *Fabric) Restart(node string) {
	f.update(func(s *fabricState) { delete(s.down, node) })
}

// Partition severs the bidirectional link between nodes a and b.
func (f *Fabric) Partition(a, b string) {
	f.update(func(s *fabricState) { s.partitions[linkKey(a, b)] = true })
}

// Heal restores the link between nodes a and b.
func (f *Fabric) Heal(a, b string) {
	f.update(func(s *fabricState) { delete(s.partitions, linkKey(a, b)) })
}

// HealAll clears every partition and failed node.
func (f *Fabric) HealAll() {
	f.update(func(s *fabricState) {
		clear(s.down)
		clear(s.partitions)
	})
}

// Down reports whether the node is currently failed.
func (f *Fabric) Down(node string) bool {
	return f.state.Load().down[node]
}

// Instant reports whether a Transfer from src to dst takes no modelled time:
// the latency model is zero for every size and no impairment applies to the
// link. It draws no delay, so a random latency model is not advanced. A down
// or partitioned endpoint does not matter here: Transfer then fails at once.
func (f *Fabric) Instant(src, dst string) bool {
	s := f.state.Load()
	if !s.instant {
		return false
	}
	im := s.impairment(src, dst)
	return im == nil || im.DatagramOnly
}

// Transfer simulates sending size bytes from src to dst: it checks
// reachability, then blocks for the modelled latency. It returns
// ErrUnreachable if either endpoint is down or the link is partitioned.
func (f *Fabric) Transfer(src, dst string, size int) error {
	s := f.state.Load()
	if s.unreachable(src, dst) {
		return ErrUnreachable
	}
	var d time.Duration
	if !s.instant {
		d = s.latency.Delay(size)
	}
	if im := s.impairment(src, dst); im != nil && !im.DatagramOnly {
		// Reliable in-order semantics: losses become retransmission stalls.
		d += im.transferDelay(size)
	}
	if d <= 0 {
		return nil // no flight for the message to be lost in
	}
	Sleep(d)
	// Re-check after the delay: a node that died mid-flight loses the message.
	if f.state.Load().unreachable(src, dst) {
		return ErrUnreachable
	}
	return nil
}

// SendDatagram computes the fate of one unreliable datagram from src to dst:
// the one-way delivery delay under the link's impairment profile and whether
// it survived loss. It never sleeps — callers (the wantransport FEC layer)
// schedule delivery themselves. ErrUnreachable reports a down endpoint or a
// partition; a merely lossy link returns delivered=false instead.
func (f *Fabric) SendDatagram(src, dst string, size int) (delay time.Duration, delivered bool, err error) {
	s := f.state.Load()
	if s.unreachable(src, dst) {
		return 0, false, ErrUnreachable
	}
	delay = s.latency.Delay(size)
	im := s.impairment(src, dst)
	if im == nil {
		return delay, true, nil
	}
	d, ok := im.Datagram(size)
	return delay + d, ok, nil
}

func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}
