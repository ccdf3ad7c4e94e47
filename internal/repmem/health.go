package repmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/metrics"
	"github.com/repro/sift/internal/rdma"
)

// Node health. Each memory node has one record — its member's state word,
// signals and redial circuit (group.go) — and one table moves it between
// states: step folds an event into the record and names the state to move
// to, transition performs what the move implies. Nothing else writes a
// node's state once the memory serves.
const (
	nodeLive     int32 = iota // serving reads, waited on by writes
	nodeDead                  // excluded from everything until a rebuild's gated cutover
	nodeSuspect               // gray: written best-effort, waited on and read by nothing
	nodeDegraded              // slow but answering: served around like a suspect, not repaired while slow
)

// Health thresholds; the straggler floor (Config.StragglerMinLatency) is the
// only health value a deployment sets.
const (
	suspectAfterTimeouts = 2  // consecutive deadline expiries: live → suspect
	deadAfterTimeouts    = 16 // consecutive deadline expiries: any → dead
	suspectAfterCorrupt  = 8  // corrupt blocks since the last rebuild: live → suspect
	suspectProbeLimit    = 4  // consecutive failed probes: suspect/degraded → dead
	// degradeExitProbes consecutive probes under the floor send a degraded
	// node to rebuild. The hysteresis keeps a replica across a WAN link from
	// oscillating through suspect→repair→re-suspect.
	degradeExitProbes = 3
	// The straggler check degrades a live node whose write-latency EWMA, over
	// at least stragglerMinSamples observations, exceeds both the floor and
	// stragglerFactor × the fastest live node's.
	stragglerFactor     = 16
	stragglerMinSamples = 8
	// Bounds of the jittered exponential backoff between redials.
	redialBackoffMin = 10 * time.Millisecond
	redialBackoffMax = 2 * time.Second
)

// eventKind names what happened to a node.
type eventKind uint8

const (
	evOpOK           eventKind = iota // an operation completed (lat)
	evOpDeadline                      // an operation's deadline expired
	evOpError                         // an operation failed in the transport
	evFencedByReboot                  // the node rebooted under our connection
	evProbeOK                         // a probe answered (lat)
	evProbeFailed                     // a probe failed (cause: the op event its error maps to)
	evCorrupt                         // n corrupt blocks were found
	evStraggler                       // the straggler check singled the node out
	evRebuildDone                     // a catch-up's gated cutover finished the node
	numEventKinds
)

// healthEvent is one input to the table. detail is appended to the logged
// reason of the move it causes (a rebuild's gate cost).
type healthEvent struct {
	kind, cause eventKind
	lat         time.Duration
	n           uint64
	detail      string
}

// nodeHealth is one node's signals and redial circuit.
type nodeHealth struct {
	ewma       metrics.EWMA  // write latency, µs
	timeouts   atomic.Int32  // consecutive deadline expiries
	strikes    atomic.Int32  // consecutive failed probes while suspect or degraded
	fastProbes atomic.Int32  // consecutive probes under the floor while degraded
	corrupt    atomic.Uint64 // corrupt blocks since the last rebuild

	// dialMu makes dials single-flight: the loser of two racing dials would
	// fence the winner's fresh connection when it acquires the region.
	dialMu       sync.Mutex
	dialFailures atomic.Int32 // consecutive failed dials
	nextDial     atomic.Int64 // UnixNano the circuit is open until; 0 = closed
	rng          *rand.Rand   // backoff jitter, under dialMu
}

// step is the transition table. It folds ev into the record and returns the
// state a node in `from` moves to and the reason logged for it; a row that
// leaves the state alone returns from and no reason. A degraded node's probe
// is fast under floor. step reads no clock and touches only the record.
func (h *nodeHealth) step(from int32, ev healthEvent, floor time.Duration) (to int32, reason string) {
	to = from
	switch ev.kind {
	case evOpOK:
		h.opOK(ev.lat)
	case evOpDeadline:
		switch n := h.timeouts.Add(1); {
		case n >= deadAfterTimeouts:
			to, reason = nodeDead, "timeouts"
		case n >= suspectAfterTimeouts && from == nodeLive:
			to, reason = nodeSuspect, "timeouts"
		}
	case evOpError:
		to, reason = nodeDead, "error"
	case evFencedByReboot:
		to, reason = nodeDead, "reboot"
	case evProbeOK:
		h.strikes.Store(0)
		switch from {
		case nodeSuspect:
			// It answers, but may have missed best-effort writes while gray:
			// only a full rebuild readmits it.
			to, reason = nodeDead, "repair"
		case nodeDegraded:
			h.ewma.Observe(float64(ev.lat.Microseconds()))
			if ev.lat >= floor {
				h.fastProbes.Store(0)
			} else if h.fastProbes.Add(1) >= degradeExitProbes {
				to, reason = nodeDead, "repair"
			}
		}
	case evProbeFailed:
		switch from {
		case nodeLive: // a probe of a serving node is one more op on it
			return h.step(from, healthEvent{kind: ev.cause}, floor)
		case nodeSuspect, nodeDegraded:
			h.fastProbes.Store(0)
			if h.strikes.Add(1) >= suspectProbeLimit {
				to, reason = nodeDead, "probes"
			}
		}
	case evCorrupt:
		if h.corrupt.Add(ev.n) >= suspectAfterCorrupt && from == nodeLive {
			to, reason = nodeSuspect, "corruption"
		}
	case evStraggler:
		if from == nodeLive {
			to, reason = nodeDegraded, "straggler"
		}
	case evRebuildDone:
		if from == nodeDead {
			to, reason = nodeLive, "rebuilt"
		}
	}
	// A machine entering service carries none of its past.
	if to == nodeLive && from != nodeLive {
		h.reset()
	}
	return to, reason
}

// opOK is the op-ok row, which never moves a node: the flight completion path
// calls it directly, so a completion costs one EWMA fold and one streak clear.
func (h *nodeHealth) opOK(lat time.Duration) {
	h.ewma.Observe(float64(lat.Microseconds()))
	h.timeouts.Store(0)
}

func (h *nodeHealth) reset() {
	h.ewma.Reset()
	h.timeouts.Store(0)
	h.strikes.Store(0)
	h.fastProbes.Store(0)
	h.corrupt.Store(0)
	h.closeCircuit()
}

// observe feeds an event about member mb through the table and applies the
// verdict, reporting whether the node moved.
func (m *Memory) observe(mb *member, ev healthEvent) bool {
	from := mb.state.Load()
	to, reason := mb.health.step(from, ev, m.cfg.StragglerMinLatency)
	if reason != "" && ev.detail != "" {
		reason += " " + ev.detail
	}
	return m.transition(mb, from, to, reason)
}

// transition moves member mb from `from` to `to` — to dead whatever the state
// has become meanwhile, elsewhere only if it is still `from` — and derives
// every side effect from the pair:
//
//   - leaving live stamps lastExclusion, which ack holds cover;
//   - entering dead, suspect or degraded, and dead → live, bump the Stats
//     counter and emit node.dead / .suspect / .degraded / .recovered;
//   - leaving live publishes membership off the caller's goroutine (it may
//     be a hot path), entering live publishes it before returning;
//   - a verdict of dead drops the connection: the next dial re-acquires the
//     region.
func (m *Memory) transition(mb *member, from, to int32, reason string) bool {
	if reason == "" {
		return false
	}
	if to == nodeDead {
		from = mb.state.Swap(nodeDead)
		if b := mb.conn.Swap(nil); b != nil {
			b.v.Close()
		}
	} else if from != to && !mb.state.CompareAndSwap(from, to) {
		return false
	}
	if from == to {
		return false
	}
	if from == nodeLive {
		m.lastExclusion.Store(time.Now().UnixNano())
	}
	switch {
	case to == nodeDead:
		m.stats.nodeFailures.Add(1)
		m.emit("node.dead", mb.name, reason)
	case to == nodeSuspect:
		m.stats.nodeSuspected.Add(1)
		m.emit("node.suspect", mb.name, reason)
	case to == nodeDegraded:
		m.stats.nodeDegraded.Add(1)
		m.emit("node.degraded", mb.name, reason)
	case to == nodeLive && from == nodeDead:
		m.stats.nodeRecovered.Add(1)
		m.emit("node.recovered", mb.name, reason)
	}
	switch {
	case to == nodeLive:
		m.publishMembership()
	case from == nodeLive:
		go m.publishMembership()
	}
	return true
}

// noteOpResult records a completed write against member mb.
func (m *Memory) noteOpResult(mb *member, c rdma.Verbs, lat time.Duration, err error) {
	if err == nil {
		mb.health.opOK(lat)
		return
	}
	m.noteConnError(mb, c, err)
}

// noteConnError feeds a failed operation on member mb's connection c (nil
// when none could be had) through the table.
func (m *Memory) noteConnError(mb *member, c rdma.Verbs, err error) {
	if kind, ok := m.classify(mb, c, err); ok {
		m.observe(mb, healthEvent{kind: kind})
	}
}

// nodeFailed declares member mb dead over a failed operation, whatever the
// error, unless a newer coordinator took over.
func (m *Memory) nodeFailed(mb *member, err error) {
	if errors.Is(err, rdma.ErrFenced) {
		m.fence("newer coordinator took over")
		return
	}
	m.observe(mb, healthEvent{kind: evOpError})
}

// noteCorruption records n corrupt blocks found on member mb.
func (m *Memory) noteCorruption(mb *member, n int) {
	if n <= 0 {
		return
	}
	m.stats.corruptions.Add(uint64(n))
	m.observe(mb, healthEvent{kind: evCorrupt, n: uint64(n)})
}

// classify maps a failed operation's error to the table's event. It reports
// false when the error is no evidence about the node: the member was retired
// by a Reconfigure (its connection was closed on purpose), a completion from
// a connection no longer the member's current one was accounted for when
// that connection was torn down (attributing it again would kill the fresh
// connection, or fence the memory over our own redial), and an ErrFenced
// from a newer coordinator's takeover fences this memory instead.
func (m *Memory) classify(mb *member, c rdma.Verbs, err error) (eventKind, bool) {
	if mb.retired.Load() {
		return 0, false
	}
	if c != nil {
		if b := mb.conn.Load(); b == nil || b.v != c {
			return 0, false
		}
	}
	switch {
	case errors.Is(err, rdma.ErrFenced):
		if c == nil || m.fencedByTakeover(c) {
			m.fence("newer coordinator took over")
			return 0, false
		}
		return evFencedByReboot, true
	case errors.Is(err, rdma.ErrDeadline):
		m.stats.nodeTimeouts.Add(1)
		return evOpDeadline, true
	}
	return evOpError, true
}

// fencedByTakeover distinguishes the two causes of an ErrFenced on a node's
// current connection. A newer coordinator acquiring the exclusive region
// leaves the node's populated marker set and, in cluster use, has stamped a
// higher election term into its heartbeat word; the node rebooting or being
// reset clears the marker when it bumps the epoch (memnode.Reset). The admin
// region is shared (epoch 0), so it stays readable on the fenced connection;
// when it cannot be read at all the answer is takeover, the conservative,
// self-fencing one.
func (m *Memory) fencedByTakeover(c rdma.Verbs) bool {
	var buf [8]byte
	if err := c.Read(memnode.AdminRegionID, memnode.AdminWordOffset, buf[:]); err == nil {
		if term := uint16(binary.LittleEndian.Uint64(buf[:]) >> 48); term > m.cfg.Term {
			return true
		}
	}
	populated, err := readPopulated(c)
	return err != nil || populated
}

// probe times a one-byte read of member mb and feeds the outcome through the
// table: how an idle group notices a failure, a suspect shows it answers
// again, and a degraded node shows it is fast again.
func (m *Memory) probe(mb *member) {
	c, err := m.conn(mb)
	start := time.Now()
	if err == nil {
		var b [1]byte
		err = c.Read(replRegion, 0, b[:])
	}
	if err == nil {
		m.observe(mb, healthEvent{kind: evProbeOK, lat: time.Since(start)})
	} else if cause, ok := m.classify(mb, c, err); ok {
		m.observe(mb, healthEvent{kind: evProbeFailed, cause: cause})
	}
}

// ErrCircuitOpen means a node's redial circuit breaker is open: a recent
// dial failed and the backoff window has not elapsed, so the attempt was
// refused without touching the network.
var ErrCircuitOpen = errors.New("repmem: redial circuit open")

// errRetired is what conn returns for a member a Reconfigure removed.
var errRetired = fmt.Errorf("%w: memory node retired by a reconfiguration", ErrClosed)

// conn returns member mb's connection, dialing through the member's redial
// circuit when it has been dropped; a node down at connect time joins later
// this way. Dialing re-acquires the replicated region, so a redial fences
// writes still buffered on the node's previous connection. A retired member
// is never dialed again.
func (m *Memory) conn(mb *member) (rdma.Verbs, error) {
	if b := mb.conn.Load(); b != nil {
		return b.v, nil
	}
	h := &mb.health
	h.dialMu.Lock()
	defer h.dialMu.Unlock()
	if b := mb.conn.Load(); b != nil {
		return b.v, nil
	}
	if mb.retired.Load() {
		return nil, errRetired
	}
	v, err := h.dial(mb.name, m.cfg.Dial, time.Now())
	switch {
	case err == nil:
		m.stats.redials.Add(1)
		mb.conn.Store(&connBox{v: v})
	case !errors.Is(err, ErrCircuitOpen):
		m.stats.redialErrors.Add(1)
	}
	return v, err
}

// retire removes member mb from service for good: no dial from here on, and
// its connection closed.
func (mb *member) retire() {
	mb.health.dialMu.Lock()
	mb.retired.Store(true)
	b := mb.conn.Swap(nil)
	mb.health.dialMu.Unlock()
	if b != nil {
		b.v.Close()
	}
}

// dial makes one attempt through the circuit at time now: refused while a
// backoff runs, otherwise one dial, whose failure opens the circuit for the
// next backoff from now and whose success closes it. The caller holds dialMu.
func (h *nodeHealth) dial(node string, dial Dialer, now time.Time) (rdma.Verbs, error) {
	if wait := h.circuitWait(now); wait > 0 {
		return nil, fmt.Errorf("%w: %s retries in %v (%d failures)",
			ErrCircuitOpen, node, wait.Round(time.Millisecond), h.dialFailures.Load())
	}
	v, err := dial(node)
	if err != nil {
		n := h.dialFailures.Add(1)
		h.nextDial.Store(now.Add(h.backoff(int(n))).UnixNano())
		return nil, err
	}
	h.closeCircuit()
	return v, nil
}

// circuitWait returns how long after now the circuit stays open (≤ 0: closed).
func (h *nodeHealth) circuitWait(now time.Time) time.Duration {
	if next := h.nextDial.Load(); next != 0 {
		return time.Unix(0, next).Sub(now)
	}
	return 0
}

// closeCircuit lets the next dial through. Deliberate recovery attempts call
// it first, being paced by the recovery tick already; hot paths keep failing
// fast through the breaker.
func (h *nodeHealth) closeCircuit() {
	h.dialFailures.Store(0)
	h.nextDial.Store(0)
}

// backoff returns the wait after the failures-th consecutive failed dial:
// redialBackoffMin·2^(failures-1) capped at redialBackoffMax, with ±50%
// jitter so coordinators do not redial a recovering node in lockstep. The
// caller holds dialMu.
func (h *nodeHealth) backoff(failures int) time.Duration {
	b := redialBackoffMin
	for n := 1; n < failures && b < redialBackoffMax; n++ {
		b *= 2
	}
	b = min(b, redialBackoffMax)
	return b/2 + time.Duration(h.rng.Int63n(int64(b)))
}

// NodeHealth is one memory node's gray-failure view, exported for the
// cluster health surface and the chaos tests.
type NodeHealth struct {
	Node           string
	State          string        // "live", "suspect", "degraded", or "dead" (also while being rebuilt)
	EWMALatencyUs  float64       // smoothed write latency in microseconds
	ConsecTimeouts int           // current consecutive deadline-expiry streak
	RedialFailures int           // consecutive failed reconnection attempts
	RedialBackoff  time.Duration // time until the next redial attempt; 0 when the circuit is closed
	Corruptions    uint64        // corrupt blocks detected on this node since its last rebuild
}

// Health snapshots every node's record.
func (m *Memory) Health() []NodeHealth {
	now := time.Now()
	g := m.grp.Load()
	out := make([]NodeHealth, len(g.members))
	for i, mb := range g.members {
		h := &mb.health
		out[i] = NodeHealth{
			Node:           mb.name,
			State:          stateName(mb.state.Load()),
			EWMALatencyUs:  h.ewma.Value(),
			ConsecTimeouts: int(h.timeouts.Load()),
			RedialFailures: int(h.dialFailures.Load()),
			RedialBackoff:  max(h.circuitWait(now), 0),
			Corruptions:    h.corrupt.Load(),
		}
	}
	return out
}

var stateNames = [...]string{nodeLive: "live", nodeDead: "dead", nodeSuspect: "suspect", nodeDegraded: "degraded"}

func stateName(s int32) string { return stateNames[s] }

// namesInState returns the names of the nodes in state s.
func (m *Memory) namesInState(s int32) []string {
	var out []string
	for _, mb := range m.grp.Load().members {
		if mb.state.Load() == s {
			out = append(out, mb.name)
		}
	}
	return out
}

// LiveMemoryNodes returns the names of nodes currently serving reads.
func (m *Memory) LiveMemoryNodes() []string { return m.namesInState(nodeLive) }

// DeadMemoryNodes returns the names of nodes currently considered failed.
func (m *Memory) DeadMemoryNodes() []string { return m.namesInState(nodeDead) }

// SuspectMemoryNodes returns the names of nodes currently suspected gray.
func (m *Memory) SuspectMemoryNodes() []string { return m.namesInState(nodeSuspect) }

// DegradedMemoryNodes returns the names of nodes held out as persistently
// slow until their probe latency recovers.
func (m *Memory) DegradedMemoryNodes() []string { return m.namesInState(nodeDegraded) }
