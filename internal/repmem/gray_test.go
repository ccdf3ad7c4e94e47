package repmem

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/repro/sift/internal/rdma"
)

func TestQuorumGroupReportsRealAckCount(t *testing.T) {
	injected := errors.New("boom")
	g := newQuorumGroup(3, 3, nil)
	g.ack(nil)
	g.ack(injected)
	g.ack(injected)
	err := g.wait()
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("got %v, want ErrNoQuorum", err)
	}
	if !strings.Contains(err.Error(), "1 of 3 acks") {
		t.Fatalf("error %q should report the real ack count (1 of 3)", err)
	}
}

func TestQuorumGroupBornDecidedStillCountsLateAcks(t *testing.T) {
	g := newQuorumGroup(1, 2, nil)
	g.ack(nil)
	err := g.wait()
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("got %v, want ErrNoQuorum", err)
	}
	if !strings.Contains(err.Error(), "1 of 1 acks") {
		t.Fatalf("error %q should reflect the ack that did arrive", err)
	}
}

func TestRedialerBackoffBounds(t *testing.T) {
	h := &nodeHealth{rng: rand.New(rand.NewSource(7))}
	for failures := 1; failures <= 12; failures++ {
		base := min(redialBackoffMin<<(failures-1), redialBackoffMax)
		for i := 0; i < 50; i++ {
			b := h.backoff(failures)
			if b < base/2 || b >= base+base/2 {
				t.Fatalf("failures=%d: backoff %v outside [%v, %v)", failures, b, base/2, base+base/2)
			}
		}
	}
}

func TestRedialerCircuitOpensAfterFailure(t *testing.T) {
	dialErr := errors.New("refused")
	calls := 0
	dial := func(string) (rdma.Verbs, error) {
		calls++
		return nil, dialErr
	}
	h := &nodeHealth{rng: rand.New(rand.NewSource(1))}
	t0 := time.Unix(1000, 0)
	if _, err := h.dial("m0", dial, t0); !errors.Is(err, dialErr) {
		t.Fatalf("first dial: got %v, want dial error", err)
	}
	// The circuit is now open: the next attempt is refused without dialing.
	if _, err := h.dial("m0", dial, t0.Add(time.Millisecond)); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second dial: got %v, want ErrCircuitOpen", err)
	}
	if calls != 1 {
		t.Fatalf("dialer called %d times, want 1 (circuit should fail fast)", calls)
	}
}

func TestRedialerRecoversAfterBackoff(t *testing.T) {
	e := newEnv(t, 1, Config{MemSize: 1024, DirectSize: 0}.Layout())
	fail := true
	inner := e.dialer("c0")
	dial := func(node string) (rdma.Verbs, error) {
		if fail {
			return nil, errors.New("down")
		}
		return inner(node)
	}
	h := &nodeHealth{rng: rand.New(rand.NewSource(1))}
	t0 := time.Unix(1000, 0)
	if _, err := h.dial(e.names[0], dial, t0); err == nil {
		t.Fatal("dial to down node should fail")
	}
	fail = false
	// After one failure the backoff lies in [min/2, 3·min/2): still open
	// just before the shortest, through once the longest has passed.
	if _, err := h.dial(e.names[0], dial, t0.Add(redialBackoffMin/2-time.Microsecond)); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("dial inside the backoff: got %v, want ErrCircuitOpen", err)
	}
	later := t0.Add(redialBackoffMin * 3 / 2)
	v, err := h.dial(e.names[0], dial, later)
	if err != nil {
		t.Fatalf("redial after the backoff: %v", err)
	}
	v.Close()
	if f, wait := h.dialFailures.Load(), h.circuitWait(later); f != 0 || wait > 0 {
		t.Fatalf("circuit after success: failures=%d wait=%v, want closed", f, wait)
	}
}

// healthSignals is everything a node's record holds but its rng, comparable.
type healthSignals struct {
	ewmaN                         uint64
	ewmaV                         float64
	timeouts, strikes, fastProbes int32
	corrupt                       uint64
	dialFailures                  int32
	nextDial                      int64
}

func signalsOf(h *nodeHealth) healthSignals {
	return healthSignals{
		ewmaN: h.ewma.Count(), ewmaV: h.ewma.Value(),
		timeouts: h.timeouts.Load(), strikes: h.strikes.Load(), fastProbes: h.fastProbes.Load(),
		corrupt: h.corrupt.Load(), dialFailures: h.dialFailures.Load(), nextDial: h.nextDial.Load(),
	}
}

// TestHealthTransitionTable drives the step function through every (state ×
// event) pair, each from three records — fresh, one short of every first
// threshold, and one short of death by timeouts — against the explicit table
// below. Each cell reads "fresh first last"; "-" means the state is left
// alone, otherwise the cell names the state moved to and the reason.
func TestHealthTransitionTable(t *testing.T) {
	const floor = 2 * time.Millisecond
	fast, slow := 100*time.Microsecond, 5*time.Millisecond
	states := []int32{nodeLive, nodeSuspect, nodeDegraded, nodeDead}
	events := []struct {
		name string
		ev   healthEvent
		want [4]string // live, suspect, degraded, dead
	}{
		{"op ok", healthEvent{kind: evOpOK, lat: fast},
			[4]string{"- - -", "- - -", "- - -", "- - -"}},
		{"op deadline", healthEvent{kind: evOpDeadline},
			[4]string{"- suspect/timeouts dead/timeouts", "- - dead/timeouts", "- - dead/timeouts", "- - dead/timeouts"}},
		{"op error", healthEvent{kind: evOpError},
			[4]string{"dead/error dead/error dead/error", "dead/error dead/error dead/error", "dead/error dead/error dead/error", "dead/error dead/error dead/error"}},
		{"fenced by reboot", healthEvent{kind: evFencedByReboot},
			[4]string{"dead/reboot dead/reboot dead/reboot", "dead/reboot dead/reboot dead/reboot", "dead/reboot dead/reboot dead/reboot", "dead/reboot dead/reboot dead/reboot"}},
		{"probe ok fast", healthEvent{kind: evProbeOK, lat: fast},
			[4]string{"- - -", "dead/repair dead/repair dead/repair", "- dead/repair dead/repair", "- - -"}},
		{"probe ok slow", healthEvent{kind: evProbeOK, lat: slow},
			[4]string{"- - -", "dead/repair dead/repair dead/repair", "- - -", "- - -"}},
		{"probe deadline", healthEvent{kind: evProbeFailed, cause: evOpDeadline},
			[4]string{"- suspect/timeouts dead/timeouts", "- dead/probes dead/probes", "- dead/probes dead/probes", "- - -"}},
		{"probe error", healthEvent{kind: evProbeFailed, cause: evOpError},
			[4]string{"dead/error dead/error dead/error", "- dead/probes dead/probes", "- dead/probes dead/probes", "- - -"}},
		{"corruption", healthEvent{kind: evCorrupt, n: 1},
			[4]string{"- suspect/corruption suspect/corruption", "- - -", "- - -", "- - -"}},
		{"straggler", healthEvent{kind: evStraggler},
			[4]string{"degraded/straggler degraded/straggler degraded/straggler", "- - -", "- - -", "- - -"}},
		{"rebuild done", healthEvent{kind: evRebuildDone},
			[4]string{"- - -", "- - -", "- - -", "live/rebuilt live/rebuilt live/rebuilt"}},
	}
	covered := map[eventKind]bool{}
	record := func(which int) *nodeHealth {
		h := &nodeHealth{}
		if which > 0 {
			h.timeouts.Store(suspectAfterTimeouts - 1)
			if which == 2 {
				h.timeouts.Store(deadAfterTimeouts - 1)
			}
			h.strikes.Store(suspectProbeLimit - 1)
			h.fastProbes.Store(degradeExitProbes - 1)
			h.corrupt.Store(suspectAfterCorrupt - 1)
			h.ewma.Observe(500)
		}
		return h
	}
	for _, e := range events {
		covered[e.ev.kind] = true
		for si, from := range states {
			var got []string
			for which := 0; which < 3; which++ {
				h := record(which)
				to, reason := h.step(from, e.ev, floor)
				cell := "-"
				if reason != "" {
					cell = stateName(to) + "/" + reason
				} else if to != from {
					t.Fatalf("%s on %s: moved to %s with no reason", e.name, stateName(from), stateName(to))
				}
				if to == nodeLive && from != nodeLive && signalsOf(h) != (healthSignals{}) {
					t.Fatalf("%s on %s: record not reset: %+v", e.name, stateName(from), signalsOf(h))
				}
				got = append(got, cell)
			}
			if g := strings.Join(got, " "); g != e.want[si] {
				t.Errorf("%s on %s: got %q, want %q", e.name, stateName(from), g, e.want[si])
			}
		}
	}
	for k := eventKind(0); k < numEventKinds; k++ {
		if !covered[k] {
			t.Errorf("event kind %d has no row in the table", k)
		}
	}
}

// TestReplacedDegradedSlotStartsFresh: a slot replaced while degraded — with
// probe, timeout, corruption and latency history — comes back live with a
// record equal to a fresh node's.
func TestReplacedDegradedSlotStartsFresh(t *testing.T) {
	cfg0 := Config{MemSize: 32 << 10, DirectSize: 8 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	addMachine(t, e, "m3", cfg0.Layout())
	cfg := baseConfig(e, "cpu1")
	cfg.MemSize, cfg.DirectSize = cfg0.MemSize, cfg0.DirectSize
	cfg.Term = 1
	m := newMemory(t, cfg)

	h := &m.at(1).health
	m.setState(1, nodeDegraded)
	h.ewma.Observe(40_000)
	h.timeouts.Store(1)
	h.strikes.Store(2)
	h.fastProbes.Store(degradeExitProbes - 1)
	h.corrupt.Store(3)
	if err := replaceNode(m, "m1", "m3"); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if s := m.at(1).state.Load(); s != nodeLive {
		t.Fatalf("replaced slot is %s, want live", stateName(s))
	}
	if got := signalsOf(&m.at(1).health); got != (healthSignals{}) {
		t.Fatalf("replaced slot's record %+v, want a fresh node's", got)
	}
}

func TestWriteTargetsPartitionsSuspects(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))

	m.setState(1, nodeSuspect)
	wait, best := m.grp.Load().writeTargetsInto(m.Majority(), nil, nil)
	if len(wait) != 2 || len(best) != 1 || best[0] != 1 {
		t.Fatalf("wait=%v best=%v, want wait={0,2} best={1}", wait, best)
	}

	// Degraded mode: with two suspects a true majority is impossible from
	// the healthy subset alone, so suspects are promoted back into the wait
	// set — a quorum ack must never mean a majority of the healthy few.
	m.setState(2, nodeSuspect)
	wait, best = m.grp.Load().writeTargetsInto(m.Majority(), nil, nil)
	if len(wait) != 3 || len(best) != 0 {
		t.Fatalf("degraded: wait=%v best=%v, want all three waited on", wait, best)
	}
}

func TestNoteNodeErrorSuspicionThenDeath(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))
	deadlines := func(n int) {
		for k := 0; k < n; k++ {
			m.noteConnError(m.at(0), nil, rdma.ErrDeadline)
		}
	}

	deadlines(1)
	if s := m.at(0).state.Load(); s != nodeLive {
		t.Fatalf("after 1 timeout: state %s, want live", stateName(s))
	}
	deadlines(1)
	if s := m.at(0).state.Load(); s != nodeSuspect {
		t.Fatalf("after 2 timeouts: state %s, want suspect", stateName(s))
	}
	deadlines(13)
	if s := m.at(0).state.Load(); s != nodeSuspect {
		t.Fatalf("after 15 timeouts: state %s, want suspect", stateName(s))
	}
	deadlines(1)
	if s := m.at(0).state.Load(); s != nodeDead {
		t.Fatalf("after 16 timeouts: state %s, want dead", stateName(s))
	}
	st := m.Stats()
	if st.NodeTimeouts != 16 || st.NodeSuspected != 1 {
		t.Fatalf("stats timeouts=%d suspected=%d, want 16 and 1", st.NodeTimeouts, st.NodeSuspected)
	}

	// A success on another node clears its streak.
	m.noteConnError(m.at(1), nil, rdma.ErrDeadline)
	m.noteOpResult(m.at(1), nil, time.Millisecond, nil)
	if n := m.at(1).health.timeouts.Load(); n != 0 {
		t.Fatalf("streak after success = %d, want 0", n)
	}

	// Non-deadline errors kill immediately.
	m.noteConnError(m.at(2), nil, errors.New("connection reset"))
	if s := m.at(2).state.Load(); s != nodeDead {
		t.Fatalf("after transport error: state %s, want dead", stateName(s))
	}
}

// TestWriteCommitsWithSuspectNode is the repmem-level acceptance shape:
// with one node suspected gray, quorum writes commit without waiting on it,
// the suspect still receives data best-effort, and RecoverNodeNow repairs
// it back to live.
func TestWriteCommitsWithSuspectNode(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))

	m.setState(1, nodeSuspect)
	want := []byte("gray-failure payload")
	if err := m.Write(100, want); err != nil {
		t.Fatalf("write with suspect node: %v", err)
	}
	got := make([]byte, len(want))
	if err := m.Read(100, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %q err %v", got, err)
	}
	if names := m.SuspectMemoryNodes(); len(names) != 1 || names[0] != "m1" {
		t.Fatalf("SuspectMemoryNodes = %v, want [m1]", names)
	}
	h := m.Health()
	if len(h) != 3 || h[1].State != "suspect" {
		t.Fatalf("health = %+v, want m1 suspect", h)
	}

	if err := m.RecoverNodeNow("m1"); err != nil {
		t.Fatalf("recover suspect: %v", err)
	}
	if s := m.at(1).state.Load(); s != nodeLive {
		t.Fatalf("after recovery: state %d, want live", s)
	}
	if err := m.Read(100, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after recovery %q err %v", got, err)
	}
}

// TestDirectWriteCommitsWithSuspectNode covers the direct (unlogged) path.
func TestDirectWriteCommitsWithSuspectNode(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))

	m.setState(2, nodeSuspect)
	want := []byte("direct under gray")
	if err := m.DirectWrite(64, want); err != nil {
		t.Fatalf("direct write with suspect: %v", err)
	}
	got := make([]byte, len(want))
	if err := m.DirectRead(64, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("direct read back %q err %v", got, err)
	}
}

// TestStragglerCheckKeepsWriteQuorum: one pass that finds two of three live
// nodes above the straggler bar (a scheduling hiccup inflates EWMAs together)
// degrades only the slower one — degrading both would leave one live node,
// no write quorum, and every put waiting out its retry budget.
func TestStragglerCheckKeepsWriteQuorum(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	m := newMemory(t, baseConfig(e, "c"))
	for i, us := range []float64{50, 40_000, 90_000} { // bar: 16 × 50 µs, floor 2 ms
		m.at(i).health.ewma.Reset()
		for n := 0; n < stragglerMinSamples; n++ {
			m.at(i).health.ewma.Observe(us)
		}
	}
	m.checkStragglers(m.grp.Load())
	m.checkStragglers(m.grp.Load()) // a second pass finds nothing more it may exclude
	if got := m.DegradedMemoryNodes(); len(got) != 1 || got[0] != "m2" {
		t.Fatalf("degraded %v, want only the slowest node m2", got)
	}
	if got := len(m.LiveMemoryNodes()); got < m.Majority() {
		t.Fatalf("%d live nodes left, below the majority %d", got, m.Majority())
	}
	if err := m.DirectWrite(0, []byte("still writable")); err != nil {
		t.Fatalf("write after the straggler pass: %v", err)
	}
}
