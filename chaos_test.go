package sift

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/sift/internal/linearize"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/repmem"
	"github.com/repro/sift/internal/workload"
)

// dumpEventsOnFailure prints the cluster's control-plane event ring into
// the test log when the test fails, so a broken failover leaves its
// election/fencing/suspicion trace next to the assertion that caught it.
func dumpEventsOnFailure(t *testing.T, cl *Cluster) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		var b strings.Builder
		cl.Events().Dump(&b)
		t.Logf("control-plane events at failure:\n%s", b.String())
	})
}

// TestChaosCommittedWritesSurvive runs a write/read workload while
// repeatedly crashing coordinators and memory nodes (within the F budget),
// and verifies at the end that every acknowledged write is readable with
// its latest acknowledged value — the core safety property: a committed
// write is never lost, whatever the failure schedule.
func TestChaosCommittedWritesSurvive(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := smallConfig()
	cfg.Keys = 256
	cfg.NodeRecoveryInterval = 10 * time.Millisecond
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)

	const (
		workers = 4
		rounds  = 6
	)
	var (
		mu        sync.Mutex
		acked     = map[string]string{} // latest acknowledged value per key
		stop      = make(chan struct{})
		wg        sync.WaitGroup
		nextCPUID uint16 = 100
	)

	// Writers: every acknowledged Put is recorded under the lock *around*
	// the call so "latest acknowledged" is well defined.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cl.Client()
			c.RetryBudget = 20 * time.Second
			rng := rand.New(rand.NewSource(int64(w)))
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-k%d", w, rng.Intn(8))
				val := fmt.Sprintf("w%d-v%d", w, i)
				i++
				mu.Lock()
				err := c.Put([]byte(key), []byte(val))
				if err == nil {
					acked[key] = val
				}
				mu.Unlock()
				if err != nil && !errors.Is(err, ErrNoCoordinator) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Chaos schedule: alternate coordinator kills and memory node
	// kill/restart cycles, always within the F=1 budget.
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < rounds; round++ {
		time.Sleep(60 * time.Millisecond)
		switch round % 3 {
		case 0:
			if id := cl.KillCoordinator(); id != 0 {
				// Keep the CPU-node population at 2 for the next rounds.
				nextCPUID++
				cl.StartCPUNode(nextCPUID)
			}
		case 1:
			victim := cl.MemoryNodes()[rng.Intn(3)]
			cl.KillMemoryNode(victim)
			time.Sleep(40 * time.Millisecond)
			cl.RestartMemoryNode(victim)
		case 2:
			if err := cl.AwaitMemoryNodeRecovery(1, 10*time.Second); err != nil {
				t.Logf("recovery pending: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Let the dust settle: all memory nodes recovered, coordinator stable.
	if err := cl.WaitForCoordinator(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged write must be readable with its latest value.
	c := cl.Client()
	c.RetryBudget = 20 * time.Second
	mu.Lock()
	defer mu.Unlock()
	for key, want := range acked {
		got, err := c.Get([]byte(key))
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if string(got) != want {
			t.Fatalf("key %s: read %q, last acknowledged %q", key, got, want)
		}
	}
	t.Logf("chaos survived: %d keys verified after %d failure rounds", len(acked), rounds)
}

// TestChaosErasureCoded repeats a shorter chaos schedule against an
// erasure-coded group: chunk loss, reconstruction, and coordinator
// failover interacting.
func TestChaosErasureCoded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := smallConfig()
	cfg.Keys = 256
	cfg.ErasureCoding = true
	cfg.NodeRecoveryInterval = 10 * time.Millisecond
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	c := cl.Client()
	c.RetryBudget = 20 * time.Second

	acked := map[string]string{}
	put := func(k, v string) {
		if err := c.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		acked[k] = v
	}

	for i := 0; i < 40; i++ {
		put(fmt.Sprintf("k%d", i%16), fmt.Sprintf("v%d", i))
	}
	victim := cl.MemoryNodes()[0]
	cl.KillMemoryNode(victim)
	for i := 40; i < 80; i++ {
		put(fmt.Sprintf("k%d", i%16), fmt.Sprintf("v%d", i))
	}
	cl.KillCoordinator()
	for i := 80; i < 120; i++ {
		put(fmt.Sprintf("k%d", i%16), fmt.Sprintf("v%d", i))
	}
	cl.RestartMemoryNode(victim)
	if err := cl.AwaitMemoryNodeRecovery(1, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	// Another chunk owner dies; reads now lean on the rebuilt node.
	cl.KillMemoryNode(cl.MemoryNodes()[1])

	for k, want := range acked {
		got, err := c.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("key %s: read %q, want %q", k, got, want)
		}
	}
}

// grayConfig is smallConfig plus the fault-injection layer and aggressive
// gray-failure detection knobs shared by the gray chaos tests.
func grayConfig() Config {
	cfg := smallConfig()
	cfg.FaultInjection = true
	cfg.OpDeadline = 80 * time.Millisecond
	cfg.NodeRecoveryInterval = 25 * time.Millisecond
	return cfg
}

// healthState reports the coordinator's view of one memory node, or "" when
// no coordinator is serving.
func healthState(cl *Cluster, node string) string {
	for _, h := range cl.Health() {
		if h.Node == node {
			return h.State
		}
	}
	return ""
}

// TestChaosHungMemoryNode is the gray-failure acceptance test: one memory
// node stays connected but stops responding (the paper's fail-stop model
// never covers this — the connection is healthy, the host is not). Client
// Puts must keep committing, and once the coordinator has marked the node
// suspect each Put must complete within 2× the op deadline because quorum
// writes no longer wait on it. When the node resumes, the recovery manager
// repairs it and every acknowledged write is still readable.
func TestChaosHungMemoryNode(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := grayConfig()
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	c := cl.Client()
	c.RetryBudget = 20 * time.Second

	acked := map[string]string{}
	put := func(k, v string) {
		t.Helper()
		if err := c.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		acked[k] = v
	}

	for i := 0; i < 24; i++ {
		put(fmt.Sprintf("k%d", i%12), fmt.Sprintf("v%d", i))
	}
	baseline := runtime.NumGoroutine()

	victim := cl.MemoryNodes()[1]
	cl.Faults().Node(victim).Hang()

	// Drive writes until the coordinator stops trusting the victim. Puts
	// commit throughout (quorum = the two healthy nodes); the victim's ops
	// expire with rdma.ErrDeadline in the background and build the
	// consecutive-timeout streak.
	suspectBy := time.Now().Add(15 * time.Second)
	for healthState(cl, victim) == "live" {
		if time.Now().After(suspectBy) {
			t.Fatalf("victim never left live state; health=%+v", cl.Health())
		}
		put(fmt.Sprintf("hung-k%d", len(acked)%12), fmt.Sprintf("hv%d", len(acked)))
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("victim %s marked %q after deadline expiries", victim, healthState(cl, victim))

	// With the victim excluded from the wait set, writes must be bounded by
	// the healthy quorum, not the hung node: well under 2× the op deadline.
	bound := 2 * cfg.OpDeadline
	for i := 0; i < 20; i++ {
		start := time.Now()
		put(fmt.Sprintf("bounded-k%d", i), fmt.Sprintf("bv%d", i))
		if elapsed := time.Since(start); elapsed >= bound {
			t.Fatalf("put %d took %v with suspect node (bound %v)", i, elapsed, bound)
		}
	}
	if s := cl.Stats(); s.Memory.NodeTimeouts == 0 {
		t.Fatalf("expected deadline expiries in stats, got %+v", s.Memory)
	}

	// The node comes back: parked ops drain, the next probe succeeds, and
	// the recovery manager rebuilds it from a healthy replica.
	cl.Faults().Node(victim).Resume()
	if err := cl.AwaitMemoryNodeRecovery(1, 20*time.Second); err != nil {
		t.Fatalf("victim not repaired after resume: %v (health=%+v)", err, cl.Health())
	}

	// No goroutine leak: ops blocked on the hung node (heartbeat CAS,
	// parked writes, probe reads) must all have completed or been fenced.
	// Allow slack for transient recovery work and poll until stable.
	deadline := time.Now().Add(10 * time.Second)
	slack := 24
	for runtime.NumGoroutine() > baseline+slack {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across hang/resume: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}

	for k, want := range acked {
		got, err := c.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("key %s: read %q, want %q", k, got, want)
		}
	}
	t.Logf("hung-node chaos survived: %d keys verified, stats %+v", len(acked), cl.Stats().Memory)
}

// TestChaosSlowThenRecover covers the straggler flavour of gray failure: the
// node answers every operation, just slower than the op deadline. The
// coordinator must suspect it from deadline expiries alone (the connection
// never errors), keep committing on the healthy quorum, and repair it once
// its latency returns to normal.
func TestChaosSlowThenRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := grayConfig()
	cfg.OpDeadline = 40 * time.Millisecond
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	c := cl.Client()
	c.RetryBudget = 20 * time.Second

	acked := map[string]string{}
	put := func(k, v string) {
		t.Helper()
		if err := c.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		acked[k] = v
	}

	for i := 0; i < 16; i++ {
		put(fmt.Sprintf("k%d", i%8), fmt.Sprintf("v%d", i))
	}

	// Every op to the victim now takes 3× the deadline. The transport fails
	// the op at the deadline and executes it late; commits ride the quorum.
	victim := cl.MemoryNodes()[2]
	cl.Faults().Node(victim).SetDelay(3*cfg.OpDeadline, 0, 1.0)

	suspectBy := time.Now().Add(15 * time.Second)
	for healthState(cl, victim) == "live" {
		if time.Now().After(suspectBy) {
			t.Fatalf("slow victim never suspected; health=%+v", cl.Health())
		}
		put(fmt.Sprintf("slow-k%d", len(acked)%8), fmt.Sprintf("sv%d", len(acked)))
		time.Sleep(5 * time.Millisecond)
	}
	if s := cl.Stats(); s.Memory.NodeSuspected == 0 && s.Memory.NodeFailures == 0 {
		t.Fatalf("no suspicion or failure recorded for slow node: %+v", s.Memory)
	}

	// Latency recovers; the suspect probe sees a responsive node and routes
	// it through full recovery back to live.
	cl.Faults().Node(victim).SetDelay(0, 0, 0)
	if err := cl.AwaitMemoryNodeRecovery(1, 20*time.Second); err != nil {
		t.Fatalf("slow node not repaired after recovering: %v (health=%+v)", err, cl.Health())
	}

	for k, want := range acked {
		got, err := c.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("key %s: read %q, want %q", k, got, want)
		}
	}
}

// TestChaosNetworkFlap bounces one memory node's network repeatedly and
// checks the redial path: every flap fails in-flight ops, the circuit
// breaker paces reconnection attempts while the node is down, and each
// restart is healed by a redial plus background recovery. Committed data
// survives every cycle.
func TestChaosNetworkFlap(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := smallConfig()
	cfg.NodeRecoveryInterval = 10 * time.Millisecond
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	c := cl.Client()
	c.RetryBudget = 20 * time.Second

	acked := map[string]string{}
	put := func(k, v string) {
		t.Helper()
		if err := c.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		acked[k] = v
	}

	victim := cl.MemoryNodes()[0]
	seq := 0
	for flap := 0; flap < 3; flap++ {
		for i := 0; i < 8; i++ {
			put(fmt.Sprintf("k%d", seq%16), fmt.Sprintf("v%d", seq))
			seq++
		}
		cl.KillMemoryNode(victim)
		// Writes keep committing while the node is down; redial attempts
		// fail into the circuit breaker in the background.
		for i := 0; i < 8; i++ {
			put(fmt.Sprintf("k%d", seq%16), fmt.Sprintf("v%d", seq))
			seq++
			time.Sleep(5 * time.Millisecond)
		}
		cl.RestartMemoryNode(victim)
		if err := cl.AwaitMemoryNodeRecovery(uint64(flap+1), 20*time.Second); err != nil {
			t.Fatalf("flap %d: %v (health=%+v)", flap, err, cl.Health())
		}
	}

	s := cl.Stats().Memory
	if s.Redials == 0 {
		t.Fatalf("no successful redials recorded across flaps: %+v", s)
	}
	if s.RedialErrors == 0 {
		t.Fatalf("no failed redial attempts recorded while node was down: %+v", s)
	}
	for k, want := range acked {
		got, err := c.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("key %s: read %q, want %q", k, got, want)
		}
	}
	t.Logf("network flap survived: %d keys, redials=%d redialErrors=%d recovered=%d",
		len(acked), s.Redials, s.RedialErrors, s.NodeRecovered)
}

// --- Chaos linearizability suite ---------------------------------------
//
// The tests above assert liveness and data presence; the TestChaosLinearize*
// scenarios assert the client-visible ordering itself. A fleet of
// instrumented clients records every op (including ambiguous outcomes) into
// one shared history while faults fire, and internal/linearize then decides
// whether the cluster's responses admit any legal sequential execution —
// the paper's §5 safety claim, checked mechanically.

// runLinearizeClients starts n instrumented clients running a mixed
// unique-value workload over a small keyspace against cl, invokes disturb
// while they run, then stops them and verifies the recorded history
// linearizes at the default checker timeout.
func runLinearizeClients(t *testing.T, cl *Cluster, n int, disturb func()) {
	t.Helper()
	rec := linearize.NewRecorder()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := cl.Client()
			c.ClientID = id
			c.History = rec
			c.RetryBudget = 20 * time.Second
			gen := workload.NewGenerator(workload.Config{
				Mix: workload.Mixed, Keys: 8, ValueSize: 16,
				Seed: int64(1000 + id), UniqueValues: true,
				ClientID: id, DeleteRatio: 0.1,
			})
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := gen.Next()
				var err error
				switch {
				case op.Read:
					_, err = c.Get(op.Key)
				case op.Delete:
					err = c.Delete(op.Key)
				default:
					err = c.Put(op.Key, op.Value)
				}
				// ErrNoCoordinator also covers ErrAmbiguous (it wraps it);
				// both are legal under faults and modeled by the recorder.
				if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNoCoordinator) {
					t.Errorf("client %d: unexpected error %v", id, err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}

	disturb()
	close(stop)
	wg.Wait()

	hist := rec.History()
	open := 0
	for _, o := range hist {
		if o.Ambiguous() {
			open++
		}
	}
	rep := linearize.Check(hist, linearize.DefaultTimeout)
	if rep.Result != linearize.Ok {
		// Dump the offending partition in invocation order for debugging.
		var bad []linearize.Op
		for _, o := range hist {
			if o.Key == rep.Key {
				bad = append(bad, o)
			}
		}
		sort.Slice(bad, func(i, j int) bool { return bad[i].Invoke < bad[j].Invoke })
		for _, o := range bad {
			t.Logf("  c%-2d %-6s in=%q out=%q notFound=%v [%d, %d]",
				o.ClientID, o.Kind, o.In, o.Out, o.NotFound, o.Invoke, o.Return)
		}
		for _, o := range rep.Frontier {
			t.Logf("  frontier: c%-2d %-6s in=%q out=%q notFound=%v [%d, %d]",
				o.ClientID, o.Kind, o.In, o.Out, o.NotFound, o.Invoke, o.Return)
		}
		t.Fatalf("history of %d ops (%d open) over %d keys: %v on key %q",
			rep.Ops, open, rep.Keys, rep.Result, rep.Key)
	}
	t.Logf("linearized %d ops (%d open) over %d keys in %v", rep.Ops, open, rep.Keys, rep.Elapsed)
}

// TestChaosLinearizeHungNodeElection: a memory node hangs gray (connection
// up, host silent) and the coordinator is killed mid-traffic, forcing an
// election that must fence the old regime — any acknowledged write that the
// fencing loses would show up as a non-linearizable read.
func TestChaosLinearizeHungNodeElection(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := grayConfig()
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := cl.MemoryNodes()[1]
	runLinearizeClients(t, cl, 10, func() {
		time.Sleep(150 * time.Millisecond)
		cl.Faults().Node(victim).Hang()
		time.Sleep(250 * time.Millisecond)
		if _, err := cl.ForceFailover(50, 10*time.Second); err != nil {
			t.Error(err)
		}
		time.Sleep(250 * time.Millisecond)
		cl.Faults().Node(victim).Resume()
		time.Sleep(200 * time.Millisecond)
	})
}

// TestChaosLinearizeDropDelay: one memory node drops 20% of ops and delays
// another 30% past the op deadline — the quorum path must keep acks honest
// while per-node retries and suspicion churn underneath.
func TestChaosLinearizeDropDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := grayConfig()
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	lossy := cl.Faults().Node(cl.MemoryNodes()[2])
	runLinearizeClients(t, cl, 12, func() {
		time.Sleep(100 * time.Millisecond)
		lossy.SetDrop(0.2)
		lossy.SetDelay(2*cfg.OpDeadline, cfg.OpDeadline, 0.3)
		time.Sleep(900 * time.Millisecond)
		lossy.SetDrop(0)
		lossy.SetDelay(0, 0, 0)
		time.Sleep(150 * time.Millisecond)
	})
}

// TestChaosLinearizeNetworkFlap: a memory node's network flaps twice; the
// circuit-breaker redial plus background recovery must reintegrate it
// without resurrecting stale state into the read path.
func TestChaosLinearizeNetworkFlap(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := smallConfig()
	cfg.NodeRecoveryInterval = 10 * time.Millisecond
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := cl.MemoryNodes()[0]
	runLinearizeClients(t, cl, 8, func() {
		for flap := 0; flap < 2; flap++ {
			time.Sleep(150 * time.Millisecond)
			cl.KillMemoryNode(victim)
			time.Sleep(150 * time.Millisecond)
			cl.RestartMemoryNode(victim)
			if err := cl.AwaitMemoryNodeRecovery(uint64(flap+1), 20*time.Second); err != nil {
				t.Errorf("flap %d: %v (health=%+v)", flap, err, cl.Health())
				return
			}
		}
		time.Sleep(150 * time.Millisecond)
	})
}

// TestChaosCorruption is the data-integrity acceptance test: one memory node
// (a minority) silently corrupts 2% of its replicated-region traffic — read
// responses and stored write payloads both — while instrumented clients run.
// Clients must never observe a wrong byte (the verified read path treats a
// CRC-failing replica like a dead one and reconstructs), the recorded history
// must linearize, and once the fault clears the scrubber must heal the node
// back to byte-identity with its peers.
func TestChaosCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := grayConfig()
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := cl.MemoryNodes()[1]
	nf := cl.Faults().Node(victim)
	// Scope the fault to the replicated data region: the admin region carries
	// election words, and a flipped heartbeat is a different experiment.
	nf.SetCorruptRegions(memnode.ReplRegionID)

	runLinearizeClients(t, cl, 10, func() {
		time.Sleep(100 * time.Millisecond)
		nf.SetCorrupt(0.02)
		time.Sleep(1200 * time.Millisecond)
		nf.SetCorrupt(0)
		time.Sleep(200 * time.Millisecond)
	})
	if st := nf.Stats(); st.Corrupts == 0 {
		t.Fatal("fault layer never corrupted an op; the schedule tested nothing")
	} else {
		t.Logf("injected %d corruptions on %s", st.Corrupts, victim)
	}

	// The corruption-count state machine may have suspected the victim; wait
	// until the recovery manager has walked every node back to live.
	deadline := time.Now().Add(30 * time.Second)
	for {
		live := 0
		for _, h := range cl.Health() {
			if h.State == "live" {
				live++
			}
		}
		if live == len(cl.MemoryNodes()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never all returned to live: %+v", cl.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Scrub until a full sweep finds nothing and every node's replicated
	// region (direct zone + main memory + checksum strip; the WAL area is
	// pooled/reconciled, not scrubbed) is byte-identical.
	layout := cl.mcfg.Layout()
	identical := func() bool {
		var first []byte
		for _, name := range cl.MemoryNodes() {
			snap := cl.network.Node(name).Region(memnode.ReplRegionID).Snapshot()[layout.DirectBase():]
			if first == nil {
				first = snap
			} else if !bytes.Equal(first, snap) {
				return false
			}
		}
		return true
	}
	// Before that, plant one more silent flip in the victim's main memory
	// directly — modelled bit rot the transport never saw — so the healing
	// assertion below does not depend on which injected corruptions happened
	// to land in stored state versus read responses. It is planted once all
	// nodes are live, so no rebuild erases it unseen, and again if the
	// coordinator changes before the clean sweep: the counters asserted
	// below are the current coordinator's, and a successor's start at zero.
	const rounds = 3
	var s repmem.Stats
	for round := 1; ; round++ {
		if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		coord := cl.Stats().CoordinatorID
		if err := cl.network.Node(victim).Region(memnode.ReplRegionID).Corrupt(layout.MainBase()+137, 0x40); err != nil {
			t.Fatal(err)
		}
		for {
			rep, err := cl.ScrubNow()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Corrupt == 0 && rep.Unrepaired == 0 && identical() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cluster never healed to byte-identity; last report %+v", rep)
			}
			time.Sleep(20 * time.Millisecond)
		}
		st := cl.Stats()
		if st.CoordinatorID == coord {
			s = st.Memory
			break
		}
		if round == rounds {
			t.Fatalf("the coordinator changed during each of %d plant-and-scrub rounds (last %d -> %d)", rounds, coord, st.CoordinatorID)
		}
		t.Logf("coordinator changed %d -> %d before the clean sweep; planting again", coord, st.CoordinatorID)
	}
	if s.CorruptionsDetected == 0 || s.BlocksRepaired == 0 {
		t.Fatalf("corruptions=%d repaired=%d, want both > 0", s.CorruptionsDetected, s.BlocksRepaired)
	}
	t.Logf("healed: detected=%d repaired=%d scrubbed=%d passes=%d",
		s.CorruptionsDetected, s.BlocksRepaired, s.ScrubbedBlocks, s.ScrubPasses)
}
