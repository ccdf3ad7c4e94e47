package sift

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/repro/sift/internal/core"
	"github.com/repro/sift/internal/faultrdma"
	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/linearize"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
)

// TestRetriableClassifiesTransportErrors is the regression test for the
// retriable() gap: raw and wrapped transport deadline/teardown errors must
// trigger a failover retry, not surface to the caller.
func TestRetriableClassifiesTransportErrors(t *testing.T) {
	for _, err := range []error{
		rdma.ErrDeadline,
		rdma.ErrClosed,
		fmt.Errorf("write log slot: %w", rdma.ErrDeadline),
		fmt.Errorf("read block: %w", rdma.ErrClosed),
		kv.ErrClosed,
		repmem.ErrFenced,
		repmem.ErrClosed,
		repmem.ErrNoQuorum,
	} {
		if !retriable(err) {
			t.Errorf("retriable(%v) = false, want true", err)
		}
	}
	for _, err := range []error{
		nil,
		kv.ErrNotFound,
		kv.ErrTooLarge,
		errors.New("some caller mistake"),
	} {
		if retriable(err) {
			t.Errorf("retriable(%v) = true, want false", err)
		}
	}
}

// TestClientRetriesDeadlineFromHungNode drives Client.do with a genuine
// rdma.ErrDeadline produced by a fault-injected hung connection (not a
// hand-crafted error). Pre-fix, do() surfaced the raw deadline error to the
// caller instead of retrying within the budget.
func TestClientRetriesDeadlineFromHungNode(t *testing.T) {
	// A one-node side fabric whose only purpose is to mint a real deadline
	// error from a hang.
	net := rdma.NewNetwork(nil)
	node := rdma.NewNode("m0")
	node.Alloc(1, 4096, false)
	net.AddNode(node)
	ctrl := faultrdma.NewController(1, 20*time.Millisecond)
	dial := ctrl.WrapDialer(func(name string) (rdma.Verbs, error) {
		return net.Dial("c0", name, rdma.DialOpts{})
	})
	v, err := dial("m0")
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	ctrl.Node("m0").Hang()
	defer ctrl.Node("m0").Resume()

	cl := newTestCluster(t, smallConfig())
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := cl.Client()
	c.RetryBudget = 5 * time.Second

	attempts := 0
	err = c.doUntil(time.Now().Add(c.budget()), func(st *kv.Store) error {
		attempts++
		if attempts == 1 {
			werr := v.Write(1, 0, []byte{1})
			if !errors.Is(werr, rdma.ErrDeadline) {
				t.Fatalf("hung write produced %v, want rdma.ErrDeadline", werr)
			}
			return werr
		}
		return nil
	})
	if err != nil {
		t.Fatalf("doUntil() surfaced %v instead of retrying a transport deadline", err)
	}
	if attempts < 2 {
		t.Fatalf("attempts = %d, want a retry after the deadline error", attempts)
	}
}

// TestClientBackoffJitter is the regression test for lockstep retries: the
// sleep must be spread over [b/2, 3b/2) and clamped to the remaining budget
// so the final retry lands inside RetryBudget.
func TestClientBackoffJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const b = 8 * time.Millisecond
	seen := make(map[time.Duration]bool)
	for i := 0; i < 1000; i++ {
		d := jitteredBackoff(b, time.Hour, rng)
		if d < b/2 || d >= 3*b/2 {
			t.Fatalf("jitteredBackoff = %v, outside [%v, %v)", d, b/2, 3*b/2)
		}
		seen[d] = true
	}
	if len(seen) < 100 {
		t.Fatalf("only %d distinct sleeps in 1000 draws — backoff is not jittered", len(seen))
	}
	if d := jitteredBackoff(16*time.Millisecond, time.Millisecond, rng); d != time.Millisecond {
		t.Fatalf("jitteredBackoff did not clamp to remaining budget: %v", d)
	}
}

// TestClientWakesOnPromotion: a client whose attempt failed waits for a
// promotion, not for its backoff step to run out. The step here is an hour
// (from half of it, with the jitter) and the deadline a day; the role change
// is injected through the hook every CPU node of the cluster is started with,
// once the client has taken its retry.
func TestClientWakesOnPromotion(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	c := cl.Client()
	retries := cl.cm.retries.Value()
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- c.retry(time.Now().Add(24*time.Hour), time.Hour, func(*kv.Store) error {
			if attempts++; attempts == 1 {
				return kv.ErrClosed // what an operation racing a demotion gets
			}
			return nil
		})
	}()
	for limit := time.Now().Add(10 * time.Second); cl.cm.retries.Value() == retries; runtime.Gosched() {
		if time.Now().After(limit) {
			t.Fatal("the failed attempt was never followed by a retry step")
		}
	}
	cl.nodeConfig(9).OnRoleChange(core.Coordinator)
	select {
	case err := <-done:
		if err != nil || attempts != 2 {
			t.Fatalf("after the promotion: err=%v after %d attempts, want success on the second", err, attempts)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the client slept through a promotion")
	}
}

// TestAmbiguousAfterSends: an op that reached a coordinator at least once
// and then exhausted its budget must report ErrAmbiguous (it may have
// committed), still matching ErrNoCoordinator for existing callers.
func TestAmbiguousAfterSends(t *testing.T) {
	cfg := smallConfig()
	cfg.FaultInjection = true
	cfg.OpDeadline = 40 * time.Millisecond
	cl := newTestCluster(t, cfg)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := cl.Client()
	if err := c.Put([]byte("warm"), []byte("up")); err != nil {
		t.Fatal(err)
	}

	for _, name := range cl.MemoryNodes() {
		cl.Faults().Node(name).Hang()
	}
	t.Cleanup(func() {
		for _, name := range cl.MemoryNodes() {
			cl.Faults().Node(name).Resume()
		}
	})

	c.RetryBudget = 400 * time.Millisecond
	err := c.Put([]byte("k"), []byte("v"))
	if !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("got %v, want ErrAmbiguous after at least one send", err)
	}
	if !errors.Is(err, ErrNoCoordinator) {
		t.Fatalf("ErrAmbiguous must wrap ErrNoCoordinator; got %v", err)
	}
}

// TestNoCoordinatorWithoutSends: with every CPU node down before the op
// starts, the failure is definite — plain ErrNoCoordinator, not ambiguous.
func TestNoCoordinatorWithoutSends(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cl.KillCPUNode(1)
	cl.KillCPUNode(2)

	c := cl.Client()
	c.RetryBudget = 200 * time.Millisecond
	err := c.Put([]byte("k"), []byte("v"))
	if !errors.Is(err, ErrNoCoordinator) {
		t.Fatalf("got %v, want ErrNoCoordinator", err)
	}
	if errors.Is(err, ErrAmbiguous) {
		t.Fatalf("op that never reached a coordinator reported ambiguous: %v", err)
	}
}

// TestClientRecordsHistory checks the instrumentation hooks end to end: a
// live client with a History recorder produces a linearizable history with
// the expected op kinds and outcomes.
func TestClientRecordsHistory(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := cl.Client()
	c.ClientID = 7
	c.History = linearize.NewRecorder()

	if err := c.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get([]byte("k")); err != nil || string(v) != "v1" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if _, err := c.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing = %v", err)
	}
	if err := c.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutBatch([]Pair{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("k"), Value: nil}, // delete via batch
	}); err != nil {
		t.Fatal(err)
	}

	hist := c.History.History()
	if len(hist) != 6 {
		t.Fatalf("recorded %d ops, want 6: %+v", len(hist), hist)
	}
	for _, o := range hist {
		if o.ClientID != 7 {
			t.Fatalf("op missing client id: %+v", o)
		}
		if o.Ambiguous() {
			t.Fatalf("healthy-cluster op recorded as ambiguous: %+v", o)
		}
	}
	if rep := linearize.Check(hist, linearize.DefaultTimeout); rep.Result != linearize.Ok {
		t.Fatalf("recorded history: %v on key %q", rep.Result, rep.Key)
	}
}
