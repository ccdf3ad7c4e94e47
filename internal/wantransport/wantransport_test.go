package wantransport

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/repro/sift/internal/erasure"
	"github.com/repro/sift/internal/netsim"
	"github.com/repro/sift/internal/rdma"
)

// TestFrameRoundTrip pushes flights through encode → lossy reorder → assemble
// and checks byte-exact reconstruction whenever ≥ k shards survive.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	code, err := erasure.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	asm := NewAssembler()
	for flight := uint64(0); flight < 200; flight++ {
		payload := make([]byte, 1+rng.Intn(4000))
		rng.Read(payload)
		shards, err := EncodeFlight(code, flight, payload)
		if err != nil {
			t.Fatal(err)
		}
		// Drop up to r shards, then shuffle: any-k progressive decode must
		// still reproduce the payload.
		drop := rng.Intn(3)
		kept := make([][]byte, 0, len(shards))
		for i, s := range shards {
			if i < drop {
				continue
			}
			kept = append(kept, s)
		}
		rng.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
		var got []byte
		var done, recovered bool
		for _, s := range kept {
			got, done, recovered, err = asm.Add(s)
			if err != nil {
				t.Fatalf("flight %d: %v", flight, err)
			}
			if done {
				break
			}
		}
		if !done {
			t.Fatalf("flight %d: not reassembled from %d shards", flight, len(kept))
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("flight %d: payload mismatch", flight)
		}
		if drop > 0 && !recovered {
			// Only guaranteed when a *data* shard was dropped; drop always
			// removes shard 0 first, which is a data shard.
			t.Fatalf("flight %d: dropped %d data shards but decode not flagged recovered", flight, drop)
		}
	}
	if asm.Pending() != 0 {
		t.Fatalf("assembler leaked %d incomplete flights", asm.Pending())
	}
}

// perfectLink delivers everything instantly.
type perfectLink struct{}

func (perfectLink) Send(int) (time.Duration, bool, error) { return time.Millisecond, true, nil }

// lossyLink drops datagrams with a fixed probability.
type lossyLink struct {
	loss *netsim.Bernoulli
}

func (l lossyLink) Send(int) (time.Duration, bool, error) {
	return time.Millisecond, !l.loss.Lose(), nil
}

// deadLink models a partitioned path.
type deadLink struct{}

func (deadLink) Send(int) (time.Duration, bool, error) { return 0, false, netsim.ErrUnreachable }

// TestAdaptiveRedundancy: the parity count must rise with the measured loss
// rate and fall back once the link cleans up.
func TestAdaptiveRedundancy(t *testing.T) {
	tr := New(Config{Data: 4, MinParity: 1, MaxParity: 4, RTT: 10 * time.Millisecond})
	if r := tr.parity(); r != 1 {
		t.Fatalf("clean-start parity %d, want MinParity 1", r)
	}
	bad := lossyLink{loss: netsim.NewBernoulli(0.3, 1)}
	for i := 0; i < 200; i++ {
		tr.flightTime(bad, 4096)
	}
	if est := tr.LossEstimate(); est < 0.15 {
		t.Fatalf("loss estimate %.3f after 30%% loss, want ≥ 0.15", est)
	}
	rHigh := tr.parity()
	if rHigh < 2 {
		t.Fatalf("parity %d under 30%% loss, want ≥ 2", rHigh)
	}
	clean := perfectLink{}
	for i := 0; i < 200; i++ {
		tr.flightTime(clean, 4096)
	}
	if r := tr.parity(); r >= rHigh {
		t.Fatalf("parity %d did not decay after link recovered (was %d)", r, rHigh)
	}
}

// TestFECMasksLoss: at moderate loss, flights should mostly complete without
// retransmission rounds — parity absorbs the losses — where the ARQ baseline
// pays a timeout for nearly every loss event.
func TestFECMasksLoss(t *testing.T) {
	mk := func(disable bool, seed int64) Stats {
		tr := New(Config{Data: 4, MinParity: 2, MaxParity: 4, RTT: 10 * time.Millisecond, DisableFEC: disable})
		link := lossyLink{loss: netsim.NewBernoulli(0.08, seed)}
		for i := 0; i < 400; i++ {
			if _, ok, err := tr.flightTime(link, 4000); err != nil || !ok {
				t.Fatalf("flight %d failed: ok=%v err=%v", i, ok, err)
			}
		}
		return tr.Snapshot()
	}
	fec := mk(false, 11)
	arq := mk(true, 11)
	if fec.FECRecovered == 0 {
		t.Fatal("no flights recovered via parity at 8% loss")
	}
	if fec.Retransmits*4 > arq.Retransmits {
		t.Fatalf("FEC retransmit rounds %d not ≪ ARQ's %d", fec.Retransmits, arq.Retransmits)
	}
}

// TestRetryBudgetGivesUp: a fully lossy (but reachable) link must exhaust the
// retry budget and surface ErrBudget, which is retriable as a deadline.
func TestRetryBudgetGivesUp(t *testing.T) {
	tr := New(Config{Data: 2, RTT: time.Millisecond, RetryBudget: 20 * time.Millisecond})
	link := lossyLink{loss: netsim.NewBernoulli(1.0, 1)}
	err := tr.Pipe(link).Transfer(1000)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget", err)
	}
	if !errors.Is(err, rdma.ErrDeadline) {
		t.Fatal("ErrBudget must wrap rdma.ErrDeadline so existing retry machinery applies")
	}
	if s := tr.Snapshot(); s.GaveUp != 1 {
		t.Fatalf("GaveUp=%d, want 1", s.GaveUp)
	}
}

// TestPipeDeadPath: an administratively dead link surfaces the fabric error.
func TestPipeDeadPath(t *testing.T) {
	tr := New(Config{})
	if err := tr.Pipe(deadLink{}).Transfer(100); !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("err=%v, want ErrUnreachable", err)
	}
}

// TestBatcherCoalesces: concurrent transfers within a window share flights.
func TestBatcherCoalesces(t *testing.T) {
	tr := New(Config{Data: 4, RTT: 20 * time.Millisecond})
	b := tr.Batcher(perfectLink{}, 5*time.Millisecond, 64<<10)
	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- b.Do(512) }()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	batches, members := b.BatchStats()
	if members != n {
		t.Fatalf("members=%d, want %d", members, n)
	}
	if batches >= n/2 {
		t.Fatalf("%d batches for %d transfers: no coalescing", batches, n)
	}
}

// TestBatcherCongestionShrinksBatches: a high loss estimate must lower the
// batch size cap.
func TestBatcherCongestionShrinksBatches(t *testing.T) {
	tr := New(Config{Data: 4, RTT: 20 * time.Millisecond})
	b := tr.Batcher(perfectLink{}, time.Millisecond, 16<<10)
	clean := b.effectiveMax()
	for i := 0; i < 100; i++ {
		tr.observeLoss(1, 4) // sustained 25% loss
	}
	congested := b.effectiveMax()
	if congested >= clean {
		t.Fatalf("batch cap %d under loss, want < clean cap %d", congested, clean)
	}
}

// TestWrapChargesLatency: ops through a wrapped connection must take at
// least the link's round-trip propagation time.
func TestWrapChargesLatency(t *testing.T) {
	net := rdma.NewNetwork(netsim.NewFabric(nil))
	node := rdma.NewNode("mem")
	node.Register(1, rdma.NewRegion(64, false))
	net.AddNode(node)
	inner, err := net.Dial("cpu", "mem", rdma.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	im := &netsim.Impairment{OneWay: 5 * time.Millisecond}
	im.Seed(1)
	tr := New(Config{Data: 4, RTT: 10 * time.Millisecond})
	v := tr.Wrap(inner, ImpairedLink{Imp: im})
	defer v.Close()

	start := time.Now()
	if err := v.Write(1, 0, []byte("hello wan")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("write took %v, want ≥ one RTT (10ms)", d)
	}
	buf := make([]byte, 9)
	if err := v.Read(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello wan" {
		t.Fatalf("read back %q", buf)
	}
}

// TestWrapBudgetDeadline: when the link is hopeless, the submitter gets
// rdma.ErrDeadline after the budget — and the op still executes late, so the
// remote state matches a real lossy network's eventual delivery.
func TestWrapBudgetDeadline(t *testing.T) {
	net := rdma.NewNetwork(netsim.NewFabric(nil))
	node := rdma.NewNode("mem")
	node.Register(1, rdma.NewRegion(64, false))
	net.AddNode(node)
	inner, err := net.Dial("cpu", "mem", rdma.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	im := &netsim.Impairment{OneWay: time.Millisecond, Loss: netsim.NewBernoulli(1.0, 1)}
	im.Seed(1)
	tr := New(Config{Data: 2, RTT: 2 * time.Millisecond, RetryBudget: 30 * time.Millisecond})
	v := tr.Wrap(inner, ImpairedLink{Imp: im})
	defer v.Close()

	if err := v.Write(1, 0, []byte{42}); !errors.Is(err, rdma.ErrDeadline) {
		t.Fatalf("err=%v, want ErrDeadline", err)
	}
	// The shadow executes late; verify through a clean connection.
	direct, err := net.Dial("cpu2", "mem", rdma.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var b [1]byte
		if err := direct.Read(1, 0, b[:]); err != nil {
			t.Fatal(err)
		}
		if b[0] == 42 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("budget-expired write never executed late")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWrapVectoredReadIsOneFlight: a vectored read crosses the link as one
// request and one response, however many segments it carries, and fills
// every segment; a vectored write is still its separate writes.
func TestWrapVectoredReadIsOneFlight(t *testing.T) {
	net := rdma.NewNetwork(netsim.NewFabric(nil))
	node := rdma.NewNode("mem")
	node.Register(1, rdma.NewRegion(4096, false))
	net.AddNode(node)
	inner, err := net.Dial("cpu", "mem", rdma.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	im := &netsim.Impairment{OneWay: 100 * time.Microsecond}
	im.Seed(1)
	tr := New(Config{Data: 4, RTT: time.Millisecond})
	v := tr.Wrap(inner, ImpairedLink{Imp: im}).(rdma.Submitter)
	defer v.Close()
	do := func(op *rdma.Op) (flights uint64) {
		t.Helper()
		before := tr.Snapshot().Flights
		done := make(chan error, 1)
		op.Done = func(o *rdma.Op) { done <- o.Err }
		v.Submit(op)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return tr.Snapshot().Flights - before
	}
	const segs = 8
	write := &rdma.Op{Kind: rdma.OpWrite, Region: 1, Offset: 0, Data: []byte{1}}
	read := &rdma.Op{Kind: rdma.OpRead, Region: 1, Offset: 0, Data: make([]byte, 1)}
	for k := 1; k < segs; k++ {
		write.More = append(write.More, rdma.Seg{Offset: uint64(512 * k), Data: []byte{byte(k + 1)}})
		read.More = append(read.More, rdma.Seg{Offset: uint64(512 * k), Data: make([]byte, 1)})
	}
	if n := do(write); n != 2*segs {
		t.Fatalf("a write of %d segments took %d flights, want %d", segs, n, 2*segs)
	}
	if n := do(read); n != 2 {
		t.Fatalf("a read of %d segments took %d flights, want 2", segs, n)
	}
	for k, s := range append([]rdma.Seg{{Data: read.Data}}, read.More...) {
		if s.Data[0] != byte(k+1) {
			t.Fatalf("segment %d read %d, want %d", k, s.Data[0], k+1)
		}
	}
}
