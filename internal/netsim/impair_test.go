package netsim

import (
	"math"
	"testing"
	"time"
)

// TestGilbertElliottLongRunLoss checks the measured long-run loss rate
// against the analytic stationary rate πB·lossBad + πG·lossGood.
func TestGilbertElliottLongRunLoss(t *testing.T) {
	const (
		pGB, pBG = 0.01, 0.25
		lossBad  = 0.5
		n        = 400_000
	)
	g := NewGilbertElliott(pGB, pBG, 0, lossBad, 1)
	lost := 0
	for i := 0; i < n; i++ {
		if g.Lose() {
			lost++
		}
	}
	want := pGB / (pGB + pBG) * lossBad
	got := float64(lost) / n
	if math.Abs(got-want) > 0.2*want {
		t.Fatalf("long-run loss rate %.4f, want %.4f ±20%%", got, want)
	}
}

// TestGilbertElliottBurstLength checks that consecutive-loss runs have the
// analytic mean length. After a loss the run continues iff the chain stays
// Bad and loses again, so runs are geometric with continue probability
// (1-pBG)·lossBad and mean 1/(1 - (1-pBG)·lossBad).
func TestGilbertElliottBurstLength(t *testing.T) {
	const (
		pGB, pBG = 0.02, 0.25
		lossBad  = 0.5
		n        = 400_000
	)
	g := NewGilbertElliott(pGB, pBG, 0, lossBad, 7)
	var runs, losses, cur int
	for i := 0; i < n; i++ {
		if g.Lose() {
			losses++
			if cur == 0 {
				runs++
			}
			cur++
		} else {
			cur = 0
		}
	}
	if runs < 100 {
		t.Fatalf("only %d loss bursts in %d packets; model too quiet to judge", runs, n)
	}
	got := float64(losses) / float64(runs)
	want := 1 / (1 - (1-pBG)*lossBad)
	if math.Abs(got-want) > 0.15*want {
		t.Fatalf("mean loss-burst length %.3f, want %.3f ±15%%", got, want)
	}
}

// TestGilbertElliottBurstiness: at the same long-run rate, GE losses must
// cluster — the conditional loss probability given a preceding loss should be
// several times the marginal rate, where Bernoulli shows no memory.
func TestGilbertElliottBurstiness(t *testing.T) {
	const n = 300_000
	g := NewGilbertElliottRate(0.05, 8, 3)
	var losses, pairs, afterLoss int
	prev := false
	for i := 0; i < n; i++ {
		l := g.Lose()
		if l {
			losses++
		}
		if prev {
			afterLoss++
			if l {
				pairs++
			}
		}
		prev = l
	}
	marginal := float64(losses) / n
	if math.Abs(marginal-0.05) > 0.02 {
		t.Fatalf("NewGilbertElliottRate(0.05) long-run rate %.4f", marginal)
	}
	conditional := float64(pairs) / float64(afterLoss)
	if conditional < 3*marginal {
		t.Fatalf("loss not bursty: P(loss|loss)=%.3f vs marginal %.3f", conditional, marginal)
	}
}

func TestBernoulliRate(t *testing.T) {
	const n = 200_000
	b := NewBernoulli(0.1, 5)
	lost := 0
	for i := 0; i < n; i++ {
		if b.Lose() {
			lost++
		}
	}
	got := float64(lost) / n
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("bernoulli rate %.4f, want 0.10 ±0.01", got)
	}
}

// TestReorderEventualDelivery: reordering holds packets back but never drops
// them — every datagram on a loss-free link is delivered, and the held-back
// fraction matches ReorderP.
func TestReorderEventualDelivery(t *testing.T) {
	im := &Impairment{
		OneWay:       time.Millisecond,
		ReorderP:     0.1,
		ReorderDelay: 5 * time.Millisecond,
	}
	im.Seed(11)
	const n = 50_000
	reordered := 0
	for i := 0; i < n; i++ {
		d, ok := im.Datagram(100)
		if !ok {
			t.Fatalf("datagram %d lost on a loss-free link", i)
		}
		if d >= time.Millisecond+5*time.Millisecond {
			reordered++
		}
	}
	got := float64(reordered) / n
	if math.Abs(got-0.1) > 0.02 {
		t.Fatalf("reordered fraction %.4f, want 0.10 ±0.02", got)
	}
}

// TestTransferReliableUnderLoss: the reliable Transfer path converts loss
// into retransmission delay, never into failure — eventual delivery holds on
// an arbitrarily lossy (but connected) link, and the average stall grows with
// the loss rate.
func TestTransferReliableUnderLoss(t *testing.T) {
	f := NewFabric(NoLatency{})
	im := &Impairment{
		OneWay: 100 * time.Microsecond,
		Loss:   NewBernoulli(0.3, 9),
		RTO:    300 * time.Microsecond,
	}
	im.Seed(9)
	f.SetLinkImpairment("a", "b", im)
	var total time.Duration
	const n = 200
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f.Transfer("a", "b", 64); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		total += time.Since(start)
	}
	// Expected per-transfer delay: OneWay + lossRate/(1-lossRate)·RTO ≈ 229µs.
	if avg := total / n; avg < 150*time.Microsecond {
		t.Fatalf("loss cost no retransmission delay: avg %v", avg)
	}
}

// TestDatagramOnlySkipsTransfer: an impairment carried by the wantransport
// layer must not also stall the fabric's reliable legs.
func TestDatagramOnlySkipsTransfer(t *testing.T) {
	f := NewFabric(NoLatency{})
	im := &Impairment{
		OneWay:       10 * time.Millisecond,
		Loss:         NewBernoulli(0.5, 3),
		DatagramOnly: true,
	}
	im.Seed(3)
	f.SetNodeImpairment("b", im)
	start := time.Now()
	if err := f.Transfer("a", "b", 64); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if d := time.Since(start); d > 5*time.Millisecond {
		t.Fatalf("DatagramOnly impairment leaked into Transfer: took %v", d)
	}
	// The datagram path still sees it.
	d, _, err := f.SendDatagram("a", "b", 64)
	if err != nil {
		t.Fatalf("send datagram: %v", err)
	}
	if d < 10*time.Millisecond {
		t.Fatalf("datagram delay %v, want ≥ OneWay", d)
	}
}

// TestSendDatagramReachability: datagrams to a dead or partitioned node fail
// with ErrUnreachable rather than reporting ordinary loss.
func TestSendDatagramReachability(t *testing.T) {
	f := NewFabric(NoLatency{})
	if _, _, err := f.SendDatagram("a", "b", 10); err != nil {
		t.Fatalf("clean link: %v", err)
	}
	f.Kill("b")
	if _, _, err := f.SendDatagram("a", "b", 10); err != ErrUnreachable {
		t.Fatalf("dead node: err=%v, want ErrUnreachable", err)
	}
	f.Restart("b")
	f.Partition("a", "b")
	if _, _, err := f.SendDatagram("a", "b", 10); err != ErrUnreachable {
		t.Fatalf("partitioned link: err=%v, want ErrUnreachable", err)
	}
}

// TestImpairmentFork: forked impairments share parameters but not randomness.
func TestImpairmentFork(t *testing.T) {
	im := &Impairment{OneWay: 20 * time.Millisecond, Loss: NewGilbertElliottRate(0.001, 3, 2)}
	im.Seed(1)
	fk := im.Fork(99)
	if fk.OneWay != im.OneWay {
		t.Fatalf("fork changed OneWay: %v vs %v", fk.OneWay, im.OneWay)
	}
	if fk.Loss == im.Loss {
		t.Fatal("fork shares the parent's loss chain")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	im := &Impairment{OneWay: time.Millisecond, Bandwidth: 1_000_000} // 1 MB/s
	im.Seed(1)
	d, ok := im.Datagram(100_000) // 100 KB → 100ms serialization
	if !ok {
		t.Fatal("lossless datagram dropped")
	}
	if d < 100*time.Millisecond {
		t.Fatalf("bandwidth cap not charged: delay %v", d)
	}
}
