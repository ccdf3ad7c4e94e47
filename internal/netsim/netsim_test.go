package netsim

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNoLatency(t *testing.T) {
	var m NoLatency
	if d := m.Delay(1 << 20); d != 0 {
		t.Fatalf("NoLatency.Delay = %v, want 0", d)
	}
}

func TestFixedLatency(t *testing.T) {
	m := FixedLatency{Base: time.Microsecond, PerByte: time.Nanosecond}
	if d := m.Delay(0); d != time.Microsecond {
		t.Fatalf("Delay(0) = %v, want 1µs", d)
	}
	if d := m.Delay(1000); d != time.Microsecond+1000*time.Nanosecond {
		t.Fatalf("Delay(1000) = %v", d)
	}
}

func TestFixedLatencyMonotone(t *testing.T) {
	m := FixedLatency{Base: time.Microsecond, PerByte: time.Nanosecond}
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.Delay(x) <= m.Delay(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterLatencyBounds(t *testing.T) {
	inner := FixedLatency{Base: 10 * time.Microsecond}
	j := NewJitterLatency(inner, 5*time.Microsecond, 1)
	for i := 0; i < 1000; i++ {
		d := j.Delay(0)
		if d < 10*time.Microsecond || d >= 15*time.Microsecond {
			t.Fatalf("jittered delay %v out of [10µs,15µs)", d)
		}
	}
}

func TestJitterLatencyZeroJitter(t *testing.T) {
	j := NewJitterLatency(FixedLatency{Base: time.Millisecond}, 0, 1)
	if d := j.Delay(0); d != time.Millisecond {
		t.Fatalf("Delay = %v, want 1ms", d)
	}
}

func TestRDMAvsTCPDefaults(t *testing.T) {
	if RDMADefault().Delay(0) >= TCPDefault().Delay(0) {
		t.Fatal("RDMA default latency should be below TCP default")
	}
}

func TestSleepNonPositive(t *testing.T) {
	start := time.Now()
	Sleep(0)
	Sleep(-time.Second)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("Sleep on non-positive duration blocked")
	}
}

func TestSleepShortDuration(t *testing.T) {
	start := time.Now()
	Sleep(20 * time.Microsecond)
	elapsed := time.Since(start)
	if elapsed < 20*time.Microsecond {
		t.Fatalf("Sleep(20µs) returned after %v", elapsed)
	}
}

func TestFabricKillRestart(t *testing.T) {
	f := NewFabric(nil)
	if err := f.Transfer("a", "b", 10); err != nil {
		t.Fatalf("healthy transfer: %v", err)
	}
	f.Kill("b")
	if !f.Down("b") {
		t.Fatal("b should be down")
	}
	if err := f.Transfer("a", "b", 10); err != ErrUnreachable {
		t.Fatalf("transfer to dead node: err = %v, want ErrUnreachable", err)
	}
	if err := f.Transfer("b", "a", 10); err != ErrUnreachable {
		t.Fatalf("transfer from dead node: err = %v, want ErrUnreachable", err)
	}
	f.Restart("b")
	if f.Down("b") {
		t.Fatal("b should be up after restart")
	}
	if err := f.Transfer("a", "b", 10); err != nil {
		t.Fatalf("transfer after restart: %v", err)
	}
}

func TestFabricPartitionSymmetric(t *testing.T) {
	f := NewFabric(nil)
	f.Partition("a", "b")
	if err := f.Transfer("a", "b", 1); err != ErrUnreachable {
		t.Fatal("a->b should be partitioned")
	}
	if err := f.Transfer("b", "a", 1); err != ErrUnreachable {
		t.Fatal("b->a should be partitioned")
	}
	if err := f.Transfer("a", "c", 1); err != nil {
		t.Fatalf("a->c should be fine: %v", err)
	}
	f.Heal("b", "a") // order-insensitive
	if err := f.Transfer("a", "b", 1); err != nil {
		t.Fatalf("healed link: %v", err)
	}
}

func TestFabricHealAll(t *testing.T) {
	f := NewFabric(nil)
	f.Kill("x")
	f.Partition("a", "b")
	f.HealAll()
	if f.Down("x") {
		t.Fatal("x still down after HealAll")
	}
	if err := f.Transfer("a", "b", 1); err != nil {
		t.Fatalf("a->b after HealAll: %v", err)
	}
}

func TestFabricSetLatency(t *testing.T) {
	f := NewFabric(nil)
	f.SetLatency(FixedLatency{Base: 2 * time.Millisecond})
	start := time.Now()
	if err := f.Transfer("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("latency model not applied")
	}
	f.SetLatency(nil) // resets to no latency
	start = time.Now()
	f.Transfer("a", "b", 0)
	if time.Since(start) > time.Millisecond {
		t.Fatal("nil latency model should mean zero delay")
	}
}

func TestLinkKeyCanonical(t *testing.T) {
	if linkKey("a", "b") != linkKey("b", "a") {
		t.Fatal("linkKey must be order-insensitive")
	}
}

// TestFabricInstant: only a latency model that is zero for every size, on a
// link no transfer impairment applies to, is instant; a down endpoint is not
// a delay. Deciding draws nothing from a random model.
func TestFabricInstant(t *testing.T) {
	f := NewFabric(nil)
	if !f.Instant("a", "b") {
		t.Fatal("NoLatency fabric not instant")
	}
	f.Kill("b")
	if !f.Instant("a", "b") {
		t.Fatal("a down endpoint made the link non-instant")
	}
	f.HealAll()
	f.SetNodeImpairment("c", &Impairment{OneWay: time.Millisecond})
	if f.Instant("a", "c") || !f.Instant("a", "b") {
		t.Fatalf("impaired a-c instant=%v, calm a-b instant=%v", f.Instant("a", "c"), f.Instant("a", "b"))
	}
	f.SetNodeImpairment("c", &Impairment{OneWay: time.Millisecond, DatagramOnly: true})
	if !f.Instant("a", "c") {
		t.Fatal("a datagram-only impairment made the link non-instant")
	}
	f.SetNodeImpairment("c", nil)
	for _, m := range []LatencyModel{FixedLatency{Base: 2 * time.Millisecond}, FixedLatency{PerByte: 1}, RDMADefault()} {
		f.SetLatency(m)
		if f.Instant("a", "b") {
			t.Fatalf("%+v is instant", m)
		}
	}
	f.SetLatency(FixedLatency{})
	if !f.Instant("a", "b") {
		t.Fatal("FixedLatency{0, 0} not instant")
	}

	// A jitter model is never instant, and deciding does not consume a draw.
	j, ref := NewJitterLatency(NoLatency{}, time.Millisecond, 7), NewJitterLatency(NoLatency{}, time.Millisecond, 7)
	f.SetLatency(j)
	for i := 0; i < 10; i++ {
		if f.Instant("a", "b") {
			t.Fatal("jitter model is instant")
		}
	}
	if got, want := j.Delay(0), ref.Delay(0); got != want {
		t.Fatalf("first draw after deciding %v, want %v", got, want)
	}
}

// TestFabricMutatorsRaceTransfer runs every mutator against transfers and
// datagrams on other goroutines (for the race detector): each outcome is a
// delivery or ErrUnreachable, and once the fabric is healed and calm again
// every transfer goes through.
func TestFabricMutatorsRaceTransfer(t *testing.T) {
	f := NewFabric(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := f.Transfer("a", "b", 64); err != nil && !errors.Is(err, ErrUnreachable) {
					t.Errorf("Transfer: %v", err)
				}
				if _, _, err := f.SendDatagram("b", "a", 64); err != nil && !errors.Is(err, ErrUnreachable) {
					t.Errorf("SendDatagram: %v", err)
				}
				f.Down("a")
				f.Instant("a", "b")
			}
		}()
	}
	im := &Impairment{OneWay: time.Microsecond}
	for i := 0; i < 200; i++ {
		f.Kill("b")
		f.Partition("a", "b")
		f.SetNodeImpairment("a", im)
		f.SetLinkImpairment("a", "b", im)
		f.SetLatency(FixedLatency{Base: time.Microsecond})
		f.Restart("b")
		f.Heal("a", "b")
		f.SetNodeImpairment("a", nil)
		f.SetLinkImpairment("a", "b", nil)
		f.SetLatency(nil)
		f.Kill("a")
		f.HealAll()
	}
	close(stop)
	wg.Wait()
	if err := f.Transfer("a", "b", 64); err != nil {
		t.Fatalf("transfer on the healed fabric: %v", err)
	}
}

// TestTransferKilledMidFlight: a node killed while a delayed transfer is in
// flight loses the message.
func TestTransferKilledMidFlight(t *testing.T) {
	f := NewFabric(FixedLatency{Base: 50 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- f.Transfer("a", "b", 64) }()
	time.Sleep(10 * time.Millisecond)
	f.Kill("b")
	if err := <-done; !errors.Is(err, ErrUnreachable) {
		t.Fatalf("transfer to a node killed mid-flight: %v, want ErrUnreachable", err)
	}
}
