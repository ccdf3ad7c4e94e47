package netsim

import (
	"math/rand"
	"sync"
	"time"
)

// LossModel decides, one datagram at a time, whether a packet is lost.
// Implementations must be safe for concurrent use and deterministic for a
// given seed and call sequence.
type LossModel interface {
	Lose() bool
}

// Bernoulli drops each packet independently with probability P.
type Bernoulli struct {
	p   float64
	mu  sync.Mutex
	rng *rand.Rand
}

// NewBernoulli creates an i.i.d. loss model with the given drop probability.
func NewBernoulli(p float64, seed int64) *Bernoulli {
	return &Bernoulli{p: p, rng: rand.New(rand.NewSource(seed))}
}

// Lose implements LossModel.
func (b *Bernoulli) Lose() bool {
	if b.p <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rng.Float64() < b.p
}

// Fork returns an independent copy with the same parameters and a new seed.
func (b *Bernoulli) Fork(seed int64) LossModel { return NewBernoulli(b.p, seed) }

// GilbertElliott is the classic two-state Markov loss model: the link
// alternates between a Good state (loss probability LossGood, usually ~0) and
// a Bad state (loss probability LossBad) with per-packet transition
// probabilities PGoodBad and PBadGood. Losses therefore arrive in bursts whose
// mean length is 1/PBadGood packets, and the long-run loss rate is
//
//	πB·LossBad + πG·LossGood, where πB = PGoodBad / (PGoodBad + PBadGood).
type GilbertElliott struct {
	pGoodBad float64
	pBadGood float64
	lossGood float64
	lossBad  float64

	mu  sync.Mutex
	rng *rand.Rand
	bad bool
}

// NewGilbertElliott creates a bursty loss model starting in the Good state.
func NewGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad float64, seed int64) *GilbertElliott {
	return &GilbertElliott{
		pGoodBad: pGoodBad,
		pBadGood: pBadGood,
		lossGood: lossGood,
		lossBad:  lossBad,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// NewGilbertElliottRate builds a Gilbert-Elliott model with approximately the
// given long-run loss rate and mean burst length in packets. Within a burst
// packets drop with probability 0.5; between bursts the link is clean.
func NewGilbertElliottRate(rate, meanBurst float64, seed int64) *GilbertElliott {
	const lossBad = 0.5
	if meanBurst < 1 {
		meanBurst = 1
	}
	pBadGood := 1 / meanBurst
	// Stationary bad fraction needed for the target rate: πB = rate/lossBad.
	piB := rate / lossBad
	if piB > 0.9 {
		piB = 0.9
	}
	pGoodBad := pBadGood * piB / (1 - piB)
	return NewGilbertElliott(pGoodBad, pBadGood, 0, lossBad, seed)
}

// Lose implements LossModel: advance the chain one step, then draw a loss in
// the resulting state.
func (g *GilbertElliott) Lose() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.bad {
		if g.rng.Float64() < g.pBadGood {
			g.bad = false
		}
	} else {
		if g.rng.Float64() < g.pGoodBad {
			g.bad = true
		}
	}
	p := g.lossGood
	if g.bad {
		p = g.lossBad
	}
	if p <= 0 {
		return false
	}
	return g.rng.Float64() < p
}

// Fork returns an independent copy with the same parameters and a new seed.
func (g *GilbertElliott) Fork(seed int64) LossModel {
	return NewGilbertElliott(g.pGoodBad, g.pBadGood, g.lossGood, g.lossBad, seed)
}

// lossForker is implemented by loss models that can produce independent
// copies; Impairment.Fork uses it so two links never share one Markov chain.
type lossForker interface {
	Fork(seed int64) LossModel
}

// Impairment is a stationary per-link network profile: propagation delay,
// jitter, packet loss, reordering, and a bandwidth cap. Unlike the discrete
// faults in faultrdma, an Impairment holds for the lifetime of the link — it
// models *where a node lives*, not what broke.
//
// Two consumers read it. Fabric.Transfer applies it with reliable-transport
// semantics (each lost packet costs one RTO of retransmission delay), which
// models running the existing connection-oriented transport straight across
// the WAN. Fabric.SendDatagram applies it with datagram semantics — the
// caller learns the would-be delivery delay and whether the packet survived,
// and does its own scheduling — which is what the FEC layer in
// internal/wantransport builds on. Set DatagramOnly when a wantransport
// wrapper carries the impairment above the fabric, so the underlying reliable
// Transfers are not charged twice.
type Impairment struct {
	OneWay time.Duration // propagation delay per packet (RTT/2)
	Jitter time.Duration // uniform extra delay in [0, Jitter)
	Loss   LossModel     // per-packet loss; nil = lossless

	ReorderP     float64       // probability a delivered packet is held back
	ReorderDelay time.Duration // how long a reordered packet is held

	Bandwidth int64 // link capacity in bytes/second; 0 = unlimited
	MTU       int   // packet size for loss accounting (default 1500)

	// RTO is the retransmission penalty Transfer charges per lost packet.
	// Zero defaults to 2·OneWay + 10ms, a coarse kernel-TCP-style timer.
	RTO time.Duration

	// DatagramOnly marks the impairment as carried by a higher layer (the
	// wantransport FEC wrapper); Fabric.Transfer ignores it so the underlying
	// in-order legs are not impaired a second time.
	DatagramOnly bool

	mu  sync.Mutex
	rng *rand.Rand
}

// Seed initialises the impairment's internal randomness (jitter and reorder
// draws). Fabric seeds unseeded impairments automatically on registration.
func (im *Impairment) Seed(seed int64) {
	im.mu.Lock()
	im.rng = rand.New(rand.NewSource(seed))
	im.mu.Unlock()
}

// Fork returns a copy of the impairment with independent randomness, so the
// same profile can be applied to several links without sharing loss-burst
// state between them.
func (im *Impairment) Fork(seed int64) *Impairment {
	c := &Impairment{
		OneWay:       im.OneWay,
		Jitter:       im.Jitter,
		Loss:         im.Loss,
		ReorderP:     im.ReorderP,
		ReorderDelay: im.ReorderDelay,
		Bandwidth:    im.Bandwidth,
		MTU:          im.MTU,
		RTO:          im.RTO,
		DatagramOnly: im.DatagramOnly,
	}
	if f, ok := im.Loss.(lossForker); ok && im.Loss != nil {
		c.Loss = f.Fork(seed + 1)
	}
	c.Seed(seed)
	return c
}

// RTT is the round-trip propagation delay of the profile.
func (im *Impairment) RTT() time.Duration { return 2 * im.OneWay }

func (im *Impairment) mtu() int {
	if im.MTU <= 0 {
		return 1500
	}
	return im.MTU
}

func (im *Impairment) rto() time.Duration {
	if im.RTO > 0 {
		return im.RTO
	}
	return 2*im.OneWay + 10*time.Millisecond
}

// packets converts a byte count into MTU-sized packets (minimum one).
func (im *Impairment) packets(size int) int {
	m := im.mtu()
	n := (size + m - 1) / m
	if n < 1 {
		n = 1
	}
	return n
}

// serialize is the time the payload occupies the link under the bandwidth cap.
func (im *Impairment) serialize(size int) time.Duration {
	if im.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(size) / float64(im.Bandwidth) * float64(time.Second))
}

// draw returns a uniform float and optional jitter using the internal rng,
// lazily seeding it when the impairment was constructed literally.
func (im *Impairment) draw() (float64, time.Duration) {
	im.mu.Lock()
	defer im.mu.Unlock()
	if im.rng == nil {
		im.rng = rand.New(rand.NewSource(1))
	}
	u := im.rng.Float64()
	var j time.Duration
	if im.Jitter > 0 {
		j = time.Duration(im.rng.Int63n(int64(im.Jitter)))
	}
	return u, j
}

// Datagram computes the fate of one unreliable datagram of size bytes:
// the one-way delivery delay (propagation + jitter + serialization, plus the
// reorder hold-back when the packet is selected for reordering) and whether
// it was delivered at all. It never sleeps; callers schedule delivery.
func (im *Impairment) Datagram(size int) (delay time.Duration, delivered bool) {
	u, jitter := im.draw()
	delay = im.OneWay + jitter + im.serialize(size)
	if im.Loss != nil {
		// One draw per MTU packet: a datagram above the MTU dies if any
		// fragment dies, exactly like an IP fragment train.
		for i := 0; i < im.packets(size); i++ {
			if im.Loss.Lose() {
				return delay, false
			}
		}
	}
	if im.ReorderP > 0 && u < im.ReorderP {
		delay += im.reorderHold()
	}
	return delay, true
}

func (im *Impairment) reorderHold() time.Duration {
	if im.ReorderDelay > 0 {
		return im.ReorderDelay
	}
	return im.OneWay / 2
}

// transferDelay models the impairment under a reliable, in-order transport:
// every MTU packet must eventually arrive, and each loss costs one RTO of
// retransmission stall (compounding for repeated losses of the same packet).
func (im *Impairment) transferDelay(size int) time.Duration {
	_, jitter := im.draw()
	d := im.OneWay + jitter + im.serialize(size)
	if im.Loss == nil {
		return d
	}
	rto := im.rto()
	for i := 0; i < im.packets(size); i++ {
		for attempt := 0; im.Loss.Lose(); attempt++ {
			d += rto
			if attempt >= 16 {
				break // pathological chain; cap the stall
			}
		}
	}
	return d
}
