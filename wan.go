package sift

import (
	"fmt"
	"time"

	"github.com/repro/sift/internal/netsim"
	"github.com/repro/sift/internal/wantransport"
)

// wanOpHeader approximates the per-request wire framing on the simulated
// client↔coordinator WAN hop.
const wanOpHeader = 32

// WANConfig places part of an in-process deployment across a simulated
// wide-area link: sustained latency, jitter, bursty (Gilbert–Elliott) loss,
// reordering, and bandwidth caps, with a loss-adaptive FEC transport
// (internal/wantransport) masking packet loss on the impaired paths. The
// zero value is invalid — at least one of Replica or ClientWAN must select
// a WAN path.
type WANConfig struct {
	// RTT is the WAN round-trip propagation time (default 40ms).
	RTT time.Duration
	// Jitter adds a uniform extra one-way delay in [0, Jitter) per packet.
	Jitter time.Duration
	// LossRate is the stationary per-packet loss probability, modeled as a
	// Gilbert–Elliott bursty process whose mean loss burst is LossBurst
	// consecutive packets (default burst 4 when LossRate > 0).
	LossRate  float64
	LossBurst float64
	// ReorderP is the probability a delivered packet is held back past its
	// successors.
	ReorderP float64
	// Bandwidth caps the WAN links in bytes/second (0 = uncapped).
	Bandwidth int64

	// Replica names one memory node that lives across the WAN: every CPU
	// node's links to it carry the impairment (and, unless DisableFEC, the
	// FEC transport). Empty keeps all memory nodes on the local fabric.
	Replica string
	// ClientWAN routes the client↔coordinator path across the WAN, with
	// requests coalesced into shared FEC flights by a congestion-aware
	// batcher.
	ClientWAN bool

	// DisableFEC removes the forward-error-correction layer from the WAN
	// paths, leaving plain per-packet retransmission (the ARQ baseline the
	// degradation experiments compare against).
	DisableFEC bool
}

// impairment resolves the configured WAN link profile into a template
// Impairment; per-link instances are forked from it with distinct seeds.
func (w *WANConfig) impairment(seed int64) *netsim.Impairment {
	rtt := w.RTT
	if rtt <= 0 {
		rtt = 40 * time.Millisecond
	}
	im := &netsim.Impairment{
		OneWay:    rtt / 2,
		Jitter:    w.Jitter,
		ReorderP:  w.ReorderP,
		Bandwidth: w.Bandwidth,
	}
	if w.LossRate > 0 {
		burst := w.LossBurst
		if burst <= 0 {
			burst = 4
		}
		im.Loss = netsim.NewGilbertElliottRate(w.LossRate, burst, seed)
	}
	im.Seed(seed)
	return im
}

// wanState is a cluster's live WAN wiring: the shared adaptive-FEC
// transport, the resolved impairment template, and the client-side path.
type wanState struct {
	cfg  WANConfig
	tr   *wantransport.Transport
	base *netsim.Impairment

	clientImp *netsim.Impairment    // client hop (not a fabric node)
	client    *wantransport.Batcher // nil unless cfg.ClientWAN
}

// initWAN resolves Config.WAN and installs the impairments and transport.
// Called after the memory nodes exist and before any CPU node dials.
func (cl *Cluster) initWAN() error {
	w := *cl.cfg.WAN
	if w.Replica == "" && !w.ClientWAN {
		return fmt.Errorf("sift: WAN config selects no WAN path (set Replica and/or ClientWAN)")
	}
	seed := cl.cfg.Seed ^ 0x57414e // decorrelate from election/backoff seeds
	base := w.impairment(seed)
	ws := &wanState{cfg: w, base: base}
	ws.tr = wantransport.New(wantransport.Config{
		RTT:        base.RTT(),
		DisableFEC: w.DisableFEC,
	})
	if w.Replica != "" {
		found := false
		for _, n := range cl.memNames {
			if n == w.Replica {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("sift: WAN replica %q is not a memory node", w.Replica)
		}
		imp := base.Fork(seed + 1)
		// With FEC the wan transport wrapper owns loss and latency via
		// SendDatagram; DatagramOnly keeps the fabric's reliable Transfer
		// path from charging the same impairment twice. The ARQ baseline
		// instead lets Transfer model loss as retransmission stalls.
		imp.DatagramOnly = !w.DisableFEC
		cl.fabric.SetNodeImpairment(w.Replica, imp)
	}
	if w.ClientWAN {
		ws.clientImp = base.Fork(seed + 2)
		ws.client = ws.tr.Batcher(wantransport.ImpairedLink{Imp: ws.clientImp}, 0, 0)
	}
	cl.wan = ws
	return nil
}

// clientLeg charges one client→coordinator (or return) datagram leg through
// the coalescing batcher. A nil state or LAN client path is free.
func (w *wanState) clientLeg(size int) error {
	if w == nil || w.client == nil {
		return nil
	}
	return w.client.Do(size)
}

// wrapWANDial interposes the FEC transport on dials to the WAN replica.
// src is the dialing CPU node's fabric name.
func (cl *Cluster) wrapWANDial(src string, dial wantransport.Dialer) wantransport.Dialer {
	if cl.wan == nil || cl.wan.cfg.Replica == "" || cl.wan.cfg.DisableFEC {
		return dial
	}
	replica := cl.wan.cfg.Replica
	link := wantransport.FabricLink{Fabric: cl.fabric, Src: src, Dst: replica}
	return cl.wan.tr.WrapDialer(dial, replica, link)
}

// wanBackupGet is backupGet with the WAN client legs charged around it. A
// failed response leg degrades to a coordinator fallback, which is safe for
// reads.
func (cl *Cluster) wanBackupGet(key []byte) ([]byte, bool) {
	if cl.wan == nil || cl.wan.client == nil {
		return cl.backupGet(key)
	}
	if cl.wan.clientLeg(wanOpHeader+len(key)) != nil {
		return nil, false
	}
	v, ok := cl.backupGet(key)
	if !ok {
		return nil, false
	}
	if cl.wan.clientLeg(wanOpHeader+len(v)) != nil {
		return nil, false
	}
	return v, true
}

// WANStats snapshots the WAN transport's counters (zero without Config.WAN).
func (cl *Cluster) WANStats() wantransport.Stats {
	if cl.wan == nil {
		return wantransport.Stats{}
	}
	return cl.wan.tr.Snapshot()
}

// DegradedMemoryNodes lists memory nodes the coordinator currently holds in
// the degraded state — responsive but too slow for the quorum fast path,
// served around rather than suspected (nil when no coordinator serves).
func (cl *Cluster) DegradedMemoryNodes() []string {
	if st := cl.coordinatorStore(); st != nil {
		return st.Memory().DegradedMemoryNodes()
	}
	return nil
}
