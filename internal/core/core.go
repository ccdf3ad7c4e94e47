// Package core orchestrates a Sift consensus group: it runs the CPU-node
// state machine (follower → candidate → coordinator), wires the election,
// replicated memory, and key-value layers together, and implements shared
// backup CPU pools across groups (paper §3.1, §3.2, §5.2).
//
// A CPUNode is stateless between roles: everything a coordinator needs is
// (re)built from the memory nodes when it wins a term — log recovery brings
// the replicated memory to a consistent state and the key-value layer
// reloads its structures and replays its own log. That statelessness is
// what lets one pool of backup CPU nodes stand behind many groups.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/election"
	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/obs"
	"github.com/repro/sift/internal/repmem"
)

// ErrNoLease is returned by BackupGet when this node cannot serve the read:
// it holds no valid read lease, it is itself the coordinator, or backup
// reads are not configured. The caller retries at the coordinator.
var ErrNoLease = errors.New("core: no backup read lease")

// Role is a CPU node's current protocol role.
type Role int32

// CPU node roles.
const (
	Follower Role = iota
	Candidate
	Coordinator
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Coordinator:
		return "coordinator"
	default:
		return "unknown"
	}
}

// Config parameterises a CPU node for one group.
type Config struct {
	// NodeID is this CPU node's identity in heartbeat words.
	NodeID uint16
	// Election carries the memory node list, dial function, and timing. Its
	// NodeID field is overwritten with the one above.
	Election election.Config
	// Memory is the replicated memory configuration. Its Dial must open
	// exclusive replicated-region connections; MemoryNodes is overwritten
	// with Election.MemoryNodes. OnFenced is managed by the CPU node.
	Memory repmem.Config
	// KV is the key-value store configuration.
	KV kv.Config
	// NodeRecoveryInterval is how often the coordinator polls failed memory
	// nodes for reintegration (default 500ms).
	NodeRecoveryInterval time.Duration
	// ScrubInterval is the background scrubber's tick (it verifies a small
	// batch of blocks per tick). Default 50ms; negative disables scrubbing.
	ScrubInterval time.Duration
	// BackupReads enables serving Get requests from this node while it is a
	// follower, under a read lease derived from its heartbeat observations
	// (paper §5.2's backup CPU involvement, extended to the read path).
	// Requires BackupDial; the coordinator side must run the KV store with
	// SyncApply and an AckHold of at least LeaseWindow (plus read-latency
	// margin) for the leases to be sound.
	BackupReads bool
	// LeaseWindow is the backup read-lease duration, measured from the start
	// of a heartbeat read round that saw a majority at the current term. A
	// new coordinator delays its first acknowledgement by this long so every
	// prior-term lease has expired (see DESIGN.md §13).
	LeaseWindow time.Duration
	// BackupDial opens observer (read-only) connections to memory nodes for
	// the backup read path — see rdma.DialOpts.ReadOnly.
	BackupDial repmem.Dialer
	// OnRoleChange, if set, is invoked (synchronously) on role transitions.
	OnRoleChange func(Role)
	// Events, if set, receives control-plane events (election.campaign,
	// election.won, election.lost, coordinator.promoted/demoted/fenced,
	// election.dethroned). It is also handed to the replicated memory layer
	// unless Memory.Events is already set.
	Events *obs.Ring
}

// CPUNode runs the Sift CPU-node state machine for one group.
type CPUNode struct {
	cfg     Config
	elector *election.Elector

	role  atomic.Int32
	term  atomic.Uint32 // current term when coordinator
	store atomic.Pointer[kv.Store]

	mu       sync.Mutex
	stepDown chan struct{} // closed to force the coordinator loop to exit

	backup *backupReader // nil unless cfg.BackupReads

	// conf is the adopted memory-node configuration (member list, config
	// epoch, erasure geometry). It starts from cfg and advances when this
	// node commits a reconfiguration or discovers a newer committed epoch
	// on the admin plane.
	confMu sync.Mutex
	conf   memnode.ConfigRecord

	// Stats.
	elections     atomic.Uint64
	promotions    atomic.Uint64
	demotions     atomic.Uint64
	dethronements atomic.Uint64
}

// label names this CPU node in events ("cpu3").
func (n *CPUNode) label() string { return fmt.Sprintf("cpu%d", n.cfg.NodeID) }

// emit records a control-plane event against this CPU node. Safe with no
// ring configured.
func (n *CPUNode) emit(typ string, term uint16, detail string) {
	n.cfg.Events.Emit(typ, n.label(), term, detail)
}

// NewCPUNode constructs the node; call Run to start it.
func NewCPUNode(cfg Config) *CPUNode {
	if cfg.NodeRecoveryInterval <= 0 {
		cfg.NodeRecoveryInterval = 500 * time.Millisecond
	}
	if cfg.ScrubInterval == 0 {
		cfg.ScrubInterval = 50 * time.Millisecond
	}
	cfg.Election.NodeID = cfg.NodeID
	cfg.Memory.MemoryNodes = cfg.Election.MemoryNodes
	if cfg.BackupReads && cfg.LeaseWindow <= 0 {
		cfg.LeaseWindow = 4 * cfg.Election.HeartbeatInterval
	}
	n := &CPUNode{cfg: cfg}
	epoch := cfg.Memory.Epoch
	if epoch == 0 {
		epoch = 1
	}
	n.conf = memnode.ConfigRecord{
		Epoch:       epoch,
		ECData:      cfg.Memory.ECData,
		ECParity:    cfg.Memory.ECParity,
		ECBlockSize: cfg.Memory.ECBlockSize,
		Members:     append([]string(nil), cfg.Memory.MemoryNodes...),
	}
	n.elector = election.New(cfg.Election)
	if cfg.BackupReads && cfg.BackupDial != nil {
		if br, err := newBackupReader(cfg); err == nil {
			n.backup = br
		}
	}
	return n
}

// backupReader bundles the follower-side read path: a read-only view of the
// replicated memory plus a lock-free chain walker, with a cached membership
// mask that is refreshed from the admin region well within the ack-hold
// window. When a committed config epoch above the view's own appears on the
// admin plane, the view and chain walker are rebuilt against the new
// configuration descriptor before any further reads are served.
type backupReader struct {
	cfg Config

	mu      sync.Mutex
	view    *repmem.View
	chain   *kv.ChainReader
	maskAt  time.Time
	masked  bool
	serving uint16 // highest serving term seen at the last refresh
}

func newBackupReader(cfg Config) (*backupReader, error) {
	b := &backupReader{cfg: cfg}
	rec := memnode.ConfigRecord{
		Epoch:       cfg.Memory.Epoch,
		ECData:      cfg.Memory.ECData,
		ECParity:    cfg.Memory.ECParity,
		ECBlockSize: cfg.Memory.ECBlockSize,
		Members:     cfg.Memory.MemoryNodes,
	}
	if err := b.rebuildLocked(rec); err != nil {
		return nil, err
	}
	return b, nil
}

// rebuildLocked (re)creates the view and chain walker for configuration rec.
// An in-flight chain walk on the old view sees its connections closed and
// fails with a kv.ErrBackupRetry wrap — the caller falls back to the
// coordinator, which is exactly the contract for a walk that straddles a
// reconfiguration.
func (b *backupReader) rebuildLocked(rec memnode.ConfigRecord) error {
	vcfg := b.cfg.Memory
	vcfg.Dial = b.cfg.BackupDial
	vcfg.OnFenced = nil
	vcfg.MemoryNodes = append([]string(nil), rec.Members...)
	vcfg.Epoch = rec.Epoch
	vcfg.ECData, vcfg.ECParity = rec.ECData, rec.ECParity
	if rec.ECBlockSize > 0 {
		vcfg.ECBlockSize = rec.ECBlockSize
	}
	view, err := repmem.NewView(vcfg)
	if err != nil {
		return err
	}
	chain, err := kv.NewChainReader(b.cfg.KV, vcfg.WriteAlign(), view)
	if err != nil {
		view.Close()
		return err
	}
	old := b.view
	b.view, b.chain = view, chain
	b.masked = false
	if old != nil {
		old.Close()
	}
	return nil
}

// close releases the reader's view connections.
func (b *backupReader) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.view != nil {
		b.view.Close()
	}
}

// refreshMask re-reads the published membership bitmap and serving term
// unless the cached pair is younger than ttl. A mask in use is therefore
// never older than ttl plus one read; the coordinator's AckHold must exceed
// that. It returns the cached serving term and the chain walker to use for
// this read. (A stale serving term is safe: the word is monotonic, so a
// match with the lease term can only under-claim, never claim an unfinished
// takeover complete.)
func (b *backupReader) refreshMask(ttl time.Duration) (uint16, *kv.ChainReader, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.masked && time.Since(b.maskAt) < ttl {
		return b.serving, b.chain, nil
	}
	// A committed config epoch above the view's own means the member set
	// behind this view is obsolete — a removed node may still be reachable
	// with intact but no-longer-written DRAM. Rebuild against the new
	// descriptor before trusting any published word.
	if e, _, ok := b.view.ReadEpoch(); ok && e > b.view.Epoch() {
		rec, recOK := b.view.ReadConfig()
		if !recOK || rec.Epoch <= b.view.Epoch() {
			return 0, nil, fmt.Errorf("config epoch %d committed but descriptor not visible", e)
		}
		if err := b.rebuildLocked(rec); err != nil {
			return 0, nil, err
		}
	}
	_, _, bitmap, ok := b.view.ReadMembership()
	if !ok {
		return 0, nil, fmt.Errorf("no published membership for config epoch %d", b.view.Epoch())
	}
	sEpoch, serving, ok := b.view.ReadServing()
	if !ok || sEpoch != b.view.Epoch() {
		return 0, nil, fmt.Errorf("no serving term for config epoch %d", b.view.Epoch())
	}
	b.view.SetMask(bitmap)
	b.maskAt = time.Now()
	b.masked = true
	b.serving = serving
	return serving, b.chain, nil
}

// BackupGet serves a read from replicated memory while this node is a
// follower holding a valid read lease. Any error — ErrNoLease or a
// kv.ErrBackupRetry wrap — means the caller must retry at the coordinator;
// only found values are authoritative.
func (n *CPUNode) BackupGet(key []byte) ([]byte, error) {
	br := n.backup
	if br == nil {
		return nil, ErrNoLease
	}
	if n.store.Load() != nil {
		return nil, ErrNoLease // we are the coordinator; use Store
	}
	w := n.cfg.LeaseWindow
	term, ok := n.elector.Lease(w)
	if !ok {
		return nil, ErrNoLease
	}
	serving, chain, err := br.refreshMask(w / 2)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoLease, err)
	}
	// The lease term's coordinator must have declared its takeover complete
	// (serving word ≥ published after recovery/replay): a lease alone only
	// proves who the coordinator is, not that its replay — which rewrites
	// blocks through older states — has finished.
	if serving != term {
		return nil, ErrNoLease
	}
	walkStart := time.Now()
	val, err := chain.Get(key)
	if err != nil {
		return nil, err
	}
	// Two post-read checks close the soundness argument:
	//   - The walk must fit in half a lease window, so the membership mask
	//     in use is at most LeaseWindow old (mask TTL W/2 + walk W/2) at
	//     return — within the coordinator's AckHold, which guarantees no
	//     acknowledged write has skipped a node this walk read from.
	//   - The lease must still be valid at the same term, so the value was
	//     read entirely inside a window during which no later coordinator
	//     can have acknowledged anything.
	if time.Since(walkStart) > w/2 {
		return nil, ErrNoLease
	}
	if t2, ok := n.elector.Lease(w); !ok || t2 != term {
		return nil, ErrNoLease
	}
	return val, nil
}

// Role returns the node's current role.
func (n *CPUNode) Role() Role { return Role(n.role.Load()) }

// Term returns the term this node coordinates (0 if not coordinator).
func (n *CPUNode) Term() uint16 { return uint16(n.term.Load()) }

// Store returns the key-value store when this node is the coordinator, or
// nil. The store may be concurrently closed by a demotion; callers must
// treat kv.ErrClosed as "retry against the new coordinator".
func (n *CPUNode) Store() *kv.Store { return n.store.Load() }

// Elections, Promotions, Demotions, Dethronements return lifecycle counters.
func (n *CPUNode) Elections() uint64     { return n.elections.Load() }
func (n *CPUNode) Promotions() uint64    { return n.promotions.Load() }
func (n *CPUNode) Demotions() uint64     { return n.demotions.Load() }
func (n *CPUNode) Dethronements() uint64 { return n.dethronements.Load() }

func (n *CPUNode) setRole(r Role) {
	if Role(n.role.Swap(int32(r))) != r && n.cfg.OnRoleChange != nil {
		n.cfg.OnRoleChange(r)
	}
}

// Run drives the node until ctx is cancelled. It blocks.
func (n *CPUNode) Run(ctx context.Context) error {
	defer n.elector.Close()
	var observed map[string]election.Word
	for {
		n.setRole(Follower)
		var err error
		observed, err = n.elector.AwaitSuspicion(ctx)
		if err != nil {
			return err
		}
		n.setRole(Candidate)
		n.elections.Add(1)
		n.emit("election.campaign", 0, "suspicion of coordinator failure")
		term, outcome, err := n.elector.Campaign(ctx, observed)
		if err != nil {
			return err
		}
		if outcome != election.Won {
			n.emit("election.lost", 0, "another candidate won")
			continue // another node is (probably) coordinating; watch again
		}
		n.emit("election.won", term, "")
		n.coordinate(ctx, term)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// TakeOver campaigns immediately (seeded with the observed admin words) and,
// on winning, coordinates until demoted or ctx is cancelled. It returns
// whether this node actually coordinated. Shared backup pool workers use
// this entry point: the pool's watchers detect the failure, and the worker
// only campaigns once, returning to the pool if another candidate won.
func (n *CPUNode) TakeOver(ctx context.Context, observed map[string]election.Word) (bool, error) {
	n.setRole(Candidate)
	n.elections.Add(1)
	n.emit("election.campaign", 0, "takeover requested")
	term, outcome, err := n.elector.Campaign(ctx, observed)
	if err != nil {
		n.setRole(Follower)
		return false, err
	}
	if outcome != election.Won {
		n.emit("election.lost", 0, "another candidate won")
		n.setRole(Follower)
		return false, nil
	}
	n.emit("election.won", term, "")
	n.coordinate(ctx, term)
	n.setRole(Follower)
	return true, nil
}

// Close releases the node's election connections. Only call after Run or
// TakeOver has returned.
func (n *CPUNode) Close() {
	n.elector.Close()
	if n.backup != nil {
		n.backup.close()
	}
}

// coordinate runs one coordinatorship: build the replicated memory and KV
// layers, recover, then heartbeat until dethroned or cancelled.
func (n *CPUNode) coordinate(ctx context.Context, term uint16) {
	// Every backup read lease for a prior term is anchored at a heartbeat
	// round that started before this term's election CAS reached a majority
	// — which is before this function runs. Waiting out one lease window
	// from here (less however long recovery takes) therefore guarantees all
	// such leases have expired before this coordinator acknowledges its
	// first operation.
	takeoverStart := time.Now()

	n.mu.Lock()
	n.stepDown = make(chan struct{})
	stepDown := n.stepDown
	var once sync.Once
	fence := func() { once.Do(func() { close(stepDown) }) }
	n.mu.Unlock()

	// Start heartbeating immediately: log recovery can take longer than the
	// election timeout, and the lease must be renewed throughout it or the
	// backups would dethrone every new coordinator before it finishes
	// taking over.
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		ts := uint32(2) // the election round wrote timestamp 1
		ticker := time.NewTicker(n.elector.HeartbeatInterval())
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				fence()
				return
			case <-stepDown:
				return
			case <-ticker.C:
				ts++
				// Any heartbeat failure — dethroned or transport — means the
				// lease can no longer be defended, so fence either way.
				if err := n.elector.Heartbeat(term, ts); err != nil {
					n.dethronements.Add(1)
					n.emit("election.dethroned", term, err.Error())
					fence()
					return
				}
			}
		}
	}()
	defer func() {
		fence()
		<-hbDone
	}()

	// With backup reads enabled, no replicated state may be rewritten until
	// every lease from a prior term has expired: recovery and log replay
	// rewrite table blocks through older states, and a prior-term lease
	// holder reading mid-replay could return a value that regresses an
	// acknowledged write. Every such lease is anchored at a heartbeat round
	// that started before this term's election CAS reached a majority —
	// before this function runs — so waiting one lease window here, with
	// heartbeats already flowing, outlasts them all. New-term leases are
	// kept out of the replay window separately, by the serving word
	// published below.
	if n.cfg.BackupReads {
		if rem := n.cfg.LeaseWindow - time.Since(takeoverStart); rem > 0 {
			select {
			case <-time.After(rem):
			case <-stepDown:
				return
			case <-ctx.Done():
				return
			}
		}
	}

	// A configuration this node cannot build over — a stale-config refusal,
	// meaning a newer configuration was committed (possibly by a
	// reconfiguration whose commit was left ambiguous) — is resolved by
	// discovering and adopting the committed one and building again.
	// Anything else — lost quorum between election and takeover — forfeits
	// the term.
	mcfg := n.cfg.Memory
	mcfg.OnFenced = func() {
		n.emit("coordinator.fenced", term, "replicated memory fenced")
		fence()
	}
	mcfg.Term = term // tags membership publications; successors take the max
	if mcfg.Events == nil {
		mcfg.Events = n.cfg.Events
	}
	var mem *repmem.Memory
	for attempt := 0; ; attempt++ {
		snap := n.ConfigSnapshot()
		mcfg.MemoryNodes = snap.Members
		mcfg.Epoch = snap.Epoch
		mcfg.ECData, mcfg.ECParity = snap.ECData, snap.ECParity
		if snap.ECBlockSize > 0 {
			mcfg.ECBlockSize = snap.ECBlockSize
		}
		var err error
		if mem, err = repmem.New(mcfg); err == nil {
			break
		}
		if !errors.Is(err, repmem.ErrStaleConfig) || attempt == 8 || !n.discoverAndAdopt() {
			return
		}
	}
	recoverStart := time.Now()
	if err := mem.Recover(); err != nil {
		mem.Close()
		return
	}
	memRecover := time.Since(recoverStart)
	store, err := kv.New(mem, n.cfg.KV)
	if err != nil {
		mem.Close()
		return
	}
	stopRecovery := mem.StartRecovery(n.cfg.NodeRecoveryInterval)
	stopScrub := func() {}
	if n.cfg.ScrubInterval > 0 {
		stopScrub = mem.StartScrub(n.cfg.ScrubInterval)
	}

	if n.cfg.BackupReads {
		// Takeover complete: recovery and replay are done, so lease holders
		// at this term may now trust what they read.
		mem.PublishServing()
	}

	n.term.Store(uint32(term))
	n.store.Store(store)
	n.setRole(Coordinator)
	n.promotions.Add(1)
	n.emit("coordinator.promoted", term, takeoverDetail(time.Since(takeoverStart), memRecover, store.Recovery()))

	select {
	case <-ctx.Done():
	case <-stepDown:
	}
	n.store.Store(nil)
	stopRecovery()
	stopScrub()
	store.Close()
	mem.Close()
	n.term.Store(0)
	n.demotions.Add(1)
	n.emit("coordinator.demoted", term, "")
}

// takeoverDetail is the promotion event's account of where a takeover's time
// went and how much of the KV log it had to apply again: "why was this group
// unavailable" in one line. total runs from the election win.
func takeoverDetail(total, memRecover time.Duration, r kv.Recovery) string {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	return fmt.Sprintf("takeover total=%.1fms mem_recover=%.1fms kv_tables=%.1fms scan=%.1fms log_read=%.1fms reconcile=%.1fms rewrite=%.1fms replay=%.1fms"+
		" entries=%d read_slots=%d mark=%d above_mark=%d replayed_records=%d chain_reads=%d",
		ms(total), ms(memRecover), ms(r.Tables), ms(r.Scan), ms(r.LogRead), ms(r.Reconcile), ms(r.Rewrite), ms(r.Replay),
		r.Scanned, r.ReadSlots, r.Mark, r.Above, r.Replayed, r.ChainReads)
}

// Memory returns the coordinator's replicated memory handle, or nil. It is
// exposed for instrumentation (benchmarks read repmem.Stats through it).
func (n *CPUNode) MemoryStats() (repmem.Stats, bool) {
	s := n.store.Load()
	if s == nil {
		return repmem.Stats{}, false
	}
	return s.MemoryStats(), true
}
