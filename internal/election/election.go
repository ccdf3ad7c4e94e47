// Package election implements Sift's coordinator election and heartbeat
// protocol (paper §3.2).
//
// The protocol involves no communication between CPU nodes. Each memory
// node's administrative region holds one 8-byte word packing
// (term_id, node_id, timestamp). The coordinator renews its lease by
// CAS-advancing the timestamp on every memory node; backup CPU nodes poll
// the word and, after a configurable number of missed heartbeats, campaign
// by CAS-installing (term+1, self, ts) on each memory node. Whoever CASes a
// majority of the admin words owns the term — the operation "closely
// resembles the locking of spinlocks" one-sidedly.
package election

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/repro/sift/internal/rdma"
)

// Protocol errors.
var (
	// ErrDethroned is returned by Heartbeat when the coordinator discovers a
	// higher term on a majority of memory nodes (it has been replaced).
	ErrDethroned = errors.New("election: coordinator dethroned by higher term")
	// ErrNoQuorum is returned when a majority of memory nodes is unreachable.
	ErrNoQuorum = errors.New("election: majority of memory nodes unreachable")
)

// Word is the administrative heartbeat word. The paper gives term_id and
// node_id 16 bits each and the timestamp 32 bits, which together fit exactly
// into one RDMA CAS operand.
type Word struct {
	Term      uint16
	Node      uint16
	Timestamp uint32
}

// Pack serialises the word into a CAS operand:
// term in bits 48..63, node in bits 32..47, timestamp in bits 0..31.
func (w Word) Pack() uint64 {
	return uint64(w.Term)<<48 | uint64(w.Node)<<32 | uint64(w.Timestamp)
}

// Unpack parses a CAS operand into a Word.
func Unpack(v uint64) Word {
	return Word{
		Term:      uint16(v >> 48),
		Node:      uint16(v >> 32),
		Timestamp: uint32(v),
	}
}

// Newer reports whether w supersedes old: a higher term always wins; within
// a term, a fresher heartbeat timestamp wins. The timestamp is a uint32
// beat counter that wraps after ~4.3B beats (~348 days at the default 7 ms
// interval), so freshness is judged by RFC 1982 serial-number arithmetic —
// w is newer when it is ahead of old by less than half the counter space —
// rather than plain >, which would make a live coordinator look stale the
// moment its counter wrapped past a follower's last observation.
func (w Word) Newer(old Word) bool {
	if w.Term != old.Term {
		return w.Term > old.Term
	}
	return w.Timestamp != old.Timestamp && int32(w.Timestamp-old.Timestamp) > 0
}

// Dialer opens an RDMA connection to the named memory node's admin region.
type Dialer func(node string) (rdma.Verbs, error)

// Config parameterises an Elector.
type Config struct {
	// NodeID identifies this CPU node in heartbeat words.
	NodeID uint16
	// MemoryNodes lists the group's memory nodes (2Fm+1 of them).
	MemoryNodes []string
	// Dial opens an admin-region connection to a memory node.
	Dial Dialer
	// AdminRegion and AdminOffset locate the heartbeat word.
	AdminRegion rdma.RegionID
	AdminOffset uint64

	// HeartbeatInterval is the coordinator's write period. The paper's
	// recovery experiment uses 7ms reads with 3 missed beats tolerated.
	HeartbeatInterval time.Duration
	// ReadInterval is the follower's heartbeat read period.
	ReadInterval time.Duration
	// MissedBeats is how many unchanged reads a follower tolerates before
	// campaigning.
	MissedBeats int
	// BackoffMin/BackoffMax bound the random pause after a split election.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed makes the random backoff deterministic for tests; 0 derives one
	// from NodeID.
	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 7 * time.Millisecond
	}
	if out.ReadInterval <= 0 {
		out.ReadInterval = 7 * time.Millisecond
	}
	if out.MissedBeats <= 0 {
		out.MissedBeats = 3
	}
	if out.BackoffMin <= 0 {
		out.BackoffMin = 2 * time.Millisecond
	}
	if out.BackoffMax <= out.BackoffMin {
		out.BackoffMax = out.BackoffMin + 8*time.Millisecond
	}
	if out.Seed == 0 {
		out.Seed = int64(out.NodeID) + 1
	}
	return out
}

// Elector drives heartbeat reads/writes and CAS elections for one CPU node.
type Elector struct {
	cfg Config
	rng *rand.Rand

	mu       sync.Mutex
	members  []string // current member list; starts as cfg.MemoryNodes
	conns    map[string]rdma.Verbs
	lastSeen map[string]Word // most recent word observed on each memory node

	// Read-lease state, piggybacked on the heartbeat read rounds the
	// follower performs anyway (no extra RDMA operations). A round is
	// lease-good when a majority of admin words carry one term T and no
	// word carries a higher term; the lease anchors at the round's START
	// time: by quorum intersection, term T+1's election CAS cannot have
	// completed on a majority before the round began, so any T+1
	// coordinator that delays its first acknowledgement by the lease
	// window W is guaranteed this lease has expired first.
	leaseMu     sync.Mutex
	leaseAnchor time.Time
	leaseTerm   uint16
}

// New creates an Elector. It opens connections lazily, so construction never
// blocks on unreachable memory nodes.
func New(cfg Config) *Elector {
	c := cfg.withDefaults()
	return &Elector{
		cfg:      c,
		members:  append([]string(nil), c.MemoryNodes...),
		rng:      rand.New(rand.NewSource(c.Seed)),
		conns:    make(map[string]rdma.Verbs),
		lastSeen: make(map[string]Word),
	}
}

// Majority returns the quorum size for the current member list.
func (e *Elector) Majority() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.majorityLocked()
}

func (e *Elector) majorityLocked() int { return len(e.members)/2 + 1 }

// memberSnapshot returns the current member list for one protocol round.
func (e *Elector) memberSnapshot() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.members...)
}

// Members returns the current member list.
func (e *Elector) Members() []string { return e.memberSnapshot() }

// UpdateMembers switches the elector to a new member list (an online
// reconfiguration changed the group's memory nodes). Connections and cached
// words for removed nodes are dropped; heartbeats, read rounds, and future
// campaigns run against the new list from the next round on. The heartbeat
// words on the surviving and fresh nodes carry over — a reconfiguration
// changes the member set, not the term.
func (e *Elector) UpdateMembers(nodes []string) {
	e.mu.Lock()
	keep := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		keep[n] = true
	}
	var drop []rdma.Verbs
	for n, c := range e.conns {
		if !keep[n] {
			drop = append(drop, c)
			delete(e.conns, n)
		}
	}
	for n := range e.lastSeen {
		if !keep[n] {
			delete(e.lastSeen, n)
		}
	}
	e.members = append([]string(nil), nodes...)
	e.mu.Unlock()
	for _, c := range drop {
		c.Close()
	}
}

// NodeID returns the configured CPU node id.
func (e *Elector) NodeID() uint16 { return e.cfg.NodeID }

func (e *Elector) conn(node string) (rdma.Verbs, error) {
	e.mu.Lock()
	c := e.conns[node]
	e.mu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := e.cfg.Dial(node)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if existing := e.conns[node]; existing != nil {
		e.mu.Unlock()
		c.Close()
		return existing, nil
	}
	e.conns[node] = c
	e.mu.Unlock()
	return c, nil
}

func (e *Elector) dropConn(node string) {
	e.mu.Lock()
	if c := e.conns[node]; c != nil {
		c.Close()
		delete(e.conns, node)
	}
	e.mu.Unlock()
}

// Close releases all connections.
func (e *Elector) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for n, c := range e.conns {
		c.Close()
		delete(e.conns, n)
	}
}

// readWord reads one memory node's admin word.
func (e *Elector) readWord(node string) (Word, error) {
	c, err := e.conn(node)
	if err != nil {
		return Word{}, err
	}
	var buf [8]byte
	if err := c.Read(e.cfg.AdminRegion, e.cfg.AdminOffset, buf[:]); err != nil {
		e.dropConn(node)
		return Word{}, err
	}
	w := Unpack(uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
		uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56)
	e.mu.Lock()
	e.lastSeen[node] = w
	e.mu.Unlock()
	return w, nil
}

// ReadAll performs one heartbeat read round. It returns the words it could
// read and the freshest word overall. err is ErrNoQuorum when fewer than a
// majority of nodes responded.
func (e *Elector) ReadAll() (words map[string]Word, best Word, err error) {
	roundStart := time.Now()
	nodes := e.memberSnapshot()
	words = make(map[string]Word, len(nodes))
	type result struct {
		node string
		w    Word
		err  error
	}
	ch := make(chan result, len(nodes))
	for _, node := range nodes {
		go func(node string) {
			w, err := e.readWord(node)
			ch <- result{node, w, err}
		}(node)
	}
	for range nodes {
		r := <-ch
		if r.err != nil {
			continue
		}
		words[r.node] = r.w
		if r.w.Newer(best) {
			best = r.w
		}
	}
	e.noteLeaseRound(roundStart, words, best)
	if len(words) < e.Majority() {
		return words, best, ErrNoQuorum
	}
	return words, best, nil
}

// noteLeaseRound updates the read-lease state after one read round. best is
// the freshest word observed, so "no higher term" holds exactly when a
// majority of the readable words carry best.Term.
func (e *Elector) noteLeaseRound(roundStart time.Time, words map[string]Word, best Word) {
	if best.Term == 0 {
		return // no coordinator has ever owned a term
	}
	atTerm := 0
	for _, w := range words {
		if w.Term == best.Term {
			atTerm++
		}
	}
	if atTerm < e.Majority() {
		return
	}
	e.leaseMu.Lock()
	e.leaseAnchor = roundStart
	e.leaseTerm = best.Term
	e.leaseMu.Unlock()
}

// Lease reports whether this node holds a valid read lease for window w:
// within the last w, a full read round (anchored at its start) observed a
// majority of memory nodes agreeing on one term with no higher term in
// sight. It returns that term. Backup CPU nodes gate replicated-memory
// reads on this.
func (e *Elector) Lease(w time.Duration) (uint16, bool) {
	e.leaseMu.Lock()
	defer e.leaseMu.Unlock()
	if e.leaseTerm == 0 || time.Since(e.leaseAnchor) >= w {
		return 0, false
	}
	return e.leaseTerm, true
}

// AwaitSuspicion blocks in the follower role, performing heartbeat reads
// every ReadInterval, and returns the last observed per-node words once
// MissedBeats consecutive rounds show no fresher heartbeat (coordinator
// suspected dead) — or ctx is cancelled. Rounds where a majority of nodes
// is unreachable do not count as missed beats: the follower cannot
// distinguish its own partition from a coordinator failure, and campaigning
// would be futile without a quorum anyway. A round over a member set other
// than the previous round's starts the count again: the new set's words are
// whatever the coordinator last wrote there — nothing, for a fresh node —
// until its first heartbeat round on the new set.
func (e *Elector) AwaitSuspicion(ctx context.Context) (map[string]Word, error) {
	var last Word
	var members []string
	missed := 0
	ticker := time.NewTicker(e.cfg.ReadInterval)
	defer ticker.Stop()
	for {
		now := e.memberSnapshot()
		words, best, err := e.ReadAll()
		if err == nil {
			if !slices.Equal(now, members) || best.Newer(last) {
				last, members = best, now
				missed = 0
			} else {
				missed++
				if missed >= e.cfg.MissedBeats {
					return words, nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Outcome describes the result of one campaign.
type Outcome int

// Campaign outcomes.
const (
	// Won: this node now owns the term and must start coordinating.
	Won Outcome = iota
	// Lost: another CPU node owns a term at least as new; return to follower.
	Lost
	// Retry: split vote; back off and campaign again with a higher term.
	Retry
)

// Campaign runs election rounds until this node wins, observes a competing
// coordinator (Lost), or ctx is cancelled. On Won it returns the term now
// owned. observed seeds the CAS expected values (typically the map returned
// by AwaitSuspicion); missing nodes fall back to the elector's internal
// last-seen cache.
func (e *Elector) Campaign(ctx context.Context, observed map[string]Word) (uint16, Outcome, error) {
	if len(observed) == 0 {
		e.mu.Lock()
		empty := len(e.lastSeen) == 0
		e.mu.Unlock()
		if empty {
			// Cold start: seed the CAS expected values with a read round.
			e.ReadAll()
		}
	}
	e.mu.Lock()
	for n, w := range observed {
		e.lastSeen[n] = w
	}
	var maxSeen Word
	for _, w := range e.lastSeen {
		if w.Newer(maxSeen) {
			maxSeen = w
		}
	}
	e.mu.Unlock()

	term := maxSeen.Term
	for {
		term++ // candidates increment term_id for each round
		outcome := e.electionRound(term)
		switch outcome {
		case Won:
			return term, Won, nil
		case Lost:
			return 0, Lost, nil
		}
		// Split vote: random back-off, then retry with CAS values from the
		// most recent round (already cached in lastSeen by electionRound).
		e.mu.Lock()
		backoff := e.cfg.BackoffMin + time.Duration(e.rng.Int63n(int64(e.cfg.BackoffMax-e.cfg.BackoffMin)))
		e.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, Retry, ctx.Err()
		case <-time.After(backoff):
		}
	}
}

// electionRound CASes (term, self) onto every memory node and classifies the
// result.
func (e *Elector) electionRound(term uint16) Outcome {
	mine := Word{Term: term, Node: e.cfg.NodeID, Timestamp: 1}
	nodes := e.memberSnapshot()
	type result struct {
		node string
		ok   bool
		old  Word
		err  error
	}
	ch := make(chan result, len(nodes))
	for _, node := range nodes {
		go func(node string) {
			e.mu.Lock()
			expect := e.lastSeen[node]
			e.mu.Unlock()
			c, err := e.conn(node)
			if err != nil {
				ch <- result{node: node, err: err}
				return
			}
			old, err := c.CompareAndSwap(e.cfg.AdminRegion, e.cfg.AdminOffset, expect.Pack(), mine.Pack())
			if err != nil {
				e.dropConn(node)
				ch <- result{node: node, err: err}
				return
			}
			ch <- result{node: node, ok: old == expect.Pack(), old: Unpack(old)}
		}(node)
	}

	wonNodes := 0
	var maxObserved Word
	for range nodes {
		r := <-ch
		if r.err != nil {
			continue
		}
		if r.ok {
			wonNodes++
			e.mu.Lock()
			e.lastSeen[r.node] = mine
			e.mu.Unlock()
		} else {
			e.mu.Lock()
			e.lastSeen[r.node] = r.old // use returned value next round
			e.mu.Unlock()
			if r.old.Newer(maxObserved) {
				maxObserved = r.old
			}
		}
	}
	if wonNodes >= len(nodes)/2+1 {
		return Won
	}
	if maxObserved.Term >= term {
		// Another candidate reached at least our term; it may have the
		// majority we failed to get. Fall back to follower: if it is alive
		// its heartbeats will show, otherwise we will campaign again.
		return Lost
	}
	return Retry
}

// Heartbeat performs one coordinator heartbeat round for the owned term,
// CAS-advancing the timestamp on every memory node. It returns ErrDethroned
// when fewer than a majority of heartbeat writes succeed — either because a
// newer term exists or because the coordinator lost connectivity to a
// quorum; in both cases it must stop serving (paper §3.2).
//
// The round returns as soon as the quorum outcome is decided rather than
// draining every node: a hung (gray) minority member would otherwise pin
// every round at the full op deadline, stalling the published timestamp
// long enough for backups to suspect a healthy coordinator. Stragglers
// complete into the buffered channel and update lastSeen on their own.
func (e *Elector) Heartbeat(term uint16, timestamp uint32) error {
	mine := Word{Term: term, Node: e.cfg.NodeID, Timestamp: timestamp}
	nodes := e.memberSnapshot()
	type result struct {
		node     string
		ok       bool
		observed Word
	}
	ch := make(chan result, len(nodes))
	for _, node := range nodes {
		go func(node string) {
			e.mu.Lock()
			expect := e.lastSeen[node]
			e.mu.Unlock()
			c, err := e.conn(node)
			if err != nil {
				ch <- result{node: node}
				return
			}
			old, err := c.CompareAndSwap(e.cfg.AdminRegion, e.cfg.AdminOffset, expect.Pack(), mine.Pack())
			if err != nil {
				e.dropConn(node)
				ch <- result{node: node}
				return
			}
			if old == expect.Pack() {
				e.mu.Lock()
				e.lastSeen[node] = mine
				e.mu.Unlock()
				ch <- result{node: node, ok: true, observed: mine}
				return
			}
			obs := Unpack(old)
			e.mu.Lock()
			e.lastSeen[node] = obs
			e.mu.Unlock()
			// The node has a stale word (e.g. we never won its CAS during the
			// election). If it is from an older term, bring it up to date.
			if obs.Term <= term && !(obs.Term == term && obs.Node != e.cfg.NodeID) {
				old2, err2 := c.CompareAndSwap(e.cfg.AdminRegion, e.cfg.AdminOffset, old, mine.Pack())
				if err2 == nil && old2 == old {
					e.mu.Lock()
					e.lastSeen[node] = mine
					e.mu.Unlock()
					ch <- result{node: node, ok: true, observed: mine}
					return
				}
			}
			ch <- result{node: node, observed: obs}
		}(node)
	}
	renewed, failed := 0, 0
	n := len(nodes)
	maj := n/2 + 1
	for i := 0; i < n; i++ {
		r := <-ch
		if r.ok {
			if renewed++; renewed >= maj {
				return nil
			}
		} else {
			if failed++; failed > n-maj {
				return ErrDethroned
			}
		}
	}
	return ErrDethroned
}

// HeartbeatInterval exposes the configured write period.
func (e *Elector) HeartbeatInterval() time.Duration { return e.cfg.HeartbeatInterval }

// ReadInterval exposes the configured follower read period.
func (e *Elector) ReadInterval() time.Duration { return e.cfg.ReadInterval }
