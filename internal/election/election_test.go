package election

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/repro/sift/internal/rdma"
)

func TestWordPackUnpack(t *testing.T) {
	f := func(term, node uint16, ts uint32) bool {
		w := Word{Term: term, Node: node, Timestamp: ts}
		return Unpack(w.Pack()) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordNewer(t *testing.T) {
	base := Word{Term: 5, Node: 1, Timestamp: 100}
	cases := []struct {
		w    Word
		want bool
	}{
		{Word{Term: 6, Node: 2, Timestamp: 0}, true},    // higher term wins
		{Word{Term: 4, Node: 2, Timestamp: 999}, false}, // lower term loses
		{Word{Term: 5, Node: 2, Timestamp: 101}, true},  // same term, fresher ts
		{Word{Term: 5, Node: 2, Timestamp: 100}, false}, // identical ts is not newer
		{Word{Term: 5, Node: 2, Timestamp: 99}, false},
	}
	for i, c := range cases {
		if got := c.w.Newer(base); got != c.want {
			t.Errorf("case %d: Newer = %v, want %v", i, got, c.want)
		}
	}
}

// TestWordNewerTimestampWraparound is the regression test for the uint32
// heartbeat-counter wrap bug: after ~4.3B beats (~348 days at the default
// 7 ms interval) the coordinator's timestamp wraps to small values, and the
// pre-fix plain > comparison made every post-wrap heartbeat look stale —
// followers would stop resetting their missed-beat counters and dethrone a
// perfectly live coordinator. Serial-number comparison must see heartbeats
// as fresh straight across the wrap point.
func TestWordNewerTimestampWraparound(t *testing.T) {
	const maxTS = ^uint32(0)
	cases := []struct {
		name     string
		old, new uint32
		want     bool
	}{
		{"last pre-wrap beat", maxTS - 1, maxTS, true},
		{"wrap to zero", maxTS, 0, true},
		{"wrap past zero", maxTS, 5, true},
		{"several beats across the wrap", maxTS - 3, 2, true},
		{"stale pre-wrap value is not fresher", 2, maxTS, false},
		{"equal is not newer", maxTS, maxTS, false},
		{"ordinary advance still works", 100, 101, true},
		{"ordinary regression still rejected", 101, 100, false},
		{"just under half window ahead", 0, 1<<31 - 1, true},
		{"more than half window ahead is stale", 0, 1<<31 + 1, false},
	}
	for _, c := range cases {
		old := Word{Term: 7, Node: 1, Timestamp: c.old}
		new := Word{Term: 7, Node: 1, Timestamp: c.new}
		if got := new.Newer(old); got != c.want {
			t.Errorf("%s: Newer(ts %d over %d) = %v, want %v", c.name, c.new, c.old, got, c.want)
		}
	}
	// The follower-side suspicion loop keys off exactly this comparison: a
	// heartbeat sequence running over the wrap must keep reading as fresh.
	last := Word{Term: 7, Node: 1, Timestamp: maxTS - 2}
	for i := 0; i < 6; i++ {
		next := Word{Term: 7, Node: 1, Timestamp: last.Timestamp + 1}
		if !next.Newer(last) {
			t.Fatalf("beat %d (ts %d -> %d) read as stale across wrap", i, last.Timestamp, next.Timestamp)
		}
		last = next
	}
}

// testGroup wires an in-process network with n memory nodes exposing admin
// region 1, and returns a config factory for CPU nodes.
func testGroup(t *testing.T, n int) (*rdma.Network, []string, func(id uint16) Config) {
	t.Helper()
	nw := rdma.NewNetwork(nil)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = string(rune('a' + i))
		node := rdma.NewNode(names[i])
		node.Alloc(1, 64, false)
		nw.AddNode(node)
	}
	mk := func(id uint16) Config {
		return Config{
			NodeID:      id,
			MemoryNodes: names,
			Dial: func(node string) (rdma.Verbs, error) {
				return nw.Dial("cpu", node, rdma.DialOpts{})
			},
			AdminRegion:       1,
			HeartbeatInterval: time.Millisecond,
			ReadInterval:      time.Millisecond,
			MissedBeats:       3,
			Seed:              int64(id) + 100,
		}
	}
	return nw, names, mk
}

func TestSingleCandidateWins(t *testing.T) {
	_, _, mk := testGroup(t, 3)
	e := New(mk(1))
	defer e.Close()
	term, outcome, err := e.Campaign(context.Background(), nil)
	if err != nil || outcome != Won {
		t.Fatalf("campaign: term=%d outcome=%v err=%v", term, outcome, err)
	}
	if term != 1 {
		t.Fatalf("first term = %d, want 1", term)
	}
	// Winner's word must be on all reachable nodes' admin regions.
	words, best, err := e.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if best.Term != 1 || best.Node != 1 {
		t.Fatalf("best word = %+v", best)
	}
	if len(words) != 3 {
		t.Fatalf("read %d words", len(words))
	}
}

func TestHeartbeatRenewsAndAdvances(t *testing.T) {
	_, _, mk := testGroup(t, 3)
	e := New(mk(1))
	defer e.Close()
	term, _, _ := e.Campaign(context.Background(), nil)
	for ts := uint32(2); ts < 10; ts++ {
		if err := e.Heartbeat(term, ts); err != nil {
			t.Fatalf("heartbeat ts=%d: %v", ts, err)
		}
	}
	_, best, _ := e.ReadAll()
	if best.Timestamp != 9 || best.Term != term {
		t.Fatalf("best after heartbeats = %+v", best)
	}
}

func TestAtMostOneWinnerPerTerm(t *testing.T) {
	// All candidates run the full follower/candidate loop concurrently. The
	// safety property is that no term ever has two winners; liveness is that
	// some candidate eventually wins. Repeat to shake out races.
	for round := 0; round < 10; round++ {
		_, _, mk := testGroup(t, 5)
		const candidates = 4
		type res struct {
			id   uint16
			term uint16
		}
		ch := make(chan res, candidates*4)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for id := uint16(1); id <= candidates; id++ {
			wg.Add(1)
			go func(id uint16) {
				defer wg.Done()
				e := New(mk(id))
				defer e.Close()
				// Follower/candidate loop, as run by the core package: a
				// candidate that loses returns to follower and re-campaigns
				// if no coordinator heartbeat shows up.
				var words map[string]Word
				for {
					term, outcome, err := e.Campaign(ctx, words)
					if err != nil {
						return // ctx cancelled
					}
					if outcome == Won {
						ch <- res{id, term}
						cancel() // stop the others; winner found
						return
					}
					var werr error
					words, werr = e.AwaitSuspicion(ctx)
					if werr != nil {
						return
					}
				}
			}(id)
		}
		wg.Wait()
		cancel()
		close(ch)
		winners := map[uint16][]uint16{} // term -> winner ids
		for r := range ch {
			winners[r.term] = append(winners[r.term], r.id)
		}
		if len(winners) == 0 {
			t.Fatalf("round %d: no winner at all", round)
		}
		for term, ids := range winners {
			if len(ids) > 1 {
				t.Fatalf("round %d: term %d has %d winners: %v", round, term, len(ids), ids)
			}
		}
	}
}

func TestDethroneOldCoordinator(t *testing.T) {
	_, _, mk := testGroup(t, 3)
	e1 := New(mk(1))
	defer e1.Close()
	term1, outcome, _ := e1.Campaign(context.Background(), nil)
	if outcome != Won {
		t.Fatal("e1 should win")
	}
	if err := e1.Heartbeat(term1, 2); err != nil {
		t.Fatal(err)
	}

	// A second CPU node campaigns (as if it suspected e1 dead).
	e2 := New(mk(2))
	defer e2.Close()
	words, _, _ := e2.ReadAll()
	term2, outcome, _ := e2.Campaign(context.Background(), words)
	if outcome != Won {
		t.Fatalf("e2 outcome = %v", outcome)
	}
	if term2 <= term1 {
		t.Fatalf("term2 = %d, not above term1 = %d", term2, term1)
	}

	// e1's next heartbeat must fail with ErrDethroned.
	if err := e1.Heartbeat(term1, 3); !errors.Is(err, ErrDethroned) {
		t.Fatalf("old coordinator heartbeat: err = %v, want ErrDethroned", err)
	}
	// And e2's heartbeats keep working.
	if err := e2.Heartbeat(term2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestAwaitSuspicionFiresOnSilence(t *testing.T) {
	_, _, mk := testGroup(t, 3)
	e1 := New(mk(1))
	defer e1.Close()
	term, _, _ := e1.Campaign(context.Background(), nil)
	e1.Heartbeat(term, 2)

	follower := New(mk(2))
	defer follower.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	words, err := follower.AwaitSuspicion(ctx)
	if err != nil {
		t.Fatalf("AwaitSuspicion: %v", err)
	}
	if len(words) == 0 {
		t.Fatal("no observed words returned")
	}
	// With 1ms reads and 3 missed beats, suspicion should fire in a few ms
	// of coordinator silence (we never heartbeat again after ts=2).
	if time.Since(start) > time.Second {
		t.Fatalf("suspicion took %v", time.Since(start))
	}
}

func TestAwaitSuspicionHoldsWhileHeartbeating(t *testing.T) {
	_, _, mk := testGroup(t, 3)
	e1 := New(mk(1))
	defer e1.Close()
	term, _, _ := e1.Campaign(context.Background(), nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ts := uint32(2)
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				ts++
				e1.Heartbeat(term, ts)
			}
		}
	}()

	follower := New(mk(2))
	defer follower.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := follower.AwaitSuspicion(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("suspicion fired despite live heartbeats: %v", err)
	}
	close(stop)
	wg.Wait()
}

func TestFailoverElectsNewCoordinator(t *testing.T) {
	nw, _, mk := testGroup(t, 3)
	e1 := New(mk(1))
	term1, _, _ := e1.Campaign(context.Background(), nil)
	e1.Heartbeat(term1, 2)
	e1.Close()
	_ = nw // e1 simply stops heartbeating (process death)

	follower := New(mk(2))
	defer follower.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	words, err := follower.AwaitSuspicion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	term2, outcome, err := follower.Campaign(ctx, words)
	if err != nil || outcome != Won {
		t.Fatalf("failover campaign: outcome=%v err=%v", outcome, err)
	}
	if term2 <= term1 {
		t.Fatalf("new term %d not above old %d", term2, term1)
	}
}

func TestElectionToleratesMinorityMemoryFailure(t *testing.T) {
	nw, names, mk := testGroup(t, 3)
	nw.Fabric().Kill(names[2]) // Fm = 1 failure
	e := New(mk(1))
	defer e.Close()
	term, outcome, err := e.Campaign(context.Background(), nil)
	if err != nil || outcome != Won {
		t.Fatalf("campaign with 1 dead memnode: outcome=%v err=%v", outcome, err)
	}
	if err := e.Heartbeat(term, 2); err != nil {
		t.Fatalf("heartbeat with 1 dead memnode: %v", err)
	}
}

func TestHeartbeatFailsWithoutQuorum(t *testing.T) {
	nw, names, mk := testGroup(t, 3)
	e := New(mk(1))
	defer e.Close()
	term, _, _ := e.Campaign(context.Background(), nil)
	nw.Fabric().Kill(names[0])
	nw.Fabric().Kill(names[1])
	if err := e.Heartbeat(term, 2); !errors.Is(err, ErrDethroned) {
		t.Fatalf("heartbeat without quorum: err = %v, want ErrDethroned", err)
	}
}

func TestReadAllNoQuorum(t *testing.T) {
	nw, names, mk := testGroup(t, 3)
	for _, n := range names[:2] {
		nw.Fabric().Kill(n)
	}
	e := New(mk(1))
	defer e.Close()
	if _, _, err := e.ReadAll(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestHeartbeatRepairsStragglerNode(t *testing.T) {
	// Node c misses the election (down), comes back, and must be brought to
	// the current term by heartbeats.
	nw, names, mk := testGroup(t, 3)
	nw.Fabric().Kill(names[2])
	e := New(mk(1))
	defer e.Close()
	term, _, _ := e.Campaign(context.Background(), nil)
	nw.Fabric().Restart(names[2])
	if err := e.Heartbeat(term, 2); err != nil {
		t.Fatal(err)
	}
	// After enough rounds the straggler must carry the current word.
	if err := e.Heartbeat(term, 3); err != nil {
		t.Fatal(err)
	}
	words, _, _ := e.ReadAll()
	w, ok := words[names[2]]
	if !ok {
		t.Fatal("straggler unreadable")
	}
	if w.Term != term {
		t.Fatalf("straggler word = %+v, want term %d", w, term)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{NodeID: 3}
	c := cfg.withDefaults()
	if c.HeartbeatInterval <= 0 || c.ReadInterval <= 0 || c.MissedBeats <= 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.BackoffMax <= c.BackoffMin {
		t.Fatal("backoff bounds inverted")
	}
	if c.Seed == 0 {
		t.Fatal("seed not derived")
	}
}

// TestUpdateMembersReconfigures exercises the elector's reconfiguration
// hook: after an online membership change the heartbeat/read rounds must
// run against the new list (writing the winner's word onto joining nodes,
// never touching removed ones) and the quorum size must follow the list.
func TestUpdateMembersReconfigures(t *testing.T) {
	nw, names, mk := testGroup(t, 3)
	e := New(mk(1))
	defer e.Close()
	term, outcome, err := e.Campaign(context.Background(), nil)
	if err != nil || outcome != Won {
		t.Fatalf("campaign: outcome=%v err=%v", outcome, err)
	}
	if err := e.Heartbeat(term, 2); err != nil {
		t.Fatal(err)
	}

	// Join "x" and "y", drop names[0]: 3 -> 4 members, quorum 2 -> 3.
	for _, fresh := range []string{"x", "y"} {
		node := rdma.NewNode(fresh)
		node.Alloc(1, 64, false)
		nw.AddNode(node)
	}
	members := []string{names[1], names[2], "x", "y"}
	e.UpdateMembers(members)
	if got := e.Members(); len(got) != 4 || got[3] != "y" {
		t.Fatalf("Members() = %v, want %v", got, members)
	}
	if got := e.Majority(); got != 3 {
		t.Fatalf("majority after growth = %d, want 3", got)
	}

	// Heartbeats now land on the new list, including the fresh nodes. A
	// single beat only guarantees a majority, so beat until both joiners
	// carry the winner's word.
	var words map[string]Word
	var best Word
	for ts := uint32(3); ; ts++ {
		if ts > 50 {
			t.Fatalf("fresh nodes never saw a heartbeat: %+v", words)
		}
		if err := e.Heartbeat(term, ts); err != nil {
			t.Fatalf("heartbeat on new members: %v", err)
		}
		var err error
		if words, best, err = e.ReadAll(); err != nil {
			t.Fatal(err)
		}
		if words["x"].Term == term && words["y"].Term == term {
			break
		}
	}
	if len(words) != 4 {
		t.Fatalf("read %d words after reconfiguration, want 4", len(words))
	}
	if best.Term != term || best.Timestamp < 3 {
		t.Fatalf("best word after reconfiguration = %+v", best)
	}

	// The removed node's word must stop advancing: it keeps whatever beat
	// it last saw while the survivors move on.
	obs, err := nw.Dial("observer", names[0], rdma.DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	var buf [8]byte
	if err := obs.Read(1, 0, buf[:]); err != nil {
		t.Fatal(err)
	}
	stale := Unpack(binary.LittleEndian.Uint64(buf[:]))
	if stale.Timestamp >= 3 {
		t.Fatalf("removed node still receives heartbeats: %+v", stale)
	}

	// A fresh elector configured with the new list campaigns and dethrones
	// over the new quorum without ever contacting the removed node.
	e2 := New(Config{
		NodeID:      2,
		MemoryNodes: members,
		Dial: func(node string) (rdma.Verbs, error) {
			if node == names[0] {
				t.Errorf("new-config elector dialed removed node %s", node)
			}
			return nw.Dial("cpu2", node, rdma.DialOpts{})
		},
		AdminRegion:       1,
		HeartbeatInterval: time.Millisecond,
		ReadInterval:      time.Millisecond,
		MissedBeats:       3,
		Seed:              7,
	})
	defer e2.Close()
	words2, _, err := e2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	term2, outcome2, err := e2.Campaign(context.Background(), words2)
	if err != nil || outcome2 != Won {
		t.Fatalf("takeover campaign: outcome=%v err=%v", outcome2, err)
	}
	if term2 <= term {
		t.Fatalf("takeover term %d not beyond %d", term2, term)
	}

	// Shrink back to 3 and check the quorum follows down.
	e2.UpdateMembers(members[:3])
	if got := e2.Majority(); got != 2 {
		t.Fatalf("majority after shrink = %d, want 2", got)
	}
}

// readCountingConn counts the reads made through it.
type readCountingConn struct {
	rdma.Verbs
	n *atomic.Int32
}

func (c readCountingConn) Read(region rdma.RegionID, off uint64, buf []byte) error {
	err := c.Verbs.Read(region, off, buf)
	c.n.Add(1)
	return err
}

// TestAwaitSuspicionRestartsOnMemberChange: a follower retargeted onto a
// member set whose words are older than its last observation — the set a
// reconfiguration returns to, which the coordinator has not heartbeated
// since — must not count the rounds before the coordinator's first
// heartbeat there as missed beats. Here the new set stays stale for
// MissedBeats rounds, then advances: no suspicion.
func TestAwaitSuspicionRestartsOnMemberChange(t *testing.T) {
	nw, names, mk := testGroup(t, 3)
	next := []string{"x", "y", "z"}
	for _, n := range next {
		node := rdma.NewNode(n)
		node.Alloc(1, 64, false)
		nw.AddNode(node)
	}
	setWords := func(nodes []string, w Word) {
		for _, n := range nodes {
			c, err := nw.Dial("test", n, rdma.DialOpts{})
			if err != nil {
				t.Fatal(err)
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], w.Pack())
			if err := c.Write(1, 0, buf[:]); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
	}
	setWords(names, Word{Term: 1, Node: 1, Timestamp: 10})
	setWords(next, Word{Term: 1, Node: 1, Timestamp: 5})

	var readsA, readsX atomic.Int32
	cfg := mk(2)
	cfg.ReadInterval = 50 * time.Millisecond
	dial := cfg.Dial
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		c, err := dial(node)
		switch {
		case err != nil:
		case node == names[0]:
			c = readCountingConn{Verbs: c, n: &readsA}
		case node == next[0]:
			c = readCountingConn{Verbs: c, n: &readsX}
		}
		return c, err
	}
	follower := New(cfg)
	defer follower.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	suspected := make(chan error, 1)
	go func() {
		_, err := follower.AwaitSuspicion(ctx)
		suspected <- err
	}()
	// rounds waits for the follower's want-th read of a node, failing if
	// it suspects the coordinator first.
	rounds := func(n *atomic.Int32, want int32) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); n.Load() < want; time.Sleep(100 * time.Microsecond) {
			select {
			case err := <-suspected:
				t.Fatalf("suspected the coordinator after %d rounds over a set it had not heartbeated yet (err=%v)", n.Load(), err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d read rounds never happened", want)
			}
		}
	}
	rounds(&readsA, 1)
	follower.UpdateMembers(next)
	rounds(&readsX, int32(cfg.MissedBeats))
	setWords(next, Word{Term: 1, Node: 1, Timestamp: 11})
	rounds(&readsX, int32(cfg.MissedBeats)+2)
}
