package sift

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
)

// --- Online reconfiguration suite --------------------------------------
//
// The repmem-level tests (internal/repmem/reconfig_test.go) exercise the
// state-transfer pipeline and epoch commit against raw machines; the tests
// here drive the same machinery through the public cluster API under real
// client traffic, and assert the end-to-end properties the design argues
// for: linearizable histories across a rolling replacement of every memory
// node, byte-identity afterwards, and a removed-but-still-running node that
// can neither serve a backup read nor anchor a stale-config takeover.

// observerDial opens read-only connections from a synthetic endpoint so a
// test can build repmem Views over the live fabric without revoking the
// coordinator's exclusive write access.
func observerDial(cl *Cluster, from string) repmem.Dialer {
	return func(node string) (rdma.Verbs, error) {
		return cl.network.Dial(from, node, rdma.DialOpts{
			ReadOnly:   []rdma.RegionID{memnode.ReplRegionID},
			OpDeadline: cl.cfg.OpDeadline,
		})
	}
}

// readAdminWord reads one 8-byte admin-region word off a node.
func readAdminWord(t *testing.T, cl *Cluster, node string, offset uint64) uint64 {
	t.Helper()
	c, err := cl.network.Dial("probe", node, rdma.DialOpts{OpDeadline: cl.cfg.OpDeadline})
	if err != nil {
		t.Fatalf("dial %s: %v", node, err)
	}
	defer c.Close()
	var buf [8]byte
	if err := c.Read(memnode.AdminRegionID, offset, buf[:]); err != nil {
		t.Fatalf("read admin word %d on %s: %v", offset, node, err)
	}
	var w uint64
	for i := 7; i >= 0; i-- {
		w = w<<8 | uint64(buf[i])
	}
	return w
}

// readAdminEpoch reads a node's committed config-epoch word (high half of
// the packed word at AdminEpochOffset).
func readAdminEpoch(t *testing.T, cl *Cluster, node string) uint32 {
	t.Helper()
	return uint32(readAdminWord(t, cl, node, memnode.AdminEpochOffset) >> 16)
}

// eventsContain reports whether the control-plane event ring holds an
// event whose rendering contains substr.
func eventsContain(cl *Cluster, substr string) bool {
	var b strings.Builder
	cl.Events().Dump(&b)
	return strings.Contains(b.String(), substr)
}

// awaitConfigEpoch polls until a serving coordinator reports config epoch
// want. ConfigEpoch is 0 between a teardown and the next promotion, and a
// reconfiguration may race a coordinator failover, so epoch assertions
// must allow the dust to settle.
func awaitConfigEpoch(t *testing.T, cl *Cluster, want uint32) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if got := cl.ConfigEpoch(); got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("config epoch %d, want %d", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicasByteIdentical compares every member's whole replicated region:
// the direct zone, the main space and its checksum strip. Only meaningful
// under full replication, where replicas must converge.
func replicasByteIdentical(cl *Cluster) bool {
	layout := cl.mcfg.Layout()
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

// rollEveryMemoryNode replaces each of the cluster's original memory nodes
// in turn under whatever traffic is already running, bounding how long each
// replacement may take and probing that the cluster keeps serving right
// after each cutover. Returns the replacement names.
func rollEveryMemoryNode(t *testing.T, cl *Cluster) []string {
	t.Helper()
	victims := cl.MemoryNodes()
	probe := cl.Client()
	var added []string
	for i, victim := range victims {
		start := time.Now()
		name, err := cl.ReplaceMemoryNode(victim, "")
		if err != nil {
			t.Errorf("replace %s: %v", victim, err)
			return added
		}
		took := time.Since(start)
		if took > 15*time.Second {
			t.Errorf("replace %s took %v; reconfiguration must not stall the cluster", victim, took)
		}
		added = append(added, name)
		// Service-continuity probe: the store must answer promptly in the
		// new configuration — bounded degradation, not an outage.
		k := []byte(fmt.Sprintf("roll-probe-%d", i))
		pstart := time.Now()
		if err := probe.Put(k, []byte(victim)); err != nil {
			t.Errorf("probe put after replacing %s: %v", victim, err)
		}
		if v, err := probe.Get(k); err != nil || string(v) != victim {
			t.Errorf("probe get after replacing %s: %q, %v", victim, v, err)
		}
		if d := time.Since(pstart); d > 5*time.Second {
			t.Errorf("probe round-trip after replacing %s took %v", victim, d)
		}
		t.Logf("replaced %s -> %s in %v", victim, name, took)
		time.Sleep(50 * time.Millisecond)
	}
	return added
}

// TestReconfigRollingReplacement is the headline scenario: every memory
// node of a fully replicated group is live-replaced, one after another,
// while eight concurrent clients run a mixed workload. The recorded
// histories must linearize, the config epoch must have advanced once per
// replacement, and a full scrub over the final member set must find the
// replicas byte-identical.
func TestReconfigRollingReplacement(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cl := newTestCluster(t, smallConfig())
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	original := cl.MemoryNodes()

	runLinearizeClients(t, cl, 8, func() {
		time.Sleep(100 * time.Millisecond)
		rollEveryMemoryNode(t, cl)
		time.Sleep(100 * time.Millisecond)
	})

	awaitConfigEpoch(t, cl, uint32(1+len(original)))
	now := cl.MemoryNodes()
	for _, old := range original {
		for _, cur := range now {
			if cur == old {
				t.Fatalf("original node %s still in member set %v", old, now)
			}
		}
	}
	// Post-replacement integrity: scrub until a pass is clean and the
	// replicas agree byte for byte.
	deadline := time.Now().Add(20 * time.Second)
	for {
		rep, err := cl.ScrubNow()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Corrupt == 0 && rep.Unrepaired == 0 && replicasByteIdentical(cl) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged after rolling replacement; last scrub %+v", rep)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReconfigRollingReplacementEC repeats the rolling replacement with the
// main memory erasure-coded: each replacement must reconstruct the departed
// node's chunk content onto the newcomer (same member-list position, so the
// positional chunk layout is preserved) without losing a client write.
func TestReconfigRollingReplacementEC(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := smallConfig()
	cfg.ErasureCoding = true
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	original := cl.MemoryNodes()

	runLinearizeClients(t, cl, 8, func() {
		time.Sleep(100 * time.Millisecond)
		rollEveryMemoryNode(t, cl)
		time.Sleep(100 * time.Millisecond)
	})

	awaitConfigEpoch(t, cl, uint32(1+len(original)))
	// EC replicas are not identical (each holds a distinct chunk); the
	// checksum strip is the arbiter instead — a clean scrub means every
	// chunk on every node verifies.
	rep, err := cl.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Unrepaired != 0 {
		t.Fatalf("scrub after EC rolling replacement found damage: %+v", rep)
	}
}

// TestReconfigAddRemovePlain grows a fully replicated group by one node and
// then shrinks it back, checking data availability, epoch advancement and
// scrub cleanliness at each step, plus the API's validation errors.
func TestReconfigAddRemovePlain(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := cl.Client()
	const keys = 48
	for i := 0; i < keys; i++ {
		if err := c.Put([]byte(fmt.Sprintf("grow-%02d", i)), []byte(fmt.Sprintf("v-%02d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	added, err := cl.AddMemoryNode("")
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if n := len(cl.MemoryNodes()); n != 4 {
		t.Fatalf("member count %d after add, want 4", n)
	}
	awaitConfigEpoch(t, cl, 2)
	for i := 0; i < keys; i++ {
		v, err := c.Get([]byte(fmt.Sprintf("grow-%02d", i)))
		if err != nil || string(v) != fmt.Sprintf("v-%02d", i) {
			t.Fatalf("get %d after add: %q, %v", i, v, err)
		}
	}
	// The joiner must hold the same bytes as the veterans.
	deadline := time.Now().Add(10 * time.Second)
	for !replicasByteIdentical(cl) {
		if time.Now().After(deadline) {
			t.Fatal("joined node never reached byte-identity")
		}
		if _, err := cl.ScrubNow(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Error paths before the shrink.
	if _, err := cl.AddMemoryNode(added); err == nil {
		t.Fatal("adding an existing member succeeded")
	}
	if err := cl.RemoveMemoryNode("no-such-node"); err == nil {
		t.Fatal("removing an unknown node succeeded")
	}

	if err := cl.RemoveMemoryNode("mem1"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	now := cl.MemoryNodes()
	if len(now) != 3 {
		t.Fatalf("member count %d after remove, want 3", len(now))
	}
	for _, m := range now {
		if m == "mem1" {
			t.Fatalf("mem1 still a member after removal: %v", now)
		}
	}
	awaitConfigEpoch(t, cl, 3)
	for i := 0; i < keys; i++ {
		v, err := c.Get([]byte(fmt.Sprintf("grow-%02d", i)))
		if err != nil || string(v) != fmt.Sprintf("v-%02d", i) {
			t.Fatalf("get %d after remove: %q, %v", i, v, err)
		}
	}
	// The removed node's machine is still on the fabric, tombstoned with
	// the epoch that removed it.
	if got, want := readAdminWord(t, cl, "mem1", memnode.AdminRetiredOffset), uint64(cl.ConfigEpoch()); got != want {
		t.Fatalf("removed node retired word %d, want tombstone %d", got, want)
	}
}

// TestReconfigRestripeEC moves an erasure-coded group onto an entirely
// fresh member set (chunk placement is positional, so a member can stay
// only at its own chunk index under the same code) and checks the one-node
// add/remove verbs are refused under EC.
func TestReconfigRestripeEC(t *testing.T) {
	cfg := smallConfig()
	cfg.ErasureCoding = true
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := cl.Client()
	const keys = 32
	for i := 0; i < keys; i++ {
		if err := c.Put([]byte(fmt.Sprintf("ec-%02d", i)), []byte(fmt.Sprintf("chunk-%02d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	if _, err := cl.AddMemoryNode(""); err == nil {
		t.Fatal("single-node add on an EC group succeeded")
	}
	if err := cl.RemoveMemoryNode("mem0"); err == nil {
		t.Fatal("single-node remove on an EC group succeeded")
	}

	k, m := cl.mcfg.ECData, cl.mcfg.ECParity
	fresh := []string{"ecA", "ecB", "ecC"}
	if err := cl.RestripeMemoryNodes(fresh, k, m); err != nil {
		t.Fatalf("restripe: %v", err)
	}
	now := cl.MemoryNodes()
	if len(now) != len(fresh) || now[0] != "ecA" {
		t.Fatalf("member set %v after restripe, want %v", now, fresh)
	}
	awaitConfigEpoch(t, cl, 2)
	for i := 0; i < keys; i++ {
		v, err := c.Get([]byte(fmt.Sprintf("ec-%02d", i)))
		if err != nil || string(v) != fmt.Sprintf("chunk-%02d", i) {
			t.Fatalf("get %d after restripe: %q, %v", i, v, err)
		}
	}
	// The vacated nodes carry the retiring epoch's tombstone.
	for _, old := range []string{"mem0", "mem1", "mem2"} {
		if got := readAdminWord(t, cl, old, memnode.AdminRetiredOffset); got != 2 {
			t.Fatalf("vacated node %s retired word %d, want tombstone 2", old, got)
		}
	}
	rep, err := cl.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Unrepaired != 0 {
		t.Fatalf("scrub after restripe found damage: %+v", rep)
	}
}

// TestReconfigLinearizePlain runs linearizability-checked clients across
// every caller of the memory layer's one catch-up: a live replacement, a
// memory node killed, restarted empty and rebuilt, a dead node's
// replacement, and a one-node add followed by a remove.
func TestReconfigLinearizePlain(t *testing.T) { reconfigLinearize(t, false) }

// TestReconfigLinearizeEC is TestReconfigLinearizePlain erasure-coded, with
// a restripe onto a fresh member set in place of the add and remove, which an
// EC group refuses.
func TestReconfigLinearizeEC(t *testing.T) { reconfigLinearize(t, true) }

func reconfigLinearize(t *testing.T, ec bool) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := smallConfig()
	cfg.ErasureCoding = ec
	cfg.NodeRecoveryInterval = 10 * time.Millisecond
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	nodes := cl.MemoryNodes()
	awaitDead := func(node string) bool {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, h := range cl.Health() {
				if h.Node == node && h.State == "dead" {
					return true
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Errorf("%s never detected dead (health=%+v)", node, cl.Health())
		return false
	}
	runLinearizeClients(t, cl, 8, func() {
		pause := func() { time.Sleep(100 * time.Millisecond) }
		pause()
		if _, err := cl.ReplaceMemoryNode(nodes[0], ""); err != nil {
			t.Errorf("live replace of %s: %v", nodes[0], err)
			return
		}
		pause()
		recovered := cl.Stats().Memory.NodeRecovered
		cl.KillMemoryNode(nodes[1])
		if !awaitDead(nodes[1]) {
			return
		}
		cl.RestartMemoryNode(nodes[1])
		if err := cl.AwaitMemoryNodeRecovery(recovered+1, 20*time.Second); err != nil {
			t.Errorf("rebuild of %s: %v (health=%+v)", nodes[1], err, cl.Health())
			return
		}
		pause()
		cl.KillMemoryNode(nodes[2])
		if !awaitDead(nodes[2]) {
			return
		}
		if _, err := cl.ReplaceMemoryNode(nodes[2], ""); err != nil {
			t.Errorf("dead replace of %s: %v", nodes[2], err)
			return
		}
		pause()
		if ec {
			k, m := cl.mcfg.ECData, cl.mcfg.ECParity
			if err := cl.RestripeMemoryNodes([]string{"ecA", "ecB", "ecC"}, k, m); err != nil {
				t.Errorf("EC restripe onto a fresh set: %v", err)
			}
			pause()
			return
		}
		added, err := cl.AddMemoryNode("")
		if err != nil {
			t.Errorf("add: %v", err)
			return
		}
		pause()
		if err := cl.RemoveMemoryNode(added); err != nil {
			t.Errorf("remove %s: %v", added, err)
			return
		}
		pause()
	})
	for _, ev := range []string{"reconfig.replaced", "node.recovered"} {
		if !eventsContain(cl, ev) {
			t.Errorf("no %s event", ev)
		}
	}
}

// TestReconfigFencingStaleNode is the removed-node fencing regression: a
// memory node goes gray (host silent, DRAM intact), is replaced through the
// dead path — so the coordinator cannot write its retirement tombstone —
// and then comes back. The revenant keeps its entire pre-removal state and
// a stale epoch word, and the test asserts both planes still fence it: a
// backup reader over the old configuration fails the epoch/serving
// qualification, and a takeover attempt built from the old member list is
// refused with ErrStaleConfig by the survivors' epoch words alone.
func TestReconfigFencingStaleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := grayConfig()
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := cl.Client()
	if err := c.Put([]byte("fence-key"), []byte("fence-val")); err != nil {
		t.Fatal(err)
	}

	oldMembers := append([]string(nil), cl.MemoryNodes()...)
	oldEpoch := cl.ConfigEpoch()
	victim := oldMembers[1]

	// Hang, don't kill: connections stay up, the host just stops
	// answering — the worst case for fencing, because nothing on the
	// victim can be updated (no tombstone, no epoch advance).
	cl.Faults().Node(victim).Hang()
	repl, err := cl.ReplaceMemoryNode(victim, "")
	if err != nil {
		t.Fatalf("replace hung node: %v", err)
	}
	if !eventsContain(cl, "retire-unreachable") {
		t.Fatal("expected a reconfig.retire-unreachable event for the hung victim")
	}
	t.Logf("replaced hung %s -> %s at epoch %d", victim, repl, cl.ConfigEpoch())

	// The revenant: full DRAM from before the removal, stale epoch word.
	cl.Faults().Node(victim).Resume()
	if got := readAdminEpoch(t, cl, victim); got != oldEpoch {
		t.Fatalf("victim epoch word %d, want untouched %d", got, oldEpoch)
	}
	for _, m := range cl.MemoryNodes() {
		if got := readAdminEpoch(t, cl, m); got <= oldEpoch {
			t.Fatalf("survivor %s epoch word %d, want > %d", m, got, oldEpoch)
		}
	}

	// Plane 1: backup reads. A view pinned to the old configuration (the
	// revenant included) must fail the qualification a backup reader
	// performs before serving: the committed epoch visible on a majority
	// exceeds the view's, and no serving word matches the old epoch.
	vcfg := cl.mcfg
	vcfg.MemoryNodes = oldMembers
	vcfg.Epoch = oldEpoch
	vcfg.Dial = observerDial(cl, "stale-backup")
	view, err := repmem.NewView(vcfg)
	if err != nil {
		t.Fatalf("stale view: %v", err)
	}
	defer view.Close()
	view.SetMask((1 << uint(len(oldMembers))) - 1)
	if e, _, ok := view.ReadEpoch(); !ok || e <= oldEpoch {
		t.Fatalf("stale view read epoch %d ok=%v, want > %d — revenant would go undetected", e, ok, oldEpoch)
	}
	if e, _, ok := view.ReadServing(); ok && e == oldEpoch {
		t.Fatalf("serving word still matches retired epoch %d — stale leases possible", oldEpoch)
	}

	// Plane 2: data-plane takeover. Building a write-side Memory from the
	// old member list must be refused outright — the survivors' epoch
	// words supersede the stale config even though the victim itself
	// carries no tombstone. (The exclusive dials this attempt makes will
	// fence the live coordinator's connections; the cluster must re-elect
	// and keep serving, which the tail of the test verifies.)
	rcfg := cl.mcfg
	rcfg.MemoryNodes = oldMembers
	rcfg.Epoch = oldEpoch
	rcfg.Dial = func(node string) (rdma.Verbs, error) {
		return cl.network.Dial("rogue", node, rdma.DialOpts{
			Exclusive:  []rdma.RegionID{memnode.ReplRegionID},
			OpDeadline: cl.cfg.OpDeadline,
		})
	}
	if _, err := repmem.New(rcfg); !errors.Is(err, repmem.ErrStaleConfig) {
		t.Fatalf("stale-config takeover: err=%v, want ErrStaleConfig", err)
	}

	// The cluster recovers from the rogue's fencing and still serves the
	// pre-replacement write in the new configuration.
	if err := cl.WaitForCoordinator(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c.Get([]byte("fence-key"))
		if err == nil && string(v) == "fence-val" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fence-key unreadable after recovery: %q, %v", v, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBackupReadStraddlesReplacement is the chain-walk/reconfiguration
// interplay regression. First the contract itself: a ChainReader walk whose
// underlying view is torn down mid-flight (exactly what the backup reader
// does when it rebuilds for a new epoch) must surface kv.ErrBackupRetry —
// the signal to fall back to the coordinator — never a wrong answer. Then
// end to end: with lease-based backup reads enabled, a node replacement
// under read traffic must produce only correct values, and backups must
// resume serving in the new configuration.
func TestBackupReadStraddlesReplacement(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cl := newTestCluster(t, backupConfig())
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := cl.Client()
	if err := c.Put([]byte("straddle"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Contract check on a hand-built reader, mirroring the backup path.
	vcfg := cl.mcfg
	vcfg.Dial = observerDial(cl, "straddle-probe")
	view, err := repmem.NewView(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	view.SetMask((1 << uint(len(cl.MemoryNodes()))) - 1)
	chain, err := kv.NewChainReader(cl.kcfg, vcfg.WriteAlign(), view)
	if err != nil {
		view.Close()
		t.Fatal(err)
	}
	if v, err := chain.Get([]byte("straddle")); err != nil || string(v) != "v1" {
		view.Close()
		t.Fatalf("chain read before teardown: %q, %v", v, err)
	}
	view.Close() // what a reconfiguration rebuild does to an in-flight walk
	if _, err := chain.Get([]byte("straddle")); !errors.Is(err, kv.ErrBackupRetry) {
		t.Fatalf("chain read across view teardown: err=%v, want ErrBackupRetry", err)
	}

	// End to end: replace a node under read traffic; every read must return
	// the current value (client Gets transparently fall back on
	// ErrBackupRetry, so any error here is a real bug).
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				errCh <- nil
				return
			default:
			}
			v, err := c.Get([]byte("straddle"))
			if err != nil && !errors.Is(err, ErrNoCoordinator) {
				errCh <- fmt.Errorf("get during replacement: %w", err)
				return
			}
			if err == nil && string(v) != "v1" {
				errCh <- fmt.Errorf("get during replacement returned %q, want v1", v)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	victim := cl.MemoryNodes()[0]
	if _, err := cl.ReplaceMemoryNode(victim, ""); err != nil {
		close(stop)
		<-errCh
		t.Fatalf("replace under backup traffic: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// Backups must serve again in the new configuration: the counter has to
	// move from here with only read traffic running.
	served := cl.cm.backupGets.Value()
	deadline := time.Now().Add(10 * time.Second)
	for cl.cm.backupGets.Value() == served {
		if time.Now().After(deadline) {
			t.Fatalf("backup reads never resumed after replacement (stuck at %d served)", served)
		}
		if v, err := c.Get([]byte("straddle")); err != nil || string(v) != "v1" {
			t.Fatalf("get after replacement: %q, %v", v, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("backup reads resumed post-replacement: %d served, %d fallbacks",
		cl.cm.backupGets.Value(), cl.cm.backupFallbacks.Value())
}

// TestReconfigSameHandlesServe: every kind of reconfiguration cuts over in
// place. With writers running, the coordinator's *kv.Store and the
// *repmem.Memory under it are the same objects before and after a restripe
// onto a fresh member set, an add and a remove, and a replace, and no write
// fails.
func TestReconfigSameHandlesServe(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := cl.coordinatorStore()
	mem := st.Memory()

	stop := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			c := cl.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if err := c.Put([]byte(fmt.Sprintf("w%d-%d", w, i%64)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	same := func(step string) {
		t.Helper()
		if got := cl.coordinatorStore(); got != st || got.Memory() != mem {
			t.Errorf("after %s: store %p memory %p, want the same %p and %p", step, got, got.Memory(), st, mem)
		}
	}
	if err := cl.RestripeMemoryNodes([]string{"fresh0", "fresh1", "fresh2"}, 0, 0); err != nil {
		t.Fatalf("restripe: %v", err)
	}
	same("a restripe")
	added, err := cl.AddMemoryNode("")
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	same("an add")
	if err := cl.RemoveMemoryNode(added); err != nil {
		t.Fatalf("remove: %v", err)
	}
	same("a remove")
	if _, err := cl.ReplaceMemoryNode("fresh1", ""); err != nil {
		t.Fatalf("replace: %v", err)
	}
	same("a replace")
	close(stop)
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	awaitConfigEpoch(t, cl, 5)
}

// TestReconfigStartsNoElection: a reconfiguration hands the followers the
// new member set right after an in-place cutover, so none of them misses
// the coordinator's heartbeats and campaigns. An idle cluster goes through
// 40 restripes onto a disjoint member set, 40 add/remove pairs and 40
// replaces, a few heartbeat intervals apart, without a single promotion.
// (Back to back, with no pause, the loop itself starves the heartbeats on
// a small host and elections follow on either side of this change.)
func TestReconfigStartsNoElection(t *testing.T) {
	if testing.Short() {
		t.Skip("long reconfiguration loop in -short mode")
	}
	cl := newTestCluster(t, smallConfig())
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	counters := func() (campaigns, promotions uint64) {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		for _, r := range cl.runners {
			campaigns += r.node.Elections()
			promotions += r.node.Promotions()
		}
		return campaigns, promotions
	}
	pause := func() { time.Sleep(4 * cl.cfg.HeartbeatInterval) }
	c0, p0 := counters()
	sets := [2][]string{cl.MemoryNodes(), {"alt0", "alt1", "alt2"}}
	for i := 0; i < 40; i++ {
		if err := cl.RestripeMemoryNodes(sets[(i+1)%2], 0, 0); err != nil {
			t.Fatalf("restripe %d: %v", i, err)
		}
		pause()
	}
	for i := 0; i < 40; i++ {
		added, err := cl.AddMemoryNode("")
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		pause()
		if err := cl.RemoveMemoryNode(added); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
		pause()
	}
	for i := 0; i < 40; i++ {
		if _, err := cl.ReplaceMemoryNode(cl.MemoryNodes()[i%3], ""); err != nil {
			t.Fatalf("replace %d: %v", i, err)
		}
		pause()
	}
	c1, p1 := counters()
	t.Logf("160 reconfigurations: %d campaigns, %d promotions", c1-c0, p1-p0)
	if p1 != p0 {
		t.Fatalf("%d elections won across 160 reconfigurations of an idle cluster, want 0", p1-p0)
	}
}
