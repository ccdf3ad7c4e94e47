package repmem

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/faultrdma"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/obs"
	"github.com/repro/sift/internal/rdma"
)

func TestDirtyTrackerCoalesces(t *testing.T) {
	tr := newDirtyTracker()
	for _, r := range []lockRange{
		{addr: 100, size: 50}, // [100,150)
		{addr: 10, size: 20},  // [10,30), adjacent to the next
		{addr: 0, size: 10},   // [0,10)
		{addr: 120, size: 40}, // overlaps [100,150), extends it to 160
		{addr: 500, size: 0},  // empty: never noted
		{addr: 140, size: 5},  // inside
	} {
		tr.note(r.addr, r.size)
	}
	all, got := tr.snapshot()
	want := []lockRange{{addr: 0, size: 30}, {addr: 100, size: 60}}
	if all || !slices.Equal(got, want) {
		t.Fatalf("snapshot = %v all=%v, want %v", got, all, want)
	}
}

func TestDirtyTrackerOverflowsToWholeSpace(t *testing.T) {
	// Ranges that coalesce never overflow, however many are noted.
	tr := newDirtyTracker()
	for i := 0; i < 3*dirtyMaxRanges; i++ {
		tr.note(uint64(i%64)*8, 8)
	}
	if all, got := tr.snapshot(); all || len(got) != 1 {
		t.Fatalf("coalescing notes: all=%v ranges=%d, want one range", all, len(got))
	}
	// dirtyMaxRanges disjoint ranges fit; one more does not.
	tr = newDirtyTracker()
	for i := 0; i < dirtyMaxRanges; i++ {
		tr.note(uint64(i)*16, 8)
	}
	if all, got := tr.snapshot(); all || len(got) != dirtyMaxRanges {
		t.Fatalf("%d disjoint notes: all=%v ranges=%d", dirtyMaxRanges, all, len(got))
	}
	tr.note(uint64(dirtyMaxRanges)*16, 8)
	if all, got := tr.snapshot(); !all || got != nil {
		t.Fatalf("one past the bound: all=%v ranges=%d, want the whole space", all, len(got))
	}
	tr.note(0, 8) // a degraded tracker stays degraded
	if all, _ := tr.snapshot(); !all {
		t.Fatal("a note after overflow left whole-space mode")
	}
}

func TestDirtyTrackerReplayClampsAndSkips(t *testing.T) {
	e := newEnv(t, 3, baseConfigLayout())
	m := newMemory(t, baseConfig(e, "c"))
	type span struct{ lo, hi uint64 }
	replay := func(tr *dirtyTracker, size uint64) ([]span, gateCost) {
		var got []span
		var cost gateCost
		err := m.replayDirty(tr, size, "main", func(lo, hi uint64) error {
			got = append(got, span{lo, hi})
			return nil
		}, &cost)
		if err != nil {
			t.Fatal(err)
		}
		return got, cost
	}

	tr := newDirtyTracker()
	tr.note(0, 10)
	tr.note(90, 20)  // crosses size: clamped to [90,100)
	tr.note(100, 5)  // starts at size: empty after clamping
	tr.note(200, 30) // wholly past size
	got, cost := replay(tr, 100)
	if want := []span{{0, 10}, {90, 100}}; !slices.Equal(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if cost.ranges != 2 || cost.bytes != 20 {
		t.Fatalf("cost = %d ranges, %d bytes; want 2, 20", cost.ranges, cost.bytes)
	}

	tr = newDirtyTracker()
	for i := 0; i <= dirtyMaxRanges; i++ {
		tr.note(uint64(i)*16, 8)
	}
	if got, cost := replay(tr, 100); !slices.Equal(got, []span{{0, 100}}) || cost.bytes != 100 {
		t.Fatalf("overflowed tracker replayed %v (%d bytes), want the whole space once", got, cost.bytes)
	}
	if got, _ := replay(nil, 100); got != nil {
		t.Fatalf("no tracker replayed %v", got)
	}
}

func baseConfigLayout() memnode.Layout {
	return Config{MemSize: 64 << 10, DirectSize: 16 << 10}.Layout()
}

// catchUpCase is one caller of catchUp, set up against a memory whose
// destination machine's sweep writes pass through gates.
type catchUpCase struct {
	name string
	ec   bool
	dest string // the machine being caught up
	dead string // a member killed before the sweep; if it is dest, it returns empty
	run  func(m *Memory) error
	// cutover lists the events whose detail must report the gate's cost.
	cutover []string
}

// TestCatchUpPacerLetsTimersFire: a CPU-bound loop that steps a pacer, as
// the catch-up sweep does, lets a ticker on its one processor fire about
// every millisecond. Without the pacer the runtime holds the ticker until it
// preempts the loop, every 10 ms.
func TestCatchUpPacerLetsTimersFire(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ticks atomic.Int32
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				ticks.Add(1)
			}
		}
	}()
	runtime.Gosched() // let the ticker goroutine block on its timer
	var pace pacer
	for start := time.Now(); time.Since(start) < 40*time.Millisecond; {
		pace.step()
	}
	close(stop)
	<-done
	if n := ticks.Load(); n < 12 {
		t.Fatalf("ticker fired %d times in 40 ms beside a paced loop, want at least 12", n)
	}
}

// TestCatchUpCopiesWhatChangesBehindTheSweep holds each caller's sweep just
// past its first batch, writes to the range the sweep has already copied,
// and releases it; once the cutover has run, the destination must hold that
// write. It does so for the direct zone and the main space in turn, so it
// fails if either space's writers stop noting their ranges.
func TestCatchUpCopiesWhatChangesBehindTheSweep(t *testing.T) {
	cases := []catchUpCase{
		{name: "rebuild", dest: "m2", dead: "m2", cutover: []string{"node.recovered"},
			run: func(m *Memory) error { return m.RecoverNodeNow("m2") }},
		{name: "replace-live", dest: "m3", cutover: []string{"reconfig.replaced"},
			run: func(m *Memory) error { return replaceNode(m, "m1", "m3") }},
		{name: "replace-dead", dest: "m3", dead: "m1", cutover: []string{"reconfig.replaced", "node.recovered"},
			run: func(m *Memory) error { return replaceNode(m, "m1", "m3") }},
		{name: "restripe-plain", dest: "m3", cutover: []string{"reconfig.restriped"}, run: func(m *Memory) error {
			return m.Reconfigure(Target{Members: []string{"m0", "m1", "m2", "m3"}})
		}},
		{name: "restripe-ec", ec: true, dest: "f0", cutover: []string{"reconfig.restriped"}, run: func(m *Memory) error {
			return m.Reconfigure(Target{Members: []string{"f0", "f1", "f2"}, ECData: 2, ECParity: 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runCatchUpCase(t, tc) })
	}
}

func runCatchUpCase(t *testing.T, tc catchUpCase) {
	// The direct zone spans two sweep batches, so the sweep can be held on
	// the second with the first already copied.
	cfg := Config{MemSize: 64 << 10, DirectSize: 2 * recoveryBatch, IntegrityBlockSize: 1024}
	joiners := []string{"m3"}
	if tc.ec {
		cfg.ECData, cfg.ECParity, cfg.ECBlockSize = 2, 1, 1024
		joiners = []string{"f0", "f1", "f2"}
	}
	layout := cfg.Layout()
	e := newEnv(t, 3, layout)
	for _, n := range joiners {
		addMachine(t, e, n, layout)
	}
	var gates completionGates
	dial := e.dialer("c")
	cfg.MemoryNodes, cfg.Term, cfg.Events = e.names, 1, obs.NewRing(256)
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		c, err := dial(node)
		if err != nil || node != tc.dest {
			return c, err
		}
		return gatedConn{Verbs: c, g: &gates}, nil
	}
	m := newMemory(t, cfg)

	rng := rand.New(rand.NewSource(9))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	direct := fill(int(cfg.DirectSize))
	mem := fill(cfg.MemSize)
	if err := m.DirectWrite(0, direct); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, mem); err != nil {
		t.Fatal(err)
	}
	if tc.dead != "" {
		e.nw.Fabric().Kill(tc.dead)
		awaitState(t, m, tc.dead, "dead")
		if tc.dead == tc.dest {
			memnode.Reset(e.nw.Node(tc.dest), layout)
			e.nw.Fabric().Restart(tc.dest)
		}
	}

	// The destination offsets of the second direct batch and main block 1.
	chunk := 1024
	if tc.ec {
		chunk = 1024 / 2
	}
	openDirect, atDirect := gates.hold(layout.DirectBase() + recoveryBatch)
	openMain, atMain := gates.hold(layout.MainBase() + uint64(chunk))
	done := make(chan error, 1)
	go func() { done <- tc.run(m) }()

	mustGet(t, atDirect, "the sweep reaching the second direct batch")
	copy(direct[:256], fill(256))
	if err := m.DirectWrite(0, direct[:256]); err != nil {
		t.Fatal(err)
	}
	openDirect()
	mustGet(t, atMain, "the sweep reaching main block 1")
	copy(mem[:1024], fill(1024))
	if err := m.Write(0, mem[:1024]); err != nil {
		t.Fatal(err)
	}
	openMain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	case <-time.After(lockTestLimit):
		t.Fatal("catch-up did not finish")
	}
	for _, typ := range tc.cutover {
		if !slices.ContainsFunc(cfg.Events.Recent(0), func(ev obs.Event) bool {
			return ev.Type == typ && strings.Contains(ev.Detail, "gate=") && strings.Contains(ev.Detail, "delta_ranges=")
		}) {
			t.Errorf("%s: no %s event reporting the gate's cost", tc.name, typ)
		}
	}

	if !tc.ec {
		dst := e.nw.Node(tc.dest).Region(memnode.ReplRegionID).Snapshot()[layout.DirectBase():]
		src := e.nw.Node("m0").Region(memnode.ReplRegionID).Snapshot()[layout.DirectBase():]
		if !bytes.Equal(dst, src) {
			t.Fatalf("%s: %s is not byte-identical to m0 after the cutover", tc.name, tc.dest)
		}
		if got := m.Health(); !slices.ContainsFunc(got, func(h NodeHealth) bool { return h.Node == tc.dest && h.State == "live" }) {
			t.Fatalf("%s: %s not live after the cutover: %+v", tc.name, tc.dest, got)
		}
		return
	}
	// Erasure-coded: the same handle, now over the new set, decodes both
	// writes, and every chunk verifies against its strip entry.
	if got := m.MemberNames(); !slices.Equal(got, joiners) {
		t.Fatalf("members after the EC restripe = %v, want %v", got, joiners)
	}
	gotD := make([]byte, len(direct))
	gotM := make([]byte, len(mem))
	if err := m.DirectRead(0, gotD); err != nil || !bytes.Equal(gotD, direct) {
		t.Fatalf("direct zone after the EC restripe: err=%v equal=%v", err, bytes.Equal(gotD, direct))
	}
	if err := m.Read(0, gotM); err != nil || !bytes.Equal(gotM, mem) {
		t.Fatalf("main space after the EC restripe: err=%v equal=%v", err, bytes.Equal(gotM, mem))
	}
	rep, err := m.ScrubOnce()
	if err != nil || rep.Corrupt != 0 || rep.Unrepaired != 0 {
		t.Fatalf("scrub after the EC restripe: %+v err=%v", rep, err)
	}
}

// TestReplaceDeadSlotFailedCopyDoesNotCommit: a replacement of a dead slot
// whose joining machine fails partway through the copy must leave the group
// exactly as it was — same epoch, same members, every epoch word unmoved,
// the slot still dead — so the owner's adopted configuration stays the
// memory's.
func TestReplaceDeadSlotFailedCopyDoesNotCommit(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10}
	e := newEnv(t, 3, cfg0.Layout())
	addMachine(t, e, "m3", cfg0.Layout())
	faults := faultrdma.NewController(1, 0)
	cfg := baseConfig(e, "cpu1")
	cfg.Term = 1
	dial := cfg.Dial
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		c, err := dial(node)
		if err != nil || node != "m3" {
			return c, err
		}
		return faults.Wrap(node, c), nil
	}
	m := newMemory(t, cfg)
	if err := m.Write(0, []byte("before")); err != nil {
		t.Fatal(err)
	}
	e.nw.Fabric().Kill("m1")
	m.Write(128, []byte("detect"))
	awaitState(t, m, "m1", "dead")

	members := m.MemberNames()
	words := map[string]uint64{}
	for _, n := range []string{"m0", "m2", "m3"} {
		words[n] = readAdminWord(t, e, n, memnode.AdminEpochOffset)
	}
	// Two admin writes prepare the joining node; the tenth operation on it
	// falls inside the main-space sweep.
	faults.Node("m3").FailStopAfter(10)
	err := replaceNode(m, "m1", "m3")
	if err == nil {
		t.Fatal("replacement succeeded with the joining node failing mid-copy")
	}
	if !errors.Is(err, faultrdma.ErrInjected) {
		t.Fatalf("replacement error = %v, want the injected fault", err)
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("epoch after a failed replacement = %d, want 1", got)
	}
	if got := m.MemberNames(); !slices.Equal(got, members) {
		t.Fatalf("members after a failed replacement = %v, want %v", got, members)
	}
	faults.Node("m3").FailStopAfter(0)
	for n, w := range words {
		if got := readAdminWord(t, e, n, memnode.AdminEpochOffset); got != w {
			t.Fatalf("%s epoch word moved from %#x to %#x", n, w, got)
		}
	}
	if dead := m.DeadMemoryNodes(); !slices.Equal(dead, []string{"m1"}) {
		t.Fatalf("dead nodes after a failed replacement = %v, want [m1]", dead)
	}
	if err := m.Write(0, []byte("after")); err != nil {
		t.Fatalf("write after a failed replacement: %v", err)
	}
}
