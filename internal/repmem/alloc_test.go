package repmem

import (
	"runtime"
	"testing"
)

// recoverAllocs is how many heap objects one Recover of a fresh plain
// 3-node group allocates, with memSize bytes of main space in 4 KiB blocks:
// the fewest of five, since the count includes whatever else the process
// allocates meanwhile, which only adds.
func recoverAllocs(t *testing.T, memSize int) uint64 {
	t.Helper()
	e := newEnv(t, 3, Config{MemSize: memSize, DirectSize: 16 << 10}.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize = memSize
	fewest := ^uint64(0)
	for i := 0; i < 5; i++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = m.Recover()
		runtime.ReadMemStats(&after)
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// recoverAllocBound is the most heap objects a plain Recover may allocate,
// whatever the block count: the strip rows and the read's working set.
const recoverAllocBound = 24

// TestRecoverAllocationsDoNotGrowWithBlocks: the checksum vote at takeover
// allocates nothing per block, so 4,096 blocks cost what 16 do.
func TestRecoverAllocationsDoNotGrowWithBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	small := recoverAllocs(t, 64<<10)
	large := recoverAllocs(t, 16<<20)
	t.Logf("Recover allocates %d objects over 16 blocks, %d over 4096", small, large)
	if large > recoverAllocBound || large > small+2 {
		t.Errorf("Recover allocates %d objects over 4096 blocks and %d over 16, want at most %d either way", large, small, recoverAllocBound)
	}
}

// TestScrubStepAllocations: a background scrub step over healthy replicas
// reads through the Memory's reused working sets, so it allocates at most
// two objects however many blocks it examines.
func TestScrubStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10}.Layout())
	m := newMemory(t, baseConfig(e, "c"))
	if err := m.Write(0, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	cursor := 0
	step := func() { cursor = m.scrubStep(cursor, scrubBatch) }
	step() // warm the free list
	n := testing.AllocsPerRun(50, step)
	t.Logf("%.2f allocations per scrub step of %d blocks", n, scrubBatch)
	if n > 2 {
		t.Errorf("a scrub step allocates %.2f objects, want at most 2", n)
	}
}
