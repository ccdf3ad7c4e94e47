package repmem

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/wal"
)

// batchCfg is a small checksummed memory of 1 KiB blocks, plain or EC.
func batchCfg(ec bool) Config {
	cfg := Config{MemSize: 64 << 10, DirectSize: 4 << 10, IntegrityBlockSize: 1024}
	if ec {
		cfg.ECData, cfg.ECParity, cfg.ECBlockSize = 2, 1, 1024
	}
	return cfg
}

func modes(t *testing.T, f func(t *testing.T, ec bool)) {
	for _, ec := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "ec"}[ec], func(t *testing.T) { f(t, ec) })
	}
}

// mixedBatch is a batch of the shapes the key-value apply sends: whole blocks,
// and sub-block writes of which three fall in block 2 and one in block 7.
func mixedBatch(gen byte) []wal.Write {
	word := func(v byte) []byte { return bytes.Repeat([]byte{v}, 8) }
	return []wal.Write{
		{Addr: 2*1024 + 8, Data: word(gen + 1)},
		{Addr: 5 * 1024, Data: bytes.Repeat([]byte{gen + 2}, 1024)},
		{Addr: 2*1024 + 512, Data: word(gen + 3)},
		{Addr: 7*1024 + 16, Data: word(gen + 4)},
		{Addr: 2*1024 + 1000, Data: []byte{gen + 5}},
		{Addr: 9 * 1024, Data: bytes.Repeat([]byte{gen + 6}, 2048)},
	}
}

// checkWrites reads every write of the batch back.
func checkWrites(t *testing.T, m *Memory, writes []wal.Write) {
	t.Helper()
	for _, w := range writes {
		got := make([]byte, len(w.Data))
		if err := m.Read(w.Addr, got); err != nil || !bytes.Equal(got, w.Data) {
			t.Fatalf("read back of the write at %d: err=%v, got %v…", w.Addr, err, got[:min(len(got), 8)])
		}
	}
}

// TestWriteBatchSharedBlockKeepsEveryWrite: sub-block writes that share an
// integrity (or EC) block inside one call are overlaid on ONE read-back of the
// block and leave as one block image with one strip entry — spans built per
// write from the block's old content would each carry the other's bytes as
// they were, and the later segment would undo the earlier write. The whole
// call is one submission per node.
func TestWriteBatchSharedBlockKeepsEveryWrite(t *testing.T) {
	modes(t, func(t *testing.T, ec bool) {
		m, logs := loggedMemory(t, batchCfg(ec))
		old := bytes.Repeat([]byte{0xEE}, 1024)
		for _, b := range []uint64{2, 7} {
			if err := m.Write(b*1024, old); err != nil {
				t.Fatal(err)
			}
		}
		type count struct{ subs, reads int }
		before := map[string]count{}
		for name, l := range logs {
			subs, _ := l.snapshot()
			before[name] = count{len(subs), l.reads}
		}

		writes := mixedBatch(0)
		if err := m.WriteBatch(writes); err != nil {
			t.Fatal(err)
		}

		reads := 0
		for name, l := range logs {
			subs, _ := l.snapshot()
			if got := len(subs) - before[name].subs; got != 1 {
				t.Fatalf("%s: the batch arrived as %d submissions, want 1", name, got)
			}
			// Blocks 2, 5, 7 and, under EC, 9 and 10 apart: each with its
			// strip entry. Plain mode sends the two-block run as one segment.
			want := map[bool]int{false: 8, true: 10}[ec]
			if got := len(subs[len(subs)-1]); got != want {
				t.Errorf("%s: the submission carries %d segments, want %d", name, got, want)
			}
			seen := map[uint64]bool{}
			for _, off := range subs[len(subs)-1] {
				if seen[off] {
					t.Errorf("%s: offset %d written twice in one request", name, off)
				}
				seen[off] = true
			}
			reads += l.reads - before[name].reads
		}
		// One read-back per partly written block: one replica's copy in plain
		// mode, the k data chunks under EC.
		if want := map[bool]int{false: 2, true: 4}[ec]; reads != want {
			t.Errorf("%d reads of the nodes for two partly written blocks, want %d", reads, want)
		}

		checkWrites(t, m, writes)
		got := make([]byte, 1024)
		if err := m.Read(2*1024, got); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), old...)
		for _, w := range writes {
			if w.Addr/1024 == 2 {
				copy(want[w.Addr-2*1024:], w.Data)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatal("block 2 is not its old content with the three writes on top")
		}
	})
}

// TestWriteBatchTakesItsRangesAtOnce: the batch's expanded ranges are one
// atomic acquisition. While one of them is held elsewhere the batch is one
// queued request and nothing of it has been sent; once granted it is one
// submission per node, and every range is released together.
func TestWriteBatchTakesItsRangesAtOnce(t *testing.T) {
	m, logs := loggedMemory(t, batchCfg(false))
	held := lockRange{addr: 7 * 1024, size: 1024}
	m.locks.acquire(shared, held)
	writes := mixedBatch(0)
	done := make(chan error, 1)
	go func() { done <- m.WriteBatch(writes) }()
	mustQueue(t, &m.locks, 1)
	for name, l := range logs {
		if subs, _ := l.snapshot(); len(subs) != 0 {
			t.Fatalf("%s: %d submissions while the batch waits for a range", name, len(subs))
		}
	}
	m.locks.release(shared, held)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(lockTestLimit):
		t.Fatal("batch never finished after the range was released")
	}
	mustBeIdle(t, &m.locks)
	for name, l := range logs {
		if subs, _ := l.snapshot(); len(subs) != 1 {
			t.Fatalf("%s: the batch arrived as %d submissions, want 1", name, len(subs))
		}
	}
	checkWrites(t, m, writes)
}

// TestWriteBatchBestEffortCopyCarriesEverySegment: a suspect node is sent the
// whole request on copied buffers with nobody waiting; every block, chunk and
// strip entry of it must still arrive.
func TestWriteBatchBestEffortCopyCarriesEverySegment(t *testing.T) {
	modes(t, func(t *testing.T, ec bool) {
		cfg := batchCfg(ec)
		e := newEnv(t, 3, cfg.Layout())
		cfg.MemoryNodes, cfg.Dial = e.names, e.dialer("c")
		m := newMemory(t, cfg)
		m.setState(2, nodeSuspect)
		writes := mixedBatch(0)
		if err := m.WriteBatch(writes); err != nil {
			t.Fatal(err)
		}
		// Every block the batch touched: the suspect's bytes match the strip
		// entry it was sent, which is the checksum the coordinator holds.
		eventually(t, "the best-effort copy on the suspect node", func() bool {
			region := e.nw.Node("m2").Region(memnode.ReplRegionID).Snapshot()
			for _, b := range []uint64{2, 5, 7, 9, 10} {
				data := region[m.grp.Load().integ.physOff(b) : m.grp.Load().integ.physOff(b)+uint64(m.grp.Load().integ.physLen(b))]
				entry := binary.LittleEndian.Uint32(region[m.grp.Load().integ.stripOff(b):])
				if crcBlock(data) != entry || entry != m.grp.Load().integ.sum(2, b) {
					return false
				}
			}
			return true
		})
	})
}

// TestWriteBatchesRaceTrackersSuspectsAndClose runs batches from several
// goroutines while a catch-up's dirty trackers are installed, snapshotted
// and removed over and over and one node is suspect, then closes the memory
// under them. The race detector checks what the batch path shares (pooled
// scratch, one segment vector across the nodes' requests, the dirty notes,
// best-effort copies); the test checks that nothing hangs and that a batch
// acknowledged before the close is readable in full.
func TestWriteBatchesRaceTrackersSuspectsAndClose(t *testing.T) {
	modes(t, func(t *testing.T, ec bool) {
		cfg := batchCfg(ec)
		e := newEnv(t, 3, cfg.Layout())
		cfg.MemoryNodes, cfg.Dial = e.names, e.dialer("c")
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Recover(); err != nil {
			t.Fatal(err)
		}
		m.setState(0, nodeSuspect)

		const writers, warm = 4, 20
		var warmed, wg sync.WaitGroup
		warmed.Add(writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					// Each writer has 12 blocks of its own; mixedBatch's
					// addresses are shifted into them.
					writes := mixedBatch(byte(i))
					for k := range writes {
						writes[k].Addr += uint64(w) * 12 * 1024
					}
					if err := m.WriteBatch(writes); err != nil {
						if m.checkOpen() == nil {
							t.Errorf("writer %d on an open memory: %v", w, err)
						}
						if i < warm {
							warmed.Add(warm - i)
							for ; i < warm; i++ {
								warmed.Done()
							}
						}
						return
					}
					if i == warm-1 {
						checkWrites(t, m, writes)
						warmed.Done()
					}
				}
			}(w)
		}
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.dirtyMain.Store(newDirtyTracker())
				m.dirtyDirect.Store(newDirtyTracker())
				m.dirtyMain.Swap(nil).snapshot()
				m.dirtyDirect.Swap(nil).snapshot()
			}
		}()

		warmed.Wait() // every writer has had warm batches acknowledged
		closed := make(chan struct{})
		go func() {
			m.Close()
			close(closed)
		}()
		mustGet(t, closed, "Close with batches and a catch-up in progress")
		close(stop)
		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		mustGet(t, finished, "writers after Close")
	})
}
