package sift

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/workload"
)

// cpuBudget is a virtual-time core-provisioning limiter for the offload
// benchmark below — the same token-bucket model as internal/bench's
// CPULimiter, restated here because that package imports this one (its
// System wraps Cluster) and cannot be imported back from an internal test.
type cpuBudget struct {
	mu         sync.Mutex
	opInterval time.Duration
	next       time.Time
}

func newCPUBudget(cores int, perOp time.Duration) *cpuBudget {
	return &cpuBudget{opInterval: perOp / time.Duration(cores)}
}

func (l *cpuBudget) charge() {
	const burstSlack = 2 * time.Millisecond
	now := time.Now()
	l.mu.Lock()
	if l.next.Before(now) {
		l.next = now
	}
	l.next = l.next.Add(l.opInterval)
	ahead := l.next.Sub(now)
	l.mu.Unlock()
	if ahead > burstSlack {
		time.Sleep(ahead - burstSlack)
	}
}

// backupConfig is smallConfig with lease-based backup reads enabled and an
// extra CPU node so a follower is always available to serve them.
func backupConfig() Config {
	cfg := smallConfig()
	cfg.BackupReads = true
	cfg.CPUNodes = 3
	return cfg
}

// TestBackupReadsServe verifies that with BackupReads enabled, follower CPU
// nodes actually serve reads under their leases (the served counter moves)
// and that the values they return are correct.
func TestBackupReadsServe(t *testing.T) {
	cl := newTestCluster(t, backupConfig())
	c := cl.Client()

	const keys = 64
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if err := c.Put(k, []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Reads of present keys: every answer must be correct regardless of
	// which path (backup or coordinator) served it.
	deadline := time.Now().Add(5 * time.Second)
	for cl.cm.backupGets.Value() == 0 && time.Now().Before(deadline) {
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("key-%03d", i))
			v, err := c.Get(k)
			if err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if want := fmt.Sprintf("val-%03d", i); string(v) != want {
				t.Fatalf("get %d: got %q, want %q", i, v, want)
			}
		}
	}
	if cl.cm.backupGets.Value() == 0 {
		t.Fatalf("no reads served by backups (fallbacks=%v leaseRejects=%v)",
			cl.cm.backupFallbacks.Value(), cl.cm.leaseRejects.Value())
	}
	t.Logf("backup reads served=%v fallback=%v no_lease=%v",
		cl.cm.backupGets.Value(), cl.cm.backupFallbacks.Value(), cl.cm.leaseRejects.Value())
}

// TestBackupReadsMissFallsBack: a missing key must surface as ErrNotFound —
// backups cannot prove absence (found-values-only policy), so the answer
// has to come from the coordinator and still be correct.
func TestBackupReadsMissFallsBack(t *testing.T) {
	cl := newTestCluster(t, backupConfig())
	c := cl.Client()
	if err := c.Put([]byte("present"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get absent: %v, want ErrNotFound", err)
		}
	}
	if v, err := c.Get([]byte("present")); err != nil || string(v) != "v" {
		t.Fatalf("get present: %q, %v", v, err)
	}
}

// TestBackupReadsSeeAckedWrites: with SyncApply on the coordinator, a write
// acknowledged to one client must be visible to backup reads issued after
// the ack — read-your-writes through the lease path, checked across many
// rounds so both paths get exercised.
func TestBackupReadsSeeAckedWrites(t *testing.T) {
	cl := newTestCluster(t, backupConfig())
	c := cl.Client()
	key := []byte("rw-key")
	for round := 0; round < 200; round++ {
		want := []byte(fmt.Sprintf("gen-%04d", round))
		if err := c.Put(key, want); err != nil {
			t.Fatalf("round %d put: %v", round, err)
		}
		got, err := c.Get(key)
		if err != nil {
			t.Fatalf("round %d get: %v", round, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: got %q, want %q (backup served=%v)",
				round, got, want, cl.cm.backupGets.Value())
		}
	}
	t.Logf("200 write-then-read rounds, backup served=%v fallback=%v",
		cl.cm.backupGets.Value(), cl.cm.backupFallbacks.Value())
}

// TestBackupReadsConcurrent hammers the backup path from many goroutines
// while a writer mutates the same keyspace: deletes and overwrites force
// chain mutations under the lock-free walkers, whose CRC/used checks must
// convert every torn read into a silent fallback, never a wrong value.
func TestBackupReadsConcurrent(t *testing.T) {
	cl := newTestCluster(t, backupConfig())

	const keys = 16
	c := cl.Client()
	for i := 0; i < keys; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%d", i)), []byte("gen-0")); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: overwrite and occasionally delete/recreate
		defer wg.Done()
		w := cl.Client()
		gen := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen++
			i := gen % keys
			k := []byte(fmt.Sprintf("k%d", i))
			if gen%7 == 0 {
				if err := w.Delete(k); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
			if err := w.Put(k, []byte(fmt.Sprintf("gen-%d", gen))); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := cl.Client()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("k%d", n%keys))
				v, err := r.Get(k)
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("reader %d: %v", id, err)
					return
				}
				if err == nil && !bytes.HasPrefix(v, []byte("gen-")) {
					t.Errorf("reader %d: corrupt value %q", id, v)
					return
				}
			}
		}(g)
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	t.Logf("concurrent: backup served=%v fallback=%v no_lease=%v",
		cl.cm.backupGets.Value(), cl.cm.backupFallbacks.Value(), cl.cm.leaseRejects.Value())
}

// BenchmarkReadHeavyBackupOffload measures the aggregate-throughput effect
// of lease-based backup reads under the paper's resource model: each CPU
// node has a fixed per-op CPU budget (as in siftbench's fig7), so once the
// coordinator's core saturates, extra throughput can only come from reads
// served elsewhere. A 90%-read workload runs with reads offered to follower
// leases (their ops billed to the follower cores) versus everything on the
// coordinator. The absolute ops/sec depends on the calibrated per-op cost;
// the coordinator-only vs backup-reads gap is the result.
func BenchmarkReadHeavyBackupOffload(b *testing.B) {
	const (
		keys    = 2048
		valSize = 992
		perOp   = 25 * time.Microsecond
	)
	for _, mode := range []struct {
		name   string
		backup bool
	}{{"coordinator-only", false}, {"backup-reads", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{F: 1, CPUNodes: 3, Keys: keys, MaxValueSize: valSize}
			cfg.BackupReads = mode.backup
			cl, err := NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			c := cl.Client()
			val := bytes.Repeat([]byte("v"), valSize)
			for i := 0; i < keys; i++ {
				if err := c.Put([]byte(fmt.Sprintf("user%012d", i)), val); err != nil {
					b.Fatal(err)
				}
			}
			coordCPU := newCPUBudget(1, perOp)
			followerCPU := newCPUBudget(cfg.CPUNodes-1, perOp)
			var seq, served atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				gen := workload.NewGenerator(workload.Config{
					Mix: workload.ReadHeavy, Keys: keys, ValueSize: valSize,
					ZipfTheta: 0.99, Seed: seq.Add(1),
				})
				client := cl.Client()
				for pb.Next() {
					op := gen.Next()
					if op.Read && mode.backup {
						followerCPU.charge()
						if _, ok := cl.backupGet(op.Key); ok {
							served.Add(1)
							continue
						}
					}
					coordCPU.charge()
					if op.Read {
						client.Get(op.Key) //nolint:errcheck
					} else {
						client.Put(op.Key, op.Value) //nolint:errcheck
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/sec")
			if mode.backup {
				b.ReportMetric(100*float64(served.Load())/float64(b.N), "backup-share-%")
			}
		})
	}
}

// TestChaosLinearizeBackupReads is the lease-read safety acceptance test: a
// fleet of instrumented clients (their Gets preferentially served by
// follower leases) runs through a forced coordinator failover, and the
// recorded history must linearize. The failover exercises the full lease
// hand-off: old-term leases expiring, the new coordinator's LeaseWindow
// wait before its first ack, and backups re-anchoring on the new term.
func TestChaosLinearizeBackupReads(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := backupConfig()
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	runLinearizeClients(t, cl, 10, func() {
		time.Sleep(250 * time.Millisecond)
		if _, err := cl.ForceFailover(50, 10*time.Second); err != nil {
			t.Error(err)
		}
		time.Sleep(250 * time.Millisecond)
		if _, err := cl.ForceFailover(51, 10*time.Second); err != nil {
			t.Error(err)
		}
		time.Sleep(250 * time.Millisecond)
	})
	if served := cl.cm.backupGets.Value(); served == 0 {
		t.Errorf("chaos run served no backup reads (fallback=%v no_lease=%v)",
			cl.cm.backupFallbacks.Value(), cl.cm.leaseRejects.Value())
	} else {
		t.Logf("backup reads during chaos: served=%v fallback=%v no_lease=%v",
			served, cl.cm.backupFallbacks.Value(), cl.cm.leaseRejects.Value())
	}
}

// TestChaosLinearizeBackupReadsEC repeats the failover scenario with
// erasure coding, where backup walkers reconstruct every block from k
// chunks and torn mixed-generation reads are a real hazard the block CRC
// must catch.
func TestChaosLinearizeBackupReadsEC(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := backupConfig()
	cfg.ErasureCoding = true
	cl := newTestCluster(t, cfg)
	dumpEventsOnFailure(t, cl)
	if err := cl.WaitForCoordinator(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	runLinearizeClients(t, cl, 10, func() {
		time.Sleep(250 * time.Millisecond)
		if _, err := cl.ForceFailover(50, 10*time.Second); err != nil {
			t.Error(err)
		}
		time.Sleep(400 * time.Millisecond)
	})
}
