// BenchmarkPipelinedPut regenerates EXPERIMENTS.md's pipelined-transport
// table (`make bench-pipeline`), and BenchmarkTakeover its warm-takeover
// phases (`make takeover`). The paper's tables and figures are regenerated
// by cmd/siftbench, one -experiment each.
package sift_test

import (
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sift "github.com/repro/sift"
	"github.com/repro/sift/internal/deploy"
	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
)

// BenchmarkPipelinedPut measures parallel Store.Put throughput against real
// TCP memory nodes at several closed-loop client counts. It exercises the
// transport's per-connection pipeline: every concurrent Put fans out to all
// three memory nodes over a single connection per node, so throughput at 64
// clients is bounded by how many operations the transport keeps in flight
// per connection.
func BenchmarkPipelinedPut(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%dclients", clients), func(b *testing.B) {
			params := deploy.Params{
				F: 1, Keys: 1024, MaxValue: 128,
				KVWALSlots: 512,
			}
			kcfg, mcfg, err := params.Derive()
			if err != nil {
				b.Fatal(err)
			}
			// Enough background appliers that sustained throughput is bounded
			// by the transport, not by applier serialization.
			kcfg.ApplyShards = 32

			var memAddrs []string
			for i := 0; i < 3; i++ {
				node, err := memnode.New(fmt.Sprintf("bpp%d", i), mcfg.Layout())
				if err != nil {
					b.Fatal(err)
				}
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { l.Close() })
				go rdma.Serve(l, node)
				memAddrs = append(memAddrs, l.Addr().String())
			}
			mcfg.MemoryNodes = memAddrs
			mcfg.Dial = func(node string) (rdma.Verbs, error) {
				return rdma.DialTCP(node, rdma.DialOpts{Exclusive: []rdma.RegionID{memnode.ReplRegionID}})
			}

			mem, err := repmem.New(mcfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { mem.Close() })
			if err := mem.Recover(); err != nil {
				b.Fatal(err)
			}
			st, err := kv.New(mem, kcfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { st.Close() })

			const keySpace = 512
			keys := make([][]byte, keySpace)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("pipeline-key-%04d", i))
			}
			value := make([]byte, 128)
			for i := range value {
				value[i] = byte(i)
			}

			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := next.Add(1)
						if n > int64(b.N) {
							return
						}
						if err := st.Put(keys[n%keySpace], value); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/sec")
		})
	}
}

// takeoverFailovers is the fewest coordinator changes BenchmarkTakeover
// forces per log size: enough for a median and a tail.
const takeoverFailovers = 20

// BenchmarkTakeover measures a warm takeover at two KV log sizes: a cluster
// with the benchmark's geometry (F = 1, 16,384 keys) and a full log loses
// its coordinator at least takeoverFailovers times, with a burst of puts
// between failovers, and the successor's promotion event gives each
// takeover's phases. It reports their medians: won → promoted
// (promoted_ms) and each phase the event names (mem_recover_ms,
// kv_tables_ms, scan_ms, log_read_ms, reconcile_ms, rewrite_ms,
// replay_ms). Run it with -benchtime 1x; a larger b.N forces b.N failovers.
func BenchmarkTakeover(b *testing.B) {
	for _, slots := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			cl, err := sift.NewCluster(sift.Config{F: 1, Keys: 16384, KVWALSlots: slots})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			c := cl.Client()
			value := make([]byte, 512)
			put := func(n int) {
				for i := 0; i < n; i++ {
					if err := c.Put([]byte(fmt.Sprintf("k%05d", i%16384)), value); err != nil {
						b.Fatal(err)
					}
				}
			}
			put(slots) // every slot holds an entry
			phases := map[string][]float64{}
			seen := cl.Events().Seq()
			n := max(b.N, takeoverFailovers)
			b.ResetTimer()
			for i := 0; i < n; i++ {
				put(64)
				// A fresh id stands in for the killed node: ForceFailover waits
				// for a coordinator other than the one it killed.
				if _, err := cl.ForceFailover(uint16(3+i), 5*time.Second); err != nil {
					b.Fatal(err)
				}
				detail := awaitPromotion(b, cl, &seen)
				for _, f := range strings.Fields(strings.TrimPrefix(detail, "takeover ")) {
					k, v, _ := strings.Cut(f, "=")
					if ms, ok := strings.CutSuffix(v, "ms"); ok {
						x, err := strconv.ParseFloat(ms, 64)
						if err != nil {
							b.Fatalf("promotion detail %q: %v", detail, err)
						}
						if k == "total" {
							k = "promoted"
						}
						phases[k] = append(phases[k], x)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/op") // per failover
			for k, xs := range phases {
				slices.Sort(xs)
				b.ReportMetric(xs[len(xs)/2], k+"_ms")
			}
		})
	}
}

// awaitPromotion returns the detail of the first coordinator.promoted event
// after sequence number *seen, waiting for it, and advances *seen past it.
func awaitPromotion(b *testing.B, cl *sift.Cluster, seen *uint64) string {
	b.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		for _, e := range cl.Events().Recent(0) {
			if e.Seq > *seen && e.Type == "coordinator.promoted" {
				*seen = e.Seq
				return e.Detail
			}
		}
	}
	b.Fatal("no coordinator.promoted event after a failover")
	return ""
}
