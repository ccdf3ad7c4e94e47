// BenchmarkPipelinedPut regenerates EXPERIMENTS.md's pipelined-transport
// table (`make bench-pipeline`). The paper's tables and figures are
// regenerated by cmd/siftbench, one -experiment each.
package sift_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
