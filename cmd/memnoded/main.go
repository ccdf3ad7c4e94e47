// Command memnoded runs a passive Sift memory node: it registers the
// administrative and replicated memory regions and serves one-sided RDMA
// operations (READ/WRITE/CAS) over TCP. After startup it executes no
// protocol logic whatsoever — the process is the software stand-in for an
// RNIC fronting a block of memory.
//
// The sizing flags must match the coordinator's (cmd/siftd); both derive
// the region layout through the same code path.
//
// Usage:
//
//	memnoded -addr :7000 -keys 100000 -f 1 [-ec]
package main

import (
	"flag"
	"log"
	"net"

	"github.com/repro/sift/internal/deploy"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/obs"
	"github.com/repro/sift/internal/rdma"
)

func main() {
	var (
		addr       = flag.String("addr", ":7000", "listen address for RDMA-over-TCP")
		f          = flag.Int("f", 1, "fault tolerance level F")
		ec         = flag.Bool("ec", false, "erasure-coded deployment")
		keys       = flag.Int("keys", 16384, "key-value store capacity")
		maxKey     = flag.Int("max-key", 32, "maximum key size in bytes")
		maxValue   = flag.Int("max-value", 992, "maximum value size in bytes")
		kvWALSlots = flag.Int("kv-wal-slots", 4096, "key-value log entries")
		debugAddr  = flag.String("debug-addr", "", "debug HTTP listen address serving /metrics, /healthz, /statusz, /debug/pprof ('' disables)")
	)
	flag.Parse()

	params := deploy.Params{
		F: *f, EC: *ec,
		Keys: *keys, MaxKey: *maxKey, MaxValue: *maxValue,
		KVWALSlots: *kvWALSlots,
	}
	layout, err := params.Layout()
	if err != nil {
		log.Fatalf("memnoded: %v", err)
	}
	node, err := memnode.New(*addr, layout)
	if err != nil {
		log.Fatalf("memnoded: %v", err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("memnoded: %v", err)
	}
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterProcess(reg)
		reg.GaugeFunc("sift_memnode_repl_bytes", "Replicated region size in bytes.",
			func() float64 { return float64(layout.ReplSize()) })
		statusz := func() any {
			return map[string]any{
				"addr":        *addr,
				"layout":      layout,
				"repl_bytes":  layout.ReplSize(),
				"admin_bytes": memnode.AdminSize,
			}
		}
		_, daddr, err := obs.Start(*debugAddr, obs.Options{Registry: reg, Statusz: statusz})
		if err != nil {
			log.Fatalf("memnoded: %v", err)
		}
		log.Printf("memnoded: debug server on http://%s (/metrics /healthz /statusz /debug/pprof)", daddr)
	}
	log.Printf("memnoded: serving %d B replicated region + %d B admin region on %s",
		layout.ReplSize(), memnode.AdminSize, l.Addr())
	if err := rdma.Serve(l, node); err != nil {
		log.Fatalf("memnoded: %v", err)
	}
}
