package bench

import (
	"errors"
	"time"

	sift "github.com/repro/sift"
)

// ReplacePutThroughput measures one closed-loop client's put throughput on
// an in-process F=1 cluster while memory nodes are replaced back to back —
// the bounded-degradation number for online reconfiguration (DESIGN.md
// §14). Puts that land in a no-coordinator window back off briefly (instead
// of hot-spinning a core against the failover path, which distorted the
// number on small runners) and are counted in skipped; any other error is
// returned.
func ReplacePutThroughput(dur time.Duration, seed int64) (putOps float64, replacements, skipped int, err error) {
	const keys = 4096
	cl, err := sift.NewCluster(sift.Config{F: 1, Keys: keys, MaxValueSize: 992, Seed: seed})
	if err != nil {
		return 0, 0, 0, err
	}
	defer cl.Close()
	c := cl.Client()

	val := make([]byte, 992)
	if err := populateParallel([]putClient{c}, DeploymentCapacityConfig{Keys: keys, ValueSize: len(val)}); err != nil {
		return 0, 0, 0, err
	}

	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		n := 0
		defer func() { done <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			victim := cl.MemoryNodes()[0]
			if _, err := cl.ReplaceMemoryNode(victim, ""); err != nil {
				return
			}
			n++
		}
	}()

	const noCoordBackoff = 2 * time.Millisecond
	start := time.Now()
	puts := 0
	for time.Since(start) < dur {
		if perr := c.Put(capacityKey(puts%keys), val); perr != nil {
			if errors.Is(perr, sift.ErrNoCoordinator) {
				skipped++
				time.Sleep(noCoordBackoff)
				continue
			}
			close(stop)
			<-done
			return 0, 0, 0, perr
		}
		puts++
	}
	elapsed := time.Since(start).Seconds()
	close(stop)
	replacements = <-done
	return float64(puts) / elapsed, replacements, skipped, nil
}
