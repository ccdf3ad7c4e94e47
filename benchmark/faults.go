package main

import (
	"fmt"
	"math"
	"time"

	"github.com/repro/sift"
)

// faultLog is what the fault schedule did and how long the cluster took.
type faultLog struct {
	kills     []int64 // coordinator kill times, nanoseconds from the start of measurement
	recoveryS float64 // memory-node restart to reintegrated
	replaceS  float64 // duration of the live memory-node replacement, retries included

	replaceTries int
	err          error
}

// The fault schedule over the measured time T. Coordinator kills come one
// killCycle apart during the first killShare of T, each killed CPU node
// restarted half a cycle later so that the next kill again finds a standby;
// the cycle is T/10 but never so short that the previous failover (0.15 to
// 0.25 s here) and the standby's start would still be under way. Then a
// memory node crashes and stays down for T/10, restarts empty and is
// reintegrated; then another memory node is replaced live.
const (
	killShare    = 0.6
	minKillCycle = 500 * time.Millisecond
)

// runFaultSchedule injects the schedule during sp. It returns when the last
// fault has been repaired, or with an error when a repair did not happen in
// time. The sampler is told about each kill so that counters restarting from
// zero are added up correctly.
func runFaultSchedule(cl *sift.Cluster, sp span, smp *sampler) faultLog {
	var f faultLog
	total := time.Duration(sp.windows) * sp.winLen
	at := func(d time.Duration) { time.Sleep(time.Until(sp.t0.Add(d))) }
	cycle := max(total/10, minKillCycle)
	kills := max(1, int(killShare*float64(total)/float64(cycle)))

	for i := 0; i < kills; i++ {
		at(time.Duration(i) * cycle)
		smp.observe()
		id := cl.KillCoordinator()
		f.kills = append(f.kills, int64(time.Since(sp.t0)))
		smp.rebase()
		if id == 0 {
			f.err = fmt.Errorf("kill %d: no coordinator to kill, the previous failover has not finished", i+1)
			return f
		}
		at(time.Duration(i)*cycle + cycle/2)
		cl.StartCPUNode(id)
	}

	at(time.Duration(kills) * cycle)
	nodes := cl.MemoryNodes()
	recovered := cl.Stats().Memory.NodeRecovered
	cl.KillMemoryNode(nodes[0])
	at(time.Duration(kills)*cycle + total/10)
	start := time.Now()
	cl.RestartMemoryNode(nodes[0])
	if err := cl.AwaitMemoryNodeRecovery(recovered+1, 10*time.Second); err != nil {
		f.err = err
		return f
	}
	f.recoveryS = time.Since(start).Seconds()

	// A replacement that loses its connections to a coordinator change
	// (the copy can starve the heartbeat of CPU and trigger one) aborts
	// cleanly; an operator would ask again, and so does the schedule.
	start = time.Now()
	for f.replaceTries = 1; ; f.replaceTries++ {
		_, err := cl.ReplaceMemoryNode(nodes[1], "")
		if err == nil {
			break
		}
		if f.replaceTries == 3 {
			f.err = fmt.Errorf("replace %s: %w", nodes[1], err)
			return f
		}
	}
	f.replaceS = time.Since(start).Seconds()
	return f
}

// failovers returns, for each kill, the milliseconds from the kill to the
// first completion of an operation that was due after it: the time without
// service as a client sees it. A kill no later operation completed after
// gives +Inf.
func (f faultLog) failovers(timings []opTiming) []float64 {
	out := make([]float64, len(f.kills))
	for i, kill := range f.kills {
		first := int64(math.MaxInt64)
		for _, t := range timings {
			if t.ok && t.due >= kill && t.done < first {
				first = t.done
			}
		}
		out[i] = math.Inf(1)
		if first != math.MaxInt64 {
			out[i] = float64(first-kill) / 1e6
		}
	}
	return out
}
