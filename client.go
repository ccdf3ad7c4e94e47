package sift

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/kv"
	"github.com/repro/sift/internal/linearize"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/repmem"
)

// Client is a handle for issuing key-value operations against the cluster.
// It routes every request to the current coordinator and transparently
// retries across coordinator failovers (a request that raced a failover is
// retried against the new coordinator; committed effects are never lost).
// Clients are safe for concurrent use.
type Client struct {
	cluster *Cluster
	// RetryBudget bounds how long an operation may wait across failovers
	// (default 10s).
	RetryBudget time.Duration
	// ClientID labels this client's operations in the recorded History.
	ClientID int
	// History, when non-nil, records every operation's invocation and
	// outcome — including ambiguous ones — for linearizability checking.
	History *linearize.Recorder
}

func (c *Client) budget() time.Duration {
	if c.RetryBudget > 0 {
		return c.RetryBudget
	}
	return 10 * time.Second
}

// retriable reports whether an error indicates a coordinator transition or
// transport fault (as opposed to a caller mistake), so the operation should
// be retried against the next coordinator. Transport deadline/teardown
// errors are included even though repmem normally folds them into
// ErrNoQuorum: an op that races a coordinator hang can still surface one
// raw, and it must not reach the caller when retry budget remains.
func retriable(err error) bool {
	return errors.Is(err, kv.ErrClosed) ||
		errors.Is(err, repmem.ErrFenced) ||
		errors.Is(err, repmem.ErrClosed) ||
		errors.Is(err, repmem.ErrNoQuorum) ||
		errors.Is(err, rdma.ErrDeadline) ||
		errors.Is(err, rdma.ErrClosed)
}

// jitteredBackoff spreads b uniformly over [b/2, 3b/2) — same scheme as
// internal/repmem's redial circuit — and caps the sleep at remaining, so the herd
// desynchronizes and the final retry still lands inside the budget instead
// of sleeping through it. A nil rng uses the process-global source.
func jitteredBackoff(b, remaining time.Duration, rng *rand.Rand) time.Duration {
	var d time.Duration
	if rng != nil {
		d = b/2 + time.Duration(rng.Int63n(int64(b)))
	} else {
		d = b/2 + time.Duration(rand.Int63n(int64(b)))
	}
	if d > remaining {
		d = remaining
	}
	return d
}

// doWAN runs op as doUntil does, for a budget's worth of wall clock from
// start (the caller's reading at the operation's start), with the simulated
// client↔coordinator WAN legs charged around each attempt: the request leg
// before the store operation, the response leg after it. A leg that exhausts
// its flight retry budget surfaces an error wrapping rdma.ErrDeadline, so the
// retry loop re-sends it, as a real client rides out a lossy wide-area path.
// On a LAN cluster (no Config.WAN, or no ClientWAN) op runs alone.
func (c *Client) doWAN(start time.Time, reqSize, respSize int, op func(*kv.Store) error) error {
	deadline := start.Add(c.budget())
	w := c.cluster.wan
	if w == nil || w.client == nil {
		return c.doUntil(deadline, op)
	}
	return c.doUntil(deadline, func(st *kv.Store) error {
		if err := w.clientLeg(reqSize); err != nil {
			return err
		}
		if err := op(st); err != nil {
			return err
		}
		return w.clientLeg(respSize)
	})
}

// doUntil runs op against the current coordinator, retrying across
// failovers with jittered exponential backoff until the absolute deadline.
// When the deadline expires it returns ErrAmbiguous if at least one attempt
// reached a coordinator (the op may have committed) and plain
// ErrNoCoordinator if none did.
//
// Taking an absolute deadline rather than a budget is what lets fan-out
// callers (ShardClient) share one wall-clock budget across every per-group
// sub-operation: each sub-op clamps to the remaining total instead of
// multiplying the budget by the number of groups.
func (c *Client) doUntil(deadline time.Time, op func(*kv.Store) error) error {
	return c.retry(deadline, time.Millisecond, op)
}

// retry is doUntil with the first backoff step given. A step ends early when
// a CPU node is promoted: the outage is over the moment there is a
// coordinator, not when the sleep that happened to span it runs out.
func (c *Client) retry(deadline time.Time, backoff time.Duration, op func(*kv.Store) error) error {
	sent := false
	cl := c.cluster
	cm := cl.cm
	for {
		st := cl.coordinatorStore()
		if st != nil {
			err := op(st)
			if err == nil || !retriable(err) {
				return err
			}
			sent = true
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if sent {
				cm.ambiguous.Inc()
				return ErrAmbiguous
			}
			cm.noCoord.Inc()
			return ErrNoCoordinator
		}
		// Only a failed attempt pays for the signal. A promotion between the
		// attempt and this load has closed a channel we never held, so look
		// again: a coordinator other than the one that just failed is worth
		// an attempt at once.
		promoted := *cl.promoted.Load()
		if cl.coordinatorStore() != st {
			continue
		}
		cm.retries.Inc()
		step := time.NewTimer(jitteredBackoff(backoff, remaining, nil))
		select {
		case <-promoted:
			step.Stop()
		case <-step.C:
		}
		if backoff < 16*time.Millisecond {
			backoff *= 2
		}
	}
}

// invoke records an operation's invocation in History. Key and value are
// converted only when a recorder is set, so a client that records nothing
// pays nothing for it.
func (c *Client) invoke(kind linearize.Kind, key, value []byte) *linearize.Pending {
	if c.History == nil {
		return nil
	}
	return c.History.Invoke(c.ClientID, kind, string(key), string(value))
}

// finishWrite resolves a recorded put/delete against its outcome. A write
// whose fate is unknown stays in the history open-ended; only errors that
// guarantee the op never reached the log discard it.
func finishWrite(p *linearize.Pending, err error) {
	switch {
	case err == nil:
		p.Commit("", false)
	case errors.Is(err, ErrAmbiguous):
		p.Ambiguous()
	case errors.Is(err, ErrNoCoordinator), errors.Is(err, kv.ErrTooLarge):
		p.Discard()
	default:
		p.Ambiguous()
	}
}

// finishGet resolves a recorded get. Failed reads carry no information and
// leave the history.
func finishGet(p *linearize.Pending, out []byte, err error) {
	switch {
	case p == nil:
	case err == nil:
		p.Commit(string(out), false)
	case errors.Is(err, ErrNotFound):
		p.Commit("", true)
	default:
		p.Discard()
	}
}

// Put stores value under key. It returns once the update is committed on a
// majority of memory nodes.
func (c *Client) Put(key, value []byte) error {
	p := c.invoke(linearize.KindPut, key, value)
	start := time.Now()
	err := c.doWAN(start, wanOpHeader+len(key)+len(value), wanOpHeader,
		func(st *kv.Store) error { return st.Put(key, value) })
	c.cluster.cm.putLat.Record(time.Since(start))
	finishWrite(p, err)
	return err
}

// Get returns the value stored under key, or ErrNotFound. With
// Config.BackupReads the read is first offered to a follower CPU node
// holding a read lease; only found values are served from backups, so a
// miss (or any backup-side anomaly) transparently falls back to the
// coordinator.
func (c *Client) Get(key []byte) ([]byte, error) {
	p := c.invoke(linearize.KindGet, key, nil)
	var out []byte
	start := time.Now()
	if v, ok := c.cluster.wanBackupGet(key); ok {
		c.cluster.cm.getLat.Record(time.Since(start))
		finishGet(p, v, nil)
		return v, nil
	}
	err := c.doWAN(start, wanOpHeader+len(key), wanOpHeader+c.cluster.cfg.MaxValueSize,
		func(st *kv.Store) error {
			v, err := st.Get(key)
			if err != nil {
				return err
			}
			out = v
			return nil
		})
	c.cluster.cm.getLat.Record(time.Since(start))
	if errors.Is(err, kv.ErrNotFound) {
		err = ErrNotFound
	}
	finishGet(p, out, err)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delete removes key. Deleting a missing key is not an error.
func (c *Client) Delete(key []byte) error {
	p := c.invoke(linearize.KindDelete, key, nil)
	start := time.Now()
	err := c.doWAN(start, wanOpHeader+len(key), wanOpHeader,
		func(st *kv.Store) error { return st.Delete(key) })
	c.cluster.cm.deleteLat.Record(time.Since(start))
	finishWrite(p, err)
	return err
}

// Pair is one update in a PutBatch; a nil Value deletes the key.
type Pair = kv.Pair

// PutBatch commits several updates atomically: they occupy one log entry,
// so a coordinator failure replays all of them or none, and no conflicting
// write interleaves between them (paper §3.3.2's multi-write commit). The
// whole batch must fit in one log slot — use it for a handful of related
// small updates, not bulk loading.
//
// History records each pair as its own per-key write (the per-key checker
// cannot express cross-key atomicity; see internal/linearize).
func (c *Client) PutBatch(pairs []Pair) error {
	var ps []*linearize.Pending
	if c.History != nil {
		ps = make([]*linearize.Pending, 0, len(pairs))
		for _, pr := range pairs {
			if pr.Value == nil {
				ps = append(ps, c.History.Invoke(c.ClientID, linearize.KindDelete, string(pr.Key), ""))
			} else {
				ps = append(ps, c.History.Invoke(c.ClientID, linearize.KindPut, string(pr.Key), string(pr.Value)))
			}
		}
	}
	start := time.Now()
	// One token spans every retry of this batch: a retry whose predecessor
	// was durable but unacked (ambiguous failure, possibly across a
	// coordinator failover) dedups server-side instead of applying twice.
	tok := newBatchToken()
	reqSize := wanOpHeader
	for _, pr := range pairs {
		reqSize += len(pr.Key) + len(pr.Value)
	}
	err := c.doWAN(start, reqSize, wanOpHeader,
		func(st *kv.Store) error { return st.PutBatchIdem(tok, pairs) })
	c.cluster.cm.batchLat.Record(time.Since(start))
	for _, p := range ps {
		finishWrite(p, err)
	}
	return err
}

// batchTokenSeq makes in-process batch tokens unique; the random half keeps
// tokens from colliding across client processes sharing a cluster.
var batchTokenSeq atomic.Uint32

// newBatchToken returns a fresh 8-byte idempotency token. 8 bytes fits any
// usable MaxKeySize (tokens travel in a record's key field).
func newBatchToken() []byte {
	tok := make([]byte, 8)
	binary.LittleEndian.PutUint32(tok[:4], rand.Uint32())
	binary.LittleEndian.PutUint32(tok[4:], batchTokenSeq.Add(1))
	return tok
}
