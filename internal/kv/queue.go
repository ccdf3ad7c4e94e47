package kv

import (
	"sync"
	"sync/atomic"
)

// shardQueue is an unbounded FIFO of apply tasks. Unboundedness matters:
// commit paths enqueue while holding the sequence lock, and appliers may
// wait for a task's commit to resolve before draining further, so a
// bounded queue could deadlock the committer against its own applier.
// Memory stays bounded regardless: outstanding entries are capped by the
// circular log window.
type shardQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*applyTask
	head   int
	closed bool
	// waitFor is the head task the consumer waits on cond for, the one
	// commit whose resolve must signal (applyTask.resolve).
	waitFor atomic.Pointer[applyTask]
}

func newShardQueue() *shardQueue {
	q := &shardQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends a task. Never blocks. Only a push onto an empty queue can
// find the consumer waiting for a task to exist.
//
// The wake here looks wasted: it mostly finds the new head still
// committing, and the applier sleeps again until that task's resolve wakes
// it (a runtime trace counts 0.35 applier wakes per put on put_solo, 0.64
// on mix_miss). But a variant that left the first wake to the resolve cost
// put_solo about 5 % in 3 of 4 paired runs (EXPERIMENTS.md, "Time to first
// service"). Do not remove it without measuring.
func (q *shardQueue) push(t *applyTask) {
	t.q = q
	q.mu.Lock()
	if q.head == len(q.items) {
		q.cond.Signal()
	}
	q.items = append(q.items, t)
	q.mu.Unlock()
}

// popBatch appends to dst the oldest task and, after that task's commit has
// resolved, every task queued behind it whose commit has resolved too, up to
// max in all. It blocks only for the head: the batch ends at the first task
// still committing, so a lone task goes at once and nothing waits for
// company. ok is false once the queue is closed and drained.
func (q *shardQueue) popBatch(dst []*applyTask, max int) (batch []*applyTask, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.head < len(q.items) {
			// Published before the check: a resolve after it signals.
			head := q.items[q.head]
			q.waitFor.Store(head)
			if head.resolved() {
				break
			}
		} else if q.closed {
			return dst, false
		}
		q.cond.Wait()
	}
	q.waitFor.Store(nil)
	for q.head < len(q.items) && len(dst) < max && q.items[q.head].resolved() {
		dst = append(dst, q.items[q.head])
		q.items[q.head] = nil
		q.head++
	}
	// Compact once the consumed prefix dominates, keeping memory bounded.
	if q.head > 1024 && q.head*2 > len(q.items) {
		q.items = append([]*applyTask(nil), q.items[q.head:]...)
		q.head = 0
	}
	return dst, true
}

// close wakes all consumers; pending tasks are still drained first.
func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
