package repmem

import "sync"

// lockRange is the byte range [addr, addr+size) of the main or direct space.
// An empty range holds no bytes and never waits.
type lockRange struct {
	addr uint64
	size int
}

// lockMode says whether holders of overlapping bytes may coexist.
type lockMode bool

const (
	shared    lockMode = true
	exclusive lockMode = false
)

// interval is one requested or granted [lo, hi) in its mode.
type interval struct {
	lo, hi uint64
	mode   lockMode
}

func (a interval) conflicts(b interval) bool {
	return a.lo < b.hi && b.lo < a.hi && !(a.mode == shared && b.mode == shared)
}

// lockWaiter is a blocked acquire: ready is closed by the release that
// grants every interval it wants.
type lockWaiter struct {
	want  []interval
	ready chan struct{}
}

// rangeLock is an exact byte-interval reader/writer lock: an acquire waits
// only for intervals that overlap one of its own in a conflicting mode, so
// two operations sharing no byte never wait for each other. A request for
// several ranges is granted all at once or not at all — a waiter holds
// nothing, so requests cannot deadlock whatever order their ranges come in.
// Waiters are served in arrival order: a request also waits behind every
// conflicting request queued before it, which keeps a stream of shared
// holders from starving an exclusive one and the reverse.
//
// The held set is a plain slice searched linearly. It has one entry per
// range of each operation in flight (tens on a saturated write path), and
// the uncontended acquire and release are one mutex round each with no
// allocation.
type rangeLock struct {
	mu    sync.Mutex
	held  []interval
	queue []*lockWaiter // arrival order
}

// intervals appends the non-empty ranges to dst, which the callers back with
// a stack array so that ordinary requests stay off the heap.
func intervals(dst []interval, mode lockMode, rs []lockRange) []interval {
	for _, r := range rs {
		if r.size > 0 {
			dst = append(dst, interval{lo: r.addr, hi: r.addr + uint64(r.size), mode: mode})
		}
	}
	return dst
}

// blocked reports whether want conflicts with a held interval or with a
// request queued in ahead. Intervals of one request never block each other.
func (l *rangeLock) blocked(want []interval, ahead []*lockWaiter) bool {
	for _, a := range want {
		for _, h := range l.held {
			if a.conflicts(h) {
				return true
			}
		}
		for _, w := range ahead {
			for _, b := range w.want {
				if a.conflicts(b) {
					return true
				}
			}
		}
	}
	return false
}

// stackRanges is how many ranges an acquire, a release or a WriteBatch
// takes without allocating (put_sat's apply flights carry about seven).
const stackRanges = 16

// acquire takes every range in rs in the given mode, atomically. Pair with
// release on the same mode and ranges.
func (l *rangeLock) acquire(mode lockMode, rs ...lockRange) {
	var buf [stackRanges]interval
	want := intervals(buf[:0], mode, rs)
	l.mu.Lock()
	if !l.blocked(want, l.queue) {
		l.held = append(l.held, want...)
		l.mu.Unlock()
		return
	}
	w := &lockWaiter{want: append([]interval(nil), want...), ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.mu.Unlock()
	<-w.ready
}

// release drops what acquire took and grants, in arrival order, every queued
// request that nothing held or queued ahead of it blocks any more.
func (l *rangeLock) release(mode lockMode, rs ...lockRange) {
	var buf [stackRanges]interval
	l.mu.Lock()
	for _, iv := range intervals(buf[:0], mode, rs) {
		i := 0
		for l.held[i] != iv { // an unpaired release indexes past the end
			i++
		}
		last := len(l.held) - 1
		l.held[i] = l.held[last]
		l.held = l.held[:last]
	}
	still := l.queue[:0]
	for _, w := range l.queue {
		if l.blocked(w.want, still) {
			still = append(still, w)
			continue
		}
		l.held = append(l.held, w.want...)
		close(w.ready)
	}
	clear(l.queue[len(still):])
	l.queue = still
	l.mu.Unlock()
}
