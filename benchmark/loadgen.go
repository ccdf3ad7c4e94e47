package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// target is the client surface the generators drive; *sift.Client in the
// benchmark, a fake in the tests.
type target interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
}

const (
	opPut = iota
	opGet
	opKinds
)

// mix describes which operations a generator draws and over which keys.
type mix struct {
	keys    int     // populated keys; ids are 0..keys-1
	getFrac float64 // share of operations that are gets
	zipfPut bool    // puts follow zipf(0.99) over the key ids instead of uniform
}

// zipf draws ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^theta for theta < 1,
// which math/rand's Zipf does not cover (Gray et al., "Quickly generating
// billion-record synthetic databases", the generator YCSB uses).
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan             float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// makeKeys names the keys. The seed is part of every name, so that different
// seeds land on different hash buckets and blocks of the store.
func makeKeys(n int, seed int64) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("s%x-k%06d", uint32(seed), i))
	}
	return keys
}

// recorder collects one generator goroutine's measurements; goroutines never
// share one. Latencies are kept per operation kind and per window, in
// nanoseconds.
type recorder struct {
	lat       [opKinds][][]int64
	attempted int
	failed    int
	firstErr  error
	// Open loop only: every scheduled operation's due and completion time in
	// nanoseconds from the start of measurement, and whether it succeeded.
	timings []opTiming
}

type opTiming struct {
	due, done int64
	ok        bool
}

func newRecorder(windows int) *recorder {
	r := &recorder{}
	for k := range r.lat {
		r.lat[k] = make([][]int64, windows)
	}
	return r
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// worker is one client handle: a goroutine's connection to the store, the
// keys it alone writes, its value buffer and its random stream.
type worker struct {
	id   uint32
	n    uint32 // number of workers; worker id writes the keys ≡ id (mod n)
	tgt  target
	keys [][]byte
	led  *ledger
	rng  *rand.Rand
	zipf *zipf
	mix  mix
	buf  []byte
	rec  *recorder
}

func newWorker(id, n int, tgt target, keys [][]byte, led *ledger, m mix, seed int64, windows int) *worker {
	w := &worker{
		id: uint32(id), n: uint32(n), tgt: tgt, keys: keys, led: led, mix: m,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(id))),
		buf: make([]byte, valueSize),
		rec: newRecorder(windows),
	}
	w.rng.Read(w.buf)
	if m.zipfPut {
		w.zipf = newZipf(m.keys/n, 0.99)
	}
	return w
}

// ownKey maps a draw 0..keys/n-1 to the matching key this worker writes.
func (w *worker) ownKey(draw int) uint32 { return uint32(draw)*w.n + w.id }

// next draws the worker's next operation.
func (w *worker) next() (kind int, key uint32) {
	if w.mix.getFrac > 0 && w.rng.Float64() < w.mix.getFrac {
		return opGet, uint32(w.rng.Intn(w.mix.keys))
	}
	if w.zipf != nil {
		return opPut, w.ownKey(w.zipf.next(w.rng))
	}
	return opPut, w.ownKey(w.rng.Intn(w.mix.keys / int(w.n)))
}

// do performs one operation and checks its outcome against the ledger. A put
// must go to a key this worker owns.
func (w *worker) do(kind int, key uint32) error {
	if kind == opPut {
		seq := w.led.nextSeq(key)
		encodeValue(w.buf, key, w.id, seq)
		if err := w.tgt.Put(w.keys[key], w.buf); err != nil {
			return fmt.Errorf("put key %d: %w", key, err)
		}
		w.led.ack(key, seq)
		return nil
	}
	floor := w.led.floor(key)
	v, err := w.tgt.Get(w.keys[key])
	if err != nil {
		return fmt.Errorf("get key %d: %w", key, err)
	}
	return w.led.check(key, floor, v)
}

// populate writes every key the worker owns once.
func (w *worker) populate() error {
	for k := w.id; int(k) < w.mix.keys; k += w.n {
		if err := w.do(opPut, k); err != nil {
			return err
		}
	}
	return nil
}

// span is the measured part of a run: windows of equal length starting at t0.
// Operations completing before t0 are warm-up and are not recorded.
type span struct {
	t0      time.Time
	winLen  time.Duration
	windows int
}

func (s span) end() time.Time { return s.t0.Add(time.Duration(s.windows) * s.winLen) }

// window is the index of the window t falls in, or -1 outside the span.
func (s span) window(t time.Time) int {
	d := t.Sub(s.t0)
	if d < 0 {
		return -1
	}
	if i := int(d / s.winLen); i < s.windows {
		return i
	}
	return -1
}

// closedLoop runs each worker as a client that sends its next operation when
// the previous one completes, until the span ends. Latency runs from issue.
func closedLoop(ws []*worker, s span) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			end := s.end()
			for start := time.Now(); start.Before(end); {
				kind, key := w.next()
				err := w.do(kind, key)
				done := time.Now()
				w.rec.attempted++
				if err != nil {
					w.rec.fail(err)
				} else if i := s.window(done); i >= 0 {
					w.rec.lat[kind][i] = append(w.rec.lat[kind][i], int64(done.Sub(start)))
				}
				start = done
			}
		}(w)
	}
	wg.Wait()
}

// scheduled is one open-loop operation with the time it is due.
type scheduled struct {
	kind int
	key  uint32
	due  time.Time
}

// openLoop issues rate operations per second on an absolute schedule: the
// i-th operation is due at start + i/rate whatever happened to the ones
// before it, so a stalled store faces the same offered load as a healthy one
// and the wait shows up as latency, which runs from the due time. Operations
// are handed to the worker that owns their key (gets go by key too), each
// through its own queue, because a key's puts must stay in order. The
// schedule covers the warm-up before s.t0 as well; only operations due inside
// the span are recorded. It returns how late, in nanoseconds, each recorded
// operation was handed over.
func openLoop(ws []*worker, s span, start time.Time, rate int, seed int64) (lateness []int64) {
	m := ws[0].mix
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	// A queue holds every operation that can fall due to one worker during a
	// whole run, so the dispatcher never blocks however long the store stalls.
	total := int(s.end().Sub(start).Seconds()*float64(rate)) + 1
	queues := make([]chan scheduled, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		queues[i] = make(chan scheduled, total)
		wg.Add(1)
		go func(w *worker, q chan scheduled) {
			defer wg.Done()
			for op := range q {
				err := w.do(op.kind, op.key)
				done := time.Now()
				w.rec.attempted++
				if err != nil {
					w.rec.fail(err)
				}
				i := s.window(op.due)
				if i < 0 {
					continue
				}
				w.rec.timings = append(w.rec.timings, opTiming{due: int64(op.due.Sub(s.t0)), done: int64(done.Sub(s.t0)), ok: err == nil})
				if err == nil {
					w.rec.lat[op.kind][i] = append(w.rec.lat[op.kind][i], int64(done.Sub(op.due)))
				}
			}
		}(w, queues[i])
	}
	interval := time.Second / time.Duration(rate)
	for i := 0; i < total; i++ {
		op := scheduled{kind: opPut, due: start.Add(time.Duration(i) * interval)}
		if rng.Float64() < m.getFrac {
			op.kind = opGet
		}
		op.key = uint32(rng.Intn(m.keys))
		if d := time.Until(op.due); d > 0 {
			time.Sleep(d)
		}
		if s.window(op.due) >= 0 {
			lateness = append(lateness, int64(time.Since(op.due)))
		}
		queues[op.key%uint32(len(ws))] <- op
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return lateness
}
