package kv

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// recordingSink captures persistence callbacks.
type recordingSink struct {
	mu   sync.Mutex
	data map[string]string
	puts int
	dels int
}

func newRecordingSink() *recordingSink {
	return &recordingSink{data: make(map[string]string)}
}

func (r *recordingSink) Put(key, value []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.data[string(key)] = string(value)
	r.puts++
	return nil
}

func (r *recordingSink) Delete(key []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.data, string(key))
	r.dels++
	return nil
}

func (r *recordingSink) get(key string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.data[key]
	return v, ok
}

// calls reports how many updates the sink has received.
func (r *recordingSink) calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.puts + r.dels
}

func TestPersistenceHookReceivesCommittedUpdates(t *testing.T) {
	cfg := testCfg()
	sink := newRecordingSink()
	cfg.Persist = sink
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)

	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("pk%d", i)), []byte(fmt.Sprintf("pv%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete([]byte("pk3")); err != nil {
		t.Fatal(err)
	}
	s.drain(t)

	// The background appliers persist synchronously after applying, so by
	// drain time everything is in the sink.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := sink.get("pk19"); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("pk%d", i)
		v, ok := sink.get(key)
		if i == 3 {
			if ok {
				t.Fatalf("deleted key %s persisted", key)
			}
			continue
		}
		if !ok || v != fmt.Sprintf("pv%d", i) {
			t.Fatalf("%s = %q ok=%v", key, v, ok)
		}
	}
	sink.mu.Lock()
	dels := sink.dels
	sink.mu.Unlock()
	if dels != 1 {
		t.Fatalf("deletes persisted = %d", dels)
	}
}

func TestPersistenceOrderingPerKey(t *testing.T) {
	// Repeated puts to one key must leave the sink with the final value
	// (per-key commit order is preserved through the shard queues).
	cfg := testCfg()
	sink := newRecordingSink()
	cfg.Persist = sink
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)

	for i := 0; i < 50; i++ {
		if err := s.Put([]byte("seq"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.drain(t)
	if v, ok := sink.get("seq"); !ok || v != "v49" {
		t.Fatalf("sink has %q ok=%v, want v49", v, ok)
	}
}
