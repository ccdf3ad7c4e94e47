package kv

import (
	"testing"
)

// TestPutBatchIdemDedupLive: a retry of an already-committed idempotent
// batch on the same store is a no-op — in particular it must not clobber a
// write that landed between the original and the retry.
func TestPutBatchIdemDedupLive(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)

	tok := []byte("batch-tok-1")
	if err := s.PutBatchIdem(tok, []Pair{{Key: []byte("k"), Value: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	// The retry (same token) must not resurrect "old".
	if err := s.PutBatchIdem(tok, []Pair{{Key: []byte("k"), Value: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	s.drain(t)
	v, err := s.Get([]byte("k"))
	if err != nil || string(v) != "new" {
		t.Fatalf("k = %q err=%v, want \"new\" (retry resurrected stale batch value)", v, err)
	}
	if hits := s.Stats().BatchDedupHits; hits != 1 {
		t.Fatalf("dedup hits = %d, want 1", hits)
	}
}

// TestPutBatchIdemDedupAcrossRecovery is the cross-failover regression: the
// original coordinator commits the batch but the client's ack is lost
// (ambiguous failure), a new coordinator recovers, an unrelated write lands,
// and then the client's retry arrives at the new coordinator. The retry must
// dedup against the token rebuilt from the log — re-applying it would
// resurrect the stale batch value over the newer write.
func TestPutBatchIdemDedupAcrossRecovery(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s1 := newStore(t, e, "cpu1", cfg)

	tok := []byte("ambiguous-tok")
	if err := s1.PutBatchIdem(tok, []Pair{
		{Key: []byte("a"), Value: []byte("batch-a")},
		{Key: []byte("b"), Value: []byte("batch-b")},
	}); err != nil {
		t.Fatal(err)
	}
	// s1 dies; s2 recovers and rebuilds the dedup set from the log.
	s2 := newStore(t, e, "cpu2", cfg)
	if err := s2.Put([]byte("a"), []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := s2.PutBatchIdem(tok, []Pair{
		{Key: []byte("a"), Value: []byte("batch-a")},
		{Key: []byte("b"), Value: []byte("batch-b")},
	}); err != nil {
		t.Fatal(err)
	}
	s2.drain(t)
	if v, err := s2.Get([]byte("a")); err != nil || string(v) != "newer" {
		t.Fatalf("a = %q err=%v, want \"newer\" (post-failover retry re-applied)", v, err)
	}
	if v, err := s2.Get([]byte("b")); err != nil || string(v) != "batch-b" {
		t.Fatalf("b = %q err=%v", v, err)
	}
	if hits := s2.Stats().BatchDedupHits; hits != 1 {
		t.Fatalf("dedup hits = %d, want 1", hits)
	}
}

// TestPutBatchIdemDoubleCommitReplay: when the same token appears twice in
// the log (an ambiguous-failure retry that re-committed because the first
// attempt's durability was unknown), recovery replays only the first entry.
// Replaying the second would undo any write that interleaved between them.
func TestPutBatchIdemDoubleCommitReplay(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s1 := newStore(t, e, "cpu1", cfg)

	tok := []byte("double-tok")
	batch := []record{
		{op: opBatchToken, key: tok},
		{op: opPut, key: []byte("k"), value: []byte("batch")},
	}
	// Commit the batch, an interleaving write, and the batch again — driving
	// commit directly to bypass the live dedup, exactly what a client
	// retry through a different coordinator incarnation would produce.
	if _, err := s1.commit(batch...); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put([]byte("k"), []byte("interleaved")); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.commit(batch...); err != nil {
		t.Fatal(err)
	}
	s1.drain(t)

	s2 := newStore(t, e, "cpu2", cfg)
	if v, err := s2.Get([]byte("k")); err != nil || string(v) != "interleaved" {
		t.Fatalf("k = %q err=%v, want \"interleaved\" (replay applied the duplicate)", v, err)
	}
	if hits := s2.Stats().BatchDedupHits; hits != 1 {
		t.Fatalf("replay dedup hits = %d, want 1", hits)
	}
}

// TestPutBatchIdemEmptyToken: an empty token means no idempotency — it must
// behave exactly like PutBatch, including re-applying on repeat.
func TestPutBatchIdemEmptyToken(t *testing.T) {
	cfg := testCfg()
	e := newKVEnv(t, cfg, false)
	s := newStore(t, e, "c", cfg)
	for i := 0; i < 2; i++ {
		if err := s.PutBatchIdem(nil, []Pair{{Key: []byte("k"), Value: []byte{byte('0' + i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	s.drain(t)
	if v, err := s.Get([]byte("k")); err != nil || string(v) != "1" {
		t.Fatalf("k = %q err=%v", v, err)
	}
	if hits := s.Stats().BatchDedupHits; hits != 0 {
		t.Fatalf("dedup hits = %d, want 0", hits)
	}
}
