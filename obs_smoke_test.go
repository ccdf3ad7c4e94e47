package sift

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/repro/sift/internal/obs"
)

// scrape fetches path from the cluster's debug handler.
func scrape(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts a series' value from Prometheus text output.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + " (.+)$")
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("series %q not found in /metrics output", series)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", series, m[1], err)
	}
	return v
}

// TestObsSmoke drives a workload through an in-process cluster and scrapes
// every debug endpoint, asserting the acceptance criteria: client-op and
// quorum-write counters are nonzero after the workload, /healthz is green,
// and /statusz carries term/role/pipeline/health.
func TestObsSmoke(t *testing.T) {
	cl := newTestCluster(t, smallConfig())
	c := cl.Client()
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if err := c.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(cl.DebugHandler())
	defer srv.Close()

	code, body := scrape(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	if v := metricValue(t, body, "sift_repmem_quorum_writes_total"); v == 0 {
		t.Error("sift_repmem_quorum_writes_total is zero after a write workload")
	}
	if v := metricValue(t, body, `sift_kv_ops_total{op="put"}`); v < 32 {
		t.Errorf(`sift_kv_ops_total{op="put"} = %v, want >= 32`, v)
	}
	if v := metricValue(t, body, `sift_client_op_seconds_count{op="put"}`); v < 32 {
		t.Errorf("client put latency count = %v, want >= 32", v)
	}
	if v := metricValue(t, body, "sift_election_promotions_total"); v == 0 {
		t.Error("no coordinator promotion recorded")
	}
	for _, want := range []string{
		"# TYPE sift_repmem_direct_write_seconds summary",
		"sift_process_goroutines",
		`sift_node_up{node="mem0"} 1`,
		"sift_kv_recovery_seconds",
		"sift_kv_recovery_replayed_records 0", // a fresh group's log is empty
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if code, body := scrape(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body = scrape(t, srv, "/statusz")
	if code != 200 {
		t.Fatalf("/statusz: %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"coordinator", "term", "cpu_nodes", "repmem", "kv", "kv_log", "health", "pipeline"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/statusz missing %q", key)
		}
	}
	if doc["coordinator"] == float64(0) {
		t.Error("/statusz reports no coordinator")
	}
	if log, _ := doc["kv_log"].(map[string]any); log["applied_mark"] == nil || log["apply_lag"] == nil ||
		log["applied_mark"].(float64)+log["apply_lag"].(float64) != 32 {
		t.Errorf("/statusz kv_log = %v, want the applied mark and the apply lag of 32 puts", doc["kv_log"])
	}

	code, body = scrape(t, srv, "/events")
	if code != 200 {
		t.Fatalf("/events: %d", code)
	}
	var events []obs.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/events not JSON: %v", err)
	}
	found := false
	for _, e := range events {
		if e.Type == "coordinator.promoted" {
			found = true
			// The takeover accounts for itself: phases and replay counts.
			for _, field := range []string{"total=", "mem_recover=", "scan=", "log_read=", "reconcile=", "replay=", "entries=", "read_slots=", "above_mark=", "replayed_records=", "chain_reads="} {
				if !strings.Contains(e.Detail, field) {
					t.Errorf("coordinator.promoted detail %q lacks %q", e.Detail, field)
				}
			}
		}
	}
	if !found {
		t.Errorf("no coordinator.promoted event in %d events", len(events))
	}

	if code, _ := scrape(t, srv, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
}

// TestObsForceFailoverEvents asserts the acceptance criterion that a forced
// failover shows up in /events as an election + fencing sequence: the
// cluster.force-failover marker, followed by a successor's campaign and
// win, its promotion, and the demotion of the old coordinator.
func TestObsForceFailoverEvents(t *testing.T) {
	cfg := smallConfig()
	cfg.CPUNodes = 2
	cl := newTestCluster(t, cfg)
	c := cl.Client()
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	before := cl.Events().Seq()
	if _, err := cl.ForceFailover(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The new coordinator's promotion gates ForceFailover's return, but the
	// old coordinator's demotion teardown can still be in flight.
	deadline := time.Now().Add(5 * time.Second)
	var seen map[string]bool
	for time.Now().Before(deadline) {
		seen = map[string]bool{}
		for _, e := range cl.Events().Recent(0) {
			if e.Seq > before {
				seen[e.Type] = true
			}
		}
		if seen["coordinator.promoted"] && seen["coordinator.demoted"] {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, typ := range []string{
		"cluster.force-failover",
		"election.campaign",
		"election.won",
		"coordinator.promoted",
		"coordinator.demoted",
	} {
		if !seen[typ] {
			t.Errorf("event %q missing after ForceFailover; got %v", typ, keys(seen))
		}
	}
	if err := c.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatalf("put after failover: %v", err)
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
