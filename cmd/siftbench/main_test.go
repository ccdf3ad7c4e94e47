package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// TestEveryExperimentResolves: "all" and the -experiment help are built from
// order, so every name in it must have a runner and every runner a name.
func TestEveryExperimentResolves(t *testing.T) {
	for _, name := range order {
		if experiments[name] == nil {
			t.Errorf("experiment %q is in order but has no runner", name)
		}
	}
	if len(order) != len(experiments) {
		t.Errorf("order lists %d experiments, %d have runners", len(order), len(experiments))
	}
	if err := run("nosuch", options{out: new(bytes.Buffer)}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestCapacityExperimentsSmoke runs the three probes that have no other
// home — the shard knees, the priced capacity sweeps and the replacement
// probe — end to end on in-process clusters with short steps.
func TestCapacityExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweeps in -short mode")
	}
	var out bytes.Buffer
	err := run("shard,capacity,replace", options{
		out: &out, keys: 4096, valueSize: 992, clients: 32,
		duration: 300 * time.Millisecond, warmup: 100 * time.Millisecond, reps: 1, seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(out.String())
	positive := func(what string, re *regexp.Regexp, want int) {
		t.Helper()
		found := re.FindAllStringSubmatch(out.String(), -1)
		if len(found) != want {
			t.Fatalf("%s: %d lines, want %d", what, len(found), want)
		}
		for _, m := range found {
			if v, _ := strconv.ParseFloat(m[1], 64); v <= 0 {
				t.Errorf("%s: %q", what, m[0])
			}
		}
	}
	positive("shard knee", regexp.MustCompile(`(?m)^[124] +(\d+) .*x$`), 3)
	positive("capacity knee", regexp.MustCompile(`(?m)^knee: (\d+) ops/sec`), 3)
	positive("capacity cost", regexp.MustCompile(`(?m)^(?:AWS|GCP) +(\d+\.\d+)$`), 6)
	positive("replacements", regexp.MustCompile(`(?m)^replacements: (\d+)$`), 1)
}
