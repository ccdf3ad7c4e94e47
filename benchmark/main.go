// Command benchmark is the instrument every performance claim about this
// repository is measured with. It drives an in-process Sift cluster through
// the public API on six named workloads, verifies every value it reads back,
// and prints each metric by name with its unit; see README.md in this
// directory for why each workload and metric exists, and BENCHMARK.json at
// the root of the repository for the regression bounds.
//
//	go run . -workload put_sat -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object for the last workload
// run: the end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	names := flag.String("workload", "all", "comma-separated workload names, or all")
	seed := flag.Int64("seed", 1, "seed for keys, values, operation order and Config.Seed")
	seconds := flag.Float64("seconds", 15, "measured seconds per workload (warm-up, set-up and verification come on top)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, from counters and a span-traced stack")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload a,b|all] [-seed n] [-seconds s] [-trace 0|1]")
		os.Exit(2)
	}
	// Sized for the 2-core sandbox; more threads than 4 would let a larger
	// host run a different experiment under the same name.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var run []workload
	for _, n := range strings.Split(*names, ",") {
		if n == "all" {
			run = append(run, workloads...)
			continue
		}
		w, ok := findWorkload(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", n)
			os.Exit(2)
		}
		run = append(run, w)
	}

	exit := 0
	for _, w := range run {
		res, err := runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			os.Exit(1)
		}
		if !res.Correct {
			exit = 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	os.Exit(exit)
}

// report prints metrics of one workload, one per line, sorted by name. A
// metric that could not be measured (NaN or infinite) is an error: a missing
// number must not pass for a good one.
func report(workload string, ms map[string]metric) error {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", n)
		}
		fmt.Printf("%-10s %-36s %14.4f %s\n", workload, n, m.Value, m.Unit)
	}
	return nil
}
