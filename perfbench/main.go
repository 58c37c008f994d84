// Command perfbench is the Joza benchmark. It drives the shipped front
// doors — joza.Guard in process, and joza.RemoteGuard over a DaemonPool to
// a loopback daemon — with a closed loop of worker goroutines, checks
// every verdict against a cache-less reference Guard, and prints one JSON
// result line: the end-to-end metrics from an untraced run, or with
// --trace 1 the per-layer metrics from spans the benchmark records
// around calls into each layer. See README.md for the workloads and for
// which layer metric should move which end-to-end metric.
//
//	go run . --workload wp-warm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"joza/internal/workload"
)

// workloads lists the benchmark's workloads; README.md says why each was
// chosen.
var workloads = []string{"wp-warm", "cold-scan", "wp-daemon"}

const (
	// setupReps is how many times a run builds the system; setup_s is the
	// median, and the last build is measured.
	setupReps = 11
	// warmPasses and warmMin bound the untimed warm-up.
	warmPasses = 2
	warmMin    = time.Second
	// minHitRatio is the PTI cache hit ratio the warm workloads must reach
	// after warm-up for their numbers to mean what they claim.
	minHitRatio = 0.9
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", fmt.Sprintf("workload: one of %v", workloads))
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 makes the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *wl) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", workloads)
		return 2
	}
	traceOut := fmt.Sprintf(".bench_build/trace/%s-%d.jsonl", *wl, *seed)
	res, err := bench(*wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1, traceOut, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs one workload and returns its result; diagnostics go to
// stdout as "#" lines before the result line, mismatches to stderr.
func bench(wl string, seed int64, dur time.Duration, traced bool, traceOut string, stdout, stderr io.Writer) (result, error) {
	workers := min(2, runtime.NumCPU())
	fmt.Fprintf(stdout, "# machine nproc=%d GOMAXPROCS=%d go=%s seed=%d workload=%s workers=%d trace=%t\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, wl, workers, traced)

	events, err := makeEvents(wl, seed)
	if err != nil {
		return result{}, err
	}
	var sys *system
	setups := make([]float64, setupReps)
	for k := range setups {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		t0 := time.Now()
		if sys, err = setup(wl, seed, traced, workers); err != nil {
			return result{}, err
		}
		setups[k] = time.Since(t0).Seconds()
	}
	defer sys.close()

	refs, err := referenceVerdicts(sys, events, workers)
	if err != nil {
		return result{}, err
	}
	attacks := 0
	for _, r := range refs {
		if r.Attack {
			attacks++
		}
	}
	fmt.Fprintf(stdout, "# events=%d reference_attacks=%d setup_s_runs=%v\n", len(events), attacks, setups)
	var problems []string
	if wl == "cold-scan" {
		keys := distinctStructureKeys(events, refs)
		fmt.Fprintf(stdout, "# distinct_structure_keys=%d cache_capacity=%d\n", keys, cacheCapacity)
		if keys <= cacheCapacity {
			problems = append(problems, fmt.Sprintf("cold-scan has %d distinct structure keys, not more than the cache's %d", keys, cacheCapacity))
		}
	}

	ver := &verifier{refs: refs, events: events}
	attempted := warmUp(sys, events, ver, workers, warmPasses, warmMin)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6

	c0 := sys.cacheStats()
	var metrics map[string]metric
	if traced {
		tr, err := measureTraced(sys, events, ver, workers, dur, traceOut)
		if err != nil {
			return result{}, err
		}
		attempted += tr.checks
		metrics = tr.metrics
		fmt.Fprintf(stdout, "# account %s\n# spans %s\n", tr.account, traceOut)
	} else {
		r := measureE2E(sys, events, ver, workers, dur)
		attempted += r.checks
		metrics = map[string]metric{
			"check_p50_us":    {r.p50us, "us"},
			"check_p99_us":    {r.p99us, "us"},
			"check_samples":   {float64(r.samples), "count"},
			"checks_per_s":    {r.cps, "1/s"},
			"setup_s":         {median(setups), "s"},
			"heap_mb":         {heapMB, "MB"},
			"verdict_ok_frac": {0, "ratio"},
		}
		fmt.Fprintf(stdout, "# check_p50_us=%.3f check_p99_us=%.3f samples=%d (medians of one-second windows)\n",
			r.p50us, r.p99us, r.samples)
	}
	if wl != "cold-scan" {
		c1 := sys.cacheStats()
		hits := float64(c1.QueryHits + c1.StructureHits - c0.QueryHits - c0.StructureHits)
		hr := ratio(hits, hits+float64(c1.Misses-c0.Misses))
		fmt.Fprintf(stdout, "# pti_hit_ratio=%.4f\n", hr)
		if hr < minHitRatio {
			problems = append(problems, fmt.Sprintf("%s PTI hit ratio %.3f after warm-up is below %.2f", wl, hr, minHitRatio))
		}
	}
	failed := ver.failed.Load()
	if !traced {
		metrics["verdict_ok_frac"] = metric{1 - ratio(float64(failed), float64(attempted)), "ratio"}
	}
	for _, m := range ver.first {
		fmt.Fprintf(stderr, "perfbench: mismatch: %s\n", m)
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "perfbench: %s\n", p)
	}
	return result{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// makeEvents generates the workload's event stream from seed alone.
func makeEvents(wl string, seed int64) ([]Event, error) {
	site, err := workload.NewSite(siteURLs, seed)
	if err != nil {
		return nil, fmt.Errorf("site: %w", err)
	}
	if wl == "cold-scan" {
		return coldEventStream(site.Fragments, seed, coldEvents)
	}
	return wpEvents(site, wpRequests), nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
