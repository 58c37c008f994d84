package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// loop drives the closed loop: workers goroutines each issue their next
// check only after the previous verdict returned, as application request
// threads blocking on the hook do. Worker w walks events w, w+W, w+2W, …
// cyclically, so workers share no cursor. Each worker runs at least
// minEach steps and then until dur has passed; loop returns the wall time
// and the step count.
func loop(workers, n int, dur time.Duration, minEach int, step func(w, i int)) (time.Duration, int64) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	counts := make([]int64, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i, k := w%n, 0
			for ; k < minEach || !stop.Load(); k++ {
				step(w, i)
				if i += workers; i >= n {
					i -= n
				}
			}
			counts[w] = int64(k)
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	var total int64
	for _, c := range counts {
		total += c
	}
	return elapsed, total
}

// verifier compares verdicts against the reference and keeps the first
// few mismatches for the report.
type verifier struct {
	refs   []refVerdict
	events []Event
	failed atomic.Int64

	mu    sync.Mutex
	first []string
}

const reportMismatches = 5

func (v *verifier) verify(i int, got refVerdict, err error) {
	if err == nil && got == v.refs[i] {
		return
	}
	v.failed.Add(1)
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.first) < reportMismatches {
		if err != nil {
			v.first = append(v.first, fmt.Sprintf("error %v on %q", err, v.events[i].Query))
		} else {
			v.first = append(v.first, fmt.Sprintf("verdict %+v, reference %+v on %q", got, v.refs[i], v.events[i].Query))
		}
	}
}

// latencies holds one worker's exact per-check latencies in nanoseconds,
// in fixed-size chunks so recording never copies a grown buffer while the
// clock runs.
type latencies struct {
	chunks [][]uint32
	_      [64]byte // keeps workers' slices off one cache line
}

const latencyChunk = 1 << 16

func (l *latencies) add(d time.Duration) {
	if len(l.chunks) == 0 || len(l.chunks[len(l.chunks)-1]) == latencyChunk {
		l.chunks = append(l.chunks, make([]uint32, 0, latencyChunk))
	}
	ns := d.Nanoseconds()
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, uint32(ns))
}

// sortedSamples merges the workers' samples in ascending order.
func sortedSamples(per []latencies) []uint32 {
	var all []uint32
	for _, l := range per {
		for _, c := range l.chunks {
			all = append(all, c...)
		}
	}
	slices.Sort(all)
	return all
}

// quantileUs is the nearest-rank q-quantile of sorted ns samples, in µs.
func quantileUs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q*float64(len(sorted)))) - 1
	if r < 0 {
		r = 0
	}
	return float64(sorted[r]) / 1e3
}

// e2eResult is one untraced measurement: the median over its windows of
// each window's throughput and latency quantiles.
type e2eResult struct {
	checks, samples   int64
	cps, p50us, p99us float64
}

// measureE2E times every check of an untraced closed loop for dur, in
// windows of a second; reporting the median window keeps a burst of
// interference on a shared host from moving the run's figures.
func measureE2E(sys *system, events []Event, ver *verifier, workers int, dur time.Duration) e2eResult {
	ctx := context.Background()
	var res e2eResult
	var cps, p50, p99 []float64
	windows := max(1, int(dur/time.Second))
	for range windows {
		per := make([]latencies, workers)
		elapsed, checks := loop(workers, len(events), dur/time.Duration(windows), 0, func(w, i int) {
			t0 := time.Now()
			v, err := sys.check(ctx, &events[i])
			per[w].add(time.Since(t0))
			ver.verify(i, votes(v), err)
		})
		sorted := sortedSamples(per)
		res.checks += checks
		res.samples += int64(len(sorted))
		cps = append(cps, float64(checks)/elapsed.Seconds())
		p50 = append(p50, quantileUs(sorted, 0.50))
		p99 = append(p99, quantileUs(sorted, 0.99))
	}
	res.cps, res.p50us, res.p99us = median(cps), median(p50), median(p99)
	return res
}

// warmUp runs the untraced loop for at least passes full passes over the
// stream and at least dur, so caches fill and lazy set-up finishes before
// anything is timed. Its verdicts are verified too; it returns the number
// of checks it issued.
func warmUp(sys *system, events []Event, ver *verifier, workers, passes int, dur time.Duration) int64 {
	ctx := context.Background()
	minEach := passes * (len(events) + workers - 1) / workers
	_, checks := loop(workers, len(events), dur, minEach, func(w, i int) {
		v, err := sys.check(ctx, &events[i])
		ver.verify(i, votes(v), err)
	})
	return checks
}
