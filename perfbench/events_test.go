package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

func streamBytes(t *testing.T, wl string, seed int64) []byte {
	t.Helper()
	events, err := makeEvents(wl, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamsAreSeeded checks that a seed fixes each workload's event
// stream byte for byte and that another seed changes it.
func TestStreamsAreSeeded(t *testing.T) {
	for _, wl := range workloads {
		a, b := streamBytes(t, wl, 7), streamBytes(t, wl, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", wl)
		}
		if bytes.Equal(a, streamBytes(t, wl, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", wl)
		}
	}
}

// TestColdScanBypassesCache checks cold-scan's purpose: its benign events
// hold more distinct structure keys than the Guard's cache, every benign
// event is safe and every injected payload is flagged by the reference.
func TestColdScanBypassesCache(t *testing.T) {
	events, err := makeEvents("cold-scan", 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := setup("cold-scan", 3, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	refs, err := referenceVerdicts(sys, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	if keys := distinctStructureKeys(events, refs); keys <= cacheCapacity {
		t.Errorf("%d distinct structure keys, want more than %d", keys, cacheCapacity)
	}
	for i, ev := range events {
		if refs[i].Attack != ev.Injected {
			t.Fatalf("event %d %q: reference attack=%t, generated as attack=%t", i, ev.Query, refs[i].Attack, ev.Injected)
		}
	}
}

// TestWarmWorkloadHitsCache checks wp-warm's purpose: after one warm-up
// pass the Guard answers the stream from its PTI cache.
func TestWarmWorkloadHitsCache(t *testing.T) {
	events, err := makeEvents("wp-warm", 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := setup("wp-warm", 3, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	refs, err := referenceVerdicts(sys, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	ver := &verifier{refs: refs, events: events}
	warmUp(sys, events, ver, 2, 1, 0)
	c0 := sys.cacheStats()
	warmUp(sys, events, ver, 2, 1, 0)
	c1 := sys.cacheStats()
	hits := float64(c1.QueryHits + c1.StructureHits - c0.QueryHits - c0.StructureHits)
	if hr := hits / (hits + float64(c1.Misses-c0.Misses)); hr < minHitRatio {
		t.Errorf("PTI hit ratio %.3f after warm-up, want at least %.2f", hr, minHitRatio)
	}
	if n := ver.failed.Load(); n != 0 {
		t.Errorf("%d verdicts differ from the reference: %v", n, ver.first)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := []uint32{1000, 2000, 3000, 4000}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 2}, {0.75, 3}, {0.99, 4}, {0, 1}} {
		if got := quantileUs(sorted, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "wp-warm", "--seconds", "0"},
		{"--workload", "wp-warm", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
