package main

import (
	"fmt"
	"math/rand"
	"strings"

	"joza"
	"joza/internal/fragments"
	"joza/internal/sqlgen"
	"joza/internal/sqlparse"
	"joza/internal/workload"
)

// Event is one check the benchmark issues: the query a call site is about
// to run plus the raw inputs of the request that issued it.
type Event struct {
	Site   string
	Query  string
	Inputs []joza.Input
	// Injected marks a generated attack; the checks never see it.
	Injected bool
}

const (
	// siteURLs is the crawl space of the WordPress-like site (the paper
	// crawled 1001 unique URLs).
	siteURLs = 1001
	// wpRequests is the length of the wp-warm/wp-daemon request stream;
	// at about 4.7 queries per request it yields ~28k events, replayed
	// in a loop.
	wpRequests = 6000
	// trainRequests is the profile-training run, drawn from another seed.
	trainRequests = 1500
	// coldEvents is the length of the cold-scan stream; it must hold far
	// more distinct structure keys than the Guard's cache.
	coldEvents = 24000
	// cacheCapacity is the Guard's default per-cache entry count.
	cacheCapacity = 4096
	// trainSeedOffset derives the profile-training seed from the run seed,
	// so training never sees the measured stream.
	trainSeedOffset = 1_000_003
)

// wpEvents generates the paper's WordPress mix from site: reads with a 4%
// write share (workload.Mix) plus one search in every twenty requests.
// Every event carries a call-site ID naming the request kind and the
// statement's position in it, as a PHP hook would key on the caller.
func wpEvents(site *workload.Site, requests int) []Event {
	reads := site.GenerateMix(workload.Mix{WriteFraction: 0.04}, requests)
	var out []Event
	for i, req := range reads {
		if i%20 == 10 {
			req = site.NextRequest(workload.Search)
		}
		for j, ev := range req.Events {
			out = append(out, Event{
				Site:   fmt.Sprintf("%s.%d", req.Kind, j),
				Query:  ev.Query,
				Inputs: ev.Inputs,
			})
		}
	}
	return out
}

// coldEventStream assembles benign queries from the site's plugin
// vocabulary — a head fragment ending in "=", a literal, and optionally
// an ORDER BY tail fragment — so each is fully covered by trusted
// fragments while the stream holds far more distinct structures than the
// cache. One event in ten instead injects a SQLMap-style payload (all
// five sqlgen classes) at the key position, with the raw payload as the
// request input. Events carry no call site.
func coldEventStream(set *fragments.Set, seed int64, n int) ([]Event, error) {
	var heads, tails []string
	for _, f := range set.Fragments() {
		switch {
		case strings.HasPrefix(f, "SELECT col_") && strings.HasSuffix(f, "="),
			strings.HasPrefix(f, "UPDATE table_") && strings.HasSuffix(f, "="):
			heads = append(heads, f)
		case strings.HasPrefix(f, " ORDER BY col_"):
			tails = append(tails, f)
		}
	}
	if len(heads) == 0 || len(tails) == 0 {
		return nil, fmt.Errorf("cold-scan: site vocabulary has %d heads and %d tails", len(heads), len(tails))
	}
	var payloads []string
	gen := sqlgen.GenerateAll(sqlgen.Context{Columns: 2}, 40)
	for _, t := range []sqlgen.AttackType{sqlgen.Union, sqlgen.StandardBlind, sqlgen.DoubleBlind, sqlgen.Tautology, sqlgen.ErrorBased} {
		payloads = append(payloads, gen[t]...)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Event, n)
	for i := range out {
		head := heads[rng.Intn(len(heads))]
		if rng.Intn(10) == 0 {
			p := payloads[rng.Intn(len(payloads))]
			out[i] = Event{Query: head + p, Inputs: []joza.Input{{Source: "get", Name: "key", Value: p}}, Injected: true}
			continue
		}
		lit := fmt.Sprint(rng.Intn(1_000_000))
		value := lit
		if rng.Intn(2) == 0 {
			value = randWord(rng)
			lit = "'" + value + "'"
		}
		q := head + lit
		if rng.Intn(2) == 0 {
			q += tails[rng.Intn(len(tails))]
		}
		out[i] = Event{Query: q, Inputs: []joza.Input{
			{Source: "get", Name: "key", Value: value},
			{Source: "get", Name: "page", Value: fmt.Sprint(1 + rng.Intn(50))},
		}}
	}
	return out, nil
}

// randWord returns a six-letter lowercase word for string literals.
func randWord(rng *rand.Rand) string {
	const consonants, vowels = "bcdfghjklmnpqrstvwxz", "aeiou"
	b := make([]byte, 6)
	for i := 0; i < len(b); i += 2 {
		b[i] = consonants[rng.Intn(len(consonants))]
		b[i+1] = vowels[rng.Intn(len(vowels))]
	}
	return string(b)
}

// distinctStructureKeys counts the PTI structure-cache keys of the benign
// events (those without a reference attack verdict).
func distinctStructureKeys(events []Event, refs []refVerdict) int {
	keys := make(map[string]struct{})
	for i, ev := range events {
		if !refs[i].Attack {
			keys[sqlparse.StructureKey(ev.Query)] = struct{}{}
		}
	}
	return len(keys)
}
