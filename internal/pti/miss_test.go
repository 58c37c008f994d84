package pti_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"joza/internal/fragments"
	"joza/internal/pti"
	"joza/internal/sqlgen"
	"joza/internal/workload"
)

var (
	siteOnce    sync.Once
	siteSet     *fragments.Set
	siteQueries []string
	siteErr     error
)

// siteWorkload returns the benchmark-scale site's fragment set and a
// fixed stream of 2000 queries over it: the site's page, comment and
// search requests, and queries assembled from its plugin vocabulary (a
// head fragment ending in "=", a number or string literal, and sometimes
// an ORDER BY tail), one in ten of which carries a SQLMap-style payload
// in place of the literal.
func siteWorkload(tb testing.TB) (*fragments.Set, []string) {
	tb.Helper()
	siteOnce.Do(func() {
		site, err := workload.NewSite(1001, 7)
		if err != nil {
			siteErr = err
			return
		}
		siteSet = site.Fragments
		var heads, tails []string
		for _, f := range siteSet.Fragments() {
			switch {
			case strings.HasSuffix(f, "=") && (strings.HasPrefix(f, "SELECT col_") || strings.HasPrefix(f, "UPDATE table_")):
				heads = append(heads, f)
			case strings.HasPrefix(f, " ORDER BY col_"):
				tails = append(tails, f)
			}
		}
		var payloads []string
		for _, ps := range sqlgen.GenerateAll(sqlgen.Context{Columns: 2}, 20) {
			payloads = append(payloads, ps...)
		}
		sort.Strings(payloads) // map order varies between runs
		rng := rand.New(rand.NewSource(7))
		kinds := []workload.RequestKind{workload.Read, workload.Write, workload.Search}
		for len(siteQueries) < 2000 {
			if rng.Intn(2) == 0 {
				for _, ev := range site.NextRequest(kinds[rng.Intn(len(kinds))]).Events {
					siteQueries = append(siteQueries, ev.Query)
				}
				continue
			}
			q := heads[rng.Intn(len(heads))]
			switch rng.Intn(10) {
			case 0:
				q += payloads[rng.Intn(len(payloads))]
			case 1, 2, 3, 4:
				q += fmt.Sprintf("'v%d'", rng.Intn(1000))
			default:
				q += fmt.Sprint(rng.Intn(1_000_000))
			}
			if rng.Intn(2) == 0 {
				q += tails[rng.Intn(len(tails))]
			}
			siteQueries = append(siteQueries, q)
		}
	})
	if siteErr != nil {
		tb.Fatal(siteErr)
	}
	return siteSet, siteQueries
}

// TestResultIndependentOfHistory checks that PTI evidence is a function of
// the query alone: an analyzer that has seen a random query history
// returns the same verdict, reasons and markings as a fresh one. The
// site's own literals never cover a token twice, so the set adds the
// short clause literals real applications also hold; with them most
// critical tokens have several covering fragments to pick a marking from.
func TestResultIndependentOfHistory(t *testing.T) {
	base, queries := siteWorkload(t)
	set := fragments.NewSet(append(base.Fragments(),
		"SELECT ", " FROM ", " WHERE ", ", ", "=", " OR ", " LIKE '%", "%'",
		" ORDER BY ", " DESC", " LIMIT ", "UPDATE ", " SET ", "INSERT INTO ", " VALUES (", ")"))
	warm := pti.New(set)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		warm.Analyze(queries[rng.Intn(len(queries))], nil)
	}
	for i := 0; i < 40; i++ {
		q := queries[rng.Intn(len(queries))]
		want := pti.New(set).Analyze(q, nil)
		if got := warm.Analyze(q, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: after a query history the result is\n%+v\nfresh it is\n%+v", q, got, want)
		}
	}
}

// BenchmarkPTIMiss times the PTI cache-miss path — lex, occurrence scan
// and cover check — on an uncached analyzer over the site's queries.
func BenchmarkPTIMiss(b *testing.B) {
	set, queries := siteWorkload(b)
	c := pti.NewCached(pti.New(set), pti.CacheNone, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Analyze(queries[i%len(queries)], nil)
	}
}

// BenchmarkPTIMissParallel is BenchmarkPTIMiss from GOMAXPROCS goroutines
// sharing one analyzer, which shows whether the miss path serializes.
func BenchmarkPTIMissParallel(b *testing.B) {
	set, queries := siteWorkload(b)
	c := pti.NewCached(pti.New(set), pti.CacheNone, 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			c.Analyze(queries[i%len(queries)], nil)
			i++
		}
	})
}
