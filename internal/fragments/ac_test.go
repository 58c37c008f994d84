package fragments_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"joza/internal/fragments"
	"joza/internal/sqlgen"
	"joza/internal/workload"
)

// inACOrder sorts occurrences into the order ACMatcher documents: End
// ascending, then longer fragment first.
func inACOrder(occs []fragments.Occurrence) []fragments.Occurrence {
	out := append([]fragments.Occurrence(nil), occs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// checkAC fails unless ac reports exactly the occurrences naive reports,
// already in ACMatcher's documented order.
func checkAC(tb testing.TB, set *fragments.Set, ac *fragments.ACMatcher, naive *fragments.NaiveMatcher, q string) {
	tb.Helper()
	got := ac.FindAll(q)
	if want := inACOrder(naive.FindAll(q)); !reflect.DeepEqual(got, want) {
		tb.Fatalf("query %q:\n ac    %v\n naive %v", q, got, want)
	}
	for _, o := range got {
		if q[o.Start:o.End] != set.Fragment(o.FragmentID) {
			tb.Fatalf("query %q: occurrence %v is not fragment %q", q, o, set.Fragment(o.FragmentID))
		}
	}
}

func TestACMatchesNaiveOnSite(t *testing.T) {
	site, err := workload.NewSite(1001, 3)
	if err != nil {
		t.Fatal(err)
	}
	set := site.Fragments
	ac, naive := fragments.NewACMatcher(set), fragments.NewNaiveMatcher(set)
	var payloads []string
	for _, ps := range sqlgen.GenerateAll(sqlgen.Context{Columns: 2}, 10) {
		payloads = append(payloads, ps...)
	}
	sort.Strings(payloads) // map order varies between runs
	frags := set.Fragments()
	rng := rand.New(rand.NewSource(3))
	kinds := []workload.RequestKind{workload.Read, workload.Write, workload.Search}
	for i := 0; i < 150; i++ {
		for _, ev := range site.NextRequest(kinds[i%len(kinds)]).Events {
			checkAC(t, set, ac, naive, ev.Query)
		}
		// Fragments back to back, with literals and payloads between
		// them, so occurrences overlap and end together.
		var sb strings.Builder
		for k := 0; k < 1+rng.Intn(3); k++ {
			sb.WriteString(frags[rng.Intn(len(frags))])
			if rng.Intn(2) == 0 {
				fmt.Fprint(&sb, rng.Intn(100))
			} else {
				sb.WriteString(payloads[rng.Intn(len(payloads))])
			}
		}
		checkAC(t, set, ac, naive, sb.String())
	}
}

// TestNewACMatcherAllocs keeps the automaton flat: building it over the
// site's fragment set, a trie of about 77k nodes, takes a fixed handful of
// allocations, not one or more per node.
func TestNewACMatcherAllocs(t *testing.T) {
	site, err := workload.NewSite(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() { fragments.NewACMatcher(site.Fragments) })
	if allocs > 16 {
		t.Errorf("NewACMatcher made %.0f allocations over %d fragments, want at most 16", allocs, site.Fragments.Len())
	}
}

// FuzzACMatcher compares the automaton with the naive scan on arbitrary
// fragment sets and queries, NUL and high bytes included so the root's
// dense table is exercised, and checks the documented order. The first
// byte of frags separates the fragments in the rest of it; NewSetKeepAll
// drops the empty ones.
func FuzzACMatcher(f *testing.F) {
	f.Add("|he|she|his|hers", "ushers")
	f.Add(",aa,aaa,a", "aaaaa")
	f.Add("|b|abc|bc|c|xabc", "xabcxab")
	f.Add("|SELECT * FROM t WHERE id=| LIMIT 5|=", "SELECT * FROM t WHERE id=5 LIMIT 5")
	f.Add("\xff\x00\xff\x00\x80\xff\x80", "\x00\x80\x00\x00\x80")
	f.Add("\x00\xfe\xfe\x00\xfe\x00\xff", "\xfe\xfe\xfe\xff")
	f.Fuzz(func(t *testing.T, frags, query string) {
		if frags == "" {
			return
		}
		set := fragments.NewSetKeepAll(strings.Split(frags[1:], frags[:1]))
		checkAC(t, set, fragments.NewACMatcher(set), fragments.NewNaiveMatcher(set), query)
	})
}
