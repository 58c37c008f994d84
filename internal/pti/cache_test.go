package pti

import (
	"fmt"
	"sync"
	"testing"

	"joza/internal/fragments"
)

// mk builds a MySQL-dialect lruKey for the plain-LRU unit tests.
func mk(s string) lruKey { return lruKey{key: s} }

func TestLRUBasics(t *testing.T) {
	c := newLRU(2)
	c.put(mk("a"), true)
	c.put(mk("b"), true)
	if v, ok := c.get(mk("a")); !ok || !v {
		t.Error("a missing")
	}
	c.put(mk("c"), true) // evicts b (a was touched)
	if _, ok := c.get(mk("b")); ok {
		t.Error("b should be evicted")
	}
	if _, ok := c.get(mk("a")); !ok {
		t.Error("a should remain")
	}
	if _, ok := c.get(mk("c")); !ok {
		t.Error("c should remain")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	// Overwrite updates value.
	c.put(mk("a"), false)
	if v, ok := c.get(mk("a")); !ok || v {
		t.Error("overwrite failed")
	}
}

func TestLRUDefaultCapacity(t *testing.T) {
	c := newLRU(0)
	for i := 0; i < 2000; i++ {
		c.put(mk(fmt.Sprintf("k%d", i)), true)
	}
	if c.len() != 1024 {
		t.Errorf("len = %d, want 1024", c.len())
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := newLRU(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (seed+i)%100)
				c.put(mk(key), true)
				c.get(mk(key))
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 64 {
		t.Errorf("len = %d exceeds capacity", c.len())
	}
}

func TestCachedQueryCache(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheQuery, 16)
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	if c.Analyze(q, nil).Attack {
		t.Fatal("benign flagged")
	}
	if c.Analyze(q, nil).Attack {
		t.Fatal("cached benign flagged")
	}
	st := c.Stats()
	if st.QueryHits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if c.Mode() != CacheQuery {
		t.Error("Mode")
	}
}

// structureFragments is appFragments with the tail " LIMIT " instead of
// " LIMIT 5": no covering occurrence reaches into a number literal, so
// safe verdicts over it may be cached by structure.
func structureFragments() *fragments.Set {
	return fragments.NewSet([]string{
		"SELECT * FROM records WHERE ID=",
		" LIMIT ",
	})
}

func TestCachedStructureCache(t *testing.T) {
	a := New(structureFragments())
	c := NewCached(a, CacheQueryAndStructure, 16)
	// Same structure, different data values: second hits structure cache.
	if c.Analyze("SELECT * FROM records WHERE ID=5 LIMIT 5", nil).Attack {
		t.Fatal("benign flagged")
	}
	if c.Analyze("SELECT * FROM records WHERE ID=77 LIMIT 5", nil).Attack {
		t.Fatal("structure-cached benign flagged")
	}
	st := c.Stats()
	if st.StructureHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Promotion: the second query string is now in the exact cache.
	c.Analyze("SELECT * FROM records WHERE ID=77 LIMIT 5", nil)
	if got := c.Stats().QueryHits; got != 1 {
		t.Errorf("query hits after promotion = %d", got)
	}
}

// TestStructureCacheVerdictTransparent is the regression test for a
// structure-cache entry outliving its soundness: " LIMIT 5" covers LIMIT
// only while the literal is 5, so caching "... LIMIT 5" by structure
// made "... LIMIT 6" safe, where cold analysis flags it.
func TestStructureCacheVerdictTransparent(t *testing.T) {
	first := "SELECT * FROM records WHERE ID=1 LIMIT 5"
	second := "SELECT * FROM records WHERE ID=1 LIMIT 6"
	for _, mode := range []CacheMode{CacheNone, CacheQuery, CacheQueryAndStructure} {
		c := NewCached(New(tracedFragments()), mode, 16)
		if res := c.Analyze(first, nil); res.Attack {
			t.Fatalf("%v: %q flagged: %v", mode, first, res.Reasons)
		}
		if !c.Analyze(second, nil).Attack {
			t.Errorf("%v: %q reported safe after %q; cold analysis flags it", mode, second, first)
		}
		want := uint64(0)
		if mode == CacheQueryAndStructure {
			want = 1
		}
		if st := c.Stats(); st.StructureRefused != want || st.StructureHits != 0 {
			t.Errorf("%v: stats %+v, want %d refused and no structure hit", mode, st, want)
		}
	}
}

func TestStructureSound(t *testing.T) {
	const head = "SELECT * FROM t WHERE a="
	for _, c := range []struct {
		tail  string // the fragment covering AND
		query string
		sound bool
	}{
		{" AND b=", head + "5 AND b=7", true},
		{" AND b=7", head + "5 AND b=7", false},
		// The quotes stay in the structure key, the body does not.
		{" AND b='", head + "5 AND b='y'", true},
		{" AND b='y", head + "5 AND b='y'", false},
		// Other queries put bytes between the quotes of ''.
		{"' AND b=", head + "'' AND b=1", true},
		{"'' AND b=", head + "'' AND b=1", false},
	} {
		a := New(fragments.NewSet([]string{head, c.tail}))
		toks := a.Dialect().Lex(c.query)
		res := a.Analyze(c.query, toks)
		if res.Attack {
			t.Fatalf("%q flagged: %v", c.query, res.Reasons)
		}
		if got := structureSound(toks, res.Markings); got != c.sound {
			t.Errorf("%q over %q: structureSound = %v, want %v", c.query, c.tail, got, c.sound)
		}
	}
}

func TestCachedAttackNeverCached(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheQueryAndStructure, 16)
	atk := "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5"
	for i := 0; i < 3; i++ {
		if !c.Analyze(atk, nil).Attack {
			t.Fatalf("iteration %d: attack missed", i)
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.QueryHits != 0 || st.StructureHits != 0 {
		t.Errorf("attack results must not be cached: %+v", st)
	}
}

func TestCachedStructureAttackVariantDetected(t *testing.T) {
	// A benign query populates the structure cache; an attack variant has
	// different structure (extra tokens) and must still be analyzed.
	a := New(appFragments())
	c := NewCached(a, CacheQueryAndStructure, 16)
	c.Analyze("SELECT * FROM records WHERE ID=5 LIMIT 5", nil)
	res := c.Analyze("SELECT * FROM records WHERE ID=5 OR 1=1 LIMIT 5", nil)
	if !res.Attack {
		t.Error("attack with different structure must not hit the cache")
	}
}

func TestCachedNoneMode(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheNone, 16)
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	c.Analyze(q, nil)
	c.Analyze(q, nil)
	st := c.Stats()
	if st.Misses != 2 || st.QueryHits != 0 {
		t.Errorf("no-cache stats = %+v", st)
	}
}

func TestCacheModeString(t *testing.T) {
	cases := map[CacheMode]string{
		CacheNone:              "no-cache",
		CacheQuery:             "query-cache",
		CacheQueryAndStructure: "query+structure-cache",
		CacheMode(0):           "unknown",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", mode, got, want)
		}
	}
}

func TestCachedConcurrent(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheQueryAndStructure, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", (seed*7+i)%50)
				if c.Analyze(q, nil).Attack {
					t.Errorf("benign flagged: %q", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
