package pti

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"joza/internal/core"
	"joza/internal/sqlparse"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// lru is a minimal thread-safe LRU set of composite (dialect, string) keys
// mapping to a boolean "safe" verdict. Only safe verdicts are stored by
// callers, but the value is kept for generality.
type lru struct {
	mu    sync.Mutex
	cap   int
	items map[lruKey]*lruEntry
	head  *lruEntry // most recent
	tail  *lruEntry // least recent
}

type lruEntry struct {
	key        lruKey
	safe       bool
	prev, next *lruEntry
}

func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1024
	}
	return &lru{cap: capacity, items: make(map[lruKey]*lruEntry, capacity)}
}

func (c *lru) get(key lruKey) (bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return false, false
	}
	c.moveToFront(e)
	return e.safe, true
}

func (c *lru) put(key lruKey, safe bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.safe = safe
		c.moveToFront(e)
		return
	}
	e := &lruEntry{key: key, safe: safe}
	c.items[key] = e
	c.pushFront(e)
	if len(c.items) > c.cap {
		evict := c.tail
		c.unlink(evict)
		delete(c.items, evict.key)
	}
}

func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *lru) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lru) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *lru) moveToFront(e *lruEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// CacheMode selects which PTI caches a Cached analyzer uses, matching the
// configurations of Table V.
type CacheMode int

// Cache modes.
const (
	// CacheNone disables caching: every query is fully analyzed.
	CacheNone CacheMode = iota + 1
	// CacheQuery caches verdicts of exact query strings.
	CacheQuery
	// CacheQueryAndStructure additionally caches verdicts keyed by the
	// query's token skeleton, covering dynamic data values.
	CacheQueryAndStructure
)

// String returns the mode name.
func (m CacheMode) String() string {
	switch m {
	case CacheNone:
		return "no-cache"
	case CacheQuery:
		return "query-cache"
	case CacheQueryAndStructure:
		return "query+structure-cache"
	default:
		return "unknown"
	}
}

// CacheStats counts cache activity; read with the Snapshot method.
type CacheStats struct {
	QueryHits     uint64
	StructureHits uint64
	Misses        uint64
	// StructureRefused counts safe verdicts kept out of the structure
	// cache because a covering fragment occurrence overlaps a literal the
	// structure key blanks (see structureSound).
	StructureRefused uint64
}

// Cached wraps an Analyzer with the PTI query cache and query-structure
// cache described in Sections IV-C and VI-A. Only safe verdicts are cached:
// attacks are rare, must always be fully re-analyzed for reporting, and
// caching them would let a poisoned entry suppress detection details.
//
// Both caches are sharded by key hash (one mutex per shard, GOMAXPROCS
// rounded to a power of two shards) so concurrent Analyze calls on a
// multicore host do not serialize on a single cache lock.
type Cached struct {
	analyzer *Analyzer
	mode     CacheMode
	dialect  sqltoken.Dialect
	queries  *shardedLRU
	structs  *shardedLRU

	queryHits        atomic.Uint64
	structureHits    atomic.Uint64
	misses           atomic.Uint64
	structureRefused atomic.Uint64
}

// NewCached wraps analyzer with the given cache mode and per-cache capacity.
func NewCached(analyzer *Analyzer, mode CacheMode, capacity int) *Cached {
	c := &Cached{analyzer: analyzer, mode: mode, dialect: analyzer.Dialect()}
	nShards := defaultShardCount()
	if mode == CacheQuery || mode == CacheQueryAndStructure {
		c.queries = newShardedLRU(capacity, nShards)
	}
	if mode == CacheQueryAndStructure {
		c.structs = newShardedLRU(capacity, nShards)
	}
	return c
}

// Mode returns the configured cache mode.
func (c *Cached) Mode() CacheMode { return c.mode }

// Dialect returns the SQL dialect the wrapped analyzer lexes under; cache
// entries are namespaced by it, and the daemon validates wire-request
// dialects against it.
func (c *Cached) Dialect() sqltoken.Dialect { return c.dialect }

// NumShards returns the shard count of the query cache (0 when caching is
// disabled).
func (c *Cached) NumShards() int {
	if c.queries == nil {
		return 0
	}
	return len(c.queries.shards)
}

// Analyze returns the PTI result for query, consulting the caches first.
// toks may be nil; it is only lexed when a full analysis requires it.
func (c *Cached) Analyze(query string, toks []sqltoken.Token) core.Result {
	res, _ := c.AnalyzeLazy(query, toks)
	return res
}

// AnalyzeLazy is Analyze with lazy lexing: toks may be nil, in which case
// the query is lexed only on a cache miss — a query-cache hit costs one
// sharded map lookup and no lexing at all. The second return value is the
// token stream the analysis used (nil when no lexing happened), so callers
// that also need tokens for NTI reuse this lex instead of running another.
func (c *Cached) AnalyzeLazy(query string, toks []sqltoken.Token) (core.Result, []sqltoken.Token) {
	return c.AnalyzeLazyTraced(query, toks, nil)
}

// AnalyzeLazyTraced is AnalyzeLazy with decision tracing: when span is
// non-nil it records the cache outcome (query-hit, structure-hit, miss),
// the lazy-lex and fragment-cover durations, and the per-token cover
// evidence from the underlying analyzer. A nil span keeps the hot path
// identical to AnalyzeLazy: no clock reads, no allocations.
func (c *Cached) AnalyzeLazyTraced(query string, toks []sqltoken.Token, span *trace.Span) (core.Result, []sqltoken.Token) {
	res, toks, _ := c.AnalyzeLazyCtx(context.Background(), query, toks, span)
	return res, toks
}

// AnalyzeLazyCtx is AnalyzeLazyTraced with cooperative cancellation: an
// already-canceled or expired ctx fails before any cache lookup, and a
// cache miss runs the underlying analysis through its checkpoints. Cache
// hits never fail once past the entry check. With context.Background()
// the checks are free.
func (c *Cached) AnalyzeLazyCtx(ctx context.Context, query string, toks []sqltoken.Token, span *trace.Span) (core.Result, []sqltoken.Token, error) {
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return core.Result{}, nil, err
		}
	}
	if c.queries != nil {
		if safe, ok := c.queries.get(c.dialect, query); ok && safe {
			c.queryHits.Add(1)
			span.SetCacheOutcome(trace.CacheQueryHit)
			return core.Result{Analyzer: core.AnalyzerPTI}, toks, nil
		}
	}
	var structKey string
	if c.structs != nil {
		structKey = sqlparse.StructureKeyDialect(c.dialect, query)
		if safe, ok := c.structs.get(c.dialect, structKey); ok && safe {
			c.structureHits.Add(1)
			span.SetCacheOutcome(trace.CacheStructureHit)
			// Promote into the exact-query cache for next time.
			if c.queries != nil {
				c.queries.put(c.dialect, query, true)
			}
			return core.Result{Analyzer: core.AnalyzerPTI}, toks, nil
		}
	}
	c.misses.Add(1)
	if c.queries != nil || c.structs != nil {
		span.SetCacheOutcome(trace.CacheMiss)
	}
	if toks == nil {
		var lexStart time.Time
		if span.Active() {
			lexStart = time.Now()
		}
		toks = c.dialect.Lex(query)
		if span.Active() {
			span.Lex(time.Since(lexStart))
		}
	}
	var coverStart time.Time
	if span.Active() {
		coverStart = time.Now()
	}
	res, err := c.analyzer.AnalyzeCtx(ctx, query, toks, span)
	if err != nil {
		return core.Result{}, nil, err
	}
	if span.Active() {
		span.PTICover(time.Since(coverStart))
	}
	if !res.Attack {
		if c.queries != nil {
			c.queries.put(c.dialect, query, true)
		}
		if c.structs != nil {
			if structureSound(toks, res.Markings) {
				c.structs.put(c.dialect, structKey, true)
			} else {
				c.structureRefused.Add(1)
			}
		}
	}
	return res, toks, nil
}

// structureSound reports whether a safe verdict may be cached under the
// query's structure key, which blanks every number token and the body of
// every string token (the bytes between its quotes; the quotes stay in
// the key). Other queries with that key differ from query only in those
// bytes, so the verdict carries over exactly when no positive marking —
// the fragment occurrence covering a critical token — reaches into them:
// a fragment " LIMIT 5" covers LIMIT in "... LIMIT 5" but occurs nowhere
// in "... LIMIT 6". A marking that spans both quotes of an empty string
// also overlaps, since other queries put bytes between them.
func structureSound(toks []sqltoken.Token, marks []core.Marking) bool {
	for _, t := range toks {
		var lo, hi int
		switch t.Kind {
		case sqltoken.KindNumber:
			lo, hi = t.Start, t.End
		case sqltoken.KindString:
			lo, hi = t.Start+1, t.End
			if !t.Unterminated {
				hi--
			}
		default:
			continue
		}
		for _, m := range marks {
			if m.Span.Start < hi && lo < m.Span.End {
				return false
			}
		}
	}
	return true
}

// Stats returns a snapshot of cache counters.
func (c *Cached) Stats() CacheStats {
	return CacheStats{
		QueryHits:        c.queryHits.Load(),
		StructureHits:    c.structureHits.Load(),
		Misses:           c.misses.Load(),
		StructureRefused: c.structureRefused.Load(),
	}
}

// ShardStats returns per-shard hit/miss/occupancy counters for the query
// and structure caches (nil when the respective cache is disabled).
func (c *Cached) ShardStats() (query, structure []ShardStat) {
	if c.queries != nil {
		query = c.queries.stats()
	}
	if c.structs != nil {
		structure = c.structs.stats()
	}
	return query, structure
}
