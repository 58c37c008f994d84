package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"joza"
	"joza/internal/audit"
	"joza/internal/daemon"
	"joza/internal/fragments"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqlparse"
	"joza/internal/sqltoken"
	"joza/internal/strdist"
)

// layer names a span: a call into one layer's public function.
type layer uint8

const (
	lCheck layer = iota
	lCacheLookup
	lStructureKey
	lLex
	lCover
	lFindAll
	lNTI
	lMatch
	lSkeleton
	lProfileLookup
	lAudit
	lRTT
	lServerAnalyze
	numLayers
)

var layerNames = [numLayers]string{
	"engine.check", "pti.cache_lookup", "sqlparse.structure_key", "sqltoken.lex",
	"pti.cover", "fragments.findall", "nti.analyze", "strdist.match",
	"profile.skeleton", "profile.lookup", "audit.log", "daemon.rtt",
	"daemon.server_analyze",
}

// span is one timed call. Spans of one event share its Event ID; the
// root (ID 0) is the front-door check, and every other span names the
// span that caused it.
type span struct {
	Event      uint64
	ID, Parent int32
	Layer      layer
	Start, End int64 // ns since the run's epoch
}

// tracer is one worker's span recorder. Spans of the event in flight are
// kept in cur; finishEvent folds them into per-layer totals and retains
// the first keepEvents events for the trace file.
type tracer struct {
	epoch time.Time
	event uint64
	cur   []span
	child []int64
	kept  []span
	nKept int

	calls, total, self [numLayers]int64
	// rootShare is the time of the root's direct children per layer: the
	// engine.check decomposition.
	rootShare [numLayers]int64

	tokens, occurrences, inputs, lookups, unseen int64
	_                                            [64]byte
}

const keepEvents = 2000

func (t *tracer) begin(l layer, parent int32) int32 {
	id := int32(len(t.cur))
	t.cur = append(t.cur, span{Event: t.event, ID: id, Parent: parent, Layer: l, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) { t.cur[id].End = int64(time.Since(t.epoch)) }

// finishEvent derives each span's duration and self time — its duration
// minus that of the spans it caused — and starts the next event.
func (t *tracer) finishEvent(next uint64) {
	t.child = t.child[:0]
	for range t.cur {
		t.child = append(t.child, 0)
	}
	for _, s := range t.cur {
		if s.Parent >= 0 {
			t.child[s.Parent] += s.End - s.Start
		}
	}
	for k, s := range t.cur {
		d := s.End - s.Start
		t.calls[s.Layer]++
		t.total[s.Layer] += d
		t.self[s.Layer] += d - t.child[k]
		if s.Parent == 0 {
			t.rootShare[s.Layer] += d
		}
	}
	if t.nKept < keepEvents {
		t.kept = append(t.kept, t.cur...)
		t.nKept++
	}
	t.cur = t.cur[:0]
	t.event = next
}

// replayer re-issues, right after each front-door check, the calls the
// engine's stages made for that event, each on the layer's public
// function and timed as a child span of the check. In process, a twin
// PTI cache fed the same stream (serialized, so its counters attribute
// each lookup exactly) decides which PTI calls the Guard's lookup
// implied: a structure key on a query-cache miss, and lex plus cover on
// a full miss.
// Over the daemon, the replay is a second round trip through the same
// pool plus the server's analysis through an in-process transport.
type replayer struct {
	sys *system

	twinMu  sync.Mutex
	twin    *pti.Cached
	coverAn *pti.Analyzer
	ac      *fragments.ACMatcher

	nti    *nti.Analyzer
	audit  *audit.Logger
	direct *daemon.Direct
}

func newReplayer(sys *system) (*replayer, error) {
	an, err := nti.New()
	if err != nil {
		return nil, err
	}
	r := &replayer{sys: sys, nti: an, audit: audit.NewLogger(io.Discard)}
	if sys.server != nil {
		r.direct = daemon.NewDirect(sys.serverPTI)
		r.direct.SetProfiles(sys.profiles)
		return r, nil
	}
	r.twin = pti.NewCached(pti.New(sys.set), joza.CacheQueryAndStructure, cacheCapacity)
	r.coverAn = pti.New(sys.set)
	r.ac = fragments.NewACMatcher(sys.set)
	return r, nil
}

// warmTwin feeds the twin cache passes over the stream so it holds what
// the Guard's cache holds after its own warm-up.
func (r *replayer) warmTwin(events []Event, workers, passes int) {
	if r.twin == nil {
		return
	}
	minEach := passes * (len(events) + workers - 1) / workers
	loop(workers, len(events), 0, minEach, func(_, i int) {
		r.twin.Analyze(events[i].Query, nil)
	})
}

// replay times the stage calls for ev after its check returned verdict v.
// Replays only time calls, so their results and errors are dropped; the
// front-door verdict is the one checked against the reference.
func (r *replayer) replay(ctx context.Context, t *tracer, ev *Event, v joza.Verdict) {
	q := ev.Query
	var toks []sqltoken.Token
	var reply *daemon.AnalysisReply
	profileParent := int32(0)
	if r.direct != nil {
		rtt := t.begin(lRTT, 0)
		reply, _ = r.sys.pool.AnalyzeSiteContext(ctx, ev.Site, q)
		t.end(rtt)
		profileParent = t.begin(lServerAnalyze, rtt)
		_, _ = r.direct.AnalyzeSiteContext(ctx, ev.Site, q)
		t.end(profileParent)
	} else {
		toks = r.replayPTI(ctx, t, q)
	}
	if st := r.sys.profiles; st != nil && ev.Site != "" {
		s := t.begin(lSkeleton, profileParent)
		sk := profile.SkeletonDialect(st.Dialect(), q)
		t.end(s)
		l := t.begin(lProfileLookup, profileParent)
		res := st.Lookup(ev.Site, sk)
		t.end(l)
		t.lookups++
		if res == profile.SkeletonUnseen {
			t.unseen++
		}
	}
	if n := nonEmptyInputs(ev.Inputs); n > 0 {
		t.inputs += int64(n)
		s := t.begin(lNTI, 0)
		if reply != nil {
			// The remote engine decodes the reply's token stream for NTI.
			toks = reply.TokenStream()
		}
		_, _ = r.nti.AnalyzeCtx(ctx, q, toks, ev.Inputs, nil)
		t.end(s)
		for _, in := range ev.Inputs {
			if in.Value == "" {
				continue
			}
			m := t.begin(lMatch, s)
			_, _, _, _ = strdist.BitParallelThresholdBudgetCtx(ctx, in.Value, q, nti.DefaultThreshold, 0)
			t.end(m)
		}
	}
	if v.Attack {
		a := t.begin(lAudit, 0)
		r.audit.Log(v, joza.PolicyTerminate, ev.Inputs)
		t.end(a)
	}
}

// replayPTI classifies q's PTI cache outcome on the twin and replays the
// calls it implies; it returns the tokens the PTI stage hands to NTI (nil
// on a cache hit, as in the engine). Only a query-cache hit — a lookup
// and nothing else — is kept as a pti.cache_lookup span; the cover replay
// runs on its own analyzer, so the twin's fragment MRU and automaton do
// not warm it.
func (r *replayer) replayPTI(ctx context.Context, t *tracer, q string) []sqltoken.Token {
	r.twinMu.Lock()
	before := r.twin.Stats()
	p := t.begin(lCacheLookup, 0)
	_, toks, _ := r.twin.AnalyzeLazyCtx(ctx, q, nil, nil)
	t.end(p)
	after := r.twin.Stats()
	r.twinMu.Unlock()
	if after.QueryHits > before.QueryHits {
		return toks
	}
	t.cur = t.cur[:p]
	s := t.begin(lStructureKey, 0)
	_ = sqlparse.StructureKeyDialect(sqltoken.MySQL, q)
	t.end(s)
	if after.Misses == before.Misses {
		return toks
	}
	l := t.begin(lLex, 0)
	lexed := sqltoken.MySQL.Lex(q)
	t.end(l)
	t.tokens += int64(len(lexed))
	c := t.begin(lCover, 0)
	_, _ = r.coverAn.AnalyzeCtx(ctx, q, lexed, nil)
	t.end(c)
	f := t.begin(lFindAll, c)
	occ := r.ac.FindAll(q)
	t.end(f)
	t.occurrences += int64(len(occ))
	return toks
}

func nonEmptyInputs(inputs []joza.Input) int {
	n := 0
	for _, in := range inputs {
		if in.Value != "" {
			n++
		}
	}
	return n
}

// tracedResult carries what the traced run measured.
type tracedResult struct {
	checks  int64
	metrics map[string]metric
	account string
}

// measureTraced makes the per-layer run: an untraced half that gives the
// allocation, GC and cache-ratio counts and the untraced throughput, then
// a traced half whose spans give the layer timings. Spans are written to
// traceOut at the end.
func measureTraced(sys *system, events []Event, ver *verifier, workers int, dur time.Duration, traceOut string) (tracedResult, error) {
	ctx := context.Background()
	half := dur / 2

	var m0, m1 runtime.MemStats
	c0, audit0 := sys.cacheStats(), sys.audit.writes.Load()
	runtime.ReadMemStats(&m0)
	elapsedA, checksA := loop(workers, len(events), half, 0, func(w, i int) {
		v, err := sys.check(ctx, &events[i])
		ver.verify(i, votes(v), err)
	})
	runtime.ReadMemStats(&m1)
	c1, audit1 := sys.cacheStats(), sys.audit.writes.Load()

	r, err := newReplayer(sys)
	if err != nil {
		return tracedResult{}, err
	}
	r.warmTwin(events, workers, 2)
	epoch := time.Now()
	tracers := make([]*tracer, workers)
	for w := range tracers {
		tracers[w] = &tracer{epoch: epoch, event: uint64(w)}
	}
	sent0, recv0 := sys.wire.sent.Load(), sys.wire.received.Load()
	elapsedB, checksB := loop(workers, len(events), half, 0, func(w, i int) {
		t := tracers[w]
		ev := &events[i]
		root := t.begin(lCheck, -1)
		v, err := sys.check(ctx, ev)
		t.end(root)
		ver.verify(i, votes(v), err)
		r.replay(ctx, t, ev, v)
		t.finishEvent(t.event + uint64(workers))
	})
	sent, recv := sys.wire.sent.Load()-sent0, sys.wire.received.Load()-recv0

	var agg tracer
	for _, t := range tracers {
		for l := range agg.calls {
			agg.calls[l] += t.calls[l]
			agg.total[l] += t.total[l]
			agg.self[l] += t.self[l]
			agg.rootShare[l] += t.rootShare[l]
		}
		agg.tokens += t.tokens
		agg.occurrences += t.occurrences
		agg.inputs += t.inputs
		agg.lookups += t.lookups
		agg.unseen += t.unseen
	}
	mean := func(l layer) float64 { return ratio(float64(agg.total[l]), float64(agg.calls[l])) }
	meanSelf := func(l layer) float64 { return ratio(float64(agg.self[l]), float64(agg.calls[l])) }
	nA, nB := float64(checksA), float64(checksB)
	lookups := float64(c1.QueryHits + c1.StructureHits + c1.Misses - c0.QueryHits - c0.StructureHits - c0.Misses)
	ns := r.nti.Stats()
	roundTrips := nB + float64(agg.calls[lRTT])
	cpsA, cpsB := nA/elapsedA.Seconds(), nB/elapsedB.Seconds()

	m := map[string]metric{
		"engine.check_ns":          {mean(lCheck), "ns"},
		"engine.self_ns":           {meanSelf(lCheck), "ns"},
		"engine.allocs_per_check":  {ratio(float64(m1.Mallocs-m0.Mallocs), nA), "count"},
		"engine.bytes_per_check":   {ratio(float64(m1.TotalAlloc-m0.TotalAlloc), nA), "B"},
		"runtime.gc_per_1k_checks": {ratio(float64(m1.NumGC-m0.NumGC)*1000, nA), "count"},

		"sqltoken.lex_ns":           {mean(lLex), "ns"},
		"sqltoken.tokens_per_query": {ratio(float64(agg.tokens), float64(agg.calls[lLex])), "count"},
		"sqltoken.allocs_per_lex":   {allocsPerLex(events), "count"},
		"sqlparse.structure_key_ns": {mean(lStructureKey), "ns"},

		"fragments.findall_ns":            {mean(lFindAll), "ns"},
		"fragments.occurrences_per_query": {ratio(float64(agg.occurrences), float64(agg.calls[lFindAll])), "count"},
		"pti.cover_ns":                    {mean(lCover), "ns"},
		"pti.cache_lookup_ns":             {mean(lCacheLookup), "ns"},
		"pti.query_hit_ratio":             {ratio(float64(c1.QueryHits-c0.QueryHits), lookups), "ratio"},
		"pti.structure_hit_ratio":         {ratio(float64(c1.StructureHits-c0.StructureHits), lookups), "ratio"},
		"pti.miss_ratio":                  {ratio(float64(c1.Misses-c0.Misses), lookups), "ratio"},

		"nti.analyze_ns":              {mean(lNTI), "ns"},
		"nti.inputs_per_check":        {ratio(float64(agg.inputs), nB), "count"},
		"nti.prefilter_reject_ratio":  {ratio(float64(ns.PrefilterRejects), float64(ns.PrefilterChecks)), "ratio"},
		"nti.matcher_calls_per_check": {ratio(float64(ns.MatcherCalls), nB), "count"},
		"nti.early_exit_ratio":        {ratio(float64(ns.EarlyExits), float64(ns.MatcherCalls)), "ratio"},
		"strdist.match_ns":            {mean(lMatch), "ns"},

		"profile.skeleton_ns":  {mean(lSkeleton), "ns"},
		"profile.lookup_ns":    {mean(lProfileLookup), "ns"},
		"profile.unseen_ratio": {ratio(float64(agg.unseen), float64(agg.lookups)), "ratio"},

		"audit.records": {float64(audit1 - audit0), "count"},
		"audit.log_ns":  {mean(lAudit), "ns"},

		"daemon.rtt_us":            {mean(lRTT) / 1e3, "us"},
		"daemon.server_analyze_us": {mean(lServerAnalyze) / 1e3, "us"},
		"daemon.wire_us":           {meanSelf(lRTT) / 1e3, "us"},
		"daemon.request_bytes":     {ratio(float64(sent), roundTrips), "B"},
		"daemon.reply_bytes":       {ratio(float64(recv), roundTrips), "B"},
		"daemon.pool_exhausted":    {0, "count"},
		"daemon.dials":             {0, "count"},
		"daemon.server_shed":       {0, "count"},
		"daemon.server_timeouts":   {0, "count"},

		"trace.overhead_frac": {1 - ratio(cpsB, cpsA), "ratio"},
	}
	if sys.server != nil {
		st := sys.server.Stats()
		m["daemon.pool_exhausted"] = metric{float64(sys.pool.Exhausted()), "count"}
		m["daemon.dials"] = metric{float64(sys.pool.Dials()), "count"}
		m["daemon.server_shed"] = metric{float64(st.ShedRequests), "count"}
		m["daemon.server_timeouts"] = metric{float64(st.DaemonTimeouts), "count"}
	}

	account := fmt.Sprintf("engine.check %.0f ns = self %.0f", mean(lCheck), meanSelf(lCheck))
	for l := lCacheLookup; l < numLayers; l++ {
		if agg.rootShare[l] > 0 {
			account += fmt.Sprintf(" + %s %.0f", layerNames[l], float64(agg.rootShare[l])/nB)
		}
	}
	account += " (ns per check)"
	if agg.calls[lRTT] > 0 {
		account += fmt.Sprintf("; daemon.rtt %.2f us = server_analyze %.2f + wire %.2f",
			mean(lRTT)/1e3, mean(lServerAnalyze)/1e3, meanSelf(lRTT)/1e3)
	}

	if err := writeSpans(traceOut, tracers); err != nil {
		return tracedResult{}, err
	}
	return tracedResult{checks: checksA + checksB, metrics: m, account: account}, nil
}

// allocsPerLex counts heap allocations per sqltoken lex over the first
// thousand queries of the stream, on one goroutine with the system idle.
func allocsPerLex(events []Event) float64 {
	n := min(1000, len(events))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		sqltoken.MySQL.Lex(events[i].Query)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// writeSpans writes the retained spans as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	for _, t := range tracers {
		for _, s := range t.kept {
			fmt.Fprintf(bw, `{"event":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.Event, s.ID, s.Parent, layerNames[s.Layer], s.Start, s.End)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
