package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"joza/internal/core"
	"joza/internal/guardrail"
	"joza/internal/metrics"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// DefaultMaxRequestBytes caps the size of one wire request. A legitimate
// query never approaches it; a client that exceeds it has its connection
// dropped rather than letting it balloon the daemon's memory.
const DefaultMaxRequestBytes = 1 << 20

// DefaultMaxBatchItems caps how many items one "batch" request may carry.
// The frame-size limit already bounds total bytes; this bounds the number
// of admission passes and analyses a single frame can demand. An oversized
// batch is refused with a whole-batch error on a healthy stream.
const DefaultMaxBatchItems = 4096

// Bounds for the capped exponential backoff Serve applies to transient
// Accept failures (EMFILE, ECONNABORTED, ...).
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// maxTimeoutMs caps the client-supplied TimeoutMs budget before it is
// multiplied into a time.Duration: a huge positive value would otherwise
// overflow into a negative (already-expired) or wrong deadline. No real
// client waits a day for a microsecond-scale analysis, so the clamp only
// ever bites hostile or corrupted frames.
const maxTimeoutMs = int64(24 * time.Hour / time.Millisecond)

// budgetContext derives the analysis context from a request's TimeoutMs
// budget: zero means no server-side bound, negative is already expired
// (the WithTimeout below yields a done context), and positive values are
// clamped to maxTimeoutMs so the multiplication cannot overflow.
func budgetContext(parent context.Context, timeoutMs int64) (context.Context, context.CancelFunc) {
	if timeoutMs == 0 {
		return parent, func() {}
	}
	if timeoutMs > maxTimeoutMs {
		timeoutMs = maxTimeoutMs
	}
	return context.WithTimeout(parent, time.Duration(timeoutMs)*time.Millisecond)
}

// prepareTimeout bounds the reload-plus-selftest work of one "prepare"
// verb, so a wedged source tree cannot park the rollout mutex forever.
const prepareTimeout = 30 * time.Second

// Serving bundles the analysis state of one daemon generation: the PTI
// analyzer, the query-skeleton profile store, and the content-derived
// snapshot version identifying the generation (empty for unversioned
// deployments). The whole bundle swaps atomically, so a check can never
// see fragments from one generation and profiles from another.
type Serving struct {
	Analyzer *pti.Cached
	Profiles *profile.Store
	// Version is the content-derived snapshot version (see
	// engine.ComputeVersion); a fleet computes it over the unsliced
	// corpus so every shard of one generation reports the same value.
	Version string
}

// Server serves the daemon protocol over a listener. Multiple server
// instances can share one analyzer (the paper's multiple coexisting
// daemons).
type Server struct {
	// serving is the whole analysis generation checks run against;
	// swapped whole and atomically, so in-flight requests finish on the
	// bundle they loaded.
	serving atomic.Pointer[Serving]

	collector *metrics.Collector
	tracer    *trace.Tracer
	gate      *guardrail.Gate

	// recorder, when set, puts the daemon in profile learning mode.
	recorder *profile.Recorder

	// Two-phase rollout state: a prepared-but-not-committed generation,
	// the callback that loads and builds it, and the test hook observing
	// phase transitions. rollMu serializes the rollout verbs.
	rollMu      sync.Mutex
	staged      *Serving
	reloader    func(ctx context.Context) (*Serving, error)
	rolloutHook func(phase string)

	readTimeout time.Duration
	maxRequest  int64
	maxBatch    int

	// Per-op wire counters, reported through Stats.
	analyzeOps atomic.Uint64
	batchOps   atomic.Uint64
	batchItems atomic.Uint64
	statsOps   atomic.Uint64
	tracesOps  atomic.Uint64
	errorOps   atomic.Uint64
	timeouts   atomic.Uint64

	// draining makes connection handlers stop picking up new requests;
	// set by Shutdown before it waits for in-flight work.
	draining atomic.Bool

	// done is closed by the first of Shutdown or Close; Serve's accept
	// backoff selects against it so stopping the server never waits out a
	// sleep mid connection-storm.
	done chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithReadTimeout drops connections that stay idle — or stall mid-request
// — longer than d between bytes of a request. Zero (the default) disables
// the deadline: a pipe to a co-located application process needs none,
// while a TCP daemon should set one so abandoned sockets can't accumulate.
func WithReadTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.readTimeout = d }
}

// WithMaxRequestBytes caps the size of one wire request (default
// DefaultMaxRequestBytes). Oversized requests break the connection.
func WithMaxRequestBytes(n int64) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxRequest = n
		}
	}
}

// WithMaxBatchItems caps the item count of one "batch" request (default
// DefaultMaxBatchItems). Larger batches are refused with a whole-batch
// error on a healthy stream rather than analyzed.
func WithMaxBatchItems(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// WithAdmission bounds how many analyze requests run concurrently: at
// most limit in flight, with excess requests waiting up to maxWait — or
// the request's own remaining deadline budget, whichever is shorter — for
// a slot before being shed with an "overloaded" error on a healthy
// stream. Shed requests are counted in the stats snapshot's ShedRequests.
// limit <= 0 (the default) disables admission control.
func WithAdmission(limit int, maxWait time.Duration) ServerOption {
	return func(s *Server) { s.gate = guardrail.NewGate(limit, maxWait) }
}

// WithProfiles loads a query-skeleton profile store: analyze requests
// that carry a call site get a profile verdict on the reply. Swap later
// generations in with SetServing.
func WithProfiles(st *profile.Store) ServerOption {
	return func(s *Server) {
		sv := *s.serving.Load()
		sv.Profiles = st
		s.serving.Store(&sv)
	}
}

// WithServing replaces the initial serving bundle whole — analyzer,
// profiles and snapshot version together. Owners that version their
// snapshots construct with this instead of composing WithProfiles onto
// the NewServer analyzer, so the version labels exactly the state served.
func WithServing(sv *Serving) ServerOption {
	return func(s *Server) { s.serving.Store(sv) }
}

// WithReloader wires the "prepare" verb to f: prepare calls f to load and
// build the next generation's bundle alongside the serving one, self-tests
// it, and stages it for a later "commit". Without a reloader the prepare
// verb is refused on the healthy stream.
func WithReloader(f func(ctx context.Context) (*Serving, error)) ServerOption {
	return func(s *Server) { s.reloader = f }
}

// WithRolloutHook observes rollout phase transitions ("prepare" before
// the reload starts, "commit" before the staged bundle swaps in). Fault
// injection uses it to widen the crash windows the two-phase protocol
// must survive.
func WithRolloutHook(f func(phase string)) ServerOption {
	return func(s *Server) { s.rolloutHook = f }
}

// WithProfileRecorder puts the server in profile learning mode: requests
// with a call site record their skeleton into r and always report
// "learned". Takes precedence over a loaded store.
func WithProfileRecorder(r *profile.Recorder) ServerOption {
	return func(s *Server) { s.recorder = r }
}

// WithTracer makes the server sample analyze requests into t's trace
// rings, serve them through the "traces" verb, attach the daemon-side span
// to sampled analyze replies, and feed the per-stage histograms reported
// by "stats". A nil tracer (the default) disables all of it at zero cost.
func WithTracer(t *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// NewServer returns a daemon server over analyzer.
func NewServer(analyzer *pti.Cached, opts ...ServerOption) *Server {
	s := &Server{
		conns:      make(map[net.Conn]struct{}),
		collector:  metrics.NewCollector(),
		maxRequest: DefaultMaxRequestBytes,
		maxBatch:   DefaultMaxBatchItems,
		done:       make(chan struct{}),
	}
	s.serving.Store(&Serving{Analyzer: analyzer})
	for _, o := range opts {
		o(s)
	}
	return s
}

// Stats returns the daemon's counter snapshot: checks and attacks served
// (PTI only — NTI runs application-side), per-op wire activity, the
// analyzer's cache totals and per-shard activity, and analysis latency
// quantiles. Counters survive SetServing swaps; cache fields reflect the
// current analyzer.
func (s *Server) Stats() StatsReply {
	snap := s.collector.Snapshot()
	snap.DaemonAnalyzeOps = s.analyzeOps.Load()
	snap.DaemonBatchOps = s.batchOps.Load()
	snap.DaemonBatchItems = s.batchItems.Load()
	snap.DaemonStatsOps = s.statsOps.Load()
	snap.DaemonTracesOps = s.tracesOps.Load()
	snap.DaemonErrors = s.errorOps.Load()
	snap.DaemonTimeouts = s.timeouts.Load()
	sv := s.serving.Load()
	snap.SnapshotVersion = sv.Version
	if ps := sv.Profiles; ps != nil {
		snap.ProfileSites = uint64(ps.Sites())
		snap.ProfileSkeletons = uint64(ps.Skeletons())
	} else if s.recorder != nil {
		sites, skeletons := s.recorder.Len()
		snap.ProfileSites = uint64(sites)
		snap.ProfileSkeletons = uint64(skeletons)
	}
	analyzer := sv.Analyzer
	st := analyzer.Stats()
	snap.CacheQueryHits = st.QueryHits
	snap.CacheStructureHits = st.StructureHits
	snap.CacheMisses = st.Misses
	queryShards, _ := analyzer.ShardStats()
	if len(queryShards) > 0 {
		snap.CacheShards = make([]metrics.CacheShard, len(queryShards))
		for i, sh := range queryShards {
			snap.CacheShards[i] = metrics.CacheShard{
				Hits: sh.Hits, Misses: sh.Misses, Entries: sh.Entries,
			}
		}
	}
	return snap
}

// SetServing atomically swaps the whole serving bundle — analyzer,
// profiles and version together. Coordinated reload paths (jozad's
// unified watch loop, the commit verb) use this so checks can never mix
// halves of two generations.
func (s *Server) SetServing(sv *Serving) { s.serving.Store(sv) }

// Version returns the serving snapshot's content-derived version ("" for
// unversioned state).
func (s *Server) Version() string { return s.serving.Load().Version }

// Ready reports whether the server can answer analyze traffic: a serving
// bundle is installed and the server is not draining. The obs /readyz
// probe fronts this — distinct from liveness, it flips false the moment a
// drain begins, before the server stops accepting.
func (s *Server) Ready() bool {
	return s.serving.Load().Analyzer != nil && !s.draining.Load()
}

// Serve accepts connections until Close. Transient Accept failures —
// EMFILE under connection storms, ECONNABORTED from connections reset
// before accept — are retried with capped exponential backoff instead of
// killing the daemon; only listener closure ends the loop. Always returns
// a non-nil error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Close raced ahead of listener registration and could not reach
		// ln; close it here, or the kernel keeps completing handshakes into
		// a backlog nothing will ever accept and clients hang to their
		// timeout instead of failing fast.
		_ = ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return err
			}
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			// Sleep interruptibly: Shutdown and Close close s.done, so a
			// stop request issued mid connection-storm is not delayed by up
			// to a full backoff period.
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-s.done:
				timer.Stop()
				return net.ErrClosed
			}
			continue
		}
		backoff = 0
		if !s.track(conn) {
			_ = conn.Close()
			return net.ErrClosed
		}
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

// ServeConn serves a single established connection until it closes. It is
// exported so a daemon can be run over a pre-connected pipe (the paper's
// anonymous-pipe, one-request lifetime mode).
func (s *Server) ServeConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	lr := &io.LimitedReader{R: conn, N: s.maxRequest}
	dec := json.NewDecoder(bufio.NewReader(lr))
	enc := json.NewEncoder(conn)
	for {
		if s.draining.Load() {
			return
		}
		// Reset the per-request byte budget. The buffered reader may hold
		// bytes already admitted under an earlier budget; the limit bounds
		// what one request can pull off the wire, not exact accounting.
		lr.N = s.maxRequest
		if s.readTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
			// Re-check after arming the deadline: Shutdown slams every
			// connection's read deadline, and this one may just have been
			// overwritten by the line above.
			if s.draining.Load() {
				return
			}
		}
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.timeouts.Add(1)
			}
			return
		}
		var resp serverResponse
		switch req.Op {
		case "", "analyze":
			s.analyzeOps.Add(1)
			s.handleAnalyze(req, &resp)
		case "batch":
			s.batchOps.Add(1)
			s.handleBatch(req, &resp)
		case "stats":
			s.statsOps.Add(1)
			st := s.Stats()
			resp.Stats = &st
		case "traces":
			s.tracesOps.Add(1)
			d := s.tracer.Dump()
			resp.Traces = &d
		case "prepare":
			s.handlePrepare(&resp)
		case "commit":
			s.handleCommit(req, &resp)
		case "abort":
			s.handleAbort(&resp)
		default:
			s.errorOps.Add(1)
			resp.Err = fmt.Sprintf("unknown op %q", req.Op)
		}
		if err := enc.Encode(resp); err != nil {
			s.errorOps.Add(1)
			return
		}
	}
}

// dialectError resolves a wire request's dialect field against the serving
// analyzer's: absent means MySQL (the protocol's original implicit
// dialect), an unknown name or a mismatch returns a non-empty refusal that
// rides the healthy stream. The daemon never analyzes across dialects —
// boundary bytes (string escapes, quote kinds, placeholders, comments)
// mean different things under different dialects, so a cross-dialect
// verdict would be wrong, not approximate.
func dialectError(wire string, serving sqltoken.Dialect) string {
	d := sqltoken.MySQL
	if wire != "" {
		var err error
		if d, err = sqltoken.ParseDialect(wire); err != nil {
			return err.Error()
		}
	}
	if d != serving {
		return fmt.Sprintf("dialect mismatch: request is %s, daemon analyzes %s", d, serving)
	}
	return ""
}

// handleAnalyze runs one analyze request: dialect validation, admission,
// the deadline-bounded analysis, and verdict recording. Failures ride back
// as resp.Err on the still-healthy stream — an overloaded, over-budget or
// cross-dialect request costs one reply, not the connection.
func (s *Server) handleAnalyze(req wireRequest, resp *serverResponse) {
	sv := s.serving.Load()
	analyzer := sv.Analyzer
	if msg := dialectError(req.Dialect, analyzer.Dialect()); msg != "" {
		s.errorOps.Add(1)
		resp.Err = msg
		return
	}
	if req.Version != "" && req.Version != sv.Version {
		// The client pinned the check to a policy generation this daemon
		// is not serving (mid-rollout skew, or a garbage version from a
		// corrupted frame). Answering from the wrong generation would be
		// wrong, not approximate, so the pin is refused on the healthy
		// stream — per item inside a batch — and the connection lives on.
		s.errorOps.Add(1)
		resp.Err = fmt.Sprintf("version mismatch: request pinned to snapshot %q, daemon serves %q", req.Version, sv.Version)
		return
	}
	// Honor the client's propagated deadline budget: bound the analysis
	// with a matching context so server-side work the client has stopped
	// waiting for is abandoned, not finished. A negative budget arrives
	// already expired; an absurdly large one is clamped before the
	// millisecond multiplication so it cannot overflow into an expired
	// (or wrong) deadline.
	ctx, cancel := budgetContext(context.Background(), req.TimeoutMs)
	defer cancel()
	if err := s.gate.Acquire(ctx); err != nil {
		if errors.Is(err, guardrail.ErrOverloaded) {
			s.collector.RecordShed()
			resp.Err = "overloaded: " + err.Error()
		} else {
			s.timeouts.Add(1)
			resp.Err = err.Error()
		}
		return
	}
	defer s.gate.Release()
	span := s.tracer.Start(req.Query)
	start := time.Now()
	reply, err := analyzeCtx(ctx, analyzer, req.Query, span, !req.NoTokens)
	if err != nil {
		if errors.Is(err, core.ErrOverBudget) && ctx.Err() == nil {
			// The analyzer hit a configured cost budget: distinct from a
			// deadline, and notable even when the sampler skipped the check.
			s.collector.RecordOverBudget()
			if span == nil {
				span = s.tracer.StartAlways(req.Query)
			}
			if span != nil {
				span.SetOverBudget(err.Error())
				s.tracer.Finish(span)
			}
		} else {
			// The budget expired mid-analysis: report it like the
			// client-side deadline it mirrors, with no check recorded.
			s.timeouts.Add(1)
		}
		resp.Err = err.Error()
		return
	}
	reply.Profile = profileReplyFor(sv.Profiles, s.recorder, req.Site, req.Query)
	reply.Version = sv.Version
	profAttack := reply.Profile != nil && reply.Profile.Attack
	s.collector.RecordCheck(false, reply.Attack, profAttack, time.Since(start))
	if span != nil {
		span.SetVerdict(false, reply.Attack, profAttack)
		if p := reply.Profile; p != nil {
			span.SetProfile(p.Site, p.Skeleton, p.Outcome)
		}
		s.tracer.Finish(span)
		s.collector.ObserveStageDurations(span.LexNs, span.PTICoverNs, span.NTIMatchNs, span.NTIPrefilterNs, span.ProfileNs)
		reply.Trace = span
	}
	if req.NoTokens {
		resp.Reply = reply
	} else {
		resp.Reply = (*legacyReply)(reply)
	}
}

// handleBatch runs one "batch" request: every item is an analyze request
// handled exactly as a standalone one — admission charged per item, the
// item's own TimeoutMs bounding its analysis, failures recorded per item —
// and the reply carries one response per item in order. One poisoned item
// (expired budget, shed, over budget) costs only its own slot; siblings
// and the connection are unaffected. A batch above the item cap is refused
// whole, on the still-healthy stream.
func (s *Server) handleBatch(req wireRequest, resp *serverResponse) {
	if len(req.Batch) == 0 {
		s.errorOps.Add(1)
		resp.Err = "empty batch"
		return
	}
	if len(req.Batch) > s.maxBatch {
		s.errorOps.Add(1)
		resp.Err = fmt.Sprintf("batch of %d items exceeds the %d-item cap", len(req.Batch), s.maxBatch)
		return
	}
	s.batchItems.Add(uint64(len(req.Batch)))
	resp.Batch = make([]serverResponse, len(req.Batch))
	for i := range req.Batch {
		item := req.Batch[i]
		if item.Dialect == "" {
			// The batch frame's dialect is the default for its items, so a
			// client stamps one field per frame instead of one per item; an
			// item can still name its own (and be refused individually).
			item.Dialect = req.Dialect
		}
		if item.Version == "" {
			// Likewise the frame's version pin defaults onto its items, and
			// a mismatched pin refuses only the item carrying it.
			item.Version = req.Version
		}
		// And the frame's no_tokens flag covers every item.
		item.NoTokens = item.NoTokens || req.NoTokens
		switch item.Op {
		case "", "analyze":
			s.analyzeOps.Add(1)
			s.handleAnalyze(item, &resp.Batch[i])
		default:
			// Nested batches and the control verbs have no per-item merge
			// semantics; refusing them item-locally keeps the rest of the
			// batch alive.
			s.errorOps.Add(1)
			resp.Batch[i].Err = fmt.Sprintf("op %q not allowed in a batch", item.Op)
		}
	}
}

// handlePrepare runs phase one of the two-phase rollout: load and build
// the next generation's bundle through the configured reloader, self-test
// it against the serving process's own machinery, and stage it without
// touching what is being served. A failed prepare leaves both the serving
// bundle and any previously staged one intact, and the failure rides the
// healthy stream. Re-preparing replaces the staged bundle — prepare is
// idempotent from the coordinator's point of view.
func (s *Server) handlePrepare(resp *serverResponse) {
	s.rollMu.Lock()
	defer s.rollMu.Unlock()
	if s.reloader == nil {
		s.errorOps.Add(1)
		resp.Err = "prepare: daemon has no reloader configured"
		return
	}
	if s.rolloutHook != nil {
		s.rolloutHook("prepare")
	}
	ctx, cancel := context.WithTimeout(context.Background(), prepareTimeout)
	defer cancel()
	sv, err := s.reloader(ctx)
	if err != nil {
		s.errorOps.Add(1)
		resp.Err = "prepare: " + err.Error()
		return
	}
	if err := selftest(ctx, sv); err != nil {
		s.errorOps.Add(1)
		resp.Err = "prepare selftest: " + err.Error()
		return
	}
	s.staged = sv
	resp.Rollout = &RolloutReply{State: "staged", Version: sv.Version}
}

// selftest proves a staged bundle can actually serve before it is
// reported ready: the analyzer must complete a probe analysis and the
// profile store must match the analyzer's dialect. Catching a corrupt
// store or broken analyzer here — while the old generation still serves —
// is the whole point of the prepare phase.
func selftest(ctx context.Context, sv *Serving) error {
	if sv == nil || sv.Analyzer == nil {
		return errors.New("staged bundle has no analyzer")
	}
	if _, err := analyzeCtx(ctx, sv.Analyzer, "SELECT 1", nil, false); err != nil {
		return fmt.Errorf("probe analysis: %w", err)
	}
	if sv.Profiles != nil {
		if err := sv.Profiles.ForDialect(sv.Analyzer.Dialect()); err != nil {
			return err
		}
	}
	return nil
}

// handleCommit runs phase two: swap the staged bundle in as the serving
// one. A request may pin the expected version; a pin that does not match
// the staged bundle is refused on the healthy stream with the staged
// bundle kept — the coordinator decides whether to re-prepare or abort.
// With nothing staged, commit is refused (a crash-recovered daemon lost
// its staged state with the process, and the coordinator must re-prepare).
func (s *Server) handleCommit(req wireRequest, resp *serverResponse) {
	s.rollMu.Lock()
	defer s.rollMu.Unlock()
	if s.staged == nil {
		s.errorOps.Add(1)
		resp.Err = "commit: nothing staged"
		return
	}
	if req.Version != "" && req.Version != s.staged.Version {
		s.errorOps.Add(1)
		resp.Err = fmt.Sprintf("commit: staged snapshot is %q, not %q", s.staged.Version, req.Version)
		return
	}
	if s.rolloutHook != nil {
		s.rolloutHook("commit")
	}
	sv := s.staged
	s.staged = nil
	s.SetServing(sv)
	resp.Rollout = &RolloutReply{State: "committed", Version: sv.Version}
}

// handleAbort discards any staged bundle. Idempotent: aborting with
// nothing staged succeeds, so a coordinator cleaning up after a partial
// prepare can abort the whole fleet without tracking who staged what.
func (s *Server) handleAbort(resp *serverResponse) {
	s.rollMu.Lock()
	s.staged = nil
	s.rollMu.Unlock()
	resp.Rollout = &RolloutReply{State: "aborted"}
}

// Shutdown drains the server: it stops accepting connections, lets each
// connection finish the request it is serving (handlers stop picking up
// new ones, and reads blocked waiting for the next request are failed
// immediately), and waits for them up to ctx's deadline. Connections
// still busy when ctx expires are force-closed. Returns nil on a clean
// drain and ctx's error when the deadline forced the close; either way
// the server is fully stopped on return.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	ln := s.ln
	s.draining.Store(true)
	for c := range s.conns {
		// Fail reads parked on an idle connection; a handler mid-request is
		// unaffected (only its next read would see this) and exits at the
		// loop-top draining check after replying.
		_ = c.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close stops the server and waits for in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	ln := s.ln
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
