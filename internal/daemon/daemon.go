// Package daemon implements the PTI daemon of the Joza architecture
// (Section IV): a separate process that loads the fragment set, parses
// intercepted queries, runs the PTI analysis (with its caches), and
// returns the verdict. The paper's daemon also returns the parsed token
// stream so the in-application NTI component can reuse it; shipping and
// decoding that stream costs more than the lazy client-side lex it saves
// (NTI needs tokens only when an input matches the query), so current
// clients set the request's no_tokens flag and the daemon then skips both
// the eager lex and the token encoding. Frames without the flag — older
// clients — get the full reply, token stream included, unchanged.
//
// Two transports are provided, mirroring the paper's deployment study:
//
//   - Remote: newline-delimited JSON over a net.Conn (named/anonymous
//     pipes in the paper; TCP or in-memory pipes here). This is the
//     easy-to-deploy user-level daemon. A single connection is a Client;
//     production deployments use a Pool, which multiplexes concurrent
//     requests over several connections, bounds each round trip with a
//     deadline, and replaces failed connections with jittered exponential
//     backoff.
//   - Direct: an in-process call with no serialization, the stand-in for
//     the "PHP extension" deployment whose overhead the paper estimates
//     by excluding spawn and communication time.
//
// HybridClient composes a transport with the in-application NTI analyzer
// and a degradation policy that decides what happens when the daemon is
// unreachable (fail-open: NTI-only; fail-closed: treat as attack).
package daemon

import (
	"context"
	"fmt"
	"time"

	"joza/internal/core"
	"joza/internal/metrics"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// AnalysisReply is the daemon's answer for one query.
type AnalysisReply struct {
	// Attack is the PTI verdict.
	Attack bool `json:"attack"`
	// Reasons explains the verdict (uncovered critical tokens).
	Reasons []ReasonJSON `json:"reasons,omitempty"`
	// Tokens is the full token stream of the query. The daemon sends it
	// only to clients that do not set the request's no_tokens flag (older
	// clients, which reuse it for NTI instead of re-lexing); it is nil on
	// every other reply, and on Direct, which never fills it.
	Tokens []TokenJSON `json:"tokens,omitempty"`
	// Trace is the daemon-side decision trace, present when the daemon
	// sampled this check. A tracing HybridClient merges it into its own
	// span so one trace shows both sides of the wire.
	Trace *trace.Span `json:"trace,omitempty"`
	// Profile is the query-skeleton profile verdict, present when the
	// request carried a call site and the daemon has profiles (or a
	// learning recorder). It rides the analyze reply so the third stage
	// costs no extra round trip.
	Profile *ProfileReply `json:"profile,omitempty"`
	// Version is the content-derived version of the snapshot that served
	// this verdict. Absent means an unversioned daemon — old servers'
	// replies are byte-identical to the pre-version protocol, and clients
	// treat the empty version as "unknown", never as a mismatch.
	Version string `json:"version,omitempty"`
}

// ProfileReply is the daemon-side outcome of the query-skeleton profile
// stage for one (site, query) pair.
type ProfileReply struct {
	// Attack is set for an unseen skeleton — the site never issued this
	// query shape during training. Unknown sites are reported via Outcome
	// and left to the client's strictness policy.
	Attack bool `json:"attack,omitempty"`
	// Outcome is "learned", "seen", "unseen" or "site-unknown".
	Outcome  string `json:"outcome"`
	Site     string `json:"site,omitempty"`
	Skeleton string `json:"skeleton,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// ReasonJSON is the wire form of core.Reason.
type ReasonJSON struct {
	Token  TokenJSON `json:"token"`
	Detail string    `json:"detail"`
}

// TokenJSON is the wire form of sqltoken.Token.
type TokenJSON struct {
	Kind  int    `json:"kind"`
	Text  string `json:"text"`
	Start int    `json:"start"`
	End   int    `json:"end"`
}

func toTokenJSON(t sqltoken.Token) TokenJSON {
	return TokenJSON{Kind: int(t.Kind), Text: t.Text, Start: t.Start, End: t.End}
}

func fromTokenJSON(t TokenJSON) sqltoken.Token {
	return sqltoken.Token{Kind: sqltoken.Kind(t.Kind), Text: t.Text, Start: t.Start, End: t.End}
}

// legacyReply is AnalysisReply's wire shape for frames without the
// no_tokens flag: the tokens key is always present, even for an empty
// stream, so those clients get the pre-flag reply byte for byte. The two
// types differ only in that tag, so a reply converts in place, and a field
// added to one but not the other breaks that conversion at compile time.
type legacyReply struct {
	Attack  bool          `json:"attack"`
	Reasons []ReasonJSON  `json:"reasons,omitempty"`
	Tokens  []TokenJSON   `json:"tokens"`
	Trace   *trace.Span   `json:"trace,omitempty"`
	Profile *ProfileReply `json:"profile,omitempty"`
	Version string        `json:"version,omitempty"`
}

// TokenStream converts the reply's token stream back to lexer tokens. A
// reply without tokens yields nil, never an empty stream: NTI treats a
// non-nil stream as the query's lex and would skip its own, and with it
// the whole-token rule, so an empty one would hide every attack from it.
func (r *AnalysisReply) TokenStream() []sqltoken.Token {
	if len(r.Tokens) == 0 {
		return nil
	}
	out := make([]sqltoken.Token, len(r.Tokens))
	for i, t := range r.Tokens {
		out[i] = fromTokenJSON(t)
	}
	return out
}

// Result converts the reply into a core PTI result.
func (r *AnalysisReply) Result() core.Result {
	res := core.Result{Analyzer: core.AnalyzerPTI, Attack: r.Attack}
	for _, rj := range r.Reasons {
		res.Reasons = append(res.Reasons, core.Reason{
			Token:  fromTokenJSON(rj.Token),
			Detail: rj.Detail,
		})
	}
	return res
}

// analyzeCtx is the shared daemon-side analysis with decision tracing and
// cooperative cancellation. A non-nil span records the lex duration, the
// cache outcome, the fragment-cover duration and the per-token cover
// evidence. Without withTokens the query is lexed only on a PTI cache
// miss, inside the analyzer, so the span's lex time counts misses only;
// withTokens (frames from clients that did not set no_tokens) lexes every
// query up front, times it here, and returns the stream on the reply. ctx
// is checked before any work and through the analyzer's checkpoints, so a
// request whose wire-propagated budget has expired fails with ctx's error
// instead of burning daemon time on an abandoned query.
func analyzeCtx(ctx context.Context, analyzer *pti.Cached, query string, span *trace.Span, withTokens bool) (*AnalysisReply, error) {
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var toks []sqltoken.Token
	if withTokens {
		var lexStart time.Time
		if span.Active() {
			lexStart = time.Now()
		}
		toks = analyzer.Dialect().Lex(query)
		if span.Active() {
			span.Lex(time.Since(lexStart))
		}
	}
	res, _, err := analyzer.AnalyzeLazyCtx(ctx, query, toks, span)
	if err != nil {
		return nil, err
	}
	reply := &AnalysisReply{Attack: res.Attack}
	if withTokens {
		reply.Tokens = make([]TokenJSON, len(toks))
		for i, t := range toks {
			reply.Tokens[i] = toTokenJSON(t)
		}
	}
	for _, reason := range res.Reasons {
		reply.Reasons = append(reply.Reasons, ReasonJSON{
			Token:  toTokenJSON(reason.Token),
			Detail: reason.Detail,
		})
	}
	return reply, nil
}

// profileReplyFor computes the profile verdict one of the daemon-side
// transports attaches to an analyze reply: learning mode records and
// reports "learned"; enforcement classifies the skeleton against the
// store. Returns nil when there is no site or no profile machinery at all.
func profileReplyFor(store *profile.Store, rec *profile.Recorder, site, query string) *ProfileReply {
	if site == "" || (store == nil && rec == nil) {
		return nil
	}
	if rec != nil {
		sk := rec.Record(site, query)
		return &ProfileReply{Outcome: "learned", Site: site, Skeleton: sk}
	}
	// Skeletons are only comparable when computed under the dialect the
	// store was trained with (the daemon front door verifies store and
	// analyzer agree at load time).
	sk := profile.SkeletonDialect(store.Dialect(), query)
	p := &ProfileReply{Site: site, Skeleton: sk}
	switch store.Lookup(site, sk) {
	case profile.SkeletonSeen:
		p.Outcome = "seen"
	case profile.SkeletonUnseen:
		p.Outcome = "unseen"
		p.Attack = true
		p.Detail = fmt.Sprintf("query skeleton never seen from call site %q during training: %s", site, sk)
	case profile.SiteUnknown:
		p.Outcome = "site-unknown"
	}
	return p
}

// Transport is the application's view of the PTI analysis, independent of
// deployment.
type Transport interface {
	// Analyze returns the PTI reply for query, without a deadline.
	Analyze(query string) (*AnalysisReply, error)
	// AnalyzeContext is Analyze bounded by ctx: a wire transport forwards
	// the remaining deadline budget in the request so the server honors
	// it, and a canceled ctx aborts the round trip with ctx's error.
	AnalyzeContext(ctx context.Context, query string) (*AnalysisReply, error)
	// AnalyzeSiteContext is AnalyzeContext with the call-site identity
	// riding in the request, so the daemon runs the query-skeleton
	// profile stage. An empty site sends the same frame AnalyzeContext
	// does.
	AnalyzeSiteContext(ctx context.Context, site, query string) (*AnalysisReply, error)
	// Close releases the transport.
	Close() error
}

// Direct is the in-process transport (the "PHP extension" estimate). It
// always takes the daemon's lean path: no eager lex and no token stream on
// the reply.
type Direct struct {
	analyzer *pti.Cached
	profiles *profile.Store
	recorder *profile.Recorder
}

var _ Transport = (*Direct)(nil)

// NewDirect returns a Direct transport over analyzer.
func NewDirect(analyzer *pti.Cached) *Direct {
	return &Direct{analyzer: analyzer}
}

// SetProfiles installs the query-skeleton profile store consulted by
// AnalyzeSiteContext. Call before serving checks.
func (d *Direct) SetProfiles(st *profile.Store) { d.profiles = st }

// SetProfileRecorder puts the transport in profile learning mode.
func (d *Direct) SetProfileRecorder(r *profile.Recorder) { d.recorder = r }

// Analyze implements Transport.
func (d *Direct) Analyze(query string) (*AnalysisReply, error) {
	return analyzeCtx(context.Background(), d.analyzer, query, nil, false)
}

// AnalyzeContext implements Transport: there is no wire to bound, so ctx
// only gates the in-process analysis.
func (d *Direct) AnalyzeContext(ctx context.Context, query string) (*AnalysisReply, error) {
	return analyzeCtx(ctx, d.analyzer, query, nil, false)
}

// AnalyzeSiteContext implements Transport: AnalyzeContext plus the
// query-skeleton profile verdict for site.
func (d *Direct) AnalyzeSiteContext(ctx context.Context, site, query string) (*AnalysisReply, error) {
	reply, err := analyzeCtx(ctx, d.analyzer, query, nil, false)
	if err != nil {
		return nil, err
	}
	reply.Profile = profileReplyFor(d.profiles, d.recorder, site, query)
	return reply, nil
}

// Close implements Transport.
func (d *Direct) Close() error { return nil }

// StatsReply is the payload of the protocol's "stats" verb: the same
// snapshot type joza.Guard.Metrics returns, so operators read one shape
// whether they ask the library or the daemon.
type StatsReply = metrics.Snapshot

// TracesReply is the payload of the protocol's "traces" verb: the daemon
// tracer's recent and notable rings, the same shape Guard.Traces returns.
type TracesReply = trace.Dump

// wire framing shared by client and server. Op selects the verb: empty or
// "analyze" analyzes Query; "batch" analyzes every item in Batch and
// replies with one response per item; "stats" returns the daemon's
// counters; "traces" returns the daemon's trace rings; "prepare",
// "commit" and "abort" drive the two-phase snapshot rollout (old clients
// that never set op keep working unchanged, and every new field is
// omitempty so a new client's single-request frames are byte-compatible
// with old servers).
type wireRequest struct {
	Op    string `json:"op,omitempty"`
	Query string `json:"query,omitempty"`
	// TimeoutMs propagates the client's remaining deadline budget: the
	// server bounds the analysis with a context of this duration, so work
	// the client will no longer wait for is abandoned server-side too.
	// Zero (and requests from older clients) means no server-side bound; a
	// negative value is an already-expired budget and fails immediately.
	// The server clamps absurd budgets to a sane ceiling before deriving a
	// deadline, so a hostile value cannot overflow into an expired context.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Batch carries the items of a "batch" op: each item is an analyze
	// request in its own right (Query plus optional TimeoutMs, honored
	// per item server-side). Item failures ride back per item on a healthy
	// stream; only framing faults break the connection.
	Batch []wireRequest `json:"batch,omitempty"`
	// Site identifies the database call site issuing Query, keying the
	// query-skeleton profile lookup server-side. Empty (and requests from
	// older clients) skips the profile stage; old servers ignore the field.
	Site string `json:"site,omitempty"`
	// Dialect names the SQL dialect the client lexes under ("mysql",
	// "postgres", "sqlite"). Empty (and requests from older clients) means
	// MySQL, the protocol's original implicit dialect; old servers ignore
	// the field. The server refuses a request whose dialect is unknown or
	// differs from its analyzer's — boundary bytes mean different things
	// under different dialects, so a cross-dialect verdict would be wrong
	// rather than approximate. The refusal rides the healthy stream (per
	// item inside a batch), like any other request-level failure.
	Dialect string `json:"dialect,omitempty"`
	// Version is a snapshot-version precondition. On analyze/batch it pins
	// the request to a policy generation: a server whose serving version
	// differs (including garbage or unknown values) refuses the request on
	// the healthy stream — per item inside a batch — instead of answering
	// from the wrong generation. On "commit" it pins which staged snapshot
	// may swap in. Empty (and requests from older clients) means
	// unpinned; old servers ignore the field, so versionless traffic
	// interops byte-identically in both directions.
	Version string `json:"version,omitempty"`
	// NoTokens asks the server to leave the query's token stream out of
	// the analyze reply, and so to skip the eager lex that fills it; the
	// client lexes lazily when NTI needs tokens. Current clients always
	// set it, once on the outer frame of a batch, which defaults its
	// items. Absent (older clients) gets the full reply, tokens included;
	// old servers ignore the field and send tokens, which current clients
	// ignore.
	NoTokens bool `json:"no_tokens,omitempty"`
}

// RolloutReply answers the two-phase rollout verbs. State is "staged"
// (prepare loaded and self-tested a snapshot without swapping it in),
// "committed" (the staged snapshot now serves) or "aborted" (the staged
// snapshot was discarded; serving state untouched). Version identifies the
// snapshot the verb acted on.
type RolloutReply struct {
	State   string `json:"state"`
	Version string `json:"version,omitempty"`
}

// wireDialect is the wire spelling of a dialect: empty for MySQL — absent
// means MySQL on both ends, so a default-dialect client's frames stay
// byte-identical to the pre-dialect protocol and old servers keep working
// — and the dialect name otherwise.
func wireDialect(d sqltoken.Dialect) string {
	if d == sqltoken.MySQL {
		return ""
	}
	return d.String()
}

// response is one reply frame. Clients decode into wireResponse; the
// server encodes serverResponse, whose Reply holds an *AnalysisReply for
// no_tokens requests and a *legacyReply for the others.
type response[R any] struct {
	Reply  R            `json:"reply,omitempty"`
	Stats  *StatsReply  `json:"stats,omitempty"`
	Traces *TracesReply `json:"traces,omitempty"`
	// Batch answers a "batch" request with exactly one response per item,
	// in item order. A per-item failure sets that item's Err and leaves
	// its siblings intact.
	Batch []response[R] `json:"batch,omitempty"`
	// Rollout answers the "prepare", "commit" and "abort" verbs.
	Rollout *RolloutReply `json:"rollout,omitempty"`
	Err     string        `json:"error,omitempty"`
}

type (
	wireResponse   = response[*AnalysisReply]
	serverResponse = response[any]
)

// BatchResult is the client-side outcome of one item of a batch: either a
// reply or that item's error from the healthy stream. A transport failure
// fails the whole batch instead, through the returned error of
// AnalyzeBatch.
type BatchResult struct {
	Reply *AnalysisReply
	Err   error
}
