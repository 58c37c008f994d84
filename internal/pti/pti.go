// Package pti implements positive taint inference: inferring which parts
// of a SQL query are trusted because they originate from string fragments
// extracted from the application itself, per Section III-B of the Joza
// paper.
//
// A query is PTI-safe when every critical token is fully contained within a
// single occurrence of a single trusted fragment. SQL comments are one
// critical token, so an evasion block smuggled inside a comment must appear
// verbatim in the program source to be trusted. Fragments are never
// combined: the critical token OR cannot be assembled from fragments "O"
// and "R".
//
// Production PTI runs the Aho–Corasick matcher (fragments.ACMatcher) with
// the paper's parse-first optimization: critical tokens are located
// before matching, one occurrence scan runs per query, and only the
// critical tokens' coverage is verified (instead of marking the whole
// query). WithoutParseFirst turns it off for ablation.
//
// The paper's other optimization, the MRU fragment list, is opt-in
// (WithMRU): fragments that recently covered tokens are tried first with a
// targeted window check. It paid for the paper's per-fragment scan; on top
// of the automaton it only adds a global lock and a copy per critical
// token, and it makes the reported markings depend on query history. Only
// the paper's Figure 7 and ablation configurations (package workload) use
// it.
package pti

import (
	"context"
	"fmt"

	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// Analyzer runs positive taint inference over a fixed fragment set.
// Construct with New; an Analyzer is safe for concurrent use.
type Analyzer struct {
	set        *fragments.Set
	matcher    fragments.Matcher
	mru        *fragments.MRU
	parseFirst bool
	// critical decides which tokens must be fragment-covered; the default
	// is the paper's pragmatic policy (identifiers allowed).
	critical func(sqltoken.Token) bool
	// maxQueryBytes caps the query size AnalyzeCtx accepts; maxTokens caps
	// the lexed token count it will scan. Zero disables either cap; both
	// fail with core.ErrOverBudget on the context-aware path.
	maxQueryBytes int
	maxTokens     int
	// dialect governs internal lexing when callers pass nil tokens. The
	// zero value is sqltoken.MySQL, preserving historical behavior.
	dialect sqltoken.Dialect
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithNaiveMatcher makes the analyzer use the unoptimized per-fragment
// scan; the default is the Aho–Corasick matcher. Used by the Figure 7
// "unoptimized PTI" baseline.
func WithNaiveMatcher() Option {
	return func(a *Analyzer) { a.matcher = fragments.NewNaiveMatcher(a.set) }
}

// WithMRU adds the paper's most-recently-used fragment list, holding n
// fragment IDs (64 when n < 1): each critical token first tries the
// recently covering fragments with a targeted window check, then falls
// back to the full occurrence scan. Verdicts do not change, but markings
// then depend on which fragments recent queries used. Production PTI runs
// without it; it reproduces the paper's scan+MRU configuration for
// Figure 7 and the ablations.
func WithMRU(n int) Option {
	return func(a *Analyzer) { a.mru = fragments.NewMRU(n) }
}

// WithoutParseFirst disables the parse-first optimization: the analyzer
// computes all fragment occurrences and full positive markings before
// checking critical tokens.
func WithoutParseFirst() Option {
	return func(a *Analyzer) { a.parseFirst = false }
}

// WithMaxQueryBytes caps the query size the analyzer accepts: AnalyzeCtx
// fails a longer query with an error wrapping core.ErrOverBudget before
// lexing it. Zero (the default) disables the cap. Budgets apply on the
// context-aware path only — the legacy error-free entry points cannot
// report them.
func WithMaxQueryBytes(n int) Option {
	return func(a *Analyzer) { a.maxQueryBytes = n }
}

// WithMaxTokens caps the lexed token count AnalyzeCtx will cover-check; a
// longer stream fails with an error wrapping core.ErrOverBudget. This
// bounds the cover scan on machine-generated token floods that stay under
// the byte cap. Zero (the default) disables the cap.
func WithMaxTokens(n int) Option {
	return func(a *Analyzer) { a.maxTokens = n }
}

// WithDialect sets the SQL dialect the analyzer lexes under when it has to
// lex internally (nil toks). Callers that pass pre-lexed tokens must have
// lexed them under the same dialect. The default is sqltoken.MySQL.
func WithDialect(d sqltoken.Dialect) Option {
	return func(a *Analyzer) { a.dialect = d }
}

// WithStrictPolicy enforces the strict (Ray–Ligatti-style) policy of
// Section II: identifiers (field and table names) must also originate from
// trusted fragments.
func WithStrictPolicy() Option {
	return func(a *Analyzer) { a.critical = sqltoken.Token.CriticalStrict }
}

// New returns the production analyzer over set: the Aho–Corasick matcher
// with parse-first and no MRU.
func New(set *fragments.Set, opts ...Option) *Analyzer {
	a := &Analyzer{
		set:        set,
		parseFirst: true,
		critical:   sqltoken.Token.Critical,
	}
	for _, o := range opts {
		o(a)
	}
	if a.matcher == nil {
		a.matcher = fragments.NewACMatcher(set)
	}
	return a
}

// Set returns the fragment set the analyzer was built over.
func (a *Analyzer) Set() *fragments.Set { return a.set }

// Dialect returns the SQL dialect the analyzer lexes under.
func (a *Analyzer) Dialect() sqltoken.Dialect { return a.dialect }

// Analyze decides whether query is PTI-safe. toks must be the lex of query;
// pass nil to lex internally.
func (a *Analyzer) Analyze(query string, toks []sqltoken.Token) core.Result {
	return a.AnalyzeTraced(query, toks, nil)
}

// AnalyzeTraced is Analyze with decision tracing: when span is non-nil it
// records, per critical token, which trusted fragment covered it (and
// where the fragment occurred) or that no fragment did — the evidence
// behind a PTI verdict. A nil span costs one pointer check per token.
func (a *Analyzer) AnalyzeTraced(query string, toks []sqltoken.Token, span *trace.Span) core.Result {
	if toks == nil {
		toks = a.dialect.Lex(query)
	}
	if a.parseFirst {
		return a.analyzeParseFirst(query, toks, span)
	}
	return a.analyzeFullMarking(query, toks, span)
}

// AnalyzeCtx is AnalyzeTraced with cancellation checkpoints before and
// after lexing. The cover scan itself is linear in the query and runs to
// completion; the expensive, checkpointed loop of the hybrid pipeline is
// NTI's approximate matcher. With context.Background() AnalyzeCtx never
// fails and adds no work.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, query string, toks []sqltoken.Token, span *trace.Span) (core.Result, error) {
	cancelable := ctx.Done() != nil
	if cancelable {
		if err := ctx.Err(); err != nil {
			return core.Result{}, err
		}
	}
	if a.maxQueryBytes > 0 && len(query) > a.maxQueryBytes {
		return core.Result{}, fmt.Errorf("pti: query %d bytes exceeds cap %d: %w",
			len(query), a.maxQueryBytes, core.ErrOverBudget)
	}
	if toks == nil {
		toks = a.dialect.Lex(query)
		if cancelable {
			if err := ctx.Err(); err != nil {
				return core.Result{}, err
			}
		}
	}
	if a.maxTokens > 0 && len(toks) > a.maxTokens {
		return core.Result{}, fmt.Errorf("pti: %d tokens exceeds cap %d: %w",
			len(toks), a.maxTokens, core.ErrOverBudget)
	}
	if a.parseFirst {
		return a.analyzeParseFirst(query, toks, span), nil
	}
	return a.analyzeFullMarking(query, toks, span), nil
}

// analyzeParseFirst verifies coverage of each critical token against one
// full occurrence scan, made on the first critical token; with WithMRU,
// recently covering fragments are tried first with a targeted window
// check. Without the MRU the first covering occurrence in the matcher's
// order is the token's marking, so markings depend only on the query.
func (a *Analyzer) analyzeParseFirst(query string, toks []sqltoken.Token, span *trace.Span) core.Result {
	res := core.Result{Analyzer: core.AnalyzerPTI}
	var occs []fragments.Occurrence
	occsReady := false
	for _, t := range toks {
		if !a.critical(t) {
			continue
		}
		covered := false
		if a.mru != nil {
			for _, id := range a.mru.IDs() {
				if at, ok := a.set.CoverAt(query, id, t.Start, t.End); ok {
					covered = true
					a.mru.Touch(id)
					res.Markings = append(res.Markings, core.Marking{
						Span:   sqltoken.Span{Start: at, End: at + len(a.set.Fragment(id))},
						Source: a.set.Fragment(id),
					})
					if span.Active() {
						span.AddCover(trace.Cover{
							Token: t.Text, TokenStart: t.Start, TokenEnd: t.End,
							FragmentID: id, FragStart: at, FragEnd: at + len(a.set.Fragment(id)),
							MRU: true,
						})
					}
					break
				}
			}
		}
		if !covered {
			if !occsReady {
				occs = a.matcher.FindAll(query)
				occsReady = true
			}
			for _, o := range occs {
				if o.Start <= t.Start && t.End <= o.End {
					covered = true
					if a.mru != nil {
						a.mru.Touch(o.FragmentID)
					}
					res.Markings = append(res.Markings, core.Marking{
						Span:   sqltoken.Span{Start: o.Start, End: o.End},
						Source: a.set.Fragment(o.FragmentID),
					})
					if span.Active() {
						span.AddCover(trace.Cover{
							Token: t.Text, TokenStart: t.Start, TokenEnd: t.End,
							FragmentID: o.FragmentID, FragStart: o.Start, FragEnd: o.End,
						})
					}
					break
				}
			}
		}
		if !covered {
			res.Reasons = append(res.Reasons, core.Reason{
				Token:  t,
				Detail: "critical token not contained in any trusted fragment",
			})
			if span.Active() {
				span.AddUncovered(trace.Uncovered{Token: t.Text, TokenStart: t.Start, TokenEnd: t.End})
			}
		}
	}
	res.Attack = len(res.Reasons) > 0
	return res
}

// analyzeFullMarking computes every fragment occurrence, reports them all
// as positive markings, then checks critical-token containment. This is
// the unoptimized strategy retained for ablation benchmarks.
func (a *Analyzer) analyzeFullMarking(query string, toks []sqltoken.Token, span *trace.Span) core.Result {
	res := core.Result{Analyzer: core.AnalyzerPTI}
	occs := a.matcher.FindAll(query)
	res.Markings = make([]core.Marking, 0, len(occs))
	for _, o := range occs {
		res.Markings = append(res.Markings, core.Marking{
			Span:   sqltoken.Span{Start: o.Start, End: o.End},
			Source: a.set.Fragment(o.FragmentID),
		})
	}
	for _, t := range toks {
		if !a.critical(t) {
			continue
		}
		covered := false
		for _, o := range occs {
			if o.Start <= t.Start && t.End <= o.End {
				covered = true
				if span.Active() {
					span.AddCover(trace.Cover{
						Token: t.Text, TokenStart: t.Start, TokenEnd: t.End,
						FragmentID: o.FragmentID, FragStart: o.Start, FragEnd: o.End,
					})
				}
				break
			}
		}
		if !covered {
			res.Reasons = append(res.Reasons, core.Reason{
				Token:  t,
				Detail: "critical token not contained in any trusted fragment",
			})
			if span.Active() {
				span.AddUncovered(trace.Uncovered{Token: t.Text, TokenStart: t.Start, TokenEnd: t.End})
			}
		}
	}
	res.Attack = len(res.Reasons) > 0
	return res
}

// String describes the analyzer configuration.
func (a *Analyzer) String() string {
	return fmt.Sprintf("pti.Analyzer{fragments=%d, parseFirst=%v, mru=%v}",
		a.set.Len(), a.parseFirst, a.mru != nil)
}
