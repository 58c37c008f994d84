// Package workload implements the performance-evaluation harness of
// Section VI: a WordPress-like site with read (page view), write (comment
// post) and search request generators, protection configurations spanning
// the paper's design space (cache modes, matcher optimizations, daemon vs
// in-process transport), and the measurement/report code that regenerates
// Tables V–VII and Figures 7–8. Every protected query is checked by
// daemon.HybridClient, the remote front door Joza ships; a configuration
// only chooses the transport and the daemon-side PTI analyzer.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"joza"
	"joza/internal/fragments"
	"joza/internal/minidb"
	"joza/internal/nti"
)

// RequestKind classifies generated requests.
type RequestKind int

// Request kinds of the performance evaluation.
const (
	Read RequestKind = iota + 1
	Write
	Search
)

// String returns the kind name.
func (k RequestKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Search:
		return "search"
	default:
		return "unknown"
	}
}

// QueryEvent is one database statement a request issues, together with the
// raw request inputs the NTI component correlates against.
type QueryEvent struct {
	Query  string
	Inputs []nti.Input
}

// Request is the unit of measurement: one simulated HTTP request and the
// statements it issues (WordPress issues several queries per page).
type Request struct {
	Kind   RequestKind
	Events []QueryEvent
}

// siteSource is the pseudo-PHP source of the measured site; the guard's
// fragments come from here, so every benign query is fully covered.
const siteSource = `<?php
$opt    = 'SELECT name, value FROM options WHERE name=\'siteurl\'';
$opt2   = 'SELECT name, value FROM options WHERE name=\'template\'';
$post   = 'SELECT id, title, body FROM posts WHERE id=';
$cmts   = 'SELECT id, author, body FROM comments WHERE post_id=';
$ccount = 'SELECT COUNT(*) FROM comments WHERE post_id=';
$ins    = 'INSERT INTO comments (post_id, author, body) VALUES (';
$insmid = ', \'';
$instail = '\')';
$search = 'SELECT id, title FROM posts WHERE title LIKE \'%';
$searchor = '%\' OR title LIKE \'%';
$searchend = '%\' LIMIT 10';
`

// Site is the measured application: a seeded database, its fragment set
// and deterministic request generators.
type Site struct {
	DB        *minidb.DB
	Fragments *fragments.Set
	// NumURLs is the size of the crawl space (the paper used 1001 unique
	// URLs producing ~20k queries).
	NumURLs int
	// RenderIters controls the simulated per-request application work
	// (see simulateRender); the default approximates a fast PHP page.
	RenderIters int
	rng         *rand.Rand
}

// NewSite builds and seeds the site. numURLs controls the crawl space;
// seed makes generation deterministic.
func NewSite(numURLs int, seed int64) (*Site, error) {
	if numURLs < 1 {
		numURLs = 1001
	}
	db := minidb.New("wordpress")
	stmts := []string{
		"CREATE TABLE options (id INT, name TEXT, value TEXT)",
		"INSERT INTO options VALUES (1, 'siteurl', 'http://example.test'), (2, 'template', 'twentyfourteen')",
		"CREATE TABLE posts (id INT, title TEXT, body TEXT)",
		"CREATE TABLE comments (id INT, post_id INT, author TEXT, body TEXT)",
	}
	for _, q := range stmts {
		if _, err := db.Exec(q); err != nil {
			return nil, fmt.Errorf("seed: %w", err)
		}
	}
	// Seed posts for the crawl space (batched inserts).
	rng := rand.New(rand.NewSource(seed))
	const batch = 100
	for start := 1; start <= numURLs; start += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO posts VALUES ")
		first := true
		for id := start; id < start+batch && id <= numURLs; id++ {
			if !first {
				sb.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&sb, "(%d, 'Post number %d', '%s')", id, id, randWords(rng, 20))
		}
		if _, err := db.Exec(sb.String()); err != nil {
			return nil, fmt.Errorf("seed posts: %w", err)
		}
	}
	texts := joza.FragmentsFromSource(siteSource)
	texts = append(texts, corpusFragments(3000)...)
	return &Site{
		DB:          db,
		Fragments:   fragments.NewSet(texts),
		NumURLs:     numURLs,
		RenderIters: 400_000,
		rng:         rng,
	}, nil
}

// corpusFragments synthesizes the bulk of a realistic fragment vocabulary:
// WordPress plus 50 plugins yields tens of thousands of string literals,
// and the cost of the unoptimized PTI scan (Figure 7) is proportional to
// that corpus. The synthesized literals are full query skeletons, so they
// never cover individual attack tokens.
func corpusFragments(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, fmt.Sprintf("SELECT col_%d, col_%d FROM table_%d WHERE key_%d=", i, i+1, i, i))
		case 1:
			out = append(out, fmt.Sprintf("UPDATE table_%d SET col_%d=", i, i))
		case 2:
			out = append(out, fmt.Sprintf("INSERT INTO table_%d (col_%d, col_%d) VALUES (", i, i, i+1))
		default:
			out = append(out, fmt.Sprintf(" ORDER BY col_%d DESC LIMIT %d", i, i%50+1))
		}
	}
	return out
}

var words = []string{
	"lorem", "ipsum", "dolor", "amet", "consectetur", "adipiscing",
	"elit", "integer", "vitae", "sagittis", "tellus", "blog", "update",
	"release", "notes", "security", "coffee", "morning", "travel",
}

func randWords(rng *rand.Rand, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = words[rng.Intn(len(words))]
	}
	return strings.Join(parts, " ")
}

// Reset restores the mutable database state (the comments written by
// write requests), so successive measurements see identical data.
func (s *Site) Reset() error {
	if _, err := s.DB.Exec("DELETE FROM comments"); err != nil {
		return err
	}
	return nil
}

// NextRequest generates the next request of the given kind.
func (s *Site) NextRequest(kind RequestKind) *Request {
	switch kind {
	case Write:
		return s.writeRequest()
	case Search:
		return s.searchRequest()
	default:
		return s.readRequest()
	}
}

// readRequest models a page view: constant option lookups plus per-post
// queries whose only variation is the post ID. With the PTI query cache a
// revisited URL costs one lookup; the structure cache covers first visits.
func (s *Site) readRequest() *Request {
	id := 1 + s.rng.Intn(s.NumURLs)
	inputs := []nti.Input{{Source: "get", Name: "p", Value: fmt.Sprint(id)}}
	return &Request{Kind: Read, Events: []QueryEvent{
		{Query: "SELECT name, value FROM options WHERE name='siteurl'", Inputs: inputs},
		{Query: "SELECT name, value FROM options WHERE name='template'", Inputs: inputs},
		{Query: fmt.Sprintf("SELECT id, title, body FROM posts WHERE id=%d", id), Inputs: inputs},
		{Query: fmt.Sprintf("SELECT id, author, body FROM comments WHERE post_id=%d", id), Inputs: inputs},
		{Query: fmt.Sprintf("SELECT COUNT(*) FROM comments WHERE post_id=%d", id), Inputs: inputs},
	}}
}

// writeRequest models posting a comment: reads plus an INSERT whose data
// values are fresh every time — the exact-query cache never hits, only the
// structure cache can.
func (s *Site) writeRequest() *Request {
	id := 1 + s.rng.Intn(s.NumURLs)
	author := words[s.rng.Intn(len(words))]
	body := randWords(s.rng, 40)
	inputs := []nti.Input{
		{Source: "get", Name: "p", Value: fmt.Sprint(id)},
		{Source: "post", Name: "author", Value: author},
		{Source: "post", Name: "comment", Value: body},
	}
	insert := fmt.Sprintf("INSERT INTO comments (post_id, author, body) VALUES (%d, '%s', '%s')",
		id, author, body)
	return &Request{Kind: Write, Events: []QueryEvent{
		{Query: "SELECT name, value FROM options WHERE name='siteurl'", Inputs: inputs},
		{Query: fmt.Sprintf("SELECT id, title, body FROM posts WHERE id=%d", id), Inputs: inputs},
		{Query: insert, Inputs: inputs},
		{Query: fmt.Sprintf("SELECT COUNT(*) FROM comments WHERE post_id=%d", id), Inputs: inputs},
	}}
}

// searchRequest models advanced search: the number of OR'd LIKE terms
// varies, so even the query-structure cache misses — the dynamically
// generated queries the paper calls out.
func (s *Site) searchRequest() *Request {
	nTerms := 1 + s.rng.Intn(3)
	terms := make([]string, nTerms)
	for i := range terms {
		terms[i] = words[s.rng.Intn(len(words))]
	}
	var sb strings.Builder
	sb.WriteString("SELECT id, title FROM posts WHERE title LIKE '%")
	sb.WriteString(terms[0])
	for _, term := range terms[1:] {
		sb.WriteString("%' OR title LIKE '%")
		sb.WriteString(term)
	}
	sb.WriteString("%' LIMIT 10")
	inputs := []nti.Input{{Source: "get", Name: "s", Value: strings.Join(terms, " ")}}
	return &Request{Kind: Search, Events: []QueryEvent{
		{Query: "SELECT name, value FROM options WHERE name='siteurl'", Inputs: inputs},
		{Query: sb.String(), Inputs: inputs},
	}}
}
