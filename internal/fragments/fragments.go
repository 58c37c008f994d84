// Package fragments manages the trusted string-fragment set used by
// positive taint inference (PTI) and provides multi-pattern matchers for
// locating fragment occurrences inside SQL queries.
//
// A fragment is a string literal extracted from the application's source
// (see package phpsrc). Per the Joza paper, only fragments containing at
// least one valid SQL token are retained: a fragment such as "hello world"
// can never cover a critical token and would only slow matching down.
//
// Two matchers are provided, both used through the Matcher interface so
// PTI and benchmarks can swap them:
//
//   - ACMatcher: an Aho–Corasick automaton, stored as flat arrays, that
//     reports all occurrences of all fragments in a single pass over the
//     query. Production PTI uses it.
//   - NaiveMatcher: the textbook scan the paper describes as O(n·m²) —
//     every fragment is searched for at every query position. Kept as the
//     "unoptimized PTI" baseline for Figure 7 and the matcher ablation.
//
// The MRU type implements the paper's first PTI optimization: a
// most-recently-used list of fragments that matched recent queries, tried
// first with a cheap targeted check before falling back to a full scan. It
// paid for the paper's per-fragment scan; on top of ACMatcher it only adds
// a lock and a copy per critical token, so production PTI runs without it
// and only the paper's Figure 7 and ablation configurations turn it on.
package fragments

import (
	"sort"
	"strings"
	"sync"

	"joza/internal/sqltoken"
)

// Set is an immutable, deduplicated collection of trusted fragments.
type Set struct {
	frags []string
	index map[string]int
}

// NewSet builds a Set from texts, dropping duplicates, empty strings and —
// unless keepAll is requested via NewSetKeepAll — fragments that contain no
// SQL token under the MySQL dialect.
func NewSet(texts []string) *Set {
	return newSet(sqltoken.MySQL, texts, false)
}

// NewSetDialect is NewSet with the has-a-SQL-token retention filter
// evaluated under dialect d. The filter is dialect-sensitive at the
// margins — a dollar-quoted fragment holds a string token in Postgres but
// not in MySQL — so a guard configured for dialect d should build its set
// under d too.
func NewSetDialect(d sqltoken.Dialect, texts []string) *Set {
	return newSet(d, texts, false)
}

// NewSetKeepAll builds a Set that retains every non-empty fragment
// regardless of SQL-token content. Tests use it to model hypothetical
// fragment vocabularies.
func NewSetKeepAll(texts []string) *Set {
	return newSet(sqltoken.MySQL, texts, true)
}

func newSet(d sqltoken.Dialect, texts []string, keepAll bool) *Set {
	s := &Set{index: make(map[string]int, len(texts))}
	for _, t := range texts {
		if t == "" {
			continue
		}
		if !keepAll && !d.ContainsSQLToken(t) {
			continue
		}
		if _, dup := s.index[t]; dup {
			continue
		}
		s.index[t] = len(s.frags)
		s.frags = append(s.frags, t)
	}
	return s
}

// Len returns the number of fragments in the set.
func (s *Set) Len() int { return len(s.frags) }

// Fragment returns the fragment with the given ID.
func (s *Set) Fragment(id int) string { return s.frags[id] }

// Fragments returns a copy of all fragments in insertion order.
func (s *Set) Fragments() []string {
	out := make([]string, len(s.frags))
	copy(out, s.frags)
	return out
}

// Contains reports whether text is a fragment in the set.
func (s *Set) Contains(text string) bool {
	_, ok := s.index[text]
	return ok
}

// ID returns the fragment ID for text and whether it exists.
func (s *Set) ID(text string) (int, bool) {
	id, ok := s.index[text]
	return id, ok
}

// Sample returns up to n fragments sorted by descending length then
// lexicographically; used to print Table III-style fragment samples.
func (s *Set) Sample(n int) []string {
	out := s.Fragments()
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i] < out[j]
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Covers reports whether the single fragment with ID id occurs in query at
// a position that fully contains [start, end). This is the targeted check
// used with the MRU list: it only inspects the window of feasible start
// positions rather than the whole query.
func (s *Set) Covers(query string, id, start, end int) bool {
	_, ok := s.CoverAt(query, id, start, end)
	return ok
}

// CoverAt is Covers but also returns the start offset of the covering
// occurrence when one exists.
func (s *Set) CoverAt(query string, id, start, end int) (int, bool) {
	f := s.frags[id]
	flen := len(f)
	if flen < end-start {
		return 0, false
	}
	lo := end - flen
	if lo < 0 {
		lo = 0
	}
	hi := start
	if hi+flen > len(query) {
		hi = len(query) - flen
	}
	for a := lo; a <= hi; a++ {
		if query[a:a+flen] == f {
			return a, true
		}
	}
	return 0, false
}

// Occurrence records one exact occurrence of a fragment inside a query.
type Occurrence struct {
	// FragmentID indexes into the Set the matcher was built from.
	FragmentID int
	// Start and End are byte offsets of the occurrence, query[Start:End).
	Start int
	End   int
}

// Matcher locates all fragment occurrences in a query.
type Matcher interface {
	// FindAll returns every occurrence of every fragment in query. The
	// order is the matcher's own: ACMatcher documents its order,
	// NaiveMatcher groups occurrences by fragment ID. PTI reports each
	// critical token's first covering occurrence as its marking, so the
	// order picks the marking; it never changes a verdict.
	FindAll(query string) []Occurrence
}

// NaiveMatcher searches each fragment independently with repeated substring
// scans. It implements the unoptimized algorithm of Section III-B.
type NaiveMatcher struct {
	set *Set
}

var _ Matcher = (*NaiveMatcher)(nil)

// NewNaiveMatcher returns a NaiveMatcher over set.
func NewNaiveMatcher(set *Set) *NaiveMatcher {
	return &NaiveMatcher{set: set}
}

// FindAll implements Matcher.
func (nm *NaiveMatcher) FindAll(query string) []Occurrence {
	var out []Occurrence
	for id, f := range nm.set.frags {
		for from := 0; ; {
			i := strings.Index(query[from:], f)
			if i < 0 {
				break
			}
			start := from + i
			out = append(out, Occurrence{FragmentID: id, Start: start, End: start + len(f)})
			from = start + 1
		}
	}
	return out
}

// ACMatcher is an Aho–Corasick automaton over the fragment set. Building is
// O(total fragment bytes); FindAll is O(len(query) + matches).
//
// FindAll reports occurrences by End ascending and, among occurrences that
// end at the same byte, longer fragment first (the order of the dictionary
// suffix chain). PTI takes each critical token's first covering occurrence
// as its positive marking, so this order is part of the contract.
//
// The automaton is stored flat, with no per-node allocation. Nodes are
// numbered breadth-first with each node's children in ascending label
// order, so every node but the root is the target of exactly one trie
// edge, and edge e leads to node e+1: node u's edges are
// labels[edges[u]:edges[u+1]]. The root, which has the most children and
// is where every failed match ends up, also has a dense 256-entry goto
// table.
type ACMatcher struct {
	set *Set
	// root is the root's goto table; 0 means the byte keeps the scan at
	// the root.
	root   [256]int32
	edges  []int32
	labels []byte
	fail   []int32
	// dict is the nearest proper suffix node (via fail links) that ends a
	// fragment, enabling O(matches) enumeration; 0 means none, since the
	// root ends no fragment.
	dict []int32
	// out is the ID of the fragment ending at the node, or -1. A Set holds
	// no duplicates, so at most one fragment ends at any node.
	out []int32
}

var _ Matcher = (*ACMatcher)(nil)

// NewACMatcher builds the automaton for set.
func NewACMatcher(set *Set) *ACMatcher {
	// The trie is first built as first-child/next-sibling lists, siblings
	// kept in ascending label order so the breadth-first flattening below
	// needs no sort. Node 0 is the root, which is nobody's child or
	// sibling, so 0 also means "none" in child and sib.
	size := 1
	for _, f := range set.frags {
		size += len(f)
	}
	child := make([]int32, 1, size)
	sib := make([]int32, 1, size)
	label := make([]byte, 1, size)
	term := make([]int32, 1, size)
	term[0] = -1
	for id, f := range set.frags {
		cur := int32(0)
		for i := 0; i < len(f); i++ {
			c := f[i]
			prev, n := int32(-1), child[cur]
			for n != 0 && label[n] < c {
				prev, n = n, sib[n]
			}
			if n == 0 || label[n] != c {
				v := int32(len(label))
				child = append(child, 0)
				sib = append(sib, n)
				label = append(label, c)
				term = append(term, -1)
				if prev < 0 {
					child[cur] = v
				} else {
					sib[prev] = v
				}
				n = v
			}
			cur = n
		}
		term[cur] = int32(id)
	}

	// Flatten breadth-first: order[k] is the trie node that becomes node k.
	n := len(label)
	m := &ACMatcher{
		set:    set,
		edges:  make([]int32, n+1),
		labels: make([]byte, n-1),
		fail:   make([]int32, n),
		dict:   make([]int32, n),
		out:    make([]int32, n),
	}
	order := make([]int32, 1, n)
	for k := 0; k < n; k++ {
		m.edges[k] = int32(len(order) - 1)
		m.out[k] = term[order[k]]
		for c := child[order[k]]; c != 0; c = sib[c] {
			m.labels[len(order)-1] = label[c]
			order = append(order, c)
		}
	}
	m.edges[n] = int32(n - 1)
	for e := m.edges[0]; e < m.edges[1]; e++ {
		m.root[m.labels[e]] = e + 1
	}

	// Failure and dictionary links, breadth-first: a node's links point to
	// shallower nodes, whose own links are already set.
	for u := int32(0); u < int32(n); u++ {
		for e := m.edges[u]; e < m.edges[u+1]; e++ {
			v := e + 1
			f := int32(0)
			if u != 0 {
				f = m.step(m.fail[u], m.labels[e])
			}
			m.fail[v] = f
			if m.out[f] >= 0 {
				m.dict[v] = f
			} else {
				m.dict[v] = m.dict[f]
			}
		}
	}
	return m
}

// step returns the state after reading c in state s.
func (m *ACMatcher) step(s int32, c byte) int32 {
	for s != 0 {
		for e := m.edges[s]; e < m.edges[s+1]; e++ {
			if l := m.labels[e]; l >= c {
				if l == c {
					return e + 1
				}
				break
			}
		}
		s = m.fail[s]
	}
	return m.root[c]
}

// FindAll implements Matcher, in the order documented on ACMatcher.
func (m *ACMatcher) FindAll(query string) []Occurrence {
	var out []Occurrence
	cur := int32(0)
	for i := 0; i < len(query); i++ {
		cur = m.step(cur, query[i])
		n := cur
		if m.out[n] < 0 {
			n = m.dict[n]
		}
		for ; n != 0; n = m.dict[n] {
			id := m.out[n]
			out = append(out, Occurrence{
				FragmentID: int(id),
				Start:      i + 1 - len(m.set.frags[id]),
				End:        i + 1,
			})
		}
	}
	return out
}

// MRU is a bounded most-recently-used list of fragment IDs, safe for
// concurrent use. PTI records which fragments covered critical tokens of
// recent queries; web applications have a small SQL working set, so these
// fragments very likely cover the next query too.
type MRU struct {
	mu    sync.Mutex
	cap   int
	order []int
	pos   map[int]int // fragment ID -> index in order
}

// NewMRU returns an MRU holding at most capacity fragment IDs; capacity
// values below 1 default to 64.
func NewMRU(capacity int) *MRU {
	if capacity < 1 {
		capacity = 64
	}
	return &MRU{cap: capacity, pos: make(map[int]int, capacity)}
}

// Touch marks id as most recently used, inserting it if absent and evicting
// the least recently used entry when over capacity.
func (m *MRU) Touch(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if idx, ok := m.pos[id]; ok {
		// Move to front.
		copy(m.order[1:idx+1], m.order[:idx])
		m.order[0] = id
		for i := 0; i <= idx; i++ {
			m.pos[m.order[i]] = i
		}
		return
	}
	m.order = append(m.order, 0)
	copy(m.order[1:], m.order[:len(m.order)-1])
	m.order[0] = id
	for i, v := range m.order {
		m.pos[v] = i
	}
	if len(m.order) > m.cap {
		evicted := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		delete(m.pos, evicted)
	}
}

// IDs returns the fragment IDs from most to least recently used.
func (m *MRU) IDs() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.order))
	copy(out, m.order)
	return out
}

// Len returns the number of tracked fragment IDs.
func (m *MRU) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.order)
}
