package daemon

import (
	"bufio"
	"encoding/json"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"joza/internal/core"
	"joza/internal/nti"
)

// TestEmptyReplyTokenStreamKeepsNTI pins that a reply without tokens
// yields a nil stream. An empty non-nil stream would make NTI skip its
// own lex, and with it the whole-token rule, so it would flag nothing.
func TestEmptyReplyTokenStreamKeepsNTI(t *testing.T) {
	toks := (&AnalysisReply{}).TokenStream()
	if toks != nil {
		t.Fatalf("TokenStream of a token-less reply = %#v, want nil", toks)
	}
	query := "SELECT * FROM records WHERE ID=1 OR 1=1 LIMIT 5"
	res := nti.MustNew().Analyze(query, toks, []nti.Input{{Source: "get", Name: "id", Value: "1 OR 1=1"}})
	if !res.Attack {
		t.Fatal("NTI over an empty reply's token stream missed an input-derived tautology")
	}
}

// serveAsOldServer answers conn the way a daemon from before the
// no_tokens flag does: it ignores the flag (old servers ignore unknown
// fields) and so sends every analyze reply with its full token stream. It counts the
// replies that carried tokens.
func serveAsOldServer(srv *Server, conn net.Conn, withTokens *atomic.Int64) {
	defer func() { _ = conn.Close() }()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		req.NoTokens = false
		for i := range req.Batch {
			req.Batch[i].NoTokens = false
		}
		var resp serverResponse
		if req.Op == "batch" {
			srv.handleBatch(req, &resp)
		} else {
			srv.handleAnalyze(req, &resp)
		}
		for _, r := range append([]serverResponse{resp}, resp.Batch...) {
			if lr, ok := r.Reply.(*legacyReply); ok && len(lr.Tokens) > 0 {
				withTokens.Add(1)
			}
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// TestHybridClientAgainstOldServer runs current clients — a bare Client
// and a micro-batching Pool — against a server that ignores no_tokens and
// always sends the token stream. They must ignore the stream, lex lazily,
// and reach exactly the verdicts and reasons of a hybrid over Direct.
func TestHybridClientAgainstOldServer(t *testing.T) {
	srv := NewServer(newAnalyzer())
	var withTokens atomic.Int64
	dialOld := func() (net.Conn, error) {
		clientSide, serverSide := net.Pipe()
		go serveAsOldServer(srv, serverSide, &withTokens)
		return clientSide, nil
	}
	conn, _ := dialOld()
	pool := NewPool(dialOld, PoolConfig{Size: 1, BatchSize: 2, BatchLinger: time.Millisecond})
	clients := map[string]*HybridClient{
		"client": NewHybridClient(NewClient(conn), nti.MustNew(), core.PolicyTerminate),
		"pool":   NewHybridClient(pool, nti.MustNew(), core.PolicyTerminate),
	}
	ref := NewHybridClient(NewDirect(newAnalyzer()), nti.MustNew(), core.PolicyTerminate)
	defer func() {
		for _, h := range clients {
			_ = h.Close()
		}
	}()

	cases := []struct {
		name, query string
		inputs      []nti.Input
		nti, pti    bool
	}{
		{"benign", benignQuery, []nti.Input{{Source: "get", Name: "id", Value: "5"}}, false, false},
		{"both", "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5",
			[]nti.Input{{Source: "get", Name: "id", Value: "-1 UNION SELECT username()"}}, true, true},
		{"pti-only", attackQuery, nil, false, true},
		// Fragments cover every token, so only the client's lazy lex can
		// catch the input spanning LIMIT.
		{"nti-only", benignQuery, []nti.Input{{Source: "get", Name: "id", Value: "5 LIMIT 5"}}, true, false},
	}
	for _, tc := range cases {
		want, err := ref.Check(tc.query, tc.inputs)
		if err != nil {
			t.Fatal(err)
		}
		if want.NTI.Attack != tc.nti || want.PTI.Attack != tc.pti {
			t.Fatalf("%s: reference detected by %v", tc.name, want.DetectedBy())
		}
		for name, h := range clients {
			got, err := h.Check(tc.query, tc.inputs)
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.name, name, err)
			}
			if got.Attack != want.Attack || got.NTI.Attack != want.NTI.Attack || got.PTI.Attack != want.PTI.Attack ||
				!slices.Equal(got.NTI.Reasons, want.NTI.Reasons) || !slices.Equal(got.PTI.Reasons, want.PTI.Reasons) {
				t.Errorf("%s via %s against an old server:\n got  %+v\n want %+v", tc.name, name, got, want)
			}
		}
	}
	if n := withTokens.Load(); n != int64(len(clients)*len(cases)) {
		t.Errorf("old server sent tokens on %d replies, want every one of %d", n, len(clients)*len(cases))
	}
}
