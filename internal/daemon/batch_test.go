package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestClientAnalyzeBatch(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	queries := []string{benignQuery, attackQuery, benignQuery}
	results, err := c.AnalyzeBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if results[0].Reply.Attack || results[2].Reply.Attack {
		t.Error("benign items flagged")
	}
	if !results[1].Reply.Attack {
		t.Error("attack item missed")
	}
	// The client's batch frame asks for no token streams.
	for i, r := range results {
		if r.Reply.Tokens != nil {
			t.Errorf("item %d carries %d tokens", i, len(r.Reply.Tokens))
		}
	}
	// A legacy batch frame gets a token stream per item, exactly like a
	// legacy single-request reply.
	resp, err := c.roundTrip(context.Background(), wireRequest{Op: "batch", Batch: []wireRequest{{Query: benignQuery}, {Query: attackQuery}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Batch) != 2 || !resp.Batch[1].Reply.Attack || len(resp.Batch[1].Reply.Tokens) == 0 {
		t.Errorf("legacy batch item lost its token stream: %+v", resp.Batch)
	}

	// Empty batch is a client-side no-op, not a wire request.
	results, err = c.AnalyzeBatch(context.Background(), nil)
	if err != nil || results != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", results, err)
	}
}

func TestPoolAnalyzeBatch(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	p := DialPool(addr, PoolConfig{Size: 2, Timeout: 5 * time.Second})
	defer p.Close()
	results, err := p.AnalyzeBatch(context.Background(), []string{attackQuery, benignQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Reply.Attack || results[1].Reply.Attack {
		t.Fatalf("verdicts out of order: %+v", results)
	}
}

// TestMicroBatcherCoalesces proves BatchSize actually batches: concurrent
// AnalyzeContext calls must reach the server inside "batch" frames, not as
// individual analyze requests.
func TestMicroBatcherCoalesces(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newAnalyzer())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-serveDone
	}()
	p := DialPool(ln.Addr().String(), PoolConfig{
		Size:        2,
		Timeout:     5 * time.Second,
		BatchSize:   4,
		BatchLinger: 2 * time.Millisecond,
	})
	defer p.Close()

	const calls = 16
	var wg sync.WaitGroup
	errs := make([]error, calls)
	attacks := make([]bool, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := benignQuery
			if i%2 == 1 {
				q = attackQuery
			}
			reply, err := p.AnalyzeContext(context.Background(), q)
			if err != nil {
				errs[i] = err
				return
			}
			attacks[i] = reply.Attack
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	for i, attack := range attacks {
		if want := i%2 == 1; attack != want {
			t.Fatalf("call %d: attack=%v, want %v — batcher mixed up result routing", i, attack, want)
		}
	}
	st := srv.Stats()
	if st.DaemonBatchOps == 0 {
		t.Fatal("no batch frames reached the server; the micro-batcher did not coalesce")
	}
	if st.DaemonBatchItems != calls {
		t.Fatalf("server saw %d batch items, want %d", st.DaemonBatchItems, calls)
	}
	if st.DaemonBatchOps >= calls {
		t.Fatalf("%d batch frames for %d calls; nothing was coalesced", st.DaemonBatchOps, calls)
	}
}

// TestMicroBatcherLingerFlushesPartialBatch: a lone call must not wait for
// a full batch — the linger timer flushes it.
func TestMicroBatcherLingerFlushesPartialBatch(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	p := DialPool(addr, PoolConfig{
		Size:        1,
		Timeout:     5 * time.Second,
		BatchSize:   64,
		BatchLinger: time.Millisecond,
	})
	defer p.Close()
	start := time.Now()
	reply, err := p.AnalyzeContext(context.Background(), benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("benign flagged")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("lone call took %v; linger flush did not fire", elapsed)
	}
}

// TestMicroBatcherCallerCancellation: a caller abandoning its slot must
// get ctx's error promptly, and the batcher must survive delivering the
// abandoned slot's result.
func TestMicroBatcherAbandonedCaller(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	p := DialPool(addr, PoolConfig{
		Size:        1,
		Timeout:     5 * time.Second,
		BatchSize:   64,
		BatchLinger: 50 * time.Millisecond,
	})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.AnalyzeContext(ctx, benignQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller got %v, want context.Canceled", err)
	}
	// The batcher still flushes the abandoned item and stays usable.
	reply, err := p.AnalyzeContext(context.Background(), benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("benign flagged")
	}
}

// TestBatchPoisonedItemIsolated: one item with an expired budget fails
// alone; its siblings carry replies and the connection stays healthy.
func TestBatchPoisonedItemIsolated(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	resp, err := c.roundTrip(context.Background(), wireRequest{
		Op: "batch",
		Batch: []wireRequest{
			{Query: benignQuery},
			{Query: benignQuery, TimeoutMs: -1}, // already-expired budget
			{Query: attackQuery},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Batch) != 3 {
		t.Fatalf("%d items in reply, want 3", len(resp.Batch))
	}
	if resp.Batch[0].Err != "" || resp.Batch[0].Reply == nil || resp.Batch[0].Reply.Attack {
		t.Errorf("healthy sibling 0 = %+v", resp.Batch[0])
	}
	if resp.Batch[1].Err == "" || resp.Batch[1].Reply != nil {
		t.Errorf("poisoned item = %+v, want per-item error", resp.Batch[1])
	}
	if resp.Batch[2].Err != "" || resp.Batch[2].Reply == nil || !resp.Batch[2].Reply.Attack {
		t.Errorf("healthy sibling 2 = %+v", resp.Batch[2])
	}
	// The stream survived: a follow-up single request works.
	reply, err := c.Analyze(benignQuery)
	if err != nil {
		t.Fatalf("connection unhealthy after poisoned batch item: %v", err)
	}
	if reply.Attack {
		t.Error("benign flagged")
	}
}

// TestBatchItemCapRefusedOnHealthyStream: a batch above the item cap is
// refused whole, and the connection survives.
func TestBatchItemCapRefusedOnHealthyStream(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newAnalyzer(), WithMaxBatchItems(2))
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.ServeConn(serverSide)
	}()
	c := NewClient(clientSide)
	defer func() {
		_ = c.Close()
		_ = serverSide.Close()
		<-serveDone
	}()
	_, err := c.AnalyzeBatch(context.Background(), []string{benignQuery, benignQuery, benignQuery})
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap batch error = %v, want item-cap refusal", err)
	}
	if c.Broken() {
		t.Fatal("connection broken by an over-cap batch; the refusal must ride the healthy stream")
	}
	results, err := c.AnalyzeBatch(context.Background(), []string{benignQuery, attackQuery})
	if err != nil {
		t.Fatalf("batch at the cap after a refusal: %v", err)
	}
	if results[0].Err != nil || results[1].Err != nil || !results[1].Reply.Attack {
		t.Fatalf("results = %+v", results)
	}
}

// TestBatchEmptyRefused: an explicit empty batch frame is a protocol error
// answered on the healthy stream.
func TestBatchEmptyRefused(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	_, err := c.roundTrip(context.Background(), wireRequest{Op: "batch"})
	if err == nil || !strings.Contains(err.Error(), "empty batch") {
		t.Fatalf("empty batch error = %v", err)
	}
	if c.Broken() {
		t.Fatal("connection broken by an empty batch")
	}
}

// TestBatchNestedOpsRefusedPerItem: control verbs and nested batches
// inside a batch fail their own slot only.
func TestBatchNestedOpsRefusedPerItem(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	resp, err := c.roundTrip(context.Background(), wireRequest{
		Op: "batch",
		Batch: []wireRequest{
			{Op: "stats"},
			{Query: benignQuery},
			{Op: "batch", Batch: []wireRequest{{Query: benignQuery}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batch[0].Err == "" || resp.Batch[2].Err == "" {
		t.Errorf("nested control ops not refused: %+v", resp.Batch)
	}
	if resp.Batch[1].Err != "" || resp.Batch[1].Reply == nil {
		t.Errorf("analyze sibling dragged down: %+v", resp.Batch[1])
	}
}

// TestBatchPartialReplyIsProtocolError: a server answering a batch with
// the wrong item count is a protocol violation — the whole call fails —
// but the frame itself was well-formed, so the connection is not broken.
func TestBatchPartialReplyIsProtocolError(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	// A fake daemon that answers every batch with a single-item reply.
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		dec := json.NewDecoder(bufio.NewReader(serverSide))
		enc := json.NewEncoder(serverSide)
		for {
			var req wireRequest
			if err := dec.Decode(&req); err != nil {
				return
			}
			resp := wireResponse{Batch: []wireResponse{{Reply: &AnalysisReply{}}}}
			if err := enc.Encode(resp); err != nil {
				return
			}
		}
	}()
	c := NewClient(clientSide)
	defer func() {
		_ = c.Close()
		_ = serverSide.Close()
		<-serveDone
	}()
	_, err := c.AnalyzeBatch(context.Background(), []string{benignQuery, attackQuery})
	if err == nil || !strings.Contains(err.Error(), "batch reply has 1 items, want 2") {
		t.Fatalf("short reply error = %v", err)
	}
	if c.Broken() {
		t.Fatal("count mismatch broke the connection; the stream itself was in sync")
	}
}

// TestBatchOversizedFrameBreaksConn: a batch frame exceeding the request
// byte limit is a framing fault — the server drops the connection, exactly
// like an oversized single request.
func TestBatchOversizedFrameBreaksConn(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newAnalyzer(), WithMaxRequestBytes(256))
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.ServeConn(serverSide)
	}()
	c := NewClient(clientSide)
	defer func() {
		_ = c.Close()
		_ = serverSide.Close()
	}()
	big := strings.Repeat("SELECT * FROM records WHERE ID=5 LIMIT 5; ", 32)
	_, err := c.AnalyzeBatch(context.Background(), []string{big, big})
	if err == nil {
		t.Fatal("oversized batch frame succeeded past the byte limit")
	}
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("server kept the connection after an oversized frame")
	}
	if !c.Broken() {
		t.Fatal("client still healthy after the server dropped the stream")
	}
}

// TestWireBackCompatOldClientFrames: frames an old single-request client
// sends — no op, no batch field — must keep working against the new
// server, and a new client's single-request frames must stay byte-
// compatible (no new keys) with old servers.
func TestWireBackCompatOldClientFrames(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newAnalyzer())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.ServeConn(serverSide)
	}()
	defer func() {
		_ = clientSide.Close()
		_ = serverSide.Close()
		<-serveDone
	}()
	br := bufio.NewReader(clientSide)
	sendLine := func(frame string) string {
		t.Helper()
		if _, err := clientSide.Write([]byte(frame + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	type raw map[string]any
	send := func(frame string) raw {
		t.Helper()
		var resp raw
		if err := json.Unmarshal([]byte(sendLine(frame)), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := send(`{"query":"` + benignQuery + `"}`)
	if resp["error"] != nil || resp["reply"] == nil {
		t.Fatalf("old-style analyze frame = %v", resp)
	}
	resp = send(`{"op":"analyze","query":"` + attackQuery + `","timeout_ms":5000}`)
	if resp["error"] != nil || resp["reply"].(map[string]any)["attack"] != true {
		t.Fatalf("old-style analyze with budget = %v", resp)
	}
	resp = send(`{"op":"stats"}`)
	if resp["error"] != nil || resp["stats"] == nil {
		t.Fatalf("old-style stats frame = %v", resp)
	}

	// Analyze and batch frames without no_tokens get the reply the server
	// sent before the flag existed, byte for byte, token streams included
	// (empty ones too): the golden file pairs each frame with that reply.
	// The same frames with the flag get the same verdicts with no tokens
	// key anywhere.
	golden, err := os.ReadFile("testdata/legacy_replies.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(lines) < 2 || len(lines)%2 != 0 {
		t.Fatalf("golden file has %d lines, want frame/reply pairs", len(lines))
	}
	for i := 0; i < len(lines); i += 2 {
		frame, want := lines[i], lines[i+1]+"\n"
		if got := sendLine(frame); got != want {
			t.Errorf("legacy frame %s\n got: %s want: %s", frame, got, want)
		}
		lean := sendLine(`{"no_tokens":true,` + strings.TrimPrefix(frame, "{"))
		if strings.Contains(lean, `"tokens"`) {
			t.Errorf("no_tokens frame %s got tokens: %s", frame, lean)
		}
		var legacyResp, leanResp wireResponse
		if err := json.Unmarshal([]byte(want), &legacyResp); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(lean), &leanResp); err != nil {
			t.Fatal(err)
		}
		stripTokens(&legacyResp)
		if !reflect.DeepEqual(leanResp, legacyResp) {
			t.Errorf("no_tokens frame %s: reply %+v differs from the legacy reply %+v beyond its tokens", frame, leanResp, legacyResp)
		}
	}
	// Inside a batch the flag also works per item, without the outer one.
	resp = send(`{"op":"batch","batch":[{"query":"` + benignQuery + `","no_tokens":true},{"query":"` + benignQuery + `"}]}`)
	items, _ := resp["batch"].([]any)
	if len(items) != 2 {
		t.Fatalf("per-item flag batch = %v", resp)
	}
	if _, has := items[0].(map[string]any)["reply"].(map[string]any)["tokens"]; has {
		t.Errorf("item with no_tokens got tokens: %v", items[0])
	}
	if _, has := items[1].(map[string]any)["reply"].(map[string]any)["tokens"]; !has {
		t.Errorf("item without no_tokens lost its tokens: %v", items[1])
	}

	// New client, old server: the single-request frame must not have
	// grown any field an old server would choke on or misread.
	frame, err := json.Marshal(wireRequest{Query: benignQuery})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(frame, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys["query"] == nil {
		t.Fatalf("single-request frame = %s; new fields must be omitempty", frame)
	}
}

// stripTokens clears the token streams of a decoded reply frame and of its
// batch items.
func stripTokens(resp *wireResponse) {
	if resp.Reply != nil {
		resp.Reply.Tokens = nil
	}
	for i := range resp.Batch {
		stripTokens(&resp.Batch[i])
	}
}

// FuzzBatchFrame drives the batch verb with arbitrary queries, item
// counts, budgets, version pins and no_tokens values. The invariant: a
// well-formed batch frame never panics the server, and the reply carries
// exactly one response per item (or a whole-batch error for empty/over-cap
// batches) on a stream that stays healthy; with no_tokens true on the
// outer frame no item reply carries tokens. noTokens is the raw JSON value
// spliced in as no_tokens on the outer frame and on the odd items (empty
// leaves the field out); a value of the wrong type makes the frame
// malformed, which must end the connection cleanly instead.
func FuzzBatchFrame(f *testing.F) {
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "SELECT 1", uint8(2), int64(0), "", "")
	f.Add("", "x", uint8(0), int64(-1), "", "")
	f.Add("SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5", "", uint8(7), int64(1<<62), "deadbeefdeadbeef", "")
	f.Add("q", "q", uint8(255), int64(1), "\x00\xffgarbage", "")
	f.Add("SELECT 1", "SELECT 1", uint8(3), int64(0), "mixed\ncase", "")
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "SELECT 1", uint8(3), int64(0), "", "true")
	f.Add("SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5", "SELECT 1", uint8(4), int64(0), "", "false")
	f.Add("SELECT 1", "", uint8(2), int64(0), "", `"yes"`)
	f.Add("SELECT 1", "SELECT 1", uint8(1), int64(0), "", "1")
	f.Add("SELECT 1", "SELECT 1", uint8(2), int64(0), "", "null")
	analyzer := newAnalyzer()
	f.Fuzz(func(t *testing.T, q1, q2 string, n uint8, timeoutMs int64, version, noTokens string) {
		if len(q1) > 1<<10 || len(q2) > 1<<10 || len(version) > 1<<8 || len(noTokens) > 1<<6 {
			t.Skip()
		}
		if noTokens != "" && !json.Valid([]byte(noTokens)) {
			t.Skip() // splicing a non-value would not make one frame
		}
		var flag *bool
		wellFormed := noTokens == "" || json.Unmarshal([]byte(noTokens), &flag) == nil
		srv := NewServer(analyzer, WithMaxBatchItems(64))
		clientSide, serverSide := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(serverSide)
		}()
		defer func() {
			_ = clientSide.Close()
			_ = serverSide.Close()
			<-done
		}()
		dec := json.NewDecoder(bufio.NewReader(clientSide))
		send := func(frame []byte) (wireResponse, error) {
			errc := make(chan error, 1)
			go func() {
				_, err := clientSide.Write(append(frame, '\n'))
				errc <- err
			}()
			var resp wireResponse
			err := dec.Decode(&resp)
			if err != nil {
				_ = clientSide.Close() // unblock a writer the server stopped reading
			}
			<-errc
			return resp, err
		}
		items := make([]string, int(n)%96)
		for i := range items {
			var item wireRequest
			if i%2 == 0 {
				item = wireRequest{Query: q1, TimeoutMs: timeoutMs}
			} else {
				// Odd items carry the fuzzed version pin directly; even ones
				// inherit the frame-level pin. Against this unversioned
				// server any non-empty pin must yield a per-item refusal on
				// the healthy stream, never fewer replies than items.
				item = wireRequest{Query: q2, Version: version}
			}
			b, err := json.Marshal(item)
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 1 {
				b = withRawField(b, "no_tokens", noTokens)
			}
			items[i] = string(b)
		}
		outer, err := json.Marshal(wireRequest{Op: "batch", Version: version})
		if err != nil {
			t.Fatal(err)
		}
		outer = withRawField(outer, "no_tokens", noTokens)
		frame := append(outer[:len(outer)-1], `,"batch":[`+strings.Join(items, ",")+`]}`...)
		resp, err := send(frame)
		if !wellFormed {
			if err == nil {
				t.Fatalf("frame with no_tokens %s answered: %+v", noTokens, resp)
			}
			return
		}
		switch {
		case err != nil:
			t.Fatalf("well-formed batch of %d broke the connection: %v", len(items), err)
		case len(items) == 0 || len(items) > 64:
			if resp.Err == "" {
				t.Fatalf("batch of %d items accepted, want whole-batch refusal", len(items))
			}
		case resp.Err != "":
			t.Fatalf("well-formed batch of %d failed: %s", len(items), resp.Err)
		case len(resp.Batch) != len(items):
			t.Fatalf("%d replies for %d items", len(resp.Batch), len(items))
		}
		if flag != nil && *flag {
			for i, item := range resp.Batch {
				if item.Reply != nil && item.Reply.Tokens != nil {
					t.Fatalf("item %d of a no_tokens batch carries tokens", i)
				}
			}
		}
		// The stream survived whatever the batch did.
		resp, err = send([]byte(`{"query":"SELECT * FROM records WHERE ID=5 LIMIT 5"}`))
		if err != nil || resp.Reply == nil {
			t.Fatalf("follow-up request failed: %+v, %v", resp, err)
		}
	})
}

// withRawField adds "name":raw to the JSON object obj; an empty raw leaves
// obj unchanged.
func withRawField(obj []byte, name, raw string) []byte {
	if raw == "" {
		return obj
	}
	field := `"` + name + `":` + raw
	if string(obj) == "{}" {
		return []byte("{" + field + "}")
	}
	return []byte("{" + field + "," + string(obj[1:]))
}
