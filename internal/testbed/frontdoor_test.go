package testbed

import (
	"context"
	"fmt"
	"net"
	"slices"
	"testing"

	"joza/internal/core"
	"joza/internal/daemon"
	"joza/internal/evasion"
	"joza/internal/nti"
	"joza/internal/pti"
)

// TestFrontDoorsAgreeOnTestbed drives the testbed corpus — benign
// requests, original exploits, NTI-targeted mutants, Taintless PTI
// rewrites and the prose false-positive corpus, each with its input —
// through the in-process Guard and through HybridClient over Direct, over
// a loopback Pool and over a 2-shard ShardedPool. Remote clients get no
// token stream from the daemon and lex lazily for NTI, so every path must
// reach the Guard's verdict: the same Attack, and the same NTI and PTI
// reasons.
func TestFrontDoorsAgreeOnTestbed(t *testing.T) {
	lab, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	// The daemon side mirrors joza.New's PTI defaults over the lab's set.
	analyzer := func() *pti.Cached {
		return pti.NewCached(pti.New(lab.Fragments), pti.CacheQueryAndStructure, 4096)
	}
	serve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := daemon.NewServer(analyzer())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(ln)
		}()
		t.Cleanup(func() {
			_ = srv.Close()
			<-done
		})
		return ln.Addr().String()
	}
	cfg := daemon.PoolConfig{Size: 2}
	sharded, err := daemon.DialShardedPool([]string{serve(), serve()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		h    *daemon.HybridClient
	}{
		{"direct", daemon.NewHybridClient(daemon.NewDirect(analyzer()), nti.MustNew(), core.PolicyTerminate)},
		{"pool", daemon.NewHybridClient(daemon.DialPool(serve(), cfg), nti.MustNew(), core.PolicyTerminate)},
		{"sharded", daemon.NewHybridClient(sharded, nti.MustNew(), core.PolicyTerminate)},
	}
	defer func() {
		for _, p := range paths {
			_ = p.h.Close()
		}
	}()

	ctx := context.Background()
	var cases, attacks, ntiOnly int
	check := func(label, query string, inputs []nti.Input) {
		t.Helper()
		cases++
		want, err := lab.Guard.CheckContext(ctx, query, inputs)
		if err != nil {
			t.Fatalf("%s: guard: %v", label, err)
		}
		if want.Attack {
			attacks++
		}
		if want.NTI.Attack && !want.PTI.Attack {
			ntiOnly++
		}
		for _, p := range paths {
			got, err := p.h.CheckContext(ctx, query, inputs)
			if err != nil {
				t.Fatalf("%s via %s: %v", label, p.name, err)
			}
			if got.Attack != want.Attack {
				t.Errorf("%s via %s: attack = %v, guard says %v", label, p.name, got.Attack, want.Attack)
			}
			if got.NTI.Attack != want.NTI.Attack || !slices.Equal(got.NTI.Reasons, want.NTI.Reasons) {
				t.Errorf("%s via %s: NTI diverges\n  got:   %v %+v\n  guard: %v %+v", label, p.name,
					got.NTI.Attack, got.NTI.Reasons, want.NTI.Attack, want.NTI.Reasons)
			}
			if got.PTI.Attack != want.PTI.Attack || !slices.Equal(got.PTI.Reasons, want.PTI.Reasons) {
				t.Errorf("%s via %s: PTI diverges\n  got:   %v %+v\n  guard: %v %+v", label, p.name,
					got.PTI.Attack, got.PTI.Reasons, want.PTI.Attack, want.PTI.Reasons)
			}
		}
	}

	tl := evasion.NewTaintless(lab.Fragments)
	for _, s := range lab.Specs {
		payloads := []struct{ label, value string }{
			{"benign", s.Benign},
			{"exploit", s.Exploit},
		}
		ntiPayload, _ := lab.ntiMutation(s)
		payloads = append(payloads, struct{ label, value string }{"nti-mutant", ntiPayload})
		if rewritten, ok := tl.Evade(s.Exploit); ok {
			payloads = append(payloads, struct{ label, value string }{"pti-mutant", rewritten})
		}
		for _, p := range payloads {
			inputs := []nti.Input{{Source: "get", Name: s.Param, Value: s.TransportValue(p.value)}}
			check(fmt.Sprintf("%s/%s", s.Name, p.label), lab.builtQuery(s, p.value), inputs)
		}
	}
	quoted := lab.SpecByName("gd-star-rating")
	if quoted == nil {
		t.Fatal("missing quoted spec for the prose corpus")
	}
	for i, prose := range proseCorpus {
		check(fmt.Sprintf("prose-%d", i), lab.builtQuery(quoted, prose),
			[]nti.Input{{Source: "get", Name: quoted.Param, Value: prose}})
	}

	if cases < 150 || attacks == 0 || ntiOnly == 0 {
		t.Fatalf("%d cases, %d attacks, %d NTI-only attacks: the corpus no longer exercises lazy client-side NTI", cases, attacks, ntiOnly)
	}
	t.Logf("%d cases, %d attacks (%d NTI-only), identical on %d front doors", cases, attacks, ntiOnly, len(paths)+1)
}
