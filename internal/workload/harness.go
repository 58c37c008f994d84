package workload

import (
	"context"
	"fmt"
	"strings"
	"time"

	"joza/internal/core"
	"joza/internal/daemon"
	"joza/internal/nti"
	"joza/internal/pti"
)

// Protection is one measured configuration: the shipped remote front door
// (daemon.HybridClient, what joza.NewRemoteGuard returns) over a PTI
// transport, with or without the application-side NTI analysis. A
// Protection serves one goroutine at a time.
type Protection struct {
	Name string
	// connect returns the client that checks one request's queries and
	// the release that ends its deployment; a long-lived deployment hands
	// back the same client with a no-op release.
	connect func() (*daemon.HybridClient, func())
	// ptiTime accumulates the time spent inside the PTI transport, IPC
	// included (see timedTransport).
	ptiTime time.Duration
}

// timedTransport adds the time each analyze call spends inside the
// wrapped transport to *spent: the Figure 7/8 "PTI" component. The hybrid
// client issues every analysis through AnalyzeSiteContext.
type timedTransport struct {
	daemon.Transport
	spent *time.Duration
}

// AnalyzeSiteContext implements daemon.Transport.
func (t timedTransport) AnalyzeSiteContext(ctx context.Context, site, query string) (*daemon.AnalysisReply, error) {
	start := time.Now()
	reply, err := t.Transport.AnalyzeSiteContext(ctx, site, query)
	*t.spent += time.Since(start)
	return reply, err
}

// PTIVariant selects how the daemon-side PTI analyzer and its deployment
// are built. The paper's optimized daemon is the zero value plus Remote and
// a cache mode: per-fragment scan matching with MRU and parse-first
// (Aho–Corasick is this reproduction's own ablation, exercised in the
// benchmarks).
type PTIVariant struct {
	// AhoCorasick switches from the paper's per-fragment scan to the AC
	// automaton (ablation).
	AhoCorasick bool
	// NoParseFirst disables the parse-first optimization.
	NoParseFirst bool
	// NoMRU leaves out the paper's MRU fragment list, which every other
	// variant adds (pti.WithMRU(64)); production PTI runs without it.
	NoMRU bool
	// Cache selects the PTI cache mode. The caches sit with the analyzer,
	// behind the transport, as in the shipped deployment; the paper kept
	// its query cache in the application, ahead of the IPC.
	Cache pti.CacheMode
	// Remote routes analysis through an in-memory pipe daemon instead of
	// a direct in-process call (the "extension estimate").
	Remote bool
	// SpawnPerRequest launches a fresh daemon for every request, the
	// paper's initial unoptimized implementation ("initiated a new
	// process"); implies Remote.
	SpawnPerRequest bool
}

// buildAnalyzer constructs the cached PTI analyzer a variant's daemon
// serves from.
func (v PTIVariant) buildAnalyzer(site *Site) *pti.Cached {
	var opts []pti.Option
	if !v.AhoCorasick {
		opts = append(opts, pti.WithNaiveMatcher())
	}
	if v.NoParseFirst {
		opts = append(opts, pti.WithoutParseFirst())
	}
	if !v.NoMRU {
		opts = append(opts, pti.WithMRU(64))
	}
	return pti.NewCached(pti.New(site.Fragments, opts...), v.Cache, 16384)
}

// NewProtection assembles a measured configuration. stop must be called
// when done (it shuts down a pipe daemon when Remote is set).
func NewProtection(name string, site *Site, v PTIVariant, withNTI bool) (prot *Protection, stop func()) {
	analyzer := v.buildAnalyzer(site)
	var ntiAnalyzer *nti.Analyzer
	if withNTI {
		ntiAnalyzer = nti.MustNew()
	}
	p := &Protection{Name: name}
	hybrid := func(t daemon.Transport) *daemon.HybridClient {
		return daemon.NewHybridClient(timedTransport{t, &p.ptiTime}, ntiAnalyzer, core.PolicyTerminate)
	}
	stop = func() {}
	if v.SpawnPerRequest {
		p.connect = func() (*daemon.HybridClient, func()) {
			c, stopDaemon := daemon.SpawnPipe(analyzer)
			return hybrid(c), stopDaemon
		}
		return p, stop
	}
	var transport daemon.Transport = daemon.NewDirect(analyzer)
	if v.Remote {
		transport, stop = daemon.SpawnPipe(analyzer)
	}
	client := hybrid(transport)
	p.connect = func() (*daemon.HybridClient, func()) { return client, func() {} }
	return p, stop
}

// Timing aggregates the cost of a measured run, broken down by component
// (the Figure 7/8 decomposition).
type Timing struct {
	Requests int
	Queries  int
	// Total is wall time across all requests.
	Total time.Duration
	// DB is time spent executing statements.
	DB time.Duration
	// Render is simulated application (template/interpreter) time.
	Render time.Duration
	// PTI is time spent inside the PTI transport (the daemon's cache
	// lookups and analysis, plus IPC for remote transports) and spawning
	// per-request daemons.
	PTI time.Duration
	// NTI is the rest of each check: the application-side NTI analysis
	// and the front door's own bookkeeping.
	NTI time.Duration
}

// PerRequest returns the mean request time.
func (t Timing) PerRequest() time.Duration {
	if t.Requests == 0 {
		return 0
	}
	return t.Total / time.Duration(t.Requests)
}

// OverheadPercent returns (protected − plain)/plain in percent.
func OverheadPercent(protected, plain Timing) float64 {
	b := plain.PerRequest().Seconds()
	if b == 0 {
		return 0
	}
	return (protected.PerRequest().Seconds() - b) / b * 100
}

// Mix is a read/write workload mix.
type Mix struct {
	// WriteFraction is the proportion of write requests (0..1); the rest
	// are reads.
	WriteFraction float64
}

// kindAt deterministically interleaves writes at the configured fraction.
func (m Mix) kindAt(i int) RequestKind {
	if m.WriteFraction <= 0 {
		return Read
	}
	period := int(1 / m.WriteFraction)
	if period < 1 {
		period = 1
	}
	if i%period == 0 {
		return Write
	}
	return Read
}

// renderSink defeats dead-code elimination of the simulated render work.
var renderSink uint64

// simulateRender models the application work of one request (PHP template
// rendering and interpretation), which dominates real request cost — the
// paper's plain read request takes ~0.22s on its testbed. Without it the
// in-memory database substrate would make every request nearly free and
// relative overheads meaningless.
func simulateRender(iters int) time.Duration {
	start := time.Now()
	x := renderSink | 1
	for i := 0; i < iters; i++ {
		x = x*1103515245 + 12345
	}
	renderSink = x
	return time.Since(start)
}

// RunRequests executes pre-generated requests under a protection (nil
// protection = plain) and returns the timing breakdown. Every protected
// query is checked through the protection's front door before it runs; a
// flagged query fails the run, since the workload is benign.
func RunRequests(site *Site, reqs []*Request, prot *Protection) (Timing, error) {
	var tm Timing
	start := time.Now()
	for _, req := range reqs {
		if err := runRequest(site, req, prot, &tm); err != nil {
			return tm, err
		}
		tm.Render += simulateRender(site.RenderIters)
	}
	tm.Total = time.Since(start)
	return tm, nil
}

// runRequest checks and executes one request's statements, releasing the
// request's deployment on every path.
func runRequest(site *Site, req *Request, prot *Protection, tm *Timing) error {
	tm.Requests++
	var client *daemon.HybridClient
	if prot != nil {
		t0 := time.Now()
		var release func()
		client, release = prot.connect()
		tm.PTI += time.Since(t0) // spawning a daemon is PTI-side cost
		defer release()
	}
	for _, ev := range req.Events {
		tm.Queries++
		if client != nil {
			if err := prot.check(client, ev, tm); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := site.DB.Exec(ev.Query); err != nil {
			return fmt.Errorf("db: %w", err)
		}
		tm.DB += time.Since(t0)
	}
	return nil
}

// check runs one query through client and splits the time it took into
// the PTI transport's share and the rest.
func (p *Protection) check(client *daemon.HybridClient, ev QueryEvent, tm *Timing) error {
	ptiBefore := p.ptiTime
	t0 := time.Now()
	verdict, err := client.Check(ev.Query, ev.Inputs)
	elapsed := time.Since(t0)
	spent := p.ptiTime - ptiBefore
	tm.PTI += spent
	tm.NTI += elapsed - spent
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if verdict.Attack {
		return fmt.Errorf("benign workload flagged by %s: %q", strings.Join(verdict.DetectedBy(), "+"), ev.Query)
	}
	return nil
}

// GenerateRequests produces n requests of a fixed kind.
func (s *Site) GenerateRequests(kind RequestKind, n int) []*Request {
	out := make([]*Request, n)
	for i := range out {
		out[i] = s.NextRequest(kind)
	}
	return out
}

// GenerateMix produces n requests following the mix.
func (s *Site) GenerateMix(mix Mix, n int) []*Request {
	out := make([]*Request, n)
	for i := range out {
		out[i] = s.NextRequest(mix.kindAt(i + 1))
	}
	return out
}
