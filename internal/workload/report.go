package workload

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"joza/internal/pti"
)

// measureRepeats is how many times each configuration is measured. The
// first run is discarded as warm-up and the median of the rest is kept,
// suppressing scheduler and GC noise at the sub-millisecond request scale.
const measureRepeats = 7

// measure runs the request batch under prot measureRepeats times from
// identical database state and returns the median of the runs after the
// warm-up. regen, when
// non-nil, produces a fresh batch per repetition — required whenever the
// batch contains writes, whose data values must be new every time (reusing
// them would let the exact-query cache absorb the INSERTs, hiding exactly
// the effect Table V measures).
func measure(site *Site, reqs []*Request, prot *Protection, regen func() []*Request) (Timing, error) {
	runs := make([]Timing, 0, measureRepeats)
	for i := 0; i < measureRepeats; i++ {
		if err := site.Reset(); err != nil {
			return Timing{}, err
		}
		batch := reqs
		if regen != nil {
			batch = regen()
		}
		tm, err := RunRequests(site, batch, prot)
		if err != nil {
			return Timing{}, err
		}
		if i == 0 {
			continue // warm-up run: caches, branch predictors, allocator
		}
		runs = append(runs, tm)
	}
	return medianTiming(runs), nil
}

func medianTiming(runs []Timing) Timing {
	sort.Slice(runs, func(a, b int) bool { return runs[a].Total < runs[b].Total })
	return runs[len(runs)/2]
}

// measurePair interleaves plain and protected runs of the same batches so
// slow machine-level drift (CPU frequency scaling, page-cache warming)
// cancels out of the overhead comparison. It returns the medians of each
// side.
func measurePair(site *Site, reqs []*Request, prot *Protection, regen func() []*Request) (plain, protected Timing, err error) {
	plainRuns := make([]Timing, 0, measureRepeats)
	protRuns := make([]Timing, 0, measureRepeats)
	for i := 0; i < measureRepeats; i++ {
		batch := reqs
		if regen != nil {
			batch = regen()
		}
		if err := site.Reset(); err != nil {
			return Timing{}, Timing{}, err
		}
		pl, err := RunRequests(site, batch, nil)
		if err != nil {
			return Timing{}, Timing{}, err
		}
		if err := site.Reset(); err != nil {
			return Timing{}, Timing{}, err
		}
		pr, err := RunRequests(site, batch, prot)
		if err != nil {
			return Timing{}, Timing{}, err
		}
		if i == 0 {
			continue // warm-up pair
		}
		plainRuns = append(plainRuns, pl)
		protRuns = append(protRuns, pr)
	}
	return medianTiming(plainRuns), medianTiming(protRuns), nil
}

// ---------------------------------------------------------------------------
// Table V — read/write overhead per PTI cache configuration.

// Table5Row is one configuration's measured overhead.
type Table5Row struct {
	Config        string
	ReadOverhead  float64 // percent
	WriteOverhead float64 // percent
}

// Table5Result carries every row plus the raw timings for inspection.
type Table5Result struct {
	Rows      []Table5Row
	PlainRead Timing
	PlainWrit Timing
}

// RunTable5 measures read/write request overhead under the paper's cache
// configurations: no cache, query cache and query+structure cache over a
// pipe daemon, and the in-process "extension estimate" (query+structure
// cache over Direct, no IPC).
func RunTable5(site *Site, nRequests int) (*Table5Result, error) {
	reads := site.GenerateRequests(Read, nRequests)
	writes := site.GenerateRequests(Write, nRequests)

	regenWrites := func() []*Request { return site.GenerateRequests(Write, nRequests) }
	res := &Table5Result{}

	configs := []struct {
		name    string
		variant PTIVariant
	}{
		{"PTI daemon, no cache", PTIVariant{Cache: pti.CacheNone, Remote: true}},
		{"PTI daemon, query cache", PTIVariant{Cache: pti.CacheQuery, Remote: true}},
		{"PTI daemon, query+structure cache", PTIVariant{Cache: pti.CacheQueryAndStructure, Remote: true}},
		{"PTI extension estimate", PTIVariant{Cache: pti.CacheQueryAndStructure}},
	}
	for _, cfg := range configs {
		prot, stop := NewProtection(cfg.name, site, cfg.variant, true)
		plainRead, rt, err := measurePair(site, reads, prot, nil)
		if err != nil {
			stop()
			return nil, fmt.Errorf("%s reads: %w", cfg.name, err)
		}
		plainWrite, wt, err := measurePair(site, writes, prot, regenWrites)
		stop()
		if err != nil {
			return nil, fmt.Errorf("%s writes: %w", cfg.name, err)
		}
		res.PlainRead, res.PlainWrit = plainRead, plainWrite
		res.Rows = append(res.Rows, Table5Row{
			Config:        cfg.name,
			ReadOverhead:  OverheadPercent(rt, plainRead),
			WriteOverhead: OverheadPercent(wt, plainWrite),
		})
	}
	return res, nil
}

// Format renders the Table V report.
func (r *Table5Result) Format() string {
	var sb strings.Builder
	sb.WriteString("TABLE V: PTI overhead by request type and cache configuration\n")
	fmt.Fprintf(&sb, "%-36s %12s %12s\n", "Configuration", "Read ovh", "Write ovh")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-36s %11.2f%% %11.2f%%\n", row.Config, row.ReadOverhead, row.WriteOverhead)
	}
	fmt.Fprintf(&sb, "(plain read %.3fms, plain write %.3fms per request)\n",
		ms(r.PlainRead.PerRequest()), ms(r.PlainWrit.PerRequest()))
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table VI — overall overhead by workload mix.

// Table6Row is one workload mix measurement.
type Table6Row struct {
	WritePct  float64
	ReadPct   float64
	PlainMs   float64
	GuardedMs float64
	Overhead  float64 // percent
}

// RunTable6 measures the fully-protected (daemon + both caches + NTI)
// overhead under the paper's read/write mixes.
func RunTable6(site *Site, nRequests int) ([]Table6Row, error) {
	mixes := []float64{0.50, 0.10, 0.05, 0.01}
	var out []Table6Row
	for _, w := range mixes {
		w := w
		regen := func() []*Request { return site.GenerateMix(Mix{WriteFraction: w}, nRequests) }
		reqs := regen()
		prot, stop := NewProtection("joza", site,
			PTIVariant{Cache: pti.CacheQueryAndStructure, Remote: true}, true)
		plain, guarded, err := measurePair(site, reqs, prot, regen)
		stop()
		if err != nil {
			return nil, err
		}
		out = append(out, Table6Row{
			WritePct:  w * 100,
			ReadPct:   (1 - w) * 100,
			PlainMs:   ms(plain.PerRequest()),
			GuardedMs: ms(guarded.PerRequest()),
			Overhead:  OverheadPercent(guarded, plain),
		})
	}
	return out, nil
}

// FormatTable6 renders the Table VI report.
func FormatTable6(rows []Table6Row) string {
	var sb strings.Builder
	sb.WriteString("TABLE VI: Joza overhead on different workloads\n")
	fmt.Fprintf(&sb, "%8s %8s %12s %14s %10s\n", "Writes", "Reads", "Plain ms", "Protected ms", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%7.0f%% %7.0f%% %12.4f %14.4f %9.2f%%\n",
			r.WritePct, r.ReadPct, r.PlainMs, r.GuardedMs, r.Overhead)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table VII — WordPress.com workload statistics and predicted overhead.

// WordPressStats holds the published yearly averages the paper cites
// ([40], [41]): new content items (writes) versus page views (reads).
// Values are representative of the 2010–2014 WordPress.com statistics the
// paper draws on.
type WordPressStats struct {
	NewPosts    float64
	NewPages    float64
	NewComments float64
	RPCPosts    float64
	PageViews   float64
}

// DefaultWordPressStats mirrors Table VII's conclusion: well under one
// percent of requests are writes.
func DefaultWordPressStats() WordPressStats {
	return WordPressStats{
		NewPosts:    52.9e6,
		NewPages:    8.1e6,
		NewComments: 46.1e6,
		RPCPosts:    21.4e6,
		PageViews:   20.1e9,
	}
}

// WriteFraction derives the share of write requests.
func (s WordPressStats) WriteFraction() float64 {
	writes := s.NewPosts + s.NewPages + s.NewComments + s.RPCPosts
	total := writes + s.PageViews
	if total == 0 {
		return 0
	}
	return writes / total
}

// PredictOverhead combines measured read/write overheads with the derived
// write fraction, the paper's "<4% on average" conclusion.
func (s WordPressStats) PredictOverhead(readOverheadPct, writeOverheadPct float64) float64 {
	w := s.WriteFraction()
	return readOverheadPct*(1-w) + writeOverheadPct*w
}

// FormatTable7 renders the Table VII report.
func FormatTable7(s WordPressStats, readOverheadPct, writeOverheadPct float64) string {
	var sb strings.Builder
	sb.WriteString("TABLE VII: WordPress.com workload (yearly averages) and predicted Joza overhead\n")
	fmt.Fprintf(&sb, "  new posts:    %14.0f\n", s.NewPosts)
	fmt.Fprintf(&sb, "  new pages:    %14.0f\n", s.NewPages)
	fmt.Fprintf(&sb, "  new comments: %14.0f\n", s.NewComments)
	fmt.Fprintf(&sb, "  RPC posts:    %14.0f\n", s.RPCPosts)
	fmt.Fprintf(&sb, "  page views:   %14.0f\n", s.PageViews)
	fmt.Fprintf(&sb, "  write fraction: %.3f%%\n", s.WriteFraction()*100)
	fmt.Fprintf(&sb, "  predicted overhead (read %.2f%%, write %.2f%%): %.2f%%\n",
		readOverheadPct, writeOverheadPct,
		s.PredictOverhead(readOverheadPct, writeOverheadPct))
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 7 — PTI per-request cost breakdown, unoptimized vs optimized.

// Figure7Bar is one bar of the breakdown.
type Figure7Bar struct {
	Config string
	// AppDB is request time outside PTI (application + database).
	AppDB time.Duration
	// PTIProcessing is analysis time (including IPC for remote daemons).
	PTIProcessing time.Duration
}

// RunFigure7 measures the read-request PTI breakdown for the unoptimized
// configuration (per-fragment scan, full marking, no MRU, no caches, a
// fresh daemon spawned per request — the paper's initial implementation)
// versus the optimized long-lived daemon (MRU, parse-first, both caches).
func RunFigure7(site *Site, nRequests int) ([]Figure7Bar, error) {
	reads := site.GenerateRequests(Read, nRequests)
	configs := []struct {
		name    string
		variant PTIVariant
	}{
		{"unoptimized PTI", PTIVariant{
			NoParseFirst: true, NoMRU: true,
			Cache: pti.CacheNone, SpawnPerRequest: true,
		}},
		{"optimized PTI daemon", PTIVariant{
			Cache: pti.CacheQueryAndStructure, Remote: true,
		}},
	}
	var out []Figure7Bar
	for _, cfg := range configs {
		prot, stop := NewProtection(cfg.name, site, cfg.variant, false)
		tm, err := measure(site, reads, prot, nil)
		stop()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		out = append(out, Figure7Bar{
			Config:        cfg.name,
			AppDB:         (tm.Total - tm.PTI) / time.Duration(tm.Requests),
			PTIProcessing: tm.PTI / time.Duration(tm.Requests),
		})
	}
	return out, nil
}

// FormatFigure7 renders the Figure 7 report, including the processing-time
// reduction the optimizations achieve.
func FormatFigure7(bars []Figure7Bar) string {
	var sb strings.Builder
	sb.WriteString("FIGURE 7: PTI request-time breakdown (per read request)\n")
	fmt.Fprintf(&sb, "%-24s %14s %18s\n", "Configuration", "app+db ms", "PTI processing ms")
	for _, b := range bars {
		fmt.Fprintf(&sb, "%-24s %14.4f %18.4f\n", b.Config, ms(b.AppDB), ms(b.PTIProcessing))
	}
	if len(bars) == 2 && bars[0].PTIProcessing > 0 {
		reduction := (1 - float64(bars[1].PTIProcessing)/float64(bars[0].PTIProcessing)) * 100
		fmt.Fprintf(&sb, "optimizations reduce PTI processing time by %.0f%%\n", reduction)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 8 — read/write/search request times with and without Joza.

// Figure8Row is one request kind's comparison.
type Figure8Row struct {
	Kind      RequestKind
	PlainMs   float64
	NTIMs     float64
	PTIMs     float64
	GuardedMs float64
}

// RunFigure8 compares plain vs protected request times per request kind,
// with the NTI/PTI component times broken out.
func RunFigure8(site *Site, nRequests int) ([]Figure8Row, error) {
	var out []Figure8Row
	for _, kind := range []RequestKind{Read, Write, Search} {
		kind := kind
		var regen func() []*Request
		if kind != Read {
			regen = func() []*Request { return site.GenerateRequests(kind, nRequests) }
		}
		reqs := site.GenerateRequests(kind, nRequests)
		prot, stop := NewProtection("joza", site,
			PTIVariant{Cache: pti.CacheQueryAndStructure, Remote: true}, true)
		plain, guarded, err := measurePair(site, reqs, prot, regen)
		stop()
		if err != nil {
			return nil, err
		}
		n := time.Duration(guarded.Requests)
		out = append(out, Figure8Row{
			Kind:      kind,
			PlainMs:   ms(plain.PerRequest()),
			NTIMs:     ms(guarded.NTI / n),
			PTIMs:     ms(guarded.PTI / n),
			GuardedMs: ms(guarded.PerRequest()),
		})
	}
	return out, nil
}

// FormatFigure8 renders the Figure 8 report.
func FormatFigure8(rows []Figure8Row) string {
	var sb strings.Builder
	sb.WriteString("FIGURE 8: request times with and without Joza (per request)\n")
	fmt.Fprintf(&sb, "%-8s %11s %10s %10s %13s %10s\n",
		"Kind", "Plain ms", "NTI ms", "PTI ms", "Protected ms", "Overhead")
	for _, r := range rows {
		ovh := 0.0
		if r.PlainMs > 0 {
			ovh = (r.GuardedMs - r.PlainMs) / r.PlainMs * 100
		}
		fmt.Fprintf(&sb, "%-8s %11.4f %10.4f %10.4f %13.4f %9.2f%%\n",
			r.Kind, r.PlainMs, r.NTIMs, r.PTIMs, r.GuardedMs, ovh)
	}
	return sb.String()
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
