package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"joza"
	"joza/internal/daemon"
	"joza/internal/fragments"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/workload"
)

// system is the protected application side of one workload: either an
// in-process joza.Guard, or a joza.RemoteGuard over a DaemonPool to an
// in-process daemon.Server listening on loopback TCP.
type system struct {
	set      *fragments.Set
	profiles *profile.Store

	guard *joza.Guard

	remote    *joza.RemoteGuard
	pool      *daemon.Pool
	server    *daemon.Server
	serverPTI *pti.Cached
	served    chan struct{}

	// audit counts the audit records the Guard writes (cold-scan).
	audit countingWriter
	// wire counts daemon bytes on the traced run's connections.
	wire wireCounter
}

// setup builds the workload's system from seed: the site (database and
// fragment set), the Guard or daemon with its Aho–Corasick automaton,
// the call-site profiles trained on another seed, and for wp-daemon the
// listening server and the pool. The traced run dials through
// byte-counting connections.
func setup(wl string, seed int64, traced bool, workers int) (*system, error) {
	site, err := workload.NewSite(siteURLs, seed)
	if err != nil {
		return nil, fmt.Errorf("site: %w", err)
	}
	sys := &system{set: site.Fragments}
	if wl != "cold-scan" {
		if sys.profiles, err = trainProfiles(seed + trainSeedOffset); err != nil {
			return nil, err
		}
	}
	switch wl {
	case "wp-warm":
		sys.guard, err = joza.New(joza.WithFragmentSet(sys.set), joza.WithProfileStore(sys.profiles))
	case "cold-scan":
		sys.guard, err = joza.New(joza.WithFragmentSet(sys.set), joza.WithAuditLog(&sys.audit))
	case "wp-daemon":
		err = sys.startDaemon(traced, workers)
	default:
		err = fmt.Errorf("unknown workload %q", wl)
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// trainProfiles records the call-site query skeletons of a wp request
// stream drawn from its own site and seed.
func trainProfiles(seed int64) (*profile.Store, error) {
	site, err := workload.NewSite(siteURLs, seed)
	if err != nil {
		return nil, fmt.Errorf("training site: %w", err)
	}
	rec := joza.NewProfileRecorder()
	for _, ev := range wpEvents(site, trainRequests) {
		rec.Record(ev.Site, ev.Query)
	}
	return rec.Store(), nil
}

// startDaemon serves the site's fragments and profiles from a daemon on
// loopback TCP and connects a RemoteGuard to it through a pool of one
// connection per worker. One stats round trip proves the daemon answers.
func (s *system) startDaemon(traced bool, workers int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("daemon listen: %w", err)
	}
	s.serverPTI = pti.NewCached(pti.New(s.set), joza.CacheQueryAndStructure, cacheCapacity)
	s.server = daemon.NewServer(s.serverPTI, daemon.WithProfiles(s.profiles))
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.server.Serve(ln) // returns once close stops the server
	}()
	addr := ln.Addr().String()
	cfg := joza.DaemonPoolConfig{Size: workers}
	if traced {
		s.pool = daemon.NewPool(s.wire.dialer(addr), cfg)
	} else {
		s.pool = joza.DialDaemonPool(addr, cfg)
	}
	s.remote = joza.NewRemoteGuard(s.pool)
	if _, err := s.pool.Stats(); err != nil {
		return fmt.Errorf("daemon probe: %w", err)
	}
	return nil
}

// check issues one event through the workload's front door.
func (s *system) check(ctx context.Context, ev *Event) (joza.Verdict, error) {
	if s.remote != nil {
		return s.remote.CheckContextAt(ctx, ev.Site, ev.Query, ev.Inputs)
	}
	return s.guard.CheckContextAt(ctx, ev.Site, ev.Query, ev.Inputs)
}

// cacheStats returns the PTI cache counters of the serving analyzer: the
// Guard's, or the daemon's for wp-daemon.
func (s *system) cacheStats() pti.CacheStats {
	if s.server != nil {
		st := s.server.Stats()
		return pti.CacheStats{QueryHits: st.CacheQueryHits, StructureHits: st.CacheStructureHits, Misses: st.CacheMisses}
	}
	return s.guard.PTICacheStats()
}

// close releases the system and waits for the daemon's goroutines.
func (s *system) close() {
	if s.guard != nil {
		_ = s.guard.Close()
	}
	if s.remote != nil {
		_ = s.remote.Close()
	}
	if s.server != nil {
		_ = s.server.Close()
		<-s.served
	}
}

// refVerdict is the part of a verdict the oracle compares: the hybrid
// decision and each analyzer's vote.
type refVerdict struct {
	Attack, NTI, PTI, Profile bool
}

func votes(v joza.Verdict) refVerdict {
	return refVerdict{Attack: v.Attack, NTI: v.NTI.Attack, PTI: v.PTI.Attack, Profile: v.Profile.Attack}
}

// referenceVerdicts computes every event's verdict with a cache-less
// Guard over the system's fragments and profiles, on the given number of
// goroutines.
func referenceVerdicts(sys *system, events []Event, workers int) ([]refVerdict, error) {
	opts := []joza.Option{joza.WithFragmentSet(sys.set), joza.WithCacheMode(joza.CacheNone, 0)}
	if sys.profiles != nil {
		opts = append(opts, joza.WithProfileStore(sys.profiles))
	}
	ref, err := joza.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("reference guard: %w", err)
	}
	refs := make([]refVerdict, len(events))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(events); i += workers {
				ev := &events[i]
				// A check under context.Background cannot fail.
				v, _ := ref.CheckContextAt(context.Background(), ev.Site, ev.Query, ev.Inputs)
				refs[i] = votes(v)
			}
		}(w)
	}
	wg.Wait()
	return refs, nil
}

// countingWriter discards what it is given and counts the writes; the
// audit logger issues one write per record.
type countingWriter struct{ writes atomic.Int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return len(p), nil
}

// wireCounter totals the bytes written to and read from daemon
// connections dialed through it.
type wireCounter struct{ sent, received atomic.Int64 }

func (w *wireCounter) dialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, w: w}, nil
	}
}

type countingConn struct {
	net.Conn
	w *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.received.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.sent.Add(int64(n))
	return n, err
}
