// Package inet models the live Internet — the thing RecordShell records
// from and the "Actual Web" arm of Figure 3 measures against.
//
// The paper's Figure 3 compares page loads on the real web against
// ReplayShell. The real web differs from a sterile replay in ways this
// model reproduces:
//
//   - per-request server think time (origin processing, backend queries),
//     drawn log-normally per request;
//   - a constant per-origin path offset (different origins live at
//     different network distances), drawn once per origin;
//   - both driven by a seeded RNG, so a "live" measurement session is
//     reproducible as a whole while individual loads still vary.
//
// Content is generated from the same webgen page specification the browser
// loads, so a record→replay round trip through RecordShell captures
// exactly the bytes a replayed load will re-serve.
package inet

import (
	"errors"
	"fmt"

	"repro/internal/dnssim"
	"repro/internal/httpx"
	"repro/internal/match"
	"repro/internal/nsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// Config parameterizes the live web.
type Config struct {
	// Page defines the origins and content to serve.
	Page *webgen.Page
	// Seed drives think times and origin offsets.
	Seed uint64
	// ThinkMedian is the median per-request server think time.
	ThinkMedian sim.Time
	// ThinkSigma is the log-normal sigma of think times (0 disables
	// variation).
	ThinkSigma float64
	// OriginSpread is the maximum constant extra one-way delay assigned to
	// an origin (uniform in [0, OriginSpread]).
	OriginSpread sim.Time
	// DNSLatency is the cost of an uncached lookup against the live
	// resolver.
	DNSLatency sim.Time
}

// DefaultConfig returns live-web parameters that give realistic
// load-to-load variance: ~20 ms median think time with moderate spread.
func DefaultConfig(page *webgen.Page, seed uint64) Config {
	return Config{
		Page:         page,
		Seed:         seed,
		ThinkMedian:  8 * sim.Millisecond,
		ThinkSigma:   0.5,
		OriginSpread: 15 * sim.Millisecond,
		DNSLatency:   8 * sim.Millisecond,
	}
}

// Web is a running live-web namespace.
type Web struct {
	NS       *nsim.Namespace
	Stack    *tcpsim.Stack
	Resolver *dnssim.Resolver
	matcher  *match.Matcher
	rng      *sim.Rand
	cfg      Config
	// originOffset is the constant extra delay per origin address.
	originOffset map[nsim.Addr]sim.Time
	// RequestsServed counts answered requests.
	RequestsServed uint64
}

// New builds the live web for a page inside net.
func New(network *nsim.Network, cfg Config) (*Web, error) {
	if cfg.Page == nil {
		return nil, errors.New("inet: nil page")
	}
	ns := network.NewNamespace("inet-" + cfg.Page.Name)
	site := webgen.Materialize(cfg.Page)
	w := &Web{
		NS:           ns,
		Stack:        tcpsim.NewStack(ns),
		Resolver:     dnssim.NewResolver(cfg.DNSLatency),
		matcher:      match.New(site),
		rng:          sim.NewRand(cfg.Seed),
		cfg:          cfg,
		originOffset: map[nsim.Addr]sim.Time{},
	}
	for _, origin := range site.Origins() {
		ns.AddAddress(origin.Addr)
		if _, ok := w.originOffset[origin.Addr]; !ok && cfg.OriginSpread > 0 {
			w.originOffset[origin.Addr] = w.rng.Duration(cfg.OriginSpread)
		}
		if err := w.Stack.Listen(origin, w.serve); err != nil {
			return nil, fmt.Errorf("inet: %w", err)
		}
	}
	for host, addr := range site.Hosts() {
		w.Resolver.Add(host, addr)
	}
	return w, nil
}

// serve answers requests with generated content after think time.
func (w *Web) serve(conn *tcpsim.Conn) {
	parser := &httpx.RequestParser{}
	scheme := "http"
	if conn.LocalAddr().Port == 443 {
		scheme = "https"
	}
	addr := conn.LocalAddr().Addr
	loop := w.Stack.Loop()
	conn.OnData(func(data []byte) {
		reqs, err := parser.Feed(data)
		if err != nil {
			conn.Abort()
			return
		}
		for _, req := range reqs {
			req.Scheme = scheme
			resp := w.matcher.LookupOr404(req)
			w.RequestsServed++
			delay := w.originOffset[addr]
			if w.cfg.ThinkMedian > 0 {
				think := w.cfg.ThinkMedian
				if w.cfg.ThinkSigma > 0 {
					think = sim.Time(float64(think) * w.rng.LogNormal(0, w.cfg.ThinkSigma))
				}
				delay += think
			}
			raw := resp.Marshal()
			loop.Schedule(delay, func(sim.Time) {
				if conn.State() == tcpsim.StateEstablished {
					conn.Write(raw)
				}
			})
		}
	})
}
