// Package core is the toolkit's record path: it ties the shells, the
// man-in-the-middle proxy (RecordShell), the simulated live web and the
// browser model together the way `mm-webrecord` composes on a real system.
//
// A Session owns one virtual clock and one isolated network. NewRecord
// builds browser → shells → proxy → live web inside it, and Record loads
// the page once through the proxy and returns the recorded archive.
// Replaying and measuring a page — the mm-replay / mm-delay / mm-link
// workflow — is experiments.Load.
//
// Everything is deterministic: the same Session configuration yields
// bit-identical recordings.
package core

import (
	"errors"
	"fmt"

	"repro/internal/archive"
	"repro/internal/browser"
	"repro/internal/inet"
	"repro/internal/nsim"
	"repro/internal/recordshell"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// Session is an isolated recording environment: one event loop and one
// network.
type Session struct {
	loop *sim.Loop
	net  *nsim.Network
	// appSeq allocates distinct app addresses for the session's stacks.
	appSeq uint32
}

// NewSession creates an empty recording environment.
func NewSession() *Session {
	loop := sim.NewLoop()
	return &Session{loop: loop, net: nsim.NewNetwork(loop)}
}

// nextAppAddr hands out 100.64.x.y addresses for app namespaces.
func (s *Session) nextAppAddr() nsim.Addr {
	s.appSeq++
	return nsim.ParseAddr("100.64.0.0") + nsim.Addr(s.appSeq)
}

// RecordConfig describes a record stack: browser → shells → MITM proxy →
// simulated live web.
type RecordConfig struct {
	// Page defines the content the live web serves and the browser loads.
	Page *webgen.Page
	// Shells nest between the browser and the proxy.
	Shells []shells.Shell
	// Web configures the live-web model; nil uses inet.DefaultConfig.
	Web *inet.Config
}

// RecordStack is an instantiated record environment.
type RecordStack struct {
	session *Session
	page    *webgen.Page
	Web     *inet.Web
	Proxy   *recordshell.Shell
	Stack   *shells.Stack
	brow    *browser.Browser
}

// NewRecord builds a record stack.
func (s *Session) NewRecord(cfg RecordConfig) (*RecordStack, error) {
	if cfg.Page == nil {
		return nil, errors.New("core: RecordConfig.Page is required")
	}
	webCfg := inet.DefaultConfig(cfg.Page, 1)
	if cfg.Web != nil {
		webCfg = *cfg.Web
		webCfg.Page = cfg.Page
	}
	web, err := inet.New(s.net, webCfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	proxyAddr := nsim.ParseAddr("100.127.0.0") + nsim.Addr(s.appSeq+1000)
	proxy := recordshell.New(s.net, web.NS, proxyAddr, cfg.Page.Name)
	appAddr := s.nextAppAddr()
	st := shells.Build(s.net, proxy.NS, appAddr, cfg.Shells...)
	b := browser.New(tcpsim.NewStack(st.App), web.Resolver, appAddr, browser.DefaultOptions())
	return &RecordStack{session: s, page: cfg.Page, Web: web, Proxy: proxy, Stack: st, brow: b}, nil
}

// Record loads the page once through the proxy, runs the clock, and
// returns the recorded site.
func (r *RecordStack) Record() (*archive.Site, browser.Result) {
	var result browser.Result
	r.brow.Load(r.page, func(res browser.Result) { result = res })
	r.session.loop.Run()
	return r.Proxy.Site, result
}
