package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/inet"
	"repro/internal/shells"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// replaySites is how many recorded sites the replay workload loads; with
// five arms a pass is 160 distinct loads, enough for op_ms_tail to be p90.
const replaySites = 32

// replay is the paper's workload: record once, then replay every recorded
// site under Figure 2's and Table 2's shell arms.
type replay struct {
	pages []*webgen.Page
	sites []*archive.Site
	arms  []replayArm
	sc    *experiments.Scratch
	// traced holds each arm's shells wrapped for the traced run.
	traced   []tracedStack
	loadSpan int32
}

type replayArm struct {
	name   string
	shells []shells.Shell
	single bool
}

func buildReplay(seed uint64, tr *tracer) (workload, error) {
	var pages []*webgen.Page
	tr.timed("webgen.GenerateCorpus", func() { pages = corpusSample(seed, replaySites) })
	w := &replay{sc: experiments.NewScratch()}
	for _, page := range pages {
		site, err := record(seed, page, tr)
		if err != nil {
			return nil, err
		}
		if site, err = roundTrip(site, tr); err != nil {
			return nil, fmt.Errorf("archive round trip of %s: %w", page.Name, err)
		}
		w.pages = append(w.pages, page)
		w.sites = append(w.sites, site)
	}

	var t1000, t14 *trace.Trace
	var err error
	tr.timed("trace.synth", func() {
		if t1000, err = trace.Constant(1_000_000_000, 1000); err != nil {
			return
		}
		t14, err = trace.Constant(14_000_000, 2000)
	})
	if err != nil {
		return nil, err
	}
	// Figure 2 models each shell's forwarding cost as a small delay; the
	// arms reuse its reference values.
	fig2 := experiments.DefaultFig2()
	w.arms = []replayArm{
		{name: "replay"},
		{name: "delay0", shells: []shells.Shell{shells.NewDelayShell(fig2.DelayForwarding)}},
		{name: "link1000", shells: []shells.Shell{shells.NewDelayShell(fig2.LinkForwarding), shells.NewLinkShell(t1000, t1000)}},
		{name: "delay30+link14", shells: []shells.Shell{shells.NewDelayShell(30 * sim.Millisecond), shells.NewLinkShell(t14, t14)}},
		{name: "delay30+link14-single", shells: []shells.Shell{shells.NewDelayShell(30 * sim.Millisecond), shells.NewLinkShell(t14, t14)}, single: true},
	}
	return w, nil
}

// corpusSample draws n pages from a seeded corpus with the paper's
// 500-site servers-per-site distribution: one page from each of n
// equal-sized strata of the corpus ordered by page bytes. Every seed's
// sample then spans light to heavy pages in the same proportions, so runs
// on different seeds measure comparable work. Pages keep corpus order.
func corpusSample(seed uint64, n int) []*webgen.Page {
	pages := webgen.GenerateCorpus(sim.DeriveSeed(seed, "corpus"), webgen.PaperCorpus())
	byBytes := make([]int, len(pages))
	for i := range byBytes {
		byBytes[i] = i
	}
	sort.SliceStable(byBytes, func(a, b int) bool {
		return pages[byBytes[a]].TotalBytes() < pages[byBytes[b]].TotalBytes()
	})
	rng := sim.NewRand(sim.DeriveSeed(seed, "strata"))
	pick := make([]int, 0, n)
	for s := 0; s < n; s++ {
		lo, hi := s*len(pages)/n, (s+1)*len(pages)/n
		pick = append(pick, byBytes[lo+rng.Intn(hi-lo)])
	}
	sort.Ints(pick)
	out := make([]*webgen.Page, n)
	for i, p := range pick {
		out[i] = pages[p]
	}
	return out
}

// record loads page once through RecordShell from the live-web model and
// returns the recorded site.
func record(seed uint64, page *webgen.Page, tr *tracer) (*archive.Site, error) {
	session := core.NewSession()
	web := inet.DefaultConfig(page, sim.DeriveSeed(seed, "inet", page.Name))
	var rs *core.RecordStack
	var err error
	tr.timed("core.NewRecord", func() { rs, err = session.NewRecord(core.RecordConfig{Page: page, Web: &web}) })
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", page.Name, err)
	}
	var site *archive.Site
	var res browser.Result
	tr.timed("core.Record", func() { site, res = rs.Record() })
	if err := checkLoad(res, page); err != nil {
		return nil, fmt.Errorf("record %s: %w", page.Name, err)
	}
	tr.add("recordshell.bytes", float64(site.BytesTotal()))
	return site, nil
}

// roundTrip writes every exchange of site in the archive format and reads
// it back, returning the decoded copy.
func roundTrip(site *archive.Site, tr *tracer) (*archive.Site, error) {
	out := &archive.Site{Name: site.Name}
	var buf bytes.Buffer
	for _, e := range site.Exchanges {
		buf.Reset()
		var err error
		tr.timed("archive.WriteExchange", func() { err = archive.WriteExchange(&buf, e) })
		if err != nil {
			return nil, err
		}
		var got *archive.Exchange
		tr.timed("archive.ReadExchange", func() { got, err = archive.ReadExchange(&buf) })
		if err != nil {
			return nil, err
		}
		out.Exchanges = append(out.Exchanges, got)
	}
	if out.BytesTotal() != site.BytesTotal() {
		return nil, fmt.Errorf("%d bytes decoded, %d recorded", out.BytesTotal(), site.BytesTotal())
	}
	return out, nil
}

// checkLoad is the output check of a load on a path that loses nothing for
// good: every resource fetched, none failed or answered with an error, and
// exactly the page's bytes delivered.
func checkLoad(r browser.Result, page *webgen.Page) error {
	if r.Errors != 0 || r.Failed != 0 || r.Resources != len(page.Resources) || r.Bytes != page.TotalBytes() {
		return fmt.Errorf("load of %s: %d/%d resources, %d errors, %d failed, %d/%d bytes",
			page.Name, r.Resources, len(page.Resources), r.Errors, r.Failed, r.Bytes, page.TotalBytes())
	}
	return nil
}

func (w *replay) passLen() int   { return len(w.sites) * len(w.arms) }
func (w *replay) minPasses() int { return 1 }

func (w *replay) runPass(ph *phase) {
	var l *lane
	if ph.tr != nil {
		if w.traced == nil {
			w.loadSpan = ph.tr.name("experiments.Load")
			for _, a := range w.arms {
				w.traced = append(w.traced, wrapStack(a.shells, ph.tr))
			}
		}
		l = ph.tr.lanes[0]
	}
	for i := 0; i < w.passLen(); i++ {
		si, ai := i/len(w.arms), i%len(w.arms)
		arm := w.arms[ai]
		spec := experiments.LoadSpec{
			Page: w.pages[si], Site: w.sites[si], SingleServer: arm.single, Shells: arm.shells,
			DNSLatency: sim.Millisecond, RequestCPU: experiments.DefaultRequestCPU, Scratch: w.sc,
		}
		if l != nil {
			spec.Shells = w.traced[ai].shells
			l.op = int32(i)
			l.begin(w.loadSpan)
		}
		t0 := time.Now()
		r := experiments.Load(spec)
		wall := time.Since(t0)
		if l != nil {
			_, self := l.end()
			ph.layers.loadSelf = append(ph.layers.loadSelf, float64(self)/1e6)
			ph.layers.addBoxes(w.traced[ai].wrapped, nil)
		}
		d := newDigest()
		digestLoad(&d, r)
		ph.done(i, wall, d.sum(), inArm(arm.name, checkLoad(r, w.pages[si])))
		ph.layers.addLoad(r)
	}
}
