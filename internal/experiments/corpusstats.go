package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/webgen"
)

// ServersResult summarizes the servers-per-site distribution of the corpus
// (paper §4: median 20, 95th percentile 51, 9 single-server sites of 500).
type ServersResult struct {
	Counts       *stats.Sample
	SingleServer int
	Sites        int
}

// ServersPerSite computes the distribution over a freshly generated
// corpus. It counts each page's origins and runs no simulation.
func ServersPerSite(seed uint64, sites int) ServersResult {
	pages := corpusPages(seed, sites)
	counts := stats.NewAccumulator()
	single := 0
	for _, p := range pages {
		n := p.ServerCount()
		counts.Add(float64(n))
		if n == 1 {
			single++
		}
	}
	return ServersResult{Counts: counts.Sample(), SingleServer: single, Sites: len(pages)}
}

// String renders the distribution summary.
func (r ServersResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Servers per website, %d-site corpus (paper §4)\n", r.Sites)
	fmt.Fprintf(&b, "  median        %4.0f   (paper: 20)\n", r.Counts.Median())
	fmt.Fprintf(&b, "  95th pct      %4.0f   (paper: 51)\n", r.Counts.Percentile(95))
	fmt.Fprintf(&b, "  single-server %4d   (paper: 9)\n", r.SingleServer)
	fmt.Fprintf(&b, "  max           %4.0f\n", r.Counts.Max())
	return b.String()
}

// ProfilesResult reports the generated weight of the named site profiles,
// for documentation.
type ProfilesResult struct {
	Lines []string
}

// Profiles summarizes the three named profiles.
func Profiles() ProfilesResult {
	var r ProfilesResult
	for _, p := range []webgen.Profile{webgen.CNBCLike(), webgen.WikiHowLike(), webgen.NYTimesLike()} {
		page := webgen.GeneratePage(sim.NewRand(7), p)
		r.Lines = append(r.Lines, fmt.Sprintf("%-18s %3d resources, %2d origins, %5.1f KB",
			p.Name, len(page.Resources), page.ServerCount(), float64(page.TotalBytes())/1024))
	}
	return r
}
