package webgen

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

func TestGeneratePageValid(t *testing.T) {
	for _, p := range []Profile{CNBCLike(), WikiHowLike(), NYTimesLike(), DefaultProfile("www.x.com", 5)} {
		page := GeneratePage(sim.NewRand(1), p)
		if err := page.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestGeneratePageDeterministic(t *testing.T) {
	a := GeneratePage(sim.NewRand(42), CNBCLike())
	b := GeneratePage(sim.NewRand(42), CNBCLike())
	if len(a.Resources) != len(b.Resources) {
		t.Fatal("same-seed pages differ in resource count")
	}
	for i := range a.Resources {
		if a.Resources[i] != b.Resources[i] {
			t.Fatalf("resource %d differs", i)
		}
	}
}

func TestServerCountMatchesProfile(t *testing.T) {
	for _, servers := range []int{1, 5, 20, 50} {
		page := GeneratePage(sim.NewRand(7), DefaultProfile("www.t.com", servers))
		if got := page.ServerCount(); got != servers {
			t.Errorf("servers=%d: ServerCount = %d", servers, got)
		}
	}
}

func TestSingleServerPageHasOneOrigin(t *testing.T) {
	page := GeneratePage(sim.NewRand(3), DefaultProfile("www.solo.com", 1))
	for i := range page.Resources {
		if page.Resources[i].Host != "www.solo.com" {
			t.Fatalf("single-server page uses host %q", page.Resources[i].Host)
		}
	}
}

func TestRootIsHTML(t *testing.T) {
	page := GeneratePage(sim.NewRand(5), WikiHowLike())
	if page.Root().Type != HTML || page.Root().Parent != -1 || page.Root().Path != "/" {
		t.Fatalf("root = %+v", page.Root())
	}
}

func TestResourceSizesBounded(t *testing.T) {
	page := GeneratePage(sim.NewRand(9), CNBCLike())
	for i := range page.Resources {
		s := page.Resources[i].Size
		if s < 200 || s > 4<<20 {
			t.Fatalf("resource %d size %d outside bounds", i, s)
		}
	}
}

func TestSecondLevelDependencies(t *testing.T) {
	page := GeneratePage(sim.NewRand(11), CNBCLike())
	deep := 0
	for i := range page.Resources {
		if page.Resources[i].Parent > 0 {
			deep++
			pt := page.Resources[page.Resources[i].Parent].Type
			if pt != CSS && pt != JS {
				t.Fatalf("child %d hangs off %v", i, pt)
			}
		}
	}
	if deep == 0 {
		t.Fatal("no second-level dependencies generated")
	}
}

func TestCorpusDistributionMatchesPaper(t *testing.T) {
	pages := GenerateCorpus(1, PaperCorpus())
	if len(pages) != 500 {
		t.Fatalf("corpus size = %d", len(pages))
	}
	counts := make([]int, 0, len(pages))
	single := 0
	for _, p := range pages {
		c := p.ServerCount()
		counts = append(counts, c)
		if c == 1 {
			single++
		}
	}
	sort.Ints(counts)
	median := counts[len(counts)/2]
	p95 := counts[len(counts)*95/100]
	// Paper: median 20, p95 51, 9 single-server.
	if single != 9 {
		t.Errorf("single-server sites = %d, want 9", single)
	}
	if median < 15 || median > 25 {
		t.Errorf("median servers = %d, want ~20", median)
	}
	if p95 < 40 || p95 > 65 {
		t.Errorf("p95 servers = %d, want ~51", p95)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a := GenerateCorpus(2, CorpusSpec{Sites: 20, SingleServer: 1, MedianServers: 10, P95Servers: 30})
	b := GenerateCorpus(2, CorpusSpec{Sites: 20, SingleServer: 1, MedianServers: 10, P95Servers: 30})
	for i := range a {
		if a[i].TotalBytes() != b[i].TotalBytes() || a[i].ServerCount() != b[i].ServerCount() {
			t.Fatalf("corpus site %d differs between same-seed runs", i)
		}
	}
}

func TestContentDeterministicAndSized(t *testing.T) {
	page := GeneratePage(sim.NewRand(1), WikiHowLike())
	r := &page.Resources[1]
	c1, c2 := Content(r), Content(r)
	if len(c1) != r.Size {
		t.Fatalf("content length %d, want %d", len(c1), r.Size)
	}
	if string(c1) != string(c2) {
		t.Fatal("content not deterministic")
	}
}

func TestMaterializeMatchesPage(t *testing.T) {
	page := GeneratePage(sim.NewRand(6), NYTimesLike())
	site := Materialize(page)
	if len(site.Exchanges) != len(page.Resources) {
		t.Fatalf("exchanges %d, resources %d", len(site.Exchanges), len(page.Resources))
	}
	if site.Name != page.Name {
		t.Fatalf("site name %q", site.Name)
	}
	// Origin set must match: one archive origin per distinct (addr, port).
	if got := len(site.Origins()); got < page.ServerCount() {
		t.Fatalf("site origins %d < page servers %d", got, page.ServerCount())
	}
	// Response body sizes must equal resource sizes.
	for i, e := range site.Exchanges {
		if len(e.Response.Body) != page.Resources[i].Size {
			t.Fatalf("exchange %d body %d, want %d", i, len(e.Response.Body), page.Resources[i].Size)
		}
		if e.Request.Host() != page.Resources[i].Host {
			t.Fatalf("exchange %d host %q", i, e.Request.Host())
		}
	}
}

func TestBuildRequestShape(t *testing.T) {
	r := &Resource{Scheme: "https", Host: "h.com", Port: 443, Path: "/x?y=1", Type: JS, Size: 10}
	req := BuildRequest(r)
	if req.Method != "GET" || req.Target != "/x?y=1" || req.Host() != "h.com" || req.Scheme != "https" {
		t.Fatalf("request = %+v", req)
	}
}

func TestBuildResponseFraming(t *testing.T) {
	r := &Resource{Scheme: "http", Host: "h.com", Port: 80, Path: "/i.jpg", Type: Image, Size: 5000}
	resp := BuildResponse(r)
	if resp.StatusCode != 200 || len(resp.Body) != 5000 {
		t.Fatalf("response = %d, %d bytes", resp.StatusCode, len(resp.Body))
	}
	if resp.Header.Get("Content-Length") != "5000" {
		t.Fatalf("content-length = %q", resp.Header.Get("Content-Length"))
	}
	if resp.Header.Get("Content-Type") != "image/jpeg" {
		t.Fatalf("content-type = %q", resp.Header.Get("Content-Type"))
	}
}

func TestPageHostsSorted(t *testing.T) {
	page := GeneratePage(sim.NewRand(8), DefaultProfile("www.h.com", 10))
	hosts := page.Hosts()
	if len(hosts) != len(page.Origins) {
		t.Fatalf("hosts %d, origins %d", len(hosts), len(page.Origins))
	}
	if !sort.StringsAreSorted(hosts) {
		t.Fatal("hosts not sorted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	page := GeneratePage(sim.NewRand(1), WikiHowLike())
	page.Resources[2].Parent = 99999
	if err := page.Validate(); err == nil {
		t.Fatal("bad parent accepted")
	}
	page = GeneratePage(sim.NewRand(1), WikiHowLike())
	page.Resources[1].Size = 0
	if err := page.Validate(); err == nil {
		t.Fatal("zero size accepted")
	}
	page = GeneratePage(sim.NewRand(1), WikiHowLike())
	page.Resources[1].DiscoverAt = 1.5
	if err := page.Validate(); err == nil {
		t.Fatal("bad DiscoverAt accepted")
	}
}

func TestResourceTypeStrings(t *testing.T) {
	types := []ResourceType{HTML, CSS, JS, Image, Font, XHR}
	seen := map[string]bool{}
	for _, typ := range types {
		s := typ.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("type %d string %q", typ, s)
		}
		seen[s] = true
	}
}

func TestOriginAddressesDistinctWithinPage(t *testing.T) {
	page := GeneratePage(sim.NewRand(13), DefaultProfile("www.many.com", 60))
	seen := map[string]bool{}
	for h, a := range page.Origins {
		_ = h
		seen[a.String()] = true
	}
	if len(seen) != 60 {
		t.Fatalf("distinct origin addresses = %d, want 60", len(seen))
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec := Spec{Site: "www.example.com", Servers: 3, Resources: 40, Seed: 7}
	got, err := ParseSpec(spec.String())
	if err != nil || got != spec {
		t.Fatalf("ParseSpec(String()) = %+v, %v; want %+v", got, err, spec)
	}
	p := DefaultProfile(spec.Site, spec.Servers)
	p.Resources = spec.Resources
	if want := GeneratePage(sim.NewRand(spec.Seed), p); !reflect.DeepEqual(spec.Page(), want) {
		t.Fatal("Spec.Page differs from the page its profile generates")
	}
	derived := Spec{Site: "www.example.com", Servers: 12, Seed: 1}
	if want := GeneratePage(sim.NewRand(1), DefaultProfile("www.example.com", 12)); !reflect.DeepEqual(derived.Page(), want) {
		t.Fatal("a spec with resources 0 does not keep the derived resource count")
	}
}

func TestParseSpecRejectsMalformed(t *testing.T) {
	for _, text := range []string{
		"",
		"site a\nservers 1\nresources 0\n",
		"site a\nservers 1\nresources 0\nseed 1\nseed 2\n",
		"site a\nservers 1\nresources 0\nseed 1\nextra 3\n",
		"site \nservers 1\nresources 0\nseed 1\n",
		"site a\nservers 0\nresources 0\nseed 1\n",
		"site a\nservers 1\nresources -1\nseed 1\n",
		"site a\nservers x\nresources 0\nseed 1\n",
		"site a\nservers 1\nresources 0\nseed -1\n",
		"site a b\nservers 1\nresources 0\nseed 1\n",
		"site a\nservers 1\nresources 0\nseed 1",
		"site a\nservers 1\nresources 0\nseed 1\n\n",
		"servers 1\nsite a\nresources 0\nseed 1\n",
	} {
		if s, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want an error", text, s)
		}
	}
}
