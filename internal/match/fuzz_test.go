package match

import (
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/httpx"
)

// Lookup outcomes, in the order Stats reports their counts.
const (
	kindExact = iota
	kindPrefix
	kindMiss
)

// FuzzMatcher holds Lookup to a brute-force reference over a fuzzed site
// of at most 8 exchanges: among the exchanges with the request's scheme
// (empty counting as http), Host, method and path, the first with the
// exact target wins, else the first whose query shares the longest prefix
// with the request's. It looks up a fuzzed request and every recorded
// request, and Stats must count exactly one exact hit, prefix hit or miss
// per lookup, the one the reference names.
//
// CI runs it for a bounded time:
//
//	go test -run '^$' -fuzz FuzzMatcher -fuzztime 10s ./internal/match/
func FuzzMatcher(f *testing.F) {
	// Selector 0x30 records GET http a.com /x?..., 0x4a asks for the same
	// with scheme http and 0x48 with an empty scheme.
	f.Add([]byte{0}, []byte{0}) // empty site: a miss
	f.Add([]byte{3, 0x30, 5, 'q', '=', '1', '&', 'a', 0x30, 5, 'q', '=', '1', '&', 'b', 0x30, 1, 'q'},
		[]byte{0x48, 4, 'q', '=', '1', '&'}) // a prefix tie: the first wins
	f.Add([]byte{1, 0x30, 3, 'a', '?', 'b'}, []byte{0x4a, 3, 'a', '?', 'b'}) // an exact hit
	f.Add([]byte{8, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0}, []byte{2, 0})
	f.Fuzz(func(t *testing.T, siteBytes, reqBytes []byte) {
		site := fuzzSite(siteBytes)
		req, _ := fuzzRequest(reqBytes, []string{"", "http", "https"})
		m := New(site)
		if m.Len() != len(site.Exchanges) {
			t.Fatalf("Len = %d, want %d", m.Len(), len(site.Exchanges))
		}
		reqs := []*httpx.Request{req}
		for _, e := range site.Exchanges {
			reqs = append(reqs, e.Request)
		}
		for _, r := range reqs {
			var before, after [3]uint64
			before[0], before[1], before[2] = m.Stats()
			got, ok := m.Lookup(r)
			after[0], after[1], after[2] = m.Stats()
			want, kind := reference(site, r)
			if got != want || ok != (want != nil) {
				t.Fatalf("Lookup(%s %q Host %q scheme %q) = %v, %v; reference %v (kind %d)",
					r.Method, r.Target, r.Host(), r.Scheme, got, ok, want, kind)
			}
			for k := range after {
				step := uint64(0)
				if k == kind {
					step = 1
				}
				if after[k]-before[k] != step {
					t.Fatalf("Lookup(%s %q): Stats moved %v -> %v, want one count of kind %d",
						r.Method, r.Target, before, after, kind)
				}
			}
		}
	})
}

// fuzzSite decodes a site: a count byte (mod 9), then that many
// exchanges, each a fuzzRequest over the recorded schemes with its own
// response.
func fuzzSite(b []byte) *archive.Site {
	n, b := next(b)
	site := &archive.Site{}
	for i := 0; i < int(n%9); i++ {
		var req *httpx.Request
		req, b = fuzzRequest(b, []string{"http", "https"})
		resp := &httpx.Response{Proto: "HTTP/1.1", StatusCode: 200, Reason: "OK", Body: []byte{byte(i)}}
		site.Exchanges = append(site.Exchanges, &archive.Exchange{Scheme: req.Scheme, Request: req, Response: resp})
	}
	return site
}

// fuzzRequest decodes a request: a selector byte picks its method, scheme,
// Host (or none), path and whether the target carries a '?'; a length byte
// (mod 8) and that many free query bytes follow. It returns the rest of b.
func fuzzRequest(b []byte, schemes []string) (*httpx.Request, []byte) {
	sel, b := next(b)
	n, b := next(b)
	q := b[:min(int(n%8), len(b))]
	b = b[len(q):]
	pick := func(vals ...string) string {
		v := vals[int(sel)%len(vals)]
		sel /= byte(len(vals))
		return v
	}
	req := &httpx.Request{Method: pick("GET", "POST"), Proto: "HTTP/1.1", Scheme: pick(schemes...)}
	if host := pick("a.com", "b.com", ""); host != "" {
		req.Header.Add("Host", host)
	}
	req.Target = pick("/", "/x", "/x/y")
	if pick("", "?") == "?" {
		req.Target += "?" + string(q)
	}
	return req, b
}

// next returns b's first byte, 0 once b is spent, and the rest.
func next(b []byte) (byte, []byte) {
	if len(b) == 0 {
		return 0, b
	}
	return b[0], b[1:]
}

// reference is Lookup by brute force over the site's exchanges in order.
func reference(site *archive.Site, req *httpx.Request) (*httpx.Response, int) {
	scheme := req.Scheme
	if scheme == "" {
		scheme = "http"
	}
	path, query, _ := strings.Cut(req.Target, "?")
	candidate := func(e *archive.Exchange) bool {
		p, _, _ := strings.Cut(e.Request.Target, "?")
		return e.Scheme == scheme && e.Request.Header.Get("Host") == req.Header.Get("Host") &&
			e.Request.Method == req.Method && p == path
	}
	for _, e := range site.Exchanges {
		if candidate(e) && e.Request.Target == req.Target {
			return e.Response, kindExact
		}
	}
	var best *httpx.Response
	bestLen := -1
	for _, e := range site.Exchanges {
		if !candidate(e) {
			continue
		}
		_, q, _ := strings.Cut(e.Request.Target, "?")
		n := 0
		for n < len(q) && n < len(query) && q[n] == query[n] {
			n++
		}
		if n > bestLen {
			best, bestLen = e.Response, n
		}
	}
	if best != nil {
		return best, kindPrefix
	}
	return nil, kindMiss
}
