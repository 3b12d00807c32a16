// Package match implements ReplayShell's request-matching algorithm.
//
// In Mahimahi, "the Apache configuration redirects incoming requests to a
// CGI script which compares each request to the set of all recorded
// request-response pairs to locate a matching response" (paper §2). The
// algorithm, reproduced here from the mahimahi source's replayserver:
//
//  1. Only candidates with the same scheme, Host header, and path
//     (request-target up to '?') are considered.
//  2. An exact match on the full request-target wins immediately.
//  3. Otherwise the candidate whose query string shares the longest common
//     prefix with the incoming request's query wins — query strings often
//     carry cache-busting random tokens, and the longest-prefix rule pairs
//     each request with its closest recorded variant.
//
// Misses return a synthesized 404 so replayed page loads degrade the same
// way Mahimahi's do.
package match

import (
	"fmt"

	"repro/internal/archive"
	"repro/internal/httpx"
)

// key indexes candidates by the exact-match fields.
type key struct {
	scheme, host, path string
}

// candidate is one recorded exchange with its request-line fields parsed
// out at index-build time, so Lookup never re-parses a stored request.
type candidate struct {
	ex     *archive.Exchange
	method string
	target string
	query  string
}

// Matcher locates recorded responses for incoming requests.
type Matcher struct {
	byPath map[key][]candidate
	total  int
	// stats
	exact, prefix, miss uint64
}

// New builds a matcher over a site's exchanges, precomputing each
// candidate's parsed query so lookups are parse-free.
func New(site *archive.Site) *Matcher {
	m := &Matcher{byPath: make(map[key][]candidate)}
	for _, e := range site.Exchanges {
		path, query := httpx.SplitTarget(e.Request.Target)
		k := key{scheme: e.Scheme, host: e.Request.Host(), path: path}
		m.byPath[k] = append(m.byPath[k], candidate{
			ex:     e,
			method: e.Request.Method,
			target: e.Request.Target,
			query:  query,
		})
		m.total++
	}
	return m
}

// Len reports the number of indexed exchanges.
func (m *Matcher) Len() int { return m.total }

// Stats reports (exact hits, longest-prefix hits, misses) since creation.
func (m *Matcher) Stats() (exact, prefix, miss uint64) {
	return m.exact, m.prefix, m.miss
}

// Lookup finds the best recorded response for the request, or (nil, false)
// on a miss.
func (m *Matcher) Lookup(req *httpx.Request) (*httpx.Response, bool) {
	scheme := req.Scheme
	if scheme == "" {
		scheme = "http"
	}
	path, q := httpx.SplitTarget(req.Target)
	candidates := m.byPath[key{scheme: scheme, host: req.Host(), path: path}]
	var best *archive.Exchange
	bestLen := -1
	for i := range candidates {
		c := &candidates[i]
		if c.method != req.Method {
			continue
		}
		if c.target == req.Target {
			m.exact++
			return c.ex.Response, true
		}
		if l := commonPrefixLen(c.query, q); l > bestLen {
			bestLen = l
			best = c.ex
		}
	}
	if best != nil {
		m.prefix++
		return best.Response, true
	}
	m.miss++
	return nil, false
}

// LookupOr404 returns the matched response, or a synthesized 404 on a miss.
func (m *Matcher) LookupOr404(req *httpx.Request) *httpx.Response {
	if resp, ok := m.Lookup(req); ok {
		return resp
	}
	return NotFound(req)
}

// NotFound synthesizes the miss response ReplayShell serves.
func NotFound(req *httpx.Request) *httpx.Response {
	body := fmt.Sprintf("replayshell: no recorded response for %s %s%s\n",
		req.Method, req.Host(), req.Target)
	resp := &httpx.Response{Proto: "HTTP/1.1", StatusCode: 404, Reason: httpx.StatusText(404)}
	resp.Header.Add("Content-Type", "text/plain")
	resp.Header.Add("Content-Length", fmt.Sprint(len(body)))
	resp.Body = []byte(body)
	return resp
}

// commonPrefixLen is the length of the longest common prefix of a and b.
func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
