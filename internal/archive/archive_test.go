package archive

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/httpx"
	"repro/internal/nsim"
)

func mkExchange(host, target string, addr string, port uint16, body string) *Exchange {
	req := &httpx.Request{Method: "GET", Target: target, Proto: "HTTP/1.1", Scheme: "http"}
	req.Header.Add("Host", host)
	resp := &httpx.Response{Proto: "HTTP/1.1", StatusCode: 200, Reason: "OK"}
	resp.Header.Add("Content-Length", strconv.Itoa(len(body)))
	resp.Body = []byte(body)
	return &Exchange{
		Server:   nsim.AddrPort{Addr: nsim.ParseAddr(addr), Port: port},
		Scheme:   "http",
		Request:  req,
		Response: resp,
	}
}

func TestExchangeRoundTrip(t *testing.T) {
	e := mkExchange("example.com", "/page?a=1", "93.184.216.34", 80, "hello body")
	var buf bytes.Buffer
	if err := WriteExchange(&buf, e); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExchange(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Server != e.Server || got.Scheme != "http" {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if got.Request.Target != "/page?a=1" || got.Request.Host() != "example.com" {
		t.Fatalf("request mismatch: %+v", got.Request)
	}
	if string(got.Response.Body) != "hello body" {
		t.Fatalf("response body = %q", got.Response.Body)
	}
}

func TestReadExchangeErrors(t *testing.T) {
	cases := []string{
		"",
		"WRONG MAGIC\n\n",
		"MAHIMAHI-GO 1\nserver: nonsense\nrequest-length: 1\nresponse-length: 1\n\nxy",
		"MAHIMAHI-GO 1\nserver: 1.2.3.4:80\nrequest-length: -1\nresponse-length: 1\n\n",
		"MAHIMAHI-GO 1\nserver: 1.2.3.4:80\nrequest-length: 99\nresponse-length: 99\n\nshort",
		"MAHIMAHI-GO 1\nbadline\n\n",
	}
	for i, raw := range cases {
		if _, err := ReadExchange(strings.NewReader(raw)); err == nil {
			t.Errorf("case %d: accepted malformed archive", i)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

// Crafted files whose length fields declare far more than they hold are
// refused with ErrBadFormat after allocating only about what they hold:
// neither the framing's response-length nor the stored response's
// Content-Length is reserved up front.
func TestReadExchangeDeclaredLengthsNotReserved(t *testing.T) {
	const req = "GET / HTTP/1.1\r\n\r\n"
	const resp = "HTTP/1.1 200 OK\r\nContent-Length: 268435456\r\n\r\nx"
	for _, tc := range []struct{ name, raw string }{
		{"framing declares 2e9 bytes", "MAHIMAHI-GO 1\nserver: 1.2.3.4:80\nrequest-length: " +
			strconv.Itoa(len(req)) + "\nresponse-length: 2000000000\n\n" + req},
		{"stored response declares 256 MB", "MAHIMAHI-GO 1\nserver: 1.2.3.4:80\nrequest-length: " +
			strconv.Itoa(len(req)) + "\nresponse-length: " + strconv.Itoa(len(resp)) + "\n\n" + req + resp},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadExchange(strings.NewReader(tc.raw))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: %d-byte file allocated %d bytes, want < 1 MiB", tc.name, len(tc.raw), n)
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", tc.name, err)
		}
	}
}

func TestSiteOriginsSortedDistinct(t *testing.T) {
	s := &Site{Name: "test", Exchanges: []*Exchange{
		mkExchange("b.com", "/", "5.5.5.5", 80, "x"),
		mkExchange("a.com", "/", "1.1.1.1", 443, "x"),
		mkExchange("a.com", "/2", "1.1.1.1", 443, "x"), // duplicate origin
		mkExchange("c.com", "/", "1.1.1.1", 80, "x"),   // same addr, new port
	}}
	origins := s.Origins()
	if len(origins) != 3 {
		t.Fatalf("Origins = %v, want 3 distinct", origins)
	}
	for i := 1; i < len(origins); i++ {
		prev, cur := origins[i-1], origins[i]
		if prev.Addr > cur.Addr || (prev.Addr == cur.Addr && prev.Port >= cur.Port) {
			t.Fatalf("Origins not sorted: %v", origins)
		}
	}
}

func TestSiteHostsFirstWins(t *testing.T) {
	s := &Site{Exchanges: []*Exchange{
		mkExchange("cdn.com", "/", "1.1.1.1", 80, "x"),
		mkExchange("cdn.com", "/2", "2.2.2.2", 80, "x"), // same host, new addr: ignored
	}}
	hosts := s.Hosts()
	if hosts["cdn.com"] != nsim.ParseAddr("1.1.1.1") {
		t.Fatalf("Hosts = %v", hosts)
	}
}

func TestBytesTotal(t *testing.T) {
	s := &Site{Exchanges: []*Exchange{
		mkExchange("a", "/", "1.1.1.1", 80, "12345"),
		mkExchange("a", "/2", "1.1.1.1", 80, "123"),
	}}
	if s.BytesTotal() != 8 {
		t.Fatalf("BytesTotal = %d, want 8", s.BytesTotal())
	}
}

func TestSiteSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "www.example.com")
	s := &Site{Name: "www.example.com", Exchanges: []*Exchange{
		mkExchange("www.example.com", "/", "93.184.216.34", 80, "<html>index</html>"),
		mkExchange("cdn.example.com", "/app.js", "151.101.1.1", 443, "console.log(1)"),
		mkExchange("www.example.com", "/style.css", "93.184.216.34", 80, "body{}"),
	}}
	if err := SaveSite(dir, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSite(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "www.example.com" {
		t.Fatalf("Name = %q", got.Name)
	}
	if len(got.Exchanges) != 3 {
		t.Fatalf("loaded %d exchanges, want 3", len(got.Exchanges))
	}
	// Order preserved.
	if got.Exchanges[1].Request.Target != "/app.js" {
		t.Fatalf("order not preserved: %+v", got.Exchanges[1].Request)
	}
	if got.Exchanges[1].Server.Port != 443 {
		t.Fatalf("port lost: %+v", got.Exchanges[1].Server)
	}
}

func TestLoadSiteMissingDir(t *testing.T) {
	if _, err := LoadSite(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestExchangeWithChunkedRecordedResponse(t *testing.T) {
	// A response recorded from a chunked origin is stored re-framed; verify
	// the round trip preserves the body.
	var sp httpx.ResponseParser
	sp.ExpectMethod("GET")
	resps, err := sp.Feed([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nchunk\r\n0\r\n\r\n"))
	if err != nil || len(resps) != 1 {
		t.Fatal(err)
	}
	req := &httpx.Request{Method: "GET", Target: "/", Proto: "HTTP/1.1", Scheme: "http"}
	req.Header.Add("Host", "h")
	e := &Exchange{
		Server: nsim.AddrPort{Addr: nsim.ParseAddr("1.1.1.1"), Port: 80}, Scheme: "http",
		Request: req, Response: resps[0],
	}
	var buf bytes.Buffer
	if err := WriteExchange(&buf, e); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExchange(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Response.Body) != "chunk" {
		t.Fatalf("body = %q", got.Response.Body)
	}
}
