package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func feedAll(t *testing.T, p *RequestParser, data []byte) []*Request {
	t.Helper()
	reqs, err := p.Feed(data)
	if err != nil {
		t.Fatalf("Feed: %v", err)
	}
	return reqs
}

// parseResponses feeds the pieces, in order, to a copying and a metering
// ResponseParser that expect methods, checks that the two agree — the same
// error, status lines, headers and BodyLen, with BodyLen == len(Body) when
// copying and a nil Body when metering — and returns the copying parser's
// responses and error. Feeding stops at the first error.
func parseResponses(t *testing.T, methods []string, pieces ...[]byte) ([]*Response, error) {
	t.Helper()
	var resps [2][]*Response
	var errs [2]error
	for i, meter := range []bool{false, true} {
		p := ResponseParser{Meter: meter}
		for _, m := range methods {
			p.ExpectMethod(m)
		}
		for _, piece := range pieces {
			got, err := p.Feed(piece)
			resps[i] = append(resps[i], got...)
			if errs[i] = err; err != nil {
				break
			}
		}
	}
	copied, metered := resps[0], resps[1]
	if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
		t.Fatalf("copying parser error %v, metering parser error %v", errs[0], errs[1])
	}
	if len(copied) != len(metered) {
		t.Fatalf("copying parser returned %d responses, metering parser %d", len(copied), len(metered))
	}
	for i, c := range copied {
		m := metered[i]
		if c.BodyLen != len(c.Body) {
			t.Errorf("response %d: copying BodyLen %d, len(Body) %d", i, c.BodyLen, len(c.Body))
		}
		if m.Body != nil {
			t.Errorf("response %d: metering parser stored a %d-byte body", i, len(m.Body))
		}
		if m.BodyLen != c.BodyLen || m.StatusCode != c.StatusCode || m.Reason != c.Reason ||
			m.Proto != c.Proto || !slices.Equal(m.Header.Fields(), c.Header.Fields()) {
			t.Errorf("response %d: metering parse %q %d %q %v BodyLen %d, copying parse %q %d %q %v BodyLen %d",
				i, m.Proto, m.StatusCode, m.Reason, m.Header.Fields(), m.BodyLen,
				c.Proto, c.StatusCode, c.Reason, c.Header.Fields(), c.BodyLen)
		}
	}
	return copied, errs[0]
}

func TestParseSimpleGet(t *testing.T) {
	var p RequestParser
	raw := "GET /index.html?x=1 HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n"
	reqs := feedAll(t, &p, []byte(raw))
	if len(reqs) != 1 {
		t.Fatalf("got %d requests, want 1", len(reqs))
	}
	r := reqs[0]
	if r.Method != "GET" || r.Target != "/index.html?x=1" || r.Proto != "HTTP/1.1" {
		t.Fatalf("request line parsed as %q %q %q", r.Method, r.Target, r.Proto)
	}
	if r.Host() != "example.com" {
		t.Fatalf("Host = %q", r.Host())
	}
	if path, query := SplitTarget(r.Target); path != "/index.html" || query != "x=1" {
		t.Fatalf("SplitTarget = %q/%q", path, query)
	}
}

func TestParseByteAtATime(t *testing.T) {
	var p RequestParser
	raw := "POST /submit HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello"
	var got []*Request
	for i := 0; i < len(raw); i++ {
		reqs, err := p.Feed([]byte{raw[i]})
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		got = append(got, reqs...)
	}
	if len(got) != 1 {
		t.Fatalf("got %d requests, want 1", len(got))
	}
	if string(got[0].Body) != "hello" {
		t.Fatalf("body = %q", got[0].Body)
	}
}

func TestParsePipelinedRequests(t *testing.T) {
	var p RequestParser
	raw := "GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n"
	reqs := feedAll(t, &p, []byte(raw))
	if len(reqs) != 2 || reqs[0].Target != "/a" || reqs[1].Target != "/b" {
		t.Fatalf("pipelined parse failed: %d requests", len(reqs))
	}
}

func TestParseChunkedRequestBody(t *testing.T) {
	var p RequestParser
	raw := "POST /u HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
	reqs := feedAll(t, &p, []byte(raw))
	if len(reqs) != 1 {
		t.Fatalf("got %d requests, want 1", len(reqs))
	}
	if string(reqs[0].Body) != "hello world" {
		t.Fatalf("chunked body = %q", reqs[0].Body)
	}
}

// TestChunkedRequestIsReframed: a parsed chunked request, like a parsed
// chunked response, carries its de-chunked body under Content-Length and
// no Transfer-Encoding, so its wire form parses back to the same request.
func TestChunkedRequestIsReframed(t *testing.T) {
	var p RequestParser
	raw := "POST /u HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: v\r\n\r\n"
	reqs := feedAll(t, &p, []byte(raw))
	if len(reqs) != 1 {
		t.Fatalf("got %d requests, want 1", len(reqs))
	}
	r := reqs[0]
	if r.Header.Has("Transfer-Encoding") || r.Header.Get("Content-Length") != "11" {
		t.Fatalf("chunked request header %v, want Content-Length 11 and no Transfer-Encoding", r.Header.Fields())
	}
	var again RequestParser
	if back := feedAll(t, &again, r.Marshal()); len(back) != 1 || !sameRequest(back[0], r) {
		t.Fatalf("wire form %q parses to %d requests, not back to the request", r.Marshal(), len(back))
	}
}

func TestParseChunkExtensionAndTrailer(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"4;ext=1\r\nwiki\r\n0\r\nX-Trailer: v\r\n\r\n"
	resps, err := parseResponses(t, []string{"GET"}, []byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 || string(resps[0].Body) != "wiki" {
		t.Fatalf("resps = %v", resps)
	}
	// Chunked re-framed as Content-Length.
	if resps[0].Header.Get("Content-Length") != "4" || resps[0].Header.Has("Transfer-Encoding") {
		t.Fatalf("reframing failed: %+v", resps[0].Header)
	}
}

func TestParseResponseBodyless(t *testing.T) {
	raw := "HTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\n\r\n" +
		"HTTP/1.1 204 No Content\r\n\r\n" +
		"HTTP/1.1 100 Continue\r\n\r\n"
	resps, err := parseResponses(t, []string{"GET", "GET", "GET"}, []byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(resps))
	}
	for _, r := range resps {
		if len(r.Body) != 0 {
			t.Fatalf("bodyless response %d has body %q", r.StatusCode, r.Body)
		}
	}
}

func TestParseHeadResponseHasNoBody(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n" + // HEAD: no body despite CL
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	resps, err := parseResponses(t, []string{"HEAD", "GET"}, []byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("got %d responses, want 2", len(resps))
	}
	if len(resps[0].Body) != 0 {
		t.Fatalf("HEAD response has body %q", resps[0].Body)
	}
	if string(resps[1].Body) != "ok" {
		t.Fatalf("second body = %q", resps[1].Body)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"NOT A REQUEST\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / FTP/1.0\r\nHost: h\r\n\r\n",
		"GET / HTTP/1.1\r\nBad Header Line\r\n\r\n",
		"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: xyz\r\n\r\n",
	}
	for _, raw := range cases {
		var p RequestParser
		if _, err := p.Feed([]byte(raw)); err == nil {
			t.Errorf("accepted malformed request %q", raw)
		}
	}
}

func TestParseResponseErrors(t *testing.T) {
	cases := []string{
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 99 Too Low\r\n\r\n",
		"HTTP/1.1 600 Too High\r\n\r\n",
		"NOTHTTP 200 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
	}
	for _, raw := range cases {
		var p ResponseParser
		p.ExpectMethod("GET")
		if _, err := p.Feed([]byte(raw)); err == nil {
			t.Errorf("accepted malformed response %q", raw)
		}
	}
}

func TestBadChunkSize(t *testing.T) {
	var p ResponseParser
	p.ExpectMethod("GET")
	raw := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZZ\r\n"
	if _, err := p.Feed([]byte(raw)); err == nil {
		t.Fatal("accepted garbage chunk size")
	}
}

func TestRequestMarshalRoundTrip(t *testing.T) {
	req := &Request{Method: "POST", Target: "/api/v1?k=v", Proto: "HTTP/1.1"}
	req.Header.Add("Host", "api.example.com")
	req.Header.Add("Content-Length", "4")
	req.Header.Add("X-Custom", "abc")
	req.Body = []byte("data")

	var p RequestParser
	reqs, err := p.Feed(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 {
		t.Fatalf("round trip produced %d requests", len(reqs))
	}
	got := reqs[0]
	if got.Method != req.Method || got.Target != req.Target || string(got.Body) != "data" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Header.Get("x-custom") != "abc" {
		t.Fatalf("case-insensitive Get failed")
	}
	if !bytes.Equal(got.Marshal(), req.Marshal()) {
		t.Fatalf("re-marshal differs:\n%q\n%q", got.Marshal(), req.Marshal())
	}
}

func TestResponseMarshalRoundTrip(t *testing.T) {
	resp := &Response{Proto: "HTTP/1.1", StatusCode: 200, Reason: "OK"}
	resp.Header.Add("Content-Type", "text/html")
	resp.Header.Add("Content-Length", "11")
	resp.Body = []byte("hello world")

	var p ResponseParser
	p.ExpectMethod("GET")
	resps, err := p.Feed(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 || string(resps[0].Body) != "hello world" {
		t.Fatalf("round trip failed: %v", resps)
	}
	if !bytes.Equal(resps[0].Marshal(), resp.Marshal()) {
		t.Fatal("re-marshal differs")
	}
}

// Property: any printable body round-trips through marshal+parse.
func TestBodyRoundTripProperty(t *testing.T) {
	f := func(body []byte) bool {
		resp := &Response{Proto: "HTTP/1.1", StatusCode: 200, Reason: "OK"}
		resp.Header.Add("Content-Length", fmt.Sprint(len(body)))
		resp.Body = body
		var p ResponseParser
		p.ExpectMethod("GET")
		resps, err := p.Feed(resp.Marshal())
		return err == nil && len(resps) == 1 && bytes.Equal(resps[0].Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting the wire bytes at any point yields the same parse.
func TestSplitInvarianceProperty(t *testing.T) {
	raw := []byte("GET /a HTTP/1.1\r\nHost: h\r\n\r\nPOST /b HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nxyz")
	f := func(cut uint16) bool {
		i := int(cut) % len(raw)
		var p RequestParser
		r1, err1 := p.Feed(raw[:i])
		r2, err2 := p.Feed(raw[i:])
		if err1 != nil || err2 != nil {
			return false
		}
		all := append(r1, r2...)
		return len(all) == 2 && all[0].Target == "/a" && all[1].Target == "/b" &&
			string(all[1].Body) == "xyz"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderOps(t *testing.T) {
	var h Header
	h.Add("Accept", "text/html")
	h.Add("accept", "image/png")
	if h.Get("ACCEPT") != "text/html" {
		t.Fatalf("Get returned %q", h.Get("ACCEPT"))
	}
	h.Set("Accept", "*/*")
	if h.Len() != 1 || h.Get("accept") != "*/*" {
		t.Fatalf("Set failed: %+v", h)
	}
	h.Add("X-A", "1")
	h.Del("accept")
	if h.Has("Accept") || !h.Has("x-a") {
		t.Fatalf("Del failed: %+v", h)
	}
	h.Set("New", "v")
	if h.Get("new") != "v" {
		t.Fatal("Set-as-append failed")
	}
}

func TestHeaderNamesSortedDistinct(t *testing.T) {
	var h Header
	h.Add("Zeta", "1")
	h.Add("alpha", "2")
	h.Add("ALPHA", "3")
	names := h.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("Names = %v", names)
	}
}

func TestHeaderCloneIndependent(t *testing.T) {
	var h Header
	h.Add("A", "1")
	c := h.Clone()
	c.Set("A", "2")
	if h.Get("A") != "1" {
		t.Fatal("Clone shares storage")
	}
}

func TestRequestCloneIndependent(t *testing.T) {
	r := &Request{Method: "GET", Target: "/", Proto: "HTTP/1.1", Body: []byte("b")}
	r.Header.Add("H", "v")
	c := r.Clone()
	c.Body[0] = 'x'
	c.Header.Set("H", "w")
	if string(r.Body) != "b" || r.Header.Get("H") != "v" {
		t.Fatal("Clone shares storage")
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(200) != "OK" || StatusText(404) != "Not Found" {
		t.Fatal("common codes wrong")
	}
	if StatusText(599) != "Unknown" {
		t.Fatal("unknown code wrong")
	}
}

func TestLargeBodyAcrossManyChunks(t *testing.T) {
	// 100 KB body delivered in 1460-byte segments, chunked encoding.
	body := strings.Repeat("abcdefgh", 12800)
	var wire bytes.Buffer
	wire.WriteString("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
	for i := 0; i < len(body); i += 4096 {
		end := i + 4096
		if end > len(body) {
			end = len(body)
		}
		fmt.Fprintf(&wire, "%x\r\n%s\r\n", end-i, body[i:end])
	}
	wire.WriteString("0\r\n\r\n")

	var segs [][]byte
	for raw := wire.Bytes(); len(raw) > 0; {
		n := min(1460, len(raw))
		segs = append(segs, raw[:n])
		raw = raw[n:]
	}
	got, err := parseResponses(t, []string{"GET"}, segs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Body) != body {
		t.Fatalf("large chunked parse failed: %d responses", len(got))
	}
}

func TestContentLengthTooLarge(t *testing.T) {
	raw := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", MaxBodySize+1)
	if _, err := parseResponses(t, []string{"GET"}, []byte(raw)); err == nil {
		t.Fatal("oversized content-length accepted")
	}
}

// A chunked body is checked against MaxBodySize on its running length:
// a chunk that would carry the body past the limit is refused in both
// modes, though a metering parser stores none of the bytes before it.
func TestChunkedBodyTooLarge(t *testing.T) {
	raw := fmt.Sprintf("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"+
		"4\r\nwiki\r\n%x\r\n", MaxBodySize-3)
	if _, err := parseResponses(t, []string{"GET"}, []byte(raw)); !errors.Is(err, ErrBodyTooLong) {
		t.Fatalf("oversized chunked body: err = %v, want ErrBodyTooLong", err)
	}
}

// Two pipelined fixed-length responses cut at every pair of byte offsets:
// heads split anywhere, bodies completed by the buffered drain or by the
// streaming fast path, and both responses finished by one Feed. Every cut
// must frame the same two responses with and without metering.
func TestPipelinedFixedLengthEveryCut(t *testing.T) {
	raw := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello" +
		"HTTP/1.1 404 Not Found\r\nContent-Length: 11\r\n\r\nhello world")
	for i := 0; i <= len(raw); i++ {
		for j := i; j <= len(raw); j++ {
			resps, err := parseResponses(t, []string{"GET", "GET"}, raw[:i], raw[i:j], raw[j:])
			if err != nil {
				t.Fatalf("cuts %d,%d: %v", i, j, err)
			}
			if len(resps) != 2 || string(resps[0].Body) != "hello" || resps[1].StatusCode != 404 ||
				string(resps[1].Body) != "hello world" {
				t.Fatalf("cuts %d,%d: responses %v", i, j, resps)
			}
		}
	}
}

// allocated reports the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A declared Content-Length is not reserved before the body arrives: a
// 46-byte head declaring the largest allowed body allocates less than
// 1 MiB in a copying parser, as in a metering one.
func TestDeclaredLengthNotReserved(t *testing.T) {
	head := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", MaxBodySize))
	for _, meter := range []bool{false, true} {
		p := &ResponseParser{Meter: meter}
		var resps []*Response
		var err error
		if n := allocated(func() { resps, err = p.Feed(head) }); n >= 1<<20 {
			t.Errorf("meter=%v: %d-byte head allocated %d bytes, want < 1 MiB", meter, len(head), n)
		}
		if err != nil || len(resps) != 0 {
			t.Errorf("meter=%v: Feed = %v, %v; want an incomplete response", meter, resps, err)
		}
	}
}

// A fixed-length body that outgrows the up-front reserve doubles toward
// the declared length and ends with exactly that capacity.
func TestLargeFixedLengthBodyGrowsToLength(t *testing.T) {
	body := strings.Repeat("0123456789", 30_000) // 300 KB, past the reserve
	raw := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	var p ResponseParser
	var got []*Response
	for len(raw) > 0 {
		n := min(1460, len(raw))
		resps, err := p.Feed(raw[:n])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resps...)
		raw = raw[n:]
	}
	if len(got) != 1 || string(got[0].Body) != body {
		t.Fatalf("got %d responses", len(got))
	}
	if c := cap(got[0].Body); c != len(body) {
		t.Errorf("body capacity %d, want the declared %d", c, len(body))
	}
}

func TestResponseNoFramingNoBody(t *testing.T) {
	resps, err := parseResponses(t, []string{"GET"}, []byte("HTTP/1.1 200 OK\r\nServer: s\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 || len(resps[0].Body) != 0 {
		t.Fatalf("unframed response: %v", resps)
	}
}
