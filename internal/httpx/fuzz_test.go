package httpx

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzResponseParserModes feeds the same bytes, cut into three pieces at
// fuzzer-chosen offsets, through a copying and a metering ResponseParser
// and holds them to parseResponses' agreement: the same error, status
// lines and header fields, equal BodyLen, a nil Body when metering and
// BodyLen == len(Body) when copying. Bit i of heads makes the i-th
// expected response answer a HEAD request, which has no body.
//
// CI runs it for a bounded time:
//
//	go test -run '^$' -fuzz FuzzResponseParserModes -fuzztime 20s ./internal/httpx/
func FuzzResponseParserModes(f *testing.F) {
	var chunked strings.Builder
	chunked.WriteString("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&chunked, "%x\r\n%s\r\n", 700, strings.Repeat("abcdefg", 100))
	}
	chunked.WriteString("0\r\n\r\n")
	pipelined := "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello" +
		"HTTP/1.1 404 Not Found\r\nContent-Length: 11\r\n\r\nhello world"
	// The inputs of the tests that parse through parseResponses.
	seeds := []struct {
		raw   string
		heads uint8
	}{
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
			"4;ext=1\r\nwiki\r\n0\r\nX-Trailer: v\r\n\r\n", 0},
		{"HTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\n\r\n" +
			"HTTP/1.1 204 No Content\r\n\r\n" +
			"HTTP/1.1 100 Continue\r\n\r\n", 0},
		{"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n" +
			"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", 1},
		{chunked.String(), 0},
		{fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", MaxBodySize+1), 0},
		// The largest allowed declared length with no body behind it.
		{fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", MaxBodySize), 0},
		{fmt.Sprintf("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"+
			"4\r\nwiki\r\n%x\r\n", MaxBodySize-3), 0},
		{pipelined, 0},
		{"HTTP/1.1 200 OK\r\nServer: s\r\n\r\n", 0},
	}
	for _, s := range seeds {
		n := uint16(len(s.raw))
		f.Add([]byte(s.raw), uint16(0), uint16(0), s.heads)
		f.Add([]byte(s.raw), n/3, n/3, s.heads)
		f.Add([]byte(s.raw), n/2-1, uint16(1), s.heads)
	}
	f.Fuzz(func(t *testing.T, raw []byte, cut1, cut2 uint16, heads uint8) {
		i := int(cut1) % (len(raw) + 1)
		j := i + int(cut2)%(len(raw)-i+1)
		methods := make([]string, 8)
		for k := range methods {
			methods[k] = "GET"
			if heads&(1<<k) != 0 {
				methods[k] = "HEAD"
			}
		}
		parseResponses(t, methods, raw[:i], raw[i:j], raw[j:])
	})
}

// FuzzRequestParser feeds the same bytes to one RequestParser whole and to
// another cut into three pieces at fuzzer-chosen offsets. Both must yield
// the same requests (method, target, proto, header fields, body) and the
// same error; feeding the pieces stops at the first error. Each request
// must also marshal to bytes that parse back to one equal request, a
// chunked one included.
//
// CI runs it for a bounded time:
//
//	go test -run '^$' -fuzz FuzzRequestParser -fuzztime 10s ./internal/httpx/
func FuzzRequestParser(f *testing.F) {
	// The request vectors of the parser's unit tests: pipelined GETs, a
	// Content-Length body, and a chunked body with an extension and a
	// trailer.
	seeds := []string{
		"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /index.html?x=1 HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n",
		"POST /submit HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello",
		"GET /a HTTP/1.1\r\nHost: h\r\n\r\nPOST /b HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nxyz",
		"POST /u HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n" +
			"5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: v\r\n\r\n",
		fmt.Sprintf("POST /big HTTP/1.1\r\nContent-Length: %d\r\n\r\n", MaxBodySize+1),
	}
	for _, s := range seeds {
		n := uint16(len(s))
		f.Add([]byte(s), uint16(0), uint16(0))
		f.Add([]byte(s), n/3, n/3)
		f.Add([]byte(s), n/2-1, uint16(1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, cut1, cut2 uint16) {
		i := int(cut1) % (len(raw) + 1)
		j := i + int(cut2)%(len(raw)-i+1)
		var whole, cut RequestParser
		want, wantErr := whole.Feed(raw)
		var got []*Request
		var gotErr error
		for _, piece := range [][]byte{raw[:i], raw[i:j], raw[j:]} {
			reqs, err := cut.Feed(piece)
			got = append(got, reqs...)
			if gotErr = err; err != nil {
				break
			}
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("cut at %d, %d: error %v, whole: error %v", i, j, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("cut at %d, %d: %d requests, whole: %d", i, j, len(got), len(want))
		}
		for k, w := range want {
			if g := got[k]; !sameRequest(g, w) {
				t.Errorf("request %d cut at %d, %d: %q %q %q %v body %q, whole: %q %q %q %v body %q",
					k, i, j, g.Method, g.Target, g.Proto, g.Header.Fields(), g.Body,
					w.Method, w.Target, w.Proto, w.Header.Fields(), w.Body)
			}
			var again RequestParser
			back, err := again.Feed(w.Marshal())
			if err != nil || len(back) != 1 || !sameRequest(back[0], w) {
				t.Errorf("request %d: its wire form %q parses to %d requests, error %v", k, w.Marshal(), len(back), err)
			}
		}
	})
}

// sameRequest reports whether two requests have the same request line,
// header fields and body.
func sameRequest(a, b *Request) bool {
	return a.Method == b.Method && a.Target == b.Target && a.Proto == b.Proto &&
		slices.Equal(a.Header.Fields(), b.Header.Fields()) && bytes.Equal(a.Body, b.Body)
}
