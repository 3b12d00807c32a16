package httpx

import (
	"fmt"
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
