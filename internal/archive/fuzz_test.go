package archive

import (
	"bytes"
	"strconv"
	"testing"
)

// FuzzReadExchange feeds arbitrary bytes to ReadExchange. An exchange it
// accepts, written back with WriteExchange, must read back and rewrite to
// the same bytes: the archive format loses nothing the reader keeps.
//
// CI runs it for a bounded time:
//
//	go test -run '^$' -fuzz FuzzReadExchange -fuzztime 10s ./internal/archive/
func FuzzReadExchange(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteExchange(&buf, mkExchange("example.com", "/page?a=1", "93.184.216.34", 80, "hello body")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	const req = "GET / HTTP/1.1\r\nHost: a.com\r\n\r\n"
	const resp = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n0\r\n\r\n"
	f.Add([]byte("MAHIMAHI-GO 1\nserver: 1.2.3.4:443\nscheme: https\nrequest-length: " +
		strconv.Itoa(len(req)) + "\nresponse-length: " + strconv.Itoa(len(resp)) + "\n\n" + req + resp))
	for _, raw := range []string{
		"",
		"WRONG MAGIC\n\n",
		"MAHIMAHI-GO 1\nserver: nonsense\nrequest-length: 1\nresponse-length: 1\n\nxy",
		"MAHIMAHI-GO 1\nserver: 1.2.3.4:80\nrequest-length: 99\nresponse-length: 99\n\nshort",
		"MAHIMAHI-GO 1\nbadline\n\n",
	} {
		f.Add([]byte(raw))
	}
	// A chunked request: it is stored de-chunked, so it must be stored
	// re-framed with Content-Length to read back.
	const post = "POST /u HTTP/1.1\r\nHost: a.com\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
	const ok = "HTTP/1.1 204 No Content\r\n\r\n"
	f.Add([]byte("MAHIMAHI-GO 1\nserver: 1.2.3.4:80\nscheme: http\nrequest-length: " +
		strconv.Itoa(len(post)) + "\nresponse-length: " + strconv.Itoa(len(ok)) + "\n\n" + post + ok))
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := ReadExchange(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteExchange(&first, e); err != nil {
			t.Fatal(err)
		}
		back, err := ReadExchange(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rewritten exchange refused: %v\n%q", err, first.Bytes())
		}
		if err := WriteExchange(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("rewrite differs:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
