package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parse errors.
var (
	ErrMalformed   = errors.New("httpx: malformed message")
	ErrBodyTooLong = errors.New("httpx: body exceeds limit")
)

// MaxBodySize bounds a single message body, protecting the simulator from
// runaway Content-Lengths.
const MaxBodySize = 256 << 20

// bodyReserve caps the body capacity a copying parser reserves from a
// declared Content-Length before the body arrives. The body then doubles
// as bytes arrive, never past the declared length, so a length nobody
// sends costs nothing.
const bodyReserve = 64 << 10

// parsePhase is the incremental parser's state.
type parsePhase int

const (
	phaseHead parsePhase = iota
	phaseBodyLength
	phaseBodyChunkSize
	phaseBodyChunkData
	phaseBodyChunkTrailer
)

// framer is the framing state machine both parsers embed: it cuts each
// head off the stream, frames the body that follows by Content-Length,
// chunked coding or none, and re-frames a de-chunked body with
// Content-Length so the stored message re-serializes deterministically.
type framer struct {
	buf   bytes.Buffer
	phase parsePhase
	need  int // bytes outstanding for fixed-length or chunk bodies
}

// message is what a parser supplies its framer: the parts of a stream
// that requests and responses treat differently.
type message interface {
	// head parses a cut head into a new current message and returns its
	// status code (0 for a request) and whether it is bodiless whatever
	// its header frames (the response to a HEAD request).
	head(b []byte) (status int, bodiless bool, err error)
	header() *Header
	// body stores body bytes of the current message before the framer
	// counts them off need.
	body(b []byte)
	bodyLen() int // body bytes of the current message so far
	done()        // hands the complete current message to the output
}

// feed appends data and frames every message it completes, handing each
// to m.
func (f *framer) feed(m message, data []byte) error {
	// Fast path: mid-body with an empty reassembly buffer (the steady
	// state while a large body streams in). Bytes go straight from the
	// transport to the message, skipping the copy through buf.
	for f.phase == phaseBodyLength && f.buf.Len() == 0 && len(data) > 0 {
		n := min(f.need, len(data))
		m.body(data[:n])
		f.need -= n
		data = data[n:]
		if f.need == 0 {
			f.finish(m)
		}
	}
	if len(data) == 0 && f.phase == phaseBodyLength {
		return nil
	}
	f.buf.Write(data)
	for {
		switch f.phase {
		case phaseHead:
			head, rest, ok := cutHead(f.buf.Bytes())
			if !ok {
				return nil
			}
			status, bodiless, err := m.head(head)
			if err != nil {
				return err
			}
			f.buf.Next(f.buf.Len() - len(rest))
			n, chunked, err := bodyLength(m.header(), status)
			if err != nil {
				return err
			}
			if bodiless {
				n, chunked = 0, false
			}
			switch {
			case chunked:
				f.phase = phaseBodyChunkSize
			case n > 0:
				f.need = n
				f.phase = phaseBodyLength
			default:
				f.finish(m)
			}
		case phaseBodyLength:
			// Drain whatever body bytes are buffered immediately — even a
			// partial body — so the reassembly buffer empties and the
			// streaming fast path above takes every subsequent feed.
			// Leaving the partial body in buf would re-copy it on each
			// append until the full length arrived (quadratic in body
			// size for segment-at-a-time transports).
			if n := min(f.need, f.buf.Len()); n > 0 {
				m.body(f.buf.Next(n))
				f.need -= n
			}
			if f.need > 0 {
				return nil
			}
			f.finish(m)
		case phaseBodyChunkSize, phaseBodyChunkData, phaseBodyChunkTrailer:
			data, done, ok, err := stepChunk(&f.buf, &f.phase, &f.need, m.bodyLen())
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			m.body(data)
			if done {
				h := m.header()
				h.Del("Transfer-Encoding")
				h.Set("Content-Length", strconv.Itoa(m.bodyLen()))
				f.finish(m)
			}
		}
	}
}

// finish completes the current message and awaits the next head.
func (f *framer) finish(m message) {
	f.phase = phaseHead
	m.done()
}

// RequestParser incrementally parses a stream of pipelined HTTP/1.1
// requests. Feed it raw bytes as they arrive; it emits complete requests.
type RequestParser struct {
	framer
	cur *Request
	out []*Request
}

// Feed appends data and returns any requests completed by it.
func (p *RequestParser) Feed(data []byte) ([]*Request, error) {
	err := p.feed(p, data)
	out := p.out
	p.out = nil
	return out, err
}

func (p *RequestParser) head(b []byte) (status int, bodiless bool, err error) {
	p.cur, err = parseRequestHead(b)
	return 0, false, err
}

func (p *RequestParser) header() *Header { return &p.cur.Header }
func (p *RequestParser) body(b []byte)   { p.cur.Body = append(p.cur.Body, b...) }
func (p *RequestParser) bodyLen() int    { return len(p.cur.Body) }

func (p *RequestParser) done() {
	p.out = append(p.out, p.cur)
	p.cur = nil
}

// ResponseParser incrementally parses a stream of HTTP/1.1 responses on one
// connection. Because response framing depends on the request (HEAD
// responses carry no body), the caller must announce each outstanding
// request's method with ExpectMethod, in order.
type ResponseParser struct {
	framer
	cur     *Response
	out     []*Response
	methods []string // FIFO of outstanding request methods

	// Meter makes the parser count body bytes instead of storing them:
	// responses are framed exactly as when copying and report their size
	// in BodyLen, but Body stays nil. The browser model, which reads body
	// sizes and arrival times but never content, meters; consumers that
	// keep responses (recording, archiving) must leave it off.
	Meter bool
}

// Reset returns the parser to its initial state (no partial message, no
// expected methods) while keeping grown buffers, so one parser can serve
// many sequential connections.
func (p *ResponseParser) Reset() {
	p.buf.Reset()
	p.phase = phaseHead
	p.need = 0
	p.cur = nil
	p.methods = p.methods[:0]
}

// ExpectMethod queues the method of the next outstanding request, so HEAD
// responses are framed correctly.
func (p *ResponseParser) ExpectMethod(m string) {
	p.methods = append(p.methods, m)
}

// Feed appends data and returns any responses completed by it.
func (p *ResponseParser) Feed(data []byte) ([]*Response, error) {
	err := p.feed(p, data)
	out := p.out
	p.out = nil
	return out, err
}

// head parses a status line and header block and pops the expected
// method (GET if none was announced), so a HEAD response is bodiless.
func (p *ResponseParser) head(b []byte) (status int, bodiless bool, err error) {
	if p.cur, err = parseResponseHead(b); err != nil {
		return 0, false, err
	}
	method := "GET"
	if len(p.methods) > 0 {
		method, p.methods = p.methods[0], p.methods[1:]
	}
	return p.cur.StatusCode, method == "HEAD", nil
}

func (p *ResponseParser) header() *Header { return &p.cur.Header }
func (p *ResponseParser) bodyLen() int    { return p.cur.BodyLen }

// body counts body bytes always and copies them unless metering. A
// fixed-length body's declared length is len(body)+p.need (p.need still
// counts b): its first bytes reserve at most bodyReserve of it, and the
// body doubles as it outgrows that, never past the declared length.
// Chunked bodies grow by plain append.
func (p *ResponseParser) body(b []byte) {
	p.cur.BodyLen += len(b)
	if p.Meter {
		return
	}
	body := p.cur.Body
	if p.phase == phaseBodyLength {
		if body == nil {
			body = make([]byte, 0, min(p.need, bodyReserve))
		}
		if n := len(body) + len(b); n > cap(body) {
			body = append(make([]byte, 0, max(n, min(2*cap(body), len(body)+p.need))), body...)
		}
	}
	p.cur.Body = append(body, b...)
}

func (p *ResponseParser) done() {
	p.out = append(p.out, p.cur)
	p.cur = nil
}

// cutHead splits buf at the end of the header block (CRLFCRLF). ok is false
// if the block is incomplete.
func cutHead(buf []byte) (head, rest []byte, ok bool) {
	i := bytes.Index(buf, []byte("\r\n\r\n"))
	if i < 0 {
		return nil, nil, false
	}
	return buf[:i], buf[i+4:], true
}

// cutLine splits s at its first CRLF (or end of string), returning the
// line and the remainder. Operating on substrings of the single string
// copy made per message head keeps parsing allocation-free.
func cutLine(s string) (line, rest string) {
	if i := strings.Index(s, "\r\n"); i >= 0 {
		return s[:i], s[i+2:]
	}
	return s, ""
}

// countLines reports the number of CRLF-separated lines in s, for
// pre-sizing the header field slice.
func countLines(s string) int {
	return strings.Count(s, "\r\n") + 1
}

// parseRequestHead parses a request line plus header block.
func parseRequestHead(head []byte) (*Request, error) {
	text := string(head) // the single copy; all parsed strings share it
	first, rest := cutLine(text)
	parts := strings.SplitN(first, " ", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, first)
	}
	if !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("%w: bad version %q", ErrMalformed, parts[2])
	}
	req := &Request{Method: parts[0], Target: parts[1], Proto: parts[2], Scheme: "http"}
	if err := parseFields(rest, &req.Header); err != nil {
		return nil, err
	}
	return req, nil
}

// parseResponseHead parses a status line plus header block.
func parseResponseHead(head []byte) (*Response, error) {
	text := string(head)
	first, rest := cutLine(text)
	parts := strings.SplitN(first, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, first)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status code %q", ErrMalformed, parts[1])
	}
	reason := ""
	if len(parts) == 3 {
		reason = parts[2]
	}
	resp := &Response{Proto: parts[0], StatusCode: code, Reason: reason}
	if err := parseFields(rest, &resp.Header); err != nil {
		return nil, err
	}
	return resp, nil
}

func parseFields(block string, h *Header) error {
	h.grow(countLines(block))
	for block != "" {
		var line string
		line, block = cutLine(block)
		if line == "" {
			continue
		}
		i := strings.IndexByte(line, ':')
		if i <= 0 {
			return fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		name := line[:i]
		if strings.ContainsAny(name, " \t") {
			return fmt.Errorf("%w: space in field name %q", ErrMalformed, name)
		}
		h.Add(name, strings.TrimSpace(line[i+1:]))
	}
	return nil
}

// bodyLength determines message framing from headers: explicit length,
// chunked, or none. statusCode is a response's, for its bodyless codes,
// or 0 for a request.
func bodyLength(h *Header, statusCode int) (n int, chunked bool, err error) {
	if statusCode/100 == 1 || statusCode == 204 || statusCode == 304 {
		return 0, false, nil
	}
	if te := h.Get("Transfer-Encoding"); te != "" {
		if strings.EqualFold(te, "chunked") {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("%w: transfer-encoding %q", ErrMalformed, te)
	}
	if cl := h.Get("Content-Length"); cl != "" {
		v, err := strconv.Atoi(strings.TrimSpace(cl))
		if err != nil || v < 0 {
			return 0, false, fmt.Errorf("%w: content-length %q", ErrMalformed, cl)
		}
		if v > MaxBodySize {
			return 0, false, ErrBodyTooLong
		}
		return v, false, nil
	}
	// No framing headers: no body. (Read-until-close responses are not
	// produced by this toolkit's servers.)
	return 0, false, nil
}

// stepChunk advances chunked-body parsing by one state transition. have is
// the body length so far, checked against MaxBodySize. data is the chunk
// payload the step consumed (valid until buf is next written); done
// reports a complete body; ok reports whether progress was possible.
func stepChunk(buf *bytes.Buffer, phase *parsePhase, need *int, have int) (data []byte, done, ok bool, err error) {
	switch *phase {
	case phaseBodyChunkSize:
		line, found := takeLine(buf)
		if !found {
			return nil, false, false, nil
		}
		// Chunk extensions after ';' are ignored per RFC 7230.
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, perr := strconv.ParseInt(strings.TrimSpace(line), 16, 32)
		if perr != nil || size < 0 {
			return nil, false, false, fmt.Errorf("%w: chunk size %q", ErrMalformed, line)
		}
		if have+int(size) > MaxBodySize {
			return nil, false, false, ErrBodyTooLong
		}
		if size == 0 {
			*phase = phaseBodyChunkTrailer
			return nil, false, true, nil
		}
		*need = int(size)
		*phase = phaseBodyChunkData
		return nil, false, true, nil
	case phaseBodyChunkData:
		if buf.Len() < *need+2 { // data + CRLF
			return nil, false, false, nil
		}
		data = buf.Next(*need)
		crlf := buf.Next(2)
		if !bytes.Equal(crlf, []byte("\r\n")) {
			return nil, false, false, fmt.Errorf("%w: chunk not CRLF-terminated", ErrMalformed)
		}
		*need = 0
		*phase = phaseBodyChunkSize
		return data, false, true, nil
	case phaseBodyChunkTrailer:
		line, found := takeLine(buf)
		if !found {
			return nil, false, false, nil
		}
		if line == "" {
			*phase = phaseHead
			return nil, true, true, nil
		}
		// Trailer field: ignored.
		return nil, false, true, nil
	}
	return nil, false, false, fmt.Errorf("%w: bad chunk state", ErrMalformed)
}

// takeLine removes and returns one CRLF-terminated line (without CRLF).
func takeLine(buf *bytes.Buffer) (string, bool) {
	b := buf.Bytes()
	i := bytes.Index(b, []byte("\r\n"))
	if i < 0 {
		return "", false
	}
	line := string(b[:i])
	buf.Next(i + 2)
	return line, true
}
