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

// RequestParser incrementally parses a stream of pipelined HTTP/1.1
// requests. Feed it raw bytes as they arrive; it emits complete requests.
type RequestParser struct {
	buf   bytes.Buffer
	phase parsePhase
	cur   *Request
	need  int // bytes outstanding for fixed-length or chunk bodies
}

// Feed appends data and returns any requests completed by it.
func (p *RequestParser) Feed(data []byte) ([]*Request, error) {
	p.buf.Write(data)
	var out []*Request
	for {
		switch p.phase {
		case phaseHead:
			head, rest, ok := cutHead(p.buf.Bytes())
			if !ok {
				return out, nil
			}
			req, err := parseRequestHead(head)
			if err != nil {
				return out, err
			}
			p.consumeTo(rest)
			p.cur = req
			n, chunked, err := bodyLength(&req.Header, true, 0)
			if err != nil {
				return out, err
			}
			switch {
			case chunked:
				p.phase = phaseBodyChunkSize
			case n > 0:
				p.need = n
				p.phase = phaseBodyLength
			default:
				out = append(out, p.finishRequest())
			}
		case phaseBodyLength:
			// Drain partial bodies immediately; see the response parser's
			// phaseBodyLength case.
			if n := min(p.need, p.buf.Len()); n > 0 {
				p.cur.Body = append(p.cur.Body, p.buf.Next(n)...)
				p.need -= n
			}
			if p.need > 0 {
				return out, nil
			}
			out = append(out, p.finishRequest())
		case phaseBodyChunkSize, phaseBodyChunkData, phaseBodyChunkTrailer:
			data, done, ok, err := stepChunk(&p.buf, &p.phase, &p.need, len(p.cur.Body))
			if err != nil {
				return out, err
			}
			if !ok {
				return out, nil
			}
			p.cur.Body = append(p.cur.Body, data...)
			if done {
				out = append(out, p.finishRequest())
			}
		}
	}
}

func (p *RequestParser) finishRequest() *Request {
	req := p.cur
	p.cur = nil
	p.phase = phaseHead
	return req
}

func (p *RequestParser) consumeTo(rest []byte) {
	n := p.buf.Len() - len(rest)
	p.buf.Next(n)
}

// ResponseParser incrementally parses a stream of HTTP/1.1 responses on one
// connection. Because response framing depends on the request (HEAD
// responses carry no body), the caller must announce each outstanding
// request's method with ExpectMethod, in order.
type ResponseParser struct {
	buf     bytes.Buffer
	phase   parsePhase
	cur     *Response
	need    int
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
	p.cur = nil
	p.need = 0
	p.methods = p.methods[:0]
}

// take consumes body bytes of the current response: counted always,
// copied unless metering. A fixed-length body that outgrows its capacity
// doubles it, but never past the declared length, len(body)+p.need (p.need
// still counts b); chunked bodies grow by plain append.
func (p *ResponseParser) take(b []byte) {
	p.cur.BodyLen += len(b)
	if p.Meter {
		return
	}
	body := p.cur.Body
	if n := len(body) + len(b); n > cap(body) && p.phase == phaseBodyLength {
		body = append(make([]byte, 0, max(n, min(2*cap(body), len(body)+p.need))), body...)
	}
	p.cur.Body = append(body, b...)
}

// ExpectMethod queues the method of the next outstanding request, so HEAD
// responses are framed correctly.
func (p *ResponseParser) ExpectMethod(m string) {
	p.methods = append(p.methods, m)
}

func (p *ResponseParser) nextMethod() string {
	if len(p.methods) == 0 {
		return "GET"
	}
	m := p.methods[0]
	p.methods = p.methods[1:]
	return m
}

// Feed appends data and returns any responses completed by it.
func (p *ResponseParser) Feed(data []byte) ([]*Response, error) {
	var out []*Response
	// Fast path: mid-body with an empty reassembly buffer (the steady
	// state while a large response streams in). Bytes go straight from the
	// transport into the body, or are only counted when metering, skipping
	// the copy through buf.
	for p.phase == phaseBodyLength && p.buf.Len() == 0 && len(data) > 0 {
		n := min(p.need, len(data))
		p.take(data[:n])
		p.need -= n
		data = data[n:]
		if p.need == 0 {
			out = append(out, p.finishResponse())
		}
	}
	if len(data) == 0 && p.phase == phaseBodyLength {
		return out, nil
	}
	p.buf.Write(data)
	for {
		switch p.phase {
		case phaseHead:
			head, rest, ok := cutHead(p.buf.Bytes())
			if !ok {
				return out, nil
			}
			resp, err := parseResponseHead(head)
			if err != nil {
				return out, err
			}
			p.consumeTo(rest)
			p.cur = resp
			method := p.nextMethod()
			n, chunked, err := bodyLength(&resp.Header, false, resp.StatusCode)
			if err != nil {
				return out, err
			}
			if method == "HEAD" {
				n, chunked = 0, false
			}
			switch {
			case chunked:
				p.phase = phaseBodyChunkSize
			case n > 0:
				if !p.Meter {
					p.cur.Body = make([]byte, 0, min(n, bodyReserve))
				}
				p.need = n
				p.phase = phaseBodyLength
			default:
				out = append(out, p.finishResponse())
			}
		case phaseBodyLength:
			// Drain whatever body bytes are buffered immediately — even a
			// partial body — so the reassembly buffer empties and the
			// streaming fast path above takes every subsequent Feed.
			// Leaving the partial body in buf would re-copy it on each
			// append until the full length arrived (quadratic in body
			// size for segment-at-a-time transports).
			if n := min(p.need, p.buf.Len()); n > 0 {
				p.take(p.buf.Next(n))
				p.need -= n
			}
			if p.need > 0 {
				return out, nil
			}
			out = append(out, p.finishResponse())
		case phaseBodyChunkSize, phaseBodyChunkData, phaseBodyChunkTrailer:
			data, done, ok, err := stepChunk(&p.buf, &p.phase, &p.need, p.cur.BodyLen)
			if err != nil {
				return out, err
			}
			if !ok {
				return out, nil
			}
			p.take(data)
			if done {
				// Replace chunked framing with explicit length so the
				// stored message re-serializes deterministically.
				p.cur.Header.Del("Transfer-Encoding")
				p.cur.Header.Set("Content-Length", strconv.Itoa(p.cur.BodyLen))
				out = append(out, p.finishResponse())
			}
		}
	}
}

func (p *ResponseParser) finishResponse() *Response {
	resp := p.cur
	p.cur = nil
	p.phase = phaseHead
	return resp
}

func (p *ResponseParser) consumeTo(rest []byte) {
	n := p.buf.Len() - len(rest)
	p.buf.Next(n)
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
// chunked, or none. isRequest selects request defaults (no body unless
// declared). statusCode handles bodyless response codes.
func bodyLength(h *Header, isRequest bool, statusCode int) (n int, chunked bool, err error) {
	if !isRequest && (statusCode/100 == 1 || statusCode == 204 || statusCode == 304) {
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
