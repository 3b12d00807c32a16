// Package httpx implements HTTP/1.1 message parsing and serialization over
// raw byte streams.
//
// Mahimahi's RecordShell contains "a man-in-the-middle proxy ... equipped
// with an HTTP parser" (paper §2): the proxy must parse requests and
// responses off the wire incrementally, store them, and forward them
// unmodified. net/http cannot be used here because the toolkit's transport
// is tcpsim, not the kernel's — so this package provides an incremental
// push parser (feed bytes, get complete messages) plus byte-exact
// serialization.
//
// Supported framing: Content-Length, chunked transfer-encoding, and
// bodyless messages (1xx/204/304 responses and HEAD exchanges). A chunked
// message, request or response, is re-framed as it is parsed: its
// Transfer-Encoding header is dropped and a Content-Length set, so the
// stored message re-serializes to bytes that parse back to it.
package httpx

import (
	"sort"
	"strconv"
	"strings"
)

// Header is an ordered multimap of header fields. Order and the original
// spelling of names are preserved, because recorded messages must replay
// byte-exactly; lookups are case-insensitive per RFC 7230.
type Header struct {
	fields []Field
}

// Field is a single header line.
type Field struct {
	Name, Value string
}

// Add appends a field, preserving order.
func (h *Header) Add(name, value string) {
	h.fields = append(h.fields, Field{Name: name, Value: value})
}

// grow pre-sizes the field slice for n upcoming Adds.
func (h *Header) grow(n int) {
	if cap(h.fields)-len(h.fields) < n {
		fields := make([]Field, len(h.fields), len(h.fields)+n)
		copy(fields, h.fields)
		h.fields = fields
	}
}

// Set replaces every field with the given (case-insensitive) name by a
// single field, or appends if absent.
func (h *Header) Set(name, value string) {
	out := h.fields[:0]
	replaced := false
	for _, f := range h.fields {
		if strings.EqualFold(f.Name, name) {
			if !replaced {
				out = append(out, Field{Name: name, Value: value})
				replaced = true
			}
			continue
		}
		out = append(out, f)
	}
	if !replaced {
		out = append(out, Field{Name: name, Value: value})
	}
	h.fields = out
}

// Get returns the first value of the (case-insensitive) name, or "".
func (h *Header) Get(name string) string {
	for _, f := range h.fields {
		if strings.EqualFold(f.Name, name) {
			return f.Value
		}
	}
	return ""
}

// Has reports whether the header contains the (case-insensitive) name.
func (h *Header) Has(name string) bool {
	for _, f := range h.fields {
		if strings.EqualFold(f.Name, name) {
			return true
		}
	}
	return false
}

// Del removes every field with the (case-insensitive) name.
func (h *Header) Del(name string) {
	out := h.fields[:0]
	for _, f := range h.fields {
		if !strings.EqualFold(f.Name, name) {
			out = append(out, f)
		}
	}
	h.fields = out
}

// Len reports the number of fields.
func (h *Header) Len() int { return len(h.fields) }

// Fields returns the fields in order. The slice must not be mutated.
func (h *Header) Fields() []Field { return h.fields }

// Clone returns a deep copy.
func (h *Header) Clone() Header {
	out := Header{fields: make([]Field, len(h.fields))}
	copy(out.fields, h.fields)
	return out
}

// Names returns the distinct lower-cased field names, sorted.
func (h *Header) Names() []string {
	seen := map[string]bool{}
	var names []string
	for _, f := range h.fields {
		k := strings.ToLower(f.Name)
		if !seen[k] {
			seen[k] = true
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// appendTo serializes the header block (without the terminating blank
// line) onto dst.
func (h *Header) appendTo(dst []byte) []byte {
	for _, f := range h.fields {
		dst = append(dst, f.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, f.Value...)
		dst = append(dst, "\r\n"...)
	}
	return dst
}

// SplitTarget splits a request-target at its '?' into path and raw query
// (no leading '?').
func SplitTarget(target string) (path, query string) {
	if i := strings.IndexByte(target, '?'); i >= 0 {
		return target[:i], target[i+1:]
	}
	return target, ""
}

// Request is an HTTP/1.1 request message.
type Request struct {
	Method string
	// Target is the request-target as it appeared on the request line
	// (origin-form "/path?query" or absolute-form for proxies).
	Target string
	Proto  string // e.g. "HTTP/1.1"
	Header Header
	Body   []byte
	// Scheme records whether the exchange was HTTP or HTTPS at record
	// time. Mahimahi records both; the scheme is not on the wire in the
	// request line, so it travels out of band.
	Scheme string
}

// Host returns the Host header.
func (r *Request) Host() string { return r.Header.Get("Host") }

// Marshal serializes the request to its exact wire form.
func (r *Request) Marshal() []byte {
	return r.AppendWire(nil)
}

// AppendWire appends the request's exact wire form to dst and returns the
// extended slice. Passing a recycled buffer makes serialization
// allocation-free.
func (r *Request) AppendWire(dst []byte) []byte {
	dst = append(dst, r.Method...)
	dst = append(dst, ' ')
	dst = append(dst, r.Target...)
	dst = append(dst, ' ')
	dst = append(dst, r.Proto...)
	dst = append(dst, "\r\n"...)
	dst = r.Header.appendTo(dst)
	dst = append(dst, "\r\n"...)
	return append(dst, r.Body...)
}

// Clone returns a deep copy.
func (r *Request) Clone() *Request {
	out := *r
	out.Header = r.Header.Clone()
	out.Body = append([]byte(nil), r.Body...)
	return &out
}

// Response is an HTTP/1.1 response message.
type Response struct {
	Proto      string
	StatusCode int
	Reason     string
	Header     Header
	Body       []byte
	// BodyLen is the body size a ResponseParser counted: len(Body) when
	// it copies, the metered size when it meters (Body is then nil).
	// Responses built by hand leave it zero.
	BodyLen int
}

// Marshal serializes the response to wire form. Chunked recorded bodies are
// re-framed with Content-Length (the bytes delivered to the application are
// identical; Mahimahi's replay CGI does the same).
func (r *Response) Marshal() []byte {
	return r.AppendWire(nil)
}

// AppendWire appends the response's wire form to dst and returns the
// extended slice. Passing a recycled buffer makes serialization
// allocation-free.
func (r *Response) AppendWire(dst []byte) []byte {
	return append(r.AppendHead(dst), r.Body...)
}

// AppendHead appends the status line and header block (including the
// terminating blank line, excluding the body) to dst. Servers that send
// the recorded body by reference pair it with a stable serialized head.
func (r *Response) AppendHead(dst []byte) []byte {
	dst = append(dst, r.Proto...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(r.StatusCode), 10)
	dst = append(dst, ' ')
	dst = append(dst, r.Reason...)
	dst = append(dst, "\r\n"...)
	dst = r.Header.appendTo(dst)
	return append(dst, "\r\n"...)
}

// Clone returns a deep copy.
func (r *Response) Clone() *Response {
	out := *r
	out.Header = r.Header.Clone()
	out.Body = append([]byte(nil), r.Body...)
	return &out
}

// StatusText returns a reason phrase for common status codes.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 204:
		return "No Content"
	case 206:
		return "Partial Content"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 504:
		return "Gateway Timeout"
	}
	return "Unknown"
}
