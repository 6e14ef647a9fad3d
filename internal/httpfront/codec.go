package httpfront

// The one-pass codec for POST /v1/query 200 bodies. The format is the
// one encoding/json produces for
//
//	{"snapshots":N,"values_b64":["<base64>",...],"report":{...},"request_id":"..."}\n
//
// byte for byte; only how the bytes are made and read is hand-written.
// The small fields (report, request_id) still go through encoding/json in
// both directions, so their escaping and field matching cannot drift. The
// values — 99.9% of the body — are base64-encoded straight from the
// []float64 slices into a pooled fixed-size buffer on the way out, and
// decoded straight from the body bytes into []float64 on the way in.

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"mega/internal/megaerr"
)

// valuesKey is the member the codec handles itself.
const valuesKey = "values_b64"

// encodeOutBytes is how much of the body is staged between Writes. Three
// values are 24 bytes are 32 base64 characters with no padding, so a
// chunk of whole triples concatenates with the next into exactly the
// string base64 would produce for the whole snapshot.
const (
	encodeOutBytes = 64 << 10
	encodeRawBytes = encodeOutBytes / 32 * 24
)

// encodeBuf is the staging memory of one response in flight: raw holds a
// chunk's little-endian Float64bits, out the body bytes awaiting a Write.
// Its size is fixed, so what the pool retains is bounded by the number of
// responses that were ever concurrently encoding, not by body size.
type encodeBuf struct {
	raw [encodeRawBytes]byte
	out [encodeOutBytes]byte
}

var encodeBufs = sync.Pool{New: func() any { return new(encodeBuf) }}

// bodyWriter fills an encodeBuf and flushes it to w whenever it is full.
// The first Write error sticks: later calls do nothing, so a response to
// a caller that hung up stops encoding at once.
type bodyWriter struct {
	w   io.Writer
	buf *encodeBuf
	n   int // bytes of buf.out filled
	err error
}

func (bw *bodyWriter) flush() {
	if bw.err == nil && bw.n > 0 {
		_, bw.err = bw.w.Write(bw.buf.out[:bw.n])
	}
	bw.n = 0
}

func (bw *bodyWriter) bytes(p []byte) {
	for len(p) > 0 && bw.err == nil {
		if bw.n == len(bw.buf.out) {
			bw.flush()
		}
		c := copy(bw.buf.out[bw.n:], p)
		bw.n += c
		p = p[c:]
	}
}

// snapshot writes one quoted base64 string of snap's Float64bits.
func (bw *bodyWriter) snapshot(snap []float64) {
	bw.bytes([]byte{'"'})
	for len(snap) > 0 && bw.err == nil {
		n := (len(bw.buf.out) - bw.n) / 32 * 3 // whole triples that still fit
		if n == 0 {
			bw.flush()
			continue
		}
		if n > len(snap) {
			n = len(snap) // the snapshot's last chunk: padding belongs here
		}
		raw := bw.buf.raw[:8*n]
		for j, v := range snap[:n] {
			binary.LittleEndian.PutUint64(raw[8*j:], math.Float64bits(v))
		}
		m := base64.StdEncoding.EncodedLen(len(raw))
		base64.StdEncoding.Encode(bw.buf.out[bw.n:bw.n+m], raw)
		bw.n += m
		snap = snap[n:]
	}
	bw.bytes([]byte{'"'})
}

// writeQueryResult writes the 200 response of POST /v1/query. Every
// length is known before the first byte, so Content-Length is always set
// and the body is never chunked. It returns the first Write error; the
// status line is already out by then, so there is nothing to send the
// caller — net/http closes the short response's connection.
func writeQueryResult(w http.ResponseWriter, vals [][]float64, rep Report, requestID string) error {
	head := strconv.AppendInt([]byte(`{"snapshots":`), int64(len(vals)), 10)
	head = append(head, `,"`+valuesKey+`":[`...)
	rest, err := json.Marshal(struct {
		Report    Report `json:"report"`
		RequestID string `json:"request_id,omitempty"`
	}{rep, requestID})
	if err != nil {
		return err
	}
	rest[0] = ',' // the object's '{' becomes the comma after "values_b64":[...]
	rest = append(rest, '\n')

	size := len(head) + len("]") + len(rest)
	for _, snap := range vals {
		size += len(`"",`) + base64.StdEncoding.EncodedLen(8*len(snap))
	}
	if len(vals) > 0 {
		size-- // no comma after the last snapshot
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)

	buf := encodeBufs.Get().(*encodeBuf)
	defer encodeBufs.Put(buf)
	bw := bodyWriter{w: w, buf: buf}
	bw.bytes(head)
	for i, snap := range vals {
		if i > 0 {
			bw.bytes([]byte{','})
		}
		bw.snapshot(snap)
	}
	bw.bytes([]byte{']'})
	bw.bytes(rest)
	bw.flush()
	return bw.err
}

// decodeChunkChars is how many base64 characters decodeSnapshot hands to
// base64.Decode at a time: 4096 characters are 3072 bytes are 384 values,
// so every chunk but the last ends on a value boundary.
const decodeChunkChars = 4096

// decodeSnapshot decodes one values_b64 element (the bytes between its
// quotes) into values. It accepts exactly what base64.StdEncoding accepts
// for the whole string, minus inputs with '\r' or '\n' in them: those the
// library skips, and JSON forbids them raw inside a string.
func decodeSnapshot(s []byte, snapshot int) ([]float64, error) {
	pad := 0
	for pad < 2 && pad < len(s) && s[len(s)-1-pad] == '=' {
		pad++
	}
	if len(s)%4 != 0 {
		return nil, megaerr.Invalidf("httpfront: snapshot %d values do not decode: %d base64 characters", snapshot, len(s))
	}
	size := len(s)/4*3 - pad
	if size%8 != 0 {
		return nil, megaerr.Invalidf("httpfront: snapshot %d values are %d bytes, not a float64 array", snapshot, size)
	}
	out := make([]float64, size/8)
	var raw [decodeChunkChars / 4 * 3]byte
	for o := 0; len(s) > 0; {
		chunk, want := s, size-8*o
		if len(chunk) > decodeChunkChars {
			chunk, want = chunk[:decodeChunkChars], len(raw)
		}
		n, err := base64.StdEncoding.Decode(raw[:], chunk)
		if err != nil {
			return nil, megaerr.Invalidf("httpfront: snapshot %d values do not decode: %v", snapshot, err)
		}
		if n != want {
			return nil, megaerr.Invalidf("httpfront: snapshot %d values do not decode: line break or padding inside the string", snapshot)
		}
		for j := 0; j < n; j += 8 {
			out[o] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j:]))
			o++
		}
		s = s[len(chunk):]
	}
	return out, nil
}

// scanner is a cursor over a response body. It tracks only what finding
// the values needs — string boundaries and nesting; everything it passes
// over outside the values is validated afterwards by encoding/json.
type scanner struct {
	b []byte
	i int
}

var errSyntax = megaerr.Invalidf("httpfront: bad response body: not the JSON object of a query result")

// peek skips JSON whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return c
		}
	}
	return 0
}

// expect consumes c, after whitespace.
func (s *scanner) expect(c byte) error {
	if s.peek() != c {
		return errSyntax
	}
	s.i++
	return nil
}

// str consumes a string and returns it raw, quotes included. escaped says
// whether a backslash occurs in it.
func (s *scanner) str() (raw []byte, escaped bool, err error) {
	if s.peek() != '"' {
		return nil, false, errSyntax
	}
	start := s.i
	s.i++
	end := bytes.IndexByte(s.b[s.i:], '"')
	if end < 0 {
		return nil, false, errSyntax
	}
	if esc := bytes.IndexByte(s.b[s.i:s.i+end], '\\'); esc >= 0 {
		// That quote may itself be escaped: walk the rest byte by byte.
		for s.i += esc; s.i < len(s.b); s.i++ {
			switch s.b[s.i] {
			case '\\':
				s.i++
			case '"':
				s.i++
				return s.b[start:s.i], true, nil
			}
		}
		return nil, false, errSyntax
	}
	s.i += end + 1
	return s.b[start:s.i], false, nil
}

// unquoted returns the string's content, through encoding/json when it
// holds escapes.
func unquoted(raw []byte, escaped bool) ([]byte, error) {
	if !escaped {
		return raw[1 : len(raw)-1], nil
	}
	var v string
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, errSyntax
	}
	return []byte(v), nil
}

// skip consumes one JSON value of any type.
func (s *scanner) skip() error {
	switch s.peek() {
	case '"':
		_, _, err := s.str()
		return err
	case '{', '[':
		for depth := 0; s.i < len(s.b); {
			switch s.b[s.i] {
			case '"':
				if _, _, err := s.str(); err != nil {
					return err
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			s.i++
			if depth == 0 {
				return nil
			}
		}
		return errSyntax
	case 0:
		return errSyntax
	default: // number or literal: runs to the next delimiter
		for s.i < len(s.b) {
			switch s.b[s.i] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return nil
			}
			s.i++
		}
		return nil
	}
}

// values consumes the values_b64 value: null, or an array of strings.
func (s *scanner) values() ([][]float64, error) {
	vals := [][]float64{}
	if s.peek() == 'n' {
		if !bytes.HasPrefix(s.b[s.i:], []byte("null")) {
			return nil, errSyntax
		}
		s.i += len("null")
		return vals, nil
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	if s.peek() == ']' {
		s.i++
		return vals, nil
	}
	for {
		raw, escaped, err := s.str()
		if err != nil {
			return nil, err
		}
		b64, err := unquoted(raw, escaped)
		if err != nil {
			return nil, err
		}
		snap, err := decodeSnapshot(b64, len(vals))
		if err != nil {
			return nil, err
		}
		vals = append(vals, snap)
		if s.peek() == ']' {
			s.i++
			return vals, nil
		}
		if err := s.expect(','); err != nil {
			return nil, err
		}
	}
}

// decodeQueryResponse is writeQueryResult's inverse, and accepts a subset
// of what json.Decoder + base64.DecodeString accept for the same struct,
// with the same result: a key that only case-folds to values_b64, a
// second values_b64, a null element, and anything but whitespace after
// the object are refused here though encoding/json would let them pass.
// Every refusal is ErrInvalidInput.
func decodeQueryResponse(body []byte) (*QueryResult, error) {
	s := scanner{b: body}
	if err := s.expect('{'); err != nil {
		return nil, err
	}
	vals := [][]float64{}
	valStart, valEnd := -1, -1
	for first := true; ; first = false {
		if first && s.peek() == '}' {
			s.i++
			break
		}
		raw, escaped, err := s.str()
		if err != nil {
			return nil, err
		}
		key, err := unquoted(raw, escaped)
		if err != nil {
			return nil, err
		}
		if err := s.expect(':'); err != nil {
			return nil, err
		}
		switch {
		case string(key) == valuesKey && valStart < 0:
			s.peek() // past the whitespace, so the cut below starts at the value
			valStart = s.i
			if vals, err = s.values(); err != nil {
				return nil, err
			}
			valEnd = s.i
		case bytes.EqualFold(key, []byte(valuesKey)):
			return nil, megaerr.Invalidf("httpfront: bad response body: a second or case-variant %s key", valuesKey)
		default:
			if err := s.skip(); err != nil {
				return nil, err
			}
		}
		if s.peek() == '}' {
			s.i++
			break
		}
		if err := s.expect(','); err != nil {
			return nil, err
		}
	}
	end := s.i
	if s.peek() != 0 || s.i != len(body) {
		return nil, megaerr.Invalidf("httpfront: bad response body: data after the JSON object")
	}

	// The envelope: the same object with the values cut out, so every
	// rule of encoding/json (field matching, duplicates, type errors)
	// applies to the small fields unchanged.
	envelope := body[:end]
	if valStart >= 0 {
		envelope = make([]byte, 0, valStart+len("null")+end-valEnd)
		envelope = append(envelope, body[:valStart]...)
		envelope = append(envelope, "null"...)
		envelope = append(envelope, body[valEnd:end]...)
	}
	var env struct {
		Snapshots int    `json:"snapshots"`
		Report    Report `json:"report"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(envelope, &env); err != nil {
		return nil, megaerr.Invalidf("httpfront: bad response body: %v", err)
	}
	return &QueryResult{Values: vals, Report: env.Report, RequestID: env.RequestID}, nil
}
