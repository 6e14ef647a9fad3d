package httpfront

// The codec for POST /v1/query 200 bodies, in its two forms.
//
// JSON, the default, is the object encoding/json produces for
//
//	{"snapshots":N,"values_b64":["<base64>",...],"report":{...},"request_id":"..."}\n
//
// byte for byte; only how the bytes are made is hand-written.
//
// Binary, sent only to a request whose Accept names valuesType, is
//
//	uint32 LE n | n bytes of {"lengths":[...],"report":{...},"request_id":"..."} | values
//
// where the values are each snapshot's lengths[i] Float64bits, 8 bytes
// little-endian apiece, snapshot after snapshot.
//
// In both, the small fields (report, request_id) go through encoding/json,
// so their escaping and field matching cannot drift, and the values — 99.9%
// of the body — go from the []float64 slices into a pooled fixed-size
// buffer on the way out. The Client reads only the binary form.

import (
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

// valuesKey is the JSON form's member the codec handles itself.
const valuesKey = "values_b64"

// valuesType is the media type of the binary form.
const valuesType = "application/vnd.mega.values"

// valuesEnvelope is the JSON head of the binary form.
type valuesEnvelope struct {
	Lengths   []int  `json:"lengths"`
	Report    Report `json:"report"`
	RequestID string `json:"request_id,omitempty"`
}

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

// startBody sends the header of a 200 whose body is size bytes of
// contentType and returns the writer for that body. Every length is known
// before the first byte, so Content-Length is always set and the body is
// never chunked.
func startBody(w http.ResponseWriter, contentType string, size int) bodyWriter {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)
	return bodyWriter{w: w, buf: encodeBufs.Get().(*encodeBuf)}
}

// finish flushes what is staged, returns the buffer to the pool and
// reports the first Write error. The status line is out by then, so there
// is nothing to send the caller — net/http closes the short response's
// connection.
func (bw *bodyWriter) finish() error {
	bw.flush()
	encodeBufs.Put(bw.buf)
	return bw.err
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

// floats writes snap's Float64bits, 8 bytes little-endian each.
func (bw *bodyWriter) floats(snap []float64) {
	for len(snap) > 0 && bw.err == nil {
		n := min((len(bw.buf.out)-bw.n)/8, len(snap))
		if n == 0 {
			bw.flush()
			continue
		}
		out := bw.buf.out[bw.n:]
		for j, v := range snap[:n] {
			binary.LittleEndian.PutUint64(out[8*j:], math.Float64bits(v))
		}
		bw.n += 8 * n
		snap = snap[n:]
	}
}

// writeQueryResult writes the JSON form of the 200 response of
// POST /v1/query and returns the first Write error.
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
	bw := startBody(w, "application/json", size)
	bw.bytes(head)
	for i, snap := range vals {
		if i > 0 {
			bw.bytes([]byte{','})
		}
		bw.snapshot(snap)
	}
	bw.bytes([]byte{']'})
	bw.bytes(rest)
	return bw.finish()
}

// writeQueryBinary writes the binary form of the 200 response of
// POST /v1/query and returns the first Write error.
func writeQueryBinary(w http.ResponseWriter, vals [][]float64, rep Report, requestID string) error {
	env := valuesEnvelope{Lengths: make([]int, len(vals)), Report: rep, RequestID: requestID}
	values := 0
	for i, snap := range vals {
		env.Lengths[i] = len(snap)
		values += len(snap)
	}
	head, err := json.Marshal(env)
	if err != nil {
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(head)))
	bw := startBody(w, valuesType, len(n)+len(head)+8*values)
	bw.bytes(n[:])
	bw.bytes(head)
	for _, snap := range vals {
		bw.floats(snap)
	}
	return bw.finish()
}

// decodeQueryResponse is writeQueryBinary's inverse. A body cut short,
// one that runs on past its last value, and lengths that disagree with
// the bytes there are refused; every refusal is ErrInvalidInput. The
// values are allocated once, in one array the snapshots share.
func decodeQueryResponse(body []byte) (*QueryResult, error) {
	if len(body) < 4 {
		return nil, megaerr.Invalidf("httpfront: bad response body: %d bytes, no envelope length", len(body))
	}
	n := binary.LittleEndian.Uint32(body)
	if uint64(n) > uint64(len(body)-4) {
		return nil, megaerr.Invalidf("httpfront: bad response body: a %d-byte envelope in %d bytes", n, len(body)-4)
	}
	var env valuesEnvelope
	if err := json.Unmarshal(body[4:4+n], &env); err != nil {
		return nil, megaerr.Invalidf("httpfront: bad response body: %v", err)
	}
	raw := body[4+n:]
	values := 0
	for i, l := range env.Lengths {
		if l < 0 || l > len(raw)/8-values {
			return nil, megaerr.Invalidf("httpfront: bad response body: snapshot %d claims %d values, %d bytes are left",
				i, l, len(raw)-8*values)
		}
		values += l
	}
	if 8*values != len(raw) {
		return nil, megaerr.Invalidf("httpfront: bad response body: %d values in %d bytes", values, len(raw))
	}
	all := make([]float64, values)
	for i := range all {
		all[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	vals := make([][]float64, len(env.Lengths))
	for i, l := range env.Lengths {
		vals[i], all = all[:l:l], all[l:]
	}
	return &QueryResult{Values: vals, Report: env.Report, RequestID: env.RequestID}, nil
}
