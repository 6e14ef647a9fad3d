package httpfront

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"mega/internal/megaerr"
	"mega/internal/serve"
)

// referenceEncode is the body the pre-codec server sent: json.Encoder
// over a queryResponse, base64 strings built by encodeValues.
func referenceEncode(t testing.TB, vals [][]float64, rep Report, requestID string) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(queryResponse{
		Snapshots: len(vals),
		ValuesB64: encodeValues(vals),
		Report:    rep,
		RequestID: requestID,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceDecode is what the pre-codec client did with a 200 body.
func referenceDecode(body []byte) (*QueryResult, error) {
	var qr queryResponse
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&qr); err != nil {
		return nil, megaerr.Invalidf("httpfront: bad response body: %v", err)
	}
	vals, err := decodeValues(qr.ValuesB64)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Values: vals, Report: qr.Report, RequestID: qr.RequestID}, nil
}

// writeFunc is the signature both forms' encoders share.
type writeFunc func(http.ResponseWriter, [][]float64, Report, string) error

// codecEncode is the JSON form's body for a result, from writeQueryResult.
func codecEncode(t testing.TB, vals [][]float64, rep Report, requestID string) []byte {
	t.Helper()
	return recordBody(t, writeQueryResult, vals, rep, requestID)
}

// binaryEncode is codecEncode for writeQueryBinary.
func binaryEncode(t testing.TB, vals [][]float64, rep Report, requestID string) []byte {
	t.Helper()
	return recordBody(t, writeQueryBinary, vals, rep, requestID)
}

// recordBody runs write against a recorder and checks the Content-Length
// it promised.
func recordBody(t testing.TB, write writeFunc, vals [][]float64, rep Report, requestID string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	if err := write(rec, vals, rep, requestID); err != nil {
		t.Fatal(err)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q on a body of %d bytes", got, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

func sameResult(a, b *QueryResult) error {
	if a.Report != b.Report || a.RequestID != b.RequestID {
		return fmt.Errorf("envelope differs: %+v %q vs %+v %q", a.Report, a.RequestID, b.Report, b.RequestID)
	}
	if len(a.Values) != len(b.Values) {
		return fmt.Errorf("%d snapshots vs %d", len(a.Values), len(b.Values))
	}
	for i := range a.Values {
		if len(a.Values[i]) != len(b.Values[i]) {
			return fmt.Errorf("snapshot %d: %d values vs %d", i, len(a.Values[i]), len(b.Values[i]))
		}
		for j := range a.Values[i] {
			if x, y := math.Float64bits(a.Values[i][j]), math.Float64bits(b.Values[i][j]); x != y {
				return fmt.Errorf("snapshot %d value %d: bits %x vs %x", i, j, x, y)
			}
		}
	}
	return nil
}

// allocBytesPerOp is the heap f allocates per call, after one warm-up
// call, averaged over n. Exact as long as nothing else in the process
// allocates meanwhile, which holds for this package's sequential tests.
func allocBytesPerOp(n int, f func()) int64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(n)
}

// awkwardFloats are the values JSON numbers could not carry or that a
// sloppy codec would normalise.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4dead0000beef),
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Float64frombits(0x3ff0000000000001),
}

func randomSnapshot(rng *rand.Rand, n int) []float64 {
	snap := make([]float64, n)
	for i := range snap {
		if rng.Intn(4) == 0 {
			snap[i] = awkwardFloats[rng.Intn(len(awkwardFloats))]
		} else {
			snap[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return snap
}

// pkValues is a PK′-shaped result: 16 snapshots of 3,200 vertices.
func pkValues(scale int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([][]float64, 16)
	for i := range vals {
		vals[i] = randomSnapshot(rng, 3200*scale)
	}
	return vals
}

// TestWireEncodeMatchesEncodingJSON is the byte-identity property: for
// generated value sets and envelopes, writeQueryResult's output is
// json.Encoder's for the same queryResponse. It is also the round-trip
// property of the binary form: the binary decode of the binary encode is
// the reference JSON decode of the JSON encode, to the bit.
func TestWireEncodeMatchesEncodingJSON(t *testing.T) {
	triples := encodeOutBytes / 32 * 3 // values per full staging buffer
	shapes := [][]int{
		nil,                // empty window
		{0},                // one empty snapshot
		{0, 0, 0},          // only empty snapshots
		{1}, {2}, {3}, {4}, // around the 3-byte base64 group
		{1, 2, 3, 4, 0, 5},
		{triples - 1}, {triples}, {triples + 1}, // around one staging buffer
		{triples - 7, 3, 0, triples + 2, 1},
		{3 * triples, 1},
		{3200, 3200, 3200},
	}
	requestIDs := []string{
		"", "17c3-42", `quote"back\slash`, "<script>&amp;</script>",
		"line\u2028sep\u2029", "tab\tnew\nline\x00nul", "bad\xff\xfeutf8", "héllo→世界",
	}
	reports := []Report{
		{},
		{Engine: "cache", Cache: "hit", Attempts: 0, QueueWait: Duration(61 * time.Microsecond)},
		{Engine: `mul"ti<`, Attempts: 2,
			Resumed: true, QueueWait: Duration(time.Second), RunTime: Duration(3 * time.Millisecond)},
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ { // plus random shapes
		shape := make([]int, rng.Intn(6))
		for j := range shape {
			shape[j] = rng.Intn(9000)
		}
		shapes = append(shapes, shape)
	}
	for i, shape := range shapes {
		vals := make([][]float64, len(shape))
		for j, n := range shape {
			vals[j] = randomSnapshot(rng, n)
		}
		rep, id := reports[i%len(reports)], requestIDs[i%len(requestIDs)]
		got, want := codecEncode(t, vals, rep, id), referenceEncode(t, vals, rep, id)
		if !bytes.Equal(got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			t.Fatalf("shape %v id %q: %d bytes vs encoding/json's %d, first difference at %d", shape, id, len(got), len(want), at)
		}
		res, err := decodeQueryResponse(binaryEncode(t, vals, rep, id))
		if err != nil {
			t.Fatalf("shape %v: codec refuses its own body: %v", shape, err)
		}
		ref, err := referenceDecode(got)
		if err != nil {
			t.Fatalf("shape %v: reference refuses the body: %v", shape, err)
		}
		if err := sameResult(res, ref); err != nil {
			t.Fatalf("shape %v: codec vs reference: %v", shape, err)
		}
		if err := sameResult(res, &QueryResult{Values: vals, Report: ref.Report, RequestID: ref.RequestID}); err != nil {
			t.Fatalf("shape %v: round trip: %v", shape, err)
		}
	}
}

// frame builds a binary body by hand: env as the envelope, then raw.
func frame(env string, raw ...byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(env)))
	return append(append(b, env...), raw...)
}

// bits is vs as the binary form's value section.
func bits(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// cornerBody is a body the encoder never produces and what the decoder
// must make of it: want nil means it is refused with ErrInvalidInput.
type cornerBody struct {
	name string
	body []byte
	want *QueryResult
}

// cornerBodies are the decoder's corner table, and seeds of its fuzz target.
func cornerBodies(t testing.TB) []cornerBody {
	inf, nan := math.Inf(1), math.NaN()
	return []cornerBody{
		{"reordered", frame(`{"request_id":"r","report":{"engine":"x","attempts":1,"queue_wait":"1ms","run_time":5},"lengths":[1,0,2]}`, bits(1, inf, nan)...),
			&QueryResult{[][]float64{{1}, {}, {inf, nan}}, Report{Engine: "x", Attempts: 1, QueueWait: Duration(time.Millisecond), RunTime: 5}, "r"}},
		{"unknown keys, whitespace", frame(" {\"later\":{\"a\":[1,\"]}\"]},\n\"lengths\" : [ 1 ] }\n", bits(-2.5)...),
			&QueryResult{[][]float64{{-2.5}}, Report{}, ""}},
		{"escaped key", frame(`{"len\u0067ths":[0,1]}`, bits(inf)...), &QueryResult{[][]float64{{}, {inf}}, Report{}, ""}},
		{"null lengths", frame(`{"lengths":null}`), &QueryResult{[][]float64{}, Report{}, ""}},
		{"no lengths", frame(`{}`), &QueryResult{[][]float64{}, Report{}, ""}},
		{"empty", nil, nil},
		{"short frame header", []byte{2, 0, 0}, nil},
		{"envelope past the end", append(binary.LittleEndian.AppendUint32(nil, 100), `{"lengths":[]}`...), nil},
		{"envelope length 2^32-1", append(binary.LittleEndian.AppendUint32(nil, math.MaxUint32), `{}`...), nil},
		{"envelope not JSON", frame(`{lengths`), nil},
		{"envelope not an object", frame(`[]`), nil},
		{"data after envelope", frame(`{"lengths":[]}x`), nil},
		{"lengths not an array", frame(`{"lengths":3}`, bits(1, 2, 3)...), nil},
		{"negative length", frame(`{"lengths":[-1]}`, bits(1)...), nil},
		{"length past int64", frame(`{"lengths":[99999999999999999999]}`, bits(1)...), nil},
		{"length past the body", frame(`{"lengths":[4611686018427387904]}`, bits(1)...), nil},
		{"lengths that wrap", frame(`{"lengths":[9223372036854775807,9223372036854775807,2]}`, bits(1, 2)...), nil},
		{"short value section", frame(`{"lengths":[2]}`, bits(1)...), nil},
		{"long value section", frame(`{"lengths":[1]}`, bits(1, 2)...), nil},
		{"ragged value section", frame(`{"lengths":[1]}`, append(bits(1), 0)...), nil},
		{"values with no lengths", frame(`{}`, bits(1)...), nil},
		{"bad report", frame(`{"lengths":[],"report":{"queue_wait":"soon"}}`), nil},
		{"a JSON-form body", codecEncode(t, [][]float64{{1}}, Report{}, ""), nil},
	}
}

// TestDecodeQueryResponseCorners pins the decisions the decoder makes on
// bodies the encoder never produces.
func TestDecodeQueryResponseCorners(t *testing.T) {
	for _, tc := range cornerBodies(t) {
		res, err := decodeQueryResponse(tc.body)
		if tc.want == nil {
			if !errors.Is(err, megaerr.ErrInvalidInput) {
				t.Errorf("%s: err = %v, want ErrInvalidInput", tc.name, err)
			}
		} else if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if err := sameResult(res, tc.want); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// FuzzDecodeQueryResponse: on any body the decoder returns a result or
// ErrInvalidInput, never panics, allocates in proportion to the body, and
// what it accepts survives a re-encode to the same bits.
func FuzzDecodeQueryResponse(f *testing.F) {
	small := binaryEncode(f, [][]float64{awkwardFloats, {}, {1, math.Inf(1)}},
		Report{Engine: "sequential", Attempts: 1, RunTime: Duration(time.Millisecond)}, `id"<`)
	for cut := 0; cut <= len(small); cut++ { // truncation at every offset
		f.Add(small[:cut])
	}
	f.Add(append(small, 0))
	for _, tc := range cornerBodies(f) {
		f.Add(tc.body)
	}
	f.Add(frame(`{"lengths":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`))
	f.Add(frame(`{"lengths":[],"report":{"engine":"a"},"report":{"cache":"hit"},"REQUEST_ID":"x"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		res, err := decodeQueryResponse(body)
		// The factor's worst case is an envelope of zero lengths: 2 bytes
		// ("0,") buy an 8-byte int and a 24-byte slice header, and append's
		// doubling allocates the ints ~2 times.
		got := allocBytesPerOp(1, func() { decodeQueryResponse(body) })
		if limit := int64(64*len(body) + 16<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(body), got, limit)
		}
		if err != nil {
			if !errors.Is(err, megaerr.ErrInvalidInput) {
				t.Fatalf("refusal is not ErrInvalidInput: %v", err)
			}
			return
		}
		again, err := decodeQueryResponse(binaryEncode(t, res.Values, res.Report, res.RequestID))
		if err != nil {
			t.Fatalf("re-encoded result refused: %v", err)
		}
		if err := sameResult(res, again); err != nil {
			t.Fatalf("re-encoded result differs: %v", err)
		}
	})
}

// stripContentLength makes net/http fall back to chunked transfer, as a
// proxy that re-frames the response would.
type stripContentLength struct{ http.ResponseWriter }

func (w stripContentLength) WriteHeader(code int) {
	w.Header().Del("Content-Length")
	w.ResponseWriter.WriteHeader(code)
	// Headers on the wire before the body: net/http can no longer count
	// a short body itself and must chunk.
	w.ResponseWriter.(http.Flusher).Flush()
}

// TestClientBodyFraming is the loopback check of the two framings the
// codec does not produce itself: no Content-Length at all, and a
// Content-Length larger than what arrives.
func TestClientBodyFraming(t *testing.T) {
	s, _ := newTestFront(t, nil, nil, nil)
	chunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(stripContentLength{w}, r)
	}))
	defer chunked.Close()
	c, _ := newTestClient(t, chunked.URL, nil)
	res, err := c.Query(context.Background(), QuerySpec{Algo: "SSSP", Source: 0})
	if err != nil {
		t.Fatalf("chunked response: %v", err)
	}
	want := [][]float64{{0, 1, math.Inf(1)}, {0, 1, 1}}
	if err := sameResult(res, &QueryResult{Values: want, Report: res.Report, RequestID: res.RequestID}); err != nil {
		t.Errorf("chunked response: %v", err)
	}
	resp, err := http.Post(chunked.URL+"/v1/query", "application/json", bytes.NewReader([]byte(`{"algo":"SSSP"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != -1 {
		t.Fatalf("the wrapped handler still sent Content-Length %d; the test exercised nothing", resp.ContentLength)
	}

	body := binaryEncode(t, pkValues(1), Report{Engine: "sequential", Attempts: 1}, "short")
	var calls atomic.Int32
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", valuesType)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		w.Write(body[:len(body)/2]) // net/http closes the connection on the short write
	}))
	defer short.Close()
	c, sleeps := newTestClient(t, short.URL, nil)
	_, err = c.Query(context.Background(), QuerySpec{Algo: "SSSP", Source: 0})
	if !errors.Is(err, megaerr.ErrInvalidInput) {
		t.Errorf("truncated body: err = %v, want ErrInvalidInput", err)
	}
	if calls.Load() != 1 || len(*sleeps) != 0 {
		t.Errorf("truncated body: %d attempts, %d back-offs; want 1 and 0 (not retryable)", calls.Load(), len(*sleeps))
	}
}

// TestReadBodyTracksBytesReceived pins the allocation rule: a huge
// Content-Length on a tiny body costs the first allocation's cap and no
// more, and a body without one still arrives whole.
func TestReadBodyTracksBytesReceived(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 3<<20)
	for _, claimed := range []int64{-1, 0, 10, int64(len(payload)), maxResponseBytes, 1 << 40} {
		got, err := readBody(bytes.NewReader(payload), claimed)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("claimed %d: %d bytes, err %v", claimed, len(got), err)
		}
	}
	huge := int64(1 << 40)
	if got := allocBytesPerOp(10, func() { readBody(bytes.NewReader(payload[:100]), huge) }); got > bodyTrustBytes+16<<10 { // the runtime rounds the buffer up to whole pages
		t.Errorf("a 100-byte body claiming 1 TiB allocated %d bytes", got)
	}
	got := allocBytesPerOp(10, func() { readBody(bytes.NewReader(payload), huge) })
	if limit := int64((bodyTrustFactor + 2) * len(payload)); got > limit {
		t.Errorf("a %d-byte body claiming 1 TiB allocated %d bytes, over %d", len(payload), got, limit)
	}
	if _, err := readBody(io.MultiReader(bytes.NewReader(payload), errReader{}), int64(2*len(payload))); !errors.Is(err, megaerr.ErrInvalidInput) {
		t.Errorf("mid-body failure: err = %v, want ErrInvalidInput", err)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// failingWriter is a ResponseWriter whose connection dies after limit
// body bytes.
type failingWriter struct {
	header       http.Header
	limit, wrote int
	failedWrites int
}

func (w *failingWriter) Header() http.Header { return w.header }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.limit {
		w.failedWrites++
		return 0, errors.New("connection reset by peer")
	}
	w.wrote += len(p)
	return len(p), nil
}

// TestResponseWriteErrorStopsEncoding: when the caller hangs up mid-body
// the encoder of either form gives up at the first failed Write instead of
// encoding the remaining snapshots into a dead connection, and the failure
// is counted.
func TestResponseWriteErrorStopsEncoding(t *testing.T) {
	big := pkValues(1)
	run := func(context.Context, *serve.Request) ([][]float64, serve.RunReport, error) {
		return big, serve.RunReport{Attempts: 1}, nil
	}
	for _, accept := range []string{"", valuesType} {
		s, _ := newTestFront(t, run, nil, nil)
		w := &failingWriter{header: http.Header{}, limit: 100 << 10}
		r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader([]byte(`{"algo":"SSSP"}`)))
		r.Header.Set("Accept", accept)
		s.Handler().ServeHTTP(w, r)
		if w.failedWrites != 1 {
			t.Errorf("Accept %q: %d Writes failed; want the encoder to stop after the first", accept, w.failedWrites)
		}
		if n := s.reg.Counter("http_response_write_errors").Value(); n != 1 {
			t.Errorf("Accept %q: http_response_write_errors = %d, want 1", accept, n)
		}
		if n := s.reg.Counter("http_responses", "status", "200").Value(); n != 1 {
			t.Errorf("Accept %q: http_responses{200} = %d, want 1 (the status line was out)", accept, n)
		}
	}
}

// discardResponse is the cheapest possible ResponseWriter: what is left
// in an encode benchmark is the codec.
type discardResponse struct{ header http.Header }

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) WriteHeader(int)             {}
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

func benchWireEncode(b *testing.B, write writeFunc) {
	vals := pkValues(1)
	rep := Report{Engine: "cache", Cache: "hit", QueueWait: Duration(61 * time.Microsecond)}
	w := &discardResponse{header: http.Header{}}
	b.SetBytes(int64(len(recordBody(b, write, vals, rep, "17c3-42"))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(w, vals, rep, "17c3-42"); err != nil {
			b.Fatal(err)
		}
	}
}

// clientDecode is what a client does with a 200 response from the socket
// onward: read the body into one buffer, decode it.
func clientDecode(t testing.TB, body []byte, decode func([]byte) (*QueryResult, error)) {
	raw, err := readBody(bytes.NewReader(body), int64(len(body)))
	if err == nil {
		_, err = decode(raw)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func benchWireDecode(b *testing.B, write writeFunc, decode func([]byte) (*QueryResult, error)) {
	body := recordBody(b, write, pkValues(1), Report{Engine: "cache", Cache: "hit"}, "17c3-42")
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clientDecode(b, body, decode)
	}
}

// The httpfront rows of the cost ledger (ROADMAP item 2): one PK′-sized
// result (16 snapshots × 3,200 values; a 546 KB JSON body, a 410 KB
// binary one) through each half of the codec. The JSON form is decoded
// the way a Go caller without this package would, by encoding/json.
func BenchmarkLayerWireEncode(b *testing.B)       { benchWireEncode(b, writeQueryResult) }
func BenchmarkLayerWireEncodeBinary(b *testing.B) { benchWireEncode(b, writeQueryBinary) }
func BenchmarkLayerWireDecode(b *testing.B)       { benchWireDecode(b, writeQueryResult, referenceDecode) }
func BenchmarkLayerWireDecodeBinary(b *testing.B) {
	benchWireDecode(b, writeQueryBinary, decodeQueryResponse)
}

// TestWireCodecAllocs is the deterministic proxy gate for the wire path
// (wired into ci.sh): encoding either form allocates a small constant
// whatever the body size — the values never pass through a per-response
// buffer — and decoding allocates the values, the one body buffer, and
// little else.
func TestWireCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("B/op under -race is the detector's, not the codec's")
	}
	// ~400 B steady state. The slack is for the staging buffer itself: a
	// goroutine that changes Ps between Get and Put misses the pool's
	// per-P slot and allocates a fresh 112 KiB one, a few times in 50 runs
	// on a busy host. Still two orders of magnitude under the larger body.
	const encodeLimit = 32 << 10
	for _, scale := range []int{1, 8} {
		vals := pkValues(scale)
		values := 16 * 3200 * scale
		rep := Report{Engine: "cache", Cache: "hit", QueueWait: Duration(61 * time.Microsecond)}
		w := &discardResponse{header: http.Header{}}
		for _, write := range []writeFunc{writeQueryResult, writeQueryBinary} {
			if enc := allocBytesPerOp(50, func() { write(w, vals, rep, "17c3-42") }); enc > encodeLimit {
				t.Errorf("encoding %d values allocates %d B/op, over the %d-byte constant", values, enc, encodeLimit)
			}
		}
		body := binaryEncode(t, vals, rep, "17c3-42")
		dec := allocBytesPerOp(20, func() { clientDecode(t, body, decodeQueryResponse) })
		t.Logf("%d values, %d-byte body: decode %d B/op", values, len(body), dec)
		limit := int64(1.1*float64(8*values)) + int64(len(body)) + 4<<10
		if len(body) > bodyTrustBytes {
			limit += bodyTrustBytes + 4<<10 // the first buffer, outgrown once
		}
		if dec > limit {
			t.Errorf("decoding %d values allocates %d B/op, over 1.1 x 8 x values + the body buffer = %d", values, dec, limit)
		}
	}
}
