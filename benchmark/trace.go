package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request (or
// one ladder key) share Query; Parent is the span that caused this one
// (0 = none). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	queries int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newQuery returns the identifier the spans of one request share.
func (t *tracer) newQuery() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	return t.queries
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, query int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Query: query, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// reserve hands out an ID for a span whose children finish first.
func (t *tracer) reserve(name string, query int) int {
	now := time.Now()
	return t.add(name, 0, query, now, now)
}

// finish sets a reserved span's interval.
func (t *tracer) finish(id int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// reqTimes are the client-side instants of one traced request.
type reqTimes struct {
	wrote     time.Time // request fully written
	firstByte time.Time // first response byte
	bodyRead  time.Time // last body Read returned
}

type reqTimesKey struct{}

// withReqTimes arms ctx so the tracing transport fills rt for the request
// made under it.
func withReqTimes(ctx context.Context, rt *reqTimes) context.Context {
	ctx = context.WithValue(ctx, reqTimesKey{}, rt)
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { rt.wrote = time.Now() },
		GotFirstResponseByte: func() { rt.firstByte = time.Now() },
	})
}

// tracingTransport stamps reqTimes.bodyRead as the response body is
// consumed; requests without armed reqTimes pass through untouched.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if rt, ok := req.Context().Value(reqTimesKey{}).(*reqTimes); ok && err == nil {
		resp.Body = &timedBody{ReadCloser: resp.Body, rt: rt}
	}
	return resp, err
}

func (t tracingTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

type timedBody struct {
	io.ReadCloser
	rt *reqTimes
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	// The client drains the body after decoding; that read returns at most
	// the encoder's trailing newline and must not move the stamp.
	if n > 1 {
		b.rt.bodyRead = time.Now()
	}
	return n, err
}
