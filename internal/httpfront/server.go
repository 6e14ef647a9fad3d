package httpfront

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mega/internal/algo"
	"mega/internal/evolve"
	"mega/internal/fault"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/metrics"
	"mega/internal/serve"
)

// Server hardening defaults. Every timeout is finite by default: an
// unset deadline on a network-facing server is an unbounded resource.
const (
	defaultMaxBodyBytes      = 1 << 20  // query specs are small
	defaultMaxHeaderBytes    = 64 << 10 // http.DefaultMaxHeaderBytes is 1MB; specs need far less
	defaultReadHeaderTimeout = 5 * time.Second
	defaultReadTimeout       = 30 * time.Second
	defaultWriteTimeout      = 2 * time.Minute // must outlive the longest admitted query deadline
	defaultIdleTimeout       = 2 * time.Minute
)

// Config parameterizes a Server. Service and Window are required; every
// zero field selects a hardened default.
type Config struct {
	// Service is the admission-controlled query service to adapt.
	Service *serve.Service
	// Window is the shared evolving-graph window queries answer over.
	Window *evolve.Window
	// Metrics, when non-nil, receives the front end's request/connection
	// instruments (a private registry is used otherwise, so instruments
	// always resolve).
	Metrics *metrics.Registry
	// MaxBodyBytes bounds request bodies via http.MaxBytesReader (0 = 1MB).
	MaxBodyBytes int64
	// MaxHeaderBytes bounds request headers (0 = 64KB).
	MaxHeaderBytes int
	// ReadHeaderTimeout, ReadTimeout, WriteTimeout, and IdleTimeout
	// harden the embedded http.Server (0 = 5s / 30s / 2m / 2m).
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
	// AllowFaultInjection honors QuerySpec.Faults (deterministic fault
	// plans for chaos testing). Off by default: production servers must
	// reject caller-supplied faults as invalid input.
	AllowFaultInjection bool
	// FaultSeed seeds injected fault plans when the spec leaves
	// fault_seed zero.
	FaultSeed int64
}

// Server adapts a serve.Service to HTTP. Construct with New, run with
// Serve, stop with Shutdown (ordered drain). Handlers are safe for
// concurrent use; Server owns its embedded http.Server so connection
// state and timeouts stay under one roof.
type Server struct {
	cfg Config
	svc *serve.Service
	win *evolve.Window
	reg *metrics.Registry
	hs  *http.Server

	draining atomic.Bool
	reqSeq   atomic.Uint64
	idBase   string

	gInflight    *metrics.Gauge
	gConns       *metrics.Gauge
	cRequests    *metrics.Counter
	cPanics      *metrics.Counter
	cWriteErrors *metrics.Counter
	hNanos       *metrics.Histogram
	// cResponses caches http_responses{status} per three-digit status, so
	// only a status's first response pays the label formatting and the
	// registry lookup.
	cResponses [1000]atomic.Pointer[metrics.Counter]
}

// New validates cfg and builds a Server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Service == nil {
		return nil, megaerr.Invalidf("httpfront: Config.Service is required")
	}
	if cfg.Window == nil {
		return nil, megaerr.Invalidf("httpfront: Config.Window is required")
	}
	if cfg.MaxBodyBytes < 0 || cfg.MaxHeaderBytes < 0 {
		return nil, megaerr.Invalidf("httpfront: negative MaxBodyBytes (%d) or MaxHeaderBytes (%d)",
			cfg.MaxBodyBytes, cfg.MaxHeaderBytes)
	}
	if cfg.ReadHeaderTimeout < 0 || cfg.ReadTimeout < 0 || cfg.WriteTimeout < 0 || cfg.IdleTimeout < 0 {
		return nil, megaerr.Invalidf("httpfront: negative server timeout (%s %s %s %s)",
			cfg.ReadHeaderTimeout, cfg.ReadTimeout, cfg.WriteTimeout, cfg.IdleTimeout)
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.MaxHeaderBytes == 0 {
		cfg.MaxHeaderBytes = defaultMaxHeaderBytes
	}
	if cfg.ReadHeaderTimeout == 0 {
		cfg.ReadHeaderTimeout = defaultReadHeaderTimeout
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = defaultReadTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = defaultIdleTimeout
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	s := &Server{
		cfg:    cfg,
		svc:    cfg.Service,
		win:    cfg.Window,
		reg:    reg,
		idBase: fmt.Sprintf("%x", time.Now().UnixNano()),

		gInflight:    reg.Gauge("http_inflight_requests"),
		gConns:       reg.Gauge("http_open_connections"),
		cRequests:    reg.Counter("http_requests"),
		cPanics:      reg.Counter("http_handler_panics"),
		cWriteErrors: reg.Counter("http_response_write_errors"),
		hNanos:       reg.Histogram("http_request_nanos"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /stats", s.handleStats)
	s.hs = &http.Server{
		Handler:           s.middleware(mux),
		MaxHeaderBytes:    cfg.MaxHeaderBytes,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
		ConnState:         s.trackConn,
	}
	return s, nil
}

// Handler returns the middleware-wrapped route table — what the embedded
// http.Server serves. Exposed for in-process tests (httptest).
func (s *Server) Handler() http.Handler { return s.hs.Handler }

// Serve accepts connections on ln until Shutdown. A clean shutdown
// returns nil (http.ErrServerClosed is the expected exit, not an error).
func (s *Server) Serve(ln net.Listener) error {
	err := s.hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown performs the ordered drain: readiness flips false immediately,
// the HTTP layer stops accepting and waits for in-flight handlers (whose
// queries keep running through the still-serving service), then the query
// service itself drains — queued requests fail typed, in-flight runs get
// until ctx to finish, stragglers are canceled and joined. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	herr := s.hs.Shutdown(ctx)
	cerr := s.svc.Close(ctx)
	return errors.Join(herr, cerr)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// trackConn keeps the open-connection gauge: every accepted conn counts
// until it closes or is hijacked.
func (s *Server) trackConn(c net.Conn, state http.ConnState) {
	switch state {
	case http.StateNew:
		s.gConns.Add(1)
	case http.StateClosed, http.StateHijacked:
		s.gConns.Add(-1)
	}
}

// ctxKeyRequestID carries the request ID through handler contexts.
type ctxKeyRequestID struct{}

func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return id
}

func (s *Server) nextRequestID() string {
	return s.idBase + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}

// statusWriter records the response status so the middleware can label
// metrics and know whether a panicking handler already wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// middleware wraps every route with the hardening shell: request-ID
// propagation (X-Request-Id in, echoed out), the in-flight gauge, the
// request histogram and per-status counters, and a recovery layer that
// converts a handler panic into a 500 instead of killing the process.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = s.nextRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID{}, id))

		s.cRequests.Inc()
		s.gInflight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				s.cPanics.Inc()
				sw.status = http.StatusInternalServerError
				if !sw.wrote {
					s.reply(sw, http.StatusInternalServerError, errorBody{Error: wireError{
						Kind:      kindPanic,
						Message:   fmt.Sprintf("httpfront: handler panic: %v", rec),
						RequestID: id,
					}})
				}
			}
			s.gInflight.Add(-1)
			s.hNanos.Observe(time.Since(start).Nanoseconds())
			s.responseCounter(sw.status).Inc()
		}()
		next.ServeHTTP(sw, r)
	})
}

// responseCounter resolves http_responses{status}, through cResponses
// for every status net/http lets a handler send.
func (s *Server) responseCounter(status int) *metrics.Counter {
	cached := status >= 0 && status < len(s.cResponses)
	if cached {
		if c := s.cResponses[status].Load(); c != nil {
			return c
		}
	}
	c := s.reg.Counter("http_responses", "status", strconv.Itoa(status))
	if cached {
		s.cResponses[status].Store(c)
	}
	return c
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// reply is writeJSON with a failed write counted: the status line is
// out by then, so the counter is all that can still record it.
func (s *Server) reply(w http.ResponseWriter, status int, v any) {
	if err := writeJSON(w, status, v); err != nil {
		s.cWriteErrors.Inc()
	}
}

// writeError maps err to its status code and structured body, setting
// Retry-After on overload and drain responses so well-behaved clients
// back off by the server's own estimate.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, we := encodeError(err, s.draining.Load())
	we.RequestID = requestIDFrom(r.Context())
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		ms := we.RetryAfterMs
		if ms <= 0 {
			ms = serve.RetryAfterHint(s.svc.Stats()).Milliseconds()
			we.RetryAfterMs = ms
		}
		// Retry-After is whole seconds; round up so clients never retry
		// earlier than the hint.
		w.Header().Set("Retry-After", strconv.FormatInt((ms+999)/1000, 10))
	}
	s.reply(w, status, errorBody{Error: we})
}

// handleQuery answers POST /v1/query: decode and validate the spec,
// submit through the service under the request's context (so a caller
// hanging up cancels the query), and encode the result — in the form
// Accept picks — or the typed failure, which is always JSON.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var spec QuerySpec
	if err := dec.Decode(&spec); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			we := wireError{
				Kind:      kindInvalid,
				Message:   fmt.Sprintf("httpfront: request body exceeds %d bytes", s.cfg.MaxBodyBytes),
				RequestID: requestIDFrom(r.Context()),
			}
			s.reply(w, http.StatusRequestEntityTooLarge, errorBody{Error: we})
			return
		}
		s.writeError(w, r, megaerr.Invalidf("httpfront: bad query body: %v", err))
		return
	}
	tenant, err := tenantFromHeader(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	spec.Tenant = tenant
	tlabel := tenant
	if tlabel == "" {
		tlabel = serve.DefaultTenantName
	}
	s.reg.Counter("http_query_requests", "tenant", tlabel).Inc()
	req, plan, err := s.buildRequest(r.Context(), &spec)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx := r.Context()
	if plan != nil {
		ctx = fault.Inject(ctx, plan)
	}
	res, err := s.svc.Submit(ctx, req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	write := writeQueryResult
	if acceptsValues(r.Header) {
		write = writeQueryBinary
	}
	w.Header().Set("Vary", "Accept")
	if err := write(w, res.Values, reportFromServe(res.Report), requestIDFrom(r.Context())); err != nil {
		s.cWriteErrors.Inc()
	}
}

// acceptsValues reports whether the request's Accept header names
// valuesType with a q other than 0; a range or a q that does not parse
// counts as not naming it. A wildcard does not name it either: only a
// caller that knows the binary form gets it, and everyone else — curl, a
// browser, any JSON client — keeps getting the JSON form.
func acceptsValues(h http.Header) bool {
	for _, field := range h.Values("Accept") {
		for _, rng := range strings.Split(field, ",") {
			mt, params, err := mime.ParseMediaType(rng)
			if err != nil || mt != valuesType {
				continue
			}
			if q, ok := params["q"]; ok {
				if f, err := strconv.ParseFloat(q, 64); err != nil || !(f > 0) {
					continue
				}
			}
			return true
		}
	}
	return false
}

// tenantFromHeader reads and validates the X-Mega-Tenant header. An
// absent header selects the default tenant; a header that is present but
// empty after trimming, over-length, or carrying control characters is
// ErrInvalidInput (the serve-layer tenant grammar, checked here so the
// failure is a 400 before any admission accounting happens).
func tenantFromHeader(r *http.Request) (string, error) {
	vals := r.Header.Values(TenantHeader)
	if len(vals) == 0 {
		return "", nil
	}
	if len(vals) > 1 {
		return "", megaerr.Invalidf("httpfront: %s header repeated %d times", TenantHeader, len(vals))
	}
	tenant := strings.TrimSpace(vals[0])
	if tenant == "" {
		return "", megaerr.Invalidf("httpfront: %s header is present but empty", TenantHeader)
	}
	if err := serve.ValidateTenant(tenant); err != nil {
		return "", err
	}
	return tenant, nil
}

// buildRequest validates the wire spec against the server's window and
// converts it to a serve.Request. Every rejection is ErrInvalidInput.
func (s *Server) buildRequest(ctx context.Context, spec *QuerySpec) (serve.Request, *fault.Plan, error) {
	var req serve.Request
	kind, err := algo.ParseKind(spec.Algo)
	if err != nil {
		// algo returns a plain error; the wire contract needs the typed class.
		return req, nil, megaerr.Invalidf("%v", err)
	}
	if n := int64(s.win.NumVertices()); spec.Source < 0 || spec.Source >= n {
		return req, nil, megaerr.Invalidf("httpfront: source %d out of range [0, %d)", spec.Source, n)
	}
	prio, err := serve.ParsePriority(spec.Priority)
	if err != nil {
		return req, nil, err
	}
	if spec.Deadline < 0 || spec.QueueTimeout < 0 {
		return req, nil, megaerr.Invalidf("httpfront: negative deadline (%s) or queue timeout (%s)",
			time.Duration(spec.Deadline), time.Duration(spec.QueueTimeout))
	}
	var plan *fault.Plan
	if len(spec.Faults) > 0 {
		if !s.cfg.AllowFaultInjection {
			return req, nil, megaerr.Invalidf("httpfront: fault injection is disabled on this server")
		}
		seed := spec.FaultSeed
		if seed == 0 {
			seed = s.cfg.FaultSeed
		}
		plan = fault.NewPlan(seed)
		for _, fs := range spec.Faults {
			op, perr := fault.ParseOp(fs)
			if perr != nil {
				return req, nil, perr
			}
			plan.Add(op)
		}
	}
	label := spec.Label
	if label == "" {
		label = requestIDFrom(ctx)
	}
	req = serve.Request{
		Window:       s.win,
		Algo:         kind,
		Source:       graph.VertexID(spec.Source),
		Tenant:       spec.Tenant,
		Priority:     prio,
		Deadline:     time.Duration(spec.Deadline),
		QueueTimeout: time.Duration(spec.QueueTimeout),
		Label:        label,
	}
	return req, plan, nil
}

// handleHealthz reports process liveness: the handler answering is the
// signal, so it is unconditionally ok — even while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, healthReply{OK: true})
}

// handleReadyz reports admission readiness: false (503) the moment a
// drain begins, whether via Shutdown or a direct service Close, so load
// balancers stop routing before the listener disappears.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state := s.svc.Stats().State
	if s.draining.Load() && state == "serving" {
		state = "draining"
	}
	if state == "serving" {
		s.reply(w, http.StatusOK, healthReply{OK: true, State: state})
		return
	}
	s.reply(w, http.StatusServiceUnavailable, healthReply{OK: false, State: state})
}

// handleMetrics serves the registry's deterministic JSON snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.WriteJSON(w); err != nil {
		s.cWriteErrors.Inc()
	}
}

// handleStats serves the service accounting snapshot plus the current
// overload back-off estimate.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	s.reply(w, http.StatusOK, StatsReply{
		Stats:            st,
		RetryAfterHintMs: serve.RetryAfterHint(st).Milliseconds(),
	})
}
