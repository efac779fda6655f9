// Package serve implements the HTTP/JSON query-serving layer behind
// cmd/gpssn-serve: a production front end over a gpssn.DB that adds what
// the library deliberately leaves to the caller — request admission,
// load shedding, per-request deadlines, request coalescing, and a
// drain-based shutdown — while translating the library's typed error
// contract (gpssn.ErrInvalidInput, ErrNoAnswer, ErrCancelled,
// ErrDeadlineExceeded, ErrInternal) into HTTP status codes.
//
// The serving pipeline for POST /v1/query and /v1/topk is, in order:
//
//  1. drain gate — a draining server rejects new work with 503 so an
//     orchestrator can stop routing to it (GET /healthz also flips);
//  2. admission control — at most Config.MaxInFlight executions run at
//     once; beyond that requests are shed with 429 and a Retry-After
//     hint instead of queueing without bound;
//  3. coalescing — identical in-flight requests (same issuer, query
//     parameters, budget, k and timeout) share one engine execution and
//     receive byte-identical responses (the flight type);
//  4. execution — DB.QueryCtx/QueryTopKCtx under a context carrying the
//     effective per-request deadline, with Query.Budget mapped straight
//     through.
//
// Every endpoint, knob, and status code is documented for operators in
// docs/SERVING.md; the concurrency and robustness contracts the server
// builds on are docs/CONCURRENCY.md and docs/ROBUSTNESS.md.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpssn"
)

// Config tunes a Server. The zero value serves with the defaults noted on
// each field; see docs/SERVING.md for tuning guidance.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (admission
	// control). Requests beyond the bound are shed with 429 + Retry-After
	// rather than queued. Default 128.
	MaxInFlight int
	// DefaultTimeout applies to requests that carry no timeout_ms field.
	// 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps every request's effective deadline, including
	// requests that asked for no deadline at all. 0 means no cap.
	MaxTimeout time.Duration
	// RetryAfter is the hint sent with 429 responses. Default 1s.
	RetryAfter time.Duration
	// Deprecated: no effect; kept because benchmark/run.go uses it
	GatherWindow time.Duration
	// Logf, when set, receives one diagnostic line per lifecycle event
	// (drain begin/end) and per internal error. nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 128
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Server serves GP-SSN queries over HTTP/JSON. Build one with New, mount
// Handler on an http.Server, and call Drain before exiting. Safe for
// concurrent use by any number of connections.
type Server struct {
	db    *gpssn.DB
	cfg   Config
	mux   *http.ServeMux
	slots chan struct{}
	fl    *flight
	met   metrics
	start time.Time

	draining atomic.Bool
	wg       sync.WaitGroup // in-flight query-endpoint requests

	// Execution seams: tests swap these to count or gate engine
	// executions; production always goes straight to the DB.
	execQuery func(ctx context.Context, user int, q gpssn.Query) (*gpssn.Answer, *gpssn.Stats, error)
	execTopK  func(ctx context.Context, user int, q gpssn.Query, k int) ([]gpssn.Answer, *gpssn.Stats, error)
}

// New builds a Server over an opened DB.
func New(db *gpssn.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:    db,
		cfg:   cfg,
		mux:   http.NewServeMux(),
		slots: make(chan struct{}, cfg.MaxInFlight),
		fl:    newFlight(),
		start: time.Now(),
	}
	s.execQuery = db.QueryCtx
	s.execTopK = db.QueryTopKCtx
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) { s.handleQueryEndpoint(w, r, false) })
	s.mux.HandleFunc("/v1/topk", func(w http.ResponseWriter, r *http.Request) { s.handleQueryEndpoint(w, r, true) })
	return s
}

// Handler returns the http.Handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into draining mode: /healthz turns 503 and
// new query requests are rejected with 503 code "draining", while
// requests already executing run to completion. Idempotent.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.cfg.logf("serve: draining: rejecting new requests")
	}
}

// Drain begins draining and blocks until every in-flight query request
// has completed, or until ctx fires (returning its error with requests
// still running). Call it on SIGTERM before shutting the http.Server down.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cfg.logf("serve: drain complete")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// acquire claims an admission slot without blocking; false means the
// server is saturated and the request must be shed.
func (s *Server) acquire() bool {
	select {
	case s.slots <- struct{}{}:
		s.met.InFlight.Add(1)
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	<-s.slots
	s.met.InFlight.Add(-1)
}

// healthzResponse is the JSON shape of GET /healthz.
type healthzResponse struct {
	Status          string   `json:"status"` // "ok" or "draining"
	OracleRequested string   `json:"oracle_requested"`
	OracleActive    string   `json:"oracle_active"`
	Degraded        bool     `json:"degraded"`
	Notes           []string `json:"notes,omitempty"`
	UptimeMs        int64    `json:"uptime_ms"`
}

// handleHealthz reports liveness + readiness. 200 means "route traffic
// here" — including degraded-oracle serving, which is exact, just slower
// (the degraded flag and notes surface it for monitoring). 503 means the
// server is draining and should be rotated out.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	h := s.db.Health()
	resp := healthzResponse{
		Status:          "ok",
		OracleRequested: h.OracleRequested,
		OracleActive:    h.OracleActive,
		Degraded:        h.Degraded,
		Notes:           h.Notes,
		UptimeMs:        time.Since(s.start).Milliseconds(),
	}
	status := http.StatusOK
	if s.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.snapshot())
}

// snapshot assembles the full /statsz payload: the server's own atomic
// counters, the live coalescing depth, and the DB's overlay, WAL and
// memory state.
func (s *Server) snapshot() metricsSnapshot {
	m := &s.met
	flKeys, flWaiters, flMax := s.fl.snapshot()
	snap := metricsSnapshot{
		UptimeMs:         time.Since(s.start).Milliseconds(),
		Requests:         m.Requests.Load(),
		Executed:         m.Executed.Load(),
		Coalesced:        m.Coalesced.Load(),
		CacheHits:        m.CacheHits.Load(),
		Shed:             m.Shed.Load(),
		DrainRejected:    m.DrainRejected.Load(),
		Found:            m.Found.Load(),
		NoAnswer:         m.NoAnswer.Load(),
		ClientGone:       m.ClientGone.Load(),
		Errors:           m.Errors.Load(),
		InFlight:         m.InFlight.Load(),
		MaxInFlight:      s.cfg.MaxInFlight,
		Draining:         s.Draining(),
		FlightKeys:       flKeys,
		FlightWaiters:    flWaiters,
		FlightMaxWaiters: flMax,
	}
	if ov := s.db.RoadOverlayStats(); ov.Active {
		snap.RoadOverlay = &roadOverlayJSON{
			NewVertices: ov.NewVerts,
			NewEdges:    ov.NewEdges,
			Portals:     ov.Portals,
		}
	}
	snap.Rebuilding = s.db.Health().Rebuilding
	if ws := s.db.WALStats(); ws.Enabled {
		snap.WAL = &walJSON{
			Path:             ws.Path,
			Sync:             ws.Sync,
			StartLSN:         ws.StartLSN,
			LastLSN:          ws.LastLSN,
			AppliedLSN:       ws.AppliedLSN,
			Pending:          ws.Pending,
			Bytes:            ws.Bytes,
			Appends:          ws.Appends,
			Fsyncs:           ws.Fsyncs,
			TornBytesDropped: ws.TornBytesDropped,
		}
	}
	ms := s.db.MemoryStats()
	snap.Memory = &memoryJSON{
		OracleBytes:   ms.OracleBytes,
		ArenaBytes:    ms.ArenaBytes,
		POILabelBytes: ms.POILabelBytes,
		HeapAlloc:     ms.HeapAlloc,
		HeapSys:       ms.HeapSys,
		NumGC:         ms.NumGC,
	}
	return snap
}

// handleQueryEndpoint is the shared pipeline of /v1/query and /v1/topk:
// drain gate, parse, coalesce, (admit + execute), respond.
func (s *Server) handleQueryEndpoint(w http.ResponseWriter, r *http.Request, topk bool) {
	s.met.Requests.Add(1)
	// The wg.Add must precede the drain re-check: either this request
	// observes draining and bails, or Drain observes the Add and waits.
	s.wg.Add(1)
	defer s.wg.Done()
	if s.Draining() {
		s.met.DrainRejected.Add(1)
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against another replica")
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST with a JSON body")
		return
	}
	req, err := parseRequest(w, r, topk)
	if err != nil {
		s.met.Errors.Add(1)
		writeError(w, http.StatusBadRequest, "invalid_input", err.Error())
		return
	}
	timeout := s.effectiveTimeout(req.TimeoutMs)

	res, coalesced, ok := s.fl.do(req.flightKey(topk, timeout), r.Context(), timeout,
		func(ctx context.Context) flightResult {
			return s.execute(ctx, req, topk)
		})
	if !ok {
		// The client went away before its (possibly shared) execution
		// finished; there is no one to write to.
		s.met.ClientGone.Add(1)
		return
	}
	if coalesced {
		s.met.Coalesced.Add(1)
		w.Header().Set("X-Gpssn-Coalesced", "1")
	}
	switch {
	case res.status == http.StatusTooManyRequests:
		s.met.Shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	case res.status >= 400 && res.status != http.StatusNotFound:
		s.met.Errors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// effectiveTimeout resolves a request's timeout_ms against the server's
// DefaultTimeout and MaxTimeout knobs.
func (s *Server) effectiveTimeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return d
}

// execute is the leader-side body of one coalesced call: admission, the
// engine call, and rendering the shared response bytes.
func (s *Server) execute(ctx context.Context, req *queryRequest, topk bool) flightResult {
	if !s.acquire() {
		return renderError(http.StatusTooManyRequests, "overloaded",
			fmt.Sprintf("server at its in-flight limit (%d); retry later", s.cfg.MaxInFlight))
	}
	defer s.release()
	s.met.Executed.Add(1)

	q := req.query()
	if topk {
		answers, st, err := s.execTopK(ctx, req.User, q, req.K)
		if err != nil {
			s.logInternal(err)
			return renderQueryError(err)
		}
		if st != nil && st.CacheHit {
			s.met.CacheHits.Add(1)
		}
		return renderJSON(http.StatusOK, topKResponse{
			Answers: answersJSON(answers),
			Stats:   statsJSON(st),
		})
	}
	ans, st, err := s.execQuery(ctx, req.User, q)
	if st != nil && st.CacheHit {
		s.met.CacheHits.Add(1)
	}
	if err != nil {
		if isNoAnswer(err) {
			s.met.NoAnswer.Add(1)
		}
		s.logInternal(err)
		return renderQueryError(err)
	}
	s.met.Found.Add(1)
	return renderJSON(http.StatusOK, queryResponse{
		Found:  true,
		Answer: answerJSON(*ans),
		Stats:  statsJSON(st),
	})
}

// logInternal records internal errors — the one error class whose detail
// (stack trace, query context) is kept off the wire — to the log sink.
func (s *Server) logInternal(err error) {
	if errors.Is(err, gpssn.ErrInternal) {
		s.cfg.logf("serve: internal error: %v", err)
	}
}

// writeJSON writes v as the whole response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Code: code})
}
