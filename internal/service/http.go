package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"github.com/eda-go/adifo/internal/obs/trace"
)

// Error codes of the v1 wire contract. Every non-2xx response carries
// exactly one of them in the error envelope.
const (
	CodeInvalidRequest  = "invalid_request"  // malformed JSON or rejected spec
	CodeNotFound        = "not_found"        // unknown job id
	CodeNotDone         = "not_done"         // result requested before the job finished
	CodeCancelled       = "cancelled"        // job was cancelled, it has no result
	CodeFinished        = "finished"         // cancel requested after the job finished
	CodeJobFailed       = "job_failed"       // the job itself failed
	CodeUnavailable     = "unavailable"      // server draining, not accepting jobs
	CodeUnsupportedKind = "unsupported_kind" // job kind unknown or disabled on this server
	CodeOverloaded      = "overloaded"       // admission control rejected the submit; retry after backoff
)

// APIError is the typed error of the v1 wire contract. Handlers send
// it as {"error": {"code": ..., "message": ...}} and the client
// package decodes it back, so callers can switch on Code with
// errors.As instead of string-matching messages.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfter is the Retry-After header's value in seconds on
	// overloaded responses, 0 elsewhere. Transport metadata, not part
	// of the envelope body.
	RetryAfter int `json:"-"`
}

// Error implements the error interface.
func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// Is maps wire codes back to the package's sentinel errors, so
// errors.Is(err, ErrNotFound) etc. hold for a decoded remote error
// exactly as they do for a local call — the Grader interface's error
// contract is implementation-independent.
func (e *APIError) Is(target error) bool {
	for _, r := range errorTable {
		if r.err == target {
			return e.Code == r.code
		}
	}
	return false
}

// errorTable is the error contract of the v1 wire: the envelope code
// and HTTP status of each sentinel error. Handlers send an error with
// its row's code and status, and APIError.Is maps a code back to its
// row's sentinel.
var errorTable = []struct {
	err    error
	code   string
	status int
}{
	{ErrNotFound, CodeNotFound, http.StatusNotFound},
	{ErrNotDone, CodeNotDone, http.StatusConflict},
	{ErrCancelled, CodeCancelled, http.StatusConflict},
	{ErrFinished, CodeFinished, http.StatusConflict},
	{ErrDraining, CodeUnavailable, http.StatusServiceUnavailable},
	{ErrUnsupportedKind, CodeUnsupportedKind, http.StatusBadRequest},
	{ErrOverloaded, CodeOverloaded, http.StatusTooManyRequests},
}

// errorEnvelope is the JSON shape of every non-2xx response.
type errorEnvelope struct {
	Err APIError `json:"error"`
}

// retryAfterSeconds is the Retry-After value on overloaded responses.
// A small constant: queue pressure at this scale drains in seconds,
// and jittered client retries matter more than a precise estimate.
const retryAfterSeconds = "1"

// Handler returns the HTTP+JSON API of the service, the surface
// cmd/adifod listens on and the client package talks to:
//
//	POST   /v1/jobs             submit a JobSpec (kind grade, atpg or
//	                            adi_order; empty = grade), returns
//	                            {"id": ...}
//	GET    /v1/jobs             list job statuses
//	GET    /v1/jobs/{id}        poll one job's status
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/result fetch a finished job's kind-specific
//	                            result (JobResult, AtpgResult or
//	                            OrderResult)
//	GET    /v1/jobs/{id}/stream newline-delimited JSON ProgressEvents,
//	                            one per 64-pattern block (plus one per
//	                            ATPG target for atpg jobs), until the
//	                            job reaches a terminal state (the last
//	                            line is the final JobStatus)
//	GET    /v1/stats            service and registry cache counters
//	GET    /metrics             Prometheus text exposition of the
//	                            service metrics
//	GET    /healthz             liveness probe
//
// Every non-2xx response is the error envelope
// {"error": {"code": ..., "message": ...}} with one of the Code*
// constants.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.metrics.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// writeJSON encodes v as the response body. Encode failures cannot be
// reported to the peer (the status line is already written) but are
// not swallowed either: they reach the service's configured logger and
// the adifo_http_write_errors_total counter, so a flapping client or a
// broken payload type shows up on a dashboard, not only in logs.
func (s *Service) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.met.writeErrors.Inc()
		s.logger.Warn("encoding response body failed", "status", code, "err", err)
	}
}

// writeBody sends b, a complete JSON value, as a 200 response with the
// trailing newline json.Encoder writes and a Content-Length, so a
// client can read the body into one exactly sized buffer.
func (s *Service) writeBody(w http.ResponseWriter, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)+1))
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(b)
	if err == nil {
		_, err = w.Write([]byte{'\n'})
	}
	if err != nil {
		s.met.writeErrors.Inc()
		s.logger.Warn("writing response body failed", "status", http.StatusOK, "err", err)
	}
}

// writeError sends err in the error envelope with the code and status
// of the errorTable row it matches; an error that matches no row goes
// out with the handler's own status and code. An overloaded response
// carries Retry-After: back off and resubmit — with an idempotency key
// the retry is safe by construction.
func (s *Service) writeError(w http.ResponseWriter, err error, status int, code string) {
	for _, r := range errorTable {
		if errors.Is(err, r.err) {
			status, code = r.status, r.code
			break
		}
	}
	if code == CodeOverloaded {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	s.writeJSON(w, status, errorEnvelope{Err: APIError{Code: code, Message: err.Error()}})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, err, http.StatusBadRequest, CodeInvalidRequest)
		return
	}
	// A valid incoming traceparent makes the job join the caller's
	// trace; anything else (absent header included) mints a fresh one.
	ctx := r.Context()
	if sc, err := trace.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
		ctx = trace.ContextWithRemote(ctx, sc)
	}
	id, err := s.SubmitContext(ctx, spec)
	if err != nil {
		s.writeError(w, err, http.StatusBadRequest, CodeInvalidRequest)
		return
	}
	s.writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		s.writeError(w, ErrNotFound, http.StatusNotFound, CodeNotFound)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleCancel aborts a job. Cancelling a queued job (or one already
// cancelled) returns its status; cancelling a running job returns the
// status as of the request, with the terminal transition following at
// the next block barrier. A job that already finished is a conflict.
func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err, http.StatusInternalServerError, CodeJobFailed)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleResult serves the kind-specific result payload of a finished
// job: a JobResult for grade jobs, an AtpgResult for atpg, an
// OrderResult for adi_order. Clients tell them apart by the payload's
// kind field (or the job status they already hold).
//
// Every fetch writes the job's v1 bytes as they are: the bytes its
// journaled finished record carries, on a journaled engine and after a
// restart, so the restart is byte-invisible. On an engine without a
// journal the first fetch encodes the typed result, and from then on
// the job holds only those bytes; in-process callers then own the
// values ResultAny decodes for them.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.lockDone(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err, http.StatusUnprocessableEntity, CodeJobFailed) // a failed job matches no row
		return
	}
	raw, err := j.bytesLocked()
	res := j.result
	j.mu.Unlock()
	if err != nil {
		s.writeJSON(w, http.StatusOK, res) // the encoding failed: logs and counts it
		return
	}
	s.writeBody(w, raw)
}

// handleStream writes one JSON line per progress event as the job runs
// and a final JobStatus line when it reaches a terminal state
// (including cancellation, whose final line reads state "cancelled").
// The follower is registered before the response header is written, so
// a client that has the header misses no event; the handler's own
// goroutine drains it.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		s.writeError(w, ErrNotFound, http.StatusNotFound, CodeNotFound)
		return
	}
	f := j.follow()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()

	// A failed write ends the stream: stop cuts drain short.
	ctx, stop := context.WithCancel(r.Context())
	defer stop()
	st, err := j.drain(ctx, f, func(ev ProgressEvent) {
		if err := enc.Encode(ev); err != nil {
			s.met.writeErrors.Inc()
			s.logger.Warn("encoding stream event failed", "job", id, "err", err)
			stop()
			return
		}
		flush()
	})
	if err != nil {
		return
	}
	if err := enc.Encode(st); err != nil {
		s.met.writeErrors.Inc()
		s.logger.Warn("encoding final stream status failed", "job", id, "err", err)
	}
	flush()
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}
