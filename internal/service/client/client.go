// Package client is the Go client of the adifod job service: it
// speaks the HTTP+JSON job API of internal/service — grade, atpg and
// adi_order kinds alike — and is what the `adifo grade`, `adifo gen
// -server` and `adifo order -server` verbs use to talk to a running
// server. All wire types are shared with the service package, so a
// client-side result is structurally identical to a direct library
// run.
package client

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/eda-go/adifo/internal/obs/trace"
	"github.com/eda-go/adifo/internal/service"
)

// Client talks to one adifod server.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g.
// "http://localhost:8417"). httpClient may be nil for
// http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// decodeError turns a non-2xx response into a *service.APIError when
// the body carries the v1 error envelope, so callers can inspect the
// machine-readable code with errors.As; responses without an envelope
// (proxies, panics) degrade to a plain error with the HTTP status.
func decodeError(method, path string, resp *http.Response) error {
	var env struct {
		Err service.APIError `json:"error"`
	}
	err := json.NewDecoder(resp.Body).Decode(&env)
	drain(resp.Body)
	if err == nil && env.Err.Code != "" {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs := parseRetryAfter(ra, time.Now()); secs > 0 {
				env.Err.RetryAfter = secs
			}
		}
		return fmt.Errorf("%s %s (HTTP %d): %w", method, path, resp.StatusCode, &env.Err)
	}
	return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
}

// parseRetryAfter interprets both forms RFC 9110 allows for the
// Retry-After header: delta-seconds and an HTTP-date. Dates convert to
// whole seconds from now, rounding up so a sub-second wait does not
// truncate to "no wait"; past dates, non-positive deltas and
// unparseable values all read as absent (0) — a proxy-mangled header
// must degrade to the client's own backoff, not stall it.
func parseRetryAfter(v string, now time.Time) int {
	if secs, err := strconv.Atoi(v); err == nil {
		if secs > 0 {
			return secs
		}
		return 0
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	d := t.Sub(now)
	if d <= 0 {
		return 0
	}
	return int((d + time.Second - 1) / time.Second)
}

// maxDrainBytes bounds what drain reads of a body's unread tail. A
// decoded JSON response leaves at most a newline and a chunked
// encoding's terminator; anything longer is not worth reading to save
// a connection.
const maxDrainBytes = 64 << 10

// drain reads what is left of a response body, up to maxDrainBytes:
// net/http reuses a connection only once its body has been read to
// EOF, and a json.Decoder stops at the end of the value.
func drain(body io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrainBytes)) // a failed drain costs only the connection
}

// send issues one request and returns the response to a 2xx status;
// any other status is returned as the error decodeError makes of it.
func (c *Client) send(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if tp := trace.Traceparent(ctx); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeError(method, path, resp)
	}
	return resp, nil
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	drain(resp.Body)
	return err
}

// maxPrealloc bounds the buffer Result allocates from a Content-Length
// header before any of the body has arrived.
const maxPrealloc = 256 << 20

// readBody reads a whole response body: into one exactly sized buffer
// when the server sent a Content-Length, as adifod does for results.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxPrealloc {
		b := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return nil, err
		}
		drain(resp.Body)
		return b, nil
	}
	return io.ReadAll(resp.Body)
}

// submitAttempts bounds Submit's transparent retry of transport
// failures and overload rejections, and submitBackoff spaces the
// transport-failure attempts. An "overloaded" 429 waits the server's
// Retry-After instead, capped at maxRetryAfterWait so a pathological
// header cannot stall a submit for minutes.
const (
	submitAttempts = 3
	submitBackoff  = 100 * time.Millisecond
)

// retryAfterUnit scales APIError.RetryAfter (whole seconds on the
// wire) into a wait; tests shrink both to keep the suite fast.
var (
	retryAfterUnit    = time.Second
	maxRetryAfterWait = 5 * time.Second
)

// newIdempotencyKey mints a random per-submission key. 16 random bytes
// hex-encoded: collision-free in practice, and well under the server's
// 256-byte bound.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// keyless (non-idempotent, non-retried) submit.
		return ""
	}
	return "auto-" + hex.EncodeToString(b[:])
}

// Submit posts a job and returns its id.
//
// A spec without an IdempotencyKey gets an auto-generated one, which
// makes the POST safe to repeat: transport failures (connection reset,
// proxy hiccup) are retried transparently up to three times, and a
// retry that lands after a first attempt the client never saw the
// answer to is deduplicated by the server into the same job id.
//
// An "overloaded" admission rejection (429) is also retried: the
// client waits the server's Retry-After (capped at maxRetryAfterWait)
// and resubmits, so a transient queue-full blip does not surface to
// every caller. Every other typed API error is returned immediately —
// retrying a spec-level refusal elsewhere cannot help.
func (c *Client) Submit(ctx context.Context, spec service.JobSpec) (string, error) {
	if spec.IdempotencyKey == "" {
		spec.IdempotencyKey = newIdempotencyKey()
	}
	retryable := spec.IdempotencyKey != ""
	var resp struct {
		ID string `json:"id"`
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = c.do(ctx, http.MethodPost, "/v1/jobs", spec, &resp)
		if err == nil {
			return resp.ID, nil
		}
		if !retryable || attempt >= submitAttempts || ctx.Err() != nil {
			return "", err
		}
		wait := submitBackoff * time.Duration(attempt)
		var apiErr *service.APIError
		if errors.As(err, &apiErr) {
			if apiErr.Code != service.CodeOverloaded || apiErr.RetryAfter <= 0 {
				return "", err
			}
			wait = min(time.Duration(apiErr.RetryAfter)*retryAfterUnit, maxRetryAfterWait)
		}
		select {
		case <-ctx.Done():
			return "", err
		case <-time.After(wait):
		}
	}
}

// Status polls one job.
func (c *Client) Status(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Cancel aborts a queued or running job and returns its status as of
// the request (a running job transitions to cancelled at its next
// block barrier; use Stream or Wait to observe the terminal state).
// Cancelling a job that already finished yields a *service.APIError
// with code "finished".
func (c *Client) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists all jobs the server knows.
func (c *Client) Jobs(ctx context.Context) ([]service.JobStatus, error) {
	var out []service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Result fetches the outcome of a finished grade job. The result
// endpoint serves kind-specific payloads; use ResultAtpg and
// ResultOrder for the other kinds (a mismatched call is detected by
// the payload's kind field rather than silently mis-decoded).
//
// The body is read whole and decoded by service.DecodeJobResult, which
// is several times cheaper than encoding/json on a large result.
func (c *Client) Result(ctx context.Context, id string) (*service.JobResult, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	body, err := readBody(resp)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	res, err := service.DecodeJobResult(body)
	if err != nil {
		return nil, err
	}
	if err := checkKind(id, service.KindGrade, res.Kind); err != nil {
		return nil, err
	}
	return res, nil
}

// ResultAtpg fetches the outcome of a finished atpg job.
func (c *Client) ResultAtpg(ctx context.Context, id string) (*service.AtpgResult, error) {
	var res service.AtpgResult
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	if err := checkKind(id, service.KindAtpg, res.Kind); err != nil {
		return nil, err
	}
	return &res, nil
}

// ResultOrder fetches the outcome of a finished adi_order job.
func (c *Client) ResultOrder(ctx context.Context, id string) (*service.OrderResult, error) {
	var res service.OrderResult
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	if err := checkKind(id, service.KindADIOrder, res.Kind); err != nil {
		return nil, err
	}
	return &res, nil
}

// checkKind guards a typed result decode against a job of another
// kind: JSON decoding ignores unknown fields, so without the check a
// mismatched fetch would return a zeroed struct instead of an error.
// A pre-kind server omits the field; those servers only ever grade,
// so the empty kind normalizes to grade.
func checkKind(id, want, got string) error {
	if service.NormalizeKind(got) != want {
		return fmt.Errorf("client: job %s is a %s job, not %s", id, service.NormalizeKind(got), want)
	}
	return nil
}

// Stats fetches the service counters (including the registry
// cache-hit counters).
func (c *Client) Stats(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Stream consumes a job's per-block progress feed, calling fn for
// every event until the job finishes. It returns the final status.
func (c *Client) Stream(ctx context.Context, id string, fn func(service.ProgressEvent)) (service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	if tp := trace.Traceparent(ctx); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, decodeError(http.MethodGet, "/v1/jobs/"+id+"/stream", resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var last []byte
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		last = append(last[:0], line...)
		if fn != nil {
			var ev service.ProgressEvent
			if json.Unmarshal(line, &ev) == nil && ev.JobID != "" {
				fn(ev)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return service.JobStatus{}, err
	}
	// The last line of the stream is the terminal JobStatus.
	var st service.JobStatus
	if len(last) == 0 || json.Unmarshal(last, &st) != nil || st.ID == "" {
		return c.Status(ctx, id)
	}
	return st, nil
}
