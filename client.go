package dbpsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"dbpsim/internal/serve"
)

// Client is a minimal dbpserved client: it POSTs run requests and retries
// transient failures (queue backpressure, drains, timeouts, transport
// errors) with capped exponential backoff plus jitter, honouring the
// server's Retry-After header when one is present. Permanent failures —
// validation errors, panicked runs — are surfaced immediately as the
// server's structured *APIError.
//
// The zero value needs only BaseURL:
//
//	c := &dbpsim.Client{BaseURL: "http://localhost:8080"}
//	res, err := c.Run(ctx, dbpsim.RunRequest{Mix: "W8-M1"})
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// APIKey, when non-empty, authenticates every request as a tenant:
	// sent as "Authorization: Bearer <key>". Leave empty for servers
	// without tenant config (or ones with an anonymous tenant).
	APIKey string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxAttempts caps total tries including the first (default 5).
	MaxAttempts int
	// BaseBackoff is the first retry delay (default 100ms); each retry
	// doubles it up to MaxBackoff (default 5s). The actual sleep is jittered
	// to half-to-full of the nominal delay so retry storms decorrelate.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// RunResult is a successful Run response.
type RunResult struct {
	// Ledger is the canonical schema-v1 run-ledger JSON.
	Ledger []byte
	// Cache reports how the server answered: "hit", "coalesced" or "miss"
	// (empty on responses that predate the header).
	Cache string
}

// Run submits one simulation request and waits for its ledger, retrying
// transient failures until ctx ends or MaxAttempts is exhausted. The
// returned error wraps the server's final *APIError when one was received,
// so callers can errors.As it back out.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("dbpsim: encode request: %w", err)
	}
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, c.backoff(attempt, lastErr)); err != nil {
				return nil, errors.Join(err, lastErr)
			}
		}
		res, retryable, err := c.once(ctx, httpc, body)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, errors.Join(ctx.Err(), err)
		}
		if !retryable {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("dbpsim: giving up after %d attempts: %w", attempts, lastErr)
}

// retryAfterError carries the server's Retry-After hint alongside the
// failure it decorated, so backoff can honour it.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// QuotaError is the structured quota_exceeded refusal: the tenant's
// admission budget cannot cover this run right now. It is distinct from
// queue backpressure (queue_full) — the server is not overloaded, this
// tenant is over budget. Recover it with errors.As to read what the run
// would have cost and when the budget refills:
//
//	var qerr *dbpsim.QuotaError
//	if errors.As(err, &qerr) {
//		log.Printf("over quota: %d simcycles, retry in %s", qerr.Estimate().SimCycles, qerr.RetryAfter)
//	}
type QuotaError struct {
	// APIError is the server's structured refusal (code "quota_exceeded",
	// cost estimate attached).
	APIError *APIError
	// RetryAfter is the server's refill hint: the charge would fit after
	// this long.
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("quota exceeded (retry after %s): %s", e.RetryAfter, e.APIError.Message)
}
func (e *QuotaError) Unwrap() error { return e.APIError }

// Estimate is the server's simcycle price for the refused run (never nil;
// zero-valued if the server omitted it).
func (e *QuotaError) Estimate() CostEstimate {
	if e.APIError.Estimate == nil {
		return CostEstimate{}
	}
	return *e.APIError.Estimate
}

// once is a single POST attempt. retryable reports whether the failure is
// worth another try: transport errors, 429/503 backpressure, and any
// structured error the server marks Retryable.
func (c *Client) once(ctx context.Context, httpc *http.Client, body []byte) (res *RunResult, retryable bool, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, false, fmt.Errorf("dbpsim: build request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.APIKey != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	resp, err := httpc.Do(hreq)
	if err != nil {
		return nil, true, fmt.Errorf("dbpsim: post run: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, true, fmt.Errorf("dbpsim: read response: %w", err)
	}
	if resp.StatusCode == http.StatusOK {
		return &RunResult{Ledger: data, Cache: resp.Header.Get("X-Cache")}, false, nil
	}

	var doc struct {
		Error *APIError `json:"error"`
	}
	if jerr := json.Unmarshal(data, &doc); jerr == nil && doc.Error != nil {
		if doc.Error.Code == serve.CodeQuotaExceeded {
			// Over budget, not overloaded. Retrying helps only if the refill
			// lands inside the caller's deadline; otherwise fail now with the
			// typed error so the caller sees the cost and the refill time.
			qerr := &QuotaError{APIError: doc.Error, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
			err = fmt.Errorf("dbpsim: run rejected (%d): %w", resp.StatusCode, qerr)
			retryable = true
			if dl, ok := ctx.Deadline(); ok && time.Now().Add(qerr.RetryAfter).After(dl) {
				retryable = false
			}
			if qerr.RetryAfter > 0 {
				err = &retryAfterError{err: err, after: qerr.RetryAfter}
			}
			return nil, retryable, err
		}
		err = fmt.Errorf("dbpsim: run rejected (%d): %w", resp.StatusCode, doc.Error)
		retryable = doc.Error.Retryable
	} else {
		err = fmt.Errorf("dbpsim: run rejected (%d): %.200s", resp.StatusCode, data)
		retryable = resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusGatewayTimeout
	}
	if ra := parseRetryAfter(resp.Header.Get("Retry-After")); ra > 0 {
		err = &retryAfterError{err: err, after: ra}
	}
	return nil, retryable, err
}

// backoff computes the sleep before retry number attempt (1-based): the
// server's Retry-After hint when it exceeds the exponential schedule,
// otherwise base·2^(attempt-1) capped at max, jittered to [½d, d).
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	base := c.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := c.MaxBackoff
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	var ra *retryAfterError
	if errors.As(lastErr, &ra) && ra.after > d {
		d = ra.after
	}
	return d
}

// Sweep submits a batch sweep to a fleet coordinator's POST /v1/sweeps and
// streams results as they land: each is one cell of the scheduler ×
// partition × workload grid, delivered in completion order. The each
// callback runs on the streaming goroutine; returning an error stops the
// stream and is returned from Sweep. The final summary line is returned
// once the stream ends cleanly.
//
// Unlike Run, Sweep does not retry: a sweep is not idempotent-cheap (cells
// already computed are cached, so resubmitting after a failure is the
// recovery path — and costs only the unfinished cells).
func (c *Client) Sweep(ctx context.Context, req SweepRequest, each func(SweepResult) error) (*SweepSummary, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("dbpsim: encode sweep: %w", err)
	}
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("dbpsim: build sweep request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.APIKey != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	resp, err := httpc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("dbpsim: post sweep: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var doc struct {
			Error *APIError `json:"error"`
		}
		if jerr := json.Unmarshal(data, &doc); jerr == nil && doc.Error != nil {
			return nil, fmt.Errorf("dbpsim: sweep rejected (%d): %w", resp.StatusCode, doc.Error)
		}
		return nil, fmt.Errorf("dbpsim: sweep rejected (%d): %.200s", resp.StatusCode, data)
	}

	// NDJSON: result lines as cells land, then one {"summary":true,...}
	// line. Distinguish by the summary marker, not by position — a torn
	// stream (worker crash wave, coordinator death) must not silently look
	// complete.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	received := 0
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("dbpsim: bad sweep stream line: %w", err)
		}
		if probe.Summary {
			var sum SweepSummary
			if err := json.Unmarshal(line, &sum); err != nil {
				return nil, fmt.Errorf("dbpsim: bad sweep summary: %w", err)
			}
			return &sum, nil
		}
		var res SweepResult
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, fmt.Errorf("dbpsim: bad sweep result line: %w", err)
		}
		received++
		if each != nil {
			if err := each(res); err != nil {
				return nil, err
			}
		}
	}
	return nil, &SweepInterruptedError{CellsReceived: received, Err: sc.Err()}
}

// SweepInterruptedError reports a sweep stream that ended before its
// summary line: the coordinator died, restarted, or the connection tore
// mid-sweep. CellsReceived counts the complete result lines delivered
// before the tear — resubmitting the identical sweep is the recovery path
// (completed cells are never re-simulated; a journaled coordinator resumes
// the rest).
type SweepInterruptedError struct {
	// CellsReceived is how many per-cell result lines arrived before the
	// stream ended.
	CellsReceived int
	// Err is the underlying read error, or nil when the stream ended with a
	// clean EOF but no summary line.
	Err error
}

func (e *SweepInterruptedError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("dbpsim: sweep stream interrupted after %d cell(s): %v", e.CellsReceived, e.Err)
	}
	return fmt.Sprintf("dbpsim: sweep stream ended without a summary line after %d cell(s)", e.CellsReceived)
}

func (e *SweepInterruptedError) Unwrap() error { return e.Err }

func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		return time.Until(t)
	}
	return 0
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}
