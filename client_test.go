package dbpsim

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler fails the first n requests with status/body, then succeeds.
func flakyHandler(n int, status int, body string) (http.HandlerFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(status)
			fmt.Fprint(w, body)
			return
		}
		w.Header().Set("X-Cache", "miss")
		fmt.Fprint(w, `{"schema_version": 1}`)
	}, &calls
}

func TestClientRetriesBackpressure(t *testing.T) {
	h, calls := flakyHandler(2, http.StatusTooManyRequests,
		`{"error": {"code": "queue_full", "message": "full", "retryable": true}}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	res, err := c.Run(context.Background(), RunRequest{Mix: "W8-M1"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (two rejections + success)", calls.Load())
	}
	if res.Cache != "miss" || len(res.Ledger) == 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestClientStopsOnPermanentError(t *testing.T) {
	h, calls := flakyHandler(99, http.StatusBadRequest,
		`{"error": {"code": "bad_request", "message": "unknown mix", "retryable": false}}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond}
	_, err := c.Run(context.Background(), RunRequest{Mix: "W99-X"})
	if err == nil {
		t.Fatal("permanent error retried into success?")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "bad_request" {
		t.Errorf("error %v does not wrap the server's APIError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls, want 1 (no retry on retryable=false)", calls.Load())
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	h, calls := flakyHandler(99, http.StatusServiceUnavailable,
		`{"error": {"code": "draining", "message": "bye", "retryable": true}}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	_, err := c.Run(context.Background(), RunRequest{Mix: "W8-M1"})
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want MaxAttempts=3", calls.Load())
	}
}

func TestClientHonoursContext(t *testing.T) {
	h, _ := flakyHandler(99, http.StatusTooManyRequests,
		`{"error": {"code": "queue_full", "message": "full", "retryable": true}}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Long backoffs + short context: cancellation must win during the sleep.
	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Minute, MaxBackoff: time.Minute}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Run(ctx, RunRequest{Mix: "W8-M1"})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap the context deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("client ignored context during backoff sleep")
	}
}

func TestClientHonoursRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var gap time.Duration
	var last time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if n := calls.Add(1); n == 1 {
			last = now
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error": {"code": "queue_full", "message": "full", "retryable": true}}`)
			return
		}
		gap = now.Sub(last)
		fmt.Fprint(w, `{"schema_version": 1}`)
	}))
	defer ts.Close()

	// Nominal backoff is 1ms; the server's Retry-After: 1 must stretch the
	// wait to at least a second.
	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	if _, err := c.Run(context.Background(), RunRequest{Mix: "W8-M1"}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gap < time.Second {
		t.Errorf("retry came after %v, want >= 1s per Retry-After", gap)
	}
}

// TestClientHonoursRetryAfterOn503 pins the drain path: a 503 with
// Retry-After (what dbpserved answers while draining, and what a fleet
// coordinator relays when a worker is mid-handoff) must stretch the backoff
// exactly like a 429 does — the hint is honoured per header, not per status.
func TestClientHonoursRetryAfterOn503(t *testing.T) {
	var calls atomic.Int64
	var gap time.Duration
	var last time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if n := calls.Add(1); n == 1 {
			last = now
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error": {"code": "draining", "message": "server draining", "retryable": true}}`)
			return
		}
		gap = now.Sub(last)
		fmt.Fprint(w, `{"schema_version": 1}`)
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	if _, err := c.Run(context.Background(), RunRequest{Mix: "W8-M1"}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d calls, want 2", calls.Load())
	}
	if gap < time.Second {
		t.Errorf("retry after drain came after %v, want >= 1s per Retry-After", gap)
	}
}

// TestClientQuotaExceededPastDeadline: a quota_exceeded refusal whose
// refill lands after the caller's deadline fails immediately — no retry
// loop burning the deadline — and surfaces the typed QuotaError with the
// server's cost estimate. Contrast with queue_full backpressure
// (TestClientRetriesBackpressure), which retries.
func TestClientQuotaExceededPastDeadline(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "3600")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error": {"code": "quota_exceeded", "message": "tenant over budget", "retryable": true,
			"estimate": {"simcycles": 12000}}}`)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond}
	_, err := c.Run(ctx, RunRequest{Mix: "W8-M1"})
	if err == nil {
		t.Fatal("quota refusal returned success?")
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls, want 1 (refill is past the deadline; retrying is pointless)", calls.Load())
	}
	var qerr *QuotaError
	if !errors.As(err, &qerr) {
		t.Fatalf("error %v is not a *QuotaError", err)
	}
	if qerr.RetryAfter != time.Hour {
		t.Errorf("RetryAfter = %s, want 1h", qerr.RetryAfter)
	}
	if est := qerr.Estimate(); est.SimCycles != 12000 {
		t.Errorf("estimate = %+v", est)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "quota_exceeded" {
		t.Errorf("APIError not recoverable from %v", err)
	}
}

// TestClientQuotaExceededRetriesWithinDeadline: when the refill fits the
// deadline, quota_exceeded retries like any Retry-After-bearing refusal.
func TestClientQuotaExceededRetriesWithinDeadline(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error": {"code": "quota_exceeded", "message": "tenant over budget", "retryable": true}}`)
			return
		}
		w.Header().Set("X-Cache", "miss")
		fmt.Fprint(w, `{"schema_version": 1}`)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	res, err := c.Run(ctx, RunRequest{Mix: "W8-M1"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d calls, want 2", calls.Load())
	}
	if res.Cache != "miss" {
		t.Errorf("cache = %q", res.Cache)
	}
}

// TestClientSendsAPIKey: the APIKey field reaches the server as a Bearer
// credential on both Run and Sweep.
func TestClientSendsAPIKey(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("Authorization"))
		fmt.Fprint(w, `{"schema_version": 1}`)
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, APIKey: "sk-test-1"}
	if _, err := c.Run(context.Background(), RunRequest{Mix: "W8-M1"}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Load() != "Bearer sk-test-1" {
		t.Errorf("Authorization = %q", got.Load())
	}
}

// TestSweepInterrupted: a stream that tears before its summary line (the
// coordinator died mid-sweep) surfaces as a typed SweepInterruptedError
// carrying how many complete cell lines made it through.
func TestSweepInterrupted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"scheduler":"fr-fcfs","partition":"none","status":"done"}`)
		fmt.Fprintln(w, `{"scheduler":"fr-fcfs","partition":"equal","status":"done"}`)
		// No summary line: the handler returns and the stream just ends.
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL}
	var streamed int
	sum, err := c.Sweep(context.Background(), SweepRequest{Mixes: []string{"W4-M1"}}, func(SweepResult) error {
		streamed++
		return nil
	})
	if sum != nil {
		t.Fatalf("summary = %+v, want nil on an interrupted stream", sum)
	}
	var interrupted *SweepInterruptedError
	if !errors.As(err, &interrupted) {
		t.Fatalf("err = %v (%T), want *SweepInterruptedError", err, err)
	}
	if interrupted.CellsReceived != 2 || streamed != 2 {
		t.Errorf("CellsReceived = %d (callback saw %d), want 2", interrupted.CellsReceived, streamed)
	}
	if interrupted.Err != nil {
		t.Errorf("clean EOF should carry a nil underlying error, got %v", interrupted.Err)
	}
}
