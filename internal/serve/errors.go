package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"

	"dbpsim/internal/tenant"
)

// APIError is the service's structured error schema. Every non-2xx response
// body is {"error": {"code", "message", "retryable"}}; the same document
// describes a failed or canceled job's terminal state when it is polled.
// Retryable tells clients whether resubmitting the identical request can
// succeed (queue pressure, timeouts, interrupted restarts) or is pointless
// (validation errors, deterministic panics). Estimate is attached to
// quota_exceeded errors only: the refused run's admission cost in
// simcycles (additive schema change; absent elsewhere).
type APIError struct {
	Code      string           `json:"code"`
	Message   string           `json:"message"`
	Retryable bool             `json:"retryable"`
	Estimate  *tenant.Estimate `json:"estimate,omitempty"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Error codes. The set is append-only: clients switch on Code, so renaming
// one is a breaking API change.
const (
	CodeBadRequest  = "bad_request" // request failed validation (400)
	CodeTooLarge    = "too_large"   // body exceeded MaxBodyBytes (413)
	CodeQueueFull   = "queue_full"  // bounded queue rejected the run (429)
	CodeDraining    = "draining"    // server is shutting down (503)
	CodeNotFound    = "not_found"   // unknown run id (404)
	CodeTimeout     = "timeout"     // run exceeded the execution cap (504)
	CodeCanceled    = "canceled"    // run canceled: abandoned or drained (504)
	CodePanic       = "panic"       // simulation panicked on a worker (500)
	CodeInterrupted = "interrupted" // job lost to a daemon restart (500)
	CodeResultLost  = "result_lost" // journaled result unreadable (500)
	CodeInternal    = "internal"    // any other simulation failure (500)
	CodeNoWorkers   = "no_workers"  // fleet coordinator has no live workers (503)

	// CodeUnauthorized rejects a request whose API key matches no configured
	// tenant (401). Distinct from quota pressure: retrying cannot help.
	CodeUnauthorized = "unauthorized"
	// CodeQuotaExceeded rejects an over-budget request at admission (429).
	// The error carries a cost Estimate and the response a refill-based
	// Retry-After, so a client can tell quota pressure from queue_full
	// backpressure and knows exactly when the charge would fit.
	CodeQuotaExceeded = "quota_exceeded"
)

// Job terminal states as reported by GET /v1/runs/{id}.
const (
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// terminalState maps a terminal APIError to the job state it represents.
func terminalState(e *APIError) string {
	switch {
	case e == nil:
		return stateDone
	case e.Code == CodeTimeout || e.Code == CodeCanceled:
		return stateCanceled
	default:
		return stateFailed
	}
}

// httpStatus maps a terminal APIError to the status a poll or sync wait
// reports it with.
func httpStatus(e *APIError) int {
	switch e.Code {
	case CodeTimeout, CodeCanceled:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// Cancellation causes: these flow through the job context into the
// simulation loop and back out as the run's error, so classifyRunError can
// tell why a run stopped.
var (
	errAbandoned   = errors.New("every client abandoned the run")
	errRunTimeout  = errors.New("run exceeded the execution cap")
	errDrainCancel = errors.New("drain deadline expired")
)

// errUnstagedCheckpoint reports a migrated submission whose
// X-Resume-Checkpoint hash named no staged blob (evicted, never staged, or
// already consumed). The run proceeds from cycle 0.
var errUnstagedCheckpoint = errors.New("no staged checkpoint blob for hash")

// panicError carries a recovered worker panic as an error, stack included.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("simulation panicked: %v", e.val)
}

// capturePanic converts a recover() value into a panicError.
func capturePanic(val any) *panicError {
	return &panicError{val: val, stack: debug.Stack()}
}

// classifyRunError converts a run's error into the structured terminal
// document. nil stays nil (success).
func classifyRunError(err error) *APIError {
	if err == nil {
		return nil
	}
	var pe *panicError
	switch {
	case errors.As(err, &pe):
		return &APIError{Code: CodePanic, Message: err.Error(), Retryable: false}
	case errors.Is(err, errRunTimeout):
		return &APIError{Code: CodeTimeout, Message: err.Error(), Retryable: true}
	case errors.Is(err, errAbandoned), errors.Is(err, errDrainCancel),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &APIError{Code: CodeCanceled, Message: err.Error(), Retryable: true}
	default:
		return &APIError{Code: CodeInternal, Message: err.Error(), Retryable: false}
	}
}
