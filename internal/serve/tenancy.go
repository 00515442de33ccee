package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dbpsim/internal/stats"
	"dbpsim/internal/tenant"
)

// This file is the service half of the tenancy layer (see internal/tenant
// for the substrate): credential extraction, the admission controller, and
// the per-tenant slowdown tracker. The pleasing symmetry with the paper is
// deliberate — the job queue is scheduled with the same weighted-fairness
// machinery the simulator models for DRAM banks, and per-tenant slowdown is
// computed by the same internal/stats metrics the simulator reports for
// cores.

// RequestAPIKey extracts the tenant credential: "Authorization: Bearer
// <key>" (the client library's header) or "X-API-Key: <key>", first match
// wins. Empty means anonymous. Exported for the fleet coordinator, which
// authenticates with the same rule at the fleet's entry point.
func RequestAPIKey(r *http.Request) string {
	if v := r.Header.Get("X-API-Key"); v != "" {
		return v
	}
	if v, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
		return strings.TrimSpace(v)
	}
	return ""
}

// authenticate resolves the request's tenant, or the 401 refusing it.
func (s *Server) authenticate(r *http.Request) (*tenant.Tenant, *APIError) {
	ten, err := s.reg.Authenticate(RequestAPIKey(r))
	if err != nil {
		msg := "unknown API key"
		if errors.Is(err, tenant.ErrAnonymous) {
			msg = "this server requires an API key (no anonymous tenant is configured)"
		}
		return nil, &APIError{Code: CodeUnauthorized, Message: msg}
	}
	return ten, nil
}

// AdmitQuota charges est against the tenant's buckets, or builds the
// structured quota_exceeded refusal: 429, a refill-based Retry-After
// (never a bare 429 — the client always learns when the charge would fit),
// and the cost estimate so the caller sees what it was being billed for.
// Exported so the fleet coordinator enforces the same entry-node admission.
// Buckets have their own locks, so callers may hold Server.mu.
func AdmitQuota(ten *tenant.Tenant, est tenant.Estimate, now time.Time) (retryAfter string, apiErr *APIError) {
	ok, wait, limit := ten.Admit(now, float64(est.SimCycles))
	if ok {
		return "", nil
	}
	secs := int64(wait / time.Second)
	if wait%time.Second != 0 || secs == 0 {
		secs++ // ceil, and never a zero-second Retry-After
	}
	e := est
	return strconv.FormatInt(secs, 10), &APIError{
		Code:      CodeQuotaExceeded,
		Retryable: true,
		Estimate:  &e,
		Message: fmt.Sprintf("tenant %q over its %s quota: this run is estimated at %d simcycles (%s); retry in %ds",
			ten.Name(), limit, est.SimCycles, est.Basis, secs),
	}
}

// estimateCost predicts a resolved run's cost for admission and queue
// scheduling.
func (s *Server) estimateCost(rr resolvedRun) tenant.Estimate {
	return s.cost.Estimate(string(rr.sched), string(rr.part), rr.warmup+rr.measure)
}

// --- fleet-internal tenancy forwarding -------------------------------------

// Fleet-internal hops (the coordinator's dispatch, a worker's owner
// delegation) do not re-authenticate or re-charge: the entry node already
// did both. They instead assert the run's tenancy with these headers,
// trusted only alongside the X-Fleet-Forwarded latch. An unknown asserted
// tenant degrades to the default tenant — attribution, not authorization.
const (
	HeaderFleetTenant = "X-Fleet-Tenant"
	HeaderFleetLane   = "X-Fleet-Lane"
)

// ForwardedTenancy is the tenancy a fleet hop asserts on behalf of the
// entry node that authenticated the request.
type ForwardedTenancy struct {
	Tenant string
	Lane   string
}

type forwardedTenancyKey struct{}

// WithForwardedTenancy stamps a context with the tenancy of the run being
// executed. The server sets it before consulting fleet peers, so a worker's
// owner delegation can assert the original tenant on the next hop.
func WithForwardedTenancy(ctx context.Context, ft ForwardedTenancy) context.Context {
	return context.WithValue(ctx, forwardedTenancyKey{}, ft)
}

// ForwardedTenancyFrom recovers the tenancy stamped by WithForwardedTenancy.
func ForwardedTenancyFrom(ctx context.Context) (ForwardedTenancy, bool) {
	ft, ok := ctx.Value(forwardedTenancyKey{}).(ForwardedTenancy)
	return ft, ok
}

// --- per-tenant slowdown ---------------------------------------------------

// slowdownWindow is how many recent completed runs per tenant feed the
// slowdown gauge.
const slowdownWindow = 64

// minService floors a run's service time so the IPC inversion below never
// divides by zero (peer-served answers can complete in microseconds).
const minService = time.Microsecond

type slowdownSample struct {
	wait time.Duration // queued behind other tenants' work
	svc  time.Duration // executing on a worker
}

// slowdownTracker turns (queue wait, service time) pairs into the paper's
// max-slowdown fairness metric, per tenant: a run's "shared" performance is
// 1/(wait+service), its "alone" performance 1/service — exactly
// stats.ThreadPerf's IPC inversion, so slowdown = (wait+service)/service
// and the exported gauge is stats.ComputeMetrics' MaxSlowdown over the last
// slowdownWindow runs.
type slowdownTracker struct {
	mu  sync.Mutex
	per map[string][]slowdownSample // tenant → ring of recent runs
}

func newSlowdownTracker() *slowdownTracker {
	return &slowdownTracker{per: map[string][]slowdownSample{}}
}

func (t *slowdownTracker) observe(tenantName string, wait, svc time.Duration) {
	if svc < minService {
		svc = minService
	}
	if wait < 0 {
		wait = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ring := append(t.per[tenantName], slowdownSample{wait: wait, svc: svc})
	if len(ring) > slowdownWindow {
		ring = ring[len(ring)-slowdownWindow:]
	}
	t.per[tenantName] = ring
}

// maxSlowdowns exports each tenant's max slowdown over its recent runs,
// sorted by tenant name for a deterministic metrics page.
func (t *slowdownTracker) maxSlowdowns() []tenantSlowdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]tenantSlowdown, 0, len(t.per))
	for name, ring := range t.per {
		threads := make([]stats.ThreadPerf, len(ring))
		for i, s := range ring {
			shared := s.wait.Seconds() + s.svc.Seconds()
			threads[i] = stats.ThreadPerf{
				Name:      fmt.Sprintf("run%d", i),
				IPCShared: 1 / shared,
				IPCAlone:  1 / s.svc.Seconds(),
			}
		}
		m, err := stats.ComputeMetrics(threads)
		if err != nil {
			continue
		}
		out = append(out, tenantSlowdown{Tenant: name, MaxSlowdown: m.MaxSlowdown})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Tenant < out[b].Tenant })
	return out
}

type tenantSlowdown struct {
	Tenant      string
	MaxSlowdown float64
}
