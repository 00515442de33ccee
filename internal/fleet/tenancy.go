package fleet

import (
	"errors"
	"net/http"
	"time"

	"dbpsim/internal/serve"
	"dbpsim/internal/tenant"
)

// The coordinator is the fleet's tenancy entry point (see
// CoordinatorOptions.Tenants): it authenticates inbound API keys with the
// same header rules as a standalone worker, charges admission quotas once
// — dispatches carry X-Fleet-Forwarded, so workers skip their own debit —
// and divides the sweep dispatch window weight-proportionally across the
// tenants that are actively sweeping.

// authenticate resolves the inbound request's tenant, or the 401 refusing
// it. With no registry configured every caller is the default tenant.
func (c *Coordinator) authenticate(r *http.Request) (*tenant.Tenant, *serve.APIError) {
	ten, err := c.opt.Tenants.Authenticate(serve.RequestAPIKey(r))
	if err != nil {
		c.met.unauthorized.Add(1)
		msg := "unknown API key"
		if errors.Is(err, tenant.ErrAnonymous) {
			msg = "this fleet requires an API key (no anonymous tenant is configured)"
		}
		return nil, &serve.APIError{Code: serve.CodeUnauthorized, Message: msg}
	}
	return ten, nil
}

// sweepEnter/sweepExit bracket one sweep's lifetime for window sharing.
func (c *Coordinator) sweepEnter(tenantName string) {
	c.activeMu.Lock()
	c.activeSweeps[tenantName]++
	c.activeMu.Unlock()
}

func (c *Coordinator) sweepExit(tenantName string) {
	c.activeMu.Lock()
	if c.activeSweeps[tenantName]--; c.activeSweeps[tenantName] <= 0 {
		delete(c.activeSweeps, tenantName)
	}
	c.activeMu.Unlock()
}

// sweepWindow is ten's share of the cluster-wide dispatch window: the
// global window split proportionally to tenant weight across the tenants
// with a sweep in flight, floored at one cell. A lone tenant gets the whole
// window (work conservation); equal weights split it evenly; a weight-8
// interactive sweep starting next to a weight-1 batch sweep gets 8/9 of
// the window. The split is computed at sweep start — a sweep admitted
// later shrinks nobody's in-flight window, it just takes its own share.
func (c *Coordinator) sweepWindow(ten *tenant.Tenant, global int) int {
	if global < 1 {
		global = 1
	}
	if c.opt.Tenants == nil {
		return global
	}
	c.activeMu.Lock()
	var sum float64
	for name, n := range c.activeSweeps {
		if n > 0 {
			sum += c.opt.Tenants.Lookup(name).Weight()
		}
	}
	c.activeMu.Unlock()
	if sum <= 0 {
		return global
	}
	w := int(float64(global) * ten.Weight() / sum)
	if w < 1 {
		w = 1
	}
	return w
}

// admitCell charges one cell's estimate against the tenant at the fleet
// entry point, or builds its quota_exceeded refusal (the same structured
// error a worker would send: estimate attached, retry seconds in the
// message). Callers refund (tenant.Tenant.Refund) when the fleet itself
// never got the cell onto a worker.
func (c *Coordinator) admitCell(ten *tenant.Tenant, est tenant.Estimate) (retryAfter string, apiErr *serve.APIError) {
	retryAfter, apiErr = serve.AdmitQuota(ten, est, time.Now())
	if apiErr != nil {
		c.met.quotaRejected.Add(1)
	}
	return retryAfter, apiErr
}
