package fleet

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbpsim/internal/serve"
	"dbpsim/internal/tenant"
)

const testTenantsDoc = `{
  "schema_version": 1,
  "tenants": [
    {"name": "vip", "key": "k-vip", "weight": 8, "lane": "interactive"},
    {"name": "bulk", "key": "k-bulk", "weight": 1}
  ]
}`

func testRegistry(t *testing.T) *tenant.Registry {
	t.Helper()
	return registryFrom(t, testTenantsDoc)
}

func registryFrom(t *testing.T, doc string) *tenant.Registry {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestSweepWindowSharing pins the weight-proportional split of the
// cluster dispatch window across concurrently sweeping tenants.
func TestSweepWindowSharing(t *testing.T) {
	reg := testRegistry(t)
	coord := mustCoordinator(t, CoordinatorOptions{
		Tenants: reg,
		Logger:  quietLogger(),
	})
	vip := reg.Lookup("vip")
	bulk := reg.Lookup("bulk")

	// No active sweeps (and the sweepWindow caller always holds its own
	// sweepEnter) — a lone tenant is work-conserving: the whole window.
	coord.sweepEnter("vip")
	if w := coord.sweepWindow(vip, 18); w != 18 {
		t.Errorf("lone tenant window = %d, want the full 18", w)
	}
	// A weight-1 tenant joins: 8:1 split of 18 → 16 and 2.
	coord.sweepEnter("bulk")
	if w := coord.sweepWindow(vip, 18); w != 16 {
		t.Errorf("vip window = %d, want 16 (8/9 of 18)", w)
	}
	if w := coord.sweepWindow(bulk, 18); w != 2 {
		t.Errorf("bulk window = %d, want 2 (1/9 of 18)", w)
	}
	// The floor: even a sliver of the window dispatches one cell at a time.
	if w := coord.sweepWindow(bulk, 1); w != 1 {
		t.Errorf("bulk window of a 1-wide global = %d, want the floor 1", w)
	}
	// Exits restore the full window to the survivor.
	coord.sweepExit("bulk")
	if w := coord.sweepWindow(vip, 18); w != 18 {
		t.Errorf("post-exit vip window = %d, want 18", w)
	}
	coord.sweepExit("vip")

	// No registry → tenancy off → the global window, untouched.
	open := mustCoordinator(t, CoordinatorOptions{Logger: quietLogger()})
	open.sweepEnter(tenant.DefaultTenantName)
	if w := open.sweepWindow(open.opt.Tenants.Lookup(""), 7); w != 7 {
		t.Errorf("registry-less window = %d, want 7", w)
	}
}

// TestCoordinatorAuth pins the fleet entry point's refusals: sweeps and
// runs need a known API key when a registry without an anonymous tenant is
// configured, and refusals are counted.
func TestCoordinatorAuth(t *testing.T) {
	coord := mustCoordinator(t, CoordinatorOptions{
		Tenants:          testRegistry(t),
		HeartbeatTimeout: 2 * time.Second,
		Logger:           quietLogger(),
	})
	hs := httptest.NewServer(coord)
	t.Cleanup(hs.Close)

	for _, path := range []string{"/v1/sweeps", "/v1/runs"} {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("anonymous POST %s status %d, want 401", path, resp.StatusCode)
		}
	}
	if n := scrapeCounter(t, hs.URL, "dbpfleet_unauthorized_total"); n != 2 {
		t.Errorf("dbpfleet_unauthorized_total = %v, want 2", n)
	}
}

// TestFleetTenancyChargesOnceAcrossHop sends an authenticated tenant
// through the coordinator to the workers. The coordinator's vip budget
// covers exactly three cells; each worker's covers less than one, so any
// worker-side debit would refuse a cell. The bucket never refills, so
// nothing here depends on timing.
func TestFleetTenancyChargesOnceAcrossHop(t *testing.T) {
	const cellSimcycles = (1000 + 5000) * 2
	coord := mustCoordinator(t, CoordinatorOptions{
		Tenants: registryFrom(t, `{"schema_version": 1, "tenants": [
			{"name": "vip", "key": "k-vip", "weight": 8, "simcycles_burst": 36000}]}`),
		HeartbeatTimeout: 2 * time.Second,
		CellTimeout:      2 * time.Minute,
		Logger:           quietLogger(),
	})
	coordHS := httptest.NewServer(coord)
	t.Cleanup(coordHS.Close)
	workerTenants := func(o *serve.Options) {
		o.Tenants = registryFrom(t, `{"schema_version": 1, "tenants": [
			{"name": "vip", "key": "k-vip", "weight": 8, "simcycles_burst": 1000}]}`)
	}
	workers := []*testWorker{
		startWorker(t, coordHS.URL, "t1", workerTenants),
		startWorker(t, coordHS.URL, "t2", workerTenants),
	}
	waitForConvergence(t, workers)

	lines := postSweep(t, coordHS.URL, "k-vip",
		`{"mixes": ["W4-M1"], "partitions": ["none", "equal", "dbp"], "warmup": 1000, "measure": 5000}`)
	ran := map[string]bool{}
	for _, res := range lines.results {
		if res.Status != "done" {
			t.Fatalf("cell %s/%s failed: %+v (a worker charged the hop?)", res.Mix, res.Partition, res.Error)
		}
		ran[res.Worker] = true
	}
	if len(lines.results) != 3 || lines.summary.Done != 3 {
		t.Fatalf("sweep = %d results, summary %+v; want 3 done", len(lines.results), lines.summary)
	}

	// The coordinator's budget is spent: one more cell is refused there.
	lines = postSweep(t, coordHS.URL, "k-vip",
		`{"mixes": ["W4-M1"], "schedulers": ["tcm"], "warmup": 1000, "measure": 5000}`)
	if len(lines.results) != 1 {
		t.Fatalf("want 1 cell, got %d", len(lines.results))
	}
	e := lines.results[0].Error
	if e == nil || e.Code != serve.CodeQuotaExceeded || e.Estimate == nil || e.Estimate.SimCycles != cellSimcycles {
		t.Fatalf("fourth cell error = %+v, want quota_exceeded estimating %d simcycles", e, cellSimcycles)
	}

	// Every worker that ran a cell attributes it to vip.
	for _, tw := range workers {
		if !ran[tw.id] {
			continue
		}
		if got := scrapeCounter(t, tw.hs.URL, `dbpserved_tenant_slowdown{tenant="vip"}`); got < 1 {
			t.Errorf("worker %s: dbpserved_tenant_slowdown{tenant=\"vip\"} = %g, want a series >= 1", tw.id, got)
		}
	}
}
