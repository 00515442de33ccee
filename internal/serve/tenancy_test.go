package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbpsim/internal/tenant"
)

// testTenants: "vip" is interactive with no quotas; "greedy" is batch with
// a simcycle budget that covers exactly one quickBody run (1000 warmup +
// 5000 measure = 6000 instructions → 12000 simcycles at the built-in 2
// cycles/instruction) and essentially no refill. No keyless entry, so
// anonymous requests are refused.
const testTenants = `{
  "schema_version": 1,
  "tenants": [
    {"name": "vip", "key": "k-vip", "weight": 8, "lane": "interactive"},
    {"name": "greedy", "key": "k-greedy", "simcycles_per_sec": 0.001, "simcycles_burst": 12000}
  ]
}`

// writeTenants writes a tenant config file and returns its path plus a
// loaded registry.
func writeTenants(t *testing.T, doc string) (string, *tenant.Registry) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, reg
}

func testRegistry(t *testing.T) *tenant.Registry {
	t.Helper()
	_, reg := writeTenants(t, testTenants)
	return reg
}

// authedPost POSTs with an optional X-API-Key header.
func authedPost(t *testing.T, fullURL, key, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, fullURL, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeAPIError(t *testing.T, data []byte) *APIError {
	t.Helper()
	var doc struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Error == nil {
		t.Fatalf("no structured error in %s", data)
	}
	return doc.Error
}

func TestTenantAuthRequired(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Tenants: testRegistry(t)})

	resp, data := authedPost(t, ts.URL+"/v1/runs", "", quickBody)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous status %d: %s", resp.StatusCode, data)
	}
	if e := decodeAPIError(t, data); e.Code != CodeUnauthorized {
		t.Errorf("code %q, want unauthorized", e.Code)
	}
	resp, data = authedPost(t, ts.URL+"/v1/runs", "k-wrong", quickBody)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad key status %d: %s", resp.StatusCode, data)
	}
	resp, data = authedPost(t, ts.URL+"/v1/runs", "k-vip", quickBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good key status %d: %s", resp.StatusCode, data)
	}
	if m := scrapeMetrics(t, ts.URL); m["dbpserved_unauthorized_total"] != 2 {
		t.Errorf("unauthorized_total = %v, want 2", m["dbpserved_unauthorized_total"])
	}
}

func TestTenantQuotaExceeded(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8, Tenants: testRegistry(t)})

	// Run 1 drains greedy's 12000-simcycle burst exactly.
	resp, data := authedPost(t, ts.URL+"/v1/runs", "k-greedy", quickBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run status %d: %s", resp.StatusCode, data)
	}
	// Run 2 (different identity → not a cache hit) is over budget:
	// structured quota_exceeded carrying the billed estimate and a refill
	// hint — never a bare 429.
	resp, data = authedPost(t, ts.URL+"/v1/runs", "k-greedy", seededBody(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget status %d: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive refill hint", ra)
	}
	e := decodeAPIError(t, data)
	if e.Code != CodeQuotaExceeded || !e.Retryable {
		t.Errorf("error = %+v, want retryable quota_exceeded", e)
	}
	if e.Estimate == nil || e.Estimate.SimCycles != 12000 {
		t.Errorf("estimate = %+v, want 12000 simcycles", e.Estimate)
	}
	// Cache hits are free: repeating run 1 still answers 200.
	resp, data = authedPost(t, ts.URL+"/v1/runs", "k-greedy", quickBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("cached rerun status %d cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), data)
	}
	// The unlimited tenant is unaffected by greedy's exhaustion.
	resp, data = authedPost(t, ts.URL+"/v1/runs", "k-vip", seededBody(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vip run status %d: %s", resp.StatusCode, data)
	}
	m := scrapeMetrics(t, ts.URL)
	if m[`dbpserved_quota_rejections_total{tenant="greedy"}`] != 1 {
		t.Errorf("quota_rejections{greedy} = %v, want 1", m[`dbpserved_quota_rejections_total{tenant="greedy"}`])
	}
	if _, ok := m[`dbpserved_tenant_slowdown{tenant="vip"}`]; !ok {
		t.Error("no tenant_slowdown series for vip after a completed run")
	}
}

func TestTenantLaneSelection(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Tenants: testRegistry(t)})

	// A batch tenant cannot claim the interactive lane.
	resp, data := authedPost(t, ts.URL+"/v1/runs?lane=interactive", "k-greedy", quickBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch-tenant interactive request status %d: %s", resp.StatusCode, data)
	}
	// An interactive tenant can; the async accept names tenant and lane.
	resp, data = authedPost(t, ts.URL+"/v1/runs?lane=interactive&async=1", "k-vip", quickBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("vip interactive status %d: %s", resp.StatusCode, data)
	}
	var acc map[string]string
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc["tenant"] != "vip" || acc["lane"] != tenant.LaneInteractive {
		t.Errorf("accept doc = %v, want tenant vip lane interactive", acc)
	}
	// Unknown lane names are rejected for everyone.
	resp, data = authedPost(t, ts.URL+"/v1/runs?lane=warp", "k-vip", quickBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown lane status %d: %s", resp.StatusCode, data)
	}
}

// TestFleetForwardedSkipsDebit: a hop carrying the fleet latch adopts the
// asserted tenancy without re-authenticating or re-charging — the entry
// node already did both.
func TestFleetForwardedSkipsDebit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Tenants: testRegistry(t)})

	// Drain greedy's budget.
	if resp, data := authedPost(t, ts.URL+"/v1/runs", "k-greedy", quickBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain run status %d: %s", resp.StatusCode, data)
	}
	// A forwarded run for the same (exhausted) tenant still executes: no
	// API key, no debit, tenancy adopted from the assertion headers.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs?async=1", strings.NewReader(seededBody(9)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Fleet-Forwarded", "coordinator")
	req.Header.Set(HeaderFleetTenant, "greedy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded run status %d: %s", resp.StatusCode, data)
	}
	var acc map[string]string
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc["tenant"] != "greedy" {
		t.Errorf("forwarded run attributed to %q, want greedy", acc["tenant"])
	}
}

// TestLegacyJournalReplaysAsDefaultTenant: a committed pre-tenancy journal
// fixture — no tenant/lane/cost fields on any record — restores cleanly:
// terminal jobs keep answering their journaled verdict, and the
// interrupted job requeues under the default tenant and finishes.
func TestLegacyJournalReplaysAsDefaultTenant(t *testing.T) {
	// Startup compaction rewrites the journal in place, so work on a copy
	// of the committed fixture.
	dir := t.TempDir()
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_v1", "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}

	// Tenant config present and anonymous-free: replay must not depend on
	// legacy records naming any configured tenant.
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 8, JournalDir: dir, Tenants: testRegistry(t),
	})

	// The terminal legacy job still answers with its journaled verdict.
	resp, err := http.Get(ts.URL + "/v1/runs/run-00000001")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "legacy fixture failure") {
		t.Fatalf("terminal legacy job: status %d body %s", resp.StatusCode, data)
	}

	// The interrupted legacy job requeued under the default tenant and runs
	// to completion at its original id.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/run-00000002")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("requeued legacy job: status %d body %s", resp.StatusCode, data)
		}
		var acc map[string]string
		if err := json.Unmarshal(data, &acc); err == nil && acc["tenant"] != tenant.DefaultTenantName {
			t.Fatalf("requeued legacy job attributed to %q, want %q", acc["tenant"], tenant.DefaultTenantName)
		}
		if time.Now().After(deadline) {
			t.Fatal("requeued legacy job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Its fresh end record carries the tenancy stamp (default tenant,
	// non-zero cost), so the next restart replays the charge.
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(string(journal)), "\n") {
		var rec struct {
			Op     string  `json:"op"`
			ID     string  `json:"id"`
			Tenant string  `json:"tenant"`
			Cost   float64 `json:"cost_simcycles"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if rec.Op == "end" && rec.ID == "run-00000002" {
			found = true
			if rec.Tenant != tenant.DefaultTenantName || rec.Cost <= 0 {
				t.Errorf("end record tenancy = %q cost %v, want default tenant with positive cost", rec.Tenant, rec.Cost)
			}
		}
	}
	if !found {
		t.Error("no end record for the requeued legacy job")
	}
}

// TestQuotaSurvivesRestart: a drained bucket stays drained across a
// crash — the journal's tenancy stamps re-debit at startup, so a SIGKILL
// never refunds spent budget. The first server is never closed before the
// second starts, so nothing a clean shutdown writes can help.
func TestQuotaSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path, reg := writeTenants(t, testTenants)

	_, ts1 := newTestServer(t, Options{Workers: 1, QueueDepth: 8, JournalDir: dir, Tenants: reg})
	resp, data := authedPost(t, ts1.URL+"/v1/runs", "k-greedy", quickBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain run status %d: %s", resp.StatusCode, data)
	}

	// Fresh process: a fresh registry from the same config starts with full
	// buckets; journal replay must re-drain greedy before admitting work.
	reg2, err := tenant.NewRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Options{Workers: 1, QueueDepth: 8, JournalDir: dir, Tenants: reg2})
	resp, data = authedPost(t, ts2.URL+"/v1/runs", "k-greedy", seededBody(11))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-restart over-budget status %d: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("post-restart Retry-After = %q, want a positive refill hint", ra)
	}
	e := decodeAPIError(t, data)
	if e.Code != CodeQuotaExceeded {
		t.Errorf("code %q, want quota_exceeded", e.Code)
	}
	if e.Estimate == nil || e.Estimate.SimCycles != 12000 {
		t.Errorf("post-restart estimate = %+v, want 12000 simcycles", e.Estimate)
	}
}

// TestInteractiveJobOvertakesGreedyFlood: a batch tenant floods a
// one-worker server with four jobs, and an interactive tenant submits one
// job of the same size behind them. Weighted-fair queueing runs it next, so
// it finishes while at least two greedy jobs are still pending, and its
// slowdown — (queue wait + service) / service — stays below 4, where FIFO
// behind the flood would be about 5.
func TestInteractiveJobOvertakesGreedyFlood(t *testing.T) {
	_, reg := writeTenants(t, `{
  "schema_version": 1,
  "tenants": [
    {"name": "vip", "key": "k-vip", "weight": 8, "lane": "interactive"},
    {"name": "greedy", "key": "k-greedy"}
  ]
}`)
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 32, Tenants: reg})
	// The worker holds the first greedy job until the whole flood and the
	// interactive job are queued, and holds the job it pops after the
	// interactive one until the pending greedy jobs are counted, so the
	// order the queue picks is all the test sees.
	flooded, counted := make(chan struct{}), make(chan struct{})
	var pops atomic.Int64
	s.testHookBeforeRun = func() {
		switch pops.Add(1) {
		case 1:
			<-flooded
		case 3:
			<-counted
		}
	}
	defer func() {
		select {
		case <-flooded:
		default:
			close(flooded)
		}
		close(counted)
	}()

	submit := func(path, key, body string) string {
		t.Helper()
		resp, data := authedPost(t, ts.URL+path, key, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s submit: status %d: %s", key, resp.StatusCode, data)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &acc); err != nil {
			t.Fatal(err)
		}
		return acc.ID
	}
	const greedyJobs = 4
	var greedyIDs []string
	for i := 0; i < greedyJobs; i++ {
		greedyIDs = append(greedyIDs, submit("/v1/runs?async=1", "k-greedy", floodBody(100+i)))
	}
	vipID := submit("/v1/runs?lane=interactive&async=1", "k-vip", floodBody(555))
	close(flooded)

	deadline := time.Now().Add(60 * time.Second)
	for {
		// A third pop starts only after the second job's end, so once it
		// has happened the interactive job is done if it ran second.
		popped := pops.Load()
		code, status := pollStatus(t, ts.URL, vipID)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("interactive job: status %d %q", code, status)
		}
		if popped >= 3 {
			t.Fatal("two greedy jobs ran before the interactive job: the queue drained FIFO")
		}
		if time.Now().After(deadline) {
			t.Fatal("interactive job never finished under the greedy flood")
		}
		time.Sleep(10 * time.Millisecond)
	}
	pending := 0
	for _, id := range greedyIDs {
		if code, _ := pollStatus(t, ts.URL, id); code == http.StatusAccepted {
			pending++
		}
	}
	if pending < 2 {
		t.Errorf("only %d of %d greedy jobs pending when the interactive job finished: it drained FIFO", pending, greedyJobs)
	}
	slow, ok := scrapeMetrics(t, ts.URL)[`dbpserved_tenant_slowdown{tenant="vip"}`]
	if !ok {
		t.Fatal("no dbpserved_tenant_slowdown series for vip")
	}
	if slow >= 4 {
		t.Errorf("interactive slowdown %.2f, want < 4 (starved behind batch work?)", slow)
	}
}

// floodBody is the same-sized run every tenant submits in the flood test,
// long enough that the interactive job's service time dwarfs the
// scheduling noise in its queue wait.
func floodBody(seed int) string {
	return fmt.Sprintf(`{"benchmarks": ["mcf-like", "gcc-like"], "seed": %d, "warmup": 1000, "measure": 20000}`, seed)
}

// TestRequeuedJobKeepsTenant: a job interrupted by a crash is requeued at
// the next startup under the tenant that submitted it, not the default
// tenant, and its fresh end record carries that tenancy.
func TestRequeuedJobKeepsTenant(t *testing.T) {
	dir := t.TempDir()
	path, reg := writeTenants(t, testTenants)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	a, err := New(Options{Workers: 1, JournalDir: dir, Tenants: reg, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	entered, crash := make(chan struct{}), make(chan struct{})
	a.testHookBeforeRun = func() {
		close(entered)
		<-crash // the process "dies" here: submit journaled, no end record
	}
	tsA := httptest.NewServer(a)
	defer func() {
		close(crash)
		tsA.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = a.Close(ctx)
	}()
	resp, data := authedPost(t, tsA.URL+"/v1/runs?async=1", "k-greedy", quickBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("greedy submit: status %d: %s", resp.StatusCode, data)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the greedy job never reached the worker")
	}

	// "Restart" over the same journal, with a fresh registry as a new
	// process would load.
	reg2, err := tenant.NewRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	_, tsB := newTestServer(t, Options{Workers: 1, JournalDir: dir, Tenants: reg2})
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(tsB.URL + "/v1/runs/" + acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("requeued job: status %d: %s", resp.StatusCode, data)
		}
		var doc map[string]string
		if err := json.Unmarshal(data, &doc); err == nil && doc["tenant"] != "greedy" {
			t.Fatalf("requeued job attributed to %q, want greedy", doc["tenant"])
		}
		if time.Now().After(deadline) {
			t.Fatal("requeued job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := scrapeMetrics(t, tsB.URL)[`dbpserved_tenant_slowdown{tenant="greedy"}`]; !ok {
		t.Error("the requeued run fed no slowdown sample for greedy")
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var endTenant string
	for _, line := range strings.Split(strings.TrimSpace(string(journal)), "\n") {
		var rec struct {
			Op     string `json:"op"`
			ID     string `json:"id"`
			Tenant string `json:"tenant"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if rec.Op == "end" && rec.ID == acc.ID {
			endTenant = rec.Tenant
		}
	}
	if endTenant != "greedy" {
		t.Errorf("requeued job's end record names tenant %q, want greedy", endTenant)
	}
}

func TestQueueWaitMetricByLane(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Tenants: testRegistry(t)})
	if resp, data := authedPost(t, ts.URL+"/v1/runs?lane=interactive", "k-vip", quickBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, data)
	}
	m := scrapeMetrics(t, ts.URL)
	if m[`dbpserved_queue_wait_seconds_count{lane="interactive"}`] != 1 {
		t.Errorf("interactive queue-wait count = %v, want 1",
			m[`dbpserved_queue_wait_seconds_count{lane="interactive"}`])
	}
	if _, ok := m[`dbpserved_queue_wait_seconds_count{lane="batch"}`]; !ok {
		t.Error("batch queue-wait series missing")
	}
}
