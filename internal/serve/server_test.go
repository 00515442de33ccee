package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dbpsim/internal/obs"
	"dbpsim/internal/sim"
	"dbpsim/internal/workload"
)

// quickBody is a request small enough to simulate in well under a second.
const quickBody = `{"benchmarks": ["mcf-like", "gcc-like"], "partition": "equal", "warmup": 1000, "measure": 5000}`

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s, ts
}

func postRun(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	return postPath(t, url+"/v1/runs", body)
}

func postAsync(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	return postPath(t, url+"/v1/runs?async=1", body)
}

func postPath(t *testing.T, fullURL, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(fullURL, "application/json", strings.NewReader(body))
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

// scrapeMetrics fetches /metrics and returns every sample line (including
// labelled ones) keyed by its full name-plus-labels text.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	data, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body: %+v, %v", h, err)
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []string{
		`not json`,
		`{"mix": "W99-X"}`,
		`{"mix": "W4-M1", "scheduler": "lottery"}`,
		`{"mix": "W4-M1", "unknown_field": 1}`,
	}
	for _, body := range cases {
		resp, data := postRun(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", body, resp.StatusCode)
		}
		var e struct {
			Error *APIError `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == nil ||
			e.Error.Code != CodeBadRequest || e.Error.Message == "" || e.Error.Retryable {
			t.Errorf("body %q: error doc %q", body, data)
		}
	}
}

// TestServedLedgerMatchesCLI pins the acceptance contract: the service's
// response is the same schema-v1 ledger the dbpsim CLI writes with -json
// for the identical config/mix/policy/seed — byte-identical after
// normalising the Tool field (the one field that names the writer), and
// bit-identical through an obs.UnmarshalLedger round trip.
func TestServedLedgerMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, served := postRun(t, ts.URL, quickBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, served)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.LedgerContentType {
		t.Errorf("content type %q", got)
	}

	// Round trip: decode + canonical re-encode must be byte-identical.
	led, err := obs.UnmarshalLedger(served)
	if err != nil {
		t.Fatalf("served ledger does not parse: %v", err)
	}
	if led.SchemaVersion != obs.SchemaVersion {
		t.Errorf("schema version %d", led.SchemaVersion)
	}
	if led.Tool != "dbpserved" {
		t.Errorf("tool %q", led.Tool)
	}
	reenc, err := obs.MarshalLedger(led)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, served) {
		t.Errorf("served ledger is not canonical: round trip changed %d bytes", len(served))
	}

	// The CLI path: same run via the exact code dbpsim -json executes.
	mix := workload.Mix{Name: "custom", Category: "?", Members: []string{"mcf-like", "gcc-like"}}
	cfg := sim.DefaultConfig(mix.Cores())
	rec, err := obs.NewRecorder(obs.Options{NumThreads: mix.Cores(), NumBanks: cfg.Geometry.NumColors()})
	if err != nil {
		t.Fatal(err)
	}
	exp := sim.NewExperiment(cfg, 1000, 5000)
	run, err := exp.RunMixCheckpointedContext(context.Background(), mix, sim.SchedFRFCFS, sim.PartEqual, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cliLed, err := sim.BuildLedger("dbpsim", cfg, 1000, 5000, run, rec)
	if err != nil {
		t.Fatal(err)
	}
	cliBytes, err := obs.MarshalLedger(cliLed)
	if err != nil {
		t.Fatal(err)
	}
	led.Tool = "dbpsim"
	normalised, err := obs.MarshalLedger(led)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalised, cliBytes) {
		t.Errorf("served ledger differs from the CLI ledger beyond the Tool field:\nserved: %.200s\ncli:    %.200s",
			normalised, cliBytes)
	}
}

// TestDedupe32 is the headline cache-correctness property: 32 concurrent
// identical requests cost exactly one simulation, with every other request
// answered by the singleflight or the content-addressed cache — asserted
// through the /metrics counters, as operators would.
func TestDedupe32(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 64})
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	bodies := make(chan []byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(quickBody))
			if err != nil {
				errs <- err
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			bodies <- data
		}()
	}
	wg.Wait()
	close(errs)
	close(bodies)
	for err := range errs {
		t.Fatal(err)
	}

	var first []byte
	for b := range bodies {
		if first == nil {
			first = b
			continue
		}
		if !bytes.Equal(first, b) {
			t.Fatal("coalesced responses are not byte-identical")
		}
	}

	m := scrapeMetrics(t, ts.URL)
	if got := m["dbpserved_runs_executed_total"]; got != 1 {
		t.Errorf("runs executed = %v, want exactly 1", got)
	}
	hits := m["dbpserved_cache_hits_total"] + m["dbpserved_singleflight_coalesced_total"]
	if hits < n-1 {
		t.Errorf("cache+singleflight hits = %v, want >= %d", hits, n-1)
	}
	if got := m["dbpserved_cache_misses_total"]; got != 1 {
		t.Errorf("cache misses = %v, want 1", got)
	}
	if got := m["dbpserved_run_seconds_count"]; got != 1 {
		t.Errorf("latency histogram count = %v, want 1", got)
	}
}

// seededBody builds distinct quick requests (distinct seeds → distinct run
// keys), so backpressure tests are not short-circuited by the cache.
func seededBody(seed int) string {
	return fmt.Sprintf(`{"benchmarks": ["mcf-like", "gcc-like"], "seed": %d, "warmup": 1000, "measure": 5000}`, seed)
}

// pollStatus reads one async job's status document.
func pollStatus(t *testing.T, url, id string) (int, string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var st struct {
		Status string `json:"status"`
	}
	_ = json.Unmarshal(data, &st)
	return resp.StatusCode, st.Status
}

// TestQueueFullReturns429 pins backpressure end to end: with the single
// worker held busy and the one-deep queue occupied, a third distinct
// request is rejected with 429 + Retry-After; once the worker is released,
// the same request succeeds. It also covers the async flow (202 + poll to
// completion) and the sync per-request timeout (504 while blocked).
func TestQueueFullReturns429(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, err := New(Options{
		Workers:    1,
		QueueDepth: 1,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.testHookBeforeRun = func() {
		once.Do(func() { <-release })
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})

	// Job 1 (async): the worker dequeues it and blocks on the hook.
	resp, data := postAsync(t, ts.URL, seededBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d: %s", resp.StatusCode, data)
	}
	var acc struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Href   string `json:"href"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" || acc.Href == "" {
		t.Fatalf("accepted doc %s: %v", data, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, status := pollStatus(t, ts.URL, acc.ID); status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never reached the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Job 2 (async): sits in the queue — it is now full.
	resp, data = postAsync(t, ts.URL, seededBody(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status %d: %s", resp.StatusCode, data)
	}

	// Job 3: rejected with backpressure.
	resp, data = postRun(t, ts.URL, seededBody(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Sync wait on the blocked job 1 times out per-request with 504.
	resp2, err := http.Post(ts.URL+"/v1/runs?timeout=50ms", "application/json", strings.NewReader(seededBody(1)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("blocked sync wait status %d, want 504", resp2.StatusCode)
	}

	m := scrapeMetrics(t, ts.URL)
	if m["dbpserved_rejected_total"] < 1 {
		t.Errorf("rejected counter = %v", m["dbpserved_rejected_total"])
	}
	depthAll := m[`dbpserved_queue_depth{lane="all",tenant="all"}`]
	if depthAll != 1 || m["dbpserved_queue_capacity"] != 1 {
		t.Errorf("queue gauges = %v/%v", depthAll, m["dbpserved_queue_capacity"])
	}

	// Release the worker: both jobs finish, job 3 now succeeds, and the
	// async poll returns the finished ledger.
	close(release)
	for {
		resp, data = postRun(t, ts.URL, seededBody(3))
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("job 3 after release: status %d: %s", resp.StatusCode, data)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never freed up after release")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		code, _ := pollStatus(t, ts.URL, acc.ID)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp3, err := http.Get(ts.URL + "/v1/runs/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	ledBytes, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if _, err := obs.UnmarshalLedger(ledBytes); err != nil {
		t.Fatalf("polled result is not a ledger: %v", err)
	}
}

func TestPollUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, _ := pollStatus(t, ts.URL, "run-no-such")
	if code != http.StatusNotFound {
		t.Errorf("unknown id status %d", code)
	}
}

// TestDrain pins graceful shutdown: Close waits for queued and in-flight
// jobs, new simulations are refused with 503 while draining, and cached
// results keep being served.
func TestDrain(t *testing.T) {
	s, err := New(Options{
		Workers:    2,
		QueueDepth: 8,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Warm one cached result and queue a couple of async runs.
	resp, data := postRun(t, ts.URL, quickBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run status %d: %s", resp.StatusCode, data)
	}
	ids := make([]string, 0, 2)
	for seed := 10; seed < 12; seed++ {
		resp, data := postAsync(t, ts.URL, seededBody(seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async status %d: %s", resp.StatusCode, data)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &acc); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, acc.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every queued job completed during the drain.
	for _, id := range ids {
		code, _ := pollStatus(t, ts.URL, id)
		if code != http.StatusOK {
			t.Errorf("job %s not drained: status %d", id, code)
		}
	}
	// New simulations are refused; cached results still serve.
	resp, data = postRun(t, ts.URL, seededBody(99))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit status %d: %s", resp.StatusCode, data)
	}
	resp, data = postRun(t, ts.URL, quickBody)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-drain cached status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Cache") == "" {
		t.Error("cached response missing X-Cache header")
	}
}

// recordingConsult is a PeerConsult that records every run key it is asked
// about and never answers, so each consulted run simulates locally.
type recordingConsult struct {
	mu   sync.Mutex
	keys []string
}

func (c *recordingConsult) Lookup(_ context.Context, runKey string, _ []byte) ([]byte, bool) {
	c.mu.Lock()
	c.keys = append(c.keys, runKey)
	c.mu.Unlock()
	return nil, false
}

// consulted counts the Lookup calls for the run key of body.
func (c *recordingConsult) consulted(t *testing.T, body string) int {
	t.Helper()
	key, _, apiErr := ResolveRequest([]byte(body), 0)
	if apiErr != nil {
		t.Fatal(apiErr.Message)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.keys {
		if k == key {
			n++
		}
	}
	return n
}

// postForwarded submits a run the way a fleet hop does.
func postForwarded(t *testing.T, fullURL, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, fullURL, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Fleet-Forwarded", "w-peer")
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

// acceptedID reads the job id off an async 202 document.
func acceptedID(t *testing.T, data []byte) string {
	t.Helper()
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
		t.Fatalf("accepted doc %s: %v", data, err)
	}
	return acc.ID
}

// TestForwardedRunsSkipPeerConsult pins the forwarded-run latch: a job that
// an X-Fleet-Forwarded request submitted, or joined while it was queued,
// executes here without consulting Peers. Without the latch two fleet
// workers whose ring snapshots disagree could forward one run back and
// forth.
func TestForwardedRunsSkipPeerConsult(t *testing.T) {
	t.Run("submitted", func(t *testing.T) {
		peers := &recordingConsult{}
		_, ts := newTestServer(t, Options{Workers: 1, Peers: peers})
		resp, data := postForwarded(t, ts.URL+"/v1/runs", seededBody(1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forwarded run status %d: %s", resp.StatusCode, data)
		}
		if n := peers.consulted(t, seededBody(1)); n != 0 {
			t.Errorf("forwarded run consulted peers %d times, want 0", n)
		}
		// Control: a direct request for another key does consult.
		if resp, data := postRun(t, ts.URL, seededBody(2)); resp.StatusCode != http.StatusOK {
			t.Fatalf("direct run status %d: %s", resp.StatusCode, data)
		}
		if n := peers.consulted(t, seededBody(2)); n != 1 {
			t.Errorf("direct run consulted peers %d times, want 1", n)
		}
		if got := scrapeMetrics(t, ts.URL)["dbpserved_runs_executed_total"]; got != 2 {
			t.Errorf("runs_executed_total = %v, want 2", got)
		}
	})

	t.Run("coalesced", func(t *testing.T) {
		peers := &recordingConsult{}
		s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Peers: peers})
		release := make(chan struct{})
		var releaseOnce sync.Once
		t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
		var calls sync.Once
		s.testHookBeforeRun = func() { calls.Do(func() { <-release }) }

		// Job 1 holds the only worker slot; job 2 waits in the queue.
		resp, data := postAsync(t, ts.URL, seededBody(1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job 1 status %d: %s", resp.StatusCode, data)
		}
		id1 := acceptedID(t, data)
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, status := pollStatus(t, ts.URL, id1); status == "running" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("job 1 never reached the worker")
			}
			time.Sleep(5 * time.Millisecond)
		}
		resp, data = postAsync(t, ts.URL, seededBody(2))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job 2 status %d: %s", resp.StatusCode, data)
		}
		id2 := acceptedID(t, data)

		// A forwarded request for job 2's key joins the queued job.
		resp, data = postForwarded(t, ts.URL+"/v1/runs?async=1", seededBody(2))
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "coalesced" {
			t.Fatalf("forwarded join: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), data)
		}

		releaseOnce.Do(func() { close(release) })
		for _, id := range []string{id1, id2} {
			for {
				code, status := pollStatus(t, ts.URL, id)
				if code == http.StatusOK {
					break
				}
				if status != "queued" && status != "running" {
					t.Fatalf("job %s ended %q (status %d)", id, status, code)
				}
				if time.Now().After(deadline) {
					t.Fatalf("job %s never finished", id)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		if n := peers.consulted(t, seededBody(1)); n != 1 {
			t.Errorf("direct job 1 consulted peers %d times, want 1", n)
		}
		if n := peers.consulted(t, seededBody(2)); n != 0 {
			t.Errorf("job 2, joined by a forwarded request, consulted peers %d times, want 0", n)
		}
	})
}
