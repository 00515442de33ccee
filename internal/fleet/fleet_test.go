package fleet

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbpsim/internal/serve"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// waitForConvergence blocks until every worker's membership snapshot shows
// the whole fleet up. Workers learn the member set from join responses, so
// a freshly booted fleet converges within one heartbeat interval — tests
// that assert fleet-wide properties must wait that interval out.
func waitForConvergence(t *testing.T, workers []*testWorker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		converged := true
		for _, tw := range workers {
			up := 0
			tw.fw.mu.Lock()
			for _, info := range tw.fw.members {
				if info.Up {
					up++
				}
			}
			tw.fw.mu.Unlock()
			if up != len(workers) {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet membership did not converge within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// testWorker is one in-process fleet worker: serve.Server + fleet.Worker
// behind an httptest listener.
type testWorker struct {
	id      string
	fw      *Worker
	srv     *serve.Server
	hs      *httptest.Server
	handler atomic.Value // http.Handler
}

// startWorker boots a worker and joins it to the coordinator. The serve
// options mirror dbpserved's worker-mode wiring.
func startWorker(t *testing.T, coordURL, id string, mut func(*serve.Options)) *testWorker {
	t.Helper()
	tw := &testWorker{id: id}
	tw.handler.Store(http.HandlerFunc(http.NotFound))
	tw.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw.handler.Load().(http.HandlerFunc)(w, r)
	}))
	fw, err := NewWorker(WorkerOptions{
		ID:                id,
		Advertise:         tw.hs.URL,
		Coordinator:       coordURL,
		HeartbeatInterval: 100 * time.Millisecond,
		Logger:            quietLogger(),
	})
	if err != nil {
		t.Fatalf("NewWorker(%s): %v", id, err)
	}
	opt := serve.Options{
		Workers:            2,
		CheckpointInterval: 1, // every scheduler quantum: migrations always have a fresh blob
		Logger:             quietLogger(),
		Peers:              fw.Consult(),
		OnCheckpoint:       fw.OnCheckpoint,
		ExtraMetrics:       fw.ExtraMetrics,
	}
	if mut != nil {
		mut(&opt)
	}
	srv, err := serve.New(opt)
	if err != nil {
		t.Fatalf("serve.New(%s): %v", id, err)
	}
	fw.Attach(srv)
	tw.handler.Store(http.HandlerFunc(fw.ServeHTTP))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fw.Start(ctx); err != nil {
		t.Fatalf("worker %s join: %v", id, err)
	}
	tw.fw, tw.srv = fw, srv
	t.Cleanup(func() {
		tw.fw.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = tw.srv.Close(ctx)
		tw.hs.Close()
	})
	return tw
}

// mustCoordinator builds a coordinator, failing the test on a journal
// error (the only error path NewCoordinator has).
func mustCoordinator(t *testing.T, opt CoordinatorOptions) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(opt)
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

func startCoordinator(t *testing.T) (*Coordinator, *httptest.Server) {
	t.Helper()
	coord := mustCoordinator(t, CoordinatorOptions{
		HeartbeatTimeout: 2 * time.Second,
		CellTimeout:      2 * time.Minute,
		Logger:           quietLogger(),
	})
	hs := httptest.NewServer(coord)
	t.Cleanup(hs.Close)
	return coord, hs
}

// scrapeCounter reads one counter value off a /metrics page.
func scrapeCounter(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", baseURL, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v)
			return v
		}
	}
	return 0
}

// TestFleetSweepSingleflightAndOwnerForwarding drives the whole happy
// path: a 3-worker fleet runs a 1×2 sweep, every cell lands done with a
// ledger hash, re-running the sweep is all cache hits with zero new
// simulations, and a direct hit on a non-owner worker is forwarded to the
// key's owner — one forward per non-owner, no duplicate simulation, and no
// peer result-cache or baseline endpoint left to probe. The two cells share
// one experiment key, and each worker measures its own alone baselines, so
// both ledgers must also match a standalone server byte for byte.
func TestFleetSweepSingleflightAndOwnerForwarding(t *testing.T) {
	_, coordHS := startCoordinator(t)
	workers := []*testWorker{
		startWorker(t, coordHS.URL, "w1", nil),
		startWorker(t, coordHS.URL, "w2", nil),
		startWorker(t, coordHS.URL, "w3", nil),
	}
	waitForConvergence(t, workers)

	sweepBody := `{"mixes": ["W4-M1"], "partitions": ["none", "equal"], "warmup": 1000, "measure": 5000}`
	lines := postSweep(t, coordHS.URL, "", sweepBody)
	if len(lines.results) != 2 {
		t.Fatalf("want 2 cells, got %d", len(lines.results))
	}
	for _, res := range lines.results {
		if res.Status != "done" {
			t.Fatalf("cell %s/%s/%s failed: %+v", res.Mix, res.Scheduler, res.Partition, res.Error)
		}
		if res.LedgerSHA256 == "" || len(res.Ledger) == 0 {
			t.Fatalf("cell %s/%s missing ledger or hash", res.Mix, res.Partition)
		}
		if res.Worker == "" {
			t.Fatalf("cell missing worker attribution")
		}
	}
	if lines.summary.Done != 2 || lines.summary.Failed != 0 {
		t.Fatalf("summary = %+v", lines.summary)
	}

	fleetSum := func(name string) float64 {
		var n float64
		for _, tw := range workers {
			n += scrapeCounter(t, tw.hs.URL, name)
		}
		return n
	}
	executed := func() float64 { return fleetSum("dbpserved_runs_executed_total") }
	base := executed()
	if base != 2 {
		t.Fatalf("2 cells should cost exactly 2 simulations fleet-wide, counted %g", base)
	}

	// Identical sweep again: all hits, no new simulations anywhere.
	lines = postSweep(t, coordHS.URL, "", sweepBody)
	for _, res := range lines.results {
		if res.Cache != "hit" {
			t.Fatalf("re-swept cell not a cache hit: %+v", res)
		}
	}
	if got := executed(); got != base {
		t.Fatalf("re-sweep added simulations: %g → %g", base, got)
	}

	// Direct single-run POST to every worker: the owner has it cached; each
	// of the two others must forward to it exactly once, never simulate.
	cellBody := `{"mix": "W4-M1", "partition": "equal", "warmup": 1000, "measure": 5000}`
	fwdBase := fleetSum("dbpfleet_forwards_total")
	var ledgers [][]byte
	for _, tw := range workers {
		resp, err := http.Post(tw.hs.URL+"/v1/runs", "application/json", strings.NewReader(cellBody))
		if err != nil {
			t.Fatalf("direct post to %s: %v", tw.id, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("direct post to %s: %d %s", tw.id, resp.StatusCode, data)
		}
		ledgers = append(ledgers, data)
	}
	if got := executed(); got != base {
		t.Fatalf("direct posts broke fleet singleflight: %g → %g simulations", base, got)
	}
	if got := fleetSum("dbpfleet_forwards_total") - fwdBase; got != float64(len(workers)-1) {
		t.Fatalf("direct posts forwarded %g times fleet-wide, want one per non-owner (%d)", got, len(workers)-1)
	}
	// The peer result-cache and baseline probe endpoints are gone: the
	// owner's cache is reached only through forwarding, and every worker
	// measures its own alone baselines.
	key, expKey, apiErr := serve.ResolveRequest([]byte(cellBody), 0)
	if apiErr != nil {
		t.Fatal(apiErr.Message)
	}
	for _, tw := range workers {
		for _, path := range []string{"/v1/cache?key=" + url.QueryEscape(key), "/v1/baselines?key=" + url.QueryEscape(expKey)} {
			resp, err := http.Get(tw.hs.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET %s on %s answered %d, want 404", path, tw.id, resp.StatusCode)
			}
		}
	}
	for i := 1; i < len(ledgers); i++ {
		if !bytes.Equal(ledgers[0], ledgers[i]) {
			t.Fatalf("worker %s served different ledger bytes than %s", workers[i].id, workers[0].id)
		}
	}

	// Byte-identity: a standalone server running the same cell bodies must
	// serve the exact ledgers the sweep hashed.
	var bodies []string
	for _, res := range lines.results {
		bodies = append(bodies, fmt.Sprintf(`{"mix": %q, "scheduler": %q, "partition": %q, "warmup": 1000, "measure": 5000}`,
			res.Mix, res.Scheduler, res.Partition))
	}
	for i, refData := range standaloneLedgers(t, bodies...) {
		res := lines.results[i]
		if got := fmt.Sprintf("%x", sha256.Sum256(refData)); got != res.LedgerSHA256 {
			t.Fatalf("cell %s/%s: fleet ledger sha256=%s, standalone sha256=%s", res.Mix, res.Partition, res.LedgerSHA256, got)
		}
	}
}

// standaloneLedgers runs each body on a fresh single-node server, the
// reference every fleet-served ledger must match byte for byte.
func standaloneLedgers(t *testing.T, bodies ...string) [][]byte {
	t.Helper()
	ref, err := serve.New(serve.Options{Workers: 2, Logger: quietLogger()})
	if err != nil {
		t.Fatalf("reference server: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = ref.Close(ctx)
	}()
	refHS := httptest.NewServer(ref)
	defer refHS.Close()
	var out [][]byte
	for _, body := range bodies {
		resp, err := http.Post(refHS.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference run answered %d: %s", resp.StatusCode, data)
		}
		out = append(out, data)
	}
	return out
}

// TestFleetMigration kills a worker mid-run and verifies the coordinator
// re-places the run with its mirrored checkpoint, the survivor resumes it,
// and the final ledger is byte-identical to an uninterrupted single-node
// run of the same request.
func TestFleetMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("migration drives a full 1M-instruction run; covered against real binaries by make fleet-smoke")
	}
	coord, coordHS := startCoordinator(t)
	// Checkpoint every 25 quanta: frequent enough that a blob lands within
	// the poll window, coarse enough that per-blob HTTP mirroring does not
	// dominate the test's runtime.
	every25 := func(o *serve.Options) { o.CheckpointInterval = 25 }
	w1 := startWorker(t, coordHS.URL, "m1", every25)
	w2 := startWorker(t, coordHS.URL, "m2", every25)
	byID := map[string]*testWorker{"m1": w1, "m2": w2}
	waitForConvergence(t, []*testWorker{w1, w2})

	// Big enough to be mid-flight when the owner dies; quantum-interval
	// checkpoints mean a mirrored blob lands almost immediately.
	body := `{"benchmarks": ["mcf-like", "gcc-like"], "partition": "dbp", "warmup": 1000, "measure": 1000000}`

	type runReply struct {
		status int
		data   []byte
		err    error
	}
	replyCh := make(chan runReply, 1)
	go func() {
		resp, err := http.Post(coordHS.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			replyCh <- runReply{err: err}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		replyCh <- runReply{status: resp.StatusCode, data: data}
	}()

	// Wait until the coordinator mirrors a checkpoint for the run, then
	// kill the worker that owns it.
	var victim string
	deadline := time.Now().Add(30 * time.Second)
	for victim == "" {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint mirrored within 30s")
		}
		resp, err := http.Get(coordHS.URL + "/v1/fleet/ring")
		if err != nil {
			t.Fatalf("ring probe: %v", err)
		}
		var ring struct {
			Checkpoints []CheckpointInfo `json:"checkpoints"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ring)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode ring: %v", err)
		}
		if len(ring.Checkpoints) > 0 {
			victim = ring.Checkpoints[0].Owner
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	tw := byID[victim]
	if tw == nil {
		t.Fatalf("unknown victim %q", victim)
	}
	// Kill: stop heartbeating, then sever every open connection FIRST — the
	// coordinator's in-flight dispatch must die as a transport error (a real
	// SIGKILL never sends a response) — and only then cancel the zombie run.
	tw.fw.Stop()
	tw.hs.CloseClientConnections()
	closeCtx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	_ = tw.srv.Close(closeCtx)
	cancel()

	reply := <-replyCh
	if reply.err != nil {
		t.Fatalf("migrated run failed in transit: %v", reply.err)
	}
	if reply.status != http.StatusOK {
		t.Fatalf("migrated run answered %d: %s", reply.status, reply.data)
	}
	if got := coord.met.migrations.Load(); got < 1 {
		t.Fatalf("migrations_total = %d, want >= 1", got)
	}

	// Byte-identity: an untouched single-node server must produce the exact
	// same ledger for the same request.
	refData := standaloneLedgers(t, body)[0]
	if !bytes.Equal(refData, reply.data) {
		t.Fatalf("migrated ledger differs from single-node reference:\nfleet  sha256=%x\nsingle sha256=%x",
			sha256.Sum256(reply.data), sha256.Sum256(refData))
	}
}

// TestSweepRejectsBadCells pins whole-sweep validation: one invalid cell
// rejects the sweep before anything dispatches.
func TestSweepRejectsBadCells(t *testing.T) {
	_, coordHS := startCoordinator(t)
	startWorker(t, coordHS.URL, "v1", nil)
	resp, err := http.Post(coordHS.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"mixes": ["W4-M1", "NOPE-99"], "warmup": 1000, "measure": 5000}`))
	if err != nil {
		t.Fatalf("post sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sweep answered %d, want 400", resp.StatusCode)
	}
	var doc struct {
		Error *serve.APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Error == nil {
		t.Fatalf("bad sweep error document missing: %v", err)
	}
	if doc.Error.Code != serve.CodeBadRequest {
		t.Fatalf("error code = %q", doc.Error.Code)
	}
}

// TestSweepNoWorkers pins the empty-fleet verdict: cells fail with
// no_workers, the stream still ends with a summary.
func TestSweepNoWorkers(t *testing.T) {
	coord := mustCoordinator(t, CoordinatorOptions{
		CellTimeout: 2 * time.Second,
		Logger:      quietLogger(),
	})
	hs := httptest.NewServer(coord)
	defer hs.Close()
	lines := postSweep(t, hs.URL, "", `{"mixes": ["W4-M1"], "warmup": 1000, "measure": 5000}`)
	if len(lines.results) != 1 || lines.results[0].Status != "failed" {
		t.Fatalf("results = %+v", lines.results)
	}
	if lines.results[0].Error == nil || lines.results[0].Error.Code != serve.CodeNoWorkers {
		t.Fatalf("error = %+v, want code %s", lines.results[0].Error, serve.CodeNoWorkers)
	}
	if lines.summary.Failed != 1 {
		t.Fatalf("summary = %+v", lines.summary)
	}
}

// sweepStream is a parsed NDJSON sweep response.
type sweepStream struct {
	results []SweepResult
	summary SweepSummary
}

func postSweep(t *testing.T, baseURL, apiKey, body string) sweepStream {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/sweeps", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep answered %d: %s", resp.StatusCode, data)
	}
	var out sweepStream
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if probe.Summary {
			if err := json.Unmarshal(sc.Bytes(), &out.summary); err != nil {
				t.Fatalf("bad summary: %v", err)
			}
			sawSummary = true
			continue
		}
		var res SweepResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad result line: %v", err)
		}
		out.results = append(out.results, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}
	return out
}
