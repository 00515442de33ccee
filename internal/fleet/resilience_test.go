package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbpsim/internal/durable"
	"dbpsim/internal/serve"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCoordinatorRestartResumesSweep pins the durability tentpole end to
// end at the unit level: a journal holding an unfinished sweep with one
// already-terminal cell is handed to a fresh coordinator, which resumes
// only the incomplete cells — the completed cell is never re-dispatched,
// the restored cells-done counter never double-counts, and a second
// restart reports the same totals.
func TestCoordinatorRestartResumesSweep(t *testing.T) {
	dir := t.TempDir()
	sweepBody := []byte(`{"mixes":["W4-M1"],"partitions":["none","equal"],"warmup":1000,"measure":5000}`)

	var req SweepRequest
	if err := json.Unmarshal(sweepBody, &req); err != nil {
		t.Fatal(err)
	}
	cells, apiErr := expandSweep(req, 0)
	if apiErr != nil {
		t.Fatalf("expand: %+v", apiErr)
	}
	if len(cells) != 2 {
		t.Fatalf("expected a 2-cell grid, got %d", len(cells))
	}

	// Journal the sweep as a crashed coordinator would have left it: the
	// request accepted, the first cell terminal, the rest in flight.
	j, _, err := openCoordJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.appendSweep("s-restart", "", sweepBody); err != nil {
		t.Fatal(err)
	}
	if err := j.appendCell("s-restart", cells[0], SweepResult{Status: "done", LedgerSHA256: "feed"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	coord := mustCoordinator(t, CoordinatorOptions{
		HeartbeatTimeout: 2 * time.Second,
		CellTimeout:      2 * time.Minute,
		JournalDir:       dir,
		Logger:           quietLogger(),
	})
	coordHS := httptest.NewServer(coord)
	t.Cleanup(coordHS.Close)
	workers := []*testWorker{
		startWorker(t, coordHS.URL, "r1", nil),
		startWorker(t, coordHS.URL, "r2", nil),
	}
	waitForConvergence(t, workers)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Resume(ctx)

	journalPath := filepath.Join(dir, "journal.jsonl")
	waitUntil(t, 30*time.Second, "resumed sweep to end", func() bool {
		r, err := replayCoordJournal(journalPath)
		if err != nil {
			return false
		}
		sw := r.sweeps["s-restart"]
		return sw != nil && sw.ended
	})

	r, err := replayCoordJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	sw := r.sweeps["s-restart"]
	if sw.doneCount() != 2 || sw.failedCount() != 0 {
		t.Fatalf("resumed sweep totals = %d/%d, want 2/0", sw.doneCount(), sw.failedCount())
	}

	// The pre-completed cell must not have been re-dispatched: the fleet
	// simulated exactly the one remaining cell.
	var executed float64
	for _, tw := range workers {
		executed += scrapeCounter(t, tw.hs.URL, "dbpserved_runs_executed_total")
	}
	if executed != 1 {
		t.Fatalf("resume simulated %g cells, want 1 (completed cell must never re-run)", executed)
	}
	if got := scrapeCounter(t, coordHS.URL, "dbpfleet_sweep_cells_done_total"); got != 2 {
		t.Fatalf("cells-done after resume = %g, want 2 (1 restored + 1 resumed)", got)
	}

	// A mirror whose cycle does not parse is refused, never journaled: read
	// as cycle 0, it would rank below any earlier capture of its key.
	blob := []byte("mirror-blob")
	resp, err := http.Post(coordHS.URL+"/v1/fleet/checkpoint?key=bad-cycle&cycle=abc&hash="+durable.Hash(blob),
		"application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), serve.CodeBadRequest) {
		t.Fatalf("mirror with cycle=abc answered %d %s, want 400 bad_request", resp.StatusCode, body)
	}
	if r, err = replayCoordJournal(journalPath); err != nil {
		t.Fatal(err)
	}
	if m, ok := r.mirrors["bad-cycle"]; ok {
		t.Fatalf("malformed mirror reached the journal: %+v", m)
	}

	// Restart once more: the now-ended sweep must restore its journaled
	// totals without resuming anything or double-counting.
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	coord2 := mustCoordinator(t, CoordinatorOptions{
		HeartbeatTimeout: 2 * time.Second,
		JournalDir:       dir,
		Logger:           quietLogger(),
	})
	defer coord2.Close()
	coord2.Resume(ctx)
	hs2 := httptest.NewServer(coord2)
	defer hs2.Close()
	if got := scrapeCounter(t, hs2.URL, "dbpfleet_sweep_cells_done_total"); got != 2 {
		t.Fatalf("cells-done after second restart = %g, want 2", got)
	}
	if len(coord2.unfinished) != 0 {
		t.Fatalf("ended sweep queued for resumption again: %d", len(coord2.unfinished))
	}
}

// TestWorkerDegradedMode drives the worker's coordinator-outage state
// machine: K consecutive heartbeat failures enter degraded mode (runs
// still served standalone, checkpoint mirrors skipped), and a recovered
// coordinator is rejoined — leaving degraded mode without replaying
// anything captured during the outage.
func TestWorkerDegradedMode(t *testing.T) {
	coord := mustCoordinator(t, CoordinatorOptions{
		HeartbeatTimeout: 2 * time.Second,
		CellTimeout:      2 * time.Minute,
		Logger:           quietLogger(),
	})
	var coordUp atomic.Bool
	coordUp.Store(true)
	coordHS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !coordUp.Load() {
			http.Error(w, "simulated outage", http.StatusServiceUnavailable)
			return
		}
		coord.ServeHTTP(w, r)
	}))
	t.Cleanup(coordHS.Close)

	tw := &testWorker{id: "d1"}
	tw.handler.Store(http.HandlerFunc(http.NotFound))
	tw.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw.handler.Load().(http.HandlerFunc)(w, r)
	}))
	t.Cleanup(tw.hs.Close)
	fw, err := NewWorker(WorkerOptions{
		ID:                        "d1",
		Advertise:                 tw.hs.URL,
		Coordinator:               coordHS.URL,
		HeartbeatInterval:         50 * time.Millisecond,
		HeartbeatFailureThreshold: 2,
		RejoinBackoffMax:          200 * time.Millisecond,
		Logger:                    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Options{
		Workers:      2,
		Logger:       quietLogger(),
		Peers:        fw.Consult(),
		OnCheckpoint: fw.OnCheckpoint,
		ExtraMetrics: fw.ExtraMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	fw.Attach(srv)
	tw.handler.Store(http.HandlerFunc(fw.ServeHTTP))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fw.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fw.Stop()
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scancel()
		_ = srv.Close(sctx)
	})
	if fw.degraded.Load() {
		t.Fatal("worker started degraded despite a live coordinator")
	}

	// Outage: the worker must notice within K heartbeats and degrade.
	coordUp.Store(false)
	waitUntil(t, 10*time.Second, "worker to enter degraded mode", fw.degraded.Load)
	if got := scrapeCounter(t, tw.hs.URL, "dbpfleet_degraded"); got != 1 {
		t.Fatalf("dbpfleet_degraded = %g, want 1", got)
	}
	if got := scrapeCounter(t, tw.hs.URL, "dbpfleet_heartbeat_failures_total"); got < 2 {
		t.Fatalf("dbpfleet_heartbeat_failures_total = %g, want >= 2", got)
	}

	// Standalone serving: a direct run on the degraded worker still answers.
	resp, err := http.Post(tw.hs.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"mix":"W4-M1","partition":"equal","warmup":1000,"measure":5000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded worker answered %d to a direct run", resp.StatusCode)
	}

	// A checkpoint offered during the outage is skipped, not kept for later.
	fw.OnCheckpoint("outage-run", []byte("blob-bytes"), 7)

	// Recovery: the next successful join exits degraded mode; the outage
	// checkpoint never reaches the coordinator's mirror index.
	coordUp.Store(true)
	waitUntil(t, 10*time.Second, "worker to rejoin", func() bool { return !fw.degraded.Load() })
	if got := scrapeCounter(t, tw.hs.URL, "dbpfleet_degraded"); got != 0 {
		t.Fatalf("dbpfleet_degraded after rejoin = %g, want 0", got)
	}
	// Stop waits for the heartbeat loop, so any work the rejoin did has
	// landed before the index is read.
	fw.Stop()
	coord.mu.Lock()
	_, mirrored := coord.ckpts["outage-run"]
	coord.mu.Unlock()
	if mirrored {
		t.Fatal("a checkpoint offered during the outage reached the coordinator after rejoin")
	}
}

// TestClientHangupKeepsWorkerInRing pins that a caller abandoning its
// request is not a worker fault: a client that disconnects from POST
// /v1/runs or from a sweep stream while its cell is in flight on a healthy
// owner must leave that owner in the ring, with no failover counted.
func TestClientHangupKeepsWorkerInRing(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"/v1/runs", `{"mix":"W4-M1","warmup":1000,"measure":5000}`},
		{"/v1/sweeps", `{"mixes":["W4-M1"],"warmup":1000,"measure":5000}`},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			coord := mustCoordinator(t, CoordinatorOptions{
				HeartbeatTimeout: time.Minute,
				CellTimeout:      time.Minute,
				Logger:           quietLogger(),
			})
			handled := make(chan struct{}, 1)
			coordHS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				coord.ServeHTTP(w, r)
				if r.URL.Path == tc.path {
					handled <- struct{}{}
				}
			}))
			t.Cleanup(coordHS.Close)

			// A healthy worker whose run outlasts the client: it blocks until
			// the coordinator's dispatch request ends (the body is drained
			// first, so the server notices the connection closing).
			started := make(chan struct{}, 1)
			workerHS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				started <- struct{}{}
				<-r.Context().Done()
			}))
			t.Cleanup(workerHS.Close)
			join := `{"id":"h1","addr":"` + workerHS.URL + `"}`
			resp, err := http.Post(coordHS.URL+"/v1/fleet/join", "application/json", strings.NewReader(join))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordHS.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			clientDone := make(chan struct{})
			go func() {
				defer close(clientDone)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Fatal("the cell never reached the worker")
			}
			cancel()
			<-clientDone
			select {
			case <-handled:
			case <-time.After(10 * time.Second):
				t.Fatal("the coordinator never finished the abandoned request")
			}

			var ring ringResponse
			resp, err = http.Get(coordHS.URL + "/v1/fleet/ring")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&ring)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(ring.Workers) != 1 || !ring.Workers[0].Up {
				t.Errorf("ring after a client hangup = %+v, want h1 up", ring.Workers)
			}
			if got := scrapeCounter(t, coordHS.URL, "dbpfleet_failovers_total"); got != 0 {
				t.Errorf("dbpfleet_failovers_total = %g after a client hangup, want 0", got)
			}
		})
	}
}
