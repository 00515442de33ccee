package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dbpsim"
	"dbpsim/internal/fleet"
	"dbpsim/internal/obs"
	"dbpsim/internal/serve"
)

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-addr", "999.999.999.999:1"}); err == nil {
		t.Error("unlistenable address accepted")
	}
}

// startRun starts the daemon in-process on a free port with the given extra
// flags and returns its URL root plus the channel run's result arrives on.
func startRun(t *testing.T, flags ...string) (string, <-chan error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, flags...))
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return "http://" + string(data), done
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// drainRun SIGTERMs the test process, which every running daemon has
// claimed, and requires each run to return nil: the exit-0 drain path.
func drainRun(t *testing.T, dones ...<-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, done := range dones {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain returned error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not drain after SIGTERM")
		}
	}
}

// quickRun is a request small enough to simulate in well under a second.
func quickRun() dbpsim.RunRequest {
	warmup := uint64(1000)
	return dbpsim.RunRequest{Benchmarks: []string{"mcf-like", "gcc-like"}, Warmup: &warmup, Measure: 5000}
}

// TestRunServeAndDrain drives the daemon end to end in-process through the
// retrying client: start on a free port, health-check, execute one quick
// run (a dbpserved ledger no newer than this build's schema), hit the cache
// with the repeat, scrape /metrics, then SIGTERM and assert run() returns
// nil (the exit-0 drain path).
func TestRunServeAndDrain(t *testing.T) {
	base, done := startRun(t, "-workers", "2")

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}

	client := &dbpsim.Client{BaseURL: base}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := client.Run(ctx, quickRun())
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	var led struct {
		SchemaVersion int    `json:"schema_version"`
		Tool          string `json:"tool"`
	}
	if err := json.Unmarshal(res.Ledger, &led); err != nil {
		t.Fatalf("response is not JSON (%v): %.120s", err, res.Ledger)
	}
	if led.SchemaVersion < 1 || led.SchemaVersion > obs.SchemaVersion || led.Tool != "dbpserved" {
		t.Fatalf("ledger header: schema %d tool %q, want 1..%d and dbpserved", led.SchemaVersion, led.Tool, obs.SchemaVersion)
	}
	res, err = client.Run(ctx, quickRun())
	if err != nil {
		t.Fatalf("second POST: %v", err)
	}
	if res.Cache != "hit" {
		t.Errorf("second POST: X-Cache %q, want hit", res.Cache)
	}

	drainRun(t, done)
}

// TestRunWiresTenantsAndChaos pins that -tenants and -chaos (with
// -chaos-allow) reach the server: an anonymous request is refused by the
// keyed tenant config, and the keyed one meets the armed panic injector as
// a structured failure.
func TestRunWiresTenantsAndChaos(t *testing.T) {
	tenants := filepath.Join(t.TempDir(), "tenants.json")
	doc := `{"schema_version": 1, "tenants": [{"name": "vip", "key": "k-vip"}]}`
	if err := os.WriteFile(tenants, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	base, done := startRun(t, "-workers", "1", "-tenants", tenants, "-chaos", "panic=1", "-chaos-allow")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, tc := range []struct{ key, code string }{
		{"", "unauthorized"},
		{"k-vip", "panic"},
	} {
		client := &dbpsim.Client{BaseURL: base, APIKey: tc.key, MaxAttempts: 1}
		_, err := client.Run(ctx, quickRun())
		var apiErr *dbpsim.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != tc.code {
			t.Errorf("key %q: error %v, want code %s", tc.key, err, tc.code)
		}
	}

	drainRun(t, done)
}

// TestRunWorkerMode boots dbpserved's worker mode in-process against an
// in-process coordinator and pins the wiring only run() does:
//   - the worker hands its fleet consult hook to its server, so a run
//     posted to the non-owner is forwarded to its ring owner, and posting
//     it to both workers costs one simulation fleet-wide;
//   - -chaos reaches the worker's fleet transport: a worker partitioned
//     from the coordinator never joins the ring;
//   - a worker whose first join fails starts degraded and serves direct
//     runs standalone instead of exiting.
func TestRunWorkerMode(t *testing.T) {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(coord)
	defer hs.Close()

	body, err := json.Marshal(quickRun())
	if err != nil {
		t.Fatal(err)
	}
	key, _, apiErr := serve.ResolveRequest(body, 0)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	owner := fleet.NewRing("w1", "w2").Owner(key)
	other := map[string]string{"w1": "w2", "w2": "w1"}[owner]

	// The owner joins first, so the other's join response already names it.
	bases := make(map[string]string)
	var dones []<-chan error
	for i, id := range []string{owner, other} {
		base, done := startRun(t, "-workers", "1", "-join", hs.URL, "-worker-id", id, "-heartbeat", "100ms")
		bases[id] = base
		dones = append(dones, done)
		awaitRunning(t, done, func() (bool, error) { return liveWorkers(hs.URL) == i+1, nil })
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range []string{other, owner} {
		client := &dbpsim.Client{BaseURL: bases[id], MaxAttempts: 1}
		if _, err := client.Run(ctx, quickRun()); err != nil {
			t.Fatalf("POST /v1/runs to %s: %v", id, err)
		}
	}
	executed := scrapeMetric(t, bases[owner], "dbpserved_runs_executed_total") +
		scrapeMetric(t, bases[other], "dbpserved_runs_executed_total")
	if executed != 1 {
		t.Errorf("one run posted to both workers cost %g simulations, want 1 (the non-owner forwards)", executed)
	}

	host := strings.TrimPrefix(hs.URL, "http://")
	base, done := startRun(t, "-workers", "1", "-join", hs.URL, "-worker-id", "w3", "-heartbeat", "100ms",
		"-chaos", "partition="+host, "-chaos-allow")
	dones = append(dones, done)
	awaitRunning(t, done, func() (bool, error) {
		if n := liveWorkers(hs.URL); n != 2 {
			return false, fmt.Errorf("coordinator sees %d live workers: the partitioned worker joined", n)
		}
		return scrapeMetric(t, base, "dbpfleet_degraded") == 1, nil
	})
	client := &dbpsim.Client{BaseURL: base, MaxAttempts: 1}
	if _, err := client.Run(ctx, quickRun()); err != nil {
		t.Fatalf("degraded worker refused a direct run: %v", err)
	}
	if n := liveWorkers(hs.URL); n != 2 {
		t.Errorf("coordinator sees %d live workers after the partitioned worker served, want 2", n)
	}

	drainRun(t, dones...)
}

// awaitRunning polls check until it reports done, failing the test when
// check errs, when the daemon behind done exits, or after 20 s.
func awaitRunning(t *testing.T, done <-chan error, check func() (bool, error)) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		ok, err := check()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 20s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// liveWorkers reads the coordinator's live-worker count (-1 on error).
func liveWorkers(coordURL string) int {
	resp, err := http.Get(coordURL + "/healthz")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var h struct {
		Live int `json:"workers_live"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) != nil {
		return -1
	}
	return h.Live
}

// scrapeMetric reads one unlabelled series off a /metrics page (0 when
// absent).
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", base, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			var f float64
			fmt.Sscanf(v, "%g", &f)
			return f
		}
	}
	return 0
}
