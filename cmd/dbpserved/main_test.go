package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"dbpsim"
	"dbpsim/internal/obs"
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

// drainRun SIGTERMs the test process, which the running daemon has claimed,
// and requires run to return nil: the exit-0 drain path.
func drainRun(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
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
