// Command smoke is the CI smoke test for dbpserved: it starts the real
// daemon binary, POSTs one quick run, asserts a 200 schema-v1 ledger and a
// cache hit on the second POST, then SIGTERMs the daemon and requires a
// clean (exit 0) drain.
//
// Usage: go run ./scripts/smoke /path/to/dbpserved
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"dbpsim"
	"dbpsim/scripts/internal/drill"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("smoke: OK")
}

func run(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: smoke /path/to/dbpserved")
	}
	d, err := drill.Start(args[0], "smoke")
	if err != nil {
		return err
	}
	defer d.Kill()

	if status, _, err := d.Get("/healthz"); err != nil || status != http.StatusOK {
		return fmt.Errorf("healthz: status %d: %v", status, err)
	}

	// Submit through the retrying client (backoff + Retry-After aware): the
	// smoke test doubles as the client's end-to-end exercise.
	client := &dbpsim.Client{BaseURL: d.Base}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	warmup := uint64(1000)
	req := dbpsim.RunRequest{
		Benchmarks: []string{"mcf-like", "gcc-like"},
		Warmup:     &warmup,
		Measure:    5000,
	}
	res, err := client.Run(ctx, req)
	if err != nil {
		return fmt.Errorf("POST /v1/runs: %w", err)
	}
	var led struct {
		SchemaVersion int    `json:"schema_version"`
		Tool          string `json:"tool"`
	}
	if err := json.Unmarshal(res.Ledger, &led); err != nil {
		return fmt.Errorf("response is not JSON: %w", err)
	}
	if led.SchemaVersion < 1 || led.SchemaVersion > 2 || led.Tool != "dbpserved" {
		return fmt.Errorf("unexpected ledger header: schema %d tool %q", led.SchemaVersion, led.Tool)
	}

	res, err = client.Run(ctx, req)
	if err != nil {
		return fmt.Errorf("second POST: %w", err)
	}
	if res.Cache != "hit" {
		return fmt.Errorf("second POST: X-Cache %q (want hit)", res.Cache)
	}

	if _, err := d.Metrics(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}

	// SIGTERM must drain and exit 0.
	return d.Drain(30 * time.Second)
}
