// Command scenariosmoke is the CI smoke test for the phase-shifting
// scenario path: it runs every committed scenarios/*.json through the real
// dbpsim binary (asserting the run ledger parses and carries the scenario
// identity) and through a real dbpserved daemon (asserting the served
// ledger parses, the scenario content hash lands in the cache key — an
// identical request hits, a same-name-different-content request misses —
// and the daemon drains cleanly).
//
// Usage: go run ./scripts/scenariosmoke /path/to/dbpsim /path/to/dbpserved
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"dbpsim"
	"dbpsim/scripts/internal/drill"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scenario-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("scenario-smoke: OK")
}

func run(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: scenariosmoke /path/to/dbpsim /path/to/dbpserved")
	}
	simBin, servedBin := args[0], args[1]

	files, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no committed scenario files under scenarios/ (run from the repo root)")
	}
	sort.Strings(files)

	tmp, err := drill.ScratchDir("scenario-smoke")
	if err != nil {
		return err
	}
	defer drill.Scrub(tmp)

	// Leg 1: every committed scenario through the real dbpsim binary at a
	// short budget; the ledger must parse and carry the scenario identity.
	for _, f := range files {
		sc, err := dbpsim.LoadScenario(f)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		out := filepath.Join(tmp, sc.Name+".json")
		cmd := exec.Command(simBin, "-scenario", f, "-part", "dbp",
			"-warmup", "1000", "-measure", "5000", "-json", out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("dbpsim -scenario %s: %w", f, err)
		}
		led, err := dbpsim.LoadLedger(out)
		if err != nil {
			return fmt.Errorf("%s: ledger does not parse: %w", f, err)
		}
		if led.Scenario != sc.Name || led.ScenarioHash != sc.Hash() {
			return fmt.Errorf("%s: ledger identity %q/%q, want %q/%q",
				f, led.Scenario, led.ScenarioHash, sc.Name, sc.Hash())
		}
		fmt.Printf("scenario-smoke: dbpsim %-16s ok (hash %.12s…)\n", sc.Name, led.ScenarioHash)
	}

	// Leg 2: the service path, against the real daemon.
	d, err := drill.Start(servedBin, "scenario-smoke")
	if err != nil {
		return err
	}
	defer d.Kill()

	client := &dbpsim.Client{BaseURL: d.Base}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	for _, f := range files {
		sc, err := dbpsim.LoadScenario(f)
		if err != nil {
			return err
		}
		doc, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		warmup := uint64(1000)
		req := dbpsim.RunRequest{Scenario: doc, Warmup: &warmup, Measure: 5000, Partition: "dbp"}

		res, err := client.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("POST scenario %s: %w", sc.Name, err)
		}
		led, err := dbpsim.LoadLedgerBytes(res.Ledger)
		if err != nil {
			return fmt.Errorf("%s: served ledger does not parse: %w", sc.Name, err)
		}
		if led.ScenarioHash != sc.Hash() {
			return fmt.Errorf("%s: served scenario_hash %q, want %q", sc.Name, led.ScenarioHash, sc.Hash())
		}

		// The cache key must include the scenario content hash: the same
		// document hits, a same-name-different-seed document must not.
		res, err = client.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("second POST %s: %w", sc.Name, err)
		}
		if res.Cache != "hit" {
			return fmt.Errorf("%s: identical scenario request: X-Cache %q (want hit)", sc.Name, res.Cache)
		}
		mutated, err := bumpSeed(doc)
		if err != nil {
			return err
		}
		res, err = client.Run(ctx, dbpsim.RunRequest{Scenario: mutated, Warmup: &warmup, Measure: 5000, Partition: "dbp"})
		if err != nil {
			return fmt.Errorf("mutated POST %s: %w", sc.Name, err)
		}
		if res.Cache == "hit" {
			return fmt.Errorf("%s: different scenario content hit the cache under the same name", sc.Name)
		}
		fmt.Printf("scenario-smoke: served %-16s ok (hit on repeat, miss on content change)\n", sc.Name)
	}

	return d.Drain(30 * time.Second)
}

// bumpSeed returns the scenario document with its seed changed — same
// name, different content, therefore a different content hash.
func bumpSeed(doc []byte) ([]byte, error) {
	sc, err := dbpsim.DecodeScenario(doc)
	if err != nil {
		return nil, err
	}
	sc.Seed++
	return json.Marshal(sc)
}
