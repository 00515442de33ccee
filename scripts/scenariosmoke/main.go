// Command scenariosmoke is the smoke test for the phase-shifting scenario
// path through the built dbpsim binary: it runs every committed
// scenarios/*.json through `dbpsim -scenario ... -json` at a short budget
// and asserts the binary exits 0 and writes a ledger that parses and
// carries the scenario's name and content hash. The served path is pinned
// in process by internal/serve's TestCommittedScenariosServe.
//
// Usage: go run ./scripts/scenariosmoke /path/to/dbpsim
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

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
	if len(args) != 1 {
		return fmt.Errorf("usage: scenariosmoke /path/to/dbpsim")
	}
	simBin := args[0]

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
	return nil
}
