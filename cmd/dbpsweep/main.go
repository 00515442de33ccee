// Command dbpsweep regenerates the paper's tables and figures (DESIGN.md's
// experiment index) and prints paper-style rows, with headline lines
// comparing measured deltas against the paper's claims.
//
// Usage:
//
//	dbpsweep -exp main            # Figs. 6–7: FRFCFS / EqualBP / DBP
//	dbpsweep -exp all -quick      # everything, reduced budgets
//	dbpsweep -exp table2 -csv out # write CSV next to the text output
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"dbpsim/internal/experiments"
	"dbpsim/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbpsweep:", err)
		os.Exit(1)
	}
}

// run is the testable body of main. Every failure returns instead of
// exiting, so the deferred cleanups (CPU-profile flush, markdown-report
// close) run on error paths too — the old scattered os.Exit call sites
// skipped them.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dbpsweep", flag.ContinueOnError)
	var (
		expName    = fs.String("exp", "main", "experiment id or 'all' (one of: "+strings.Join(experiments.Names(), ", ")+")")
		scenPath   = fs.String("scenario", "", "run the policy comparison on a phase-shifting scenario JSON file instead of -exp")
		quick      = fs.Bool("quick", false, "reduced budgets and mix list")
		csvDir     = fs.String("csv", "", "directory to write per-experiment CSV files")
		quiet      = fs.Bool("q", false, "suppress progress lines")
		plot       = fs.Bool("plot", false, "render bar charts for sweep experiments")
		mdPath     = fs.String("md", "", "also append a markdown report to this file")
		jsonDir    = fs.String("json", "", "directory to write one machine-readable run ledger per distinct (config, mix, policy) run")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dbpsweep: pprof:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	opts := experiments.DefaultOptions(*quick)
	opts.LedgerDir = *jsonDir
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  …", line) }
	}

	selected := experiments.Registry()
	if *scenPath != "" {
		sc, err := scenario.Load(*scenPath)
		if err != nil {
			return err
		}
		selected = []experiments.Entry{{ID: "scenario-" + sc.Name, Run: func(o experiments.Options) (experiments.Outcome, error) {
			return experiments.ScenarioSweep(o, sc)
		}}}
	} else if *expName != "all" {
		selected = slices.DeleteFunc(selected, func(e experiments.Entry) bool { return e.ID != *expName })
		if len(selected) == 0 {
			return fmt.Errorf("unknown experiment %q; known: %s",
				*expName, strings.Join(experiments.Names(), ", "))
		}
	}

	var md *os.File
	if *mdPath != "" {
		var err error
		md, err = os.OpenFile(*mdPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer md.Close()
	}
	for _, e := range selected {
		start := time.Now()
		out, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if md != nil {
			if err := out.WriteMarkdown(md); err != nil {
				return err
			}
		}
		writeOut := out.Write
		if *plot {
			writeOut = out.WritePlot
		}
		if err := writeOut(stdout); err != nil {
			return err
		}
		if *csvDir != "" && out.Table != nil {
			if err := writeCSV(*csvDir, out.ID, out.Table.CSV()); err != nil {
				return err
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  %s finished in %.1fs\n", e.ID, time.Since(start).Seconds())
		}
	}
	return nil
}

func writeCSV(dir, id, csv string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+".csv"), []byte(csv), 0o644)
}
