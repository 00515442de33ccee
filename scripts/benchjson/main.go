// Command benchjson turns `go test -bench` output into the repo's
// machine-readable performance ledger (BENCH_<pr>.json) and compares two
// ledgers as a regression gate. It keeps only units that read the same on
// any machine; wall time is gated by scripts/abbench, which runs the parent
// and the change side by side on one host.
//
// Parse mode reads benchmark output on stdin, aggregates repeated runs
// (-count=N) per benchmark by median, and writes one JSON document holding
// the gated units alone:
//
//	go test -run='^$' -bench=. -benchmem -count=3 ./... | benchjson parse -pr 23 -o BENCH_23.json
//
// Compare mode reads a baseline and a head ledger and exits non-zero when
// the head regresses:
//
//	benchjson compare BENCH_23.json /tmp/bench-head.json
//
// Two gates apply per benchmark present in both ledgers:
//
//   - allocs/op is strict: a zero-alloc baseline must stay at zero, and a
//     nonzero baseline may grow at most 5% plus an absolute slack of 8
//     allocations.
//   - work counts (coreticks/simcycle: full core Ticks per simulated cycle)
//     are deterministic, so they are near-exact: the head may exceed the
//     baseline by at most 0.5%, which only absorbs the printed rounding.
//
// Benchmarks present in only one ledger are reported but never fail the
// gate, so adding or retiring benchmarks does not require regenerating the
// baseline in the same commit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Ledger is the serialised form of one benchmark run set.
type Ledger struct {
	Schema string `json:"schema"`
	// PR tags which stacked change produced the baseline (0 = untagged).
	PR int `json:"pr,omitempty"`
	// Benchmarks is sorted by name for stable diffs.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's median metrics over its repeated runs.
type Benchmark struct {
	Name string `json:"name"`
	// Samples is how many repetitions the medians were taken over.
	Samples int `json:"samples"`
	// Metrics maps each gated unit the benchmark reported (allocs/op,
	// coreticks/simcycle) to its median value.
	Metrics map[string]float64 `json:"metrics"`
}

const schemaID = "dbpsim-bench/v1"

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		parseMain(os.Args[2:])
	case "compare":
		compareMain(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchjson parse [-pr N] [-o FILE] < bench-output")
	fmt.Fprintln(os.Stderr, "       benchjson compare BASE NEW")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func parseMain(args []string) {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	pr := fs.Int("pr", 0, "PR number to tag the ledger with")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	ledger, err := parseBench(bufio.NewScanner(os.Stdin))
	if err != nil {
		fatal(err)
	}
	ledger.PR = *pr
	raw, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if *out == "" {
		os.Stdout.Write(raw)
		return
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(ledger.Benchmarks), *out)
}

// parseBench consumes `go test -bench` text output. Repeated occurrences of
// one benchmark (from -count or multiple packages) are merged; each gated
// unit reports the median across samples, and other units are dropped.
func parseBench(sc *bufio.Scanner) (Ledger, error) {
	ledger := Ledger{Schema: schemaID}
	samples := map[string]map[string][]float64{}
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.ParseUint(fields[1], 10, 64); err != nil {
			continue
		}
		name := normalizeName(fields[0])
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if unit := fields[i+1]; slices.Contains(gatedUnits, unit) {
				samples[name][unit] = append(samples[name][unit], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Ledger{}, err
	}
	if len(samples) == 0 {
		return Ledger{}, fmt.Errorf("no benchmark lines found on stdin")
	}
	for name, metrics := range samples {
		b := Benchmark{Name: name, Metrics: map[string]float64{}}
		for unit, vals := range metrics {
			b.Metrics[unit] = median(vals)
			if len(vals) > b.Samples {
				b.Samples = len(vals)
			}
		}
		ledger.Benchmarks = append(ledger.Benchmarks, b)
	}
	sort.Slice(ledger.Benchmarks, func(i, j int) bool {
		return ledger.Benchmarks[i].Name < ledger.Benchmarks[j].Name
	})
	return ledger, nil
}

// normalizeName strips the Benchmark prefix and the -GOMAXPROCS suffix, so
// "BenchmarkPolicyCycles_DBP-8" becomes "PolicyCycles_DBP".
func normalizeName(s string) string {
	s = strings.TrimPrefix(s, "Benchmark")
	if i := strings.LastIndexByte(s, '-'); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	return s
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Gated units and their thresholds (see package comment).
const (
	allocUnit     = "allocs/op"
	allocRelSlack = 0.05
	allocAbsSlack = 8
	// workUnit is the deterministic work count gated near-exactly.
	workUnit     = "coreticks/simcycle"
	workRelSlack = 0.005
)

// gatedUnits are the units parse records and compare gates.
var gatedUnits = []string{allocUnit, workUnit}

func compareMain(args []string) {
	if len(args) != 2 {
		usage()
	}
	base, err := loadLedger(args[0])
	if err != nil {
		fatal(err)
	}
	head, err := loadLedger(args[1])
	if err != nil {
		fatal(err)
	}

	matched, failures := compareLedgers(base, head, os.Stdout)
	if matched == 0 {
		fatal(fmt.Errorf("no benchmarks in common between %s and %s", args[0], args[1]))
	}
	if len(failures) > 0 {
		fmt.Printf("\nbenchjson: %d regression(s) against %s:\n", len(failures), args[0])
		for _, f := range failures {
			fmt.Println("  " + f)
		}
		os.Exit(1)
	}
	fmt.Printf("\nbenchjson: %d benchmarks within thresholds (allocs +%.0f%%+%d; zero stays zero; work +%.1f%%)\n",
		matched, 100*allocRelSlack, allocAbsSlack, 100*workRelSlack)
}

// compareLedgers gates every benchmark present in both ledgers, printing one
// line per checked metric to w, and returns how many benchmarks matched and
// a description of each regression.
func compareLedgers(base, head Ledger, w io.Writer) (matched int, failures []string) {
	headBy := map[string]Benchmark{}
	for _, b := range head.Benchmarks {
		headBy[b.Name] = b
	}
	for _, bb := range base.Benchmarks {
		hb, ok := headBy[bb.Name]
		if !ok {
			fmt.Fprintf(w, "~ %-40s only in baseline (ignored)\n", bb.Name)
			continue
		}
		delete(headBy, bb.Name)
		matched++
		for _, unit := range gatedUnits {
			bv, okB := bb.Metrics[unit]
			hv, okH := hb.Metrics[unit]
			if !okB || !okH {
				continue
			}
			lim, mark := limit(unit, bv), " "
			if hv > lim {
				mark = "!"
				failures = append(failures, fmt.Sprintf("%s %s: %.4g -> %.4g (limit %.4g)", bb.Name, unit, bv, hv, lim))
			}
			fmt.Fprintf(w, "%s %-40s %-18s %10.4g -> %10.4g  (limit %.4g)\n", mark, bb.Name, unit, bv, hv, lim)
		}
	}
	for name := range headBy {
		fmt.Fprintf(w, "~ %-40s only in head (ignored)\n", name)
	}
	return matched, failures
}

// limit is the largest head value of unit that passes against base.
func limit(unit string, base float64) float64 {
	switch {
	case unit == workUnit:
		return base * (1 + workRelSlack)
	case base == 0:
		return 0 // zero-alloc benchmarks must stay zero-alloc
	default:
		return base*(1+allocRelSlack) + allocAbsSlack
	}
}

func loadLedger(path string) (Ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Ledger{}, err
	}
	var l Ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return Ledger{}, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != schemaID {
		return Ledger{}, fmt.Errorf("%s: schema %q, want %q", path, l.Schema, schemaID)
	}
	return l, nil
}
