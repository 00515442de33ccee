// Command abbench is the wall-time gate. It builds a parent revision in a
// git worktree under .bench_build/, then alternates pairs of runs of the
// benchmark command that BENCHMARK.json declares (bash perfbench/run.sh)
// between that revision and the working tree, swapping which side runs
// first from pair to pair. It prints, per end-to-end metric of
// BENCHMARK.json:
//
//   - the parent's and the change's medians and the change in percent;
//   - the parent's interquartile range, absolute and relative to its
//     median;
//   - the pairs the change won and lost (ties count for neither side);
//   - "unresolved" when the parent's relative IQR exceeds the metric's
//     bound, so the runs spread too widely to tell a move of that size;
//   - "REGRESSION" when the parent won at least nine tenths of the pairs
//     (at 10 pairs, 9) and the change's median is worse by more than the
//     parent's IQR;
//   - every run's value, parent/change.
//
// It also prints every run's correct, attempted and failed counts. It exits
// 1 on a REGRESSION, on a change run that is not correct, on a change that
// fails a larger share of its attempted operations than the parent, when a
// build or a run fails outright, and when a result lacks an end-to-end
// metric.
//
// Run it from the repository root; everything after -- goes to the
// benchmark command. -pairs defaults to 10, the fewest it accepts:
//
//	go run ./scripts/abbench -rev HEAD -- --workload dense-paper --seed 1 --seconds 20 --trace 0
//
// The worktree is removed on exit. An interrupted run can leave it behind;
// abbench then refuses to start until it is removed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the protocol reads.
type benchmarkFile struct {
	Command  []string `json:"command"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is the JSON object on the last line of a benchmark run's
// standard output.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// minPairs is the fewest pairs abbench gates on. Below it the 9/10 rule
// asks for every pair and the parent's IQR comes from a handful of runs.
const minPairs = 10

func main() {
	rev, pairs, args, err := parseArgs(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if err := run(rev, pairs, args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abbench:", err)
		os.Exit(1)
	}
}

// parseArgs reads the command line. On an error it has printed the usage
// to stderr.
func parseArgs(argv []string, stderr io.Writer) (rev string, pairs int, args []string, err error) {
	fs := flag.NewFlagSet("abbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&rev, "rev", "", "parent revision to compare the working tree against (required)")
	fs.IntVar(&pairs, "pairs", minPairs, fmt.Sprintf("number of parent/change run pairs, at least %d", minPairs))
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: abbench -rev REV [-pairs N] -- BENCHMARK-ARGS...   (N at least %d)\n", minPairs)
		fmt.Fprintln(stderr, "Exits 1 when the parent wins 9/10 of the pairs on an end-to-end metric by a median gap")
		fmt.Fprintln(stderr, "wider than its IQR, or a change run is not correct or fails a larger share than the parent.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return "", 0, nil, err
	}
	if rev == "" || pairs < minPairs {
		fs.Usage()
		return "", 0, nil, fmt.Errorf("need -rev and at least %d pairs", minPairs)
	}
	return rev, pairs, fs.Args(), nil
}

func run(rev string, pairs int, args []string, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.Command) == 0 {
		return fmt.Errorf("BENCHMARK.json declares no command")
	}
	sha, err := git("rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return err
	}
	dir := filepath.Join(".bench_build", "abbench-"+sha[:12])
	if _, err := os.Stat(dir); err == nil {
		return fmt.Errorf("%s exists, left by an interrupted run; remove it with git worktree remove --force %s", dir, dir)
	}
	if _, err := git("worktree", "add", "--detach", dir, sha); err != nil {
		return err
	}
	defer git("worktree", "remove", "--force", dir)

	fmt.Fprintf(out, "abbench: parent %s vs working tree, %d pairs: %s\n", sha[:12], pairs, strings.Join(args, " "))
	var parent, change []runResult
	for p := 0; p < pairs; p++ {
		order := []string{dir, "."}
		if p%2 == 1 {
			order = []string{".", dir}
		}
		for _, where := range order {
			res, err := runOnce(where, bf.Command, args, bf.EndToEnd)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, side(where, dir), err)
			}
			if where == dir {
				parent = append(parent, res)
			} else {
				change = append(change, res)
			}
			fmt.Fprintf(os.Stderr, "abbench: pair %d/%d %s done\n", p+1, pairs, side(where, dir))
		}
	}
	if failures := report(out, bf.EndToEnd, parent, change); len(failures) > 0 {
		return fmt.Errorf("the change regressed: %s", strings.Join(failures, "; "))
	}
	fmt.Fprintln(out, "abbench: pass")
	return nil
}

func side(where, parentDir string) string {
	if where == parentDir {
		return "parent"
	}
	return "change"
}

// runOnce runs the benchmark command in dir and decodes its last line,
// which must carry every end-to-end metric.
func runOnce(dir string, command, args []string, metrics []metric) (runResult, error) {
	cmd := exec.Command(command[0], append(command[1:], args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("%v: %s", err, lastLines(stderr.String(), 5))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runResult{}, fmt.Errorf("last output line is not a result: %w", err)
	}
	for _, m := range metrics {
		if _, ok := res.Metrics[m.Name]; !ok {
			return runResult{}, fmt.Errorf("result lacks end-to-end metric %s", m.Name)
		}
	}
	return res, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
	return strings.TrimSpace(string(out)), nil
}

// summary is one metric's comparison over the pairs.
type summary struct {
	parentMedian, changeMedian float64
	parentIQR                  float64
	won, lost                  int
	unresolved, regressed      bool
}

// compare summarises one metric. values are in pair order.
func compare(m metric, parent, change []float64) summary {
	s := summary{parentMedian: quantile(parent, 0.5), changeMedian: quantile(change, 0.5)}
	s.parentIQR = quantile(parent, 0.75) - quantile(parent, 0.25)
	for i := range parent {
		switch {
		case m.better(change[i], parent[i]):
			s.won++
		case m.better(parent[i], change[i]):
			s.lost++
		}
	}
	s.regressed = 10*s.lost >= 9*len(parent) && m.better(s.parentMedian, s.changeMedian) &&
		math.Abs(s.changeMedian-s.parentMedian) > s.parentIQR
	s.unresolved = s.parentMedian != 0 && s.parentIQR/math.Abs(s.parentMedian) > m.Bound
	return s
}

// better reports whether a reads better than b.
func (m metric) better(a, b float64) bool {
	return (m.Better == "lower" && a < b) || (m.Better == "higher" && a > b)
}

// quantile interpolates linearly between the closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// report prints the comparison and returns the gate rules that tripped, one
// description each.
func report(out io.Writer, metrics []metric, parent, change []runResult) (failures []string) {
	n := len(parent)
	fmt.Fprintf(out, "%-16s %12s %12s %8s %22s %6s %6s\n", "metric", "parent", "change", "delta", "parent IQR", "won", "lost")
	values := func(rs []runResult, name string) []float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = r.Metrics[name].Value
		}
		return v
	}
	for _, m := range metrics {
		pv, cv := values(parent, m.Name), values(change, m.Name)
		s := compare(m, pv, cv)
		delta := 100 * (s.changeMedian - s.parentMedian) / s.parentMedian
		iqr := fmt.Sprintf("%.4g (%.1f%%)", s.parentIQR, 100*s.parentIQR/math.Abs(s.parentMedian))
		flag := ""
		if s.unresolved {
			flag = "  unresolved"
		}
		if s.regressed {
			rule := fmt.Sprintf("parent won %d/%d, median worse by more than the parent IQR", s.lost, n)
			flag += "  REGRESSION: " + rule
			failures = append(failures, m.Name+": "+rule)
		}
		fmt.Fprintf(out, "%-16s %12.4g %12.4g %+7.1f%% %22s %3d/%d %3d/%d%s\n", m.Name, s.parentMedian, s.changeMedian, delta, iqr, s.won, n, s.lost, n, flag)
	}
	fmt.Fprintln(out, "every run, parent/change:")
	for _, m := range metrics {
		pv, cv := values(parent, m.Name), values(change, m.Name)
		runs := make([]string, n)
		for i := range runs {
			runs[i] = fmt.Sprintf("%.4g/%.4g", pv[i], cv[i])
		}
		fmt.Fprintf(out, "  %-16s %s\n", m.Name, strings.Join(runs, ", "))
	}
	runs := make([]string, n)
	var pFailed, pAttempted, cFailed, cAttempted int
	for i := range runs {
		p, c := parent[i], change[i]
		runs[i] = fmt.Sprintf("%v %d/%d | %v %d/%d", p.Correct, p.Failed, p.Attempted, c.Correct, c.Failed, c.Attempted)
		if !c.Correct {
			failures = append(failures, fmt.Sprintf("change run %d is not correct", i+1))
		}
		pFailed, pAttempted = pFailed+p.Failed, pAttempted+p.Attempted
		cFailed, cAttempted = cFailed+c.Failed, cAttempted+c.Attempted
	}
	fmt.Fprintf(out, "  %-16s %s\n", "correct f/att", strings.Join(runs, ", "))
	// The change's failed/attempted share exceeds the parent's, compared
	// without dividing.
	if cFailed*pAttempted > pFailed*cAttempted {
		failures = append(failures, fmt.Sprintf("the change failed %d/%d operations, the parent %d/%d", cFailed, cAttempted, pFailed, pAttempted))
	}
	for _, f := range failures {
		fmt.Fprintln(out, "FAIL", f)
	}
	return failures
}
