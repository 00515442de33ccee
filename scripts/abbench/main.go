// Command abbench runs the paired A/B benchmark protocol on one host. It
// builds a parent revision in a git worktree under .bench_build/, then
// alternates pairs of runs of the benchmark command that BENCHMARK.json
// declares (bash perfbench/run.sh) between that revision and the working
// tree, swapping which side runs first from pair to pair. It prints, per
// end-to-end metric of BENCHMARK.json:
//
//   - the parent's and the change's medians and the change in percent;
//   - the parent's interquartile range, absolute and relative to its
//     median;
//   - the pairs the change won (read better than the parent run beside it);
//   - "unresolved" when the parent's relative IQR exceeds the metric's
//     bound, so the runs spread too widely to tell a move of that size;
//   - every run's value, parent/change.
//
// It also prints every run's correct, attempted and failed counts. It only
// reports and never gates: the exit status is non-zero only when a build or
// a run fails outright, or a run's result lacks an end-to-end metric.
//
// Run it from the repository root; everything after -- goes to the
// benchmark command:
//
//	go run ./scripts/abbench -rev HEAD -pairs 6 -- --workload dense-paper --seed 1 --seconds 20 --trace 0
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

func main() {
	rev := flag.String("rev", "", "parent revision to compare the working tree against (required)")
	pairs := flag.Int("pairs", 6, "number of parent/change run pairs")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: abbench -rev REV [-pairs N] -- BENCHMARK-ARGS...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *rev == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*rev, *pairs, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abbench:", err)
		os.Exit(1)
	}
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
	report(out, bf.EndToEnd, parent, change)
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
	won                        int
	unresolved                 bool
}

// compare summarises one metric. values are in pair order.
func compare(m metric, parent, change []float64) summary {
	s := summary{parentMedian: quantile(parent, 0.5), changeMedian: quantile(change, 0.5)}
	s.parentIQR = quantile(parent, 0.75) - quantile(parent, 0.25)
	for i := range parent {
		if (m.Better == "lower" && change[i] < parent[i]) || (m.Better == "higher" && change[i] > parent[i]) {
			s.won++
		}
	}
	s.unresolved = s.parentMedian != 0 && s.parentIQR/math.Abs(s.parentMedian) > m.Bound
	return s
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

func report(out io.Writer, metrics []metric, parent, change []runResult) {
	n := len(parent)
	fmt.Fprintf(out, "%-16s %12s %12s %8s %22s %6s\n", "metric", "parent", "change", "delta", "parent IQR", "won")
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
		fmt.Fprintf(out, "%-16s %12.4g %12.4g %+7.1f%% %22s %3d/%d%s\n", m.Name, s.parentMedian, s.changeMedian, delta, iqr, s.won, n, flag)
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
	for i := range runs {
		runs[i] = fmt.Sprintf("%v %d/%d | %v %d/%d", parent[i].Correct, parent[i].Failed, parent[i].Attempted,
			change[i].Correct, change[i].Failed, change[i].Attempted)
	}
	fmt.Fprintf(out, "  %-16s %s\n", "correct f/att", strings.Join(runs, ", "))
}
