package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(v, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", v, tc.q, got, tc.want)
		}
	}
	if v[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestParseArgsRefusesFewPairs(t *testing.T) {
	var stderr bytes.Buffer
	if _, _, _, err := parseArgs([]string{"-rev", "HEAD", "-pairs", "9", "--", "--seconds", "5"}, &stderr); err == nil {
		t.Fatal("9 pairs accepted")
	}
	if usage := strings.SplitN(stderr.String(), "\n", 2)[0]; !strings.Contains(usage, "at least 10") {
		t.Errorf("usage line %q does not name the minimum of 10 pairs", usage)
	}
	rev, pairs, args, err := parseArgs([]string{"-rev", "HEAD", "--", "--seconds", "5"}, &stderr)
	if err != nil || rev != "HEAD" || pairs != 10 || strings.Join(args, " ") != "--seconds 5" {
		t.Errorf("default parse = %q, %d, %q, %v; want HEAD, 10 pairs, the benchmark args", rev, pairs, args, err)
	}
}

func TestCompare(t *testing.T) {
	lower := metric{Name: "op_ms", Better: "lower", Bound: 0.25}
	s := compare(lower, []float64{100, 110, 90, 100}, []float64{80, 115, 85, 100})
	if s.parentMedian != 100 || s.changeMedian != 92.5 || s.won != 2 || s.unresolved {
		t.Errorf("lower-is-better summary %+v, want medians 100/92.5, 2 won, resolved", s)
	}
	higher := metric{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	if s := compare(higher, []float64{1, 2, 3}, []float64{2, 2, 4}); s.won != 2 {
		t.Errorf("higher-is-better won %d pairs, want 2 (a tie is not a win)", s.won)
	}
	// IQR 50 on a median of 100 is wider than a 0.25 bound.
	if s := compare(lower, []float64{50, 75, 100, 125, 150}, []float64{1, 1, 1, 1, 1}); !s.unresolved {
		t.Errorf("spread %g around %g not flagged unresolved", s.parentIQR, s.parentMedian)
	}
}

func TestReportPrintsEveryRun(t *testing.T) {
	res := func(v float64, ok bool) runResult {
		r := runResult{Correct: ok, Attempted: 3, Metrics: map[string]struct {
			Value float64 `json:"value"`
		}{}}
		r.Metrics["op_ms"] = struct {
			Value float64 `json:"value"`
		}{v}
		return r
	}
	var out bytes.Buffer
	report(&out, []metric{{Name: "op_ms", Better: "lower", Bound: 0.25}},
		[]runResult{res(10, true), res(12, true)}, []runResult{res(8, true), res(13, false)})
	for _, want := range []string{"op_ms", "1/2", "10/8, 12/13", "true 0/3 | true 0/3, true 0/3 | false 0/3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunOnceRejectsMissingMetric(t *testing.T) {
	metrics := []metric{{Name: "op_ms"}, {Name: "peak_rss_mb"}}
	result := func(line string) []string { return []string{"sh", "-c", "echo progress; echo '" + line + "'"} }
	res, err := runOnce(".", result(`{"correct": true, "metrics": {"op_ms": {"value": 2}, "peak_rss_mb": {"value": 9}}}`), nil, metrics)
	if err != nil || res.Metrics["op_ms"].Value != 2 {
		t.Fatalf("complete result read as %+v, %v", res, err)
	}
	_, err = runOnce(".", result(`{"correct": true, "metrics": {"op_ms": {"value": 2}}}`), nil, metrics)
	if err == nil || !strings.Contains(err.Error(), "peak_rss_mb") {
		t.Fatalf("result without peak_rss_mb gave error %v, want one naming the metric", err)
	}
}

// TestGate runs the two gate rules over synthetic pairs. The parent's op_ms
// runs have median 100 and IQR 4 (4%).
func TestGate(t *testing.T) {
	parentMs := []float64{96, 104, 97.6, 102.4, 99.2, 100.8}
	metrics := []metric{{Name: "op_ms", Better: "lower", Bound: 0.25}, {Name: "ops_per_s", Better: "higher", Bound: 0.25}}
	side := func(ms []float64) []runResult {
		rs := make([]runResult, len(ms))
		for i, v := range ms {
			rs[i] = runResult{Correct: true, Attempted: 20, Metrics: map[string]struct {
				Value float64 `json:"value"`
			}{"op_ms": {v}, "ops_per_s": {1000 / v}}}
		}
		return rs
	}
	scaled := func(f ...float64) []float64 {
		v := make([]float64, len(parentMs))
		for i := range v {
			v[i] = parentMs[i] * f[i]
		}
		return v
	}
	for _, tc := range []struct {
		name   string
		change []runResult
		want   []string // one substring per expected failure; none passes
	}{
		{"identical runs", side(parentMs), nil},
		{"5/6 pairs lost by 15%", side(scaled(1.15, 1.15, 0.9, 1.15, 1.15, 1.15)), nil},
		{"6/6 pairs 1% slower, inside the parent IQR", side(scaled(1.01, 1.01, 1.01, 1.01, 1.01, 1.01)), nil},
		{"6/6 pairs 15% slower", side(scaled(1.15, 1.15, 1.15, 1.15, 1.15, 1.15)), []string{"op_ms: parent won 6/6", "ops_per_s: parent won 6/6"}},
		{"a change run not correct", func() []runResult {
			rs := side(parentMs)
			rs[3].Correct = false
			return rs
		}(), []string{"change run 4 is not correct"}},
		{"a higher failed share", func() []runResult {
			rs := side(parentMs)
			rs[0].Failed = 1
			return rs
		}(), []string{"the change failed 1/120 operations, the parent 0/120"}},
	} {
		var out bytes.Buffer
		failures := report(&out, metrics, side(parentMs), tc.change)
		if len(failures) != len(tc.want) {
			t.Errorf("%s: failures %q, want %d:\n%s", tc.name, failures, len(tc.want), out.String())
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(failures[i], w) || !strings.Contains(out.String(), w) {
				t.Errorf("%s: failure %q or the report lacks %q:\n%s", tc.name, failures[i], w, out.String())
			}
		}
	}
}
