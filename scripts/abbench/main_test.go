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
