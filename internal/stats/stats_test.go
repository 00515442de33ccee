package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	for _, x := range []float64{0.5, 1.5, 3, 10} {
		h.Observe(x)
	}
	if h.N != 4 {
		t.Fatalf("N = %d, want 4", h.N)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 2 {
		t.Errorf("Counts = %v, want [1 1 2]", h.Counts)
	}
	if h.Min != 0.5 || h.Max != 10 {
		t.Errorf("Min/Max = %g/%g", h.Min, h.Max)
	}
	if got := h.MeanValue(); !almostEqual(got, 15.0/4, 1e-12) {
		t.Errorf("MeanValue = %g", got)
	}
	if s := h.String(); !strings.Contains(s, "n=4") {
		t.Errorf("String = %q", s)
	}
	if s := NewHistogram(nil).String(); s != "hist{empty}" {
		t.Errorf("empty String = %q", s)
	}
}

func TestComputeMetrics(t *testing.T) {
	threads := []ThreadPerf{
		{Name: "a", IPCShared: 0.5, IPCAlone: 1.0},
		{Name: "b", IPCShared: 0.8, IPCAlone: 1.0},
	}
	m, err := ComputeMetrics(threads)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.WeightedSpeedup, 1.3, 1e-12) {
		t.Errorf("WS = %g, want 1.3", m.WeightedSpeedup)
	}
	if !almostEqual(m.MaxSlowdown, 2.0, 1e-12) {
		t.Errorf("MS = %g, want 2.0", m.MaxSlowdown)
	}
	wantHS := 2.0 / (2.0 + 1.25)
	if !almostEqual(m.HarmonicSpeedup, wantHS, 1e-12) {
		t.Errorf("HS = %g, want %g", m.HarmonicSpeedup, wantHS)
	}
}

func TestComputeMetricsErrors(t *testing.T) {
	if _, err := ComputeMetrics(nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := ComputeMetrics([]ThreadPerf{{Name: "a", IPCShared: 1, IPCAlone: 0}}); err == nil {
		t.Error("expected error for zero alone IPC")
	}
	if _, err := ComputeMetrics([]ThreadPerf{{Name: "a", IPCShared: 0, IPCAlone: 1}}); err == nil {
		t.Error("expected error for zero shared IPC")
	}
}

func TestMetricsDelta(t *testing.T) {
	base := SystemMetrics{WeightedSpeedup: 2.0, MaxSlowdown: 4.0}
	cur := SystemMetrics{WeightedSpeedup: 2.2, MaxSlowdown: 3.0}
	tp, fp := cur.Delta(base)
	if !almostEqual(tp, 10, 1e-9) {
		t.Errorf("throughput delta = %g, want 10", tp)
	}
	if !almostEqual(fp, 25, 1e-9) {
		t.Errorf("fairness delta = %g, want 25", fp)
	}
	tp, fp = cur.Delta(SystemMetrics{})
	if tp != 0 || fp != 0 {
		t.Errorf("delta vs zero baseline = %g,%g, want 0,0", tp, fp)
	}
}

func TestMetricsWSBounds(t *testing.T) {
	// Property: weighted speedup of N threads lies in (0, N] when no thread
	// runs faster shared than alone, and MaxSlowdown ≥ 1.
	f := func(seeds []uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		threads := make([]ThreadPerf, 0, len(seeds))
		for i, s := range seeds {
			alone := 0.5 + float64(s)/64.0
			shared := alone * (0.1 + 0.9*float64(s%13)/13.0)
			if shared <= 0 {
				shared = alone * 0.05
			}
			threads = append(threads, ThreadPerf{Name: string(rune('a' + i%26)), IPCShared: shared, IPCAlone: alone})
		}
		m, err := ComputeMetrics(threads)
		if err != nil {
			return false
		}
		return m.WeightedSpeedup > 0 && m.WeightedSpeedup <= float64(len(threads))+1e-9 &&
			m.MaxSlowdown >= 1-1e-9 && m.HarmonicSpeedup > 0 && m.HarmonicSpeedup <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAcross(t *testing.T) {
	runs := []SystemMetrics{
		{WeightedSpeedup: 2, HarmonicSpeedup: 0.5, MaxSlowdown: 3},
		{WeightedSpeedup: 4, HarmonicSpeedup: 0.7, MaxSlowdown: 5},
	}
	m := MeanAcross(runs)
	if m.WeightedSpeedup != 3 || m.MaxSlowdown != 4 || !almostEqual(m.HarmonicSpeedup, 0.6, 1e-12) {
		t.Errorf("MeanAcross = %+v", m)
	}
	if z := MeanAcross(nil); z.WeightedSpeedup != 0 {
		t.Errorf("MeanAcross(nil) = %+v", z)
	}
}

func TestMetricsStrings(t *testing.T) {
	threads := []ThreadPerf{{Name: "a", IPCShared: 0.5, IPCAlone: 1.0}}
	m, err := ComputeMetrics(threads)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.String(); !strings.Contains(s, "WS=") {
		t.Errorf("String = %q", s)
	}
	tab := m.Table()
	if !strings.Contains(tab, "a") || !strings.Contains(tab, "system") {
		t.Errorf("Table = %q", tab)
	}
}

func TestTableWriter(t *testing.T) {
	tw := NewTable("workload", "frfcfs", "dbp")
	tw.AddRow("W8-1", "3.1", "3.3")
	tw.AddRow("W8-2", "2.50", "2.75")
	if tw.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tw.NumRows())
	}
	txt := tw.Text()
	for _, want := range []string{"workload", "W8-1", "2.75", "---"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Text missing %q in:\n%s", want, txt)
		}
	}
	csv := tw.CSV()
	if !strings.Contains(csv, "W8-1,3.1,3.3") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestTableWriterCSVQuoting(t *testing.T) {
	tw := NewTable("a", "b")
	tw.AddRow("x,y", "plain")
	csv := tw.CSV()
	if !strings.Contains(csv, "\"x,y\",plain") {
		t.Errorf("CSV quoting failed: %q", csv)
	}
}

func TestThreadPerfZeroDivision(t *testing.T) {
	var tp ThreadPerf
	if tp.Speedup() != 0 || tp.Slowdown() != 0 {
		t.Error("zero ThreadPerf should yield zero speedup/slowdown")
	}
}

func TestJainIndex(t *testing.T) {
	// Perfect equality: index 1.
	eq := SystemMetrics{Threads: []ThreadPerf{
		{Name: "a", IPCShared: 0.5, IPCAlone: 1},
		{Name: "b", IPCShared: 1.0, IPCAlone: 2},
	}}
	if got := eq.JainIndex(); !almostEqual(got, 1, 1e-12) {
		t.Errorf("equal speedups Jain = %g, want 1", got)
	}
	// Unequal treatment lowers the index.
	uneq := SystemMetrics{Threads: []ThreadPerf{
		{Name: "a", IPCShared: 0.9, IPCAlone: 1},
		{Name: "b", IPCShared: 0.1, IPCAlone: 1},
	}}
	if got := uneq.JainIndex(); got >= 0.99 || got <= 0 {
		t.Errorf("unequal Jain = %g, want in (0, 0.99)", got)
	}
	if (SystemMetrics{}).JainIndex() != 0 {
		t.Error("empty metrics Jain should be 0")
	}
	zero := SystemMetrics{Threads: []ThreadPerf{{Name: "a"}}}
	if zero.JainIndex() != 0 {
		t.Error("all-zero speedups Jain should be 0")
	}
}

func TestJainIndexBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var threads []ThreadPerf
		for i, r := range raw {
			threads = append(threads, ThreadPerf{
				Name:      string(rune('a' + i%26)),
				IPCShared: 0.01 + float64(r)/64.0,
				IPCAlone:  1,
			})
		}
		j := SystemMetrics{Threads: threads}.JainIndex()
		return j > 0 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("title", []string{"a", "longer"}, []float64{1, 2}, 10)
	if !strings.Contains(out, "title") || !strings.Contains(out, "longer") {
		t.Errorf("chart = %q", out)
	}
	// The max value gets the full width; half value gets about half.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	aBars := strings.Count(lines[1], "█")
	bBars := strings.Count(lines[2], "█")
	if bBars != 10 || aBars != 5 {
		t.Errorf("bar widths = %d and %d, want 5 and 10", aBars, bBars)
	}
	if got := BarChart("", nil, nil, 0); !strings.Contains(got, "no data") {
		t.Errorf("empty chart = %q", got)
	}
	// Zero values: no bars, no panic.
	if got := BarChart("", []string{"z"}, []float64{0}, 10); strings.Contains(got, "█") {
		t.Errorf("zero value drew a bar: %q", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(got)) != 4 {
		t.Fatalf("sparkline length = %d", len([]rune(got)))
	}
	runes := []rune(got)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline extremes wrong: %q", got)
	}
	// Flat series renders the lowest glyph everywhere.
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat series rendered %q", string(flat))
			break
		}
	}
}

func TestSeriesChart(t *testing.T) {
	out := SeriesChart("dyn", []string{"x", "y"}, [][]float64{{1, 2, 3}, {3, 1}})
	if !strings.Contains(out, "dyn") || !strings.Contains(out, "[1.00 … 3.00]") {
		t.Errorf("series chart = %q", out)
	}
	// Mismatched/empty series are skipped without panic.
	out = SeriesChart("", []string{"a", "b"}, [][]float64{{1}})
	if strings.Contains(out, "b ") && strings.Contains(out, "…") && strings.Count(out, "\n") > 1 {
		t.Errorf("missing series rendered: %q", out)
	}
}
