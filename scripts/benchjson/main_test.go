package main

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: dbpsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPolicyCycles_DBP-8   	       1	 557222785 ns/op	       722.7 ns/simcycle	   1383679 simcycles/sec	  585200 B/op	     617 allocs/op
BenchmarkPolicyCycles_DBP-8   	       1	 600000000 ns/op	       750.0 ns/simcycle	   1300000 simcycles/sec	  585300 B/op	     618 allocs/op
BenchmarkPolicyCycles_DBP-8   	       1	 500000000 ns/op	       700.0 ns/simcycle	   1400000 simcycles/sec	  585100 B/op	     616 allocs/op
PASS
ok  	dbpsim	2.1s
goos: linux
goarch: amd64
pkg: dbpsim/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMeasureLoopSteadyState/ticking-8 	  686457	      1701 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	dbpsim/internal/sim	1.2s
`

func TestParseBench(t *testing.T) {
	ledger, err := parseBench(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if ledger.Schema != schemaID {
		t.Fatalf("schema = %q", ledger.Schema)
	}
	if len(ledger.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %d: %+v", len(ledger.Benchmarks), ledger.Benchmarks)
	}
	// Sorted by name: MeasureLoop... before PolicyCycles...
	ml, pc := ledger.Benchmarks[0], ledger.Benchmarks[1]
	if ml.Name != "MeasureLoopSteadyState/ticking" || pc.Name != "PolicyCycles_DBP" {
		t.Fatalf("names: %q, %q", ml.Name, pc.Name)
	}
	if got := pc.Metrics["allocs/op"]; got != 617 {
		t.Fatalf("median allocs/op = %g, want middle sample", got)
	}
	// Only the gated units are recorded: wall time is not comparable
	// across machines.
	if len(pc.Metrics) != 1 {
		t.Fatalf("metrics %v, want allocs/op alone", pc.Metrics)
	}
	if pc.Samples != 3 || ml.Samples != 1 {
		t.Fatalf("samples: %d, %d", pc.Samples, ml.Samples)
	}
	if got := ml.Metrics["allocs/op"]; got != 0 {
		t.Fatalf("allocs/op = %g, want 0", got)
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":          "Foo",
		"BenchmarkFoo":            "Foo",
		"BenchmarkFoo/sub-16":     "Foo/sub",
		"BenchmarkPolicy_DBP-8":   "Policy_DBP",
		"BenchmarkWeird-name-8":   "Weird-name",
		"BenchmarkTrailingDash-x": "TrailingDash-x",
	}
	for in, want := range cases {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %g", got)
	}
}

func TestCompareGatesWorkCounts(t *testing.T) {
	ledger := func(ns, allocs, ticks float64) Ledger {
		return Ledger{Schema: schemaID, Benchmarks: []Benchmark{{
			Name:    "PolicyCycles_DBP",
			Samples: 3,
			Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs, "coreticks/simcycle": ticks},
		}}}
	}
	base := ledger(1e8, 0, 1.902)
	for _, tc := range []struct {
		ns, allocs, ticks float64
		fail              bool
	}{
		{1e8, 0, 1.902, false}, // unchanged
		{1e8, 0, 1.905, false}, // printed rounding
		{1e8, 0, 0.950, false}, // less work is never a regression
		{1e8, 0, 1.930, true},  // +1.5%: a real change in kernel work
		{1e8, 0, 3.800, true},
		{2e8, 0, 1.902, false}, // wall time is not gated here
		{1e8, 1, 1.902, true},  // zero allocs stays zero
	} {
		matched, failures := compareLedgers(base, ledger(tc.ns, tc.allocs, tc.ticks), io.Discard)
		if matched != 1 {
			t.Fatalf("matched %d benchmarks, want 1", matched)
		}
		if got := len(failures) > 0; got != tc.fail {
			t.Errorf("ns/op 1e8 -> %g, allocs/op 0 -> %g, coreticks/simcycle 1.902 -> %g: failed=%v (%v), want %v",
				tc.ns, tc.allocs, tc.ticks, got, failures, tc.fail)
		}
	}
	// A baseline recorded before the unit existed does not gate it.
	old := ledger(1e8, 0, 0)
	delete(old.Benchmarks[0].Metrics, "coreticks/simcycle")
	if _, failures := compareLedgers(old, ledger(1e8, 0, 3.8), io.Discard); len(failures) != 0 {
		t.Errorf("unit missing from the baseline still gated: %v", failures)
	}
}
