package dbpsim_test

import (
	"flag"
	"testing"
)

// workRows are the benchmarks whose machine-independent units are gated:
// allocs/op, and coreticks/simcycle where coreticks is nonzero. The bases
// are the values recorded when the gate was set. benchtime is the
// -test.benchtime the benchmark runs at: one op for whole simulations, and
// enough ops for the micro-benchmarks that an allocation outside their loop
// rounds away.
var workRows = []struct {
	name      string
	bench     func(*testing.B)
	benchtime string
	allocs    float64
	coreticks float64
}{
	{"PolicyCycles_FRFCFS", BenchmarkPolicyCycles_FRFCFS, "1x", 408, 1.902},
	{"PolicyCycles_TCM", BenchmarkPolicyCycles_TCM, "1x", 458, 1.887},
	{"PolicyCycles_MCP", BenchmarkPolicyCycles_MCP, "1x", 430, 1.904},
	{"PolicyCycles_DBP", BenchmarkPolicyCycles_DBP, "1x", 615, 2.081},
	{"PolicyCycles_DBPTCM", BenchmarkPolicyCycles_DBPTCM, "1x", 656, 2.077},
	{"IdleHeavySkipOn", BenchmarkIdleHeavySkipOn, "1x", 24, 0.1536},
	{"IdleHeavySkipOff", BenchmarkIdleHeavySkipOff, "1x", 24, 0},
	{"AddressDecode", BenchmarkAddressDecode, "100000x", 0, 0},
	{"CacheAccess", BenchmarkCacheAccess, "100000x", 0, 0},
	{"DRAMCommandIssue", BenchmarkDRAMCommandIssue, "100000x", 0, 0},
	{"TraceGeneration", BenchmarkTraceGeneration, "100000x", 0, 0},
}

// allocLimit is the most allocs/op a row with base allocations passes at:
// zero stays zero, otherwise 5% plus 8. internal/serve's memo_test.go holds
// a copy for its cache-hit gate; change both together.
func allocLimit(base float64) float64 {
	if base == 0 {
		return 0
	}
	return base*1.05 + 8
}

// TestBenchmarkWorkCounts runs each gated benchmark through
// testing.Benchmark at its row's benchtime and fails one line per unit over
// its limit, or per benchmark that failed. Both units read the same on any
// host, so they are pinned here rather than compared run against run;
// coreticks/simcycle is deterministic, so its limit only absorbs the
// rounding of the recorded base (+0.5%).
func TestBenchmarkWorkCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven whole simulations")
	}
	bt := flag.Lookup("test.benchtime")
	defer bt.Value.Set(bt.Value.String())
	for _, row := range workRows {
		if err := bt.Value.Set(row.benchtime); err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(row.bench)
		if r.N == 0 {
			t.Errorf("%s: benchmark failed", row.name)
			continue
		}
		if a, lim := r.AllocsPerOp(), allocLimit(row.allocs); float64(a) > lim {
			t.Errorf("%s allocs/op: %d, limit %.1f", row.name, a, lim)
		}
		if row.coreticks == 0 {
			continue
		}
		w, ok := r.Extra["coreticks/simcycle"]
		if lim := row.coreticks * 1.005; !ok || w > lim {
			t.Errorf("%s coreticks/simcycle: %.4g, limit %.4g", row.name, w, lim)
		}
	}
}
