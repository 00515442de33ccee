package stats

import (
	"fmt"
	"strings"
)

// ThreadPerf holds the per-thread performance of one multi-programmed run,
// paired with the thread's alone-run baseline.
type ThreadPerf struct {
	// Name identifies the benchmark the thread runs.
	Name string
	// IPCShared is the thread's instructions per cycle in the shared run.
	IPCShared float64
	// IPCAlone is the thread's IPC when running alone on the same system.
	IPCAlone float64
}

// Speedup returns IPCShared/IPCAlone, the thread's normalized performance.
func (t ThreadPerf) Speedup() float64 {
	if t.IPCAlone == 0 {
		return 0
	}
	return t.IPCShared / t.IPCAlone
}

// Slowdown returns IPCAlone/IPCShared, the thread's interference-induced
// slowdown (≥1 in practice).
func (t ThreadPerf) Slowdown() float64 {
	if t.IPCShared == 0 {
		return 0
	}
	return t.IPCAlone / t.IPCShared
}

// SystemMetrics summarises a multi-programmed run using the paper's metrics.
type SystemMetrics struct {
	// WeightedSpeedup is Σ_i IPCshared_i/IPCalone_i — system throughput.
	WeightedSpeedup float64
	// HarmonicSpeedup is N / Σ_i IPCalone_i/IPCshared_i — balance of
	// throughput and fairness.
	HarmonicSpeedup float64
	// MaxSlowdown is max_i IPCalone_i/IPCshared_i — system unfairness
	// (lower is better).
	MaxSlowdown float64
	// Threads holds the per-thread detail the aggregate was computed from.
	Threads []ThreadPerf
}

// ComputeMetrics derives the paper's system metrics from per-thread
// performance. It returns an error when the input is empty or a thread has a
// non-positive baseline, since every metric would be meaningless.
func ComputeMetrics(threads []ThreadPerf) (SystemMetrics, error) {
	if len(threads) == 0 {
		return SystemMetrics{}, fmt.Errorf("stats: no threads")
	}
	m := SystemMetrics{Threads: append([]ThreadPerf(nil), threads...)}
	var slowdownSum float64
	for _, t := range threads {
		if t.IPCAlone <= 0 {
			return SystemMetrics{}, fmt.Errorf("stats: thread %q has non-positive alone IPC %g", t.Name, t.IPCAlone)
		}
		if t.IPCShared <= 0 {
			return SystemMetrics{}, fmt.Errorf("stats: thread %q has non-positive shared IPC %g", t.Name, t.IPCShared)
		}
		sp := t.Speedup()
		sd := t.Slowdown()
		m.WeightedSpeedup += sp
		slowdownSum += sd
		if sd > m.MaxSlowdown {
			m.MaxSlowdown = sd
		}
	}
	m.HarmonicSpeedup = float64(len(threads)) / slowdownSum
	return m, nil
}

// Delta expresses the improvement of this run over a baseline in the paper's
// vocabulary: positive throughput delta = higher weighted speedup, positive
// fairness delta = lower maximum slowdown.
func (m SystemMetrics) Delta(baseline SystemMetrics) (throughputPct, fairnessPct float64) {
	if baseline.WeightedSpeedup > 0 {
		throughputPct = 100 * (m.WeightedSpeedup - baseline.WeightedSpeedup) / baseline.WeightedSpeedup
	}
	if baseline.MaxSlowdown > 0 {
		fairnessPct = 100 * (baseline.MaxSlowdown - m.MaxSlowdown) / baseline.MaxSlowdown
	}
	return throughputPct, fairnessPct
}

// String renders the aggregate metrics compactly.
func (m SystemMetrics) String() string {
	return fmt.Sprintf("WS=%.3f HS=%.3f MS=%.3f", m.WeightedSpeedup, m.HarmonicSpeedup, m.MaxSlowdown)
}

// Table renders per-thread detail as an aligned text table.
func (m SystemMetrics) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %9s %9s\n", "thread", "ipc.shared", "ipc.alone", "speedup", "slowdown")
	for _, t := range m.Threads {
		fmt.Fprintf(&b, "%-16s %10.4f %10.4f %9.3f %9.3f\n", t.Name, t.IPCShared, t.IPCAlone, t.Speedup(), t.Slowdown())
	}
	fmt.Fprintf(&b, "%-16s WS=%.3f HS=%.3f MS=%.3f\n", "system", m.WeightedSpeedup, m.HarmonicSpeedup, m.MaxSlowdown)
	return b.String()
}

// MeanAcross averages metrics over several workload runs, as the paper does
// when reporting suite-wide results. Maximum slowdown is averaged across
// workloads (each workload contributes its own max).
func MeanAcross(runs []SystemMetrics) SystemMetrics {
	if len(runs) == 0 {
		return SystemMetrics{}
	}
	var out SystemMetrics
	for _, r := range runs {
		out.WeightedSpeedup += r.WeightedSpeedup
		out.HarmonicSpeedup += r.HarmonicSpeedup
		out.MaxSlowdown += r.MaxSlowdown
	}
	n := float64(len(runs))
	out.WeightedSpeedup /= n
	out.HarmonicSpeedup /= n
	out.MaxSlowdown /= n
	return out
}

// JainIndex returns Jain's fairness index over the per-thread speedups:
// (Σx)² / (n·Σx²), in (0, 1] where 1 is perfectly equal treatment. An
// additional fairness view some partitioning papers report next to maximum
// slowdown.
func (m SystemMetrics) JainIndex() float64 {
	if len(m.Threads) == 0 {
		return 0
	}
	var sum, sq float64
	for _, t := range m.Threads {
		x := t.Speedup()
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(m.Threads)) * sq)
}
