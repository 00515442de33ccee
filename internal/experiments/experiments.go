// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each function returns an
// Outcome holding the paper-style table plus headline summary lines that
// state the measured deltas next to the paper's claims.
//
// The same functions back cmd/dbpsweep and the root benchmark harness.
package experiments

import (
	"fmt"
	"sync"

	"dbpsim/internal/sim"
	"dbpsim/internal/stats"
	"dbpsim/internal/workload"
)

// Options sets the run budget and workload scope shared by all experiments.
type Options struct {
	// Base is the configuration template.
	Base sim.Config
	// Warmup and Measure are per-core instruction budgets.
	Warmup  uint64
	Measure uint64
	// Mixes is the 8-core evaluation set (subset of workload.Mixes8).
	Mixes []workload.Mix
	// Progress, if non-nil, receives one line per completed run.
	Progress func(string)
	// LedgerDir, when non-empty, writes one machine-readable run ledger
	// per distinct (config, mix, policy) run of the grid experiments into
	// this directory (see internal/obs): `<mix>_<scheduler>_<partition>.json`
	// for a run on Base, with `_<first 12 hex of config_hash>` before
	// `.json` for a run on any other config.
	LedgerDir string

	// runner keeps every finished grid run and alone baseline for the
	// life of these Options (see runner); nil runs each experiment afresh.
	runner *runner
}

// DefaultOptions returns full-evaluation budgets; quick shrinks both the
// budgets and the mix list for fast regression runs. Copies of the result
// share one runner, so the experiments run on them simulate each distinct
// run and alone baseline once.
func DefaultOptions(quick bool) Options {
	base := sim.DefaultConfig(8)
	if quick {
		return Options{
			Base:    base,
			Warmup:  100_000,
			Measure: 200_000,
			Mixes:   []workload.Mix{workload.Mixes8()[0], workload.Mixes8()[4], workload.Mixes8()[8]},
			runner:  newRunner(),
		}
	}
	return Options{
		Base:    base,
		Warmup:  200_000,
		Measure: 400_000,
		Mixes:   workload.Mixes8(),
		runner:  newRunner(),
	}
}

// progressMu serialises Progress callbacks from concurrent workers.
var progressMu sync.Mutex

func (o Options) log(format string, args ...any) {
	if o.Progress == nil {
		return
	}
	progressMu.Lock()
	defer progressMu.Unlock()
	o.Progress(fmt.Sprintf(format, args...))
}

// Bar is one policy's suite-mean metrics, for chart rendering.
type Bar struct {
	Label string
	WS    float64
	MS    float64
}

// Outcome is one regenerated table/figure.
type Outcome struct {
	// ID is the experiment identifier ("table2", "fig6", ...).
	ID string
	// Title describes what the paper reports there.
	Title string
	// Table holds the regenerated rows.
	Table *stats.TableWriter
	// Summary holds headline lines (measured vs. paper claim).
	Summary []string
	// Bars holds suite means per policy when the experiment is a policy
	// sweep (rendered by `dbpsweep -plot`).
	Bars []Bar
}

// barsOf converts sweep means to chart bars.
func barsOf(policies []sim.PolicyPoint, means []stats.SystemMetrics) []Bar {
	out := make([]Bar, 0, len(policies))
	for i, p := range policies {
		if i < len(means) {
			out = append(out, Bar{Label: p.Label, WS: means[i].WeightedSpeedup, MS: means[i].MaxSlowdown})
		}
	}
	return out
}

// Table1 renders the simulated system configuration (the paper's Table 1).
func Table1(base sim.Config) Outcome {
	t := stats.NewTable("component", "configuration")
	g := base.Geometry
	t.AddRow("cores", fmt.Sprintf("%d-wide, %d-entry window, %d MSHRs, %d× memory clock",
		base.CPU.Width, base.CPU.ROBSize, base.CPU.MSHRs, base.CPUClockRatio))
	t.AddRow("L1D", fmt.Sprintf("%d KiB, %d-way, %d B lines, %d-cycle",
		base.L1.SizeBytes>>10, base.L1.Ways, base.L1.LineBytes, base.CPU.L1Latency))
	t.AddRow("L2 (private)", fmt.Sprintf("%d KiB, %d-way, %d-cycle",
		base.L2.SizeBytes>>10, base.L2.Ways, base.CPU.L2Latency))
	t.AddRow("DRAM", fmt.Sprintf("%d channels × %d ranks × %d banks (%d colors), %d B rows",
		g.Channels, g.RanksPerChannel, g.BanksPerRank, g.NumColors(), g.RowBytes()))
	t.AddRow("timing", fmt.Sprintf("DDR3-1600-class: tRCD=%d tRP=%d CL=%d tRAS=%d tFAW=%d (memory cycles)",
		base.Timing.TRCD, base.Timing.TRP, base.Timing.CL, base.Timing.TRAS, base.Timing.TFAW))
	t.AddRow("controller", fmt.Sprintf("%d-entry read queue, %d-entry write queue, drain %d→%d, open page",
		base.Ctrl.ReadQueueCap, base.Ctrl.WriteQueueCap, base.Ctrl.WriteHighWatermark, base.Ctrl.WriteLowWatermark))
	t.AddRow("DBP", fmt.Sprintf("quantum %d CPU cycles, light threshold %.1f MPKI, hysteresis %d",
		base.DBP.QuantumCPUCycles, base.DBP.LightMPKI, base.DBP.HysteresisColors))
	return Outcome{
		ID:    "table1",
		Title: "System configuration",
		Table: t,
	}
}

// Table2 characterises every benchmark alone (the paper's Table 2: MPKI,
// RBL, BLP).
func Table2(o Options) (Outcome, error) {
	t := stats.NewTable("benchmark", "class", "IPC", "MPKI", "RBL", "BLP")
	for _, spec := range workload.Suite() {
		cfg := o.Base
		cfg.Cores = 1
		cfg.Scheduler = sim.SchedFRFCFS
		cfg.Partition = sim.PartNone
		sys, err := sim.NewSystem(cfg, []sim.Bench{{Name: spec.Name, Gen: spec.New(cfg.Seed)}})
		if err != nil {
			return Outcome{}, err
		}
		res, err := sys.Run(o.Warmup, o.Measure, 0)
		if err != nil {
			return Outcome{}, fmt.Errorf("table2 %s: %w", spec.Name, err)
		}
		th := res.Threads[0]
		t.AddRow(spec.Name, spec.Class.String(),
			fmt.Sprintf("%.3f", th.IPC), fmt.Sprintf("%.1f", th.MPKI),
			fmt.Sprintf("%.2f", th.RBL), fmt.Sprintf("%.2f", th.BLP))
		o.log("table2: %s done", spec.Name)
	}
	return Outcome{
		ID:    "table2",
		Title: "Benchmark characteristics (alone runs)",
		Table: t,
		Summary: []string{
			"Suite spans the paper's three axes: MPKI 0.05–35, RBL 0.0–0.95, BLP 1–6.",
		},
	}, nil
}

// Fig1 reproduces the motivation figure: interference between a streaming
// and a random thread sharing all banks under FR-FCFS, versus running
// alone.
func Fig1(o Options) (Outcome, error) {
	stream, _ := workload.ByName("libquantum-like")
	random, _ := workload.ByName("milc-like")
	e := sim.NewExperiment(o.Base, o.Warmup, o.Measure)
	mix := workload.Mix{Name: "FIG1", Category: "M", Members: []string{stream.Name, random.Name}}
	run, err := e.RunMix(mix, sim.SchedFRFCFS, sim.PartNone)
	if err != nil {
		return Outcome{}, err
	}
	t := stats.NewTable("thread", "IPC.alone", "IPC.shared", "slowdown", "RBL.shared")
	for i, th := range run.Result.Threads {
		t.AddRow(th.Name,
			fmt.Sprintf("%.3f", run.Metrics.Threads[i].IPCAlone),
			fmt.Sprintf("%.3f", th.IPC),
			fmt.Sprintf("%.2f", run.Metrics.Threads[i].Slowdown()),
			fmt.Sprintf("%.2f", th.RBL))
	}
	return Outcome{
		ID:    "fig1",
		Title: "Motivation: unmanaged interference at shared banks (FR-FCFS)",
		Table: t,
		Summary: []string{
			fmt.Sprintf("Both threads slow down when sharing banks (max slowdown %.2f): interference is real.",
				run.Metrics.MaxSlowdown),
		},
	}, nil
}

// Fig2 reproduces the second motivation figure: restricting a high-BLP
// thread to an equal-share bank count destroys its bank-level parallelism.
func Fig2(o Options) (Outcome, error) {
	spec, _ := workload.ByName("lbm-like")
	numColors := o.Base.Geometry.NumColors()
	t := stats.NewTable("banks", "IPC", "BLP")
	var ipcFull, ipcTwo float64
	for _, banks := range []int{numColors, numColors / 2, numColors / 4, 2, 1} {
		cfg := o.Base
		cfg.Cores = 1
		cfg.Partition = sim.PartFixed
		colors := make([]int, banks)
		for i := range colors {
			colors[i] = i * (numColors / banks)
		}
		cfg.FixedMasks = [][]int{colors}
		sys, err := sim.NewSystem(cfg, []sim.Bench{{Name: spec.Name, Gen: spec.New(cfg.Seed)}})
		if err != nil {
			return Outcome{}, err
		}
		res, err := sys.Run(o.Warmup, o.Measure, 0)
		if err != nil {
			return Outcome{}, fmt.Errorf("fig2 banks=%d: %w", banks, err)
		}
		th := res.Threads[0]
		t.AddRow(fmt.Sprintf("%d", banks), fmt.Sprintf("%.3f", th.IPC), fmt.Sprintf("%.2f", th.BLP))
		if banks == numColors {
			ipcFull = th.IPC
		}
		if banks == 2 {
			ipcTwo = th.IPC
		}
		o.log("fig2: %d banks done", banks)
	}
	loss := 0.0
	if ipcFull > 0 {
		loss = 100 * (ipcFull - ipcTwo) / ipcFull
	}
	return Outcome{
		ID:    "fig2",
		Title: "Motivation: equal-share bank counts destroy BLP",
		Table: t,
		Summary: []string{
			fmt.Sprintf("Restricting the high-BLP thread to its equal share (2 of %d banks) costs %.0f%% of its alone IPC.",
				numColors, loss),
		},
	}, nil
}

// The policy points the paper's comparisons share.
var (
	frfcfs  = sim.PolicyPoint{Label: "FRFCFS", Scheduler: sim.SchedFRFCFS, Partition: sim.PartNone}
	equalBP = sim.PolicyPoint{Label: "EqualBP", Scheduler: sim.SchedFRFCFS, Partition: sim.PartEqual}
	dbp     = sim.PolicyPoint{Label: "DBP", Scheduler: sim.SchedFRFCFS, Partition: sim.PartDBP}
	mcp     = sim.PolicyPoint{Label: "MCP", Scheduler: sim.SchedFRFCFS, Partition: sim.PartMCP}
	tcm     = sim.PolicyPoint{Label: "TCM", Scheduler: sim.SchedTCM, Partition: sim.PartNone}
	dbpTCM  = sim.PolicyPoint{Label: "DBP-TCM", Scheduler: sim.SchedTCM, Partition: sim.PartDBP}
)

// claim renders a measured-vs-paper comparison line.
func claim(what string, cur, base stats.SystemMetrics, paperWS, paperFair float64) string {
	ws, fair := cur.Delta(base)
	return fmt.Sprintf("%s: %+.1f%% throughput, %+.1f%% fairness (paper: %+.1f%%, %+.1f%%)",
		what, ws, fair, paperWS, paperFair)
}

// Main reproduces the headline comparison (the paper's Figs. 6–7): FR-FCFS,
// equal bank partitioning and DBP across the mix set.
func Main(o Options) (Outcome, error) {
	policies := []sim.PolicyPoint{frfcfs, equalBP, dbp}
	t, means, err := policyTable(o, policies)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		ID:    "fig6-7",
		Title: "Main result: WS and MS of FR-FCFS / EqualBP / DBP",
		Table: t,
		Summary: []string{
			claim("DBP vs EqualBP", means[2], means[1], 4.3, 16),
			claim("DBP vs FRFCFS", means[2], means[0], 0, 0),
		},
		Bars: barsOf(policies, means),
	}, nil
}

// DBPTCM reproduces the combination study (the paper's Fig. 8): TCM alone
// versus DBP-TCM.
func DBPTCM(o Options) (Outcome, error) {
	policies := []sim.PolicyPoint{tcm, dbp, dbpTCM}
	t, means, err := policyTable(o, policies)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		ID:    "fig8",
		Title: "Combination: TCM vs DBP vs DBP-TCM (orthogonality)",
		Table: t,
		Summary: []string{
			claim("DBP-TCM vs TCM", means[2], means[0], 6.2, 16.7),
			claim("DBP-TCM vs DBP", means[2], means[1], 0, 0),
		},
		Bars: barsOf(policies, means),
	}, nil
}

// VsMCP reproduces the channel-partitioning comparison (the paper's
// Fig. 9): MCP versus DBP-TCM.
func VsMCP(o Options) (Outcome, error) {
	policies := []sim.PolicyPoint{mcp, dbpTCM}
	t, means, err := policyTable(o, policies)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		ID:    "fig9",
		Title: "Versus channel partitioning: MCP vs DBP-TCM",
		Table: t,
		Summary: []string{
			claim("DBP-TCM vs MCP", means[1], means[0], 5.3, 37),
		},
		Bars: barsOf(policies, means),
	}, nil
}
