// Command dbpsim runs one workload mix on the simulated CMP under a chosen
// scheduler/partition pair and prints the paper's metrics.
//
// Usage:
//
//	dbpsim -mix W8-M1 -sched tcm -part dbp
//	dbpsim -benchmarks mcf-like,lbm-like,gcc-like,povray-like -part equal
//	dbpsim -scenario scenarios/diurnal.json -part dbp -json run.json
//	dbpsim -mix W8-M1 -part dbp -json run.json -trace-out run.trace.json
//	dbpsim -mix W8-M1 -part dbp -checkpoint run.ckpt     # periodic resumable snapshots
//	dbpsim -mix W8-M1 -part dbp -restore run.ckpt        # resume an interrupted run
//	dbpsim -diff base.json new.json
//	dbpsim -list
//
// A run resumed with -restore reproduces the uninterrupted run
// bit-identically (same flags and config required — the blob is guarded by
// a config hash). A checkpoint that does not restore (corrupt file, or a
// config/format change) is reported on stderr and the run restarts from
// cycle 0 instead of failing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/pprof"
	"strings"

	"dbpsim"
	"dbpsim/internal/durable"
	"dbpsim/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbpsim:", err)
		os.Exit(1)
	}
}

// run is the testable body of main. Every failure returns instead of
// exiting, so the deferred cleanups (CPU-profile flush, file closes) run on
// error paths too.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dbpsim", flag.ContinueOnError)
	var (
		mixName    = fs.String("mix", "W8-M1", "workload mix name (see -list)")
		benchList  = fs.String("benchmarks", "", "comma-separated benchmark names (overrides -mix)")
		scenPath   = fs.String("scenario", "", "phase-shifting scenario JSON file (overrides -mix/-benchmarks; see docs/SCENARIOS.md)")
		schedName  = fs.String("sched", "frfcfs", "scheduler: fcfs|frfcfs|tcm|atlas")
		partName   = fs.String("part", "none", "partitioning: none|equal|dbp|mcp")
		warmup     = fs.Uint64("warmup", 200_000, "per-core warmup instructions")
		measure    = fs.Uint64("measure", 400_000, "per-core measured instructions")
		seed       = fs.Int64("seed", 1, "random seed")
		banks      = fs.Int("banks", 8, "banks per rank")
		channels   = fs.Int("channels", 2, "memory channels")
		quantum    = fs.Uint64("quantum", 500_000, "DBP repartitioning quantum (CPU cycles)")
		verbose    = fs.Bool("v", false, "print per-thread detail")
		listThings = fs.Bool("list", false, "list benchmarks and mixes, then exit")
		configPath = fs.String("config", "", "JSON config file (partial override of defaults)")
		saveConfig = fs.String("saveconfig", "", "write the effective config to this file and exit")
		latency    = fs.Bool("latency", false, "print per-thread read-latency distributions")
		timeline   = fs.Bool("timeline", false, "print per-thread bank-allocation and IPC sparklines")
		paranoid   = fs.Bool("paranoid", false, "cross-check system invariants during the run")

		checkpointOut = fs.String("checkpoint", "", "periodically write a resumable checkpoint of the run to this file (atomic replace)")
		restorePath   = fs.String("restore", "", "resume the run from a checkpoint file written by -checkpoint (same flags/config required)")
		ckptInterval  = fs.Uint64("checkpoint-interval", 10_000_000, "checkpoint period in simulated CPU cycles (rounded up to the scheduler quantum)")

		jsonOut    = fs.String("json", "", "write the machine-readable run ledger to this file")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace (chrome://tracing / Perfetto) to this file")
		epochsCSV  = fs.String("epochs-csv", "", "write the per-epoch time series as CSV to this file")
		diffMode   = fs.Bool("diff", false, "compare two run ledgers: dbpsim -diff base.json new.json")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *diffMode {
		return runDiff(fs.Args(), stdout)
	}

	if *listThings {
		fmt.Fprintln(stdout, "benchmarks:")
		for _, s := range dbpsim.Suite() {
			fmt.Fprintf(stdout, "  %-18s %-7s target MPKI %-5.4g %s\n", s.Name, s.Class, s.TargetMPKI, s.Description)
		}
		fmt.Fprintln(stdout, "mixes:")
		for _, set := range [][]dbpsim.Mix{dbpsim.Mixes4(), dbpsim.Mixes8(), dbpsim.Mixes16()} {
			for _, m := range set {
				fmt.Fprintf(stdout, "  %-8s (%s) %s\n", m.Name, m.Category, strings.Join(m.Members, ", "))
			}
		}
		return nil
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dbpsim: pprof:", err)
			}
		}()
	}

	// A scenario replaces the stationary mix: thread count and identity
	// come from the timeline file, and the run reports under the synthetic
	// "scenario:<name>" mix label.
	var scen *dbpsim.Scenario
	mix, err := resolveMix(*mixName, *benchList)
	if *scenPath != "" {
		scen, err = dbpsim.LoadScenario(*scenPath)
		if err != nil {
			return err
		}
		mix, err = dbpsim.ScenarioMix(scen), nil
	}
	if err != nil {
		return err
	}
	cfg := dbpsim.DefaultConfig(mix.Cores())
	cfg.Seed = *seed
	cfg.Geometry.BanksPerRank = *banks
	cfg.Geometry.Channels = *channels
	cfg.DBP.QuantumCPUCycles = *quantum
	if *configPath != "" {
		loaded, err := dbpsim.LoadConfig(*configPath, cfg)
		if err != nil {
			return err
		}
		cfg = loaded
		cfg.Cores = mix.Cores() // the mix decides the core count
	}
	cfg.RecordLatencyHistograms = *latency
	cfg.RecordTimeline = *timeline
	cfg.Paranoid = *paranoid
	if *saveConfig != "" {
		if err := dbpsim.SaveConfig(*saveConfig, cfg); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *saveConfig)
		return nil
	}

	// Observability: one recorder feeds the ledger's epoch series, the
	// Chrome trace and the epoch CSV; per-request spans are captured only
	// when the trace asks for them. Built through a closure because the
	// checkpoint-restore fallback path needs a pristine replacement.
	newRec := func() (*dbpsim.Recorder, error) {
		if *jsonOut == "" && *traceOut == "" && *epochsCSV == "" {
			return nil, nil
		}
		return dbpsim.NewRecorder(dbpsim.RecorderOptions{
			NumThreads: mix.Cores(),
			NumBanks:   cfg.Geometry.NumColors(),
			Spans:      *traceOut != "",
		})
	}
	rec, err := newRec()
	if err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var ck *dbpsim.Checkpointer
	if *checkpointOut != "" || *restorePath != "" {
		ck = &dbpsim.Checkpointer{}
		if *checkpointOut != "" {
			ck.Interval = *ckptInterval
			ck.Sink = func(blob []byte, cycle uint64) {
				if err := durable.WriteAtomic(*checkpointOut, blob); err != nil {
					fmt.Fprintf(os.Stderr, "dbpsim: checkpoint at cycle %d: %v\n", cycle, err)
				}
			}
			ck.OnError = func(err error) {
				fmt.Fprintln(os.Stderr, "dbpsim: checkpoint:", err)
			}
		}
		if *restorePath != "" {
			blob, err := os.ReadFile(*restorePath)
			if err != nil {
				return err
			}
			ck.Restore = blob
			// Stderr, so resumed stdout stays diffable against a full run.
			ck.OnRestore = func(cycle uint64) {
				fmt.Fprintf(os.Stderr, "dbpsim: resumed from %s at cycle %d\n", *restorePath, cycle)
			}
		}
	}

	exp := dbpsim.NewExperiment(cfg, *warmup, *measure)
	sched, part := dbpsim.SchedulerKind(*schedName), dbpsim.PartitionKind(*partName)
	doRun := func() (dbpsim.MixRun, error) {
		if scen != nil {
			return exp.RunScenarioCheckpointedContext(context.Background(), scen, sched, part, rec, ck)
		}
		return exp.RunMixCheckpointedContext(context.Background(), mix, sched, part, rec, ck)
	}
	runOut, err := doRun()
	if err != nil {
		var rerr *dbpsim.RestoreError
		if ck == nil || ck.Restore == nil || !errors.As(err, &rerr) {
			return err
		}
		// The checkpoint does not restore into this run's configuration:
		// warn and restart from cycle 0 rather than failing a run we know
		// how to execute.
		fmt.Fprintf(os.Stderr, "dbpsim: %s does not restore (%v); rerunning from cycle 0\n", *restorePath, err)
		ck.Restore = nil
		if rec, err = newRec(); err != nil {
			return err
		}
		if runOut, err = doRun(); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "%s under %s/%s: %s\n", mix.Name, *schedName, *partName, runOut.Metrics)
	if *jsonOut != "" {
		led, err := dbpsim.BuildLedger("dbpsim", cfg, *warmup, *measure, runOut, rec)
		if err != nil {
			return err
		}
		if err := dbpsim.SaveLedger(*jsonOut, led); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote ledger", *jsonOut)
	}
	if *traceOut != "" {
		if err := writeTo(*traceOut, rec.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote trace", *traceOut)
	}
	if *epochsCSV != "" {
		if err := writeTo(*epochsCSV, rec.WriteEpochCSV); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote epochs", *epochsCSV)
	}
	if *latency {
		fmt.Fprintln(stdout, "read latency (memory cycles):")
		for i, h := range runOut.Result.ReadLatency {
			if h == nil || h.N == 0 {
				continue
			}
			fmt.Fprintf(stdout, "  %-18s mean=%-7.1f min=%-6.0f max=%-7.0f n=%d\n",
				runOut.Result.Threads[i].Name, h.MeanValue(), h.Min, h.Max, h.N)
		}
	}
	if *timeline && len(runOut.Result.Timeline) > 0 {
		names := make([]string, len(runOut.Result.Threads))
		banks := make([][]float64, len(runOut.Result.Threads))
		ipcs := make([][]float64, len(runOut.Result.Threads))
		for _, p := range runOut.Result.Timeline {
			for t := range names {
				banks[t] = append(banks[t], float64(p.Banks[t]))
				ipcs[t] = append(ipcs[t], p.IPC[t])
			}
		}
		for t, th := range runOut.Result.Threads {
			names[t] = th.Name
		}
		fmt.Fprint(stdout, stats.SeriesChart("bank allocation over time:", names, banks))
		fmt.Fprint(stdout, stats.SeriesChart("IPC over time:", names, ipcs))
	}
	if *verbose {
		fmt.Fprint(stdout, runOut.Metrics.Table())
		fmt.Fprintf(stdout, "cycles=%d repartitions=%d dram=%+v\n",
			runOut.Result.Cycles, runOut.Result.Repartitions, runOut.Result.DRAM)
		for _, th := range runOut.Result.Threads {
			fmt.Fprintf(stdout, "  %-18s mpki=%-6.1f rbl=%-5.2f blp=%-5.2f pages=%d migrated=%d\n",
				th.Name, th.MPKI, th.RBL, th.BLP, th.PagesAllocated, th.PagesMigrated)
		}
	}
	return nil
}

// writeTo creates path, streams write into it, and closes it, reporting the
// first error (including the close, which matters for buffered writers).
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runDiff loads two ledgers and prints how the second improves on the
// first (the paper's throughput/fairness vocabulary).
func runDiff(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("-diff needs exactly two ledger paths (base, new), got %d", len(args))
	}
	base, err := dbpsim.LoadLedger(args[0])
	if err != nil {
		return err
	}
	next, err := dbpsim.LoadLedger(args[1])
	if err != nil {
		return err
	}
	d := dbpsim.DiffLedgers(base, next)
	fmt.Fprintf(w, "base: %-30s %s/%s on %s  WS=%.3f HS=%.3f MS=%.3f\n",
		args[0], base.Scheduler, base.Partition, base.Mix,
		base.Metrics.WeightedSpeedup, base.Metrics.HarmonicSpeedup, base.Metrics.MaxSlowdown)
	fmt.Fprintf(w, "new:  %-30s %s/%s on %s  WS=%.3f HS=%.3f MS=%.3f\n",
		args[1], next.Scheduler, next.Partition, next.Mix,
		next.Metrics.WeightedSpeedup, next.Metrics.HarmonicSpeedup, next.Metrics.MaxSlowdown)
	fmt.Fprintf(w, "delta: %s\n", d)
	return nil
}

// resolveMix builds the workload either from a named mix or an explicit
// benchmark list.
func resolveMix(mixName, benchList string) (dbpsim.Mix, error) {
	if benchList == "" {
		mix, ok := dbpsim.MixByName(mixName)
		if !ok {
			return dbpsim.Mix{}, fmt.Errorf("unknown mix %q (try -list)", mixName)
		}
		return mix, nil
	}
	members := strings.Split(benchList, ",")
	for i := range members {
		members[i] = strings.TrimSpace(members[i])
		if _, ok := dbpsim.BenchByName(members[i]); !ok {
			return dbpsim.Mix{}, fmt.Errorf("unknown benchmark %q (try -list)", members[i])
		}
	}
	return dbpsim.Mix{Name: "custom", Category: "?", Members: members}, nil
}
