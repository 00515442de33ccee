package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"dbpsim/internal/obs"
	"dbpsim/internal/sim"
	"dbpsim/internal/stats"
	"dbpsim/internal/workload"
)

// cell is one simulation of a grid experiment: a mix under one policy point
// on a full configuration.
type cell struct {
	cfg    sim.Config
	mix    workload.Mix
	policy sim.PolicyPoint
}

// runner keeps, for the life of the Options that carry it (one dbpsweep
// invocation), one sim.Experiment per alone-baseline key and every finished
// run by run key, so a run or baseline that several experiments share
// simulates once.
type runner struct {
	mu   sync.Mutex
	exps map[string]*sim.Experiment // by sim.ExperimentKey
	runs map[string]sim.MixRun      // by sim.RunKey
}

func newRunner() *runner {
	return &runner{exps: map[string]*sim.Experiment{}, runs: map[string]sim.MixRun{}}
}

// job is one distinct run still to simulate.
type job struct {
	cell
	key    string
	e      *sim.Experiment
	atBase bool // cfg is Options.Base up to the per-run fields
}

// run returns every cell's run in cell order. The runs not yet finished
// execute on at most runtime.NumCPU() workers at once; every run is
// deterministic and independent, so results do not depend on the order.
func (o Options) run(cells []cell) ([]sim.MixRun, error) {
	r := o.runner
	if r == nil {
		r = newRunner()
	}
	baseKey, err := sim.ExperimentKey(o.Base, o.Warmup, o.Measure)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(cells))
	queued := map[string]bool{}
	var todo []job
	r.mu.Lock()
	for i, c := range cells {
		cfg := c.cfg
		cfg.Cores, cfg.Scheduler, cfg.Partition = c.mix.Cores(), c.policy.Scheduler, c.policy.Partition
		var cfgJSON []byte
		var expKey string
		if cfgJSON, err = sim.MarshalConfig(cfg); err == nil {
			expKey, err = sim.ExperimentKey(c.cfg, o.Warmup, o.Measure)
		}
		if err != nil {
			break
		}
		keys[i] = sim.RunKey(obs.HashConfig(cfgJSON), c.mix, o.Warmup, o.Measure)
		if _, done := r.runs[keys[i]]; done || queued[keys[i]] {
			continue
		}
		queued[keys[i]] = true
		if r.exps[expKey] == nil {
			r.exps[expKey] = sim.NewExperiment(c.cfg, o.Warmup, o.Measure)
		}
		todo = append(todo, job{cell: c, key: keys[i], e: r.exps[expKey], atBase: expKey == baseKey})
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}

	results := make([]sim.MixRun, len(todo))
	errs := make([]error, len(todo))
	slots := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := range todo {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			results[i], errs[i] = o.simulate(todo[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, j := range todo {
		r.runs[j.key] = results[i]
	}
	out := make([]sim.MixRun, len(cells))
	for i, key := range keys {
		out[i] = r.runs[key]
	}
	return out, nil
}

// simulate runs one job and, with Options.LedgerDir set, writes its ledger.
func (o Options) simulate(j job) (sim.MixRun, error) {
	p, mix := j.policy, j.mix
	run, err := j.e.RunMix(mix, p.Scheduler, p.Partition)
	if err == nil && o.LedgerDir != "" {
		err = writeRunLedger(o, j, run)
	}
	if err != nil {
		return sim.MixRun{}, fmt.Errorf("%s on %s: %w", p.Label, mix.Name, err)
	}
	o.log("%s: %s done (WS=%.3f MS=%.3f)", p.Label, mix.Name,
		run.Metrics.WeightedSpeedup, run.Metrics.MaxSlowdown)
	return run, nil
}

// writeRunLedger persists one run's ledger under Options.LedgerDir as
// <mix>_<scheduler>_<partition>.json, with _<first 12 hex of config_hash>
// appended when the run's config is not Options.Base.
func writeRunLedger(o Options, j job, run sim.MixRun) error {
	if err := os.MkdirAll(o.LedgerDir, 0o755); err != nil {
		return err
	}
	l, err := sim.BuildLedger("dbpsweep", j.cfg, o.Warmup, o.Measure, run, nil)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s_%s_%s", run.Mix.Name, run.Scheduler, run.Partition)
	if !j.atBase {
		name += "_" + l.ConfigHash[:12]
	}
	return obs.SaveLedger(filepath.Join(o.LedgerDir, name+".json"), l)
}

// setting is one row of a grid experiment: every policy on every mix, on
// cfg.
type setting struct {
	label    string
	cfg      sim.Config
	mixes    []workload.Mix
	policies []sim.PolicyPoint
}

// settingTable runs the settings as one grid and renders one row per
// setting: its label, then each policy's suite-mean WS and MS. It also
// returns the means, indexed [setting][policy].
func settingTable(o Options, columns []string, settings ...setting) (*stats.TableWriter, [][]stats.SystemMetrics, error) {
	var cells []cell
	for _, s := range settings {
		for _, p := range s.policies {
			for _, mix := range s.mixes {
				cells = append(cells, cell{s.cfg, mix, p})
			}
		}
	}
	runs, err := o.run(cells)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable(columns...)
	means := make([][]stats.SystemMetrics, len(settings))
	for si, s := range settings {
		for range s.policies {
			metrics := make([]stats.SystemMetrics, len(s.mixes))
			for i, run := range runs[:len(s.mixes)] {
				metrics[i] = run.Metrics
			}
			means[si] = append(means[si], stats.MeanAcross(metrics))
			runs = runs[len(s.mixes):]
		}
		t.AddRow(row(s.label, means[si]...)...)
	}
	return t, means, nil
}

// policyTable runs policies over the option's mixes and renders one row
// per mix of each policy's WS and MS, then a MEAN row. It also returns the
// policy means. The MEAN row is one more setting over all the mixes, whose
// runs the runner already holds.
func policyTable(o Options, policies []sim.PolicyPoint) (*stats.TableWriter, []stats.SystemMetrics, error) {
	var settings []setting
	for _, mix := range o.Mixes {
		settings = append(settings, setting{mix.Name, o.Base, []workload.Mix{mix}, policies})
	}
	settings = append(settings, setting{"MEAN", o.Base, o.Mixes, policies})
	t, means, err := settingTable(o, append([]string{"workload"}, policyColumns(policies)...), settings...)
	if err != nil {
		return nil, nil, err
	}
	return t, means[len(means)-1], nil
}

// row renders a label followed by each metric's WS and MS cells.
func row(label string, ms ...stats.SystemMetrics) []string {
	out := []string{label}
	for _, m := range ms {
		out = append(out, fmt.Sprintf("%.3f", m.WeightedSpeedup), fmt.Sprintf("%.3f", m.MaxSlowdown))
	}
	return out
}

func policyColumns(policies []sim.PolicyPoint) []string {
	var out []string
	for _, p := range policies {
		out = append(out, p.Label+".WS", p.Label+".MS")
	}
	return out
}
