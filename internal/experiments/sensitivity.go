package experiments

import (
	"fmt"

	"dbpsim/internal/core"
	"dbpsim/internal/sim"
	"dbpsim/internal/stats"
	"dbpsim/internal/trace"
	"dbpsim/internal/workload"
)

// mixesOfCategory filters the option's mix list to one category (falling
// back to the whole list when empty).
func mixesOfCategory(o Options, cat string) []workload.Mix {
	var out []workload.Mix
	for _, m := range o.Mixes {
		if m.Category == cat {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return o.Mixes
	}
	return out
}

// at returns the setting named label: policies over the option's
// M-category mixes, on a copy of Base changed by mutate.
func (o Options) at(label string, mutate func(*sim.Config), policies ...sim.PolicyPoint) setting {
	cfg := o.Base
	mutate(&cfg)
	return setting{label: label, cfg: cfg, mixes: mixesOfCategory(o, "M"), policies: policies}
}

// SensBanks reproduces the bank-count sensitivity (the paper's Fig. 10):
// EqualBP vs DBP as the number of banks per rank varies.
func SensBanks(o Options) (Outcome, error) {
	var settings []setting
	for _, banks := range []int{4, 8, 16} {
		g := o.Base.Geometry
		total := fmt.Sprintf("%d", banks*g.Channels*g.RanksPerChannel)
		settings = append(settings, o.at(total, func(c *sim.Config) { c.Geometry.BanksPerRank = banks }, equalBP, dbp))
	}
	t, means, err := settingTable(o, []string{"banks", "EqualBP.WS", "EqualBP.MS", "DBP.WS", "DBP.MS"}, settings...)
	if err != nil {
		return Outcome{}, err
	}
	var gaps []string
	for i, m := range means {
		ws, fair := m[1].Delta(m[0])
		gaps = append(gaps, fmt.Sprintf("%s banks: DBP %+.1f%% WS / %+.1f%% fairness", settings[i].label, ws, fair))
	}
	return Outcome{
		ID:    "fig10",
		Title: "Sensitivity: total bank count (EqualBP vs DBP)",
		Table: t,
		Summary: append([]string{
			"DBP's edge peaks at moderate bank counts: with banks ≈ threads there is nothing to reallocate; with plentiful banks equal shares already satisfy demand.",
		}, gaps...),
	}, nil
}

// SensCores reproduces the core-count sensitivity (the paper's Fig. 11).
func SensCores(o Options) (Outcome, error) {
	policies := []sim.PolicyPoint{equalBP, dbp}
	t, _, err := settingTable(o, []string{"cores", "EqualBP.WS", "EqualBP.MS", "DBP.WS", "DBP.MS"},
		setting{"4", o.Base, workload.Mixes4(), policies},
		setting{"8", o.Base, mixesOfCategory(o, "M"), policies},
		setting{"16", o.Base, workload.Mixes16(), policies})
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		ID:    "fig11",
		Title: "Sensitivity: core count (EqualBP vs DBP)",
		Table: t,
	}, nil
}

// SensQuantum reproduces the quantum-length sensitivity (the paper's
// Fig. 12).
func SensQuantum(o Options) (Outcome, error) {
	var settings []setting
	for _, q := range []uint64{250_000, 500_000, 1_000_000, 2_000_000} {
		settings = append(settings, o.at(fmt.Sprintf("%d", q), func(c *sim.Config) { c.DBP.QuantumCPUCycles = q }, dbp))
	}
	t, _, err := settingTable(o, []string{"quantum.cycles", "DBP.WS", "DBP.MS"}, settings...)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		ID:    "fig12",
		Title: "Sensitivity: DBP repartitioning quantum",
		Table: t,
		Summary: []string{
			"Short quanta track phases but thrash pages; long quanta adapt too slowly.",
		},
	}, nil
}

// Dynamics reproduces the allocation-over-time figure (the paper's
// Fig. 13): a phase-changing thread's bank allocation follows its demand.
func Dynamics(o Options) (Outcome, error) {
	cfg := o.Base
	cfg.Cores = 4
	cfg.Scheduler = sim.SchedFRFCFS
	cfg.Partition = sim.PartDBP

	// Thread 0 alternates between a wide multi-stream phase (high demand)
	// and a pointer-chase phase (demand 1) every 400k instructions.
	wide, _ := workload.ByName("lbm-like")
	chase, _ := workload.ByName("mcf-like")
	phased := trace.NewPhased([]trace.Phase{
		{Gen: wide.New(11), Instructions: 400_000},
		{Gen: chase.New(12), Instructions: 400_000},
	})
	steady, _ := workload.ByName("milc-like")
	light, _ := workload.ByName("calculix-like")
	benches := []sim.Bench{
		{Name: "phased", Gen: phased},
		{Name: steady.Name, Gen: steady.New(13)},
		{Name: steady.Name, Gen: steady.New(14)},
		{Name: light.Name, Gen: light.New(15)},
	}
	sys, err := sim.NewSystem(cfg, benches)
	if err != nil {
		return Outcome{}, err
	}
	if _, err := sys.Run(o.Warmup, 4*o.Measure, 0); err != nil {
		return Outcome{}, fmt.Errorf("dynamics: %w", err)
	}
	t := stats.NewTable("quantum", "phased.banks", "milc#1.banks", "milc#2.banks", "light.pool")
	hist := sys.DBP().History()
	minB, maxB := 1<<30, 0
	for _, a := range hist {
		t.AddRow(fmt.Sprintf("%d", a.Quantum),
			fmt.Sprintf("%d", a.Colors[0]), fmt.Sprintf("%d", a.Colors[1]),
			fmt.Sprintf("%d", a.Colors[2]), fmt.Sprintf("%d", a.Colors[3]))
		if a.Colors[0] < minB {
			minB = a.Colors[0]
		}
		if a.Colors[0] > maxB {
			maxB = a.Colors[0]
		}
	}
	series := make([][]float64, 2)
	for _, a := range hist {
		series[0] = append(series[0], float64(a.Colors[0]))
		series[1] = append(series[1], float64(a.Colors[1]))
	}
	chart := stats.SeriesChart("allocation over repartitions:",
		[]string{"phased", "milc#1"}, series)
	return Outcome{
		ID:    "fig13",
		Title: "Dynamics: bank allocation tracks a phase-changing thread",
		Table: t,
		Summary: []string{
			fmt.Sprintf("The phased thread's allocation moved between %d and %d banks across %d repartitions.",
				minB, maxB, len(hist)),
			chart,
		},
	}, nil
}

// Ablation evaluates DBP's design choices (DESIGN.md's ablation list).
func Ablation(o Options) (Outcome, error) {
	variants := []struct {
		label  string
		mutate func(*sim.Config)
	}{
		{"DBP(default)", func(c *sim.Config) {}},
		{"demand=MPKI", func(c *sim.Config) { c.DBP.Estimator = core.EstimateMPKI }},
		{"demand=achievedBLP", func(c *sim.Config) { c.DBP.Estimator = core.EstimateAchievedBLP }},
		{"light=spread-all", func(c *sim.Config) { c.DBP.LightPlacement = core.LightSpreadAll }},
		{"hysteresis=3", func(c *sim.Config) { c.DBP.HysteresisColors = 3 }},
		{"no-migration", func(c *sim.Config) { c.MigratePagesPerQuantum = 0 }},
	}
	var settings []setting
	for _, v := range variants {
		settings = append(settings, o.at(v.label, v.mutate,
			sim.PolicyPoint{Label: v.label, Scheduler: sim.SchedFRFCFS, Partition: sim.PartDBP}))
	}
	// The ablation table adds HS, so it renders its own rows.
	_, means, err := settingTable(o, nil, settings...)
	if err != nil {
		return Outcome{}, err
	}
	t := stats.NewTable("variant", "WS", "MS", "HS")
	var summary []string
	for i, s := range settings {
		m := means[i][0]
		t.AddRow(s.label, fmt.Sprintf("%.3f", m.WeightedSpeedup),
			fmt.Sprintf("%.3f", m.MaxSlowdown), fmt.Sprintf("%.3f", m.HarmonicSpeedup))
		if i > 0 {
			ws, fair := m.Delta(means[0][0])
			summary = append(summary, fmt.Sprintf("%s vs default: %+.1f%% WS, %+.1f%% fairness", s.label, ws, fair))
		}
	}
	return Outcome{
		ID:      "ablation",
		Title:   "Ablation: DBP design choices",
		Table:   t,
		Summary: summary,
	}, nil
}

// TCMThreshSweep quantifies the latency-cluster decision documented in
// DESIGN.md: ClusterThresh > 0 on this substrate.
func TCMThreshSweep(o Options) (Outcome, error) {
	var settings []setting
	for _, th := range []float64{0, 0.05, 0.10} {
		settings = append(settings, o.at(fmt.Sprintf("%.2f", th), func(c *sim.Config) { c.TCMClusterThresh = th }, tcm))
	}
	t, _, err := settingTable(o, []string{"ClusterThresh", "TCM.WS", "TCM.MS"}, settings...)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		ID:    "tcm-thresh",
		Title: "TCM latency-cluster threshold on this substrate",
		Table: t,
	}, nil
}
