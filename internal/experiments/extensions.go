package experiments

import (
	"fmt"

	"dbpsim/internal/addr"
	"dbpsim/internal/dram"
	"dbpsim/internal/sim"
	"dbpsim/internal/stats"
)

// Prefetch evaluates the optional stride prefetcher (a paper-era extension;
// prefetch traffic amplifies bank contention, making partitioning matter
// more).
func Prefetch(o Options) (Outcome, error) {
	var settings []setting
	for _, degree := range []int{0, 2, 4} {
		label := "off"
		if degree > 0 {
			label = fmt.Sprintf("stride×%d", degree)
		}
		settings = append(settings, o.at(label, func(c *sim.Config) { c.CPU.PrefetchDegree = degree }, frfcfs, dbp))
	}
	t, means, err := settingTable(o, []string{"config", "FRFCFS.WS", "FRFCFS.MS", "DBP.WS", "DBP.MS"}, settings...)
	if err != nil {
		return Outcome{}, err
	}
	var rows []string
	for i, m := range means {
		ws, fair := m[1].Delta(m[0])
		rows = append(rows, fmt.Sprintf("prefetch %s: DBP %+.1f%% WS / %+.1f%% fairness vs FRFCFS", settings[i].label, ws, fair))
	}
	return Outcome{
		ID:      "prefetch",
		Title:   "Extension: stride prefetching interaction with bank partitioning",
		Table:   t,
		Summary: rows,
	}, nil
}

// Energy compares per-policy DRAM energy (an extension: partitioning that
// preserves row-buffer locality also saves activate energy).
func Energy(o Options) (Outcome, error) {
	mix := o.Mixes[0]
	cells := []cell{{o.Base, mix, frfcfs}, {o.Base, mix, equalBP}, {o.Base, mix, dbp}}
	runs, err := o.run(cells)
	if err != nil {
		return Outcome{}, err
	}
	t := stats.NewTable("policy", "WS", "MS", "nJ/access", "activates/kAccess")
	for i, run := range runs {
		transfers := run.Result.DRAM.Reads + run.Result.DRAM.Writes
		actsPerK := 0.0
		if transfers > 0 {
			actsPerK = 1000 * float64(run.Result.DRAM.Activates) / float64(transfers)
		}
		t.AddRow(cells[i].policy.Label,
			fmt.Sprintf("%.3f", run.Metrics.WeightedSpeedup),
			fmt.Sprintf("%.3f", run.Metrics.MaxSlowdown),
			fmt.Sprintf("%.2f", run.Result.EnergyPerAccess),
			fmt.Sprintf("%.0f", actsPerK))
	}
	return Outcome{
		ID:    "energy",
		Title: "Extension: DRAM energy per access by policy",
		Table: t,
		Summary: []string{fmt.Sprintf(
			"DBP on %s: %.2f nJ/access (partitioning preserves row hits, saving activate energy)",
			mix.Name, runs[2].Result.EnergyPerAccess)},
	}, nil
}

// PARBSBaseline adds the PAR-BS scheduler to the comparison (an extra
// baseline beyond the paper's set).
func PARBSBaseline(o Options) (Outcome, error) {
	o.Mixes = mixesOfCategory(o, "M")
	t, means, err := policyTable(o, []sim.PolicyPoint{
		frfcfs,
		{Label: "PARBS", Scheduler: sim.SchedPARBS, Partition: sim.PartNone},
		{Label: "PARBS-DBP", Scheduler: sim.SchedPARBS, Partition: sim.PartDBP},
	})
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		ID:    "parbs",
		Title: "Extension: PAR-BS baseline with and without DBP",
		Table: t,
		Summary: []string{
			claim("PARBS-DBP vs PARBS", means[2], means[1], 0, 0),
		},
	}, nil
}

// Mapping compares address-mapping schemes (an extension): conventional
// page interleaving, cache-line channel interleaving, and permutation-based
// (XOR) bank indexing — and shows that DBP composes with XOR mapping.
func Mapping(o Options) (Outcome, error) {
	var settings []setting
	for _, p := range []struct {
		label  string
		scheme addr.Scheme
		part   sim.PartitionKind
	}{
		{"page+none", addr.SchemePageInterleave, sim.PartNone},
		{"line+none", addr.SchemeLineInterleave, sim.PartNone},
		{"xor+none", addr.SchemeXORBank, sim.PartNone},
		{"page+dbp", addr.SchemePageInterleave, sim.PartDBP},
		{"xor+dbp", addr.SchemeXORBank, sim.PartDBP},
	} {
		settings = append(settings, o.at(p.label, func(c *sim.Config) { c.Mapping = p.scheme },
			sim.PolicyPoint{Label: p.label, Scheduler: sim.SchedFRFCFS, Partition: p.part}))
	}
	t, _, err := settingTable(o, []string{"mapping", "WS", "MS"}, settings...)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		ID:    "mapping",
		Title: "Extension: address-mapping schemes vs partitioning",
		Table: t,
		Summary: []string{
			"XOR bank permutation spreads conflicts without isolation; DBP composes with it (placement stays a pure function of the frame).",
		},
	}, nil
}

// LLC studies the optional shared last-level cache (an extension): bank
// partitioning composes with cache partitioning, the paper's closest
// sibling mechanism.
func LLC(o Options) (Outcome, error) {
	var settings []setting
	for _, p := range []struct {
		label  string
		l3     int // KiB, 0 = no L3
		policy sim.L3PolicyKind
		part   sim.PartitionKind
	}{
		{"private-only", 0, sim.L3Shared, sim.PartNone},
		{"L3-shared", 4096, sim.L3Shared, sim.PartNone},
		{"L3-equal", 4096, sim.L3Equal, sim.PartNone},
		{"L3-ucp", 4096, sim.L3UCP, sim.PartNone},
		{"L3-ucp+dbp", 4096, sim.L3UCP, sim.PartDBP},
	} {
		settings = append(settings, o.at(p.label, func(c *sim.Config) { c.L3.SizeBytes, c.L3Policy = p.l3<<10, p.policy },
			sim.PolicyPoint{Label: p.label, Scheduler: sim.SchedFRFCFS, Partition: p.part}))
	}
	t, _, err := settingTable(o, []string{"config", "WS", "MS"}, settings...)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		ID:    "llc",
		Title: "Extension: shared LLC and way partitioning (UCP) vs bank partitioning",
		Table: t,
		Summary: []string{
			"Cache partitioning manages capacity interference; bank partitioning manages access interference — the mechanisms stack.",
		},
	}, nil
}

// Timing compares DRAM generations (an extension): the policy story must
// hold across timing sets, not just DDR3-1600.
func Timing(o Options) (Outcome, error) {
	ddr3 := func(c *sim.Config) { c.Timing, c.CPUClockRatio = dram.DDR3_1600(), 4 }
	ddr4 := func(c *sim.Config) { c.Timing, c.CPUClockRatio = dram.DDR4_2400(), 3 }
	t, _, err := settingTable(o, []string{"timing", "FRFCFS.WS", "FRFCFS.MS", "DBP.WS", "DBP.MS"},
		o.at("DDR3-1600", ddr3, frfcfs, dbp), o.at("DDR4-2400", ddr4, frfcfs, dbp))
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		ID:    "timing",
		Title: "Extension: DRAM generation (DDR3 vs DDR4)",
		Table: t,
		Summary: []string{
			"DBP's advantage is a property of bank conflicts, not one timing set.",
		},
	}, nil
}
