package experiments

import (
	"strings"
	"testing"

	"dbpsim/internal/sim"
	"dbpsim/internal/workload"
)

// tinyOptions keeps experiment tests fast: one small mix, small budgets.
func tinyOptions() Options {
	base := sim.DefaultConfig(8)
	base.SchedQuantumCPUCycles = 50_000
	base.DBP.QuantumCPUCycles = 100_000
	base.MCP.QuantumCPUCycles = 100_000
	return Options{
		Base:    base,
		Warmup:  10_000,
		Measure: 20_000,
		Mixes:   []workload.Mix{workload.Mixes4()[1]},
		runner:  newRunner(),
	}
}

func TestDefaultOptions(t *testing.T) {
	full := DefaultOptions(false)
	quick := DefaultOptions(true)
	if len(full.Mixes) != 12 || len(quick.Mixes) != 3 {
		t.Errorf("mix counts: full=%d quick=%d", len(full.Mixes), len(quick.Mixes))
	}
	if quick.Measure >= full.Measure {
		t.Error("quick budget not smaller")
	}
}

func TestRegistryComplete(t *testing.T) {
	byID := map[string]Runner{}
	for _, e := range Registry() {
		if byID[e.ID] != nil {
			t.Errorf("experiment %q registered twice", e.ID)
		}
		byID[e.ID] = e.Run
	}
	for _, id := range []string{"table1", "table2", "fig1", "fig2", "main",
		"dbptcm", "mcp", "banks", "cores", "quantum", "dynamics", "ablation", "tcmthresh",
		"prefetch", "energy", "parbs", "mapping", "llc", "timing"} {
		if byID[id] == nil {
			t.Errorf("missing experiment %q", id)
		}
	}
	if names := Names(); len(names) != len(byID) || names[0] != "table1" {
		t.Errorf("Names() = %v, want every id in Registry order", names)
	}
}

func TestTable1(t *testing.T) {
	out := Table1(sim.DefaultConfig(8))
	txt := out.Table.Text()
	for _, want := range []string{"cores", "DRAM", "DBP", "L1D"} {
		if !strings.Contains(txt, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
	var sb strings.Builder
	if err := out.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "table1") {
		t.Error("Write missing ID")
	}
}

func TestTable2Quick(t *testing.T) {
	o := tinyOptions()
	out, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 18 {
		t.Errorf("table2 rows = %d, want 18", out.Table.NumRows())
	}
	txt := out.Table.Text()
	if !strings.Contains(txt, "mcf-like") || !strings.Contains(txt, "povray-like") {
		t.Error("table2 missing benchmarks")
	}
}

func TestFig1Quick(t *testing.T) {
	out, err := Fig1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 2 {
		t.Errorf("fig1 rows = %d", out.Table.NumRows())
	}
	if len(out.Summary) == 0 {
		t.Error("fig1 missing summary")
	}
}

func TestFig2Quick(t *testing.T) {
	out, err := Fig2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 5 {
		t.Errorf("fig2 rows = %d, want 5", out.Table.NumRows())
	}
}

func TestMainQuick(t *testing.T) {
	progress := 0
	o := tinyOptions()
	o.Progress = func(string) { progress++ }
	out, err := Main(o)
	if err != nil {
		t.Fatal(err)
	}
	// one mix + MEAN row
	if out.Table.NumRows() != 2 {
		t.Errorf("main rows = %d, want 2", out.Table.NumRows())
	}
	if len(out.Summary) < 2 {
		t.Error("main missing summary claims")
	}
	if !strings.Contains(out.Summary[0], "paper") {
		t.Errorf("summary lacks paper claim: %q", out.Summary[0])
	}
	if progress == 0 {
		t.Error("progress callback never fired")
	}
}

func TestDBPTCMAndMCPQuick(t *testing.T) {
	o := tinyOptions()
	if _, err := DBPTCM(o); err != nil {
		t.Fatal(err)
	}
	out, err := VsMCP(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Table.Text(), "MCP.WS") {
		t.Error("mcp table missing columns")
	}
}

func TestSensBanksQuick(t *testing.T) {
	out, err := SensBanks(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 3 {
		t.Errorf("banks rows = %d, want 3", out.Table.NumRows())
	}
}

func TestSensQuantumQuick(t *testing.T) {
	out, err := SensQuantum(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 4 {
		t.Errorf("quantum rows = %d, want 4", out.Table.NumRows())
	}
}

func TestSensCoresQuick(t *testing.T) {
	o := tinyOptions()
	o.Warmup, o.Measure = 5_000, 10_000
	out, err := SensCores(o)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 3 {
		t.Errorf("cores rows = %d, want 3", out.Table.NumRows())
	}
}

func TestDynamicsQuick(t *testing.T) {
	o := tinyOptions()
	out, err := Dynamics(o)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() == 0 {
		t.Error("dynamics recorded no repartitions")
	}
}

func TestAblationQuick(t *testing.T) {
	out, err := Ablation(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 6 {
		t.Errorf("ablation rows = %d, want 6", out.Table.NumRows())
	}
	if len(out.Summary) != 5 {
		t.Errorf("ablation summary lines = %d, want 5", len(out.Summary))
	}
}

func TestTCMThreshQuick(t *testing.T) {
	out, err := TCMThreshSweep(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 3 {
		t.Errorf("tcm-thresh rows = %d, want 3", out.Table.NumRows())
	}
}

func TestMixesOfCategoryFallback(t *testing.T) {
	o := tinyOptions() // only an M mix present
	if got := mixesOfCategory(o, "H"); len(got) != len(o.Mixes) {
		t.Error("fallback to full list failed")
	}
	o.Mixes = workload.Mixes8()
	if got := mixesOfCategory(o, "H"); len(got) != 4 {
		t.Errorf("H mixes = %d, want 4", len(got))
	}
}

func TestPrefetchQuick(t *testing.T) {
	out, err := Prefetch(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 3 {
		t.Errorf("prefetch rows = %d, want 3", out.Table.NumRows())
	}
}

func TestEnergyQuick(t *testing.T) {
	out, err := Energy(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 3 {
		t.Errorf("energy rows = %d, want 3", out.Table.NumRows())
	}
	if !strings.Contains(out.Table.Text(), "nJ/access") {
		t.Error("energy column missing")
	}
}

func TestPARBSQuick(t *testing.T) {
	out, err := PARBSBaseline(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 2 { // one mix + MEAN
		t.Errorf("parbs rows = %d, want 2", out.Table.NumRows())
	}
}

func TestOutcomeMarkdown(t *testing.T) {
	out := Table1(sim.DefaultConfig(4))
	var sb strings.Builder
	if err := out.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, "## table1") || !strings.Contains(got, "| component |") {
		t.Errorf("markdown = %q", got)
	}
}

func TestMappingQuick(t *testing.T) {
	out, err := Mapping(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 5 {
		t.Errorf("mapping rows = %d, want 5", out.Table.NumRows())
	}
}

func TestLLCQuick(t *testing.T) {
	out, err := LLC(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 5 {
		t.Errorf("llc rows = %d, want 5", out.Table.NumRows())
	}
}

func TestTimingQuick(t *testing.T) {
	out, err := Timing(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.NumRows() != 2 {
		t.Errorf("timing rows = %d, want 2", out.Table.NumRows())
	}
}
