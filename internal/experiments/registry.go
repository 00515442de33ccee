package experiments

import (
	"fmt"
	"io"

	"dbpsim/internal/stats"
)

// Runner executes one experiment.
type Runner func(Options) (Outcome, error)

// Entry is one experiment under its `dbpsweep -exp` id.
type Entry struct {
	ID  string
	Run Runner
}

// Registry lists every experiment in presentation order: configuration and
// characterisation first, then the paper's figures, then the extensions.
func Registry() []Entry {
	return []Entry{
		{"table1", func(o Options) (Outcome, error) { return Table1(o.Base), nil }},
		{"table2", Table2},
		{"fig1", Fig1},
		{"fig2", Fig2},
		{"main", Main},
		{"dbptcm", DBPTCM},
		{"mcp", VsMCP},
		{"banks", SensBanks},
		{"cores", SensCores},
		{"quantum", SensQuantum},
		{"dynamics", Dynamics},
		{"ablation", Ablation},
		{"tcmthresh", TCMThreshSweep},
		{"prefetch", Prefetch},
		{"energy", Energy},
		{"parbs", PARBSBaseline},
		{"mapping", Mapping},
		{"llc", LLC},
		{"timing", Timing},
	}
}

// Names returns the experiment ids in Registry order.
func Names() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// Write renders an outcome as text: title, table, summary lines.
func (out Outcome) Write(w io.Writer) error {
	return out.write(w, false)
}

// WriteMarkdown renders the outcome as a markdown section.
func (out Outcome) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s \u2014 %s\n\n", out.ID, out.Title); err != nil {
		return err
	}
	if out.Table != nil {
		if err := out.Table.WriteMarkdown(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, s := range out.Summary {
		if _, err := fmt.Fprintf(w, "- %s\n", s); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WritePlot renders the outcome with bar charts for sweep experiments.
func (out Outcome) WritePlot(w io.Writer) error {
	return out.write(w, true)
}

func (out Outcome) write(w io.Writer, plot bool) error {
	if _, err := fmt.Fprintf(w, "== %s — %s ==\n", out.ID, out.Title); err != nil {
		return err
	}
	if out.Table != nil {
		if err := out.Table.WriteText(w); err != nil {
			return err
		}
	}
	if plot && len(out.Bars) > 0 {
		labels := make([]string, len(out.Bars))
		ws := make([]float64, len(out.Bars))
		ms := make([]float64, len(out.Bars))
		for i, b := range out.Bars {
			labels[i], ws[i], ms[i] = b.Label, b.WS, b.MS
		}
		if _, err := fmt.Fprint(w, stats.BarChart("mean weighted speedup (higher = better)", labels, ws, 40)); err != nil {
			return err
		}
		if _, err := fmt.Fprint(w, stats.BarChart("mean maximum slowdown (lower = better)", labels, ms, 40)); err != nil {
			return err
		}
	}
	for _, s := range out.Summary {
		if _, err := fmt.Fprintf(w, "  » %s\n", s); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
