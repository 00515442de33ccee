package stats

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table building: the experiment harness prints paper-style rows (one row per
// workload or configuration, one column per policy). TableWriter accumulates
// cells and renders either aligned text or CSV.

// TableWriter accumulates a rectangular table of string cells.
type TableWriter struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column header.
func NewTable(header ...string) *TableWriter {
	return &TableWriter{header: header}
}

// AddRow appends one row. Cells beyond the header width are kept; short rows
// are padded when rendering.
func (t *TableWriter) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// NumRows reports how many data rows the table holds.
func (t *TableWriter) NumRows() int { return len(t.rows) }

func (t *TableWriter) widths() []int {
	w := make([]int, len(t.header))
	grow := func(cells []string) {
		for i, c := range cells {
			if i >= len(w) {
				w = append(w, 0)
			}
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	grow(t.header)
	for _, r := range t.rows {
		grow(r)
	}
	return w
}

// WriteText renders the table as aligned plain text.
func (t *TableWriter) WriteText(w io.Writer) error {
	widths := t.widths()
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, width := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width, c)
			} else {
				fmt.Fprintf(&b, "  %*s", width, c)
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	var rule []string
	for _, width := range widths {
		rule = append(rule, strings.Repeat("-", width))
	}
	if err := writeRow(rule); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as RFC-4180-ish CSV (quotes only when needed).
func (t *TableWriter) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = strconv.Quote(c)
			}
			out[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// Text returns the aligned-text rendering as a string.
func (t *TableWriter) Text() string {
	var b strings.Builder
	_ = t.WriteText(&b)
	return b.String()
}

// CSV returns the CSV rendering as a string.
func (t *TableWriter) CSV() string {
	var b strings.Builder
	_ = t.WriteCSV(&b)
	return b.String()
}

// WriteMarkdown renders the table as a GitHub-flavoured markdown table.
func (t *TableWriter) WriteMarkdown(w io.Writer) error {
	width := len(t.header)
	for _, r := range t.rows {
		if len(r) > width {
			width = len(r)
		}
	}
	writeRow := func(cells []string) error {
		out := make([]string, width)
		for i := 0; i < width; i++ {
			if i < len(cells) {
				out[i] = strings.ReplaceAll(cells[i], "|", "\\|")
			}
		}
		_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(out, " | "))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	rule := make([]string, width)
	for i := range rule {
		rule[i] = "---"
	}
	if err := writeRow(rule); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}
