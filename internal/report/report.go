// Package report is the structured-result layer of the measurement
// harness: every experiment — the paper's tables and figures, and the
// campaign matrix with its aggregate views — BUILDS a Report (name,
// parameters, sections of typed columns and rows, notes) instead of
// formatting text, and pluggable renderers turn that one value into
// the artifact a consumer wants:
//
//   - Text — byte-identical to the historical hand-formatted output
//     (the testdata/golden/*.txt contract);
//   - JSON — machine-readable, lossless: Decode(JSON(r)) re-renders
//     to the same text bytes;
//   - CSV and Markdown — spreadsheet- and doc-friendly projections.
//
// The package also hosts the experiment registry (see registry.go):
// experiment packages self-register their builders under canonical
// names ("table3", "fig4", "campaign", ...), and callers dispatch by
// name with uniform (*Report, error) returns.
package report

import (
	"fmt"

	"crosslayer/internal/stats"
)

// Kind types one column of a section. The kind selects both the JSON
// decoding of the column's cells and their text formatting, so a
// Report round-trips losslessly through every renderer.
type Kind string

const (
	// KindString cells are opaque strings, rendered as-is.
	KindString Kind = "string"
	// KindInt cells are integer counts (int64).
	KindInt Kind = "int"
	// KindFloat cells are raw float64 samples (figure plot points).
	KindFloat Kind = "float"
	// KindRatio cells are hits-over-population counters
	// (stats.Counter), rendered as whole percents ("74%", "n/a").
	KindRatio Kind = "ratio"
	// KindRatioCI cells are hits-over-population counters
	// (stats.Counter) rendered with the half-width of their 95% Wilson
	// confidence interval ("67%±46", "n/a") — the deploy section's
	// population-rate format.
	KindRatioCI Kind = "ratio-ci"
	// KindPct1 cells are fractions in [0,1], rendered with one
	// decimal ("13.5%").
	KindPct1 Kind = "pct1"
	// KindRound cells are float64 values rendered without decimals
	// (the campaign cost percentiles).
	KindRound Kind = "round"
	// KindSeconds cells are virtual-time seconds, rendered with
	// millisecond resolution ("0.132s").
	KindSeconds Kind = "seconds"
	// KindPP cells are percentage-point deltas (float64, rendered
	// "+25pp") or nil for "no measurement" ("n/a").
	KindPP Kind = "pp"
)

// Column is one typed column of a section.
type Column struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
}

// Layout selects how the Text renderer draws a section. Every layout
// shares the same columns/rows data model, so the JSON/CSV/Markdown
// projections are uniform; only the text form differs.
type Layout string

const (
	// LayoutTable draws the aligned pipe-separated table of
	// stats.Table — the format of every regenerated paper table.
	LayoutTable Layout = "table"
	// LayoutBars draws grouped ASCII bar charts (the Figure 3/4 step
	// plots). Columns are fixed: group (string), n (int), x (float),
	// value (float); consecutive rows with the same group share one
	// "label (n=N)" header. Bars carries the geometry.
	LayoutBars Layout = "bars"
	// LayoutKV draws "label: value" lines under "== group ==" headers
	// (the Figure 5 Venn partitions). Columns are fixed: group
	// (string), label (string), value (int).
	LayoutKV Layout = "kv"
)

// BarSpec is the geometry of a LayoutBars section: a value v draws
// int(v*Scale+0.5) '#' marks into a Width-wide field, and each x tick
// renders as Prefix + Sprintf(XFormat, x).
type BarSpec struct {
	Scale   int    `json:"scale"`
	Width   int    `json:"width"`
	Prefix  string `json:"prefix,omitempty"`
	XFormat string `json:"x_format"`
}

// Section is one table or plot of a Report.
type Section struct {
	// Name is the section's stable identifier within the report
	// ("matrix", "summary", ...); single-section reports may leave it
	// empty.
	Name string `json:"name,omitempty"`
	// Title is the rendered heading ("Table 3: Vulnerable resolvers");
	// empty means no heading line.
	Title string `json:"title,omitempty"`
	// Layout selects the text form; empty means LayoutTable.
	Layout Layout `json:"layout,omitempty"`
	// Columns type the cells of every row.
	Columns []Column `json:"columns"`
	// Rows hold the cells: one value per column, of the Go type the
	// column's Kind dictates (string, int64, float64, stats.Counter,
	// or nil for an absent KindPP cell).
	Rows [][]any `json:"rows"`
	// Bars carries the bar-chart geometry of a LayoutBars section.
	Bars *BarSpec `json:"bars,omitempty"`
}

// Param is one name/value parameter of a Report: the execution knobs
// that selected the result (sample cap, seed, filters, ...).
type Param struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Report is the structured result of one experiment run.
type Report struct {
	// Name is the experiment's canonical registry key ("table3").
	Name string `json:"name"`
	// Title is the experiment's one-line description.
	Title string `json:"title,omitempty"`
	// Params record the execution knobs the result depends on.
	// Scheduling knobs (parallelism, progress) are deliberately
	// absent: they never change a Report.
	Params []Param `json:"params,omitempty"`
	// Sections hold the tables and plots, in render order.
	Sections []*Section `json:"sections"`
	// Notes are free-form observations (the Table 6 same-prefix rate,
	// the forwarder-study paper comparisons). The Text renderer skips
	// them — they are metadata, not artifact bytes.
	Notes []string `json:"notes,omitempty"`
}

// New starts a Report.
func New(name, title string) *Report { return &Report{Name: name, Title: title} }

// AddParam appends an execution parameter.
func (r *Report) AddParam(name string, value any) *Report {
	r.Params = append(r.Params, Param{Name: name, Value: fmt.Sprint(value)})
	return r
}

// AddNote appends a free-form note.
func (r *Report) AddNote(format string, args ...any) *Report {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	return r
}

// AddSection appends a section and returns it for row filling.
func (r *Report) AddSection(s *Section) *Section {
	r.Sections = append(r.Sections, s)
	return s
}

// Section returns the named section, or nil.
func (r *Report) Section(name string) *Section {
	for _, s := range r.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// String renders the report as text.
func (r *Report) String() string { return Text(r) }

// Table starts a LayoutTable section with the given typed columns.
func Table(name, title string, cols ...Column) *Section {
	return &Section{Name: name, Title: title, Layout: LayoutTable, Columns: cols}
}

// Col builds a typed column.
func Col(name string, kind Kind) Column { return Column{Name: name, Kind: kind} }

// StrCols builds a run of KindString columns.
func StrCols(names ...string) []Column {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Col(n, KindString)
	}
	return cols
}

// Add appends a row, normalising integer cells to int64 so a Report
// compares equal to its JSON round-trip.
func (s *Section) Add(cells ...any) *Section {
	row := make([]any, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case int:
			row[i] = int64(v)
		case uint16:
			row[i] = int64(v)
		case uint32:
			row[i] = int64(v)
		default:
			row[i] = c
		}
	}
	s.Rows = append(s.Rows, row)
	return s
}

// HeaderNames returns the column names in order.
func (s *Section) HeaderNames() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// CellStrings renders every cell through its column's text format —
// the row content of the text table, and of the CSV/Markdown
// projections.
func (s *Section) CellStrings() [][]string {
	out := make([][]string, len(s.Rows))
	for i, row := range s.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			kind := KindString
			if j < len(s.Columns) {
				kind = s.Columns[j].Kind
			}
			cells[j] = FormatCell(kind, v)
		}
		out[i] = cells
	}
	return out
}

// FormatCell renders one cell value under its column kind, exactly as
// the historical hand-formatted tables did.
func FormatCell(kind Kind, v any) string {
	if v == nil {
		if kind == KindPP {
			return "n/a"
		}
		return ""
	}
	switch kind {
	case KindString:
		if s, ok := v.(string); ok {
			return s
		}
	case KindRatio:
		if c, ok := v.(stats.Counter); ok {
			return c.Cell()
		}
	case KindRatioCI:
		if c, ok := v.(stats.Counter); ok {
			return c.CellCI()
		}
	case KindPct1:
		if f, ok := v.(float64); ok {
			return stats.Pct1(f)
		}
	case KindRound:
		if f, ok := v.(float64); ok {
			return fmt.Sprintf("%.0f", f)
		}
	case KindSeconds:
		if f, ok := v.(float64); ok {
			return fmt.Sprintf("%.3fs", f)
		}
	case KindPP:
		if f, ok := v.(float64); ok {
			return fmt.Sprintf("%+.0fpp", f)
		}
	}
	return fmt.Sprint(v)
}
