package campaign

import (
	"sort"
	"strings"

	"crosslayer/internal/deploy"
	"crosslayer/internal/report"
	"crosslayer/internal/stats"
)

// deploymentOf returns the result's deployment-dataset key, mapping
// the empty key (results from pre-axis checkpoints) to canonical.
func deploymentOf(r CellResult) string {
	if r.Deployment == "" {
		return deploy.CanonicalKey
	}
	return r.Deployment
}

// Matrix builds the full per-cell success-rate/cost matrix: the
// campaign's extension of Tables 1 and 6. Poisoned is the chain cache
// ground truth over the cell's trials, Impact the application-level
// outcome check, and the cost columns are per-trial percentiles of
// attack rounds, attacker packets and virtual attack time. A Dataset
// column appears only when the results span a sampled deployment
// population — all-canonical sweeps keep the historical byte-exact
// shape.
func Matrix(results []CellResult) *report.Report {
	withDeploy := false
	for _, r := range results {
		if deploymentOf(r) != deploy.CanonicalKey {
			withDeploy = true
			break
		}
	}
	cols := []report.Column{
		report.Col("Method", report.KindString),
		report.Col("Victim", report.KindString),
		report.Col("Profile", report.KindString),
		report.Col("Defense", report.KindString),
		report.Col("Depth", report.KindString),
		report.Col("Placement", report.KindString),
		report.Col("Transport", report.KindString),
	}
	if withDeploy {
		cols = append(cols, report.Col("Dataset", report.KindString))
	}
	cols = append(cols,
		report.Col("Poisoned", report.KindRatio),
		report.Col("Impact", report.KindRatio),
		report.Col("Iter p50", report.KindRound),
		report.Col("Pkts p50", report.KindRound),
		report.Col("Time p50", report.KindSeconds),
		report.Col("Time p95", report.KindSeconds))
	rep := report.New("campaign", "Campaign matrix")
	sec := rep.AddSection(report.Table("matrix",
		"Campaign matrix: method × victim × profile × defense × chain depth × placement × transport",
		cols...))
	for _, r := range results {
		row := []any{r.Method, r.Victim, r.Profile, r.Defense, r.Depth, r.Placement, r.Transport}
		if withDeploy {
			row = append(row, deploymentOf(r))
		}
		row = append(row,
			r.Poisoned, r.Impact,
			r.Iterations.Quantile(0.5),
			r.Packets.Quantile(0.5),
			r.Seconds.Quantile(0.5),
			r.Seconds.Quantile(0.95))
		sec.Add(row...)
	}
	return rep
}

// axis is one sweep dimension as the pivot views read it: the header
// of its row column and the key it takes on a result.
type axis struct {
	name string
	key  func(CellResult) string
}

var (
	byMethod     = axis{"Method", func(r CellResult) string { return r.Method }}
	byDefense    = axis{"Defense set", func(r CellResult) string { return r.Defense }}
	byDepth      = axis{"Depth", func(r CellResult) string { return r.Depth }}
	byPlacement  = axis{"Placement", func(r CellResult) string { return r.Placement }}
	byTransport  = axis{"Transport", func(r CellResult) string { return r.Transport }}
	byDeployment = axis{"Dataset", deploymentOf}
)

// grouping is a sweep's results grouped by row axes × one column axis:
// the distinct rows and column keys in first-seen order, and the
// poisoning counters summed per (row, column) group. A row is its axes'
// keys joined by "\x00".
type grouping struct {
	rows, cols []string
	sums       map[groupKey]stats.Counter // zero for a group no result fell in
}

type groupKey struct{ row, col string }

func group(results []CellResult, rows []axis, col axis) grouping {
	g := grouping{sums: map[groupKey]stats.Counter{}}
	seenRow, seenCol := map[string]bool{}, map[string]bool{}
	for _, r := range results {
		keys := make([]string, len(rows))
		for i, a := range rows {
			keys[i] = a.key(r)
		}
		k := groupKey{strings.Join(keys, "\x00"), col.key(r)}
		if !seenRow[k.row] {
			seenRow[k.row] = true
			g.rows = append(g.rows, k.row)
		}
		if !seenCol[k.col] {
			seenCol[k.col] = true
			g.cols = append(g.cols, k.col)
		}
		g.sums[k] = g.sums[k].Plus(r.Poisoned)
	}
	return g
}

// pivotSpec names one pivot view: its report and section, the axes it
// groups by, and how its columns render.
type pivotSpec struct {
	name, title           string // the report's
	section, sectionTitle string // its one section's
	rows                  []axis
	col                   axis
	colPrefix             string      // prepended to each column key in the header
	sortCols              bool        // sort the column keys instead of first-seen order
	kind                  report.Kind // KindRatio or KindRatioCI
}

// pivot renders a sweep's poisoning rates as a one-section report: one
// string column per row axis, then one column per column key holding
// the row's summed counter for that key.
func pivot(results []CellResult, p pivotSpec) *report.Report {
	g := group(results, p.rows, p.col)
	if p.sortCols {
		sort.Strings(g.cols)
	}
	cols := make([]report.Column, 0, len(p.rows)+len(g.cols))
	for _, a := range p.rows {
		cols = append(cols, report.Col(a.name, report.KindString))
	}
	for _, c := range g.cols {
		cols = append(cols, report.Col(p.colPrefix+c, p.kind))
	}
	rep := report.New(p.name, p.title)
	sec := rep.AddSection(report.Table(p.section, p.sectionTitle, cols...))
	for _, row := range g.rows {
		cells := make([]any, 0, len(cols))
		for _, k := range strings.Split(row, "\x00") {
			cells = append(cells, k)
		}
		for _, c := range g.cols {
			cells = append(cells, g.sums[groupKey{row, c}])
		}
		sec.Add(cells...)
	}
	return rep
}

// DeployTable builds the deployment view of the sweep — the paper's
// population question: for each method, the poisoning rate under
// every deployment dataset present in the results (sweep order),
// aggregated over victims, profiles, defenses, depths, placements and
// transports, rendered as rate ± the 95% Wilson confidence half-width
// (stats.Counter.Wilson). Canonical cells answer "is this
// configuration vulnerable"; sampled datasets answer "what fraction
// of a deployed population is", and the CI says how much the per-cell
// sample sizes let you conclude.
func DeployTable(results []CellResult) *report.Report {
	return pivot(results, pivotSpec{
		name: "campaign-deploy", title: "Campaign method × deployment-dataset table",
		section:      "deploy",
		sectionTitle: "Campaign deployments: poisoning rate ±95% CI by method × deployment dataset (over victims × profiles × defenses × depths × placements × transports)",
		rows:         []axis{byMethod}, col: byDeployment, kind: report.KindRatioCI,
	})
}

// DepthTable builds the depth-vs-success view of the sweep: for each
// method × attacker placement, the poisoning rate at every chain depth
// present in the results, aggregated over victims, profiles and
// defenses — the one-screen answer to "does a forwarder chain make the
// attack easier, and from where".
func DepthTable(results []CellResult) *report.Report {
	return pivot(results, pivotSpec{
		name: "campaign-depth", title: "Campaign chain-depth table",
		section:      "depth",
		sectionTitle: "Campaign chains: poisoning success by method × placement × chain depth (over victims × profiles × defenses)",
		rows:         []axis{byMethod, byPlacement}, col: byDepth,
		colPrefix: "depth ", sortCols: true, kind: report.KindRatio,
	})
}

// TransportTable builds the transport-vs-success view of the sweep:
// for each method, the poisoning rate under every upstream transport
// present in the results (sweep order), aggregated over victims,
// profiles, defenses, depths and placements — the one-screen answer to
// "which attacks survive which upstream transports, and what does a
// plaintext front hop give back".
func TransportTable(results []CellResult) *report.Report {
	return pivot(results, pivotSpec{
		name: "campaign-transport", title: "Campaign method × transport table",
		section:      "transport",
		sectionTitle: "Campaign transports: poisoning success by method × upstream transport (over victims × profiles × defenses × depths × placements)",
		rows:         []axis{byMethod}, col: byTransport, kind: report.KindRatio,
	})
}

// Summary builds the method × defense poisoning-rate matrix,
// aggregated over every victim, profile, chain depth and placement in
// the results — the one-screen answer to "which defense stops which
// method".
func Summary(results []CellResult) *report.Report {
	return pivot(results, pivotSpec{
		name: "campaign-summary", title: "Campaign method × defense summary",
		section:      "summary",
		sectionTitle: "Campaign summary: poisoning success by method × defense (over victims × profiles × depths × placements)",
		rows:         []axis{byMethod}, col: byDefense, kind: report.KindRatio,
	})
}
