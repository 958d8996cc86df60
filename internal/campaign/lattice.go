package campaign

import (
	"strings"

	"crosslayer/internal/report"
	"crosslayer/internal/scenario"
	"crosslayer/internal/stats"
)

// Lattice builds the defense-stacking view of a campaign run as a
// two-section Report, the artifact pinned as
// testdata/golden/campaign_lattice.txt:
//
//   - "lattice-sets": one row per defense set in sweep order, one
//     poisoning-rate column per method, aggregated over victims,
//     profiles, chain depths and placements;
//   - "lattice-marginal": for each base defense d and each measured
//     subset S not containing d (with S ∪ {d} also measured), the
//     per-method drop in poisoning rate caused by stacking d on top
//     of S, in percentage points. Positive values mean d blocks
//     attacks the subset still let through; +0pp on an already-clean
//     subset means d is redundant there; an n/a cell means one side
//     was never measured.
//
// At lattice rank 1 the sets section degenerates to the historical
// scalar method × defense summary (transposed) and the marginal
// section only reports each defense against the undefended baseline.
func Lattice(results []CellResult) *report.Report {
	g := group(results, []axis{byDefense}, byMethod)
	sets, methods := g.rows, g.cols
	measured := map[string]bool{}
	for _, s := range sets {
		measured[s] = true
	}
	rate := func(method, set string) stats.Counter { return g.sums[groupKey{set, method}] }

	rep := report.New("campaign-lattice", "Campaign defense-stacking lattice")

	setCols := []report.Column{
		report.Col(byDefense.name, report.KindString),
		report.Col("Rank", report.KindInt),
	}
	for _, m := range methods {
		setCols = append(setCols, report.Col(m, report.KindRatio))
	}
	setsSec := rep.AddSection(report.Table("lattice-sets",
		"Campaign lattice: poisoning success by defense set × method (over victims × profiles × depths × placements)",
		setCols...))
	for _, s := range sets {
		row := []any{s, setRank(s)}
		for _, m := range methods {
			row = append(row, rate(m, s))
		}
		setsSec.Add(row...)
	}

	margCols := []report.Column{
		report.Col("Defense", report.KindString),
		report.Col("On top of", report.KindString),
	}
	for _, m := range methods {
		margCols = append(margCols, report.Col(m, report.KindPP))
	}
	margSec := rep.AddSection(report.Table("lattice-marginal",
		"Campaign lattice: marginal coverage — Δ poisoning (pp) from stacking each defense on every measured subset",
		margCols...))
	for _, d := range presentBaseDefenses(sets) {
		for _, s := range sets {
			if setContains(s, d) {
				continue
			}
			super := DefenseSetKey(append(setComponents(s), d))
			if !measured[super] {
				continue
			}
			row := []any{d, s}
			for _, m := range methods {
				before, after := rate(m, s), rate(m, super)
				if before.Total == 0 || after.Total == 0 {
					row = append(row, nil)
					continue
				}
				row = append(row, 100*(before.Frac()-after.Frac()))
			}
			margSec.Add(row...)
		}
	}
	return rep
}

// setComponents splits a canonical set key into its base-defense keys
// (empty for "none").
func setComponents(key string) []string {
	if key == NoDefenseKey || key == "" {
		return nil
	}
	return strings.Split(key, "+")
}

// setRank returns the number of defenses stacked in a canonical set
// key.
func setRank(key string) int { return len(setComponents(key)) }

// setContains reports whether the canonical set key stacks the base
// defense.
func setContains(key, base string) bool {
	for _, c := range setComponents(key) {
		if c == base {
			return true
		}
	}
	return false
}

// presentBaseDefenses returns the base defenses appearing in any of
// the measured set keys, in base-registry order — the rows of the
// marginal table.
func presentBaseDefenses(setKeys []string) []string {
	present := map[string]bool{}
	for _, s := range setKeys {
		for _, c := range setComponents(s) {
			present[c] = true
		}
	}
	var out []string
	for _, d := range scenario.BaseDefenses() {
		if present[d.Key] {
			out = append(out, d.Key)
		}
	}
	return out
}
