package campaign_test

import (
	"context"
	"strings"
	"testing"

	"crosslayer/internal/campaign"
	"crosslayer/internal/measure"
)

// TestRenderEmptyResults: every renderer must survive a sweep that
// produced no cells (e.g. a future conditional filter) — headers only,
// no panic, no stray rows.
func TestRenderEmptyResults(t *testing.T) {
	if got := campaign.Matrix(nil).Sections[0]; len(got.Rows) != 0 || got.Text() == "" {
		t.Fatalf("empty matrix: %d rows\n%s", len(got.Rows), got.Text())
	}
	if got := campaign.Summary(nil).Sections[0]; len(got.Rows) != 0 || got.Text() == "" {
		t.Fatalf("empty summary: %d rows\n%s", len(got.Rows), got.Text())
	}
	if got := campaign.DepthTable(nil).Sections[0]; len(got.Rows) != 0 || got.Text() == "" {
		t.Fatalf("empty depth table: %d rows\n%s", len(got.Rows), got.Text())
	}
	lat := campaign.Lattice(nil)
	sets, marginal := lat.Section("lattice-sets"), lat.Section("lattice-marginal")
	if len(sets.Rows) != 0 || len(marginal.Rows) != 0 || lat.String() == "" {
		t.Fatalf("empty lattice: %d set rows, %d marginal rows", len(sets.Rows), len(marginal.Rows))
	}
}

// TestRenderSingleCell: a one-cell sweep renders a one-row matrix and
// one-row aggregates.
func TestRenderSingleCell(t *testing.T) {
	res, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 5},
		Filter: campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, DefenseSets: []string{"none"},
			ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports: []string{"udp"}},
		Trials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("%d cells, want 1", len(res))
	}
	if got := campaign.Matrix(res).Sections[0]; len(got.Rows) != 1 {
		t.Fatalf("single-cell matrix has %d rows", len(got.Rows))
	}
	if got := campaign.Summary(res).Sections[0]; len(got.Rows) != 1 || len(got.Columns) != 2 {
		t.Fatalf("single-cell summary %d rows × %d cols", len(got.Rows), len(got.Columns))
	}
	lat := campaign.Lattice(res)
	if sets := lat.Section("lattice-sets"); len(sets.Rows) != 1 {
		t.Fatalf("single-cell lattice has %d set rows", len(sets.Rows))
	}
	// One baseline cell: nothing to take a marginal against.
	if marginal := lat.Section("lattice-marginal"); len(marginal.Rows) != 0 {
		t.Fatalf("single-cell lattice has %d marginal rows", len(marginal.Rows))
	}
}

// TestDepthTableWithoutChainCells: a depth-0-only sweep renders a
// depth table with exactly the one depth column — no phantom chain
// columns.
func TestDepthTableWithoutChainCells(t *testing.T) {
	res, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 6},
		Filter: campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, DefenseSets: []string{"none"},
			ChainDepths: []string{"0"}, Transports: []string{"udp"}},
		Trials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := campaign.DepthTable(res).Sections[0]
	if want := []string{"Method", "Placement", "depth 0"}; len(tbl.Columns) != len(want) {
		t.Fatalf("depth-0-only header %v, want %v", tbl.HeaderNames(), want)
	}
	if len(tbl.Rows) != 2 { // hijack × {stub, carrier}
		t.Fatalf("depth-0-only table has %d rows", len(tbl.Rows))
	}
	if strings.Contains(tbl.Text(), "depth 1") {
		t.Fatalf("phantom chain column:\n%s", tbl.Text())
	}
}

// TestLatticeRankOneDegeneratesToScalarSummary: at lattice rank 1 the
// lattice's Sets table carries exactly the information of the scalar
// method × defense Summary (transposed), and the marginal table only
// measures each defense against the undefended baseline.
func TestLatticeRankOneDegeneratesToScalarSummary(t *testing.T) {
	res, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 9},
		Filter: campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports: []string{"udp"}},
		Trials:      1,
		LatticeRank: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	lat := campaign.Lattice(res)
	sets, marginal := lat.Section("lattice-sets"), lat.Section("lattice-marginal")
	summarySec := campaign.Summary(res).Sections[0]
	summaryHeader := summarySec.HeaderNames()
	summaryCells := summarySec.CellStrings()
	// Summary: one row per method, one column per scalar defense.
	// Lattice sets: one row per scalar defense, one column per method.
	if len(sets.Rows) != len(summaryHeader)-1 {
		t.Fatalf("lattice has %d set rows, summary %d defense columns",
			len(sets.Rows), len(summaryHeader)-1)
	}
	for i, row := range sets.CellStrings() {
		set, rank, rate := row[0], row[1], row[2]
		if set != summaryHeader[i+1] {
			t.Errorf("set row %d is %q, summary column is %q", i, set, summaryHeader[i+1])
		}
		wantRank := "1"
		if set == "none" {
			wantRank = "0"
		}
		if rank != wantRank {
			t.Errorf("set %q rank %s, want %s", set, rank, wantRank)
		}
		if rate != summaryCells[0][i+1] {
			t.Errorf("set %q rate %s, summary cell %s", set, rate, summaryCells[0][i+1])
		}
	}
	for _, row := range marginal.Rows {
		if row[1] != "none" {
			t.Errorf("rank-1 marginal row %v not against the baseline", row)
		}
	}
	if len(marginal.Rows) != 4 {
		t.Fatalf("%d marginal rows, want 4 (one per base defense)", len(marginal.Rows))
	}
}
