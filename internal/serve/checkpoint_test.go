package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crosslayer/internal/campaign"
	"crosslayer/internal/stats"
)

// wellFormedCell is a two-trial cell as the campaign writes it.
func wellFormedCell() campaign.CellResult {
	return campaign.CellResult{
		Method: "hijack", Victim: "web", Profile: "bind", Defense: "none",
		Depth: "0", Placement: "stub", Transport: "udp", Trials: 2,
		Poisoned:   stats.Counter{Hits: 2, Total: 2},
		Impact:     stats.Counter{Hits: 1, Total: 2},
		Iterations: stats.NewCDF([]float64{1, 1}),
		Packets:    stats.NewCDF([]float64{3, 4}),
		Seconds:    stats.NewCDF([]float64{0.5, 0.25}),
	}
}

// writeCheckpoint stores cells as a current-version checkpoint file.
func writeCheckpoint(t *testing.T, cells map[string]campaign.CellResult) string {
	t.Helper()
	data, err := json.Marshal(checkpointFile{Version: checkpointVersion, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadCheckpointRejectsMalformedCells: a checkpoint holding a cell
// the campaign could not have written is refused whole — the server
// does not start, the error names the file and the cell, and no cell
// reaches the cache — instead of crashing the first sweep that renders
// the cell.
func TestLoadCheckpointRejectsMalformedCells(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*campaign.CellResult)
	}{
		{"null CDF", func(c *campaign.CellResult) { c.Iterations = nil }},
		{"CDF shorter than trials", func(c *campaign.CellResult) { c.Seconds = stats.NewCDF([]float64{1}) }},
		{"hits over total", func(c *campaign.CellResult) { c.Poisoned.Hits = 3 }},
		{"negative hits", func(c *campaign.CellResult) { c.Impact.Hits = -1 }},
		{"total not trials", func(c *campaign.CellResult) { c.Impact.Total = 1 }},
		{"no trials", func(c *campaign.CellResult) { *c = campaign.CellResult{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := wellFormedCell()
			tc.corrupt(&bad)
			path := writeCheckpoint(t, map[string]campaign.CellResult{
				"1/2/a-good": wellFormedCell(), "1/2/b-bad": bad, "1/2/c-good": wellFormedCell(),
			})
			s := New(Config{CheckpointPath: path})
			// Cancelled up front: a server that accepts the file starts
			// and shuts straight down, returning nil.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := s.Run(ctx)
			if err == nil {
				t.Fatal("server started from a malformed checkpoint")
			}
			if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, `"1/2/b-bad"`) {
				t.Fatalf("error %q does not name the file and the bad cell", msg)
			}
			if n := s.cache.stats().Cells; n != 0 {
				t.Fatalf("refused checkpoint left %d cells in the cache", n)
			}
		})
	}

	path := writeCheckpoint(t, map[string]campaign.CellResult{"1/2/a-good": wellFormedCell()})
	s := New(Config{CheckpointPath: path})
	if err := s.loadCheckpoint(); err != nil {
		t.Fatalf("well-formed checkpoint refused: %v", err)
	}
	if n := s.cache.stats().Cells; n != 1 {
		t.Fatalf("well-formed checkpoint loaded %d cells, want 1", n)
	}
}

// TestSaveCheckpointRetriesFailedWrite: a save that fails (here, into a
// directory that does not exist yet) leaves the cache dirty, so the
// next save writes the cells instead of skipping a cache it wrongly
// thinks is on disk.
func TestSaveCheckpointRetriesFailedWrite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "later")
	path := filepath.Join(dir, "checkpoint.json")
	s := New(Config{CheckpointPath: path})
	s.cache.Store("1/2/a", wellFormedCell())
	if err := s.saveCheckpoint(); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.saveCheckpoint(); err != nil {
		t.Fatalf("retried save: %v", err)
	}
	resumed := New(Config{CheckpointPath: path})
	if err := resumed.loadCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if n := resumed.cache.stats().Cells; n != 1 {
		t.Fatalf("retried save wrote %d cells, want 1", n)
	}
	if _, _, clean := s.cache.snapshot(); !clean {
		t.Fatal("cache still dirty after a committed save")
	}
}
