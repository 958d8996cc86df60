package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"crosslayer/internal/campaign"
	"crosslayer/internal/stats"
)

// checkpointVersion guards the on-disk schema: a version we don't
// recognise fails the load instead of silently serving wrong cells.
// Version 2 added CellResult.Deployment (the deployment-dataset axis);
// version-1 checkpoints predate the axis and are refused rather than
// resurfaced as canonical cells with a guessed field.
const checkpointVersion = 2

// checkpointFile is the on-disk snapshot of the server's cell cache:
// every completed campaign cell, keyed by its full content address
// (campaign.CellKey — "seed/trials/method/victim/profile/defenseset/
// depth/placement"). The results round-trip losslessly — stats.Counter
// is integer pairs and stats.CDF marshals its exact float64 samples —
// so a resumed server's cache-served reports stay byte-identical to
// the runs that populated it.
type checkpointFile struct {
	Version int                            `json:"version"`
	Cells   map[string]campaign.CellResult `json:"cells"`
}

// loadCheckpoint restores the cache from path. A missing file is a
// fresh start, not an error; a present-but-unreadable one is fatal —
// better to refuse than to recompute over a checkpoint the operator
// thought was live. So is a file holding any malformed cell: the whole
// file is refused before anything is loaded, so a partial cache never
// serves.
func (s *Server) loadCheckpoint() error {
	data, err := os.ReadFile(s.cfg.CheckpointPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: load checkpoint: %w", err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("serve: load checkpoint %s: %w", s.cfg.CheckpointPath, err)
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("serve: checkpoint %s has version %d, want %d",
			s.cfg.CheckpointPath, cp.Version, checkpointVersion)
	}
	keys := make([]string, 0, len(cp.Cells))
	for k := range cp.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := checkCell(cp.Cells[k]); err != nil {
			return fmt.Errorf("serve: checkpoint %s: cell %q: %w", s.cfg.CheckpointPath, k, err)
		}
	}
	s.cache.load(cp.Cells)
	return nil
}

// checkCell rejects a decoded cell the campaign could not have
// written: JSON accepts any shape, and rendering trusts every count
// and sample set to agree with Trials.
func checkCell(c campaign.CellResult) error {
	if c.Trials <= 0 {
		return fmt.Errorf("%d trials", c.Trials)
	}
	for _, n := range []struct {
		name string
		c    stats.Counter
	}{{"Poisoned", c.Poisoned}, {"Impact", c.Impact}} {
		if n.c.Total != c.Trials || n.c.Hits < 0 || n.c.Hits > n.c.Total {
			return fmt.Errorf("%s counts %d/%d over %d trials", n.name, n.c.Hits, n.c.Total, c.Trials)
		}
	}
	for _, d := range []struct {
		name string
		cdf  *stats.CDF
	}{{"Iterations", c.Iterations}, {"Packets", c.Packets}, {"Seconds", c.Seconds}} {
		if d.cdf == nil {
			return fmt.Errorf("%s missing", d.name)
		}
		if d.cdf.Len() != c.Trials {
			return fmt.Errorf("%s has %d samples over %d trials", d.name, d.cdf.Len(), c.Trials)
		}
	}
	return nil
}

// saveCheckpoint snapshots the cache to path atomically (write and
// fsync a temp file in the same directory, then rename), so a crash
// mid-write never truncates the previous good checkpoint. A clean cache
// skips the write entirely; the cache turns clean only once the rename
// has landed, so a failed write is retried by the next save.
func (s *Server) saveCheckpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	cells, stores, clean := s.cache.snapshot()
	if clean {
		return nil
	}
	data, err := json.Marshal(checkpointFile{Version: checkpointVersion, Cells: cells})
	if err != nil {
		return fmt.Errorf("serve: save checkpoint: %w", err)
	}
	dir := filepath.Dir(s.cfg.CheckpointPath)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("serve: save checkpoint: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.cfg.CheckpointPath)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: save checkpoint: %w", werr)
	}
	s.cache.committed(stores)
	return nil
}
