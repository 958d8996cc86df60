package serve

import (
	"sync"

	"crosslayer/internal/campaign"
)

// cellCache is the server's content-addressed cell store: a mutex map
// from campaign.CellKey identity strings to their measured results.
// Because cell seeds derive from the identity key (not the cell's
// position in a sweep), a stored result is exactly what recomputation
// would produce — for any filter, any parallelism — so overlapping
// filtered sweeps submitted to one server never recompute a shared
// cell, and cache-served reports are byte-identical to cold ones.
//
// It satisfies campaign.CellCache; Lookup and Store are called
// concurrently from engine worker goroutines.
type cellCache struct {
	mu     sync.Mutex
	cells  map[string]campaign.CellResult
	hits   uint64
	misses uint64
	stores uint64
	// saved is the stores count the last committed checkpoint (or the
	// load) covers: the cache is dirty while stores != saved, and the
	// checkpoint writer skips the disk write when it is clean.
	saved uint64
}

func newCellCache() *cellCache {
	return &cellCache{cells: make(map[string]campaign.CellResult)}
}

func (c *cellCache) Lookup(key string) (campaign.CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.cells[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return r, ok
}

func (c *cellCache) Store(key string, r campaign.CellResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells[key] = r
	c.stores++
}

// CacheStats is the cache-counter snapshot the /cache endpoint and the
// terminal report event expose.
type CacheStats struct {
	Cells  int    `json:"cells"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Stores uint64 `json:"stores"`
}

func (c *cellCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Cells: len(c.cells), Hits: c.hits, Misses: c.misses, Stores: c.stores}
}

// snapshot copies the cell map for checkpointing, with the stores
// count the copy covers. clean means nothing changed since the last
// commit and the write can be skipped.
func (c *cellCache) snapshot() (cells map[string]campaign.CellResult, stores uint64, clean bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stores == c.saved {
		return nil, c.stores, true
	}
	cells = make(map[string]campaign.CellResult, len(c.cells))
	for k, v := range c.cells {
		cells[k] = v
	}
	return cells, c.stores, false
}

// committed records that the snapshot taken at stores is on disk. A
// Store since that snapshot keeps the cache dirty, and so does a write
// that failed (it never commits), so the next save retries.
func (c *cellCache) committed(stores uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.saved = stores
}

// load replaces the cache contents with a checkpoint's cells. Loaded
// state is not dirty: a restart that computes nothing new rewrites
// nothing.
func (c *cellCache) load(cells map[string]campaign.CellResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells = make(map[string]campaign.CellResult, len(cells))
	for k, v := range cells {
		c.cells[k] = v
	}
	c.saved = c.stores
}
