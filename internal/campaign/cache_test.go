package campaign_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"crosslayer/internal/campaign"
	"crosslayer/internal/measure"
)

// memCellCache is a mutex-map CellCache counting hits and stores.
type memCellCache struct {
	mu     sync.Mutex
	m      map[string]campaign.CellResult
	hits   int
	stores int
}

func newMemCellCache() *memCellCache {
	return &memCellCache{m: make(map[string]campaign.CellResult)}
}

func (c *memCellCache) Lookup(key string) (campaign.CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	if ok {
		c.hits++
	}
	return r, ok
}

func (c *memCellCache) Store(key string, r campaign.CellResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = r
	c.stores++
}

func (c *memCellCache) counts() (hits, stores int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.stores
}

// cacheTestConfig is a small two-axis sweep used by the cache tests.
func cacheTestConfig(parallelism int) campaign.Config {
	return campaign.Config{
		Exec: measure.Config{Seed: 11, Parallelism: parallelism},
		Filter: campaign.Filter{
			Methods:     []string{"hijack"},
			Victims:     []string{"web", "smtp"},
			Profiles:    []string{"bind", "dnsmasq"},
			ChainDepths: []string{"0"},
			Placements:  []string{"stub"},
		},
		Trials:      2,
		LatticeRank: 1,
	}
}

// TestCampaignCachedRunByteIdentical: a warm-cache run recomputes
// nothing and its results — raw cells AND rendered matrix bytes — are
// identical to the cold run's, at parallelism 1 and N.
func TestCampaignCachedRunByteIdentical(t *testing.T) {
	uncached, err := campaign.RunContext(context.Background(), cacheTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ref := campaign.Matrix(uncached).String()

	for _, p := range []int{1, 4} {
		cache := newMemCellCache()
		cfg := cacheTestConfig(p)
		cfg.Cache = cache
		cold, err := campaign.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hits, stores := cache.counts(); hits != 0 || stores != len(cold) {
			t.Fatalf("p=%d cold run: %d hits, %d stores, want 0 and %d", p, hits, stores, len(cold))
		}
		warm, err := campaign.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hits, stores := cache.counts(); hits != len(cold) || stores != len(cold) {
			t.Fatalf("p=%d warm run: %d hits (want %d), %d new stores (want 0)",
				p, hits, len(cold), stores-len(cold))
		}
		if !reflect.DeepEqual(cold, uncached) {
			t.Fatalf("p=%d cold cached run diverges from uncached reference", p)
		}
		if !reflect.DeepEqual(warm, uncached) {
			t.Fatalf("p=%d warm cached run diverges from uncached reference", p)
		}
		if got := campaign.Matrix(warm).String(); got != ref {
			t.Fatalf("p=%d warm matrix bytes diverge:\n--- reference\n%s\n--- warm\n%s", p, ref, got)
		}
	}
}

// TestCampaignCacheSharedAcrossOverlappingSweeps: two filtered sweeps
// sharing cells recompute only the non-overlapping ones, and the
// shared cells come back byte-identical to an independent run of the
// second sweep.
func TestCampaignCacheSharedAcrossOverlappingSweeps(t *testing.T) {
	cache := newMemCellCache()

	first := cacheTestConfig(2)
	first.Filter.Profiles = []string{"bind"}
	first.Cache = cache
	if _, err := campaign.RunContext(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	_, storesAfterFirst := cache.counts()

	second := cacheTestConfig(2)
	second.Cache = cache // full two-profile sweep: bind cells overlap
	got, err := campaign.RunContext(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	hits, stores := cache.counts()
	if hits != storesAfterFirst {
		t.Fatalf("overlap recomputed: %d hits, want %d (every first-sweep cell)", hits, storesAfterFirst)
	}
	if newStores := stores - storesAfterFirst; newStores != len(got)-hits {
		t.Fatalf("stored %d new cells, want %d", newStores, len(got)-hits)
	}

	independent := cacheTestConfig(2)
	ref, err := campaign.RunContext(context.Background(), independent)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("cache-assembled sweep diverges from independent run")
	}
}

// sentinelCache pre-fills a cache with a marker result under the key
// of every cell cfg plans, so a run that returns only markers never
// simulated a cell.
func sentinelCache(t *testing.T, cfg campaign.Config) *memCellCache {
	t.Helper()
	cells, err := campaign.CellsAtRank(cfg.Filter, cfg.LatticeRank)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMemCellCache()
	for _, c := range cells {
		key := campaign.CellKey(cfg.Exec.Seed, cfg.Trials, c)
		cache.m[key] = campaign.CellResult{Method: "cached:" + key}
	}
	return cache
}

// TestCampaignCacheHitSkipsRunCell: a cell found in the cache is
// returned as stored — never simulated, never stored again — at
// parallelism 1 and 4. A downgraded sweep addresses its cells under a
// "/downgrade" marker, so the plain sweep's entries are not hits there.
func TestCampaignCacheHitSkipsRunCell(t *testing.T) {
	for _, p := range []int{1, 4} {
		cfg := cacheTestConfig(p)
		cache := sentinelCache(t, cfg)
		cfg.Cache = cache
		got, err := campaign.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hits, stores := cache.counts(); hits != len(got) || stores != 0 {
			t.Fatalf("p=%d: %d hits, %d stores, want %d and 0", p, hits, stores, len(got))
		}
		for i, r := range got {
			if !strings.HasPrefix(r.Method, "cached:") {
				t.Fatalf("p=%d: cell %d was simulated despite a cache hit", p, i)
			}
		}
	}

	cfg := cacheTestConfig(4)
	cfg.Filter.Victims = []string{"web"}
	cfg.Filter.Transports = []string{"udp"}
	cache := sentinelCache(t, cfg)
	cfg.Cache = cache
	cfg.Downgrade = true
	got, err := campaign.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, stores := cache.counts(); hits != 0 || stores != len(got) {
		t.Fatalf("downgraded sweep: %d hits, %d stores, want 0 and %d", hits, stores, len(got))
	}
}

// cancellingCache cancels the sweep once it has stored n cells.
type cancellingCache struct {
	*memCellCache
	n      int
	cancel context.CancelFunc
}

func (c cancellingCache) Store(key string, r campaign.CellResult) {
	c.memCellCache.Store(key, r)
	if _, stores := c.counts(); stores == c.n {
		c.cancel()
	}
}

// TestCampaignCacheStoresBeforeCancellation: cells computed before a
// cancellation are in the cache, so a resumed sweep recomputes only the
// cells that never ran and still matches an uncached run.
func TestCampaignCacheStoresBeforeCancellation(t *testing.T) {
	ref, err := campaign.RunContext(context.Background(), cacheTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cache := newMemCellCache()
	cfg := cacheTestConfig(1)
	cfg.Cache = cancellingCache{memCellCache: cache, n: 5, cancel: cancel}
	if _, err := campaign.RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, stores := cache.counts(); stores != 5 {
		t.Fatalf("stored %d cells before the cancel, want 5", stores)
	}

	cfg.Cache = cache
	got, err := campaign.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, stores := cache.counts(); hits != 5 || stores != len(ref) {
		t.Fatalf("resume: %d hits, %d stores in total, want 5 and %d", hits, stores, len(ref))
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("resumed sweep diverges from an uncached run")
	}
}
