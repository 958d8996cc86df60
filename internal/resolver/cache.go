package resolver

import (
	"time"

	"crosslayer/internal/dnswire"
)

// cacheKey indexes one cached RRset.
type cacheKey struct {
	name string
	typ  dnswire.Type
}

type cacheEntry struct {
	rrs      []*dnswire.RR
	expires  time.Duration
	negative bool
}

// Cache is a TTL-driven DNS cache on virtual time.
type Cache struct {
	entries map[cacheKey]*cacheEntry
	now     func() time.Duration
	// Hits/Misses/Inserts are activity counters.
	Hits, Misses, Inserts uint64
}

// NewCache returns a cache reading virtual time from now().
func NewCache(now func() time.Duration) *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry), now: now}
}

// Get returns the cached RRset for (name, type); negative entries
// return ok=true with nil rrs and negative=true.
func (c *Cache) Get(name string, typ dnswire.Type) (rrs []*dnswire.RR, negative, ok bool) {
	k := cacheKey{dnswire.CanonicalName(name), typ}
	e := c.entries[k]
	if e == nil || c.now() > e.expires {
		if e != nil {
			delete(c.entries, k)
		}
		c.Misses++
		return nil, false, false
	}
	c.Hits++
	out := make([]*dnswire.RR, len(e.rrs))
	for i, rr := range e.rrs {
		out[i] = rr.Copy()
	}
	return out, e.negative, true
}

// Put stores an RRset under (name, type) honouring the smallest TTL in
// the set.
func (c *Cache) Put(name string, typ dnswire.Type, rrs []*dnswire.RR) {
	if len(rrs) == 0 {
		return
	}
	ttl := rrs[0].TTL
	for _, rr := range rrs {
		if rr.TTL < ttl {
			ttl = rr.TTL
		}
	}
	cp := make([]*dnswire.RR, len(rrs))
	for i, rr := range rrs {
		cp[i] = rr.Copy()
	}
	c.entries[cacheKey{dnswire.CanonicalName(name), typ}] = &cacheEntry{
		rrs: cp, expires: c.now() + time.Duration(ttl)*time.Second,
	}
	c.Inserts++
}

// PutNegative stores a negative (NXDOMAIN/NODATA) entry.
func (c *Cache) PutNegative(name string, typ dnswire.Type, ttl uint32) {
	c.entries[cacheKey{dnswire.CanonicalName(name), typ}] = &cacheEntry{
		negative: true, expires: c.now() + time.Duration(ttl)*time.Second,
	}
	c.Inserts++
}

// Flush drops everything.
func (c *Cache) Flush() { c.entries = make(map[cacheKey]*cacheEntry) }

// Reset drops everything and zeroes the activity counters in place,
// keeping the allocated map — the trial-reset path, where the warmed
// cache is reused by the next simulation run.
func (c *Cache) Reset() {
	clear(c.entries)
	c.Hits, c.Misses, c.Inserts = 0, 0, 0
}

// Len returns the number of live entries (expired ones included until
// next access).
func (c *Cache) Len() int { return len(c.entries) }

// Contains reports whether a positive entry for (name, type) is live —
// the probe the paper's cross-application cache study (§4.3.2) uses
// against open resolvers ("cache snooping").
func (c *Cache) Contains(name string, typ dnswire.Type) bool {
	k := cacheKey{dnswire.CanonicalName(name), typ}
	e := c.entries[k]
	return e != nil && !e.negative && c.now() <= e.expires
}
