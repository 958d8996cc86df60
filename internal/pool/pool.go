// Package pool provides a small free-list allocator for wire-format
// scratch buffers. The simulator's hot path serializes, copies and
// delivers one []byte per packet; recycling those buffers through a
// Wire pool turns the per-packet allocations into pointer bumps.
//
// A Wire is deliberately NOT safe for concurrent use: the engine runs
// each shard on a single goroutine, so a per-shard (per-worker) pool
// needs no locks and no sync.Pool-style per-P machinery — the same
// per-worker locality argument NDN-DPDK's mempools make. Share one
// Wire across goroutines and you get data races; give each worker its
// own.
package pool

import "math/bits"

// minClass is the smallest bucket (1<<minClass = 64 bytes), roughly a
// DNS query; smaller requests round up to it.
const minClass = 6

// numClasses covers buffers up to 1<<(minClass+numClasses-1) = 2 MiB;
// larger buffers are allocated directly and never pooled.
const numClasses = 16

// Wire recycles byte buffers in power-of-two size classes.
//
// Ownership contract: a buffer obtained from Get is owned by the
// caller until it is passed to Put, after which the caller must not
// retain any slice of it. Put is only ever called by code that can
// prove no reference escaped (see the netsim delivery rules in
// DESIGN.md); when in doubt, leak the buffer to the GC instead —
// correctness never depends on recycling. Built with -tags poolcheck,
// the pool enforces the contract: Put poisons what it takes back and
// panics on a buffer it already holds, and Get panics on a held buffer
// that something wrote to after its release.
type Wire struct {
	classes [numClasses][][]byte

	// Gets and Misses count buffer requests and the subset that had to
	// hit the heap allocator; their difference is the recycle rate.
	Gets   uint64
	Misses uint64
}

// classFor returns the bucket index for a request of n bytes: the
// smallest class whose buffers have capacity >= n.
func classFor(n int) int {
	if n <= 1<<minClass {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClass
	return c
}

// classOf returns the bucket a buffer of capacity c belongs to when
// returned: the largest class with 1<<class <= c, so a Get from that
// class always sees capacity >= its request.
func classOf(c int) int {
	return bits.Len(uint(c)) - 1 - minClass
}

// Get returns a zero-length buffer with capacity at least n.
func (p *Wire) Get(n int) []byte {
	p.Gets++
	c := classFor(n)
	if c < numClasses {
		if l := p.classes[c]; len(l) > 0 {
			b := l[len(l)-1]
			l[len(l)-1] = nil
			p.classes[c] = l[:len(l)-1]
			checkGet(b)
			return b
		}
		p.Misses++
		return make([]byte, 0, 1<<(minClass+c))
	}
	p.Misses++
	return make([]byte, 0, n)
}

// Retained reports the total capacity, in bytes, of the buffers the
// pool currently holds.
func (p *Wire) Retained() int {
	total := 0
	for c, l := range p.classes {
		total += len(l) << (minClass + c)
	}
	return total
}

// Trim drops pooled buffers, largest classes first, until at most
// maxBytes of capacity remain retained. A resident process that parks
// a warmed arena between jobs calls Trim to bound its idle footprint
// without giving up the small-buffer working set; Trim(0) empties the
// pool. A trimmed class's kept buffers move to an exact-fit freelist,
// so the slots a flood burst once needed are dropped too. Dropped
// buffers go to the GC — Trim never affects correctness, only what the
// next Get must re-allocate.
func (p *Wire) Trim(maxBytes int) {
	retained := p.Retained()
	for c := numClasses - 1; c >= 0 && retained > maxBytes; c-- {
		l := p.classes[c]
		k := len(l)
		for ; k > 0 && retained > maxBytes; k-- {
			retained -= 1 << (minClass + c)
		}
		p.classes[c] = append(make([][]byte, 0, k), l[:k]...)
	}
}

// Put returns a buffer to the pool for reuse. The caller relinquishes
// ownership of b's entire backing array; passing a slice that shares
// backing with a still-live buffer corrupts future packets. Buffers
// too small or too large for the class table are dropped to the GC.
func (p *Wire) Put(b []byte) {
	c := classOf(cap(b))
	if c < 0 || c >= numClasses {
		return
	}
	p.checkPut(b, c)
	p.classes[c] = append(p.classes[c], b[:0])
}
