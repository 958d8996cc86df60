package campaign

import "sync"

// ArenaPool recycles trial workers — each carrying a warmed wire-buffer
// arena and sample slices — across campaign runs in one resident
// process. Within a run each worker is owned by exactly one engine
// goroutine (pool.Wire is single-goroutine by design); the pool only
// hands a worker out again after the run that used it has fully
// completed, so cross-run reuse never races.
//
// Reuse is invisible in results by the same argument engine.Resettable
// makes within a run: Reset rewinds the sample slices before every
// cell, and the wire arena's buffers carry capacity, not state.
type ArenaPool struct {
	// MaxArenaBytes bounds the wire-buffer capacity a worker retains
	// while parked in the pool (largest buffers dropped first); 0
	// means DefaultMaxArenaBytes. The bound applies when a run returns
	// its workers, so a job that briefly needed big frag-attack
	// buffers does not pin them for the lifetime of the server.
	MaxArenaBytes int
	// MaxPoolNodes bounds the clock-event and delivery-node freelist
	// retention of a parked worker the same way (a flood-heavy sweep
	// parks tens of thousands of nodes); 0 means DefaultMaxPoolNodes.
	MaxPoolNodes int

	mu   sync.Mutex
	free []*trialWorker
}

// DefaultMaxArenaBytes is the per-worker retained-capacity bound used
// when ArenaPool.MaxArenaBytes is zero: enough to keep the steady-state
// DNS-sized working set warm, small enough that a fleet of workers
// stays in cache-friendly territory between jobs.
const DefaultMaxArenaBytes = 1 << 20

// DefaultMaxPoolNodes is the per-worker retained-node bound (clock
// events and delivery nodes each) used when ArenaPool.MaxPoolNodes is
// zero: comfortably above the steady-state working set of a trial,
// far below what one flood burst can park.
const DefaultMaxPoolNodes = 1 << 12

// arenaLease tracks the workers one run borrowed so endRun can return
// exactly those, after the engine's goroutines have all finished.
type arenaLease struct {
	pool   *ArenaPool
	mu     sync.Mutex
	handed []*trialWorker
}

func (p *ArenaPool) beginRun() *arenaLease { return &arenaLease{pool: p} }

// get borrows a parked worker (or makes a fresh one). Called from
// engine worker goroutines via RunWorkersCtx' newState hook.
func (l *arenaLease) get() *trialWorker {
	l.pool.mu.Lock()
	var w *trialWorker
	if n := len(l.pool.free); n > 0 {
		w = l.pool.free[n-1]
		l.pool.free[n-1] = nil
		l.pool.free = l.pool.free[:n-1]
	}
	l.pool.mu.Unlock()
	if w == nil {
		w = newTrialWorker()
	}
	l.mu.Lock()
	l.handed = append(l.handed, w)
	l.mu.Unlock()
	return w
}

// endRun parks the run's workers back in the pool, trimming each
// worker's wire arena and node freelists to their retained-capacity
// bounds. Must only run after the engine call that used the lease has
// returned (all worker goroutines joined).
func (l *arenaLease) endRun() {
	maxBytes := l.pool.MaxArenaBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxArenaBytes
	}
	maxNodes := l.pool.MaxPoolNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxPoolNodes
	}
	l.mu.Lock()
	handed := l.handed
	l.handed = nil
	l.mu.Unlock()
	for _, w := range handed {
		w.wire.Trim(maxBytes)
		w.events.Trim(maxNodes)
		w.deliv.Trim(maxNodes)
	}
	l.pool.mu.Lock()
	l.pool.free = append(l.pool.free, handed...)
	l.pool.mu.Unlock()
}
