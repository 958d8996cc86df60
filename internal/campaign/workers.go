package campaign

import "sync"

// Retention bounds a parked trial worker is trimmed to when a run
// returns it: the wire-buffer capacity it keeps (largest buffers
// dropped first), and the clock-event, timestamp-bucket and delivery
// nodes it keeps, freelist arrays included. Enough to keep a trial's
// steady-state working set warm; below what one flood burst parks (a
// SadDNS mute window queues thousands of deliveries at a single
// virtual instant), so a flood sweep does not pin its peak for the
// life of the process.
const (
	maxArenaBytes = 1 << 20
	maxPoolNodes  = 1 << 12
)

// parked is the process-wide pool of idle trial workers. Every
// campaign run leases its workers from it, so a resident server — or
// any process that sweeps more than once — reuses warmed allocator
// state instead of rebuilding it per run. Within a run each worker is
// owned by exactly one engine goroutine (pool.Wire is single-goroutine
// by design); a worker goes back only after the run that used it has
// joined every engine goroutine, so cross-run reuse never races.
//
// Reuse is invisible in results: runCell rewinds the sample slices
// before every cell, and the wire arena, freelists and memoized
// prototypes carry capacity and baseline-restored build artifacts,
// never trial state.
var parked struct {
	mu   sync.Mutex
	free []*trialWorker
}

// lease tracks the workers one run borrowed so release can park
// exactly those.
type lease struct {
	mu     sync.Mutex
	handed []*trialWorker
}

// get borrows a parked worker, or makes a fresh one. Called from
// engine worker goroutines via RunWorkersCtx' newState hook.
func (l *lease) get() *trialWorker {
	parked.mu.Lock()
	var w *trialWorker
	if n := len(parked.free); n > 0 {
		w = parked.free[n-1]
		parked.free[n-1] = nil
		parked.free = parked.free[:n-1]
	}
	parked.mu.Unlock()
	if w == nil {
		w = &trialWorker{}
	}
	l.mu.Lock()
	l.handed = append(l.handed, w)
	l.mu.Unlock()
	return w
}

// release trims the run's workers to the retention bounds and parks
// them. It must only run after the engine call that used the lease has
// returned (all worker goroutines joined).
func (l *lease) release() {
	for _, w := range l.handed {
		w.wire.Trim(maxArenaBytes)
		w.events.Trim(maxPoolNodes)
		w.deliv.Trim(maxPoolNodes)
	}
	parked.mu.Lock()
	parked.free = append(parked.free, l.handed...)
	parked.mu.Unlock()
}
