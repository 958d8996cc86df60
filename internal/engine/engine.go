// Package engine is the parallel experiment-execution subsystem: it
// decomposes a population-scale experiment (a Job) into independent
// deterministic simulation shards and runs the function that simulates
// a shard (one trial) on every shard, on a worker pool sized by
// GOMAXPROCS. There are two entry points: RunCtx for stateless trials
// and RunWorkersCtx for trials that reuse per-worker scratch.
//
// The determinism contract every caller relies on:
//
//   - The shard plan (how a population is cut into shards, and each
//     shard's derived seed) depends only on Job.Items, Job.ShardSize
//     and Job.Seed — never on Parallelism or scheduling.
//   - Each trial must be self-contained: its own sim.Clock, its own
//     netsim.Network, its own rand streams, all derived from the
//     shard's seed. Trials share no mutable state.
//   - Results are returned indexed by shard, regardless of the order
//     trials finish in.
//
// Together these guarantee that the same seed produces byte-identical
// merged output for any worker count.
//
// Execution is cancellable: both entry points stop dispatching shards
// once their context is cancelled and return its error, so a long
// population sweep aborts at the next shard boundary instead of
// running to completion.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultShardSize is the population-items-per-shard used when a Job
// does not specify one. It balances scheduling granularity against the
// per-shard cost of building a fresh simulated network.
const DefaultShardSize = 256

// Shard is one independently simulable slice of a job's population:
// the half-open item range [Start, Start+Count) plus the seed every
// random stream inside the shard must derive from.
type Shard struct {
	Index int // position in the job's shard plan
	Start int // first population item covered
	Count int // number of items covered
	Seed  int64
}

// Job describes a population-scale experiment to be decomposed into
// shards.
type Job struct {
	// Name labels the job in progress reporting (cosmetic).
	Name string
	// Items is the total population size.
	Items int
	// ShardSize caps the items per shard; 0 means DefaultShardSize.
	ShardSize int
	// Seed is the base seed; per-shard seeds are derived from it with
	// DeriveSeed.
	Seed int64
	// Parallelism is the worker count; 0 means GOMAXPROCS. It affects
	// only wall-clock time, never results.
	Parallelism int
	// OnTrialDone, when non-nil, observes trial completions. Calls are
	// serialized and done is monotonic, but which shard completed is
	// deliberately not reported: completion order depends on
	// scheduling.
	OnTrialDone func(done, total int)
}

func (j Job) shardSize() int {
	if j.ShardSize > 0 {
		return j.ShardSize
	}
	return DefaultShardSize
}

// Shards returns the job's deterministic shard plan: contiguous item
// ranges of at most ShardSize items, seeded by DeriveSeed(Seed, index).
func (j Job) Shards() []Shard {
	size := j.shardSize()
	var shards []Shard
	for start := 0; start < j.Items; start += size {
		count := j.Items - start
		if count > size {
			count = size
		}
		shards = append(shards, Shard{
			Index: len(shards),
			Start: start,
			Count: count,
			Seed:  DeriveSeed(j.Seed, len(shards)),
		})
	}
	return shards
}

// DeriveSeed maps (base seed, shard index) to the shard's seed with a
// splitmix64 finalizer, so neighbouring shard indices get statistically
// independent streams while the mapping stays pure and portable.
func DeriveSeed(base int64, shard int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(shard)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// DeriveSeedKey maps (base seed, identity key) to a seed the same way
// DeriveSeed does, but keyed by a stable string identity instead of a
// positional index. Experiments whose work units have names (e.g. the
// campaign matrix's method/victim/profile/defense cells) derive their
// seeds from the identity so a FILTERED run reproduces exactly the
// numbers of the full run: dropping cells never renumbers — and so
// never reseeds — the cells that remain.
func DeriveSeedKey(base int64, key string) int64 {
	// FNV-1a over the key folds the identity into 64 bits; the same
	// splitmix64 finalizer DeriveSeed applies then decorrelates
	// neighbours. The full 64-bit hash feeds the mix directly — going
	// through DeriveSeed's int parameter would truncate it on 32-bit
	// platforms and break seed portability.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	z := uint64(base) + 0x9e3779b97f4a7c15*(h+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RunCtx plans the job's shards, runs fn on each of them on the worker
// pool, and returns the results in shard order: RunWorkersCtx without
// per-worker state.
func RunCtx[T any](ctx context.Context, j Job, fn func(Shard) T) ([]T, error) {
	return RunWorkersCtx(ctx, j, func() struct{} { return struct{}{} }, func(_ struct{}, sh Shard) T { return fn(sh) })
}

// RunWorkersCtx runs the job with one state per worker, so trials on
// the same worker can reuse allocation-heavy scratch (wire-buffer
// pools, result accumulators) across shards instead of rebuilding it
// per trial. newState is called once per worker, on that worker's
// goroutine, before its first shard. fn must leave nothing in the
// state that a later shard can observe — whatever it keeps is
// capacity, rewound by fn itself — or results would depend on which
// shards a worker previously ran, breaking the determinism contract.
// Results are returned in shard order, regardless of the order trials
// finish in.
//
// Shards already dispatched run to completion (a shard's simulation is
// not interruptible), but no new shard starts once ctx is cancelled,
// and the context's error is returned. On cancellation the result
// slice is partial — callers must treat a non-nil error as fatal
// rather than merge the partial results. With a background context
// the error is always nil.
func RunWorkersCtx[S, T any](ctx context.Context, j Job, newState func() S, fn func(S, Shard) T) ([]T, error) {
	shards := j.Shards()
	results := make([]T, len(shards))
	workers := j.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(shards))
	states := make([]S, workers)
	made := make([]bool, workers)
	err := execute(ctx, workers, len(shards), func(w, i int) {
		if !made[w] {
			states[w] = newState()
			made[w] = true
		}
		results[i] = fn(states[w], shards[i])
	}, j.OnTrialDone)
	return results, err
}

// execute is the dispatch core under RunWorkersCtx: it invokes
// run(worker, i) exactly once for every i in [0, total) that starts
// before ctx is cancelled, with worker in [0, workers) stable per
// goroutine (the hook per-worker state hangs off). Workers claim one
// index per atomic add on a shared counter — no channel rendezvous —
// so every worker takes part however few shards a job has. Every
// caller's shard is a whole cell or scan, so one atomic op per shard
// is no cost worth amortising. onDone, when non-nil, is called
// serialized with a strictly monotonic done count.
func execute(ctx context.Context, workers, total int, run func(worker, i int), onDone func(done, total int)) error {
	if workers <= 1 {
		for i := 0; i < total; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			run(0, i)
			if onDone != nil {
				onDone(i+1, total)
			}
		}
		return nil
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				run(w, i)
				if onDone != nil {
					// Increment under the same mutex that serializes
					// the callback, so observed done values are
					// strictly monotonic.
					mu.Lock()
					done++
					onDone(done, total)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
