package engine

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestShardPlanCoversPopulation(t *testing.T) {
	for _, tc := range []struct {
		items, size int
		wantShards  int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{256, 0, 1},
		{257, 0, 2},
		{1000, 100, 10},
		{1001, 100, 11},
		{5, 2, 3},
	} {
		j := Job{Items: tc.items, ShardSize: tc.size, Seed: 42}
		shards := j.Shards()
		if len(shards) != tc.wantShards {
			t.Fatalf("items=%d size=%d: %d shards, want %d", tc.items, tc.size, len(shards), tc.wantShards)
		}
		next := 0
		for i, sh := range shards {
			if sh.Index != i {
				t.Fatalf("shard %d has Index %d", i, sh.Index)
			}
			if sh.Start != next {
				t.Fatalf("shard %d starts at %d, want %d", i, sh.Start, next)
			}
			if sh.Count <= 0 {
				t.Fatalf("shard %d empty", i)
			}
			next = sh.Start + sh.Count
		}
		if next != tc.items {
			t.Fatalf("plan covers %d items, want %d", next, tc.items)
		}
	}
}

func TestShardPlanIgnoresParallelism(t *testing.T) {
	a := Job{Items: 1000, ShardSize: 64, Seed: 7, Parallelism: 1}.Shards()
	b := Job{Items: 1000, ShardSize: 64, Seed: 7, Parallelism: 16}.Shards()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shard plan depends on parallelism")
	}
}

func TestDeriveSeedDeterministicAndSpread(t *testing.T) {
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at shard %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("base seed ignored")
	}
}

// run is RunCtx under a background context, which never fails.
func run[T any](t *testing.T, j Job, fn func(Shard) T) []T {
	t.Helper()
	out, err := RunCtx(context.Background(), j, fn)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunResultsIndependentOfWorkerCount(t *testing.T) {
	fn := func(sh Shard) []int64 {
		out := make([]int64, sh.Count)
		for k := range out {
			out[k] = sh.Seed + int64(sh.Start+k)
		}
		return out
	}
	var reference [][]int64
	for _, p := range []int{1, 2, 8} {
		j := Job{Items: 333, ShardSize: 16, Seed: 99, Parallelism: p}
		got := run(t, j, fn)
		if reference == nil {
			reference = got
			continue
		}
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("parallelism %d changed results", p)
		}
	}
}

func TestExecuteReportsProgress(t *testing.T) {
	var calls int
	last := 0
	j := Job{Items: 50, ShardSize: 10, Seed: 1, Parallelism: 4,
		OnTrialDone: func(done, total int) {
			calls++
			if total != 5 {
				t.Errorf("total %d, want 5", total)
			}
			if done <= last {
				t.Errorf("done not monotonic: %d after %d", done, last)
			}
			last = done
		}}
	run(t, j, func(sh Shard) int { return sh.Index })
	if calls != 5 || last != 5 {
		t.Fatalf("progress calls=%d last=%d, want 5/5", calls, last)
	}
}

// TestParallelRunsAllThunks: a fixed set of dissimilar thunks runs as a
// job of one-item shards that index the thunk slice, each exactly once.
func TestParallelRunsAllThunks(t *testing.T) {
	var n atomic.Int64
	fns := make([]func(), 17)
	for i := range fns {
		fns[i] = func() { n.Add(1) }
	}
	run(t, Job{Items: len(fns), ShardSize: 1, Parallelism: 4},
		func(sh Shard) struct{} { fns[sh.Start](); return struct{}{} })
	if n.Load() != 17 {
		t.Fatalf("ran %d thunks, want 17", n.Load())
	}
}

func TestEmptyJob(t *testing.T) {
	if got := run(t, Job{Items: 0, Seed: 1}, func(Shard) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty job produced %d results", len(got))
	}
}

// TestRunCtxCancellationStopsDispatch pins the cancellation contract:
// once the context is cancelled no further shard starts, and the
// context's error comes back instead of a silent partial merge.
func TestRunCtxCancellationStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	j := Job{Items: 100, ShardSize: 1, Seed: 3, Parallelism: 1}
	_, err := RunCtx(ctx, j, func(sh Shard) int {
		if started.Add(1) == 5 {
			cancel()
		}
		return sh.Index
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Serial execution checks ctx before each trial: exactly the five
	// trials up to the cancelling one ran.
	if started.Load() != 5 {
		t.Fatalf("%d trials started after cancellation, want 5", started.Load())
	}

	// Parallel path: in-flight shards finish, the rest never start.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	var ran atomic.Int64
	_, err = RunCtx(ctx2, Job{Items: 64, ShardSize: 1, Seed: 4, Parallelism: 8},
		func(sh Shard) int { ran.Add(1); return sh.Index })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d trials ran under a pre-cancelled context, want 0", ran.Load())
	}
}

// TestRunCtxBackgroundMatchesRun: with a background context RunCtx
// returns a nil error and exactly the results of the equivalent
// RunWorkersCtx call it wraps.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	fn := func(sh Shard) int64 { return sh.Seed + int64(sh.Start) }
	j := Job{Items: 40, ShardSize: 8, Seed: 12, Parallelism: 4}
	got, err := RunCtx(context.Background(), j, fn)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunWorkersCtx(context.Background(), j, func() *struct{} { return nil },
		func(_ *struct{}, sh Shard) int64 { return fn(sh) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunCtx(Background) differs from RunWorkersCtx")
	}
}

// TestDeriveSeedKeyStableAndDistinct pins the identity-keyed seed
// derivation: deterministic for the same (base, key), different for
// different keys or bases, and independent of any positional index —
// the property that keeps filtered campaign runs cell-for-cell
// identical to full runs.
func TestDeriveSeedKeyStableAndDistinct(t *testing.T) {
	a := DeriveSeedKey(42, "saddns/web/bind/0x20")
	if b := DeriveSeedKey(42, "saddns/web/bind/0x20"); a != b {
		t.Fatalf("unstable: %d vs %d", a, b)
	}
	seen := map[int64]string{}
	for _, key := range []string{"a", "b", "ab", "ba", "hijack/web/bind/none", "hijack/web/bind/dnssec"} {
		s := DeriveSeedKey(7, key)
		if prev, dup := seen[s]; dup {
			t.Fatalf("collision between %q and %q", prev, key)
		}
		seen[s] = key
	}
	if DeriveSeedKey(1, "x") == DeriveSeedKey(2, "x") {
		t.Fatal("base seed ignored")
	}
}

// runWorkers is RunWorkersCtx under a background context.
func runWorkers[S, T any](t *testing.T, j Job, newState func() S, fn func(S, Shard) T) []T {
	t.Helper()
	out, err := RunWorkersCtx(context.Background(), j, newState, fn)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunWorkersResultsIndependentOfWorkers pins the determinism
// contract across the shared-counter dispatcher: the worker count may
// not change results or their order, even when every worker claims
// many shards (1000 shards at parallelism 8).
func TestRunWorkersResultsIndependentOfWorkers(t *testing.T) {
	type state struct{ scratch []int64 }
	fn := func(s *state, sh Shard) int64 {
		s.scratch = append(s.scratch, sh.Seed)
		return sh.Seed + int64(sh.Start)
	}
	var reference []int64
	for _, p := range []int{1, 2, 8} {
		j := Job{Items: 4000, ShardSize: 4, Seed: 99, Parallelism: p}
		got := runWorkers(t, j, func() *state { return &state{} }, fn)
		if reference == nil {
			reference = got
			continue
		}
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("parallelism %d changed results", p)
		}
	}
}

// TestRunWorkersStatePerWorker: newState runs once per participating
// worker, and every shard runs exactly once, on one worker's state.
// The job spans 128 shards per worker, and no trial proceeds until a
// second worker has built its state, so the test always covers several
// workers.
func TestRunWorkersStatePerWorker(t *testing.T) {
	const items = 512
	var made atomic.Int64
	second := make(chan struct{})
	j := Job{Items: items, ShardSize: 1, Seed: 5, Parallelism: 4}
	states := runWorkers(t, j,
		func() *shardLog {
			if made.Add(1) == 2 {
				close(second)
			}
			return &shardLog{}
		},
		func(s *shardLog, sh Shard) *shardLog {
			select {
			case <-second:
			case <-time.After(10 * time.Second):
				t.Error("no second worker ever started")
			}
			s.ran = append(s.ran, sh.Index)
			return s
		})
	if n := made.Load(); n < 2 || n > 4 {
		t.Fatalf("newState ran %d times, want 2..4", n)
	}
	seen := map[int]int{}
	uniq := map[*shardLog]bool{}
	for _, s := range states {
		if uniq[s] {
			continue
		}
		uniq[s] = true
		for _, idx := range s.ran {
			seen[idx]++
		}
	}
	for i := 0; i < items; i++ {
		if seen[i] != 1 {
			t.Fatalf("shard %d ran %d times, want 1", i, seen[i])
		}
	}
}

// shardLog is a worker state that records the shards run on it.
type shardLog struct{ ran []int }

// TestSmallJobUsesEveryWorker: a job with fewer shards than a worker
// could claim at once — 8 shards, the size of a flood sweep — still
// runs on both workers at Parallelism 2. Shard 0 holds its worker
// until the second worker has built its state, which it only does
// once it has claimed a shard of its own; the timer bounds nothing but
// the failure, where one worker claimed all eight and the second never
// starts.
func TestSmallJobUsesEveryWorker(t *testing.T) {
	var made atomic.Int64
	second := make(chan struct{})
	j := Job{Items: 8, ShardSize: 1, Seed: 5, Parallelism: 2}
	states := runWorkers(t, j,
		func() *shardLog {
			if made.Add(1) == 2 {
				close(second)
			}
			return &shardLog{}
		},
		func(s *shardLog, sh Shard) *shardLog {
			if sh.Index == 0 {
				select {
				case <-second:
				case <-time.After(10 * time.Second):
					t.Error("the second worker never started: one worker claimed every shard")
				}
			}
			s.ran = append(s.ran, sh.Index)
			return s
		})
	ran := map[*shardLog]int{}
	for _, s := range states {
		ran[s] = len(s.ran)
	}
	if len(ran) != 2 {
		t.Fatalf("shards ran on %d workers, want 2", len(ran))
	}
	total := 0
	for _, n := range ran {
		total += n
	}
	if total != 8 {
		t.Fatalf("%d shards ran, want 8", total)
	}
}

// TestRunWorkersCachedNilCacheMatchesUncached: memoization lives in
// the caller's shard function (campaign.RunContext looks cells up in
// Config.Cache), so a run without a cache is plain RunWorkersCtx, and
// its results must be exactly fn applied to the shard plan, in shard
// order — the reference a cached run has to reproduce.
func TestRunWorkersCachedNilCacheMatchesUncached(t *testing.T) {
	j := Job{Items: 17, ShardSize: 2, Seed: 3, Parallelism: 3}
	fn := func(_ *struct{}, sh Shard) int64 { return sh.Seed ^ int64(sh.Start) }
	got := runWorkers(t, j, func() *struct{} { return nil }, fn)
	var want []int64
	for _, sh := range j.Shards() {
		want = append(want, fn(nil, sh))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("uncached results diverge from the shard plan: %v vs %v", got, want)
	}
}

// TestRunWorkersCtxCancellation: the dispatcher must honour the
// no-new-trials-after-cancel rule on the parallel path, both for a
// pre-cancelled context and for one cancelled mid-job, when the job
// spans many shards per worker.
func TestRunWorkersCtxCancellation(t *testing.T) {
	const items, workers = 1024, 8
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := RunWorkersCtx(ctx, Job{Items: items, ShardSize: 1, Seed: 4, Parallelism: workers},
		func() int { return 0 },
		func(int, Shard) int { ran.Add(1); return 0 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d trials ran under a pre-cancelled context, want 0", ran.Load())
	}

	// Cancelled by the 100th trial. Trials that start while cancel()
	// is still running are legitimate, so the bound counts from the
	// moment it returns: after that, only the trials the other workers
	// already had in flight may still finish, and none may start.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	ran.Store(0)
	var atCancel atomic.Int64
	_, err = RunWorkersCtx(ctx, Job{Items: items, ShardSize: 1, Seed: 4, Parallelism: workers},
		func() int { return 0 },
		func(int, Shard) int {
			if ran.Add(1) == 100 {
				cancel()
				atCancel.Store(ran.Load())
			}
			return 0
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n, c := ran.Load(), atCancel.Load(); c < 100 || n > c+workers-1 {
		t.Fatalf("%d trials ran, %d when cancel() returned: at most %d may follow it", n, c, workers-1)
	}
}
