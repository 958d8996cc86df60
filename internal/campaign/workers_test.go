package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"crosslayer/internal/measure"
)

// floodConfig is the 8-cell SadDNS/FragDNS sweep a flood-heavy job
// runs: each trial parks tens of thousands of spoofed deliveries at
// one virtual instant.
func floodConfig(parallelism int) Config {
	return Config{
		Exec: measure.Config{Seed: 1, Parallelism: parallelism},
		Filter: Filter{
			Methods: []string{"saddns", "frag"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, DefenseSets: []string{"none", "0x20"},
			ChainDepths: []string{"0", "1"}, Placements: []string{"stub"},
			Transports: []string{"udp"},
		},
		Trials: 2,
	}
}

// topParked returns the worker the next single-worker run will lease.
func topParked(t *testing.T) *trialWorker {
	t.Helper()
	parked.mu.Lock()
	defer parked.mu.Unlock()
	if len(parked.free) == 0 {
		t.Fatal("run returned no worker to the pool")
	}
	return parked.free[len(parked.free)-1]
}

// TestCampaignWorkerPoolRetentionBounded: a parked worker's retained
// memory does not grow with the flood sweeps it has served. After
// each of three identical single-worker flood sweeps, the worker's
// event and delivery freelists hold at most maxPoolNodes nodes, and
// the live heap after the third sweep is within 1 MB of the live heap
// after the first — a pool that bounds node counts but keeps
// burst-sized bucket arrays grows by megabytes per sweep.
func TestCampaignWorkerPoolRetentionBounded(t *testing.T) {
	cfg := floodConfig(1)
	var live [3]uint64
	for run := range live {
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 8 {
			t.Fatalf("flood sweep planned %d cells, want 8", len(res))
		}
		w := topParked(t)
		if got := w.events.Retained(); got > maxPoolNodes {
			t.Errorf("run %d: parked worker keeps %d event nodes, bound %d", run+1, got, maxPoolNodes)
		}
		if got := w.deliv.Retained(); got > maxPoolNodes {
			t.Errorf("run %d: parked worker keeps %d delivery nodes, bound %d", run+1, got, maxPoolNodes)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		live[run] = ms.HeapAlloc
	}
	if growth := int64(live[2]) - int64(live[0]); growth > 1<<20 {
		t.Fatalf("live heap grew %.1f MB from sweep 1 to sweep 3 (%d -> %d bytes), bound 1 MB",
			float64(growth)/(1<<20), live[0], live[2])
	}
}

// TestCampaignWorkerReuseInvisible: worker reuse is an allocator
// optimisation, never an observable. A sweep on freshly made workers
// and the same sweep on pooled workers — warmed in between by flood
// cells that leave them burst-sized scratch, or leased by concurrent
// runs at once — encode to identical bytes.
func TestCampaignWorkerReuseInvisible(t *testing.T) {
	cfg := Config{
		Exec: measure.Config{Seed: 11, Parallelism: 2},
		Filter: Filter{
			Methods: []string{"hijack"}, Victims: []string{"web", "smtp"},
			Profiles: []string{"bind", "dnsmasq"}, ChainDepths: []string{"0"},
			Placements: []string{"stub"},
		},
		Trials:      2,
		LatticeRank: 1,
	}
	sweep := func(cfg Config) []byte {
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		doc, err := json.Marshal(res)
		if err != nil {
			t.Error(err)
		}
		return doc
	}

	// Set the parked workers aside so the reference run makes fresh ones.
	parked.mu.Lock()
	saved := parked.free
	parked.free = nil
	parked.mu.Unlock()
	defer func() {
		parked.mu.Lock()
		parked.free = append(parked.free, saved...)
		parked.mu.Unlock()
	}()
	fresh := sweep(cfg)

	flood := floodConfig(2)
	flood.Filter.Methods = []string{"saddns"}
	flood.Filter.ChainDepths = []string{"1"}
	flood.Trials = 1
	for run := 1; run <= 3; run++ {
		sweep(flood)
		if got := sweep(cfg); !bytes.Equal(got, fresh) {
			t.Fatalf("sweep %d on pooled workers diverges from the fresh-worker sweep", run)
		}
	}

	var wg sync.WaitGroup
	for run := 1; run <= 3; run++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := sweep(cfg); !bytes.Equal(got, fresh) {
				t.Errorf("concurrent sweep %d diverges from the fresh-worker sweep", run)
			}
		}()
	}
	wg.Wait()
}
