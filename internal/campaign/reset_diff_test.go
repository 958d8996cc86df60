package campaign

import (
	"context"
	"reflect"
	"testing"

	"crosslayer/internal/measure"
)

// The differential suite below is the correctness contract of the
// world-prototype lifecycle: build-once/Reset-per-trial must produce
// results byte-identical to the legacy build-a-world-per-trial path,
// across every campaign axis and at any parallelism. forceFreshBuild
// is the internal lever that reruns a sweep on the legacy lifecycle.

// runBoth executes the same sweep on both lifecycles and fails the
// test on any difference in the raw cell results.
func runBoth(t *testing.T, cfg Config) []CellResult {
	t.Helper()
	reset, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.forceFreshBuild = true
	fresh, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reset, fresh) {
		for i := range reset {
			if !reflect.DeepEqual(reset[i], fresh[i]) {
				t.Fatalf("reset lifecycle diverges from fresh builds at cell %d:\nreset: %+v\nfresh: %+v",
					i, reset[i], fresh[i])
			}
		}
		t.Fatal("reset lifecycle diverges from fresh builds")
	}
	return reset
}

// TestResetDifferentialAllAxes sweeps every one of the eight axes with
// at least two values (methods, victims, profiles, defense sets, chain
// depths, placements, transports, deployments) using the cheap hijack
// method for the broad product, and checks reset-reuse against fresh
// builds. The deployment axis is the sharpest Reset probe here: a
// sampled dataset overwrites AS egress filtering, resolver defense
// flags and forwarder port spans per trial, so Snapshot/Reset must
// rewind every one of those before the next trial resamples them.
func TestResetDifferentialAllAxes(t *testing.T) {
	runBoth(t, Config{
		Exec: measure.Config{Seed: 31, Parallelism: 2},
		Filter: Filter{
			Methods:     []string{"hijack"},
			Victims:     []string{"web", "ocsp"},
			Profiles:    []string{"bind", "dnsmasq"},
			DefenseSets: []string{"none", "0x20+shuffle"},
			ChainDepths: []string{"0", "1"},
			Placements:  []string{"stub", "carrier"},
			Transports:  []string{"udp", "dot"},
			Deployments: []string{"canonical", "measured"},
		},
		Trials: 2,
	})
}

// TestResetDifferentialMethodsDeep covers the two expensive methods —
// the SadDNS side-channel scan and FragDNS (the heaviest users of
// clock RNG, ICMP buckets, defrag caches and PMTU state) — plus the
// downgrade condition on an opportunistic transport.
func TestResetDifferentialMethodsDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive differential sweep")
	}
	base := Config{
		Exec: measure.Config{Seed: 7, Parallelism: 2},
		Filter: Filter{
			Methods:     []string{"saddns", "frag"},
			Victims:     []string{"web"},
			Profiles:    []string{"bind"},
			DefenseSets: []string{"none"},
			ChainDepths: []string{"0", "1"},
			Placements:  []string{"stub"},
			Transports:  []string{"udp"},
		},
		Trials: 2,
	}
	runBoth(t, base)

	dg := base
	dg.Filter.Methods = []string{"saddns"}
	dg.Filter.ChainDepths = []string{"1"}
	dg.Filter.Transports = []string{"opp"}
	dg.Downgrade = true
	runBoth(t, dg)
}

// TestResetDifferentialAcrossParallelism pins that the reset lifecycle
// is schedule-independent: the same sweep at parallelism 1, 3 and 8
// must reproduce the fresh-build reference exactly. Worker pools and
// memoized prototypes are per-goroutine, so cells landing on different
// workers must not be able to change anything.
func TestResetDifferentialAcrossParallelism(t *testing.T) {
	base := Config{
		Exec: measure.Config{Seed: 19, Parallelism: 1},
		Filter: Filter{
			Methods:     []string{"hijack", "frag"},
			Victims:     []string{"web"},
			Profiles:    []string{"bind", "unbound"},
			DefenseSets: []string{"none", "dnssec"},
			ChainDepths: []string{"0", "2"},
			Placements:  []string{"stub", "carrier"},
			Transports:  []string{"udp"},
		},
		Trials: 3,
	}
	fresh := base
	fresh.forceFreshBuild = true
	ref, err := RunContext(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 8} {
		cfg := base
		cfg.Exec.Parallelism = p
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("reset lifecycle at parallelism %d diverges from fresh-build reference", p)
		}
	}
}
