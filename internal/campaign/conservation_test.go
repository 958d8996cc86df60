package campaign

import (
	"testing"

	"crosslayer/internal/engine"
	"crosslayer/internal/scenario"
)

// TestPacketConservationPerTrial checks netsim's packet-conservation
// invariant after every trial of a small sweep over the three attack
// methods, chain depths 0 and 1, and the canonical and measured
// deployments (measured samples the attacker AS's source-address
// validation, so egress drops occur): once the trial's clock is quiet,
// every packet offered to the network was delivered or dropped. Trials
// run on runCell's lifecycle — trial 0 on the fresh build, later
// trials on a Reset world.
func TestPacketConservationPerTrial(t *testing.T) {
	const seed, trials = 5, 2
	cells, err := CellsAtRank(Filter{
		Methods:     []string{"hijack", "saddns", "frag"},
		Victims:     []string{"web"},
		Profiles:    []string{"bind"},
		DefenseSets: []string{"none"},
		ChainDepths: []string{"0", "1"},
		Placements:  []string{"stub"},
		Transports:  []string{"udp"},
		Deployments: []string{"canonical", "measured"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("%d cells, want 12", len(cells))
	}
	var w trialWorker
	var dropped uint64
	for _, c := range cells {
		cellSeed := engine.DeriveSeedKey(seed, c.Key())
		scfg := w.cellConfig(c)
		scfg.Proto = &w.proto
		scfg.Seed = engine.DeriveSeed(cellSeed, 0)
		s := scenario.New(scfg)
		s.Snapshot()
		for trial := 0; trial < trials; trial++ {
			if trial > 0 {
				s.Reset(engine.DeriveSeed(cellSeed, trial))
			}
			runTrial(s, c, false)
			n := s.Net
			if p := n.Clock.Pending(); p != 0 {
				t.Fatalf("%s trial %d: %d events pending after the trial", c.Key(), trial, p)
			}
			if n.Offered != n.Delivered+n.Dropped {
				t.Fatalf("%s trial %d: offered %d != delivered %d + dropped %d",
					c.Key(), trial, n.Offered, n.Delivered, n.Dropped)
			}
			if n.Offered == 0 {
				t.Fatalf("%s trial %d: no packets offered", c.Key(), trial)
			}
			dropped += n.Dropped
		}
	}
	if dropped == 0 {
		t.Fatal("no trial dropped a packet: the sweep exercises no drop path")
	}
}
