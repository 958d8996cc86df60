package campaign_test

import (
	"context"
	"reflect"
	"testing"

	"crosslayer/internal/apps"
	"crosslayer/internal/campaign"
	"crosslayer/internal/measure"
)

func TestCellPlanFullProductAndOrder(t *testing.T) {
	cells, err := campaign.CellsAtRank(campaign.Filter{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := len(campaign.Methods()) * len(apps.Victims()) * len(campaign.Profiles()) *
		len(campaign.DefaultDefenseSets()) * len(campaign.ChainDepths()) * len(campaign.Placements()) *
		len(campaign.Transports())
	if len(cells) != want {
		t.Fatalf("full product has %d cells, want %d", len(cells), want)
	}
	// Deterministic order: transports vary fastest, methods slowest.
	if cells[0].Key() != "hijack/radius/bind/none/0/stub/udp" {
		t.Fatalf("first cell %q", cells[0].Key())
	}
	if cells[1].Transport.Key == cells[0].Transport.Key {
		t.Fatal("transport dimension does not vary fastest")
	}
	if cells[1].Placement.Key != cells[0].Placement.Key {
		t.Fatal("placement must vary slower than transport")
	}
	if cells[1].Depth.Key != cells[0].Depth.Key {
		t.Fatal("chain depth must vary slower than placement")
	}
	seen := map[string]bool{}
	for _, c := range cells {
		k := c.Key()
		if seen[k] {
			t.Fatalf("duplicate cell %q", k)
		}
		seen[k] = true
	}
}

func TestCellFilterSelectsAndRejects(t *testing.T) {
	cells, err := campaign.CellsAtRank(campaign.Filter{
		Methods: []string{"FRAG"}, Victims: []string{" web "},
		Profiles: []string{"bind", "dnsmasq"}, Defenses: []string{"none"},
		ChainDepths: []string{"0"}, Placements: []string{"stub"},
		Transports: []string{"udp"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("filtered plan has %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Method.Key != "frag" || c.Victim.Key != "web" || c.Defenses.Key != "none" ||
			c.Depth.Key != "0" || c.Placement.Key != "stub" {
			t.Fatalf("stray cell %q", c.Key())
		}
	}
	if _, err := campaign.CellsAtRank(campaign.Filter{Victims: []string{"nosuch"}}, 0); err == nil {
		t.Fatal("unknown victim key accepted")
	}
	if _, err := campaign.CellsAtRank(campaign.Filter{Methods: []string{"hijack", "typo"}}, 0); err == nil {
		t.Fatal("unknown method key accepted")
	}
	if _, err := campaign.CellsAtRank(campaign.Filter{ChainDepths: []string{"9"}}, 0); err == nil {
		t.Fatal("unknown chain depth accepted")
	}
	if _, err := campaign.CellsAtRank(campaign.Filter{Placements: []string{"satellite"}}, 0); err == nil {
		t.Fatal("unknown placement accepted")
	}
	if _, err := campaign.CellsAtRank(campaign.Filter{Transports: []string{"quic"}}, 0); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestCampaignByteIdenticalAcrossParallelism is the acceptance
// contract end-to-end: the same (Seed, Trials, Filter) must render a
// byte-identical matrix — and identical raw cell results — for any
// worker count.
func TestCampaignByteIdenticalAcrossParallelism(t *testing.T) {
	base := campaign.Config{
		Exec: measure.Config{Seed: 11, Parallelism: 1},
		Filter: campaign.Filter{
			Methods:     []string{"hijack", "frag"},
			Victims:     []string{"web", "ocsp"},
			Profiles:    []string{"bind", "dnsmasq"},
			ChainDepths: []string{"1"},
			Placements:  []string{"carrier"},
			Transports:  []string{"udp", "dot"},
		},
		Trials:      2,
		LatticeRank: 1,
	}
	refRes, err := campaign.RunContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	ref := campaign.Matrix(refRes).String()
	if ref == "" {
		t.Fatal("empty reference matrix")
	}
	for _, p := range []int{2, 8} {
		cfg := base
		cfg.Exec.Parallelism = p
		res, err := campaign.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := campaign.Matrix(res).String(); got != ref {
			t.Fatalf("parallelism %d changed matrix bytes:\n--- p=1\n%s\n--- p=%d\n%s", p, ref, p, got)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Fatalf("parallelism %d changed raw cell results", p)
		}
	}
}

// TestCampaignFilterStability pins the identity-seeding property: a
// filtered sweep must reproduce exactly the numbers of a broader
// sweep for the cells they share — filtering never renumbers, so it
// never reseeds. The chain-depth and placement axes are part of the
// identity, so a depth/placement-filtered sweep reproduces full-sweep
// cells the same way.
func TestCampaignFilterStability(t *testing.T) {
	broad, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 12},
		Filter: campaign.Filter{Methods: []string{"hijack"},
			Victims: []string{"web", "ntp"}, Profiles: []string{"bind"},
			ChainDepths: []string{"0", "2"}, Transports: []string{"udp", "dot", "mixed"}},
		Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 12},
		Filter: campaign.Filter{Methods: []string{"hijack"},
			Victims: []string{"ntp"}, Profiles: []string{"bind"}, Defenses: []string{"none", "dnssec"},
			ChainDepths: []string{"2"}, Placements: []string{"carrier"},
			Transports: []string{"dot"}},
		Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cellKey := func(r campaign.CellResult) string {
		return r.Method + "/" + r.Victim + "/" + r.Profile + "/" + r.Defense + "/" + r.Depth + "/" + r.Placement + "/" + r.Transport
	}
	byKey := map[string]campaign.CellResult{}
	for _, r := range broad {
		byKey[cellKey(r)] = r
	}
	for _, r := range narrow {
		b, ok := byKey[cellKey(r)]
		if !ok {
			t.Fatalf("narrow cell %s missing from broad sweep", cellKey(r))
		}
		if !reflect.DeepEqual(r, b) {
			t.Fatalf("filtering changed cell %s:\n%+v\n%+v", cellKey(r), r, b)
		}
	}
}

// TestCampaignDefenseStory pins the matrix semantics on one victim ×
// profile column: each §6 defense stops exactly the methods the paper
// says it stops.
func TestCampaignDefenseStory(t *testing.T) {
	res, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 1},
		Filter: campaign.Filter{Victims: []string{"web"}, Profiles: []string{"bind"},
			ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports: []string{"udp"}},
		Trials:      2,
		LatticeRank: 1, // the historical scalar axis this test pins
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := map[string]float64{}
	for _, r := range res {
		rate[r.Method+"/"+r.Defense] = r.Poisoned.Frac()
	}
	want := map[string]bool{ // does the method still poison under the defense?
		"hijack/none": true, "hijack/dnssec": false, "hijack/0x20": true, "hijack/no-rrl": true, "hijack/shuffle": true,
		"saddns/none": true, "saddns/dnssec": false, "saddns/0x20": false, "saddns/no-rrl": false, "saddns/shuffle": true,
		"frag/none": true, "frag/dnssec": false, "frag/0x20": true, "frag/no-rrl": true, "frag/shuffle": false,
	}
	for k, poisons := range want {
		got, ok := rate[k]
		if !ok {
			t.Fatalf("cell %s missing", k)
		}
		if poisons && got == 0 {
			t.Errorf("%s: method should still poison, rate 0", k)
		}
		if !poisons && got > 0 {
			t.Errorf("%s: defense should stop the method, rate %.0f%%", k, got*100)
		}
	}
	// Impact must track poisoning: a poisoned web cell yields the
	// Table 1 hijack outcome, a defended one does not.
	for _, r := range res {
		if r.Impact.Hits > r.Poisoned.Hits {
			t.Errorf("%s/%s: impact (%d) exceeds poisoned (%d)", r.Method, r.Defense, r.Impact.Hits, r.Poisoned.Hits)
		}
	}
}

// TestCampaignTrialsCappedBySampleCap: the measure.Config SampleCap
// bounds the per-cell sample like it bounds every other population.
func TestCampaignTrialsCappedBySampleCap(t *testing.T) {
	res, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 3, SampleCap: 1},
		Filter: campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, Defenses: []string{"none"},
			ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports: []string{"udp"}},
		Trials: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Trials != 1 || res[0].Poisoned.Total != 1 {
		t.Fatalf("SampleCap did not cap trials: %+v", res)
	}
}

// TestCampaignVictimsMapToTable1 closes the registry ↔ Table 1 loop:
// every campaign victim reenacts a demonstration named by a Table 1
// row (the reverse direction — DemoNames naming real test functions —
// lives in internal/measure's consistency test).
func TestCampaignVictimsMapToTable1(t *testing.T) {
	demos := map[string]bool{}
	for _, row := range measure.Table1Rows() {
		demos[row.DemoName] = true
	}
	for _, v := range apps.Victims() {
		if !demos[v.DemoName] {
			t.Errorf("victim %q demo %q not named by any Table 1 row", v.Key, v.DemoName)
		}
	}
}

func TestCampaignProgressEvents(t *testing.T) {
	var events []measure.ProgressEvent
	_, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 4, Parallelism: 1,
			Progress: func(ev measure.ProgressEvent) { events = append(events, ev) }},
		Filter: campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web", "ntp"},
			Profiles: []string{"bind"}, Defenses: []string{"none", "0x20"},
			ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports: []string{"udp"}},
		Trials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("%d progress events, want 4 (one per cell)", len(events))
	}
	last := events[len(events)-1]
	if last.Dataset != "campaign" || last.DoneShards != 4 || last.TotalShards != 4 || last.Items != 4 {
		t.Fatalf("final event %+v", last)
	}
}

// TestCellFilterRejectsWhitespaceOnly: a filter dimension whose every
// key trims away must error, not silently plan zero cells.
func TestCellFilterRejectsWhitespaceOnly(t *testing.T) {
	if _, err := campaign.CellsAtRank(campaign.Filter{Victims: []string{" ", ""}}, 0); err == nil {
		t.Fatal("whitespace-only filter accepted")
	}
}

// TestCampaignChainStory pins the §4.3 result the chain axis exists
// for: resolver-side defenses protect the direct path (depth 0) but
// not a forwarder chain — SadDNS retargets the weakest hop, whose
// forwarder neither 0x20-encodes nor validates, and the per-hop cache
// serves the injected record to the client.
func TestCampaignChainStory(t *testing.T) {
	res, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 7},
		Filter: campaign.Filter{Methods: []string{"saddns"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, Defenses: []string{"none", "0x20", "dnssec"},
			ChainDepths: []string{"0", "1"}, Placements: []string{"stub"},
			Transports: []string{"udp"}},
		Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := map[string]float64{}
	for _, r := range res {
		rate[r.Defense+"/"+r.Depth] = r.Poisoned.Frac()
	}
	if rate["none/0"] == 0 {
		t.Error("saddns must poison the undefended direct path")
	}
	if rate["0x20/0"] > 0 || rate["dnssec/0"] > 0 {
		t.Errorf("resolver-side defenses must stop saddns at depth 0: 0x20=%.0f%% dnssec=%.0f%%",
			rate["0x20/0"]*100, rate["dnssec/0"]*100)
	}
	if rate["0x20/1"] == 0 || rate["dnssec/1"] == 0 {
		t.Errorf("a forwarder chain must bypass resolver-side defenses: 0x20=%.0f%% dnssec=%.0f%%",
			rate["0x20/1"]*100, rate["dnssec/1"]*100)
	}
	// Impact must ride along: the poisoned chain serves the client, so
	// the application-level outcome tracks the chain ground truth.
	for _, r := range res {
		if r.Depth == "1" && r.Impact.Hits != r.Poisoned.Hits {
			t.Errorf("depth-1 %s: impact %d != poisoned %d", r.Defense, r.Impact.Hits, r.Poisoned.Hits)
		}
	}
}

// TestCampaignChainDepthByteIdenticalAcrossParallelism is the
// chain-axis acceptance contract: a sweep over every depth and both
// placements renders byte-identical matrices — and depth tables — for
// any worker count.
func TestCampaignChainDepthByteIdenticalAcrossParallelism(t *testing.T) {
	base := campaign.Config{
		Exec: measure.Config{Seed: 21, Parallelism: 1},
		Filter: campaign.Filter{Methods: []string{"saddns"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, Defenses: []string{"none", "0x20"},
			Transports: []string{"udp"}},
		Trials: 2,
	}
	refRes, err := campaign.RunContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRes) != len(campaign.ChainDepths())*len(campaign.Placements())*2 {
		t.Fatalf("unexpected cell count %d", len(refRes))
	}
	refMatrix := campaign.Matrix(refRes).String()
	refDepth := campaign.DepthTable(refRes).String()
	for _, p := range []int{3, 8} {
		cfg := base
		cfg.Exec.Parallelism = p
		res, err := campaign.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := campaign.Matrix(res).String(); got != refMatrix {
			t.Fatalf("parallelism %d changed chain matrix bytes:\n--- p=1\n%s\n--- p=%d\n%s", p, refMatrix, p, got)
		}
		if got := campaign.DepthTable(res).String(); got != refDepth {
			t.Fatalf("parallelism %d changed depth table bytes", p)
		}
	}
}
