package crosslayer_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"crosslayer"
	"crosslayer/internal/apps"
	"crosslayer/internal/scenario"
)

func TestFacadeHijack(t *testing.T) {
	s := crosslayer.NewScenario(crosslayer.Config{Seed: 1})
	res := s.HijackDNS("www.vict.im.").Run(s.Trigger("www.vict.im."))
	if !res.Success || !crosslayer.Poisoned(s, "www.vict.im.") {
		t.Fatalf("facade hijack: %+v", res)
	}
}

func TestFacadeSadDNS(t *testing.T) {
	cfg := crosslayer.Config{Seed: 2}
	scenario.OpenSadDNS(&cfg)
	s := crosslayer.NewScenario(cfg)
	res := s.SadDNS("www.vict.im.", crosslayer.Effort{Ports: 400, MaxIterations: 20}).Run(s.Trigger("www.vict.im."))
	if !res.Success || !crosslayer.Poisoned(s, "www.vict.im.") {
		t.Fatalf("facade saddns: %+v", res)
	}
}

// fragEffort is the FragDNS effort the facade tests and benchmarks run
// with: 64 consecutive IP-ID guesses per trigger, at most 8 triggers.
var fragEffort = crosslayer.Effort{IPIDGuesses: 64, MaxIterations: 8}

func TestFacadeFragDNS(t *testing.T) {
	cfg := crosslayer.Config{Seed: 3}
	scenario.OpenFragDNS(&cfg)
	s := crosslayer.NewScenario(cfg)
	res := s.FragDNS("www.vict.im.", fragEffort).Run(s.Trigger("www.vict.im."))
	if !res.Success || !crosslayer.Poisoned(s, "www.vict.im.") {
		t.Fatalf("facade fragdns: %+v", res)
	}
}

// TestFullCrossLayerChain is the end-to-end integration test: FragDNS
// poisons the cache, then the victim's web client is silently served
// by the attacker — the complete cross-layer story in one test.
func TestFullCrossLayerChain(t *testing.T) {
	cfg := crosslayer.Config{Seed: 4}
	scenario.OpenFragDNS(&cfg)
	s := crosslayer.NewScenario(cfg)
	apps.NewWebServer(s.WWWHost, apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA}).Pages["/"] = "genuine"
	apps.NewWebServer(s.Attacker, apps.SelfSigned("www.vict.im.")).Pages["/"] = "evil"

	res := s.FragDNS("www.vict.im.", fragEffort).Run(s.Trigger("www.vict.im."))
	if !res.Success {
		t.Fatalf("attack failed: %+v", res)
	}
	wc := &apps.WebClient{Host: s.ClientHost, ResolverAddr: scenario.ResolverIP}
	var body string
	wc.Get("www.vict.im.", "/", func(r apps.FetchResult) { body = r.Body })
	s.Run()
	if body != "evil" {
		t.Fatalf("victim fetched %q, want the attacker's page", body)
	}
}

// TestRegistryListsEveryArtifact pins the registry surface: every
// artifact previously reachable through the facade's func-struct —
// and every golden text artifact's source experiment — has a registry
// entry, in canonical artifact order.
func TestRegistryListsEveryArtifact(t *testing.T) {
	var names []string
	for _, e := range crosslayer.ListExperiments() {
		if e.Title == "" {
			t.Errorf("experiment %q has no title", e.Name)
		}
		names = append(names, e.Name)
	}
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"fig3", "fig4", "fig5", "samehijack", "forwarders", "campaign"}
	if len(names) != len(want) {
		t.Fatalf("registry lists %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registry order %v, want %v", names, want)
		}
	}
}

func TestRunExperimentFacade(t *testing.T) {
	rep, err := crosslayer.Run("table5", crosslayer.ExperimentSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "table5" || rep.String() == "" {
		t.Fatalf("table5 report: %q", rep.Name)
	}
	// Unknown names fail listing the valid registry keys.
	_, err = crosslayer.Run("table9", crosslayer.ExperimentSpec{})
	if err == nil || !strings.Contains(err.Error(), "table9") || !strings.Contains(err.Error(), "valid:") ||
		!strings.Contains(err.Error(), "campaign") {
		t.Fatalf("unknown-experiment error %v must list valid keys", err)
	}
}

// TestRunFacadeParallel exercises a sharded table through the public
// registry with explicit parallelism and progress reporting, and
// checks the JSON projection round-trips to the same text.
func TestRunFacadeParallel(t *testing.T) {
	events := 0
	spec := crosslayer.ExperimentSpec{
		SampleCap:   60,
		Seed:        2,
		Parallelism: 4,
		ShardSize:   16,
		Progress:    func(crosslayer.ExperimentProgress) { events++ },
	}
	rep, err := crosslayer.Run("table3", spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" {
		t.Fatal("empty table")
	}
	if events == 0 {
		t.Fatal("no progress events")
	}
	data, err := crosslayer.RenderReport(rep, "json")
	if err != nil {
		t.Fatal(err)
	}
	back, err := crosslayer.DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != rep.String() {
		t.Fatal("JSON round-trip changed the text rendering")
	}
}

// TestRunFacadeCancellation: a cancelled context aborts a sweep with
// its error instead of a partial result.
func TestRunFacadeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := crosslayer.RunContext(ctx, "table3", crosslayer.ExperimentSpec{SampleCap: 50, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCampaignFacade exercises the campaign sweep through the public
// facade: filtered cross-product via the registry, cells-level
// composition, and filter validation with propagated errors.
func TestCampaignFacade(t *testing.T) {
	spec := crosslayer.ExperimentSpec{
		Seed:    5,
		Methods: []string{"hijack"}, Victims: []string{"web", "vpn"},
		Profiles: []string{"bind"}, ChainDepths: []string{"0", "1"},
		Placements: []string{"stub"}, Transports: []string{"udp"},
		Trials:      2,
		LatticeRank: 1, // scalar defense axis: 5 singleton sets
	}
	rep, err := crosslayer.Run("campaign", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []string{"matrix", "summary", "depth", "transport", "lattice-sets", "lattice-marginal"} {
		if rep.Section(sec) == nil {
			t.Fatalf("campaign report missing section %q", sec)
		}
	}
	if len(rep.Section("matrix").Rows) != 20 { // 1 method × 2 victims × 1 profile × 5 defense sets × 2 depths × 1 placement
		t.Fatalf("campaign matrix: %d rows", len(rep.Section("matrix").Rows))
	}

	// Cells-level composition matches the registry report's sections.
	cfg := crosslayer.CampaignConfig{
		Exec: crosslayer.ExperimentConfig{Seed: 5},
		Filter: crosslayer.CampaignFilter{
			Methods: spec.Methods, Victims: spec.Victims, Profiles: spec.Profiles,
			ChainDepths: spec.ChainDepths, Placements: spec.Placements,
			Transports: spec.Transports,
		},
		Trials:      2,
		LatticeRank: 1,
	}
	cells, err := crosslayer.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 20 {
		t.Fatalf("campaign cells: %d", len(cells))
	}
	want, err := crosslayer.RenderReport(rep, "json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := crosslayer.RenderReport(crosslayer.CampaignReport(cells, spec), "json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("cells-level campaign report diverged from the registry report")
	}

	// Filter validation errors propagate through the registry path —
	// the historical facade swallowed nothing here either, but now the
	// uniform Run signature carries them for every experiment.
	bad := spec
	bad.Defenses = []string{"bogus"}
	if _, err := crosslayer.Run("campaign", bad); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown defense key: %v", err)
	}
	bad = spec
	bad.DefenseSets = []string{"shuffle+bogus"}
	if _, err := crosslayer.Run("campaign", bad); err == nil {
		t.Fatal("unknown defense-set key accepted")
	}
	// The defense pipeline is also a public scenario-level API: a
	// stacked config builds a scenario hardened by every spec.
	s := crosslayer.NewScenario(crosslayer.Config{Seed: 5,
		Defenses: []crosslayer.DefenseSpec{crosslayer.Defense0x20(), crosslayer.DefenseDNSSEC()}})
	if !s.Resolver.Prof.Use0x20 || !s.Resolver.Prof.ValidateDNSSEC {
		t.Fatal("facade defense stack did not reach the resolver profile")
	}
}
