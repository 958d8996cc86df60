package crosslayer_test

// Golden-artifact regression suite, in two layers:
//
//   - TestGoldenArtifacts pins every rendered TEXT artifact — Tables
//     1–6, Figures 3–5, the campaign matrix, the forwarder-chain
//     matrix with its depth table, the defense-stacking lattice with
//     its marginal-coverage view, and the encrypted-transport slice
//     with its method × transport table — byte-for-byte against
//     testdata/golden/*.txt at one small fixed execution spec
//     (SampleCap 50, Seed 1). These files predate the structured
//     Report layer: any refactor that changes a single rendered byte
//     fails here first.
//
//   - TestGoldenJSON pins the JSON projection of every REGISTERED
//     experiment against testdata/golden/json/<name>.json, and checks
//     the round-trip contract: decoding the pinned JSON and
//     re-rendering text reproduces the live text bytes.
//
// Regenerate after an INTENDED output change with:
//
//	go test -run TestGolden -update .
//
// and review the golden diff like any other code change.

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"crosslayer"
	"crosslayer/internal/campaign"
	"crosslayer/internal/measure"
	"crosslayer/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files from current output")

// goldenSpec is the fixed execution spec every golden artifact runs
// under. Parallelism is deliberately left at the default: the
// engine's determinism contract makes output independent of it.
// table6 and samehijack keep the historical 400-port SadDNS span; the
// campaign slice keeps the filters of goldenCampaignConfig (all
// methods and scalar defenses against a representative victim ×
// profile corner — dnsmasq included because its small EDNS buffer
// flips the FragDNS column — on the direct path).
func goldenSpec(name string) crosslayer.ExperimentSpec {
	spec := crosslayer.ExperimentSpec{SampleCap: 50, Seed: 1}
	switch name {
	case "table6", "samehijack":
		spec.SadPorts = 400
	case "campaign":
		spec.Victims = []string{"web", "smtp"}
		spec.Profiles = []string{"bind", "dnsmasq"}
		spec.ChainDepths = []string{"0"}
		spec.Placements = []string{"stub"}
		spec.Transports = []string{"udp"}
		spec.Trials = 2
		spec.LatticeRank = 1
	}
	return spec
}

// goldenConfig is goldenSpec's execution core, for the campaign
// slices the suite runs directly at the cells level.
func goldenConfig() measure.Config { return measure.Config{SampleCap: 50, Seed: 1} }

// goldenChainConfig is the forwarder-chain slice: every method at
// every chain depth from both attacker placements, against one victim
// × profile corner, undefended and 0x20-hardened (the defense the
// chain axis bypasses — the §4.3 story the depth table renders).
func goldenChainConfig() campaign.Config {
	return campaign.Config{
		Exec: goldenConfig(),
		Filter: campaign.Filter{
			Victims:    []string{"web"},
			Profiles:   []string{"bind"},
			Defenses:   []string{"none", "0x20"},
			Transports: []string{"udp"},
		},
		Trials: 2,
	}
}

// goldenLatticeConfig is the defense-stacking slice: every method
// against the web victim on BIND over the direct path, swept across
// the default defense-set lattice (baseline, singletons, all pairs,
// full stack) — the composition view campaign_lattice.txt pins.
// Singleton cells are seed-identical to the campaign slice's, so both
// artifacts must agree on the shared cells.
func goldenLatticeConfig() campaign.Config {
	return campaign.Config{
		Exec: goldenConfig(),
		Filter: campaign.Filter{
			Victims:     []string{"web"},
			Profiles:    []string{"bind"},
			ChainDepths: []string{"0"},
			Placements:  []string{"stub"},
			Transports:  []string{"udp"},
		},
		Trials: 2,
	}
}

// goldenTransportConfig is the encrypted-transport slice: every method
// against the web victim on BIND behind one forwarder hop, undefended,
// across the plaintext baseline, two strict encrypted chains, the
// mixed chain (plaintext front hop, encrypted recursive) and the
// opportunistic chain — the threat-surface story campaign_transport.txt
// pins: off-path methods collapse on the encrypted columns and SadDNS
// re-opens on the mixed one.
func goldenTransportConfig() campaign.Config {
	return campaign.Config{
		Exec: goldenConfig(),
		Filter: campaign.Filter{
			Victims:     []string{"web"},
			Profiles:    []string{"bind"},
			Defenses:    []string{"none"},
			ChainDepths: []string{"1"},
			Placements:  []string{"stub"},
			Transports:  []string{"udp", "dot", "doh", "mixed", "opp"},
		},
		Trials: 2,
	}
}

// goldenDeployConfig is the deployment-distribution slice: every
// method against the web victim on BIND over the direct path,
// undefended, under the canonical (unsampled) dataset and both sampled
// populations — the rate-with-CI story campaign_deploy.txt pins: the
// canonical column answers "is this configuration vulnerable", the
// sampled columns "what fraction of a deployed population is".
func goldenDeployConfig() campaign.Config {
	return campaign.Config{
		Exec: goldenConfig(),
		Filter: campaign.Filter{
			Victims:     []string{"web"},
			Profiles:    []string{"bind"},
			Defenses:    []string{"none"},
			ChainDepths: []string{"0"},
			Placements:  []string{"stub"},
			Transports:  []string{"udp"},
			Deployments: []string{"canonical", "measured", "hardened"},
		},
		Trials: 4,
	}
}

// goldenReports runs each registered experiment once under its golden
// spec; the text and JSON layers share the resulting Reports.
var goldenReports = struct {
	mu   sync.Mutex
	runs map[string]func() (*crosslayer.Report, error)
}{runs: map[string]func() (*crosslayer.Report, error){}}

func goldenReport(name string) (*crosslayer.Report, error) {
	goldenReports.mu.Lock()
	run, ok := goldenReports.runs[name]
	if !ok {
		run = sync.OnceValues(func() (*crosslayer.Report, error) {
			return crosslayer.Run(name, goldenSpec(name))
		})
		goldenReports.runs[name] = run
	}
	goldenReports.mu.Unlock()
	return run()
}

// goldenChain / goldenLattice run each cells-level slice once.
var goldenChain = sync.OnceValues(func() ([]campaign.CellResult, error) {
	return campaign.RunContext(context.Background(), goldenChainConfig())
})

var goldenLattice = sync.OnceValues(func() ([]campaign.CellResult, error) {
	return campaign.RunContext(context.Background(), goldenLatticeConfig())
})

var goldenTransport = sync.OnceValues(func() ([]campaign.CellResult, error) {
	return campaign.RunContext(context.Background(), goldenTransportConfig())
})

var goldenDeploy = sync.OnceValues(func() ([]campaign.CellResult, error) {
	return campaign.RunContext(context.Background(), goldenDeployConfig())
})

// compareGolden pins got against the golden file at path, rewriting
// it under -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if len(got) == 0 {
		t.Fatal("artifact rendered empty")
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGolden -update .`): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("output drifted from golden file %s\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// registryReport fetches a shared golden-run Report or fails the test.
func registryReport(t *testing.T, name string) *crosslayer.Report {
	t.Helper()
	rep, err := goldenReport(name)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// registrySection renders one named section of a registry report.
func registrySection(t *testing.T, name, section string) string {
	t.Helper()
	sec := registryReport(t, name).Section(section)
	if sec == nil {
		t.Fatalf("report %q has no section %q", name, section)
	}
	return sec.Text()
}

func TestGoldenArtifacts(t *testing.T) {
	artifacts := []struct {
		name   string
		render func(t *testing.T) string
	}{
		// Whole-report artifacts: for single-section reports the text
		// rendering IS the historical artifact (notes and params are
		// metadata the text renderer omits).
		{"table1", func(t *testing.T) string { return registryReport(t, "table1").String() }},
		{"table2", func(t *testing.T) string { return registryReport(t, "table2").String() }},
		{"table3", func(t *testing.T) string { return registryReport(t, "table3").String() }},
		{"table4", func(t *testing.T) string { return registryReport(t, "table4").String() }},
		{"table5", func(t *testing.T) string { return registryReport(t, "table5").String() }},
		{"table6", func(t *testing.T) string { return registryReport(t, "table6").String() }},
		{"fig3", func(t *testing.T) string { return registryReport(t, "fig3").String() }},
		{"fig4", func(t *testing.T) string { return registryReport(t, "fig4").String() }},
		{"fig5", func(t *testing.T) string { return registryReport(t, "fig5").String() }},
		// Campaign artifacts: the matrix and summary sections of the
		// registry run's Report, and the chain/lattice slices rendered
		// at the cells level.
		{"campaign", func(t *testing.T) string { return registrySection(t, "campaign", "matrix") }},
		{"campaign_summary", func(t *testing.T) string { return registrySection(t, "campaign", "summary") }},
		{"campaign_chain", func(t *testing.T) string {
			res, err := goldenChain()
			if err != nil {
				t.Fatal(err)
			}
			return campaign.Matrix(res).String()
		}},
		{"campaign_depth", func(t *testing.T) string {
			res, err := goldenChain()
			if err != nil {
				t.Fatal(err)
			}
			return campaign.DepthTable(res).String()
		}},
		{"campaign_lattice", func(t *testing.T) string {
			res, err := goldenLattice()
			if err != nil {
				t.Fatal(err)
			}
			return campaign.Lattice(res).String()
		}},
		{"campaign_transport", func(t *testing.T) string {
			res, err := goldenTransport()
			if err != nil {
				t.Fatal(err)
			}
			return campaign.TransportTable(res).String()
		}},
		{"campaign_transport_matrix", func(t *testing.T) string {
			res, err := goldenTransport()
			if err != nil {
				t.Fatal(err)
			}
			return campaign.Matrix(res).String()
		}},
		{"campaign_deploy", func(t *testing.T) string {
			res, err := goldenDeploy()
			if err != nil {
				t.Fatal(err)
			}
			return campaign.DeployTable(res).String()
		}},
	}
	for _, a := range artifacts {
		a := a
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			compareGolden(t, filepath.Join("testdata", "golden", a.name+".txt"), []byte(a.render(t)))
		})
	}
}

// TestGoldenJSON pins the JSON projection of every registered
// experiment and its round-trip: the pinned bytes must decode into a
// Report whose text rendering matches the live run's.
func TestGoldenJSON(t *testing.T) {
	for _, e := range crosslayer.ListExperiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			rep := registryReport(t, e.Name)
			data, err := report.JSON(rep)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "golden", "json", e.Name+".json"), data)

			// Round-trip: the pinned JSON re-renders to the live text.
			pinned, err := os.ReadFile(filepath.Join("testdata", "golden", "json", e.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			back, err := crosslayer.DecodeReport(pinned)
			if err != nil {
				t.Fatal(err)
			}
			if back.String() != rep.String() {
				t.Fatalf("decoded golden JSON re-renders differently for %s", e.Name)
			}
		})
	}
}

// TestGoldenJSONIndependentOfParallelism: the JSON projection — like
// the text one — depends only on the selecting spec fields, never on
// the worker count.
func TestGoldenJSONIndependentOfParallelism(t *testing.T) {
	spec := goldenSpec("campaign")
	spec.Parallelism = 1
	ref, err := crosslayer.RunContext(context.Background(), "campaign", spec)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := report.JSON(ref)
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallelism = 8
	rep, err := crosslayer.RunContext(context.Background(), "campaign", spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(refJSON) {
		t.Fatal("parallelism changed the JSON projection")
	}
}
