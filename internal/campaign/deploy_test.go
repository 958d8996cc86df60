package campaign

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"crosslayer/internal/deploy"
	"crosslayer/internal/measure"
)

// deployFilter is the shared small sweep the deployment-axis tests
// run: one cell per dataset, cheap method, no chain.
func deployFilter(datasets ...string) Filter {
	return Filter{
		Methods: []string{"hijack"}, Victims: []string{"web"},
		Profiles: []string{"bind"}, Defenses: []string{"none"},
		ChainDepths: []string{"1"}, Placements: []string{"stub"},
		Transports: []string{"udp"}, Deployments: datasets,
	}
}

// TestCampaignDeployDefaultCanonical pins the axis's compatibility
// contract: an empty Deployments filter plans the canonical dataset
// ONLY (not the full axis, unlike every other dimension), and a
// canonical cell's identity key carries no deployment suffix — so
// every pre-axis sweep, cache key and checkpoint stays byte-identical.
func TestCampaignDeployDefaultCanonical(t *testing.T) {
	def, err := CellsAtRank(deployFilter(), 0)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := CellsAtRank(deployFilter(deploy.CanonicalKey), 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(cells []Cell) []string {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = c.Key()
		}
		return out
	}
	if !reflect.DeepEqual(keys(def), keys(explicit)) {
		t.Fatalf("empty Deployments filter must plan exactly the canonical dataset: %v vs %v",
			keys(def), keys(explicit))
	}
	if len(def) != 1 {
		t.Fatalf("expected 1 cell, got %d", len(def))
	}
	key := def[0].Key()
	if strings.Contains(key, deploy.CanonicalKey) {
		t.Fatalf("canonical cell key %q must not carry a deployment suffix", key)
	}
	all, err := CellsAtRank(deployFilter("canonical", "measured", "hardened"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("expected 3 cells over the full deployment axis, got %d", len(all))
	}
	if all[0].Key() != key {
		t.Fatalf("canonical cell identity changed inside a deployment sweep: %q vs %q", all[0].Key(), key)
	}
	for _, c := range all[1:] {
		if !strings.HasSuffix(c.Key(), "/"+c.Deployment.Key) {
			t.Fatalf("sampled cell key %q must end in its dataset key %q", c.Key(), c.Deployment.Key)
		}
	}
}

// TestCampaignDeployUnknownKey pins the selected() error contract on
// the new axis: an unknown dataset key fails the plan, naming the
// dimension and listing every valid registry key.
func TestCampaignDeployUnknownKey(t *testing.T) {
	_, err := CellsAtRank(deployFilter("nosuch"), 0)
	if err == nil {
		t.Fatal("unknown deployment key accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deployment") {
		t.Errorf("error %q must name the deployment dimension", msg)
	}
	for _, want := range []string{"canonical", "measured", "hardened"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q must list valid key %q", msg, want)
		}
	}
}

// TestCampaignDeployByteIdenticalAcrossParallelism is the eighth-axis
// acceptance contract: a sweep over all three deployment datasets
// renders byte-identical matrices — and deploy tables — at any worker
// count, and a filtered sweep reproduces the full sweep's cells
// exactly (identity-derived sampling: dropping siblings never reseeds
// a surviving cell's trial populations).
func TestCampaignDeployByteIdenticalAcrossParallelism(t *testing.T) {
	base := Config{
		Exec:   measure.Config{Seed: 29, Parallelism: 1},
		Filter: deployFilter("canonical", "measured", "hardened"),
		Trials: 3,
	}
	ref, err := RunContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	refMatrix := Matrix(ref).String()
	refDeploy := DeployTable(ref).String()
	for _, p := range []int{3, 8} {
		cfg := base
		cfg.Exec.Parallelism = p
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := Matrix(res).String(); got != refMatrix {
			t.Fatalf("parallelism %d changed deploy matrix bytes:\n--- p=1\n%s\n--- p=%d\n%s", p, refMatrix, p, got)
		}
		if got := DeployTable(res).String(); got != refDeploy {
			t.Fatalf("parallelism %d changed deploy table bytes", p)
		}
	}
	filtered := base
	filtered.Filter.Deployments = []string{"measured"}
	sub, err := RunContext(context.Background(), filtered)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 {
		t.Fatalf("filtered sweep planned %d cells, want 1", len(sub))
	}
	var full *CellResult
	for i := range ref {
		if ref[i].Deployment == "measured" {
			full = &ref[i]
		}
	}
	if full == nil {
		t.Fatal("full sweep has no measured cell")
	}
	if !reflect.DeepEqual(sub[0], *full) {
		t.Fatalf("filtered measured cell diverges from full sweep:\nfiltered: %+v\nfull: %+v", sub[0], *full)
	}
}

// TestCampaignDeployRatesDiffer pins that sampling actually reaches
// the trial worlds: under the measured dataset some trials draw egress
// filtering (SAV) onto ASes the attack needs to spoof through, so the
// per-cell poisoning counts differ from the canonical world's — the
// whole point of replacing a binary toggle with a measured rate.
func TestCampaignDeployRatesDiffer(t *testing.T) {
	res, err := RunContext(context.Background(), Config{
		Exec: measure.Config{Seed: 3},
		Filter: Filter{
			Methods: []string{"saddns"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, Defenses: []string{"none"},
			ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports:  []string{"udp"},
			Deployments: []string{"canonical", "measured"},
		},
		Trials: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := map[string]float64{}
	for _, r := range res {
		rate[deploymentOf(r)] = r.Poisoned.Frac()
	}
	if rate["canonical"] == 0 {
		t.Fatal("saddns must poison the undefended canonical world")
	}
	if rate["measured"] >= rate["canonical"] {
		t.Errorf("measured SAV deployment must block some spoofed trials: measured %.0f%% >= canonical %.0f%%",
			rate["measured"]*100, rate["canonical"]*100)
	}
}

// TestDeployTableRendersCI checks the report surface: the deploy
// section renders one ratio-ci column per dataset present, each cell
// in the Wilson pct±half-width form.
func TestDeployTableRendersCI(t *testing.T) {
	res, err := RunContext(context.Background(), Config{
		Exec:   measure.Config{Seed: 29},
		Filter: deployFilter("canonical", "measured"),
		Trials: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := DeployTable(res).String()
	for _, want := range []string{"canonical", "measured", "±", "hijack"} {
		if !strings.Contains(out, want) {
			t.Errorf("deploy table missing %q:\n%s", want, out)
		}
	}
}
