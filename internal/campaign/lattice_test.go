package campaign_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"crosslayer/internal/campaign"
	"crosslayer/internal/measure"
	"crosslayer/internal/scenario"
)

// keysOf flattens a lattice into its canonical set keys.
func keysOf(sets []campaign.DefenseSet) []string {
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = s.Key
	}
	return out
}

func TestDefenseSetsLatticeGeneration(t *testing.T) {
	base := scenario.BaseDefenses()

	// Rank 1 reproduces the historical scalar axis, in its order.
	scalar := keysOf(campaign.DefenseSets(base, 1))
	if want := []string{"none", "dnssec", "0x20", "no-rrl", "shuffle"}; !reflect.DeepEqual(scalar, want) {
		t.Fatalf("rank-1 lattice %v, want %v", scalar, want)
	}

	// The default lattice: baseline, singletons, all pairs, full stack.
	def := keysOf(campaign.DefaultDefenseSets())
	want := []string{"none", "dnssec", "0x20", "no-rrl", "shuffle",
		"0x20+dnssec", "dnssec+no-rrl", "dnssec+shuffle", "0x20+no-rrl",
		"0x20+shuffle", "no-rrl+shuffle", "0x20+dnssec+no-rrl+shuffle"}
	if !reflect.DeepEqual(def, want) {
		t.Fatalf("default lattice %v, want %v", def, want)
	}

	// Full rank is the whole power set: 2^4 subsets, no duplicates.
	full := keysOf(campaign.DefenseSets(base, len(base)))
	if len(full) != 16 {
		t.Fatalf("full power set has %d sets, want 16", len(full))
	}
	seen := map[string]bool{}
	for _, k := range full {
		if seen[k] {
			t.Fatalf("duplicate set %q", k)
		}
		seen[k] = true
	}
	// Oversized ranks clamp to the full power set.
	if got := keysOf(campaign.DefenseSets(base, 99)); !reflect.DeepEqual(got, full) {
		t.Fatalf("rank 99 differs from full power set")
	}

	// Set keys are canonical: sorted components, and every set carries
	// the specs that build it.
	for _, s := range campaign.DefaultDefenseSets() {
		if got := campaign.DefenseSetKey(keysOfSpecs(s.Specs)); got != s.Key {
			t.Fatalf("set key %q not canonical (re-canonicalises to %q)", s.Key, got)
		}
		if s.Rank() != len(s.Specs) {
			t.Fatalf("set %q rank %d with %d specs", s.Key, s.Rank(), len(s.Specs))
		}
	}
}

func keysOfSpecs(specs []scenario.DefenseSpec) []string {
	out := make([]string, len(specs))
	for i, d := range specs {
		out[i] = d.Key
	}
	return out
}

func TestDefenseSetKeyCanonicalisation(t *testing.T) {
	cases := map[string][]string{
		"none":         nil,
		"0x20":         {"0x20"},
		"0x20+shuffle": {"shuffle", "0x20"},
		"0x20+dnssec":  {"DNSSEC", " 0x20 ", "dnssec"},
	}
	for want, in := range cases {
		if got := campaign.DefenseSetKey(in); got != want {
			t.Errorf("DefenseSetKey(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestDefenseSetFilterPlansExactSets: the set filter addresses exact
// stacks (any order/case), regardless of lattice rank, in lattice
// enumeration order.
func TestDefenseSetFilterPlansExactSets(t *testing.T) {
	cells, err := campaign.CellsAtRank(campaign.Filter{
		Methods: []string{"hijack"}, Victims: []string{"web"}, Profiles: []string{"bind"},
		DefenseSets: []string{"shuffle+0x20", "NONE", "dnssec+no-rrl+0x20+shuffle"},
		ChainDepths: []string{"0"}, Placements: []string{"stub"},
		Transports: []string{"udp"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cells {
		got = append(got, c.Defenses.Key)
	}
	want := []string{"none", "0x20+shuffle", "0x20+dnssec+no-rrl+shuffle"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planned sets %v, want %v", got, want)
	}
}

// TestDefenseBaseFilterBoundsLattice: the base filter regenerates the
// lattice over the named defenses only; "none" stays accepted (the
// baseline is always part of the lattice).
func TestDefenseBaseFilterBoundsLattice(t *testing.T) {
	cells, err := campaign.CellsAtRank(campaign.Filter{
		Methods: []string{"hijack"}, Victims: []string{"web"}, Profiles: []string{"bind"},
		Defenses:    []string{"none", "0x20", "shuffle"},
		ChainDepths: []string{"0"}, Placements: []string{"stub"},
		Transports: []string{"udp"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cells {
		got = append(got, c.Defenses.Key)
	}
	want := []string{"none", "0x20", "shuffle", "0x20+shuffle"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planned sets %v, want %v", got, want)
	}
	// Only "none": the lattice degenerates to the baseline.
	cells, err = campaign.CellsAtRank(campaign.Filter{
		Methods: []string{"hijack"}, Victims: []string{"web"}, Profiles: []string{"bind"},
		Defenses: []string{"none"}, ChainDepths: []string{"0"}, Placements: []string{"stub"},
		Transports: []string{"udp"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Defenses.Key != "none" {
		t.Fatalf("none-only filter planned %d cells", len(cells))
	}
}

// TestDefenseSetFilterByteIdenticalAcrossParallelism is the tentpole
// acceptance contract: a defense-set-filtered sweep reproduces the
// full default-lattice sweep's cells exactly — identical raw results,
// byte-identical rendering — at parallelism 1 and N, because cell
// seeds derive from the canonical set key, never from sweep position.
func TestDefenseSetFilterByteIdenticalAcrossParallelism(t *testing.T) {
	corner := campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web"},
		Profiles: []string{"bind"}, ChainDepths: []string{"0"}, Placements: []string{"stub"},
		Transports: []string{"udp"}}
	full, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 31, Parallelism: 1}, Filter: corner, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]campaign.CellResult{}
	for _, r := range full {
		byKey[r.Defense] = r
	}
	filter := corner
	filter.DefenseSets = []string{"shuffle+0x20", "none", "dnssec"}
	var ref []campaign.CellResult
	for _, p := range []int{1, 8} {
		res, err := campaign.RunContext(context.Background(), campaign.Config{
			Exec: measure.Config{Seed: 31, Parallelism: p}, Filter: filter, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 3 {
			t.Fatalf("parallelism %d: %d cells, want 3", p, len(res))
		}
		for _, r := range res {
			fullCell, ok := byKey[r.Defense]
			if !ok {
				t.Fatalf("set %q missing from full sweep", r.Defense)
			}
			if !reflect.DeepEqual(r, fullCell) {
				t.Fatalf("parallelism %d: set filter changed cell %q:\n%+v\n%+v", p, r.Defense, r, fullCell)
			}
		}
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(res, ref) {
			t.Fatalf("parallelism %d changed filtered sweep results", p)
		}
	}
}

// TestCampaignStackingStory pins the composition semantics the lattice
// measures: 0x20 stops SadDNS but not FragDNS, answer shuffling stops
// FragDNS but not SadDNS, and the 0x20+shuffle stack stops both —
// each defense's marginal coverage on top of the other is exactly the
// method the other misses.
func TestCampaignStackingStory(t *testing.T) {
	res, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 13},
		Filter: campaign.Filter{Methods: []string{"saddns", "frag"},
			Victims: []string{"web"}, Profiles: []string{"bind"},
			DefenseSets: []string{"none", "0x20", "shuffle", "0x20+shuffle"},
			ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports: []string{"udp"}},
		Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := map[string]float64{}
	for _, r := range res {
		rate[r.Method+"/"+r.Defense] = r.Poisoned.Frac()
	}
	want := map[string]bool{ // does the method still poison under the set?
		"saddns/none": true, "saddns/0x20": false, "saddns/shuffle": true, "saddns/0x20+shuffle": false,
		"frag/none": true, "frag/0x20": true, "frag/shuffle": false, "frag/0x20+shuffle": false,
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
			t.Errorf("%s: defense set should stop the method, rate %.0f%%", k, got*100)
		}
	}

	// The marginal table must render those composition facts: stacking
	// shuffle on 0x20 only covers frag, stacking 0x20 on shuffle only
	// covers saddns. Method columns follow filter (registry) order:
	// saddns, then frag.
	lat := campaign.Lattice(res)
	margSec := lat.Section("lattice-marginal")
	marginal := func(defense, onTopOf string) []string {
		for _, row := range margSec.CellStrings() {
			if row[0] == defense && row[1] == onTopOf {
				return row[2:]
			}
		}
		t.Fatalf("marginal row %q on %q missing:\n%s", defense, onTopOf, margSec.Text())
		return nil
	}
	if row := marginal("shuffle", "0x20"); row[0] != "+0pp" || row[1] != "+100pp" {
		t.Errorf("shuffle on 0x20: got %v, want [+0pp +100pp]", row)
	}
	if row := marginal("0x20", "shuffle"); row[0] != "+100pp" || row[1] != "+0pp" {
		t.Errorf("0x20 on shuffle: got %v, want [+100pp +0pp]", row)
	}
	if row := marginal("0x20", "none"); row[0] != "+100pp" || row[1] != "+0pp" {
		t.Errorf("0x20 on none: got %v, want [+100pp +0pp]", row)
	}
}

// TestFilterErrorsListValidKeys covers the selected() error paths of
// every dimension: an unknown key must fail with a message naming the
// offending key AND the dimension's valid registry keys.
func TestFilterErrorsListValidKeys(t *testing.T) {
	cases := []struct {
		name   string
		filter campaign.Filter
		want   []string // substrings the error must carry
	}{
		{"method", campaign.Filter{Methods: []string{"sadness"}},
			[]string{"method", "sadness", "valid:", "hijack", "saddns", "frag"}},
		{"victim", campaign.Filter{Victims: []string{"toaster"}},
			[]string{"victim", "toaster", "valid:", "web", "smtp"}},
		{"profile", campaign.Filter{Profiles: []string{"djbdns"}},
			[]string{"profile", "djbdns", "valid:", "bind", "dnsmasq"}},
		{"defense", campaign.Filter{Defenses: []string{"0x21"}},
			[]string{"defense", "0x21", "valid:", "none", "dnssec", "0x20", "no-rrl", "shuffle"}},
		{"defense-set", campaign.Filter{DefenseSets: []string{"0x20+tinfoil"}},
			[]string{"defense-set", "0x20+tinfoil", "valid:", "none", "0x20+shuffle"}},
		{"chain-depth", campaign.Filter{ChainDepths: []string{"7"}},
			[]string{"chain-depth", "7", "valid:", "0", "3"}},
		{"placement", campaign.Filter{Placements: []string{"moon"}},
			[]string{"placement", "moon", "valid:", "stub", "carrier"}},
		{"transport", campaign.Filter{Transports: []string{"quic"}},
			[]string{"transport", "quic", "valid:", "udp", "dot", "doh", "doq", "mixed", "opp"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := campaign.CellsAtRank(c.filter, 0)
			if err == nil {
				t.Fatalf("unknown %s key accepted", c.name)
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}

	// The two defense filters are mutually exclusive.
	_, err := campaign.CellsAtRank(campaign.Filter{
		Defenses: []string{"0x20"}, DefenseSets: []string{"0x20+shuffle"}}, 0)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("combined defense filters: %v", err)
	}

	// Whitespace-only defense and defense-set filters are rejected,
	// not silently widened to "all".
	if _, err := campaign.CellsAtRank(campaign.Filter{Defenses: []string{"  "}}, 0); err == nil {
		t.Fatal("whitespace-only defense filter accepted")
	}
	if _, err := campaign.CellsAtRank(campaign.Filter{DefenseSets: []string{" "}}, 0); err == nil {
		t.Fatal("whitespace-only defense-set filter accepted")
	}
}
