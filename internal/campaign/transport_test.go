package campaign_test

import (
	"context"
	"reflect"
	"testing"

	"crosslayer/internal/campaign"
	"crosslayer/internal/measure"
)

// TestCampaignTransportStory pins the headline invariant the transport
// axis exists for: the off-path methods collapse to zero against an
// all-encrypted chain — SadDNS has no 16-bit UDP port to scan and
// FragDNS no datagram to fragment on a stream — and SadDNS re-opens
// the moment a plaintext forwarder hop sits in front of the encrypted
// recursive, because the attack retargets the weakest hop. Hijack
// flips from poisoning to a fail-closed DoS: the intercepted handshake
// cannot be completed, so the resolver SERVFAILs instead of accepting
// the forged answer.
func TestCampaignTransportStory(t *testing.T) {
	res, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 9},
		Filter: campaign.Filter{
			Methods: []string{"hijack", "saddns", "frag"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, Defenses: []string{"none"},
			ChainDepths: []string{"1"}, Placements: []string{"stub"},
			Transports: []string{"udp", "dot", "doh", "doq", "mixed"},
		},
		Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := map[string]float64{}
	for _, r := range res {
		rate[r.Method+"/"+r.Transport] = r.Poisoned.Frac()
	}
	for _, m := range []string{"hijack", "saddns", "frag"} {
		if rate[m+"/udp"] == 0 {
			t.Errorf("%s must poison the undefended plaintext chain", m)
		}
		for _, tr := range []string{"dot", "doh", "doq"} {
			if got := rate[m+"/"+tr]; got > 0 {
				t.Errorf("%s/%s: off-path surface must vanish on an encrypted chain, rate %.0f%%", m, tr, got*100)
			}
		}
	}
	// A plaintext front hop re-opens the port side channel: the
	// forwarder still queries the recursive over bare UDP.
	if rate["saddns/mixed"] == 0 {
		t.Error("saddns must re-open at a plaintext forwarder hop in front of an encrypted recursive")
	}
	// ... but not the fragmentation surface: the hop that fragments
	// (resolver → nameserver) is still a stream.
	if got := rate["frag/mixed"]; got > 0 {
		t.Errorf("frag must stay closed on mixed — the fragmenting hop is encrypted, rate %.0f%%", got*100)
	}
}

// TestCampaignDowngradeStory pins the opportunistic-encryption model:
// an opportunistic DoT chain is exactly as strong as a strict one
// until an active attacker blocks the handshakes — then every hop
// falls back to plaintext UDP and the off-path surface returns. The
// paired sweep shares trial seeds, so cells without an opportunistic
// hop are bit-identical with and without downgrade pressure.
func TestCampaignDowngradeStory(t *testing.T) {
	cfg := campaign.Config{
		Exec: measure.Config{Seed: 13},
		Filter: campaign.Filter{
			Methods: []string{"saddns", "frag"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, Defenses: []string{"none"},
			ChainDepths: []string{"1"}, Placements: []string{"stub"},
			Transports: []string{"udp", "opp"},
		},
		Trials: 2,
	}
	quiet, err := campaign.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	down := cfg
	down.Downgrade = true
	forced, err := campaign.RunContext(context.Background(), down)
	if err != nil {
		t.Fatal(err)
	}
	qRate, fRate := map[string]float64{}, map[string]float64{}
	for _, r := range quiet {
		qRate[r.Method+"/"+r.Transport] = r.Poisoned.Frac()
	}
	for _, r := range forced {
		fRate[r.Method+"/"+r.Transport] = r.Poisoned.Frac()
	}
	for _, m := range []string{"saddns", "frag"} {
		if got := qRate[m+"/opp"]; got > 0 {
			t.Errorf("%s/opp without an active attacker must hold like strict DoT, rate %.0f%%", m, got*100)
		}
		if fRate[m+"/opp"] == 0 {
			t.Errorf("%s/opp must re-open under active downgrade", m)
		}
	}
	// Cells with no opportunistic hop are untouched by the downgrade
	// sweep: same seeds, same physics, same bits.
	pick := func(res []campaign.CellResult, transport string) []campaign.CellResult {
		var out []campaign.CellResult
		for _, r := range res {
			if r.Transport == transport {
				out = append(out, r)
			}
		}
		return out
	}
	if !reflect.DeepEqual(pick(quiet, "udp"), pick(forced, "udp")) {
		t.Error("downgrade pressure changed cells without an opportunistic hop")
	}
}

// TestCampaignTransportByteIdenticalAcrossParallelism is the 7th-axis
// acceptance contract: a sweep over every transport renders
// byte-identical matrices — and transport tables — for any worker
// count.
func TestCampaignTransportByteIdenticalAcrossParallelism(t *testing.T) {
	base := campaign.Config{
		Exec: measure.Config{Seed: 23, Parallelism: 1},
		Filter: campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, Defenses: []string{"none"},
			ChainDepths: []string{"1"}, Placements: []string{"stub"}},
		Trials: 2,
	}
	refRes, err := campaign.RunContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRes) != len(campaign.Transports()) {
		t.Fatalf("unexpected cell count %d, want one per transport (%d)", len(refRes), len(campaign.Transports()))
	}
	refMatrix := campaign.Matrix(refRes).String()
	refTransport := campaign.TransportTable(refRes).String()
	for _, p := range []int{3, 8} {
		cfg := base
		cfg.Exec.Parallelism = p
		res, err := campaign.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := campaign.Matrix(res).String(); got != refMatrix {
			t.Fatalf("parallelism %d changed transport matrix bytes:\n--- p=1\n%s\n--- p=%d\n%s", p, refMatrix, p, got)
		}
		if got := campaign.TransportTable(res).String(); got != refTransport {
			t.Fatalf("parallelism %d changed transport table bytes", p)
		}
	}
}

// TestCampaignEncryptedCostStory pins the cost side of the trade: the
// handshake round-trips of an encrypted upstream are visible in the
// virtual attack-time percentiles. A hijack trial against a DoT chain
// spends measurably more simulated time than against bare UDP — the
// TLS setup happens inside the measured window even though the attack
// then fails closed.
func TestCampaignEncryptedCostStory(t *testing.T) {
	res, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 17},
		Filter: campaign.Filter{Methods: []string{"hijack"}, Victims: []string{"web"},
			Profiles: []string{"bind"}, Defenses: []string{"none"},
			ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports: []string{"udp", "dot"}},
		Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sec := map[string]float64{}
	for _, r := range res {
		sec[r.Transport] = r.Seconds.Quantile(0.5)
	}
	if sec["dot"] <= sec["udp"] {
		t.Errorf("DoT handshake round-trips must cost virtual time: dot p50 %.6fs <= udp p50 %.6fs",
			sec["dot"], sec["udp"])
	}
}
