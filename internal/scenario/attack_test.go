package scenario_test

import (
	"net/netip"
	"testing"

	"crosslayer/internal/dnssrv"
	"crosslayer/internal/netsim"
	"crosslayer/internal/resolver"
	"crosslayer/internal/scenario"
)

// TestFragDNSFetchesTemplateWithResolverDO pins the DO-bit fix: a
// validating resolver sets DO on its queries, the nameserver echoes it
// in the response tail, and a template fetched without it predicts the
// wrong second-fragment bytes. The zone is unsigned, so validation
// itself stops nothing: with the profile's DO bit the attack poisons on
// its first iteration, without it every iteration fails.
func TestFragDNSFetchesTemplateWithResolverDO(t *testing.T) {
	prof := resolver.ProfileBIND
	prof.ValidateDNSSEC = true
	for seed := int64(1); seed <= 5; seed++ {
		for _, do := range []bool{true, false} {
			cfg := scenario.Config{Seed: seed, Profile: prof}
			scenario.OpenFragDNS(&cfg)
			s := scenario.New(cfg)
			atk := s.FragDNS("www.vict.im.", scenario.Effort{IPIDGuesses: 64, MaxIterations: 8})
			if !atk.ResolverDO {
				t.Fatalf("seed %d: a validating resolver's attack fetches without DO", seed)
			}
			atk.ResolverDO = do
			res := atk.Run(s.Trigger("www.vict.im."))
			switch {
			case do && (!res.Success || res.Iterations != 1):
				t.Errorf("seed %d with DO: success=%v after %d iterations, want iteration 1", seed, res.Success, res.Iterations)
			case !do && res.Success:
				t.Errorf("seed %d without DO: poisoned after %d iterations, want a mispredicted template", seed, res.Iterations)
			}
		}
	}
}

// TestAttackAim pins where each constructor aims at chain depths 0 and
// 1: SadDNS at the weakest port hop, spoofing that hop's upstream, and
// FragDNS at the recursive resolver whatever the depth.
func TestAttackAim(t *testing.T) {
	const ports = 256
	for _, tc := range []struct {
		depth                int
		sadTarget, sadSpoof  netip.Addr
		sadPortMin, sadPorts uint16
	}{
		{0, scenario.ResolverIP, scenario.NSIP, 32768, ports},
		{1, scenario.ForwarderIP(0), scenario.ResolverIP, 40000, scenario.DefaultForwarderPortSpan},
	} {
		cfg := scenario.Config{Seed: 1, ForwarderChain: make([]scenario.ForwarderSpec, tc.depth)}
		scenario.OpenSadDNS(&cfg)
		s := scenario.New(cfg)
		sad := s.SadDNS("www.vict.im.", scenario.Effort{Ports: ports})
		if sad.ResolverAddr != tc.sadTarget || sad.SpoofSource != tc.sadSpoof || sad.NSAddr != scenario.NSIP {
			t.Errorf("depth %d: SadDNS targets %v spoofing %v muting %v, want %v spoofing %v muting %v",
				tc.depth, sad.ResolverAddr, sad.SpoofSource, sad.NSAddr, tc.sadTarget, tc.sadSpoof, scenario.NSIP)
		}
		if sad.PortMin != tc.sadPortMin || sad.PortMax != tc.sadPortMin+tc.sadPorts-1 {
			t.Errorf("depth %d: SadDNS scans %d..%d, want %d..%d",
				tc.depth, sad.PortMin, sad.PortMax, tc.sadPortMin, tc.sadPortMin+tc.sadPorts-1)
		}
		if sad.MuteQPS != 20 {
			t.Errorf("depth %d: SadDNS mutes at %d QPS, want twice the nameserver's 10", tc.depth, sad.MuteQPS)
		}
		frag := s.FragDNS("www.vict.im.", scenario.Effort{})
		if frag.ResolverAddr != scenario.ResolverIP || frag.NSAddr != scenario.NSIP {
			t.Errorf("depth %d: FragDNS targets %v behind %v, want the resolver behind the nameserver",
				tc.depth, frag.ResolverAddr, frag.NSAddr)
		}
	}
}

// TestOpenOnZeroConfig pins that each Open* fills in the default
// server before opening its surface, and keeps a server configured
// beforehand.
func TestOpenOnZeroConfig(t *testing.T) {
	sad, frag := dnssrv.DefaultConfig(), dnssrv.DefaultConfig()
	sad.RateLimit, sad.RateLimitQPS = true, 10
	frag.PadAnswersTo = 1200
	for _, tc := range []struct {
		name string
		open func(*scenario.Config)
		want dnssrv.Config
	}{
		{"OpenSadDNS", scenario.OpenSadDNS, sad},
		{"OpenFragDNS", scenario.OpenFragDNS, frag},
	} {
		var cfg scenario.Config
		tc.open(&cfg)
		if cfg.ServerCfg != tc.want {
			t.Errorf("%s on a zero Config: server %+v, want %+v", tc.name, cfg.ServerCfg, tc.want)
		}
		cfg = scenario.Config{ServerCfg: dnssrv.Config{RandomizeOrder: true}}
		tc.open(&cfg)
		if !cfg.ServerCfg.RandomizeOrder || cfg.ServerCfg.ServeANY {
			t.Errorf("%s replaced a configured server: %+v", tc.name, cfg.ServerCfg)
		}
	}
}

// TestFragDNSPredictsIPIDUnlessRandom pins the derived PredictIPID: the
// attack plants consecutive guesses against any counter and random
// ones only when the nameserver draws its IP-IDs at random.
func TestFragDNSPredictsIPIDUnlessRandom(t *testing.T) {
	for _, mode := range []netsim.IPIDMode{netsim.IPIDGlobalCounter, netsim.IPIDPerDestCounter, netsim.IPIDRandom} {
		cfg := scenario.Config{Seed: 1}
		scenario.OpenFragDNS(&cfg)
		s := scenario.New(cfg)
		s.NSHost.Cfg.IPIDMode = mode
		if got, want := s.FragDNS("www.vict.im.", scenario.Effort{}).PredictIPID, mode != netsim.IPIDRandom; got != want {
			t.Errorf("IP-ID mode %d: PredictIPID %v, want %v", mode, got, want)
		}
	}
}
