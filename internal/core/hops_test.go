package core_test

import (
	"testing"
	"time"

	"crosslayer/internal/core"
	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/resolver"
	"crosslayer/internal/scenario"
)

func TestWeakestPortHopSelection(t *testing.T) {
	// Entry hop: big span; inner hop: tiny span; resolver: full range.
	s := scenario.New(scenario.Config{Seed: 70, ForwarderChain: []scenario.ForwarderSpec{
		{PortSpan: 512}, {PortSpan: 64},
	}})
	if got := core.WeakestPortHop(s.Hops()); got.Addr != scenario.ForwarderIP(1) {
		t.Fatalf("weakest hop %v, want the inner forwarder", got.Addr)
	}
	// Ties go to the hop closest to the client: a record planted there
	// shadows everything behind it.
	s2 := scenario.New(scenario.Config{Seed: 70, ForwarderChain: []scenario.ForwarderSpec{
		{PortSpan: 64}, {PortSpan: 64},
	}})
	if got := core.WeakestPortHop(s2.Hops()); got.Addr != scenario.ForwarderIP(0) {
		t.Fatalf("tie broke to %v, want the entry forwarder", got.Addr)
	}
	// Without a chain the resolver is the only — and weakest — hop.
	s3 := scenario.New(scenario.Config{Seed: 70})
	if got := core.WeakestPortHop(s3.Hops()); got.Addr != scenario.ResolverIP {
		t.Fatalf("depth-0 weakest hop %v", got.Addr)
	}
	// A host with port randomisation off exposes a single port and
	// always wins.
	s3.ResolverHost.Cfg.RandomizePorts = false
	if got := core.WeakestPortHop(s3.Hops()); got.PortSpan() != 1 {
		t.Fatalf("fixed-port host span %d, want 1", got.PortSpan())
	}
}

// TestWeakestPortHopSkipsEncryptedHops: a hop whose upstream rides a
// stream transport exposes no spoofable port, so port-inference
// targeting passes over it however small its range — and on a chain
// with no plaintext hop at all, falls back to the smallest span.
func TestWeakestPortHopSkipsEncryptedHops(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 73, ForwarderChain: []scenario.ForwarderSpec{
		{PortSpan: 512}, {PortSpan: 8, Transport: resolver.TransportDoT},
	}})
	if got := core.WeakestPortHop(s.Hops()); got.Addr != scenario.ForwarderIP(0) {
		t.Fatalf("weakest hop %v, want the plaintext entry forwarder", got.Addr)
	}
	dot := scenario.Config{Seed: 73, ForwarderChain: []scenario.ForwarderSpec{
		{PortSpan: 512, Transport: resolver.TransportDoT}, {PortSpan: 8, Transport: resolver.TransportDoT},
	}}
	dot.Profile = resolver.ProfileBIND
	dot.Profile.Transport = resolver.TransportDoT
	s = scenario.New(dot)
	hops := s.Hops()
	for _, h := range hops {
		if h.PlaintextUpstream() {
			t.Fatalf("hop %v reports a plaintext upstream on an all-DoT chain", h.Addr)
		}
	}
	if got := core.WeakestPortHop(hops); got.Addr != scenario.ForwarderIP(1) || got.PortSpan() != 8 {
		t.Fatalf("all-encrypted fallback picked %v (span %d), want the 8-port inner forwarder", got.Addr, got.PortSpan())
	}
}

func TestFragmentationHopIsTheResolver(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 71, ForwarderChain: []scenario.ForwarderSpec{{}, {}}})
	got := core.FragmentationHop(s.Hops())
	if got.Addr != scenario.ResolverIP || got.Upstream != scenario.NSIP {
		t.Fatalf("fragmentation hop %v->%v, want resolver->NS", got.Addr, got.Upstream)
	}
}

// TestSadDNSInjectsAtForwarderHop drives the chain-targeted SadDNS end
// to end at the core layer: the weakest hop is a forwarder, the spoof
// source is that hop's upstream, and the injected record lands in the
// per-hop cache — while the recursive resolver's own cache stays
// clean.
func TestSadDNSInjectsAtForwarderHop(t *testing.T) {
	cfg := scenario.Config{Seed: 72, ForwarderChain: []scenario.ForwarderSpec{{PortSpan: 64}}}
	cfg.ServerCfg = dnssrv.DefaultConfig()
	cfg.ServerCfg.RateLimit = true
	cfg.ServerCfg.RateLimitQPS = 10
	s := scenario.New(cfg)
	target := core.WeakestPortHop(s.Hops())
	if !target.Addr.Is4() || target.Addr != scenario.ForwarderIP(0) {
		t.Fatalf("weakest hop %v, want the forwarder", target.Addr)
	}
	qname := "www.vict.im."
	atk := &core.SadDNS{
		Attacker:     s.Attacker,
		ResolverAddr: target.Addr,
		NSAddr:       scenario.NSIP,
		SpoofSource:  target.Upstream,
		Spoof: core.Spoof{QName: qname, QType: dnswire.TypeA,
			Records: []*dnswire.RR{dnswire.NewA(qname, 300, scenario.AttackerIP)}},
		PortMin: target.Host.Cfg.PortMin, PortMax: target.Host.Cfg.PortMax,
		MuteQPS: 20, MaxIterations: 10,
		CheckSuccess: func() bool { return s.ChainPoisoned(qname, dnswire.TypeA) },
	}
	res := atk.Run(core.TriggerDirect(s.ClientHost, s.DNSAddr(), qname, dnswire.TypeA))
	if !res.Success {
		t.Fatalf("chain saddns failed: %+v", res)
	}
	if !s.ChainPoisoned(qname, dnswire.TypeA) {
		t.Fatal("chain not poisoned")
	}
	if s.Poisoned(qname, dnswire.TypeA) {
		t.Fatal("resolver cache poisoned — injection should have happened at the forwarder")
	}
	// The poisoned hop keeps serving the attacker's record to clients.
	s.Clock.RunFor(30 * time.Second) // past any lingering attack timers
	var got []*dnswire.RR
	var lookupErr error
	resolver.StubLookup(s.ClientHost, s.DNSAddr(), qname, dnswire.TypeA, 10*time.Second,
		func(rrs []*dnswire.RR, err error) { got, lookupErr = rrs, err })
	s.Run()
	if lookupErr != nil || len(got) == 0 || !scenario.AttackerOwned(got) {
		t.Fatalf("client lookup after poisoning returned %v (err %v), want attacker record", got, lookupErr)
	}
}
