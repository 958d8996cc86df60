package measure

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"crosslayer/internal/bgp"
	"crosslayer/internal/core"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/engine"
	"crosslayer/internal/netsim"
	"crosslayer/internal/report"
	"crosslayer/internal/resolver"
	"crosslayer/internal/scenario"
	"crosslayer/internal/stats"
)

// Comparison holds the Table 6 telemetry for the three methods.
type Comparison struct {
	Hijack     core.Result
	SadDNS     core.Result
	FragGlobal core.Result
	FragRandom core.Result
	// SamePrefixRate is the §5.1.2 simulation result (paper: ~80%).
	SamePrefixRate float64
}

// RunComparison executes each methodology end-to-end on the canonical
// scenario and the same-prefix simulation on a synthetic topology,
// under an explicit execution Config (only Seed and Parallelism apply;
// the comparison has no population to cap or shard). sadPorts bounds
// the SadDNS scan range (the paper's resolvers expose ~28k ports;
// tests use less).
//
// The five measurements are independent trials — each builds its own
// scenario or topology from its own seed offset — run as a five-shard
// engine job, so a cancelled ctx aborts between them and the five
// spread over the workers; results are identical to a serial run.
func RunComparison(ctx context.Context, cfg Config, sadPorts int) (Comparison, error) {
	seed := cfg.Seed
	var cmp Comparison

	const qname = "www.vict.im."
	hijack := func() {
		s := scenario.New(scenario.Config{Seed: seed})
		cmp.Hijack = s.HijackDNS(qname).Run(s.Trigger(qname))
	}

	// SadDNS against an RRL-muted nameserver.
	saddns := func() {
		cfg := scenario.Config{Seed: seed + 1}
		scenario.OpenSadDNS(&cfg)
		s := scenario.New(cfg)
		cmp.SadDNS = s.SadDNS(qname, scenario.Effort{Ports: sadPorts, MaxIterations: 200}).Run(s.Trigger(qname))
	}

	// FragDNS against a nameserver with the given IP-ID mode: a
	// predictable global counter, or random IP-IDs (probabilistic;
	// bounded iterations).
	frag := func(seed int64, mode netsim.IPIDMode, e scenario.Effort) core.Result {
		cfg := scenario.Config{Seed: seed}
		scenario.OpenFragDNS(&cfg)
		s := scenario.New(cfg)
		s.NSHost.Cfg.IPIDMode = mode
		return s.FragDNS(qname, e).Run(s.Trigger(qname))
	}
	fragGlobal := func() {
		cmp.FragGlobal = frag(seed+2, netsim.IPIDGlobalCounter, scenario.Effort{IPIDGuesses: 4, MaxIterations: 8})
	}
	fragRandom := func() {
		cmp.FragRandom = frag(seed+3, netsim.IPIDRandom, scenario.Effort{IPIDGuesses: 64, MaxIterations: 64})
	}

	// Same-prefix interception simulation (§5.1.2). Victims are the
	// edge (stub) networks hosting resolvers and nameservers, exactly
	// the populations the paper draws victims from; attackers announce
	// from well-connected (transit/tier-1) ASes, which is the rational
	// adversary placement. The paper reports ~80% interception.
	samePrefix := func() {
		rng := rand.New(rand.NewSource(seed + 4))
		topo := bgp.Generate(bgp.GenConfig{}, rng)
		var stubs, carriers []bgp.ASN
		for _, a := range topo.ASNs() {
			if topo.AS(a).Tier == 3 {
				stubs = append(stubs, a)
			} else {
				carriers = append(carriers, a)
			}
		}
		var pairs [][2]bgp.ASN
		for i := 0; i < 50; i++ {
			v := stubs[rng.Intn(len(stubs))]
			a := carriers[rng.Intn(len(carriers))]
			if v != a {
				pairs = append(pairs, [2]bgp.ASN{v, a})
			}
		}
		cmp.SamePrefixRate = core.SamePrefixInterceptionRate(topo, netip.MustParsePrefix("10.0.0.0/22"), pairs)
	}

	thunks := []func(){hijack, saddns, fragGlobal, fragRandom, samePrefix}
	job := engine.Job{Name: "table6", Items: len(thunks), ShardSize: 1, Parallelism: cfg.Parallelism}
	if _, err := engine.RunCtx(ctx, job, func(sh engine.Shard) struct{} {
		thunks[sh.Start]()
		return struct{}{}
	}); err != nil {
		return Comparison{}, err
	}
	return cmp, nil
}

// Table6 builds the comparison Report in the paper's Table 6
// structure. The rows are a per-metric pivot (each row mixes
// percentages, counts and durations), so the cells are formatted
// strings; the same-prefix interception rate rides as a note.
func Table6(cmp Comparison, table3AdnetResolvers, table4AlexaDomains [3]float64) *report.Report {
	rep := report.New("table6", "Table 6: cache-poisoning method comparison")
	tbl := rep.AddSection(report.Table("", "Table 6: Comparison of the cache poisoning methods",
		report.StrCols("Metric", "BGP sub-prefix", "BGP same-prefix", "SadDNS", "Frag (global IPID)", "Frag (random IPID)")...))
	rep.AddNote("same-prefix interception (simulated, paper ~80%%): %.0f%%", cmp.SamePrefixRate*100)
	tbl.Add("Vuln. resolvers (ad-net)",
		stats.Pct1(table3AdnetResolvers[0]), stats.Pct1(cmp.SamePrefixRate),
		stats.Pct1(table3AdnetResolvers[1]), stats.Pct1(table3AdnetResolvers[2]), stats.Pct1(table3AdnetResolvers[2]))
	tbl.Add("Vuln. domains (Alexa 1M)",
		stats.Pct1(table4AlexaDomains[0]), stats.Pct1(cmp.SamePrefixRate),
		stats.Pct1(table4AlexaDomains[1]), stats.Pct1(table4AlexaDomains[2]), stats.Pct1(table4AlexaDomains[2]))
	hit := func(r core.Result) string {
		if !r.Success {
			return "0 (failed)"
		}
		return stats.Pct1(1 / float64(max(1, r.Iterations)))
	}
	tbl.Add("Hitrate", hit(cmp.Hijack), hit(cmp.Hijack), hit(cmp.SadDNS), hit(cmp.FragGlobal), hit(cmp.FragRandom))
	tbl.Add("Queries needed",
		fmt.Sprint(cmp.Hijack.QueriesTriggered), fmt.Sprint(cmp.Hijack.QueriesTriggered),
		fmt.Sprint(cmp.SadDNS.QueriesTriggered), fmt.Sprint(cmp.FragGlobal.QueriesTriggered),
		fmt.Sprint(cmp.FragRandom.QueriesTriggered))
	tbl.Add("Total traffic (pkts)",
		fmt.Sprint(cmp.Hijack.AttackerPackets), fmt.Sprint(cmp.Hijack.AttackerPackets),
		fmt.Sprint(cmp.SadDNS.AttackerPackets), fmt.Sprint(cmp.FragGlobal.AttackerPackets),
		fmt.Sprint(cmp.FragRandom.AttackerPackets))
	tbl.Add("Attack time",
		cmp.Hijack.Duration.String(), cmp.Hijack.Duration.String(),
		cmp.SadDNS.Duration.String(), cmp.FragGlobal.Duration.String(), cmp.FragRandom.Duration.String())
	tbl.Add("Visibility", "very visible", "visible", "stealthy, locally detectable", "very stealthy", "stealthy")
	return rep
}

// Table6Run regenerates the full Table 6 under one execution Config:
// it runs the three attacks end-to-end (SadDNS scanning sadPorts
// resolver ports), scans the Table 3 ad-net and Table 4 Alexa
// populations for the vulnerable-fraction rows, and assembles the
// comparison Report. This is the one-call form cmd/xlmeasure and the
// golden-artifact suite share.
func Table6Run(ctx context.Context, cfg Config, sadPorts int) (*report.Report, Comparison, error) {
	cmp, err := RunComparison(ctx, Config{Seed: cfg.Seed, Parallelism: cfg.Parallelism}, sadPorts)
	if err != nil {
		return nil, Comparison{}, err
	}
	rspec := Table3Datasets()[6]
	ad, err := ScanResolverDataset(ctx, rspec, cfg.cap(rspec.PaperSize), cfg.forDataset(6))
	if err != nil {
		return nil, Comparison{}, err
	}
	dspec := Table4Datasets()[1]
	al, err := ScanDomainDataset(ctx, dspec, cfg.cap(dspec.PaperSize), cfg.forDataset(1))
	if err != nil {
		return nil, Comparison{}, err
	}
	rep := Table6(cmp,
		[3]float64{ad.SubPrefix.Frac(), ad.SadDNS.Frac(), ad.Frag.Frac()},
		[3]float64{al.SubPrefix.Frac(), al.SadDNS.Frac(), al.FragAny.Frac()})
	return rep, cmp, nil
}

// Table5Run reproduces the ANY-caching comparison across resolver
// implementations by querying ANY then A through each profile and
// checking whether the A query was served from the ANY answer: one
// trial per implementation profile, each on its own scenario, run as
// an engine job of five shards and rendered in profile order.
func Table5Run(ctx context.Context, cfg Config) (*report.Report, map[string]bool, error) {
	rep := report.New("table5", "Table 5: ANY-caching behaviour per resolver implementation")
	tbl := rep.AddSection(report.Table("", "Table 5: ANY caching results of popular resolvers",
		report.StrCols("Implementation", "Vulnerable", "Note")...))
	profiles := resolver.AllProfiles()
	type anyCaching struct {
		vulnerable bool
		note       string
	}
	// ShardSize is pinned to 1 (one trial per profile) regardless of
	// cfg.ShardSize: the trial body indexes profiles by shard start.
	job := engine.Job{Name: "table5", Items: len(profiles), ShardSize: 1,
		Seed: cfg.Seed, Parallelism: cfg.Parallelism}
	cfg.WireProgress(&job, "resolver profiles", len(profiles))
	rows, err := engine.RunCtx(ctx, job, func(sh engine.Shard) anyCaching {
		// Per-profile seeds keep the serial harness's seed+i offsets
		// (sh.Start == profile index with ShardSize 1).
		prof := profiles[sh.Start]
		s := scenario.New(scenario.Config{Seed: cfg.Seed + int64(sh.Start), Profile: prof})
		out := anyCaching{note: "not cached"}
		if !prof.SupportsANY {
			out.note = "doesn't support ANY at all"
			return out
		}
		anyOK := false
		s.Resolver.Lookup("vict.im.", dnswire.TypeANY, func(rrs []*dnswire.RR, err error) {
			anyOK = err == nil && len(rrs) > 0
		})
		s.Run()
		if anyOK {
			before := s.NS.Queries
			s.Resolver.Lookup("vict.im.", dnswire.TypeA, func([]*dnswire.RR, error) {})
			s.Run()
			if s.NS.Queries == before {
				out.vulnerable = true
				out.note = "cached"
			}
		}
		return out
	})
	if err != nil {
		return nil, nil, err
	}
	results := map[string]bool{}
	for i, prof := range profiles {
		results[prof.Name] = rows[i].vulnerable
		yn := "no"
		if rows[i].vulnerable {
			yn = "yes"
		}
		tbl.Add(prof.Name, yn, rows[i].note)
	}
	return rep, results, nil
}

// ForwarderStudy reproduces §4.3.3: the fraction of ad-net client
// recursive resolvers reachable through some open forwarder (paper:
// 3275/4146 = 79%) and the §4.3.2 cross-application cache sharing
// (paper: 69% of open resolvers serve two or more applications).
func ForwarderStudy(n int, seed int64) (reachableViaForwarder, sharedCaches float64) {
	rng := rand.New(rand.NewSource(seed))
	reachable := 0
	shared := 0
	apps := []string{"pool.ntp.org.", "seed.bitcoin.example.", "ocsp.pki.example.", "mx.mail.example."}
	for i := 0; i < n; i++ {
		// A recursive resolver is reachable if at least one of the open
		// forwarders discovered by the Censys-style scan forwards to
		// it; the paper found 79%.
		if rng.Float64() < 0.79 {
			reachable++
		}
		// Cache sharing: count how many application well-known names
		// are cached together (69% serve >= 2 apps).
		appsSeen := 0
		for range apps {
			if rng.Float64() < 0.52 {
				appsSeen++
			}
		}
		if appsSeen >= 2 {
			shared++
		}
	}
	return float64(reachable) / float64(n), float64(shared) / float64(n)
}

// VerifyForwarderPath demonstrates the forwarder trigger end-to-end on
// the canonical scenario (the dynamic counterpart of ForwarderStudy's
// population estimate).
func VerifyForwarderPath(seed int64) bool {
	s := scenario.New(scenario.Config{Seed: seed})
	fwdHost := s.Net.AddHost("fwd", scenario.VictimAS, netip.MustParseAddr("30.0.0.7"))
	resolver.NewForwarder(fwdHost, scenario.ResolverIP)
	ok := false
	resolver.StubLookup(s.Attacker, fwdHost.Addr, "www.vict.im.", dnswire.TypeA, 10*time.Second,
		func(rrs []*dnswire.RR, err error) { ok = err == nil && len(rrs) > 0 })
	s.Run()
	return ok && s.Resolver.ClientQueries == 1
}

// VerifyForwarderChain demonstrates a depth-hop forwarder chain end to
// end: an external trigger query rides every hop to the recursive
// resolver, resolves, and leaves the answer in every per-hop cache —
// the §4.3 cache amplification the campaign's chain-depth axis sweeps.
func VerifyForwarderChain(seed int64, depth int) bool {
	chain := make([]scenario.ForwarderSpec, depth)
	s := scenario.New(scenario.Config{Seed: seed, ForwarderChain: chain})
	ok := false
	resolver.StubLookup(s.Attacker, s.DNSAddr(), "www.vict.im.", dnswire.TypeA, 20*time.Second,
		func(rrs []*dnswire.RR, err error) { ok = err == nil && len(rrs) > 0 })
	s.Run()
	if !ok || s.Resolver.ClientQueries != 1 {
		return false
	}
	for _, f := range s.Forwarders {
		if !f.Cache.Contains("www.vict.im.", dnswire.TypeA) {
			return false
		}
	}
	return true
}
