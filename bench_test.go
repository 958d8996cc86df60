package crosslayer_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus
// micro-benchmarks of the hot substrate paths. Regenerate everything
// with:
//
//	go test -bench=. -benchmem
//
// Table/figure benchmarks measure a full regeneration run on scaled
// populations; their per-op cost documents what `cmd/xlmeasure` does.

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"crosslayer"
	"crosslayer/internal/apps"
	"crosslayer/internal/bgp"
	"crosslayer/internal/campaign"
	"crosslayer/internal/core"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/ipfrag"
	"crosslayer/internal/measure"
	"crosslayer/internal/netsim"
	"crosslayer/internal/packet"
	"crosslayer/internal/scenario"
	"crosslayer/internal/sim"
)

// --- Table benchmarks ---

func BenchmarkTable1Applications(b *testing.B) {
	b.ReportAllocs()
	// One representative Table 1 exploitation chain per iteration:
	// poisoned MX -> bounce theft.
	for i := 0; i < b.N; i++ {
		s := scenario.New(scenario.Config{Seed: int64(i)})
		ms := apps.NewMailServer(s.ServiceHost, scenario.ResolverIP, "victim-net.example.")
		sink := apps.NewMailSink(s.Attacker)
		s.Resolver.Cache.Put("vict.im.", dnswire.TypeMX,
			[]*dnswire.RR{dnswire.NewMX("vict.im.", 300, 5, "mail.atk.example.")})
		ms.Deliver(apps.Mail{From: "a@vict.im", To: "ghost@victim-net.example.", Body: "x", SenderIP: scenario.VictimMail}, nil)
		s.Run()
		if len(sink.Received) != 1 {
			b.Fatal("chain broken")
		}
	}
}

func BenchmarkTable2Middleboxes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := scenario.New(scenario.Config{Seed: int64(i)})
		apps.NewWebServer(s.WWWHost, apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA})
		for _, prof := range apps.Table2Profiles() {
			if prof.Trigger != apps.TriggerOnDemand {
				continue
			}
			mb := apps.NewMiddlebox(s.ServiceHost, scenario.ResolverIP, prof, "www.vict.im.")
			mb.HandleClientRequest("/", func(apps.FetchResult) {})
		}
		s.Run()
	}
}

func BenchmarkTable3Resolvers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, res, err := measure.Table3Run(context.Background(), measure.Config{SampleCap: 40, Seed: int64(i)}); err != nil || len(res) != 9 {
			b.Fatalf("datasets missing (%v)", err)
		}
	}
}

func BenchmarkTable4Domains(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, res, err := measure.Table4Run(context.Background(), measure.Config{SampleCap: 30, Seed: int64(i)}); err != nil || len(res) != 10 {
			b.Fatalf("datasets missing (%v)", err)
		}
	}
}

// BenchmarkTable3Parallel measures the sharded engine against the
// serial path on one 5k-resolver population (the open-resolver
// dataset): sub-benchmark p1 is the serial baseline, pN uses every
// core. At 4+ cores pN should show the >=2x speedup the engine's
// shard fan-out exists for; results are byte-identical either way.
func BenchmarkTable3Parallel(b *testing.B) {
	spec := measure.Table3Datasets()[7]
	for _, p := range parallelismLevels() {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := measure.Config{Seed: int64(i), Parallelism: p}
				r, err := measure.ScanResolverDataset(context.Background(), spec, 5000, cfg)
				if err != nil || r.Scanned != 5000 {
					b.Fatalf("scanned %d (%v)", r.Scanned, err)
				}
			}
		})
	}
}

// BenchmarkTable4Parallel is the domain-side counterpart on the RIR
// whois dataset. Domain scans are far heavier per item (each RRL probe
// is a 400-query burst), so the population is smaller.
func BenchmarkTable4Parallel(b *testing.B) {
	spec := measure.Table4Datasets()[4]
	for _, p := range parallelismLevels() {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := measure.Config{Seed: int64(i), Parallelism: p, ShardSize: 64}
				r, err := measure.ScanDomainDataset(context.Background(), spec, 512, cfg)
				if err != nil || r.Scanned != 512 {
					b.Fatalf("scanned %d (%v)", r.Scanned, err)
				}
			}
		})
	}
}

// parallelismLevels returns the serial baseline plus the full-machine
// level (when the machine has more than one core to show).
func parallelismLevels() []int {
	levels := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		levels = append(levels, n)
	}
	return levels
}

func BenchmarkTable5ANYCaching(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, res, err := measure.Table5Run(context.Background(), measure.Config{Seed: int64(i)}); err != nil || len(res) != 5 {
			b.Fatalf("profiles missing (%v)", err)
		}
	}
}

func BenchmarkTable6Comparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cmp, err := measure.RunComparison(context.Background(), measure.Config{Seed: int64(i)}, 800)
		if err != nil || !cmp.Hijack.Success || !cmp.FragGlobal.Success {
			b.Fatalf("deterministic attacks failed (%v)", err)
		}
	}
}

// BenchmarkCampaign measures one representative campaign slice per
// iteration: every method and scalar defense (lattice rank 1) against
// the web victim on the BIND profile over the direct path (15 cells,
// one trial each) — the cost profile of the matrix's dominant cell
// kinds without the full cross-product sweep.
func BenchmarkCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := campaign.RunContext(context.Background(), campaign.Config{
			Exec: measure.Config{Seed: int64(i)},
			Filter: campaign.Filter{Victims: []string{"web"}, Profiles: []string{"bind"},
				ChainDepths: []string{"0"}, Placements: []string{"stub"},
				Transports: []string{"udp"}},
			Trials:      1,
			LatticeRank: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 15 {
			b.Fatalf("%d cells", len(res))
		}
	}
}

// BenchmarkCampaignLattice measures the defense-stacking cell kinds:
// the default defense-set lattice (baseline, singletons, pairs, full
// stack — 12 sets) swept with the deterministic hijack method against
// the web victim on BIND (12 cells, one trial each), rendered through
// the Lattice marginal-coverage view — the incremental cost a
// set-valued defense axis adds over the scalar one.
func BenchmarkCampaignLattice(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := campaign.RunContext(context.Background(), campaign.Config{
			Exec: measure.Config{Seed: int64(i)},
			Filter: campaign.Filter{Methods: []string{"hijack"},
				Victims: []string{"web"}, Profiles: []string{"bind"},
				ChainDepths: []string{"0"}, Placements: []string{"stub"},
				Transports: []string{"udp"}},
			Trials: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 12 {
			b.Fatalf("%d cells", len(res))
		}
		if out := campaign.Lattice(res).String(); out == "" {
			b.Fatal("empty lattice")
		}
	}
}

// BenchmarkCampaignChain measures the forwarder-chain cell kinds:
// every method at every chain depth from both placements against the
// undefended web victim on BIND (24 cells, one trial each) — the cost
// the two new axes add per cell, including chain construction and
// weakest-hop scans.
func BenchmarkCampaignChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := campaign.RunContext(context.Background(), campaign.Config{
			Exec: measure.Config{Seed: int64(i)},
			Filter: campaign.Filter{Victims: []string{"web"}, Profiles: []string{"bind"},
				Defenses: []string{"none"}, Transports: []string{"udp"}},
			Trials: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 24 {
			b.Fatalf("%d cells", len(res))
		}
	}
}

// BenchmarkReportRender isolates the Report indirection on the
// campaign hot path: cells are computed once, and each iteration
// builds the full four-view Report family and renders it to text —
// the work the old renderers did directly on strings. Compare against
// BenchmarkCampaign/BenchmarkCampaignLattice (which include the
// simulation) to see that building structured Reports instead of
// formatted text adds no measurable cost.
func BenchmarkReportRender(b *testing.B) {
	cells, err := campaign.RunContext(context.Background(), campaign.Config{
		Exec: measure.Config{Seed: 1},
		Filter: campaign.Filter{Victims: []string{"web"}, Profiles: []string{"bind"},
			ChainDepths: []string{"0"}, Placements: []string{"stub"},
			Transports: []string{"udp"}},
		Trials: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, rep := range []*crosslayer.Report{
			campaign.Matrix(cells), campaign.Summary(cells),
			campaign.DepthTable(cells), campaign.TransportTable(cells), campaign.Lattice(cells),
		} {
			n += len(rep.String())
		}
		if n == 0 {
			b.Fatal("empty render")
		}
	}
}

// --- Figure benchmarks ---

func BenchmarkFigure1SadDNS(b *testing.B) {
	b.ReportAllocs()
	// Figure 1 is the SadDNS sequence: one full attack per iteration.
	for i := 0; i < b.N; i++ {
		cfg := scenario.Config{Seed: int64(i)}
		scenario.OpenSadDNS(&cfg)
		s := scenario.New(cfg)
		res := s.SadDNS("www.vict.im.", crosslayer.Effort{Ports: 400, MaxIterations: 20}).Run(s.Trigger("www.vict.im."))
		if !res.Success {
			b.Fatalf("saddns failed: %+v", res)
		}
	}
}

func BenchmarkFigure2FragDNS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := scenario.Config{Seed: int64(i)}
		scenario.OpenFragDNS(&cfg)
		s := scenario.New(cfg)
		res := s.FragDNS("www.vict.im.", fragEffort).Run(s.Trigger("www.vict.im."))
		if !res.Success {
			b.Fatalf("fragdns failed: %+v", res)
		}
	}
}

func BenchmarkFigure3Prefixes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, _, err := measure.Figure3Run(context.Background(), measure.Config{SampleCap: 60, Seed: int64(i)})
		if err != nil || len(rep.String()) == 0 {
			b.Fatalf("empty figure (%v)", err)
		}
	}
}

func BenchmarkFigure4EDNS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, _, _, err := measure.Figure4Run(context.Background(), measure.Config{SampleCap: 60, Seed: int64(i)})
		if err != nil || len(rep.String()) == 0 {
			b.Fatalf("empty figure (%v)", err)
		}
	}
}

func BenchmarkFigure5Venn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, rv, _, err := measure.Figure5Run(context.Background(), measure.Config{SampleCap: 40, Seed: int64(i)})
		if err != nil || len(rep.String()) == 0 || rv.Total() == 0 {
			b.Fatalf("empty venn (%v)", err)
		}
	}
}

func BenchmarkSamePrefixHijack(b *testing.B) {
	b.ReportAllocs()
	rng := sim.NewClock(7).NewRand()
	topo := bgp.Generate(bgp.GenConfig{}, rng)
	asns := topo.ASNs()
	p := netip.MustParsePrefix("10.0.0.0/22")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := asns[rng.Intn(len(asns))]
		a := asns[rng.Intn(len(asns))]
		if v == a {
			continue
		}
		bgp.SamePrefixHijackWins(topo, p, v, a, asns)
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkIPv4SerializeDecode(b *testing.B) {
	ip := &packet.IPv4{ID: 7, TTL: 64, Protocol: packet.ProtoUDP,
		Src: scenario.NSIP, Dst: scenario.ResolverIP, Payload: make([]byte, 512)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := ip.Serialize(nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := packet.DecodeIPv4(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNSMessagePackUnpack(b *testing.B) {
	m := &dnswire.Message{ID: 1, Response: true,
		Questions: []dnswire.Question{{Name: "www.vict.im.", Type: dnswire.TypeA, Class: dnswire.ClassIN}}}
	for i := 0; i < 12; i++ {
		m.Answers = append(m.Answers, dnswire.NewTXT("www.vict.im.", 300, fmt.Sprintf("record %d padding padding padding", i)))
	}
	m.Answers = append(m.Answers, dnswire.NewA("www.vict.im.", 300, scenario.VictimWWW))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := m.Pack()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dnswire.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDefragReassembly(b *testing.B) {
	orig := &packet.IPv4{ID: 9, TTL: 64, Protocol: packet.ProtoUDP,
		Src: scenario.NSIP, Dst: scenario.ResolverIP, Payload: make([]byte, 1400)}
	frags, _ := orig.Fragment(576)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := ipfrag.New(0, 0)
		for j, f := range frags {
			cp := *f
			cp.ID = uint16(i)
			out := c.Insert(&cp, 0)
			if j == len(frags)-1 && out == nil {
				b.Fatal("no reassembly")
			}
		}
	}
}

func BenchmarkResolverFullResolution(b *testing.B) {
	b.ReportAllocs()
	s := scenario.New(scenario.Config{Seed: 5})
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("h%d.vict.im.", i)
		s.VictimZone.Add(dnswire.NewA(names[i], 1, scenario.VictimWWW))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		s.Resolver.Lookup(names[i%len(names)], dnswire.TypeA, func(rrs []*dnswire.RR, err error) {
			done = err == nil
		})
		s.Run()
		if !done {
			b.Fatal("resolution failed")
		}
		if i%len(names) == len(names)-1 {
			s.Resolver.Cache.Flush()
			s.Clock.RunFor(2e9)
		}
	}
}

func BenchmarkCraftSecondFragment(b *testing.B) {
	cfg := scenario.Config{Seed: 6}
	scenario.OpenFragDNS(&cfg)
	s := scenario.New(cfg)
	q := dnswire.NewQuery(1, "www.vict.im.", dnswire.TypeA)
	q.SetEDNS(4096, false)
	wire, _ := s.NS.BuildResponse(q).Pack()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := core.CraftSecondFragment(wire, 552, scenario.AttackerIP); !ok {
			b.Fatal("craft failed")
		}
	}
}

func BenchmarkBGPPropagation(b *testing.B) {
	b.ReportAllocs()
	rng := sim.NewClock(8).NewRand()
	topo := bgp.Generate(bgp.GenConfig{Stubs: 800}, rng)
	p := netip.MustParsePrefix("10.0.0.0/22")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routes := topo.Propagate([]bgp.Announcement{{Prefix: p, Origin: bgp.ASN(100 + i%500)}}, nil)
		if len(routes) == 0 {
			b.Fatal("no routes")
		}
	}
}

func BenchmarkSadDNSPortScanWindow(b *testing.B) {
	b.ReportAllocs()
	// Cost of one 50-probe + verification side-channel window.
	cfg := scenario.Config{Seed: 9}
	s := scenario.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := uint16(1000); p < 1050; p++ {
			s.Attacker.SendUDPSpoofed(scenario.NSIP, 53, scenario.ResolverIP, p, []byte("probe"))
		}
		s.Attacker.SendUDP(777, scenario.ResolverIP, 700, []byte("verify"))
		s.Net.Run()
	}
}

// BenchmarkTXIDFlood measures netsim's per-datagram receive path on
// SadDNS's TXID flood (§3.2): one 65,536-datagram train of spoofed
// responses at an open port, whose handler rejects every ID until the
// one at which it closes the port, as a resolver's query ends while
// the flood goes on. Each later datagram finds the port closed: it
// draws an ICMP error while the host's global ICMP budget lasts and is
// suppressed after that.
func BenchmarkTXIDFlood(b *testing.B) {
	const port, closeAt = 40000, 1 << 14
	s := scenario.New(scenario.Config{Seed: 11})
	payload := make([]byte, 64)
	rejected := 0
	handler := func(dg netsim.Datagram) {
		if binary.BigEndian.Uint16(dg.Payload) == closeAt {
			s.ResolverHost.CloseUDP(port)
			return
		}
		rejected++
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ResolverHost.BindUDP(port, handler)
		s.Attacker.SendUDPTrain(scenario.NSIP, 53, scenario.ResolverIP, port, payload, 1<<16)
		s.Net.Run()
	}
	if rejected != b.N*closeAt {
		b.Fatalf("%d datagrams rejected at the open port in %d floods, want %d each", rejected, b.N, closeAt)
	}
}

func BenchmarkResolverCacheHit(b *testing.B) {
	s := scenario.New(scenario.Config{Seed: 10})
	done := false
	s.Resolver.Lookup("www.vict.im.", dnswire.TypeA, func([]*dnswire.RR, error) { done = true })
	s.Run()
	if !done {
		b.Fatal("priming failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit := false
		s.Resolver.Lookup("www.vict.im.", dnswire.TypeA, func(rrs []*dnswire.RR, err error) { hit = err == nil })
		if !hit {
			b.Fatal("cache miss")
		}
	}
}

// BenchmarkScenarioNew measures assembling one complete default world
// from scratch — AS topology, RIB convergence, hosts, zones, resolver —
// the per-trial cost the prototype lifecycle amortizes away.
func BenchmarkScenarioNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := scenario.New(scenario.Config{Seed: int64(i)})
		if s.Resolver == nil {
			b.Fatal("no resolver")
		}
	}
}

// BenchmarkTrialReset measures the steady-state per-trial cost under
// the prototype lifecycle: rewind the assembled world, then drive one
// full resolution through it. The gap to BenchmarkScenarioNew is what
// build-once/reset-per-trial saves on every trial after the first.
func BenchmarkTrialReset(b *testing.B) {
	s := scenario.New(scenario.Config{Seed: 42})
	s.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset(int64(i))
		done := false
		s.Resolver.Lookup("www.vict.im.", dnswire.TypeA, func(_ []*dnswire.RR, err error) {
			done = err == nil
		})
		s.Run()
		if !done {
			b.Fatal("resolution failed after reset")
		}
	}
}
