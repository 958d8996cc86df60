// Package measure reproduces the paper's §5 Internet measurements on
// synthetic populations. Population attribute distributions (announced
// prefix lengths, ICMP rate-limit architecture, fragment acceptance,
// EDNS buffer sizes, nameserver RRL/PMTUD/IPID behaviour, DNSSEC
// deployment) are calibrated to the marginals the paper reports; the
// scanners then RE-MEASURE every property through the same
// packet-level probe logic the paper used, so each table is an actual
// measurement, not an echo of the sampled parameters.
package measure

import (
	"fmt"
	"math/rand"
	"net/netip"

	"crosslayer/internal/bgp"
	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/engine"
	"crosslayer/internal/netsim"
	"crosslayer/internal/resolver"
	"crosslayer/internal/sim"
)

// ResolverDatasetSpec calibrates one Table 3 row.
type ResolverDatasetSpec struct {
	Name      string
	Protocols string
	PaperSize int
	// Ground-truth rates from the paper (what the synthetic
	// population is drawn from; the scan re-measures them).
	SubPrefixRate float64 // announced covering prefix shorter than /24
	SadDNSRate    float64 // global (unpatched) ICMP limit
	FragRate      float64 // accepts fragmented responses w/ big EDNS
}

// Table3Datasets returns the paper's nine resolver datasets.
func Table3Datasets() []ResolverDatasetSpec {
	return []ResolverDatasetSpec{
		{"Local university", "Radius", 1, 1.00, 0.00, 1.00},
		{"Popular services", "PW-recovery", 29, 0.93, 0.16, 0.90},
		{"Popular CAs", "DV", 5, 0.75, 0.00, 0.00},
		{"Popular CDNs", "CDN", 4, 1.00, 0.00, 0.25},
		{"Alexa 1M SRV", "XMPP", 476, 0.73, 0.01, 0.57},
		{"Alexa 1M MX", "SMTP/SPF/DMARC/DKIM", 61036, 0.79, 0.09, 0.56},
		{"Ad-net study", "HTTP/DANE/OCSP", 5847, 0.70, 0.11, 0.91},
		{"Open resolvers", "All", 1583045, 0.74, 0.12, 0.31},
		{"Cache test", "NTP", 448521, 0.79, 0.09, 0.32},
	}
}

// DomainDatasetSpec calibrates one Table 4 row.
type DomainDatasetSpec struct {
	Name      string
	Protocols string
	PaperSize int
	// Rates per the paper's Table 4.
	SubPrefixRate  float64
	SadDNSRate     float64 // nameserver rate-limits (mutable)
	FragAnyRate    float64 // fragments large (ANY) responses at all
	FragGlobalRate float64 // … with a global IPID counter
	DNSSECRate     float64
}

// Table4Datasets returns the paper's ten domain datasets.
func Table4Datasets() []DomainDatasetSpec {
	return []DomainDatasetSpec{
		{"Eduroam list", "Radius", 1152, 0.96, 0.11, 0.44, 0.18, 0.10},
		{"Alexa 1M", "HTTP/DANE/DV", 877071, 0.53, 0.12, 0.04, 0.01, 0.02},
		{"Alexa 1M MX", "SMTP/SPF/DKIM/DMARC", 63726, 0.44, 0.06, 0.07, 0.01, 0.03},
		{"Alexa 1M SRV", "XMPP", 2025, 0.44, 0.04, 0.29, 0.05, 0.07},
		{"RIR whois", "PW-recovery", 58742, 0.59, 0.09, 0.14, 0.04, 0.04},
		{"Registrar whois", "PW-recovery", 4628, 0.51, 0.10, 0.23, 0.05, 0.06},
		{"Well-known NTP", "NTP", 9, 0.25, 0.00, 0.25, 0.25, 0.25},
		{"Well-known crypto", "Cryptocurrency", 32, 0.28, 0.17, 0.21, 0.03, 0.21},
		{"Well-known RPKI", "RPKI", 8, 0.14, 0.00, 0.00, 0.00, 0.67},
		{"Cert. scan", "IKE/OpenVPN", 307, 0.51, 0.11, 0.05, 0.01, 0.07},
	}
}

// samplePrefixLen draws an announced prefix length such that
// P(len < 24) == subRate, with the sub-/24 mass spread over /11../23
// roughly like Figure 3 (most announcements cluster at /16../22).
func samplePrefixLen(rng *rand.Rand, subRate float64) int {
	if rng.Float64() >= subRate {
		return 24
	}
	// Weighted lengths 11..23, heavier in the middle.
	weights := []struct {
		bits int
		w    float64
	}{
		{11, 1}, {12, 2}, {13, 3}, {14, 5}, {15, 6}, {16, 10},
		{17, 7}, {18, 8}, {19, 9}, {20, 10}, {21, 9}, {22, 12}, {23, 6},
	}
	total := 0.0
	for _, w := range weights {
		total += w.w
	}
	x := rng.Float64() * total
	for _, w := range weights {
		x -= w.w
		if x <= 0 {
			return w.bits
		}
	}
	return 22
}

// sampleEDNS draws a resolver EDNS buffer size per Figure 4's
// partition: ~40% at 512 (or no EDNS), ~10% between 1232 and 2048,
// ~50% at 4096+.
func sampleEDNS(rng *rand.Rand) uint16 {
	switch x := rng.Float64(); {
	case x < 0.40:
		return 512
	case x < 0.50:
		opts := []uint16{1232, 1400, 2048}
		return opts[rng.Intn(len(opts))]
	default:
		opts := []uint16{4000, 4096, 8192}
		return opts[rng.Intn(len(opts))]
	}
}

// sampleMinFragSize draws the minimum fragment size a nameserver will
// fragment down to (Figure 4: 83.2% reach 548, 7.05% even 292, the
// rest only ~1280).
func sampleMinFragSize(rng *rand.Rand) int {
	switch x := rng.Float64(); {
	case x < 0.0705:
		return 292
	case x < 0.832+0.0705:
		return 548
	default:
		return 1280
	}
}

// SimResolver is one synthesized resolver under test.
type SimResolver struct {
	Index    int
	Host     *netsim.Host
	Resolver *resolver.Resolver
	// AnnouncedPrefix is the covering BGP announcement for the
	// resolver's address (the paper's RouteViews/RIS view).
	AnnouncedPrefix netip.Prefix
	// Ground truth for scanner validation.
	TruthSubPrefix bool
	TruthSadDNS    bool
	TruthFrag      bool
}

// ResolverFleet is a synthesized population shard plus its probing
// infrastructure. Each fleet owns its clock and network outright, so
// fleets for different shards simulate concurrently without sharing
// any state.
type ResolverFleet struct {
	Spec      ResolverDatasetSpec
	Shard     engine.Shard
	Clock     *sim.Clock
	Net       *netsim.Network
	Prober    *netsim.Host
	Prober2   *netsim.Host
	TestNS    *netsim.Host
	TestSrv   *dnssrv.Server
	Resolvers []*SimResolver
}

// proberAS and friends are the fleet's fixed AS layout.
const (
	fleetTransitAS bgp.ASN = 1
	fleetProbeAS   bgp.ASN = 2
	fleetNSAS      bgp.ASN = 3
	fleetResolvAS  bgp.ASN = 4
)

// fleetAddr returns the i-th resolver address (10.x.y.1).
func fleetAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1})
}

// NewResolverFleetShard synthesizes the shard's slice of the
// population: resolvers with global indices [sh.Start, sh.Start+
// sh.Count), drawn from spec's calibrated marginals with the shard's
// derived seed, on a clock and network owned by the shard alone.
// A shard may cover at most 2^16 items — the fleet address scheme
// packs the item index into two address bytes, and a larger shard
// panics on the first duplicate address (Config.job clamps shard
// sizes accordingly).
func NewResolverFleetShard(spec ResolverDatasetSpec, sh engine.Shard) *ResolverFleet {
	clock := sim.NewClock(sh.Seed)
	rng := clock.NewRand()
	topo := bgp.NewTopology()
	topo.AddAS(fleetTransitAS, 1)
	for _, asn := range []bgp.ASN{fleetProbeAS, fleetNSAS, fleetResolvAS} {
		topo.AddAS(asn, 3)
		topo.AddProviderCustomer(fleetTransitAS, asn)
	}
	rib := bgp.NewRIB(topo, nil)
	net := netsim.New(clock, topo, rib)
	rib.Announce(netip.MustParsePrefix("192.0.2.0/24"), fleetProbeAS)
	rib.Announce(netip.MustParsePrefix("198.51.100.0/24"), fleetNSAS)
	rib.Announce(netip.MustParsePrefix("10.0.0.0/8"), fleetResolvAS)

	f := &ResolverFleet{
		Spec:    spec,
		Shard:   sh,
		Clock:   clock,
		Net:     net,
		Prober:  net.AddHost("prober", fleetProbeAS, netip.MustParseAddr("192.0.2.10")),
		Prober2: net.AddHost("prober2", fleetProbeAS, netip.MustParseAddr("192.0.2.11")),
		TestNS:  net.AddHost("testns", fleetNSAS, netip.MustParseAddr("198.51.100.53")),
	}
	net.AS(fleetProbeAS).EgressFiltering = false // measurement probes spoof like the paper's

	zone := dnssrv.NewZone("test.example.")
	zone.Add(dnswire.NewSOA("test.example.", 3600, "ns.test.example.", "r.test.example.", 1))
	srvCfg := dnssrv.DefaultConfig()
	srvCfg.PadAnswersTo = 1280
	f.TestSrv = dnssrv.New(f.TestNS, srvCfg)
	f.TestSrv.AddZone(zone)

	nsAddr := f.TestNS.Addr
	for k := 0; k < sh.Count; k++ {
		i := sh.Start + k
		addr := fleetAddr(i)
		h := net.AddHost(fmt.Sprintf("resolver-%d", i), fleetResolvAS, addr)

		truthSub := rng.Float64() < spec.SubPrefixRate
		plen := 24
		if truthSub {
			plen = samplePrefixLen(rng, 1.0)
			if plen == 24 {
				plen = 22
			}
		}
		prefix, _ := addr.Prefix(plen)

		truthSad := rng.Float64() < spec.SadDNSRate
		if truthSad {
			h.Cfg.ICMPLimitMode = netsim.ICMPLimitGlobal
		} else if rng.Float64() < 0.5 {
			h.Cfg.ICMPLimitMode = netsim.ICMPLimitPerIP
		} else {
			h.Cfg.ICMPLimitMode = netsim.ICMPLimitNone
		}

		truthFrag := rng.Float64() < spec.FragRate
		prof := resolver.ProfileBIND
		prof.Name = fmt.Sprintf("pop-%d", i)
		if truthFrag {
			h.Cfg.AcceptFragments = true
			prof.EDNSSize = 4096
		} else if rng.Float64() < 0.5 {
			h.Cfg.AcceptFragments = false
			prof.EDNSSize = sampleEDNS(rng)
		} else {
			// Accepts fragments but advertises a buffer too small for
			// the fragmented response ("fitting into response").
			h.Cfg.AcceptFragments = true
			prof.EDNSSize = 512
		}
		r := resolver.New(h, prof)
		r.Open = true
		r.AddZoneServer("test.example.", nsAddr)

		// Per-resolver probe records in the test zone (CNAME trick).
		zone.Add(
			dnswire.NewCNAME(fmt.Sprintf("frag-%d.test.example.", i), 60, fmt.Sprintf("target-%d.test.example.", i)),
			dnswire.NewA(fmt.Sprintf("target-%d.test.example.", i), 60, nsAddr),
		)

		f.Resolvers = append(f.Resolvers, &SimResolver{
			Index: i, Host: h, Resolver: r, AnnouncedPrefix: prefix,
			TruthSubPrefix: truthSub, TruthSadDNS: truthSad, TruthFrag: truthFrag,
		})
	}
	return f
}
