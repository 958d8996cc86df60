package measure

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"crosslayer/internal/bgp"
	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/engine"
	"crosslayer/internal/netsim"
	"crosslayer/internal/packet"
	"crosslayer/internal/report"
	"crosslayer/internal/resolver"
	"crosslayer/internal/sim"
	"crosslayer/internal/stats"
)

// SimDomain is one synthesized domain with its authoritative server.
type SimDomain struct {
	Index  int
	Name   string
	NSHost *netsim.Host
	Server *dnssrv.Server

	AnnouncedPrefix netip.Prefix
	// Ground truth.
	TruthSubPrefix  bool
	TruthRateLimit  bool
	TruthFragAny    bool
	TruthFragGlobal bool
	TruthDNSSEC     bool
	// MinFragSize is the smallest fragment the server will emit
	// (Figure 4's right curve); 0 when it never fragments.
	MinFragSize int
}

// DomainFleet is a synthesized nameserver population shard. Like
// ResolverFleet, each fleet owns its clock and network outright so
// shards simulate concurrently without shared state.
type DomainFleet struct {
	Spec    DomainDatasetSpec
	Shard   engine.Shard
	Clock   *sim.Clock
	Net     *netsim.Network
	Prober  *netsim.Host
	Prober2 *netsim.Host
	Domains []*SimDomain
}

// rrlBurst is the RRL probe volume. The paper bursts 4000 queries/s;
// a tenth of that is four times the simulated limiters' 100 qps.
const rrlBurst = 400

func fleetNSAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 53})
}

// NewDomainFleetShard synthesizes the shard's slice of the domain
// population (global indices [sh.Start, sh.Start+sh.Count)) on a clock
// and network owned by the shard alone.
func NewDomainFleetShard(spec DomainDatasetSpec, sh engine.Shard) *DomainFleet {
	clock := sim.NewClock(sh.Seed)
	rng := clock.NewRand()
	topo := bgp.NewTopology()
	topo.AddAS(fleetTransitAS, 1)
	for _, asn := range []bgp.ASN{fleetProbeAS, fleetNSAS} {
		topo.AddAS(asn, 3)
		topo.AddProviderCustomer(fleetTransitAS, asn)
	}
	rib := bgp.NewRIB(topo, nil)
	net := netsim.New(clock, topo, rib)
	rib.Announce(netip.MustParsePrefix("192.0.2.0/24"), fleetProbeAS)
	rib.Announce(netip.MustParsePrefix("10.0.0.0/8"), fleetNSAS)

	f := &DomainFleet{
		Spec: spec, Shard: sh, Clock: clock, Net: net,
		Prober:  net.AddHost("prober", fleetProbeAS, netip.MustParseAddr("192.0.2.10")),
		Prober2: net.AddHost("prober2", fleetProbeAS, netip.MustParseAddr("192.0.2.11")),
	}
	net.AS(fleetProbeAS).EgressFiltering = false

	for k := 0; k < sh.Count; k++ {
		i := sh.Start + k
		addr := fleetNSAddr(i)
		h := net.AddHost(fmt.Sprintf("ns-%d", i), fleetNSAS, addr)
		name := fmt.Sprintf("dom-%d.example.", i)

		truthSub := rng.Float64() < spec.SubPrefixRate
		plen := 24
		if truthSub {
			plen = samplePrefixLen(rng, 1.0)
			if plen == 24 {
				plen = 22
			}
		}
		prefix, _ := addr.Prefix(plen)

		cfg := dnssrv.DefaultConfig()
		truthRRL := rng.Float64() < spec.SadDNSRate
		if truthRRL {
			cfg.RateLimit = true
			cfg.RateLimitQPS = 100
		}
		truthFragAny := rng.Float64() < spec.FragAnyRate
		minFrag := 0
		if truthFragAny {
			h.Cfg.HonorPMTUD = true
			minFrag = sampleMinFragSize(rng)
			h.Cfg.PMTUFloor = minFrag
			cfg.PadAnswersTo = 1400 // big ANY responses
		} else {
			h.Cfg.HonorPMTUD = false
		}
		truthFragGlobal := false
		if truthFragAny && spec.FragAnyRate > 0 {
			// Conditional probability: global-IPID given fragmentable.
			truthFragGlobal = rng.Float64() < spec.FragGlobalRate/spec.FragAnyRate
		}
		if truthFragGlobal {
			h.Cfg.IPIDMode = netsim.IPIDGlobalCounter
		} else if rng.Float64() < 0.5 {
			h.Cfg.IPIDMode = netsim.IPIDRandom
		} else {
			h.Cfg.IPIDMode = netsim.IPIDPerDestCounter
		}
		truthSigned := rng.Float64() < spec.DNSSECRate

		zone := dnssrv.NewZone(name)
		zone.Signed = truthSigned
		zone.Add(
			dnswire.NewSOA(name, 3600, "ns."+name, "root."+name, 1),
			dnswire.NewNS(name, 3600, "ns."+name),
			dnswire.NewA("ns."+name, 3600, addr),
			dnswire.NewA(name, 300, addr),
			dnswire.NewMX(name, 300, 10, "mail."+name),
			dnswire.NewA("mail."+name, 300, addr),
			dnswire.NewTXT(name, 300, "v=spf1 ip4:10.0.0.0/8 -all"),
		)
		srv := dnssrv.New(h, cfg)
		srv.AddZone(zone)

		f.Domains = append(f.Domains, &SimDomain{
			Index: i, Name: name, NSHost: h, Server: srv,
			AnnouncedPrefix: prefix,
			TruthSubPrefix:  truthSub, TruthRateLimit: truthRRL,
			TruthFragAny: truthFragAny, TruthFragGlobal: truthFragGlobal,
			TruthDNSSEC: truthSigned, MinFragSize: minFrag,
		})
	}
	return f
}

// DomainScanResult is the measured vulnerability of one domain fleet
// shard, or — after Merge — of a whole Table 4 dataset.
type DomainScanResult struct {
	Spec       DomainDatasetSpec
	Scanned    int
	SubPrefix  stats.Counter
	SadDNS     stats.Counter
	FragAny    stats.Counter
	FragGlobal stats.Counter
	DNSSEC     stats.Counter
	// MinFragSizes holds, per fragmenting server, the smallest
	// fragment observed (Figure 4's right curve), in domain order.
	MinFragSizes []float64
	Membership   []uint8 // bit0 hijack, bit1 saddns, bit2 frag-any
}

// Merge folds another shard's result (covering a disjoint slice of the
// same dataset) into r; see ResolverScanResult.Merge.
func (r *DomainScanResult) Merge(o DomainScanResult) {
	r.Scanned += o.Scanned
	r.SubPrefix = r.SubPrefix.Plus(o.SubPrefix)
	r.SadDNS = r.SadDNS.Plus(o.SadDNS)
	r.FragAny = r.FragAny.Plus(o.FragAny)
	r.FragGlobal = r.FragGlobal.Plus(o.FragGlobal)
	r.DNSSEC = r.DNSSEC.Plus(o.DNSSEC)
	r.MinFragSizes = append(r.MinFragSizes, o.MinFragSizes...)
	r.Membership = append(r.Membership, o.Membership...)
}

// ScanDomainFleet runs the §5.2.2 nameserver measurements.
func ScanDomainFleet(f *DomainFleet) DomainScanResult {
	res := DomainScanResult{Spec: f.Spec, Scanned: len(f.Domains)}
	for _, d := range f.Domains {
		var bits uint8
		sub := d.AnnouncedPrefix.Bits() < 24
		res.SubPrefix.Observe(sub)
		if sub {
			bits |= 1
		}
		rrl := scanRateLimit(f, d)
		res.SadDNS.Observe(rrl)
		if rrl {
			bits |= 2
		}
		size, fragAny := scanPMTUD(f, d)
		res.FragAny.Observe(fragAny)
		global := false
		if fragAny {
			bits |= 4
			res.MinFragSizes = append(res.MinFragSizes, float64(size))
			global = scanGlobalIPID(f, d)
		}
		res.FragGlobal.Observe(global)
		res.DNSSEC.Observe(scanDNSSEC(f, d))
		res.Membership = append(res.Membership, bits)
	}
	return res
}

// scanRateLimit is the 4000-query burst test: blast queries within one
// second and check whether responses are suppressed. The burst is one
// train, so its DNS IDs run 0…rrlBurst−1; replies are counted by source.
func scanRateLimit(f *DomainFleet, d *SimDomain) bool {
	// Fresh second so the server's RRL window is clean.
	f.Clock.RunUntil((f.Clock.Now()/time.Second + 1) * time.Second)
	got := 0
	q := dnswire.NewQuery(0, d.Name, dnswire.TypeA)
	wire, _ := q.Pack()
	port := f.Prober.BindUDP(0, func(dg netsim.Datagram) {
		if dg.Src == d.NSHost.Addr {
			got++
		}
	})
	f.Prober.SendUDPTrain(f.Prober.Addr, port, d.NSHost.Addr, 53, wire, rrlBurst)
	f.Net.RunFor(4 * f.Net.Latency())
	f.Prober.CloseUDP(port)
	// "We consider a nameserver vulnerable if we can measure a
	// reduction in responses after the burst."
	return got < rrlBurst
}

// scanPMTUD sends a spoofed PTB then a padded query and watches for
// fragments, returning the smallest observed fragment size.
func scanPMTUD(f *DomainFleet, d *SimDomain) (minSize int, fragmented bool) {
	// Fresh second: the preceding burst test may have muted an
	// RRL-enabled server for the remainder of its window.
	f.Clock.RunUntil((f.Clock.Now()/time.Second + 1) * time.Second)
	// PTB: pretend the path to the prober only carries 292 bytes; the
	// server clamps to its own floor.
	quoted := &packet.IPv4{ID: 1, TTL: 64, Protocol: packet.ProtoUDP,
		Src: d.NSHost.Addr, Dst: f.Prober.Addr, Payload: make([]byte, 16)}
	quote, err := packet.QuoteDatagram(quoted)
	if err != nil {
		return 0, false
	}
	f.Prober.SendICMPSpoofed(f.Prober.Addr, d.NSHost.Addr, &packet.ICMP{
		Type: packet.ICMPTypeDestUnreach, Code: packet.ICMPCodeFragNeeded,
		MTU: 292, Payload: quote,
	})
	f.Net.RunFor(4 * f.Net.Latency())

	minSize = 1 << 20
	f.Prober.OnRaw(func(ip *packet.IPv4) {
		if ip.Src != d.NSHost.Addr || !ip.IsFragment() {
			return
		}
		fragmented = true
		if ip.TotalLen() < minSize {
			minSize = ip.TotalLen()
		}
	})
	q := dnswire.NewQuery(10, d.Name, dnswire.TypeANY)
	q.SetEDNS(4096, false)
	wire, _ := q.Pack()
	port := f.Prober.BindUDP(0, func(netsim.Datagram) {})
	f.Prober.SendUDP(port, d.NSHost.Addr, 53, wire)
	f.Net.RunFor(6 * f.Net.Latency())
	f.Prober.CloseUDP(port)
	f.Prober.OnRaw(nil)
	if !fragmented {
		return 0, false
	}
	return minSize, true
}

// scanGlobalIPID interleaves queries from two probe addresses and
// checks whether the response IPIDs form one consecutive sequence —
// the signature of a single global counter.
func scanGlobalIPID(f *DomainFleet, d *SimDomain) bool {
	f.Clock.RunUntil((f.Clock.Now()/time.Second + 1) * time.Second)
	var ids []uint16
	capture := func(h *netsim.Host) func(*packet.IPv4) {
		return func(ip *packet.IPv4) {
			if ip.Src == d.NSHost.Addr && ip.Protocol == packet.ProtoUDP && !ip.IsFragment() {
				ids = append(ids, ip.ID)
			}
		}
	}
	f.Prober.OnRaw(capture(f.Prober))
	f.Prober2.OnRaw(capture(f.Prober2))
	q := dnswire.NewQuery(11, d.Name, dnswire.TypeA)
	wire, _ := q.Pack()
	p1 := f.Prober.BindUDP(0, func(netsim.Datagram) {})
	p2 := f.Prober2.BindUDP(0, func(netsim.Datagram) {})
	for i := 0; i < 2; i++ {
		f.Prober.SendUDP(p1, d.NSHost.Addr, 53, wire)
		f.Net.RunFor(4 * f.Net.Latency())
		f.Prober2.SendUDP(p2, d.NSHost.Addr, 53, wire)
		f.Net.RunFor(4 * f.Net.Latency())
	}
	f.Prober.CloseUDP(p1)
	f.Prober2.CloseUDP(p2)
	f.Prober.OnRaw(nil)
	f.Prober2.OnRaw(nil)
	if len(ids) < 4 {
		return false
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			return false
		}
	}
	return true
}

// scanDNSSEC checks whether answers carry RRSIGs.
func scanDNSSEC(f *DomainFleet, d *SimDomain) bool {
	f.Clock.RunUntil((f.Clock.Now()/time.Second + 1) * time.Second)
	signed := false
	resolver.StubQuery(f.Prober, d.NSHost.Addr, d.Name, dnswire.TypeA, 5*time.Second,
		func(m *dnswire.Message, err error) {
			if err != nil {
				return
			}
			for _, rr := range m.Answers {
				if rr.Type == dnswire.TypeRRSIG {
					signed = true
				}
			}
		})
	f.Net.RunFor(6 * f.Net.Latency())
	return signed
}

// ScanDomainDataset synthesizes and scans one Table 4 dataset of n
// domains by fanning population shards out through the experiment
// engine and merging the per-shard results in shard order. A
// cancelled ctx aborts the scan at the next shard boundary.
func ScanDomainDataset(ctx context.Context, spec DomainDatasetSpec, n int, cfg Config) (DomainScanResult, error) {
	job := cfg.job(spec.Name, n)
	parts, err := engine.RunCtx(ctx, job, func(sh engine.Shard) DomainScanResult {
		return ScanDomainFleet(NewDomainFleetShard(spec, sh))
	})
	if err != nil {
		return DomainScanResult{}, err
	}
	res := DomainScanResult{Spec: spec}
	for _, p := range parts {
		res.Merge(p)
	}
	return res, nil
}

// Table4Run builds the Table 4 Report under an explicit execution
// Config; output is byte-identical for any Parallelism. The only
// error source is ctx cancellation mid-sweep.
func Table4Run(ctx context.Context, cfg Config) (*report.Report, []DomainScanResult, error) {
	rep := report.New("table4", "Table 4: vulnerable domains per dataset")
	tbl := rep.AddSection(report.Table("", "Table 4: Vulnerable domains",
		report.Col("Dataset", report.KindString),
		report.Col("Protocol", report.KindString),
		report.Col("BGP sub-prefix", report.KindRatio),
		report.Col("SadDNS", report.KindRatio),
		report.Col("Frag any", report.KindRatio),
		report.Col("Frag global", report.KindRatio),
		report.Col("DNSSEC", report.KindRatio),
		report.Col("Sampled", report.KindInt),
		report.Col("Paper size", report.KindInt)))
	var results []DomainScanResult
	for i, spec := range Table4Datasets() {
		r, err := ScanDomainDataset(ctx, spec, cfg.cap(spec.PaperSize), cfg.forDataset(i))
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
		tbl.Add(spec.Name, spec.Protocols, r.SubPrefix, r.SadDNS, r.FragAny, r.FragGlobal, r.DNSSEC,
			r.Scanned, spec.PaperSize)
	}
	return rep, results, nil
}
