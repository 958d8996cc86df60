package measure

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/engine"
	"crosslayer/internal/packet"
	"crosslayer/internal/report"
	"crosslayer/internal/resolver"
	"crosslayer/internal/stats"
)

// ResolverScanResult is the measured vulnerability of one fleet shard,
// or — after Merge — of a whole dataset. All fields combine across
// shards: counters add, sample vectors concatenate in shard order.
type ResolverScanResult struct {
	Spec      ResolverDatasetSpec
	Scanned   int
	SubPrefix stats.Counter
	SadDNS    stats.Counter
	Frag      stats.Counter
	// EDNSSizes holds the EDNS buffer size each resolver advertised
	// toward the test nameserver (Figure 4's left curve), in resolver
	// order; resolvers that never queried the test NS contribute
	// nothing.
	EDNSSizes []float64
	// Membership bit-vectors for Figure 5 (bit0 hijack, bit1 saddns,
	// bit2 frag).
	Membership []uint8
}

// Merge folds another shard's result (covering a disjoint slice of the
// same dataset) into r. Counters merge order-independently; sample
// vectors concatenate, so merging shards in index order keeps output
// deterministic for any worker count.
func (r *ResolverScanResult) Merge(o ResolverScanResult) {
	r.Scanned += o.Scanned
	r.SubPrefix = r.SubPrefix.Plus(o.SubPrefix)
	r.SadDNS = r.SadDNS.Plus(o.SadDNS)
	r.Frag = r.Frag.Plus(o.Frag)
	r.EDNSSizes = append(r.EDNSSizes, o.EDNSSizes...)
	r.Membership = append(r.Membership, o.Membership...)
}

// ScanResolverFleet runs the three §5.1.2 measurements against every
// resolver in the fleet shard.
func ScanResolverFleet(f *ResolverFleet) ResolverScanResult {
	res := ResolverScanResult{Spec: f.Spec, Scanned: len(f.Resolvers)}

	// Server-side EDNS observation during the frag scan.
	ednsByResolver := map[netip.Addr]float64{}
	f.TestSrv.Observe = func(q *dnswire.Message, src netip.Addr, transport string) {
		if transport != "udp" {
			return
		}
		size := 512.0
		if sz, _, ok := q.EDNS(); ok {
			size = float64(sz)
		}
		ednsByResolver[src] = size
	}

	for _, sr := range f.Resolvers {
		var bits uint8
		sub := scanSubPrefix(sr)
		res.SubPrefix.Observe(sub)
		if sub {
			bits |= 1
		}
		sad := scanSadDNS(f, sr)
		res.SadDNS.Observe(sad)
		if sad {
			bits |= 2
		}
		frag := scanFrag(f, sr)
		res.Frag.Observe(frag)
		if frag {
			bits |= 4
		}
		res.Membership = append(res.Membership, bits)
	}
	// Collect in resolver order (not map order) so the merged sample
	// vector — and everything rendered from it — is deterministic.
	for _, sr := range f.Resolvers {
		if sz, ok := ednsByResolver[sr.Host.Addr]; ok {
			res.EDNSSizes = append(res.EDNSSizes, sz)
		}
	}
	f.TestSrv.Observe = nil
	return res
}

// scanSubPrefix is the paper's RouteViews analysis: a resolver is
// sub-prefix hijackable iff the covering announcement is shorter than
// /24 (a /24 or longer cannot be out-specificed through common
// filters).
func scanSubPrefix(sr *SimResolver) bool {
	return sr.AnnouncedPrefix.Bits() < 24
}

// scanSadDNS tests the global ICMP rate limit: first an ICMP echo for
// liveness, then one full bucket of spoofed probes to closed ports
// followed by a verification probe from the prober's own address. A
// suppressed verification means the spoofed probes and the prober
// share one global bucket — the side channel exists.
//
// No clock alignment is needed between resolvers: each resolver host
// has its own token bucket, echo replies consume no tokens, and the
// probe burst plus verification are all sent at one virtual instant,
// so they arrive — and draw tokens — inside a single rate-limit
// window wherever that instant falls.
func scanSadDNS(f *ResolverFleet, sr *SimResolver) bool {
	target := sr.Host.Addr

	alive := false
	f.Prober.OnICMP(func(src netip.Addr, msg *packet.ICMP) {
		if src == target && msg.Type == packet.ICMPTypeEchoReply {
			alive = true
		}
	})
	f.Prober.Ping(target, uint16(sr.Index), 1)
	f.Net.RunFor(4 * f.Net.Latency())
	if !alive {
		f.Prober.OnICMP(nil)
		return false
	}

	verified := false
	f.Prober.OnICMP(func(src netip.Addr, msg *packet.ICMP) {
		if src == target && msg.IsPortUnreachable() {
			verified = true
		}
	})
	// 50 spoofed probes (source = test NS) to closed low ports, as one
	// scan, then the verification probe, all within one window (FIFO
	// ordering).
	var ports [50]uint16
	for i := range ports {
		ports[i] = 700 + uint16(i)
	}
	f.Prober.SendUDPScan(f.TestNS.Addr, 53, target, ports[:], []byte("probe"))
	f.Prober.SendUDP(999, target, 751, []byte("verify"))
	f.Net.RunFor(4 * f.Net.Latency())
	f.Prober.OnICMP(nil)
	return !verified
}

// scanFrag is the paper's custom-nameserver probe: the test NS
// fragments a padded CNAME response toward the resolver; only a
// resolver that reassembles AND accepts it over UDP will come back
// with a query for the CNAME target. A TCP re-query means truncation
// fallback, not fragment acceptance.
func scanFrag(f *ResolverFleet, sr *SimResolver) bool {
	aliasName := fmt.Sprintf("frag-%d.test.example.", sr.Index)
	targetName := fmt.Sprintf("target-%d.test.example.", sr.Index)

	sawTargetUDP := false
	sawAliasTCP := false
	prevObserve := f.TestSrv.Observe
	f.TestSrv.Observe = func(q *dnswire.Message, src netip.Addr, transport string) {
		if prevObserve != nil {
			prevObserve(q, src, transport)
		}
		if src != sr.Host.Addr {
			return
		}
		name := q.Question().Name
		if transport == "udp" && dnswire.EqualNames(name, targetName) {
			sawTargetUDP = true
		}
		if transport == "tcp" && dnswire.EqualNames(name, aliasName) {
			sawAliasTCP = true
		}
	}
	// Force fragmentation toward this resolver (the measurement owns
	// the NS, §5.1.2).
	f.TestNS.SetPMTU(sr.Host.Addr, 576)

	resolver.StubLookup(f.Prober, sr.Host.Addr, aliasName, dnswire.TypeA, 15*time.Second,
		func([]*dnswire.RR, error) {})
	f.Net.Run()
	f.TestSrv.Observe = prevObserve
	return sawTargetUDP && !sawAliasTCP
}

// ScanResolverDataset synthesizes and scans one Table 3 dataset of n
// resolvers by fanning population shards out through the experiment
// engine and merging the per-shard results in shard order. A
// cancelled ctx aborts the scan at the next shard boundary.
func ScanResolverDataset(ctx context.Context, spec ResolverDatasetSpec, n int, cfg Config) (ResolverScanResult, error) {
	job := cfg.job(spec.Name, n)
	parts, err := engine.RunCtx(ctx, job, func(sh engine.Shard) ResolverScanResult {
		return ScanResolverFleet(NewResolverFleetShard(spec, sh))
	})
	if err != nil {
		return ResolverScanResult{}, err
	}
	res := ResolverScanResult{Spec: spec}
	for _, p := range parts {
		res.Merge(p)
	}
	return res, nil
}

// Table3Run builds the Table 3 Report under an explicit execution
// Config: each dataset is sharded and scanned in parallel, with
// byte-identical output for any Parallelism. The only error source is
// ctx cancellation mid-sweep.
func Table3Run(ctx context.Context, cfg Config) (*report.Report, []ResolverScanResult, error) {
	rep := report.New("table3", "Table 3: vulnerable resolvers per dataset")
	tbl := rep.AddSection(report.Table("", "Table 3: Vulnerable resolvers",
		report.Col("Dataset", report.KindString),
		report.Col("Protocol", report.KindString),
		report.Col("BGP sub-prefix", report.KindRatio),
		report.Col("SadDNS", report.KindRatio),
		report.Col("Fragment", report.KindRatio),
		report.Col("Sampled", report.KindInt),
		report.Col("Paper size", report.KindInt)))
	var results []ResolverScanResult
	for i, spec := range Table3Datasets() {
		r, err := ScanResolverDataset(ctx, spec, cfg.cap(spec.PaperSize), cfg.forDataset(i))
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
		tbl.Add(spec.Name, spec.Protocols, r.SubPrefix, r.SadDNS, r.Frag, r.Scanned, spec.PaperSize)
	}
	return rep, results, nil
}
