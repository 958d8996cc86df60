package scenario

import (
	"net/netip"

	"crosslayer/internal/core"
	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
)

// Effort bounds an attack built by S.SadDNS or S.FragDNS. A zero field
// keeps the attack's own default.
type Effort struct {
	// Ports, when positive, narrows the recursive resolver's ephemeral
	// range to its lowest Ports ports before SadDNS picks its hop (the
	// paper's resolvers expose ~28k ports; the scan cost is linear in
	// the range and the side channel identical).
	Ports int
	// MaxIterations bounds the triggered queries.
	MaxIterations int
	// IPIDGuesses is FragDNS's planted-fragment window per iteration.
	IPIDGuesses int
}

// nsHijackPrefix is the more-specific /24 of DomainPrefix that covers
// the target nameserver — what a sub-prefix hijack announces.
var nsHijackPrefix = netip.PrefixFrom(NSIP, 24).Masked()

// OpenSadDNS opens the SadDNS attack surface on a config under
// construction: the nameserver's response-rate limiting at 10 QPS,
// the muting lever the side channel needs.
func OpenSadDNS(cfg *Config) {
	defaultServer(cfg)
	cfg.ServerCfg.RateLimit = true
	cfg.ServerCfg.RateLimitQPS = 10
}

// OpenFragDNS opens the FragDNS attack surface on a config under
// construction: responses padded to 1200 bytes, so a reduced path MTU
// fragments them.
func OpenFragDNS(cfg *Config) {
	defaultServer(cfg)
	cfg.ServerCfg.PadAnswersTo = 1200
}

// defaultServer fills in the default server configuration when cfg
// has none.
func defaultServer(cfg *Config) {
	if cfg.ServerCfg == (dnssrv.Config{}) {
		cfg.ServerCfg = dnssrv.DefaultConfig()
	}
}

// HijackDNS builds the sub-prefix hijack of the nameserver's block
// that answers the intercepted query for qname with the attacker's
// address (§3.1).
func (s *S) HijackDNS(qname string) *core.HijackDNS {
	return &core.HijackDNS{
		Attacker:     s.Attacker,
		HijackPrefix: nsHijackPrefix,
		NSAddr:       NSIP,
		Spoof:        spoofA(qname),
	}
}

// SadDNS builds the ICMP side-channel attack on qname (§3.2). It
// targets the chain's weakest hop: a forwarder's tiny ephemeral range
// beats the resolver's, and injecting there bypasses every
// resolver-side defense. The spoofed responses claim the hop's
// upstream as their source, while the nameserver stays the mute
// target — with it silenced the whole chain keeps its sockets open.
func (s *S) SadDNS(qname string, e Effort) *core.SadDNS {
	if e.Ports > 0 {
		s.ResolverHost.Cfg.PortMax = s.ResolverHost.Cfg.PortMin + uint16(e.Ports-1)
	}
	target := core.WeakestPortHop(s.Hops())
	return &core.SadDNS{
		Attacker:      s.Attacker,
		ResolverAddr:  target.Addr,
		NSAddr:        NSIP,
		SpoofSource:   target.Upstream,
		Spoof:         spoofA(qname),
		PortMin:       target.Host.Cfg.PortMin,
		PortMax:       target.Host.Cfg.PortMax,
		MuteQPS:       2 * s.NS.Cfg.RateLimitQPS,
		MaxIterations: e.MaxIterations,
		CheckSuccess:  func() bool { return s.ChainPoisoned(qname, dnswire.TypeA) },
	}
}

// FragDNS builds the fragmentation attack on qname (§3.3). It targets
// core.FragmentationHop, the recursive resolver, since only the
// authoritative's padded responses fragment; the poisoned record
// still floods every per-hop cache on the way back down. The template
// fetch copies the resolver's EDNS size and DO bit from its profile,
// so the predicted bytes match what the resolver receives, and the
// attack predicts IP-IDs unless the nameserver draws them at random.
func (s *S) FragDNS(qname string, e Effort) *core.FragDNS {
	target := core.FragmentationHop(s.Hops())
	return &core.FragDNS{
		Attacker:      s.Attacker,
		ResolverAddr:  target.Addr,
		NSAddr:        target.Upstream,
		QName:         qname,
		QType:         dnswire.TypeA,
		SpoofAddr:     AttackerIP,
		ForcedMTU:     68,
		ResolverEDNS:  s.Resolver.Prof.EDNSSize,
		ResolverDO:    s.Resolver.Prof.ValidateDNSSEC,
		PredictIPID:   s.NSHost.Cfg.IPIDMode != netsim.IPIDRandom,
		IPIDGuesses:   e.IPIDGuesses,
		MaxIterations: e.MaxIterations,
		CheckSuccess:  func() bool { return s.ChainPoisoned(qname, dnswire.TypeA) },
	}
}

// Trigger makes the victim's client look up qname's A record through
// its resolution chain — the query every attack above races.
func (s *S) Trigger(qname string) core.Trigger {
	return core.TriggerDirect(s.ClientHost, s.DNSAddr(), qname, dnswire.TypeA)
}

// spoofA is the record HijackDNS and SadDNS plant: qname's A record
// pointing at the attacker's host (FragDNS patches the same address
// into the genuine answer).
func spoofA(qname string) core.Spoof {
	return core.Spoof{QName: qname, QType: dnswire.TypeA,
		Records: []*dnswire.RR{dnswire.NewA(qname, 300, AttackerIP)}}
}
