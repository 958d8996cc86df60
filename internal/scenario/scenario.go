// Package scenario assembles the canonical testbed the paper's §3
// describes: a victim AS operating a recursive resolver and
// application servers, a target domain (vict.im) served by an
// authoritative nameserver in another AS, and an adversarial AS whose
// network does not enforce egress filtering. Attack implementations,
// application victims, measurements and examples all build on it.
package scenario

import (
	"fmt"
	"net/netip"
	"time"

	"crosslayer/internal/bgp"
	"crosslayer/internal/core"
	"crosslayer/internal/deploy"
	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/pool"
	"crosslayer/internal/resolver"
	"crosslayer/internal/sim"
)

// Well-known addresses of the canonical scenario (mirroring the
// paper's Figures 1 and 2).
var (
	ResolverIP = netip.MustParseAddr("30.0.0.1")
	ServiceIP  = netip.MustParseAddr("30.0.0.25")
	ClientIP   = netip.MustParseAddr("30.0.0.30")
	NSIP       = netip.MustParseAddr("123.0.0.53")
	VictimWWW  = netip.MustParseAddr("123.0.0.80")
	VictimMail = netip.MustParseAddr("123.0.0.25")
	AttackerIP = netip.MustParseAddr("6.6.6.6")
	AtkNSIP    = netip.MustParseAddr("6.6.6.53")

	VictimPrefix   = netip.MustParsePrefix("30.0.0.0/22")
	DomainPrefix   = netip.MustParsePrefix("123.0.0.0/22")
	AttackerPrefix = netip.MustParsePrefix("6.6.6.0/24")
)

// AS numbers of the canonical scenario.
const (
	TransitAS  bgp.ASN = 1
	Transit2AS bgp.ASN = 2
	VictimAS   bgp.ASN = 10
	DomainAS   bgp.ASN = 20
	AttackerAS bgp.ASN = 66
	// CarrierAS is the transit carrier the attacker's stub buys access
	// from; PlacementCarrier moves the attacker's hosts into it.
	CarrierAS bgp.ASN = 3
)

// Placement selects where the attacker operates from — the campaign
// matrix's attacker-placement axis.
type Placement int8

// Placement values.
const (
	// PlacementStub is the default: the attacker runs in its own stub
	// AS behind a carrier, like any eyeball customer (the paper's §3
	// setting — off-path, default access latency).
	PlacementStub Placement = iota
	// PlacementCarrier moves the attacker's hosts into the carrier AS
	// itself (a compromised or complicit transit operator): the AS sits
	// on the BGP path position between the stub world and the victim,
	// originates the attacker prefix from tier 2, never deploys SAV,
	// and reaches every target over backbone (not access-link) latency.
	PlacementCarrier
)

// String returns the placement's registry key.
func (p Placement) String() string {
	if p == PlacementCarrier {
		return "carrier"
	}
	return "stub"
}

// ForwarderSpec configures one hop of the victim-side forwarder chain
// (§4.3): an open DNS forwarder the client's queries ride through
// before reaching the recursive resolver.
type ForwarderSpec struct {
	// PortSpan is the size of the hop's ephemeral source-port range;
	// 0 means 64 (embedded forwarder devices expose tiny ranges — the
	// property that makes a forwarder the chain's weakest hop for a
	// port-inference attack).
	PortSpan uint16
	// TTLCap (seconds) clamps TTLs entering the hop's cache; 0 honours
	// upstream TTLs.
	TTLCap uint32
	// NoCache makes the hop a pure relay without a per-hop cache.
	NoCache bool
	// CheckBailiwick enables the hop's name-match response filter.
	CheckBailiwick bool
	// Transport is the hop's upstream transport (zero value: plaintext
	// UDP). Stream transports expose no spoofable port/TXID surface.
	Transport resolver.Transport
	// Opportunistic lets an encrypted hop fall back to plaintext UDP
	// when its upstream session fails — the downgrade-attack surface.
	Opportunistic bool
}

// DefaultForwarderPortSpan is the ephemeral port span a ForwarderSpec
// with PortSpan 0 gets.
const DefaultForwarderPortSpan = 64

// forwarderPortMin is the bottom of every forwarder hop's ephemeral
// range (distinct from the resolver's 32768+ range so port-scan tests
// can tell the two apart).
const forwarderPortMin = 40000

// ForwarderIP returns the address of chain hop i (hop 0 is the entry
// forwarder the client queries).
func ForwarderIP(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{30, 0, 0, byte(40 + i)})
}

// fwdNames precomputes the hop hostnames every chain build would
// otherwise fmt.Sprintf per hop per build; deeper chains than the
// table fall back to formatting.
var fwdNames = func() (names [16]string) {
	for i := range names {
		names[i] = fmt.Sprintf("fwd%d.victim-net", i)
	}
	return
}()

func fwdName(i int) string {
	if i < len(fwdNames) {
		return fwdNames[i]
	}
	return fmt.Sprintf("fwd%d.victim-net", i)
}

// Config tunes scenario construction.
type Config struct {
	Seed int64
	// Profile of the victim resolver (default: BIND).
	Profile resolver.Profile
	// ServerCfg of the target domain's nameserver.
	ServerCfg dnssrv.Config
	// SignVictimZone publishes the victim zone with DNSSEC markers.
	SignVictimZone bool
	// OpenResolver makes the victim resolver answer external clients.
	OpenResolver bool

	// Defenses is the ordered §6 countermeasure pipeline (the campaign
	// matrix's defense axis). New applies each spec in order after
	// every other field is defaulted, so a spec can override the
	// selected profile or server behaviour without editing either —
	// and specs stack: Defenses{Defense0x20(), DefenseShuffle()} builds
	// a scenario hardened by both. See DefenseSpec for the pipeline's
	// ordering and idempotence rules.
	Defenses []DefenseSpec

	// Deployment selects the deployment population the world is
	// sampled from (the campaign's deployment axis): per-AS SAV rates
	// instead of the binary egress-filtering booleans, partial defense
	// deployment on the resolver, and per-hop forwarder port-span /
	// bailiwick distributions. The zero value is the canonical dataset
	// — no sampling, every toggle exactly as configured. Sampling
	// draws from a dedicated splitmix64 stream keyed by the scenario
	// seed in a fixed order (never from the clock's math/rand
	// streams), and Reset re-samples under the trial's seed, so both
	// lifecycles see identical worlds.
	Deployment deploy.Dataset

	// ForwarderChain inserts open DNS forwarders between the client and
	// the recursive resolver (§4.3): the client queries hop 0, hop i
	// relays to hop i+1, and the last hop relays to the resolver. Empty
	// means the client queries the resolver directly (depth 0).
	ForwarderChain []ForwarderSpec
	// Placement selects where the attacker's hosts operate from
	// (default: its own stub AS).
	Placement Placement

	// WirePool, when non-nil, is the wire-buffer arena the scenario's
	// network recycles packet payloads through (netsim.SetWirePool).
	// Trial runners that build many scenarios on one goroutine share a
	// single arena across them so warmed buffer classes carry over;
	// nil keeps the network's private pool. Single-goroutine, like the
	// simulation itself.
	WirePool *pool.Wire
	// EventPool and DeliveryPool are the clock-event and in-flight
	// delivery freelists, shareable across scenarios exactly like
	// WirePool; nil keeps the private per-clock/per-network lists.
	EventPool    *sim.EventPool
	DeliveryPool *netsim.DeliveryPool

	// Proto, when non-nil, memoizes the build artifacts that are
	// identical across scenarios and immutable (or restored) at run
	// time: the placement-keyed topology+RIB pair and the zone RR
	// templates. Like the pools it is single-goroutine state owned by
	// one trial runner. Scenarios built without a Proto behave exactly
	// as before.
	Proto *Proto
}

// Proto caches the scenario build artifacts one trial runner may share
// across the many worlds it assembles: the two placement-keyed
// topology+RIB computations and the immutable zone templates. Zones
// are mutation-free under serving and the RIB is restored to its
// baseline by every S.Reset, so sharing changes no observable
// behaviour.
type Proto struct {
	routing     map[Placement]*protoRouting
	victimZones map[bool]*dnssrv.Zone
	atkZone     *dnssrv.Zone
}

type protoRouting struct {
	topo *bgp.Topology
	rib  *bgp.RIB
	snap *bgp.RIBSnapshot
}

func (p *Proto) routingFor(pl Placement) *protoRouting {
	if p.routing == nil {
		p.routing = make(map[Placement]*protoRouting)
	}
	pr := p.routing[pl]
	if pr == nil {
		topo, rib := buildRouting(pl)
		pr = &protoRouting{topo: topo, rib: rib, snap: rib.Snapshot()}
		p.routing[pl] = pr
	}
	return pr
}

func (p *Proto) victimZone(signed bool) *dnssrv.Zone {
	if p.victimZones == nil {
		p.victimZones = make(map[bool]*dnssrv.Zone)
	}
	z := p.victimZones[signed]
	if z == nil {
		z = BuildVictimZone(signed)
		p.victimZones[signed] = z
	}
	return z
}

func (p *Proto) attackerZone() *dnssrv.Zone {
	if p.atkZone == nil {
		p.atkZone = buildAttackerZone()
	}
	return p.atkZone
}

// buildRouting constructs the BGP layer for a placement: the canonical
// topology (plus the carrier tier when the attacker operates from one)
// and a RIB with the three baseline prefix originations announced.
func buildRouting(pl Placement) (*bgp.Topology, *bgp.RIB) {
	topo := bgp.NewTopology()
	topo.AddAS(TransitAS, 1)
	topo.AddAS(Transit2AS, 1)
	topo.AddPeering(TransitAS, Transit2AS)
	topo.AddAS(VictimAS, 3)
	topo.AddAS(DomainAS, 3)
	topo.AddAS(AttackerAS, 3)
	topo.AddProviderCustomer(TransitAS, VictimAS)
	topo.AddProviderCustomer(TransitAS, DomainAS)
	topo.AddProviderCustomer(Transit2AS, AttackerAS)
	topo.AddProviderCustomer(Transit2AS, DomainAS)
	atkASN := AttackerAS
	if pl == PlacementCarrier {
		// The carrier sits at the BGP path position every route to the
		// attacker's stub crosses: tier 2, peering with both transits,
		// selling access to the stub. The attacker's hosts move into it.
		topo.AddAS(CarrierAS, 2)
		topo.AddPeering(CarrierAS, TransitAS)
		topo.AddPeering(CarrierAS, Transit2AS)
		topo.AddProviderCustomer(CarrierAS, AttackerAS)
		atkASN = CarrierAS
	}
	rib := bgp.NewRIB(topo, nil)
	rib.Announce(VictimPrefix, VictimAS)
	rib.Announce(DomainPrefix, DomainAS)
	rib.Announce(AttackerPrefix, atkASN)
	return topo, rib
}

// buildAttackerZone constructs the attacker's own zone (atk.example).
func buildAttackerZone() *dnssrv.Zone {
	z := dnssrv.NewZone("atk.example.")
	z.Add(
		dnswire.NewSOA("atk.example.", 3600, "ns.atk.example.", "root.atk.example.", 1),
		dnswire.NewNS("atk.example.", 3600, "ns.atk.example."),
		dnswire.NewA("ns.atk.example.", 3600, AtkNSIP),
		dnswire.NewA("atk.example.", 60, AttackerIP),
		dnswire.NewMX("atk.example.", 60, 10, "mail.atk.example."),
		dnswire.NewA("mail.atk.example.", 60, AttackerIP),
	)
	return z
}

// S is an assembled scenario.
type S struct {
	Clock *sim.Clock
	Topo  *bgp.Topology
	RIB   *bgp.RIB
	Net   *netsim.Network

	ResolverHost *netsim.Host
	Resolver     *resolver.Resolver
	NSHost       *netsim.Host
	NS           *dnssrv.Server
	VictimZone   *dnssrv.Zone
	ServiceHost  *netsim.Host // application server in the victim AS
	ClientHost   *netsim.Host // end user in the victim AS
	WWWHost      *netsim.Host // genuine web server of vict.im
	MailHost     *netsim.Host // genuine mail server of vict.im
	Attacker     *netsim.Host
	AtkNSHost    *netsim.Host
	AtkNS        *dnssrv.Server
	// Forwarders is the victim-side chain in client order: Forwarders[0]
	// is the entry hop the client queries (empty at depth 0).
	Forwarders []*resolver.Forwarder
	// AttackerASN is the AS the attacker's hosts operate from —
	// AttackerAS for PlacementStub, CarrierAS for PlacementCarrier.
	AttackerASN bgp.ASN

	// ribSnap is the routing baseline Reset restores; captured at
	// build time for memoized RIBs and by Snapshot otherwise.
	ribSnap *bgp.RIBSnapshot

	// deployment is the population the world samples per trial; the
	// base* fields capture the resolver's post-defense configuration
	// so per-trial sampling composes with the defense pipeline as
	// downgrade-only probabilistic application (a dataset can withhold
	// a configured defense, never invent one).
	deployment   deploy.Dataset
	base0x20     bool
	baseValidate bool
}

// New assembles the canonical scenario.
func New(cfg Config) *S {
	if cfg.Profile.Name == "" {
		cfg.Profile = resolver.ProfileBIND
	}
	defaultServer(&cfg)
	applyDefenses(&cfg)
	clock := sim.NewClock(cfg.Seed)
	clock.SetEventPool(cfg.EventPool)
	atkASN := AttackerAS
	if cfg.Placement == PlacementCarrier {
		atkASN = CarrierAS
	}
	var topo *bgp.Topology
	var rib *bgp.RIB
	var ribSnap *bgp.RIBSnapshot
	if cfg.Proto != nil {
		pr := cfg.Proto.routingFor(cfg.Placement)
		topo, rib, ribSnap = pr.topo, pr.rib, pr.snap
		// The memoized RIB is shared across every cell this worker
		// runs; restore its baseline (a compare-only no-op when the
		// previous user's attacks withdrew cleanly) so a world straight
		// out of New never sees a neighbour's leftover routes.
		rib.Restore(ribSnap)
	} else {
		topo, rib = buildRouting(cfg.Placement)
	}
	net := netsim.New(clock, topo, rib)
	if cfg.WirePool != nil {
		net.SetWirePool(cfg.WirePool)
	}
	net.SetDeliveryPool(cfg.DeliveryPool)

	s := &S{Clock: clock, Topo: topo, RIB: rib, Net: net, AttackerASN: atkASN, ribSnap: ribSnap}
	s.ResolverHost = net.AddHost("resolver.victim-net", VictimAS, ResolverIP)
	s.ServiceHost = net.AddHost("service.victim-net", VictimAS, ServiceIP)
	s.ClientHost = net.AddHost("client.victim-net", VictimAS, ClientIP)
	s.NSHost = net.AddHost("ns1.vict.im", DomainAS, NSIP)
	s.WWWHost = net.AddHost("www.vict.im", DomainAS, VictimWWW)
	s.MailHost = net.AddHost("mail.vict.im", DomainAS, VictimMail)
	s.Attacker = net.AddHost("attacker", atkASN, AttackerIP)
	s.AtkNSHost = net.AddHost("ns.atk.example", atkASN, AtkNSIP)
	net.AS(atkASN).EgressFiltering = false
	if cfg.Placement == PlacementCarrier {
		// Backbone access: the carrier reaches everyone faster than a
		// stub behind a default access link.
		net.AS(CarrierAS).AccessLatency = 3 * time.Millisecond
	}

	var atkZone *dnssrv.Zone
	if cfg.Proto != nil {
		s.VictimZone = cfg.Proto.victimZone(cfg.SignVictimZone)
		atkZone = cfg.Proto.attackerZone()
	} else {
		s.VictimZone = BuildVictimZone(cfg.SignVictimZone)
		atkZone = buildAttackerZone()
	}
	s.NS = dnssrv.New(s.NSHost, cfg.ServerCfg)
	s.NS.AddZone(s.VictimZone)
	s.AtkNS = dnssrv.New(s.AtkNSHost, dnssrv.DefaultConfig())
	s.AtkNS.AddZone(atkZone)

	s.Resolver = resolver.New(s.ResolverHost, cfg.Profile)
	s.Resolver.Open = cfg.OpenResolver
	s.Resolver.AddZoneServer("vict.im.", NSIP)
	s.Resolver.AddZoneServer("atk.example.", AtkNSIP)
	if cfg.SignVictimZone {
		s.Resolver.SetKnownSigned("vict.im.", true)
	}

	// Forwarder chain, built from the resolver outward: hop i relays to
	// hop i+1, the last hop relays to the resolver, the client queries
	// hop 0. Every hop is an open forwarder in the victim network (the
	// home-router/CPE population of §4.3) with its own ephemeral port
	// range and, unless disabled, a per-hop cache.
	if n := len(cfg.ForwarderChain); n > 0 {
		s.Forwarders = make([]*resolver.Forwarder, n)
		for i := n - 1; i >= 0; i-- {
			spec := cfg.ForwarderChain[i]
			upstream := ResolverIP
			if i < n-1 {
				upstream = ForwarderIP(i + 1)
			}
			host := net.AddHost(fwdName(i), VictimAS, ForwarderIP(i))
			span := spec.PortSpan
			if span == 0 {
				span = DefaultForwarderPortSpan
			}
			host.Cfg.PortMin = forwarderPortMin
			host.Cfg.PortMax = forwarderPortMin + span - 1
			if spec.NoCache {
				s.Forwarders[i] = resolver.NewForwarder(host, upstream)
			} else {
				s.Forwarders[i] = resolver.NewCachingForwarder(host, upstream, spec.TTLCap, spec.CheckBailiwick)
			}
			s.Forwarders[i].Transport = spec.Transport
			s.Forwarders[i].Opportunistic = spec.Opportunistic
		}
	}

	// Deployment sampling runs last: the canonical world above is the
	// baseline a dataset draws concrete worlds from, and the captured
	// post-defense resolver flags are what partial defense deployment
	// downgrades from. Reset re-runs the same draws under the trial's
	// seed.
	s.deployment = cfg.Deployment
	s.base0x20 = s.Resolver.Prof.Use0x20
	s.baseValidate = s.Resolver.Prof.ValidateDNSSEC
	s.applyDeployment(cfg.Seed)
	return s
}

// deploySalt decorrelates the deployment sampling stream from the
// clock seed (the same int64 feeds both).
const deploySalt = 0x6465706c6f79 // "deploy"

// applyDeployment samples this trial's concrete world from the
// scenario's deployment dataset: per-AS egress filtering, the
// resolver's effectively deployed defenses, and each forwarder hop's
// port span and bailiwick behaviour. Draws come from a dedicated
// splitmix64 stream in fixed creation order — ordinary ASes, the
// attacker's operating AS, resolver flags, then hops in client order —
// so a Reset(seed) reproduces exactly the world a fresh New with that
// seed would sample. Every sampled field is overwritten absolutely,
// which makes the draw idempotent against whatever the previous trial
// sampled. The canonical dataset returns without touching anything.
func (s *S) applyDeployment(seed int64) {
	d := s.deployment
	if d.Canonical() {
		return
	}
	rng := deploy.NewRand(seed ^ deploySalt)
	// Ordinary ASes draw from the population SAV rate; the attacker's
	// operating AS from the (much lower) rate of networks attackers
	// manage to operate from. The canonical world's hard booleans
	// (everyone filters, the attacker's AS never does) are the
	// rate-1/rate-0 corner of this draw.
	for _, asn := range []bgp.ASN{TransitAS, Transit2AS, VictimAS, DomainAS} {
		s.Net.AS(asn).EgressFiltering = d.SAV.Sample(rng)
	}
	s.Net.AS(s.AttackerASN).EgressFiltering = d.AttackerSAV.Sample(rng)
	// Partial defense deployment: draw unconditionally (fixed draw
	// count), apply downgrade-only against the post-defense baseline.
	keep0x20 := d.Use0x20.Sample(rng)
	keepValidate := d.ValidateDNSSEC.Sample(rng)
	s.Resolver.Prof.Use0x20 = s.base0x20 && keep0x20
	s.Resolver.Prof.ValidateDNSSEC = s.baseValidate && keepValidate
	// Forwarder population: each hop draws its device class's port
	// span (plus jitter) and whether it bothers with bailiwick
	// filtering, replacing the canonical chain constants.
	for _, f := range s.Forwarders {
		span := d.PortSpan.Sample(rng) + uint16(d.SpanJitter.Sample(rng))
		if span == 0 {
			span = DefaultForwarderPortSpan
		}
		f.Host.Cfg.PortMin = forwarderPortMin
		f.Host.Cfg.PortMax = forwarderPortMin + span - 1
		f.CheckBailiwick = d.Bailiwick.Sample(rng)
	}
}

// DNSAddr returns the server the victim's client-side applications
// query: the entry forwarder when a chain is configured, otherwise the
// recursive resolver.
func (s *S) DNSAddr() netip.Addr {
	if len(s.Forwarders) > 0 {
		return s.Forwarders[0].Host.Addr
	}
	return ResolverIP
}

// BuildVictimZone constructs vict.im with the record types Table 1's
// applications consume.
func BuildVictimZone(signed bool) *dnssrv.Zone {
	z := dnssrv.NewZone("vict.im.")
	z.Signed = signed
	z.Add(
		dnswire.NewSOA("vict.im.", 3600, "ns1.vict.im.", "hostmaster.vict.im.", 2021082301),
		dnswire.NewNS("vict.im.", 3600, "ns1.vict.im."),
		dnswire.NewA("ns1.vict.im.", 3600, NSIP),
		dnswire.NewA("vict.im.", 300, VictimWWW),
		dnswire.NewA("www.vict.im.", 300, VictimWWW),
		dnswire.NewMX("vict.im.", 300, 10, "mail.vict.im."),
		dnswire.NewA("mail.vict.im.", 300, VictimMail),
		dnswire.NewTXT("vict.im.", 300, "v=spf1 ip4:123.0.0.0/22 -all"),
		dnswire.NewTXT("_dmarc.vict.im.", 300, "v=DMARC1; p=reject"),
		dnswire.NewTXT("sel1._domainkey.vict.im.", 300, "v=DKIM1; k=rsa; p=MIGfMA0GCSq"),
		dnswire.NewSRV("_xmpp-server._tcp.vict.im.", 300, 5, 0, 5269, "www.vict.im."),
		dnswire.NewNAPTR("vict.im.", 300, 100, 10, "s", "x-eduroam:radius.tls", "_radsec._tcp.vict.im."),
		dnswire.NewSRV("_radsec._tcp.vict.im.", 300, 0, 0, 2083, "www.vict.im."),
		dnswire.NewA("ntp.vict.im.", 300, VictimWWW),
		dnswire.NewA("vpn.vict.im.", 300, VictimWWW),
		dnswire.NewA("ocsp.vict.im.", 300, VictimWWW),
		dnswire.NewA("rpki.vict.im.", 300, VictimWWW),
		dnswire.NewA("seed.vict.im.", 300, VictimWWW),
	)
	return z
}

// Run drains the event queue.
func (s *S) Run() { s.Net.Run() }

// Snapshot records the post-build state Reset rewinds to: every host's
// config and port bindings, plus the routing baseline. Call once, after
// New and any scenario-level customization (deployed defenses, stamped
// transports), before traffic runs. Opt-in so builds that never reset
// don't pay for it.
func (s *S) Snapshot() {
	s.Net.Snapshot()
	if s.ribSnap == nil {
		s.ribSnap = s.RIB.Snapshot()
	}
}

// Reset rewinds the assembled world to its snapshotted post-build
// state and reseeds it, so the same scenario value runs another trial
// exactly as a fresh New(cfg with Seed: seed) build would: the clock
// restarts at zero with replayed per-host random streams, hosts drop
// all ephemeral state, routing returns to baseline, the resolver,
// forwarder hops and both nameservers rewind caches / inflight work /
// downgrade state / counters, and warmed pools (wire buffers, event
// nodes, delivery nodes) carry over. Snapshot must have been called.
func (s *S) Reset(seed int64) {
	s.Net.Reset(seed)
	s.RIB.Restore(s.ribSnap)
	s.Resolver.Reset()
	for _, f := range s.Forwarders {
		f.Reset()
	}
	s.NS.Reset()
	s.AtkNS.Reset()
	// Re-sample the deployment draws under this trial's seed, after
	// every baseline restore above — the same last-word position the
	// sampling holds in New.
	s.applyDeployment(seed)
}

// Poisoned reports whether (name, typ) in the victim resolver's cache
// resolves to an attacker-controlled address — the ground-truth check
// every experiment uses.
func (s *S) Poisoned(name string, typ dnswire.Type) bool {
	rrs, neg, ok := s.Resolver.Cache.Get(name, typ)
	if !ok || neg {
		return false
	}
	return AttackerOwned(rrs)
}

// ChainPoisoned reports whether the resolution chain, as the victim's
// client sees it, serves an attacker-controlled record for (name, typ):
// hops are walked in client order and the first hop holding a cached
// answer decides (exactly how a client query would be answered), with
// the recursive resolver's cache as the final hop. At depth 0 this is
// Poisoned.
func (s *S) ChainPoisoned(name string, typ dnswire.Type) bool {
	for _, f := range s.Forwarders {
		if f.Cache == nil {
			continue
		}
		if rrs, neg, ok := f.Cache.Get(name, typ); ok {
			if neg {
				return false
			}
			return AttackerOwned(rrs)
		}
	}
	return s.Poisoned(name, typ)
}

// AttackerOwned reports whether any record of the set points into the
// attacker's address space or zone.
func AttackerOwned(rrs []*dnswire.RR) bool {
	for _, rr := range rrs {
		switch d := rr.Data.(type) {
		case *dnswire.AData:
			if AttackerPrefix.Contains(d.Addr) {
				return true
			}
		case *dnswire.MXData:
			if dnswire.InBailiwick(d.Host, "atk.example.") {
				return true
			}
		case *dnswire.NSData:
			if dnswire.InBailiwick(d.Host, "atk.example.") {
				return true
			}
		}
	}
	return false
}

// Hops returns the victim's resolution chain in client order, in the
// attack layer's hop model: every forwarder hop, then the recursive
// resolver (whose upstream is the target domain's nameserver). Each
// hop reports its live upstream transport, so targeting sees a
// downgrade the moment it lands.
func (s *S) Hops() []core.Hop {
	hops := make([]core.Hop, 0, len(s.Forwarders)+1)
	for _, f := range s.Forwarders {
		f := f
		hops = append(hops, core.Hop{
			Host: f.Host, Addr: f.Host.Addr, Upstream: f.Upstream,
			UDPUpstream:    func() bool { return f.EffectiveTransport() == resolver.TransportUDP },
			Opportunistic:  f.Opportunistic,
			ForceDowngrade: f.ForceDowngrade,
		})
	}
	r := s.Resolver
	return append(hops, core.Hop{
		Host: s.ResolverHost, Addr: ResolverIP, Upstream: NSIP,
		UDPUpstream:    func() bool { return r.EffectiveTransport() == resolver.TransportUDP },
		Opportunistic:  r.Prof.Opportunistic,
		ForceDowngrade: r.ForceDowngrade,
	})
}
