package core

import (
	"net/netip"
	"time"

	"crosslayer/internal/bgp"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/packet"
)

// HijackDNS intercepts the victim resolver's DNS query to the target
// nameserver with a BGP prefix hijack and answers it with spoofed
// records. Because the attacker SEES the query, it simply copies the
// challenge values — success is deterministic once the hijack is
// accepted (Table 6: hitrate 100%, 1 query, 2 packets).
type HijackDNS struct {
	Attacker *netsim.Host
	// HijackPrefix is announced by the attacker's AS; it must cover
	// the nameserver (or resolver) address being intercepted.
	HijackPrefix netip.Prefix
	// NSAddr is the nameserver whose traffic is intercepted.
	NSAddr netip.Addr
	Spoof  Spoof
}

// Run launches the hijack, calls trigger to make the resolver query
// the target, answers the intercepted query, and withdraws. It returns
// after the virtual-time run completes.
func (h *HijackDNS) Run(trigger Trigger) Result {
	net := h.Attacker.Network()
	res := Result{Method: "HijackDNS"}
	start := net.Clock.Now()
	sentBefore := h.Attacker.Sent

	asn := h.Attacker.ASN
	info := net.AS(asn)
	prevInterceptor := info.Interceptor
	answered := false
	var successAt time.Duration
	info.Interceptor = func(ip *packet.IPv4) {
		if answered || ip.Protocol != packet.ProtoUDP || ip.Dst != h.NSAddr {
			return
		}
		u, err := packet.DecodeUDP(ip.Payload, ip.Src, ip.Dst, true)
		if err != nil || u.DstPort != 53 {
			return
		}
		query, err := dnswire.Unpack(u.Payload)
		if err != nil || query.Response || len(query.Questions) == 0 {
			return
		}
		q := query.Question()
		if !dnswire.EqualNames(q.Name, h.Spoof.QName) || q.Type != h.Spoof.QType {
			// Not the query we want: drop it (a production attack
			// would relay it to avoid blackholing alarms; the
			// simulator's detection model does not need that).
			return
		}
		answered = true
		successAt = net.Clock.Now()
		// Craft the spoofed response copying every challenge value
		// from the intercepted query: TXID, the exact (possibly
		// 0x20-encoded) question, source/destination ports.
		resp := &dnswire.Message{
			ID: query.ID, Response: true, Authoritative: true,
			RecursionDesired: query.RecursionDesired,
			Questions:        query.Questions,
			Answers:          h.Spoof.Records,
		}
		if sz, do, ok := query.EDNS(); ok {
			resp.SetEDNS(sz, do)
		}
		wire, err := resp.Pack()
		if err != nil {
			return
		}
		h.Attacker.SendUDPSpoofed(h.NSAddr, 53, ip.Src, u.SrcPort, wire)
	}

	// 1. Announce the hijack.
	if !net.RIB.Announce(h.HijackPrefix, asn) {
		info.Interceptor = prevInterceptor
		res.Detail = "announcement filtered (more specific than /24)"
		return res
	}
	res.AttackerPackets++ // the BGP announcement itself

	// 2. Trigger the query and let the race play out.
	res.QueriesTriggered = 1
	res.Iterations = 1
	trigger(func() {})
	net.Run()

	// 3. Clean up.
	net.RIB.Withdraw(h.HijackPrefix, asn)
	info.Interceptor = prevInterceptor
	res.Success = answered
	res.AttackerPackets += h.Attacker.Sent - sentBefore
	// Duration is the time until the spoofed answer reached the
	// resolver, not until all lingering timers drained.
	res.Duration = net.Clock.Now() - start
	if answered {
		res.Duration = successAt - start + 2*net.Latency()
	}
	if answered {
		res.Detail = "query intercepted, challenge values copied"
	} else if res.Detail == "" {
		res.Detail = "query never crossed the hijacked prefix"
	}
	return res
}

// SamePrefixInterceptionRate runs the §5.1.2 simulation: for n random
// (victim, attacker) pairs over topo, the fraction of observer ASes
// whose route to a same-prefix announcement selects the attacker.
func SamePrefixInterceptionRate(topo *bgp.Topology, prefix netip.Prefix, pairs [][2]bgp.ASN) float64 {
	if len(pairs) == 0 {
		return 0
	}
	observers := topo.ASNs()
	var total float64
	for _, p := range pairs {
		total += bgp.SamePrefixHijackWins(topo, prefix, p[0], p[1], observers)
	}
	return total / float64(len(pairs))
}
