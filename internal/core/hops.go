package core

import (
	"net/netip"

	"crosslayer/internal/netsim"
)

// Hop is one hop of the victim's resolution chain as an attack sees
// it: the querying host (whose socket the attacker must hit), the
// address genuine answers come from (the source a spoofed injection
// must carry), and the properties that decide how hard the hop is to
// attack. §4.3's observation is that a chain is only as strong as its
// weakest hop: a record injected at ANY hop's cache is served to the
// client, so attacks pick their target per-hop instead of assuming the
// recursive resolver is the victim's first hop.
type Hop struct {
	// Host is the querying host under attack at this hop.
	Host *netsim.Host
	// Addr is the hop's address.
	Addr netip.Addr
	// Upstream is where the hop's genuine answers come from — the next
	// hop up the chain (another forwarder, the recursive resolver, or
	// the authoritative nameserver).
	Upstream netip.Addr
	// UDPUpstream, when set, reports whether the hop's upstream
	// queries currently ride plaintext UDP (i.e. expose a spoofable
	// port/TXID surface). nil means plaintext — the pre-transport
	// chains all were.
	UDPUpstream func() bool
	// Opportunistic marks a hop whose encrypted upstream transport
	// falls back to plaintext when the session fails; ForceDowngrade
	// (set alongside it) strips the hop back to UDP, reporting whether
	// anything changed. The active downgrade attack uses both.
	Opportunistic  bool
	ForceDowngrade func() bool
}

// PlaintextUpstream reports whether the hop's upstream currently runs
// over spoofable plaintext UDP.
func (h Hop) PlaintextUpstream() bool {
	return h.UDPUpstream == nil || h.UDPUpstream()
}

// PortSpan returns the size of the hop's ephemeral source-port range —
// the search space a port-inference attack must cover. Hosts with port
// randomisation off expose a single port.
func (h Hop) PortSpan() int {
	if h.Host == nil {
		return 0
	}
	if !h.Host.Cfg.RandomizePorts {
		return 1
	}
	return int(h.Host.Cfg.PortMax) - int(h.Host.Cfg.PortMin) + 1
}

// WeakestPortHop picks the hop a port-inference attack (SadDNS) should
// target: the smallest ephemeral port span, ties going to the hop
// closest to the client (a record planted nearer the client shadows
// every hop behind it). Forwarder hops usually win — embedded devices
// expose ranges orders of magnitude below a server resolver's — which
// is also why resolver-side defenses (0x20, validation) do not protect
// a chain: the injection happens downstream of them.
//
// Hops whose upstream rides a stream transport expose no spoofable
// port at all, so the attack only considers plaintext-UDP hops; on an
// all-encrypted chain it falls back to the overall smallest span and
// runs (honestly) against a surface that does not exist.
func WeakestPortHop(hops []Hop) Hop {
	var best Hop
	found := false
	for _, h := range hops {
		if !h.PlaintextUpstream() {
			continue
		}
		if !found || h.PortSpan() < best.PortSpan() {
			best = h
			found = true
		}
	}
	if found {
		return best
	}
	best = hops[0]
	for _, h := range hops[1:] {
		if h.PortSpan() < best.PortSpan() {
			best = h
		}
	}
	return best
}

// FragmentationHop picks the hop a fragmentation attack (FragDNS)
// should target: the final recursive-resolver hop. Only its upstream —
// the authoritative nameserver — emits responses large enough to
// fragment; a forwarder's upstream is a resolver whose client-facing
// responses carry just the answer RRset, so forwarder hops are never
// candidates regardless of their fragment handling. The poisoned
// record still reaches every per-hop cache when the triggered answer
// flows back down the chain.
func FragmentationHop(hops []Hop) Hop {
	return hops[len(hops)-1]
}
