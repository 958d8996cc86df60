// Package bgp implements the inter-domain routing substrate: an
// AS-level topology with customer/provider/peer relationships, BGP
// announcement propagation under the Gao–Rexford policy model, route
// selection, sub-prefix and same-prefix hijacks, and RPKI route-origin
// validation (ROV) filtering.
//
// This re-implements the simulator methodology the paper uses for its
// same-prefix hijack evaluation (§5.1.2: Gao–Rexford compliant paths
// over a CAIDA-like topology, attacker wins ~80% of random pairs) and
// provides the forwarding decisions the packet-level network simulator
// consults for every datagram.
package bgp

import (
	"fmt"
	"net/netip"
	"sort"
)

// ASN is an autonomous-system number.
type ASN uint32

// Relationship between two ASes, from the perspective of the first.
type Relationship int8

// Relationship values.
const (
	RelCustomer Relationship = iota // the neighbour is my customer
	RelPeer
	RelProvider // the neighbour is my provider
)

// RouteKind records how a route was learned, which drives Gao–Rexford
// preference (customer > peer > provider).
type RouteKind int8

// RouteKind values, ordered by decreasing preference.
const (
	KindOrigin RouteKind = iota
	KindCustomer
	KindPeer
	KindProvider
)

func (k RouteKind) String() string {
	switch k {
	case KindOrigin:
		return "origin"
	case KindCustomer:
		return "customer"
	case KindPeer:
		return "peer"
	case KindProvider:
		return "provider"
	}
	return "?"
}

// AS is one autonomous system.
type AS struct {
	ASN       ASN
	Tier      int  // 1 = tier-1 clique, 2 = transit, 3 = stub
	ROV       bool // enforces route-origin validation
	providers []ASN
	customers []ASN
	peers     []ASN
}

// Peers returns the AS's peer ASNs.
func (a *AS) Peers() []ASN { return a.peers }

// Topology is an AS-level graph.
type Topology struct {
	ases map[ASN]*AS
}

// NewTopology returns an empty topology.
func NewTopology() *Topology { return &Topology{ases: make(map[ASN]*AS)} }

// AddAS creates an AS; it panics on duplicates (topology construction
// bugs should fail loudly).
func (t *Topology) AddAS(asn ASN, tier int) *AS {
	if _, ok := t.ases[asn]; ok {
		panic(fmt.Sprintf("bgp: duplicate AS %d", asn))
	}
	a := &AS{ASN: asn, Tier: tier}
	t.ases[asn] = a
	return a
}

// AS returns the AS with the given number, or nil.
func (t *Topology) AS(asn ASN) *AS { return t.ases[asn] }

// Len returns the number of ASes.
func (t *Topology) Len() int { return len(t.ases) }

// ASNs returns all AS numbers in ascending order.
func (t *Topology) ASNs() []ASN {
	out := make([]ASN, 0, len(t.ases))
	for a := range t.ases {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddProviderCustomer records that provider sells transit to customer.
func (t *Topology) AddProviderCustomer(provider, customer ASN) {
	p, c := t.ases[provider], t.ases[customer]
	if p == nil || c == nil {
		panic(fmt.Sprintf("bgp: link %d->%d references unknown AS", provider, customer))
	}
	p.customers = append(p.customers, customer)
	c.providers = append(c.providers, provider)
}

// AddPeering records a settlement-free peering between a and b.
func (t *Topology) AddPeering(a, b ASN) {
	pa, pb := t.ases[a], t.ases[b]
	if pa == nil || pb == nil {
		panic(fmt.Sprintf("bgp: peering %d--%d references unknown AS", a, b))
	}
	pa.peers = append(pa.peers, b)
	pb.peers = append(pb.peers, a)
}

// Announcement is one BGP origination.
type Announcement struct {
	Prefix netip.Prefix
	Origin ASN
}

// Route is the route an AS selected toward a prefix.
type Route struct {
	Origin  ASN
	NextHop ASN // neighbour the route was learned from (== self for origin)
	Kind    RouteKind
	PathLen int // AS-path length including origin
}

// better reports whether r should be preferred over cur under
// Gao–Rexford + shortest-path + lowest-next-hop tiebreak.
func (r Route) better(cur *Route) bool {
	if cur == nil {
		return true
	}
	if r.Kind != cur.Kind {
		return r.Kind < cur.Kind
	}
	if r.PathLen != cur.PathLen {
		return r.PathLen < cur.PathLen
	}
	return r.NextHop < cur.NextHop
}

// ROA is a Route Origin Authorization.
type ROA struct {
	Prefix    netip.Prefix
	Origin    ASN
	MaxLength int
}

// Validity is the RPKI validation state of an announcement.
type Validity int8

// Validity values (RFC 6811).
const (
	ValidityUnknown Validity = iota
	ValidityValid
	ValidityInvalid
)

func (v Validity) String() string {
	switch v {
	case ValidityValid:
		return "valid"
	case ValidityInvalid:
		return "invalid"
	}
	return "unknown"
}

// Validate returns the RPKI validity of ann against a ROA set. An
// empty or nil ROA set — e.g. after the paper's RPKI cache-poisoning
// downgrade leaves the relying party without data — yields unknown for
// everything, which ROV-enforcing routers treat as acceptable.
func Validate(ann Announcement, roas []ROA) Validity {
	covered := false
	for _, roa := range roas {
		if !roa.Prefix.Overlaps(ann.Prefix) || roa.Prefix.Bits() > ann.Prefix.Bits() {
			continue // ROA does not cover the announced prefix
		}
		if !roa.Prefix.Contains(ann.Prefix.Addr()) {
			continue
		}
		covered = true
		maxLen := roa.MaxLength
		if maxLen == 0 {
			maxLen = roa.Prefix.Bits()
		}
		if roa.Origin == ann.Origin && ann.Prefix.Bits() <= maxLen {
			return ValidityValid
		}
	}
	if covered {
		return ValidityInvalid
	}
	return ValidityUnknown
}

// ROAView supplies the ROA set a given AS's relying party currently
// holds. The RPKI downgrade attack is modelled by this function
// returning nil for the victim AS.
type ROAView func(asn ASN) []ROA

// Propagate floods the announcements for one prefix through the
// topology under Gao–Rexford export rules and returns each AS's
// selected route. Multiple announcements model a hijack: the victim
// and the attacker originate the same prefix, and each AS converges on
// whichever origin its policy prefers. roaView may be nil (no ROV
// anywhere).
//
// Export rules: routes learned from customers (or originated) are
// exported to all neighbours; routes learned from peers or providers
// are exported only to customers. Selection: customer > peer >
// provider, then shortest path, then lowest next-hop ASN.
func (t *Topology) Propagate(anns []Announcement, roaView ROAView) map[ASN]Route {
	best := make(map[ASN]Route, len(t.ases))
	has := make(map[ASN]bool, len(t.ases))

	accept := func(asn ASN, ann Announcement) bool {
		a := t.ases[asn]
		if a == nil || !a.ROV || roaView == nil {
			return true
		}
		return Validate(ann, roaView(asn)) != ValidityInvalid
	}

	// Per-origin BFS in three Gao–Rexford phases; candidate routes are
	// merged through Route.better so multiple origins compete fairly.
	type cand struct {
		asn   ASN
		route Route
		ann   Announcement
	}
	consider := func(c cand) bool {
		if !accept(c.asn, c.ann) {
			return false
		}
		cur, ok := best[c.asn]
		var curp *Route
		if ok {
			curp = &cur
		}
		if c.route.better(curp) {
			best[c.asn] = c.route
			has[c.asn] = true
			return true
		}
		return false
	}

	// Phase 0: origins install their own routes.
	queue := make([]ASN, 0, len(anns))
	for _, ann := range anns {
		if t.ases[ann.Origin] == nil {
			continue
		}
		if consider(cand{ann.Origin, Route{Origin: ann.Origin, NextHop: ann.Origin, Kind: KindOrigin, PathLen: 1}, ann}) {
			queue = append(queue, ann.Origin)
		}
	}
	annOf := func(origin ASN) Announcement {
		for _, ann := range anns {
			if ann.Origin == origin {
				return ann
			}
		}
		return Announcement{}
	}

	// Phase 1: customer routes climb provider links (BFS by path length).
	for len(queue) > 0 {
		var next []ASN
		for _, asn := range queue {
			r := best[asn]
			if r.Kind != KindOrigin && r.Kind != KindCustomer {
				continue
			}
			for _, p := range t.ases[asn].providers {
				nr := Route{Origin: r.Origin, NextHop: asn, Kind: KindCustomer, PathLen: r.PathLen + 1}
				if consider(cand{p, nr, annOf(r.Origin)}) {
					next = append(next, p)
				}
			}
		}
		queue = next
	}

	// Phase 2: ASes with origin/customer routes export to peers.
	for asn := range has {
		r := best[asn]
		if r.Kind != KindOrigin && r.Kind != KindCustomer {
			continue
		}
		for _, p := range t.ases[asn].peers {
			nr := Route{Origin: r.Origin, NextHop: asn, Kind: KindPeer, PathLen: r.PathLen + 1}
			consider(cand{p, nr, annOf(r.Origin)})
		}
	}

	// Phase 3: everything flows down customer links (BFS).
	queue = queue[:0]
	for asn := range has {
		queue = append(queue, asn)
	}
	sort.Slice(queue, func(i, j int) bool { return best[queue[i]].PathLen < best[queue[j]].PathLen })
	for len(queue) > 0 {
		var next []ASN
		for _, asn := range queue {
			r := best[asn]
			for _, c := range t.ases[asn].customers {
				nr := Route{Origin: r.Origin, NextHop: asn, Kind: KindProvider, PathLen: r.PathLen + 1}
				if consider(cand{c, nr, annOf(r.Origin)}) {
					next = append(next, c)
				}
			}
		}
		queue = next
	}
	return best
}
