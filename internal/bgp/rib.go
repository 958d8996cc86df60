package bgp

import (
	"net/netip"
	"sort"
)

// RIB is the global routing state the packet simulator consults: the
// set of live announcements plus, per announced prefix, the route each
// AS selected. Longest-prefix-match across prefixes happens at
// forwarding time, which is what makes sub-prefix hijacks win
// globally: a /24 inside a victim /22 beats the /22 for every AS that
// accepts it, regardless of policy.
type RIB struct {
	topo    *Topology
	roaView ROAView
	// announcements grouped by prefix (a prefix can have several
	// origins during a same-prefix hijack).
	anns   map[netip.Prefix][]Announcement
	routes map[netip.Prefix]map[ASN]Route
	// prefixes sorted by descending length for LPM.
	sorted []netip.Prefix
	// MaxAcceptedLen models the common "/24 or shorter" filter: the
	// paper's sub-prefix analysis assumes announcements more specific
	// than /24 are filtered Internet-wide. 0 disables the filter.
	MaxAcceptedLen int
}

// NewRIB returns a RIB over topo. roaView may be nil.
func NewRIB(topo *Topology, roaView ROAView) *RIB {
	return &RIB{
		topo:           topo,
		roaView:        roaView,
		anns:           make(map[netip.Prefix][]Announcement),
		routes:         make(map[netip.Prefix]map[ASN]Route),
		MaxAcceptedLen: 24,
	}
}

// SetROAView replaces the per-AS ROA supplier (e.g. after an RPKI
// relying party is poisoned) and forces reconvergence.
func (r *RIB) SetROAView(v ROAView) {
	r.roaView = v
	r.reconverge()
}

// Announce adds an origination and reconverges the affected prefix.
// Announcements more specific than MaxAcceptedLen are dropped, exactly
// like real-world /25+ filters.
func (r *RIB) Announce(prefix netip.Prefix, origin ASN) bool {
	if r.MaxAcceptedLen > 0 && prefix.Bits() > r.MaxAcceptedLen {
		return false
	}
	prefix = prefix.Masked()
	for _, a := range r.anns[prefix] {
		if a.Origin == origin {
			return true
		}
	}
	if len(r.anns[prefix]) == 0 {
		r.sorted = append(r.sorted, prefix)
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].Bits() > r.sorted[j].Bits() })
	}
	r.anns[prefix] = append(r.anns[prefix], Announcement{Prefix: prefix, Origin: origin})
	r.converge(prefix)
	return true
}

// Withdraw removes an origination.
func (r *RIB) Withdraw(prefix netip.Prefix, origin ASN) {
	prefix = prefix.Masked()
	anns := r.anns[prefix]
	for i, a := range anns {
		if a.Origin == origin {
			r.anns[prefix] = append(anns[:i], anns[i+1:]...)
			break
		}
	}
	if len(r.anns[prefix]) == 0 {
		delete(r.anns, prefix)
		delete(r.routes, prefix)
		for i, p := range r.sorted {
			if p == prefix {
				r.sorted = append(r.sorted[:i], r.sorted[i+1:]...)
				break
			}
		}
		return
	}
	r.converge(prefix)
}

func (r *RIB) converge(prefix netip.Prefix) {
	r.routes[prefix] = r.topo.Propagate(r.anns[prefix], r.roaView)
}

func (r *RIB) reconverge() {
	for p := range r.anns {
		r.converge(p)
	}
}

// RIBSnapshot captures a RIB's announcement set so trial-reset can
// restore routing to its post-build state (an attack that announced a
// hijack and crashed mid-withdraw must not leak routes into the next
// trial).
type RIBSnapshot struct {
	anns   map[netip.Prefix][]Announcement
	sorted []netip.Prefix
}

// Snapshot copies the current announcement set.
func (r *RIB) Snapshot() *RIBSnapshot {
	s := &RIBSnapshot{
		anns:   make(map[netip.Prefix][]Announcement, len(r.anns)),
		sorted: append([]netip.Prefix(nil), r.sorted...),
	}
	for p, anns := range r.anns {
		s.anns[p] = append([]Announcement(nil), anns...)
	}
	return s
}

// Restore rewinds the RIB to a snapshot. When the live announcement
// set already matches (the common case — attacks withdraw what they
// announce), this is a comparison and nothing else: no reconvergence,
// no allocation. Otherwise announcements and LPM order are restored
// verbatim and every prefix reconverges.
func (r *RIB) Restore(s *RIBSnapshot) {
	if r.matches(s) {
		return
	}
	clear(r.anns)
	for p, anns := range s.anns {
		r.anns[p] = append([]Announcement(nil), anns...)
	}
	r.sorted = append(r.sorted[:0], s.sorted...)
	clear(r.routes)
	r.reconverge()
}

// matches reports whether the live announcement set equals the
// snapshot, including per-prefix announcement order (order is
// selection-relevant tie-break state).
func (r *RIB) matches(s *RIBSnapshot) bool {
	if len(r.anns) != len(s.anns) {
		return false
	}
	for p, anns := range r.anns {
		want, ok := s.anns[p]
		if !ok || len(anns) != len(want) {
			return false
		}
		for i := range anns {
			if anns[i] != want[i] {
				return false
			}
		}
	}
	return true
}

// CoveringAnnouncement returns the longest announced prefix containing
// ip, for vulnerability analysis ("is this resolver inside a >/24-able
// block?").
func (r *RIB) CoveringAnnouncement(ip netip.Addr) (netip.Prefix, bool) {
	for _, p := range r.sorted {
		if p.Contains(ip) {
			return p, true
		}
	}
	return netip.Prefix{}, false
}

// Resolve returns the origin AS that traffic from fromAS toward ip
// reaches, using longest-prefix-match then fromAS's selected route.
func (r *RIB) Resolve(fromAS ASN, ip netip.Addr) (ASN, bool) {
	for _, p := range r.sorted {
		if !p.Contains(ip) {
			continue
		}
		routes := r.routes[p]
		if route, ok := routes[fromAS]; ok {
			return route.Origin, true
		}
		// fromAS has no route for the most specific prefix (e.g. it
		// rejected a hijack via ROV); fall through to a less specific
		// covering prefix.
	}
	return 0, false
}
