// Package rpki implements the RPKI ecosystem the paper's headline
// attack targets (§1, §4.5): ROA repositories published at a DNS name,
// relying-party caches that locate the repository via DNS and fetch
// ROAs over the network, and the route-origin-validation view they
// feed to BGP routers.
//
// The cross-layer attack: poison the relying party's resolver for the
// repository hostname, serve it an empty repository, and every
// announcement validates as "unknown" — which ROV-enforcing routers
// accept. A sub-prefix hijack of an RPKI-protected prefix then
// succeeds even though all networks filter invalids.
package rpki

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"time"

	"crosslayer/internal/bgp"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/resolver"
)

// RepoPort is the TCP port repositories serve on (stands in for
// rsync/RRDP).
const RepoPort = 8873

// roaWire is the JSON publication format.
type roaWire struct {
	Prefix string `json:"prefix"`
	Origin uint32 `json:"origin"`
	MaxLen int    `json:"maxlen"`
}

// Repository publishes ROAs on a host.
type Repository struct {
	Host *netsim.Host
	roas []bgp.ROA

	Fetches uint64
}

// NewRepository binds a ROA publication service on host.
func NewRepository(host *netsim.Host, roas []bgp.ROA) *Repository {
	r := &Repository{Host: host, roas: roas}
	host.BindTCP(RepoPort, r.serve)
	return r
}

func (r *Repository) serve(_ netip.Addr, req []byte) []byte {
	if string(req) != "GET roas" {
		return nil
	}
	r.Fetches++
	out := make([]roaWire, len(r.roas))
	for i, roa := range r.roas {
		out[i] = roaWire{Prefix: roa.Prefix.String(), Origin: uint32(roa.Origin), MaxLen: roa.MaxLength}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil
	}
	return b
}

// EmptyRepository serves an empty ROA set — what the attacker's host
// presents after hijacking the repository hostname.
func EmptyRepository(host *netsim.Host) *Repository {
	return NewRepository(host, nil)
}

// RelyingParty is an RPKI validator cache (RFC 6810's "RPKI cache"):
// it locates its repository by DNS name, fetches ROAs, and serves
// validation verdicts to routers.
type RelyingParty struct {
	Host         *netsim.Host
	ResolverAddr netip.Addr
	RepoName     string
	// RefreshEvery is the periodic sync interval.
	RefreshEvery time.Duration

	roas     []bgp.ROA
	lastSync time.Duration
	haveData bool

	Syncs, SyncFailures uint64
}

// NewRelyingParty creates a validator on host using the resolver at
// resolverAddr to locate repoName.
func NewRelyingParty(host *netsim.Host, resolverAddr netip.Addr, repoName string) *RelyingParty {
	return &RelyingParty{
		Host: host, ResolverAddr: resolverAddr,
		RepoName:     dnswire.CanonicalName(repoName),
		RefreshEvery: 10 * time.Minute,
	}
}

// Sync performs one repository synchronisation: DNS lookup of the
// repository host, then a fetch. On any failure the relying party is
// left without usable data (haveData false) — the paper's downgrade
// outcome: "the RPKI validation [results] in status unknown (instead
// of invalid)".
func (rp *RelyingParty) Sync(done func(ok bool)) {
	resolver.StubLookup(rp.Host, rp.ResolverAddr, rp.RepoName, dnswire.TypeA, 5*time.Second,
		func(rrs []*dnswire.RR, err error) {
			if err != nil || len(rrs) == 0 {
				rp.fail(done)
				return
			}
			addr := rrs[0].Data.(*dnswire.AData).Addr
			rp.Host.CallTCP(addr, RepoPort, []byte("GET roas"), func(resp []byte) {
				if resp == nil {
					rp.fail(done)
					return
				}
				var wire []roaWire
				if err := json.Unmarshal(resp, &wire); err != nil {
					rp.fail(done)
					return
				}
				roas := make([]bgp.ROA, 0, len(wire))
				for _, w := range wire {
					p, err := netip.ParsePrefix(w.Prefix)
					if err != nil {
						continue
					}
					roas = append(roas, bgp.ROA{Prefix: p, Origin: bgp.ASN(w.Origin), MaxLength: w.MaxLen})
				}
				rp.roas = roas
				rp.haveData = true
				rp.lastSync = rp.Host.Network().Clock.Now()
				rp.Syncs++
				if done != nil {
					done(true)
				}
			})
		})
}

func (rp *RelyingParty) fail(done func(bool)) {
	rp.SyncFailures++
	rp.haveData = false // stale data ages out; model as immediate loss
	rp.roas = nil
	if done != nil {
		done(false)
	}
}

// StartPeriodicSync schedules Sync every RefreshEvery.
func (rp *RelyingParty) StartPeriodicSync() {
	clock := rp.Host.Network().Clock
	var tick func()
	tick = func() {
		rp.Sync(nil)
		clock.After(rp.RefreshEvery, tick)
	}
	clock.After(0, tick)
}

// ROAs returns the current ROA set (nil when the last sync failed).
func (rp *RelyingParty) ROAs() []bgp.ROA {
	if !rp.haveData {
		return nil
	}
	return rp.roas
}

// HaveData reports whether the cache holds usable ROAs.
func (rp *RelyingParty) HaveData() bool { return rp.haveData }

// Validity classifies an announcement against the current cache.
func (rp *RelyingParty) Validity(ann bgp.Announcement) bgp.Validity {
	return bgp.Validate(ann, rp.ROAs())
}

// View returns a bgp.ROAView serving this relying party's data for
// every AS that uses it.
func (rp *RelyingParty) View() bgp.ROAView {
	return func(bgp.ASN) []bgp.ROA { return rp.ROAs() }
}

// String describes the cache state.
func (rp *RelyingParty) String() string {
	return fmt.Sprintf("rpki-rp{repo=%s roas=%d haveData=%v}", rp.RepoName, len(rp.roas), rp.haveData)
}
