// Package dnssrv implements the authoritative nameserver substrate:
// zone storage, response synthesis (including ANY responses, CNAME
// handling, padding for the fragmentation experiments, and optional
// answer-order randomisation), response-rate limiting (RRL — the
// muting lever SadDNS abuses), and EDNS-size/truncation handling.
package dnssrv

import (
	"sort"
	"strings"

	"crosslayer/internal/dnswire"
)

// rrKey indexes one RRset.
type rrKey struct {
	name string
	typ  dnswire.Type
}

// Zone holds the records of one DNS zone.
type Zone struct {
	// Origin is the zone apex, e.g. "vict.im.".
	Origin string
	// Signed marks the zone as DNSSEC-signed: responses carry RRSIG
	// markers and validating resolvers will check them.
	Signed bool
	rrsets map[rrKey][]*dnswire.RR
	names  map[string]bool
}

// NewZone creates an empty zone rooted at origin.
func NewZone(origin string) *Zone {
	return &Zone{
		Origin: dnswire.CanonicalName(origin),
		rrsets: make(map[rrKey][]*dnswire.RR),
		names:  make(map[string]bool),
	}
}

// Add inserts records; names must be inside the zone.
func (z *Zone) Add(rrs ...*dnswire.RR) *Zone {
	for _, rr := range rrs {
		name := dnswire.CanonicalName(rr.Name)
		if !dnswire.InBailiwick(name, z.Origin) {
			panic("dnssrv: record " + name + " outside zone " + z.Origin)
		}
		k := rrKey{name, rr.Type}
		z.rrsets[k] = append(z.rrsets[k], rr)
		z.names[name] = true
	}
	return z
}

// Lookup returns the RRset for (name, type). For TypeANY all RRsets at
// the name are returned, TXT-type records first and address records
// last — matching the common server behaviour the FragDNS attack
// relies on ("most servers do not randomise the records in DNS
// responses", §5.3.2: the target A record sits at a predictable
// offset, here the tail).
func (z *Zone) Lookup(name string, typ dnswire.Type) (answers []*dnswire.RR, exists bool) {
	name = dnswire.CanonicalName(name)
	exists = z.names[name]
	if !exists {
		// Wildcard-free zones: also report existence for empty
		// non-terminals (a name that has records below it).
		for n := range z.names {
			if strings.HasSuffix(n, "."+name) || n == name {
				exists = true
				break
			}
		}
	}
	if typ == dnswire.TypeANY {
		var keys []rrKey
		for k := range z.rrsets {
			if k.name == name {
				keys = append(keys, k)
			}
		}
		// Ties in anyOrder (MX, SRV, NAPTR) break by type code: the
		// keys come out of a map, so the order must be total.
		sort.Slice(keys, func(i, j int) bool {
			if oi, oj := anyOrder(keys[i].typ), anyOrder(keys[j].typ); oi != oj {
				return oi < oj
			}
			return keys[i].typ < keys[j].typ
		})
		for _, k := range keys {
			answers = append(answers, z.rrsets[k]...)
		}
		return answers, exists
	}
	if rrs, ok := z.rrsets[rrKey{name, typ}]; ok {
		return rrs, true
	}
	// CNAME at the name answers any type.
	if cn, ok := z.rrsets[rrKey{name, dnswire.TypeCNAME}]; ok && typ != dnswire.TypeCNAME {
		return cn, true
	}
	return nil, exists
}

// anyOrder places bulky text-ish records first and address records
// last in ANY responses.
func anyOrder(t dnswire.Type) int {
	switch t {
	case dnswire.TypeTXT:
		return 0
	case dnswire.TypeSOA:
		return 1
	case dnswire.TypeNS:
		return 2
	case dnswire.TypeMX, dnswire.TypeSRV, dnswire.TypeNAPTR:
		return 3
	case dnswire.TypeA, dnswire.TypeAAAA:
		return 9
	default:
		return 5
	}
}

// SOA returns the zone's SOA record if present.
func (z *Zone) SOA() *dnswire.RR {
	if rrs, ok := z.rrsets[rrKey{z.Origin, dnswire.TypeSOA}]; ok && len(rrs) > 0 {
		return rrs[0]
	}
	return nil
}

// Names returns the number of distinct owner names.
func (z *Zone) Names() int { return len(z.names) }
