package apps

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/resolver"
)

// Federated peer-discovery applications (Table 1): RADIUS/eduroam
// (NAPTR → SRV → A) and XMPP server federation (SRV → A). The queried
// domain comes from the user identifier (user@realm), so the attacker
// fully controls which name the victim resolver looks up — the
// "target ✓ direct/bounce" rows.

// RadSecPort is the RADIUS-over-TLS (RadSec) port eduroam dynamic
// discovery connects to.
const RadSecPort = 2083

// XMPPServerPort is the XMPP server-to-server port.
const XMPPServerPort = 5269

// FederationServer answers RadSec or XMPP s2s connections with its
// identity; genuine servers hold CA-issued identities, attackers
// self-signed ones (until they obtain a fraudulent certificate via the
// DV attack).
type FederationServer struct {
	Host     *netsim.Host
	Ident    Identity
	Accepted uint64
	// Transcript records peer payloads — an attacker server uses it to
	// show eavesdropping.
	Transcript []string
}

// NewFederationServer binds RadSec and XMPP endpoints on host.
func NewFederationServer(host *netsim.Host, ident Identity) *FederationServer {
	fs := &FederationServer{Host: host, Ident: ident}
	handler := func(_ netip.Addr, req []byte) []byte {
		fs.Accepted++
		fs.Transcript = append(fs.Transcript, string(req))
		return []byte(fmt.Sprintf("ident=%s/%s", fs.Ident.Subject, fs.Ident.Issuer))
	}
	host.BindTCP(RadSecPort, handler)
	host.BindTCP(XMPPServerPort, handler)
	return fs
}

// RadiusClient performs eduroam dynamic peer discovery for a user
// realm: NAPTR(realm) → SRV → A → RadSec connect with certificate
// verification. Because the attacker cannot forge the certificate,
// poisoning yields DoS ("DoS: no network access"), not impersonation.
type RadiusClient struct {
	Host         *netsim.Host
	ResolverAddr netip.Addr
	Discoveries  uint64
	AuthFailures uint64
}

// Authenticate discovers the home server for user@realm and attempts
// authentication.
func (rc *RadiusClient) Authenticate(user string, cb func(Outcome)) {
	realm, err := domainOf(user)
	if err != nil {
		cb(OutcomeDoS)
		return
	}
	rc.Discoveries++
	resolver.StubLookup(rc.Host, rc.ResolverAddr, realm, dnswire.TypeNAPTR, 8*time.Second,
		func(rrs []*dnswire.RR, err error) {
			if err != nil || len(rrs) == 0 {
				rc.AuthFailures++
				cb(OutcomeDoS)
				return
			}
			naptr, ok := rrs[0].Data.(*dnswire.NAPTRData)
			if !ok {
				rc.AuthFailures++
				cb(OutcomeDoS)
				return
			}
			resolver.StubLookup(rc.Host, rc.ResolverAddr, naptr.Replacement, dnswire.TypeSRV, 8*time.Second,
				func(srvs []*dnswire.RR, err error) {
					if err != nil || len(srvs) == 0 {
						rc.AuthFailures++
						cb(OutcomeDoS)
						return
					}
					srv, ok := srvs[0].Data.(*dnswire.SRVData)
					if !ok {
						rc.AuthFailures++
						cb(OutcomeDoS)
						return
					}
					rc.connect(realm, srv.Target, cb)
				})
		})
}

func (rc *RadiusClient) connect(realm, target string, cb func(Outcome)) {
	lookupA(rc.Host, rc.ResolverAddr, target, func(addr netip.Addr, err error) {
		if err != nil {
			rc.AuthFailures++
			cb(OutcomeDoS)
			return
		}
		rc.Host.CallTCP(addr, RadSecPort, []byte("radsec-auth "+realm), func(resp []byte) {
			ident, ok := parseIdent(resp)
			if !ok {
				rc.AuthFailures++
				cb(OutcomeDoS)
				return
			}
			// RadSec requires a CA-verified server certificate for the
			// *target host name* from discovery.
			if err := ident.VerifyFor(target); err != nil {
				rc.AuthFailures++
				cb(OutcomeDoS)
				return
			}
			cb(OutcomeOK)
		})
	})
}

// XMPPServerPeer federates with a remote domain: SRV lookup then s2s
// connection. Historic XMPP federation widely accepted unverified
// (dialback) peers, so VerifyTLS defaults false — poisoning yields
// full interception ("Hijack: eavesdropping").
type XMPPServerPeer struct {
	Host         *netsim.Host
	ResolverAddr netip.Addr
	VerifyTLS    bool
	Sent         uint64
	Failures     uint64
}

// SendMessage federates message to user@domain.
func (xp *XMPPServerPeer) SendMessage(to, message string, cb func(Outcome, netip.Addr)) {
	dom, err := domainOf(to)
	if err != nil {
		cb(OutcomeDoS, netip.Addr{})
		return
	}
	srvName := "_xmpp-server._tcp." + dom
	resolver.StubLookup(xp.Host, xp.ResolverAddr, srvName, dnswire.TypeSRV, 8*time.Second,
		func(rrs []*dnswire.RR, err error) {
			if err != nil || len(rrs) == 0 {
				xp.Failures++
				cb(OutcomeDoS, netip.Addr{})
				return
			}
			srv, ok := rrs[0].Data.(*dnswire.SRVData)
			if !ok {
				xp.Failures++
				cb(OutcomeDoS, netip.Addr{})
				return
			}
			lookupA(xp.Host, xp.ResolverAddr, srv.Target, func(addr netip.Addr, err error) {
				if err != nil {
					xp.Failures++
					cb(OutcomeDoS, netip.Addr{})
					return
				}
				xp.Host.CallTCP(addr, XMPPServerPort, []byte("xmpp-s2s "+message), func(resp []byte) {
					if resp == nil {
						xp.Failures++
						cb(OutcomeDoS, addr)
						return
					}
					if xp.VerifyTLS {
						ident, ok := parseIdent(resp)
						if !ok || ident.VerifyFor(srv.Target) != nil {
							xp.Failures++
							cb(OutcomeDoS, addr)
							return
						}
					}
					xp.Sent++
					cb(OutcomeOK, addr)
				})
			})
		})
}

func parseIdent(resp []byte) (Identity, bool) {
	s := string(resp)
	const p = "ident="
	if len(s) < len(p) || s[:len(p)] != p {
		return Identity{}, false
	}
	rest := s[len(p):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			subj := rest[:i]
			iss := rest[i+1:]
			if j := strings.IndexByte(iss, '\n'); j >= 0 {
				iss = iss[:j]
			}
			return Identity{Subject: subj, Issuer: iss}, true
		}
	}
	return Identity{}, false
}
