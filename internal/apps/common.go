// Package apps implements the application victims of Table 1:
// miniature but protocol-faithful clients and servers that use DNS the
// way the paper describes (location, federation, authorisation) and
// act on the answers — accepting mail, setting clocks, opening
// tunnels, issuing certificates, validating route origins. Each
// exposes the observable outcome the cross-layer attacks subvert:
// hijack (traffic reaches the attacker), downgrade (a security check
// silently stops happening), or DoS (the service becomes unusable).
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

// Identity is a minimal certificate stand-in: who a server claims to
// be and who vouches for it. Clients compare Subject to the name they
// dialled and require Issuer == TrustedCA. The PKI/DV attack closes
// the loop: a fraudulently issued Identity carries the victim Subject
// with the trusted Issuer, making impersonation invisible.
type Identity struct {
	Subject string
	Issuer  string
}

// TrustedCA is the one certificate authority every client trusts.
const TrustedCA = "TrustedCA"

// SelfSigned builds the identity an attacker can always mint.
func SelfSigned(subject string) Identity {
	return Identity{Subject: subject, Issuer: "self"}
}

// VerifyFor checks the identity against an expected server name.
func (id Identity) VerifyFor(name string) error {
	if id.Issuer != TrustedCA {
		return fmt.Errorf("apps: certificate for %q not signed by a trusted CA (issuer %q)", id.Subject, id.Issuer)
	}
	if !dnswire.EqualNames(id.Subject, name) {
		return fmt.Errorf("apps: certificate subject %q does not match %q", id.Subject, name)
	}
	return nil
}

// Outcome classifies what an attack achieved against an application —
// the right-most column of Table 1.
type Outcome string

// Outcome values.
const (
	OutcomeOK        Outcome = "ok"        // application behaved correctly
	OutcomeHijack    Outcome = "hijack"    // traffic reached the attacker
	OutcomeDowngrade Outcome = "downgrade" // a security check was skipped/fooled
	OutcomeDoS       Outcome = "dos"       // the service became unusable
)

// lookupA resolves name to its first A address through the given
// resolver and host.
func lookupA(h *netsim.Host, resolverAddr netip.Addr, name string, cb func(netip.Addr, error)) {
	resolver.StubLookup(h, resolverAddr, name, dnswire.TypeA, 8*time.Second,
		func(rrs []*dnswire.RR, err error) {
			if err != nil {
				cb(netip.Addr{}, err)
				return
			}
			for _, rr := range rrs {
				if a, ok := rr.Data.(*dnswire.AData); ok {
					cb(a.Addr, nil)
					return
				}
			}
			cb(netip.Addr{}, resolver.ErrNoData)
		})
}

// lookupTXT resolves the TXT strings at name.
func lookupTXT(h *netsim.Host, resolverAddr netip.Addr, name string, cb func([]string, error)) {
	resolver.StubLookup(h, resolverAddr, name, dnswire.TypeTXT, 8*time.Second,
		func(rrs []*dnswire.RR, err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			var out []string
			for _, rr := range rrs {
				if t, ok := rr.Data.(*dnswire.TXTData); ok {
					out = append(out, t.Joined())
				}
			}
			cb(out, nil)
		})
}

// domainOf extracts the domain part of user@domain.
func domainOf(address string) (string, error) {
	i := strings.LastIndexByte(address, '@')
	if i < 0 || i == len(address)-1 {
		return "", fmt.Errorf("apps: address %q has no domain part", address)
	}
	return dnswire.CanonicalName(address[i+1:]), nil
}
