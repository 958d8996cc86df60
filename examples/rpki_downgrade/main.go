// RPKI downgrade (the paper's headline cross-layer attack, §1/§4.5):
// poison the relying party's resolver for its repository hostname,
// serve it an empty repository, and the victim prefix's ROA vanishes
// from every ROV router's view. A sub-prefix hijack that route-origin
// validation used to reject is now "unknown" — and accepted.
package main

import (
	"fmt"
	"net/netip"

	"crosslayer/internal/bgp"
	"crosslayer/internal/rpki"
	"crosslayer/internal/scenario"
)

func main() {
	cfg := scenario.Config{Seed: 11}
	scenario.OpenFragDNS(&cfg)
	s := scenario.New(cfg)

	// Every AS enforces route-origin validation, fed by one relying
	// party that fetches ROAs from the repository at rpki.vict.im.
	for _, asn := range s.Topo.ASNs() {
		s.Topo.AS(asn).ROV = true
	}
	protected := scenario.DomainPrefix // 123.0.0.0/22, origin AS 20
	rpki.NewRepository(s.WWWHost, []bgp.ROA{{Prefix: protected, Origin: scenario.DomainAS, MaxLength: 24}})
	rpki.EmptyRepository(s.Attacker)
	rp := rpki.NewRelyingParty(s.ServiceHost, scenario.ResolverIP, "rpki.vict.im.")
	rp.Sync(nil)
	s.Run()
	s.RIB.SetROAView(rp.View())

	hijack := netip.MustParsePrefix("123.0.0.0/24")
	try := func(label string) {
		s.RIB.Announce(hijack, scenario.AttackerAS)
		origin, _ := s.RIB.Resolve(scenario.VictimAS, scenario.NSIP)
		verdict := rp.Validity(bgp.Announcement{Prefix: hijack, Origin: scenario.AttackerAS})
		fmt.Printf("%s: validation=%v, traffic for 123.0.0.53 goes to AS%d\n", label, verdict, origin)
		s.RIB.Withdraw(hijack, scenario.AttackerAS)
	}

	fmt.Println("== with healthy RPKI ==")
	try("sub-prefix hijack attempt")

	fmt.Println("\n== cross-layer attack ==")
	fmt.Println("step 1: FragDNS poisons the relying party's resolver for rpki.vict.im")
	res := s.FragDNS("rpki.vict.im.", scenario.Effort{IPIDGuesses: 64}).Run(s.Trigger("rpki.vict.im."))
	fmt.Printf("        poisoning success=%v (%d packets)\n", res.Success, res.AttackerPackets)

	fmt.Println("step 2: relying party syncs — and fetches from the attacker's empty repo")
	rp.Sync(func(ok bool) { fmt.Printf("        sync 'succeeded'=%v, ROAs held=%d\n", ok, len(rp.ROAs())) })
	s.Run()
	s.RIB.SetROAView(rp.View())

	fmt.Println("step 3: the same hijack again")
	try("sub-prefix hijack attempt")
	fmt.Println("\nROV was not bypassed by forging signatures — it was starved of data.")
}
