// Quickstart: build the canonical scenario, resolve a name the honest
// way, launch the cheapest attack (HijackDNS), watch the victim's
// web client walk into the attacker's server — then regenerate a
// paper artifact through the experiment registry.
package main

import (
	"fmt"
	"log"

	"crosslayer"
	"crosslayer/internal/apps"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/scenario"
)

func main() {
	s := crosslayer.NewScenario(crosslayer.Config{Seed: 1})

	// Honest resolution first.
	s.Resolver.Lookup("www.vict.im.", dnswire.TypeA, func(rrs []*dnswire.RR, err error) {
		fmt.Printf("honest lookup: %v (err=%v)\n", rrs[0], err)
	})
	s.Run()

	// Give both sides a web presence.
	apps.NewWebServer(s.WWWHost, apps.Identity{Subject: "www.vict.im.", Issuer: apps.TrustedCA}).Pages["/"] = "the genuine vict.im homepage"
	apps.NewWebServer(s.Attacker, apps.SelfSigned("www.vict.im.")).Pages["/"] = "a pixel-perfect phishing page"

	// Expire the honest entry so the attack races a fresh query.
	s.Clock.RunFor(301e9)

	res := s.HijackDNS("www.vict.im.").Run(s.Trigger("www.vict.im."))
	fmt.Printf("\nHijackDNS: success=%v packets=%d detail=%q\n", res.Success, res.AttackerPackets, res.Detail)
	fmt.Printf("cache poisoned: %v\n", crosslayer.Poisoned(s, "www.vict.im."))

	// The victim's browser now lands on the attacker.
	wc := &apps.WebClient{Host: s.ClientHost, ResolverAddr: scenario.ResolverIP}
	wc.Get("www.vict.im.", "/", func(r apps.FetchResult) {
		fmt.Printf("\nvictim fetches http://www.vict.im/ -> server %v\n  body: %s\n", r.ServerAddr, r.Body)
	})
	s.Run()

	// Every evaluation artifact is a registered experiment: enumerate
	// the registry, then regenerate one by name. Run returns a
	// structured Report — print it as text, or render JSON/CSV/
	// Markdown with crosslayer.RenderReport.
	fmt.Println("\nregistered experiments:")
	for _, e := range crosslayer.ListExperiments() {
		fmt.Printf("  %-12s %s\n", e.Name, e.Title)
	}
	rep, err := crosslayer.Run("table5", crosslayer.ExperimentSpec{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", rep)
}
