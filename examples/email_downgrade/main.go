// Email anti-spam downgrade (§4.5 "Downgrade attacks"): SadDNS plants
// an attacker-friendly SPF policy for vict.im in the mail server's
// resolver; the next spoofed "CEO" mail from the attacker's network
// passes SPF and lands in the inbox. Also shows the bounce (DSN)
// query trigger.
package main

import (
	"fmt"
	"time"

	"crosslayer/internal/apps"
	"crosslayer/internal/core"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/scenario"
)

func main() {
	cfg := scenario.Config{Seed: 13}
	scenario.OpenSadDNS(&cfg)
	s := scenario.New(cfg)
	s.ResolverHost.Cfg.PortMin = 32768
	s.ResolverHost.Cfg.PortMax = 32768 + 499

	ms := apps.NewMailServer(s.ServiceHost, scenario.ResolverIP, "victim-net.example.")
	ms.LocalUsers["bob"] = true

	phish := apps.Mail{From: "ceo@vict.im", To: "bob@victim-net.example.",
		Body: "please wire funds", SenderIP: scenario.AttackerIP}

	fmt.Println("== before poisoning ==")
	ms.Deliver(phish, nil)
	s.Run()
	fmt.Printf("inbox=%d spam=%d (SPF rejected the spoofed sender)\n", len(ms.Inbox), len(ms.Spam))

	// The genuine SPF policy is cached for its 300s TTL; no trigger can
	// force a query until it expires (caching is the defender's friend
	// — and the reason attacks race freshly triggered queries).
	fmt.Println("\n(waiting out the 300s TTL of the cached genuine SPF record)")
	s.Clock.RunFor(301 * time.Second)

	fmt.Println("\n== SadDNS poisons vict.im TXT (SPF) using the bounce trigger ==")
	atk := &core.SadDNS{
		Attacker: s.Attacker, ResolverAddr: scenario.ResolverIP, NSAddr: scenario.NSIP,
		Spoof: core.Spoof{QName: "vict.im.", QType: dnswire.TypeTXT,
			Records: []*dnswire.RR{dnswire.NewTXT("vict.im.", 300, "v=spf1 ip4:6.6.6.0/24 -all")}},
		PortMin: 32768, PortMax: 32768 + 499,
		MuteQPS: 20, MaxIterations: 30,
		CheckSuccess: func() bool {
			rrs, _, ok := s.Resolver.Cache.Get("vict.im.", dnswire.TypeTXT)
			if !ok {
				return false
			}
			for _, rr := range rrs {
				if t, isTxt := rr.Data.(*dnswire.TXTData); isTxt && t.Joined() == "v=spf1 ip4:6.6.6.0/24 -all" {
					return true
				}
			}
			return false
		},
	}
	// The trigger IS the application: mail to a nonexistent recipient
	// makes the server resolve the (attacker-chosen) sender domain for
	// the bounce — §4.3.1.
	trigger := core.TriggerFunc(func() {
		ms.Deliver(apps.Mail{From: "nobody@vict.im", To: "ghost@victim-net.example.",
			Body: "trigger", SenderIP: scenario.AttackerIP}, nil)
	})
	res := atk.Run(trigger)
	fmt.Printf("poisoning success=%v after %d iterations, %d packets\n",
		res.Success, res.Iterations, res.AttackerPackets)

	fmt.Println("\n== after poisoning ==")
	ms.Deliver(phish, nil)
	s.Run()
	fmt.Printf("inbox=%d spam=%d", len(ms.Inbox), len(ms.Spam))
	if len(ms.Inbox) > 0 {
		fmt.Printf("  <- the spoofed CEO mail now passes SPF\n")
	} else {
		fmt.Println()
	}
}
