// Command crosslayer runs the three cache-poisoning methodologies
// against the canonical victim scenario and reports their telemetry.
//
// Usage:
//
//	crosslayer [-attack hijack|saddns|fragdns|all] [-seed N] [-ports N]
package main

import (
	"flag"
	"fmt"
	"os"

	"crosslayer"
	"crosslayer/internal/scenario"
)

func main() {
	attack := flag.String("attack", "all", "attack to run: hijack, saddns, fragdns or all")
	seed := flag.Int64("seed", 1, "simulation seed")
	ports := flag.Int("ports", 2000, "resolver ephemeral-port range size for SadDNS")
	flag.Parse()

	report := func(name string, res crosslayer.Result) {
		fmt.Printf("%-10s success=%-5v iterations=%-4d queries=%-4d packets=%-8d time=%-12v %s\n",
			name, res.Success, res.Iterations, res.QueriesTriggered, res.AttackerPackets, res.Duration, res.Detail)
	}

	const qname = "www.vict.im."
	run := func(name string) {
		cfg := crosslayer.Config{Seed: *seed}
		switch name {
		case "hijack":
			s := crosslayer.NewScenario(cfg)
			report("HijackDNS", s.HijackDNS(qname).Run(s.Trigger(qname)))
		case "saddns":
			scenario.OpenSadDNS(&cfg)
			s := crosslayer.NewScenario(cfg)
			atk := s.SadDNS(qname, crosslayer.Effort{Ports: *ports, MaxIterations: 200})
			report("SadDNS", atk.Run(s.Trigger(qname)))
		case "fragdns":
			scenario.OpenFragDNS(&cfg)
			s := crosslayer.NewScenario(cfg)
			atk := s.FragDNS(qname, crosslayer.Effort{IPIDGuesses: 64, MaxIterations: 8})
			report("FragDNS", atk.Run(s.Trigger(qname)))
		default:
			fmt.Fprintf(os.Stderr, "unknown attack %q\n", name)
			os.Exit(2)
		}
	}

	fmt.Printf("victim resolver %v, target domain vict.im (ns %v), attacker %v\n\n",
		scenario.ResolverIP, scenario.NSIP, scenario.AttackerIP)
	if *attack == "all" {
		run("hijack")
		run("saddns")
		run("fragdns")
		return
	}
	run(*attack)
}
