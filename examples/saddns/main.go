// SadDNS walkthrough (paper Figure 1): mute the nameserver through its
// response-rate limiting, find the resolver's ephemeral port through
// the global ICMP rate-limit side channel, brute-force the TXID, and
// verify the poisoned cache. A trace of the key packets is printed.
package main

import (
	"fmt"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/packet"
	"crosslayer/internal/scenario"
)

func main() {
	cfg := scenario.Config{Seed: 7}
	scenario.OpenSadDNS(&cfg) // rate-limited NS: SadDNS's muting lever
	s := scenario.New(cfg)

	// Narrow the port range so the demo converges in one iteration
	// (the full 28k-port hunt is the Table 6 benchmark).
	const qname = "www.vict.im."
	atk := s.SadDNS(qname, scenario.Effort{Ports: 500, MaxIterations: 30})

	// Print a few of each interesting packet kind (Figure 1's arrows):
	// the spoofed NS→resolver traffic is either a tiny port probe or a
	// full DNS response of the TXID flood, told apart by payload size.
	probes, floods := 0, 0
	s.Net.Trace = func(ev netsim.TraceEvent) {
		if ev.To != scenario.ResolverIP || ev.From != scenario.NSIP || ev.Proto != packet.ProtoUDP {
			return
		}
		const udpHeader = 8
		if ev.Size <= udpHeader+16 { // "probe"/"pad" payloads
			probes++
			if probes <= 3 {
				fmt.Printf("  [%8v] spoofed port probe #%d  %v -> %v (%d bytes)\n",
					ev.At, probes, ev.From, ev.To, ev.Size)
			}
		} else { // a forged DNS response of the TXID flood
			floods++
			if floods <= 3 {
				fmt.Printf("  [%8v] TXID-flood response #%d %v -> %v (%d bytes)\n",
					ev.At, floods, ev.From, ev.To, ev.Size)
			}
		}
	}

	fmt.Println("step 1: flood queries to mute the rate-limited nameserver")
	fmt.Println("step 2: trigger query 'www.vict.im. A?' at the victim resolver")
	fmt.Println("step 3: scan UDP ports, 50 spoofed probes + 1 verification per ICMP window")
	fmt.Println("step 4: divide and conquer, then flood 2^16 TXIDs")
	res := atk.Run(s.Trigger(qname))

	fmt.Printf("\nresult: success=%v iterations=%d attacker packets=%d duration=%v\n",
		res.Success, res.Iterations, res.AttackerPackets, res.Duration)
	fmt.Printf("trace saw %d spoofed port probes and %d TXID-flood responses\n", probes, floods)
	fmt.Printf("spoofed datagrams the resolver rejected (wrong TXID): %d\n", s.Resolver.SpoofRejected)
	fmt.Printf("cache now says www.vict.im = attacker: %v\n", s.Poisoned(qname, dnswire.TypeA))
}
