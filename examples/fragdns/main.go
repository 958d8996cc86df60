// FragDNS walkthrough (paper Figure 2): shrink the path MTU with a
// spoofed ICMP Fragmentation Needed, craft a second fragment whose
// ones-complement sum matches the genuine one, plant it in the
// resolver's defragmentation cache, and let the genuine first fragment
// (carrying port + TXID) complete it.
package main

import (
	"fmt"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/scenario"
)

func main() {
	cfg := scenario.Config{Seed: 9}
	scenario.OpenFragDNS(&cfg) // large responses fragment once the PMTU drops
	s := scenario.New(cfg)

	// The spoofed PTB advertises MTU 68 (the server clamps to its floor,
	// 552), and the scenario NS's global IPID counter makes the guesses
	// consecutive.
	const qname = "www.vict.im."
	atk := s.FragDNS(qname, scenario.Effort{IPIDGuesses: 64})
	fmt.Println("step 1: spoofed ICMP PTB (MTU=68) -> nameserver caches a tiny path MTU")
	fmt.Println("step 2: fetch the public response to predict the second fragment's bytes")
	fmt.Println("step 3: patch A rdata -> 6.6.6.6, fix the sum inside the record's TTL")
	fmt.Println("step 4: plant the fragment for 64 consecutive IPIDs, trigger the query")
	res := atk.Run(s.Trigger(qname))

	fmt.Printf("\nresult: success=%v iterations=%d attacker packets=%d\n",
		res.Success, res.Iterations, res.AttackerPackets)
	fmt.Printf("defrag cache reassemblies at the resolver: %d\n", s.ResolverHost.FragCache().Stats().Reassembled)
	fmt.Printf("cache now says www.vict.im = attacker: %v\n", s.Poisoned(qname, dnswire.TypeA))

	// The challenge values were never guessed: zero rejected spoofs.
	fmt.Printf("spoofed responses the resolver had to reject: %d (FragDNS guesses nothing)\n", s.Resolver.SpoofRejected)
}
