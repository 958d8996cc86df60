package netsim

import (
	"net/netip"
	"testing"
	"time"

	"crosslayer/internal/bgp"
	"crosslayer/internal/packet"
	"crosslayer/internal/sim"
)

// testNet builds a 3-AS line: victimAS(5) -- transit(1) -- attackerAS(6),
// with the victim host 30.0.0.1/22, nameserver 123.0.0.53/22 in AS 4,
// attacker 6.6.6.6/22 in AS 6 (no egress filtering).
type testNet struct {
	net             *Network
	clock           *sim.Clock
	victim, ns, atk *Host
	victimAS, nsAS  bgp.ASN
	atkAS           bgp.ASN
}

func build(t *testing.T) *testNet {
	t.Helper()
	clock := sim.NewClock(1)
	topo := bgp.NewTopology()
	topo.AddAS(1, 1) // transit
	topo.AddAS(5, 3) // victim
	topo.AddAS(4, 3) // nameserver
	topo.AddAS(6, 3) // attacker
	topo.AddProviderCustomer(1, 5)
	topo.AddProviderCustomer(1, 4)
	topo.AddProviderCustomer(1, 6)
	rib := bgp.NewRIB(topo, nil)
	n := New(clock, topo, rib)
	rib.Announce(netip.MustParsePrefix("30.0.0.0/22"), 5)
	rib.Announce(netip.MustParsePrefix("123.0.0.0/22"), 4)
	rib.Announce(netip.MustParsePrefix("6.6.6.0/22"), 6)
	tn := &testNet{
		net: n, clock: clock,
		victim:   n.AddHost("resolver", 5, netip.MustParseAddr("30.0.0.1")),
		ns:       n.AddHost("ns", 4, netip.MustParseAddr("123.0.0.53")),
		atk:      n.AddHost("attacker", 6, netip.MustParseAddr("6.6.6.6")),
		victimAS: 5, nsAS: 4, atkAS: 6,
	}
	n.AS(6).EgressFiltering = false // attacker can spoof
	return tn
}

func TestUDPDelivery(t *testing.T) {
	tn := build(t)
	var got []Datagram
	tn.ns.BindUDP(53, func(dg Datagram) {
		// Payload is only valid during the handler: copy before keeping.
		dg.Payload = append([]byte(nil), dg.Payload...)
		got = append(got, dg)
	})
	tn.victim.SendUDP(40000, tn.ns.Addr, 53, []byte("query"))
	tn.net.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d datagrams, want 1", len(got))
	}
	dg := got[0]
	if dg.Src != tn.victim.Addr || dg.SrcPort != 40000 || string(dg.Payload) != "query" {
		t.Fatalf("bad datagram: %+v", dg)
	}
}

func TestLatencyAppliesToDelivery(t *testing.T) {
	tn := build(t)
	tn.net.SetLatency(25 * time.Millisecond)
	var at time.Duration
	tn.ns.BindUDP(53, func(Datagram) { at = tn.clock.Now() })
	tn.victim.SendUDP(40000, tn.ns.Addr, 53, []byte("q"))
	tn.net.Run()
	if at != 25*time.Millisecond {
		t.Fatalf("delivered at %v, want 25ms", at)
	}
}

func TestAccessLatencyOverridesPerAS(t *testing.T) {
	tn := build(t)
	// Default: both endpoints contribute half the base latency (10ms).
	var at time.Duration
	tn.ns.BindUDP(53, func(Datagram) { at = tn.clock.Now() })
	tn.victim.SendUDP(40000, tn.ns.Addr, 53, []byte("q"))
	tn.net.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("default delivery at %v, want 10ms", at)
	}

	// A carrier-grade AS overrides its access contribution: the sender's
	// 2ms replaces its default 5ms half, the receiver keeps the default.
	tn.net.AS(tn.atkAS).AccessLatency = 2 * time.Millisecond
	start := tn.clock.Now()
	tn.atk.SendUDP(40001, tn.ns.Addr, 53, []byte("q"))
	tn.net.Run()
	if got := at - start; got != 7*time.Millisecond {
		t.Fatalf("carrier delivery took %v, want 7ms", got)
	}

	// Both endpoints overridden: contributions add.
	tn.net.AS(tn.nsAS).AccessLatency = 1 * time.Millisecond
	start = tn.clock.Now()
	tn.atk.SendUDP(40002, tn.ns.Addr, 53, []byte("q"))
	tn.net.Run()
	if got := at - start; got != 3*time.Millisecond {
		t.Fatalf("carrier-to-carrier delivery took %v, want 3ms", got)
	}
}

func TestEgressFilteringBlocksSpoofing(t *testing.T) {
	tn := build(t)
	hits := 0
	tn.ns.BindUDP(53, func(Datagram) { hits++ })
	// Victim AS filters: spoofed packet from victim host dropped.
	tn.victim.SendUDPSpoofed(netip.MustParseAddr("9.9.9.9"), 1, tn.ns.Addr, 53, []byte("x"))
	// Attacker AS does not filter: spoofed packet delivered.
	tn.atk.SendUDPSpoofed(netip.MustParseAddr("9.9.9.9"), 1, tn.ns.Addr, 53, []byte("y"))
	tn.net.Run()
	if hits != 1 {
		t.Fatalf("hits=%d, want 1 (only the attacker spoof delivers)", hits)
	}
	if tn.net.Dropped == 0 {
		t.Fatal("filtered packet not counted as dropped")
	}
}

func TestEchoReply(t *testing.T) {
	tn := build(t)
	var replies int
	tn.atk.OnICMP(func(src netip.Addr, msg *packet.ICMP) {
		if msg.Type == packet.ICMPTypeEchoReply && src == tn.victim.Addr && msg.ID == 7 {
			replies++
		}
	})
	tn.atk.Ping(tn.victim.Addr, 7, 1)
	tn.net.Run()
	if replies != 1 {
		t.Fatalf("replies=%d, want 1", replies)
	}
}

func TestPortUnreachableForClosedPort(t *testing.T) {
	tn := build(t)
	var errs int
	tn.atk.OnICMP(func(src netip.Addr, msg *packet.ICMP) {
		if msg.IsPortUnreachable() {
			errs++
		}
	})
	tn.atk.SendUDP(1234, tn.victim.Addr, 9999, []byte("probe"))
	tn.net.Run()
	if errs != 1 {
		t.Fatalf("errs=%d, want 1", errs)
	}
}

func TestGlobalICMPRateLimitSideChannel(t *testing.T) {
	tn := build(t)
	tn.victim.Cfg.ICMPRate = 50 // one-second windows for this test
	spoofSrc := tn.ns.Addr
	// 50 spoofed probes to closed ports exhaust the global bucket.
	for p := uint16(1000); p < 1050; p++ {
		tn.atk.SendUDPSpoofed(spoofSrc, 53, tn.victim.Addr, p, []byte("probe"))
	}
	tn.net.RunFor(50 * time.Millisecond)
	if tn.victim.ICMPSent != 50 {
		t.Fatalf("ICMPSent=%d, want 50", tn.victim.ICMPSent)
	}
	// Verification probe from the attacker's own address: suppressed.
	var verif int
	tn.atk.OnICMP(func(_ netip.Addr, msg *packet.ICMP) {
		if msg.IsPortUnreachable() {
			verif++
		}
	})
	tn.atk.SendUDP(1, tn.victim.Addr, 9999, []byte("verify"))
	tn.net.RunFor(50 * time.Millisecond)
	if verif != 0 {
		t.Fatalf("verification probe answered despite exhausted bucket (verif=%d)", verif)
	}
	if tn.victim.ICMPSuppressed == 0 {
		t.Fatal("suppression not counted")
	}
	// After a second of refill the bucket answers again.
	tn.clock.RunUntil(tn.clock.Now() + 1200*time.Millisecond)
	tn.atk.SendUDP(1, tn.victim.Addr, 9999, []byte("verify2"))
	tn.net.Run()
	if verif != 1 {
		t.Fatalf("bucket did not refill (verif=%d)", verif)
	}
}

// TestICMPWindowFollowsConfig: the host computes the window index once
// per instant, and a change of ICMPRate at that same instant still
// takes effect: a bucket emptied in a one-second window is refilled
// when the window shrinks to 50 ms, since 120 ms then lies in a later
// window.
func TestICMPWindowFollowsConfig(t *testing.T) {
	tn := build(t)
	h := tn.victim
	h.Cfg.ICMPRate = 50 // one-second windows
	tn.clock.RunUntil(120 * time.Millisecond)
	for i := 0; i < h.Cfg.ICMPBurst; i++ {
		if !h.takeICMPToken(tn.atk.Addr) {
			t.Fatalf("token %d refused from a full bucket", i)
		}
	}
	if h.takeICMPToken(tn.atk.Addr) {
		t.Fatal("token granted from an empty bucket")
	}
	h.Cfg.ICMPRate = 1000 // 50 ms windows
	if !h.takeICMPToken(tn.atk.Addr) {
		t.Fatal("token refused after the window shrank to 50 ms at the same instant")
	}
}

func TestOpenPortLeavesTokenVisible(t *testing.T) {
	// The core SadDNS inference: if one of the 50 probed ports is open,
	// only 49 tokens are consumed and the verification probe IS answered.
	tn := build(t)
	tn.victim.Cfg.ICMPRate = 50 // one-second windows for this test
	tn.victim.BindUDP(1025, func(Datagram) {})
	for p := uint16(1000); p < 1050; p++ {
		tn.atk.SendUDPSpoofed(tn.ns.Addr, 53, tn.victim.Addr, p, []byte("probe"))
	}
	tn.net.RunFor(50 * time.Millisecond)
	var verif int
	tn.atk.OnICMP(func(_ netip.Addr, msg *packet.ICMP) {
		if msg.IsPortUnreachable() {
			verif++
		}
	})
	tn.atk.SendUDP(1, tn.victim.Addr, 60000, []byte("verify"))
	tn.net.Run()
	if verif != 1 {
		t.Fatal("verification probe suppressed although an open port saved a token")
	}
}

func TestPerIPLimitClosesSideChannel(t *testing.T) {
	tn := build(t)
	tn.victim.Cfg.ICMPRate = 50 // one-second windows for this test
	tn.victim.Cfg.ICMPLimitMode = ICMPLimitPerIP
	for p := uint16(1000); p < 1050; p++ {
		tn.atk.SendUDPSpoofed(tn.ns.Addr, 53, tn.victim.Addr, p, []byte("probe"))
	}
	tn.net.RunFor(50 * time.Millisecond)
	var verif int
	tn.atk.OnICMP(func(_ netip.Addr, msg *packet.ICMP) {
		if msg.IsPortUnreachable() {
			verif++
		}
	})
	tn.atk.SendUDP(1, tn.victim.Addr, 60000, []byte("verify"))
	tn.net.Run()
	if verif != 1 {
		t.Fatal("per-IP limiting should answer the attacker's own probe regardless of spoofed flood")
	}
}

func TestPMTULearningAndFragmentation(t *testing.T) {
	tn := build(t)
	// NS sends a large datagram: delivered unfragmented at MTU 1500.
	var sizes []int
	tn.victim.BindUDP(5353, func(dg Datagram) { sizes = append(sizes, len(dg.Payload)) })
	big := make([]byte, 1200)
	tn.ns.SendUDP(53, tn.victim.Addr, 5353, big)
	tn.net.Run()
	if len(sizes) != 1 || sizes[0] != 1200 {
		t.Fatalf("pre-PTB delivery: %v", sizes)
	}
	// Attacker spoofs a PTB quoting an NS->victim datagram, MTU 600.
	quotedIP := &packet.IPv4{ID: 1, TTL: 64, Protocol: packet.ProtoUDP, Src: tn.ns.Addr, Dst: tn.victim.Addr, Payload: make([]byte, 16)}
	quote, _ := packet.QuoteDatagram(nil, quotedIP)
	tn.atk.SendICMPSpoofed(tn.victim.Addr, tn.ns.Addr, &packet.ICMP{
		Type: packet.ICMPTypeDestUnreach, Code: packet.ICMPCodeFragNeeded, MTU: 600, Payload: quote,
	})
	tn.net.Run()
	if got := tn.ns.PMTUTo(tn.victim.Addr); got != 600 {
		t.Fatalf("PMTU after PTB = %d, want 600", got)
	}
	// Next large datagram arrives fragmented and reassembled.
	fragsBefore := tn.victim.FragCache().Stats().Reassembled
	tn.ns.SendUDP(53, tn.victim.Addr, 5353, big)
	tn.net.Run()
	if len(sizes) != 2 || sizes[1] != 1200 {
		t.Fatalf("post-PTB delivery: %v", sizes)
	}
	if tn.victim.FragCache().Stats().Reassembled != fragsBefore+1 {
		t.Fatal("delivery was not via reassembly")
	}
}

func TestPMTUFloorClampsTinyPTB(t *testing.T) {
	tn := build(t)
	quotedIP := &packet.IPv4{ID: 1, TTL: 64, Protocol: packet.ProtoUDP, Src: tn.ns.Addr, Dst: tn.victim.Addr, Payload: make([]byte, 16)}
	quote, _ := packet.QuoteDatagram(nil, quotedIP)
	tn.atk.SendICMPSpoofed(tn.victim.Addr, tn.ns.Addr, &packet.ICMP{
		Type: packet.ICMPTypeDestUnreach, Code: packet.ICMPCodeFragNeeded, MTU: 68, Payload: quote,
	})
	tn.net.Run()
	if got := tn.ns.PMTUTo(tn.victim.Addr); got != 552 {
		t.Fatalf("PMTU = %d, want floor 552", got)
	}
	// A host with a permissive floor accepts 296.
	tn.ns.Cfg.PMTUFloor = 296
	tn.atk.SendICMPSpoofed(tn.victim.Addr, tn.ns.Addr, &packet.ICMP{
		Type: packet.ICMPTypeDestUnreach, Code: packet.ICMPCodeFragNeeded, MTU: 68, Payload: quote,
	})
	tn.net.Run()
	if got := tn.ns.PMTUTo(tn.victim.Addr); got != 296 {
		t.Fatalf("PMTU = %d, want 296", got)
	}
}

func TestPTBIgnoredWhenPMTUDDisabled(t *testing.T) {
	tn := build(t)
	tn.ns.Cfg.HonorPMTUD = false
	quotedIP := &packet.IPv4{ID: 1, TTL: 64, Protocol: packet.ProtoUDP, Src: tn.ns.Addr, Dst: tn.victim.Addr, Payload: make([]byte, 16)}
	quote, _ := packet.QuoteDatagram(nil, quotedIP)
	tn.atk.SendICMPSpoofed(tn.victim.Addr, tn.ns.Addr, &packet.ICMP{
		Type: packet.ICMPTypeDestUnreach, Code: packet.ICMPCodeFragNeeded, MTU: 600, Payload: quote,
	})
	tn.net.Run()
	if got := tn.ns.PMTUTo(tn.victim.Addr); got != 1500 {
		t.Fatalf("PMTU = %d, want untouched 1500", got)
	}
}

func TestIPIDModes(t *testing.T) {
	tn := build(t)
	dst := tn.victim.Addr
	other := tn.atk.Addr
	tn.ns.Cfg.IPIDMode = IPIDGlobalCounter
	a, b := tn.ns.NextIPID(dst), tn.ns.NextIPID(other)
	if b != a+1 {
		t.Fatalf("global counter not sequential across destinations: %d %d", a, b)
	}
	tn.ns.Cfg.IPIDMode = IPIDPerDestCounter
	c1, d1 := tn.ns.NextIPID(dst), tn.ns.NextIPID(other)
	c2, d2 := tn.ns.NextIPID(dst), tn.ns.NextIPID(other)
	if c2 != c1+1 || d2 != d1+1 {
		t.Fatal("per-dest counters not independent")
	}
	tn.ns.Cfg.IPIDMode = IPIDRandom
	seen := map[uint16]bool{}
	for i := 0; i < 64; i++ {
		seen[tn.ns.NextIPID(dst)] = true
	}
	if len(seen) < 48 {
		t.Fatalf("random IPID produced only %d distinct values in 64 draws", len(seen))
	}
}

func TestHijackInterception(t *testing.T) {
	tn := build(t)
	var intercepted []*packet.IPv4
	tn.net.AS(tn.atkAS).Interceptor = func(ip *packet.IPv4) { intercepted = append(intercepted, ip) }
	// Attacker announces a /24 inside the nameserver's /22.
	tn.net.RIB.Announce(netip.MustParsePrefix("123.0.0.0/24"), tn.atkAS)
	tn.victim.SendUDP(40000, tn.ns.Addr, 53, []byte("query"))
	tn.net.Run()
	if len(intercepted) != 1 {
		t.Fatalf("intercepted %d packets, want 1", len(intercepted))
	}
	if tn.ns.Received != 0 {
		t.Fatal("nameserver still received the hijacked packet")
	}
	// Withdraw: traffic returns to the nameserver.
	tn.net.RIB.Withdraw(netip.MustParsePrefix("123.0.0.0/24"), tn.atkAS)
	tn.victim.SendUDP(40000, tn.ns.Addr, 53, []byte("query2"))
	tn.net.Run()
	if tn.ns.Received != 1 {
		t.Fatal("traffic did not return after withdraw")
	}
}

func TestFragmentsDroppedWhenNotAccepted(t *testing.T) {
	tn := build(t)
	tn.victim.Cfg.AcceptFragments = false
	var got int
	tn.victim.BindUDP(5353, func(Datagram) { got++ })
	// Force the NS to fragment.
	quotedIP := &packet.IPv4{ID: 1, TTL: 64, Protocol: packet.ProtoUDP, Src: tn.ns.Addr, Dst: tn.victim.Addr, Payload: make([]byte, 16)}
	quote, _ := packet.QuoteDatagram(nil, quotedIP)
	tn.atk.SendICMPSpoofed(tn.victim.Addr, tn.ns.Addr, &packet.ICMP{
		Type: packet.ICMPTypeDestUnreach, Code: packet.ICMPCodeFragNeeded, MTU: 600, Payload: quote,
	})
	tn.net.Run()
	tn.ns.SendUDP(53, tn.victim.Addr, 5353, make([]byte, 1200))
	tn.net.Run()
	if got != 0 {
		t.Fatal("fragmented datagram delivered to a frag-dropping host")
	}
	// Small datagrams still arrive.
	tn.ns.SendUDP(53, tn.victim.Addr, 5353, []byte("small"))
	tn.net.Run()
	if got != 1 {
		t.Fatal("small datagram lost")
	}
}

// TestBadUDPChecksumDropped: a datagram with a bad checksum is dropped,
// alone and right behind a train to the same port at the same instant:
// a train's checksum is verified once, for its own delivery only.
func TestBadUDPChecksumDropped(t *testing.T) {
	for _, train := range []int{0, 3} {
		tn := build(t)
		var got int
		var at []time.Duration
		tn.victim.BindUDP(5353, func(Datagram) { got++ })
		tn.victim.OnRaw(func(*packet.IPv4) { at = append(at, tn.clock.Now()) })
		if train > 0 {
			tn.atk.SendUDPTrain(tn.atk.Addr, 1, tn.victim.Addr, 5353, []byte("\x00\x00 a train"), train)
		}
		u := &packet.UDP{SrcPort: 1, DstPort: 5353, Checksum: 0xdead, ForceChecksum: true, Payload: []byte("corrupt")}
		wire, _ := u.Serialize(nil, tn.atk.Addr, tn.victim.Addr)
		tn.atk.SendRawIP(&packet.IPv4{ID: 1, TTL: 64, Protocol: packet.ProtoUDP, Src: tn.atk.Addr, Dst: tn.victim.Addr, Payload: wire})
		tn.net.Run()
		if got != train {
			t.Fatalf("behind a %d-datagram train: %d datagrams delivered, want %d (the bad checksum dropped)", train, got, train)
		}
		if len(at) != train+1 || at[0] != at[train] {
			t.Fatalf("behind a %d-datagram train: arrivals at %v, want %d at one instant", train, at, train+1)
		}
	}
}

func TestEphemeralPortRange(t *testing.T) {
	tn := build(t)
	for i := 0; i < 1000; i++ {
		p := tn.victim.EphemeralPort()
		if p < tn.victim.Cfg.PortMin || p > tn.victim.Cfg.PortMax {
			t.Fatalf("ephemeral port %d outside range", p)
		}
	}
	tn.victim.Cfg.RandomizePorts = false
	if tn.victim.EphemeralPort() != tn.victim.Cfg.PortMin {
		t.Fatal("non-randomizing host should use fixed port")
	}
	tn.victim.Cfg.RandomizePorts = true
	// BindUDP(0) must avoid collisions.
	seen := map[uint16]bool{}
	for i := 0; i < 200; i++ {
		p := tn.victim.BindUDP(0, func(Datagram) {})
		if seen[p] {
			t.Fatal("BindUDP(0) returned a bound port")
		}
		seen[p] = true
	}
}

// TestResetReseedsHostStreams: Reset reseeds every host's existing
// stream in place, so a reset network draws exactly what a fresh build
// with the same seed draws — each host's IP-ID start and its stream,
// past the stream's 273-value head — however far the previous trial
// drew.
func TestResetReseedsHostStreams(t *testing.T) {
	used := build(t)
	used.net.Snapshot()
	for i, h := range []*Host{used.victim, used.ns, used.atk} {
		for range 200 * (i + 1) {
			h.Rand().Uint64()
		}
	}
	used.net.Reset(1)
	fresh := build(t)
	for _, pair := range [][2]*Host{{used.victim, fresh.victim}, {used.ns, fresh.ns}, {used.atk, fresh.atk}} {
		got, want := pair[0], pair[1]
		if got.ipidGlobal != want.ipidGlobal {
			t.Fatalf("%s: IP-ID start %d after Reset, %d fresh", got.Name, got.ipidGlobal, want.ipidGlobal)
		}
		for k := 0; k < 400; k++ {
			if g, w := got.Rand().Uint64(), want.Rand().Uint64(); g != w {
				t.Fatalf("%s: draw %d after Reset %#x, fresh %#x", got.Name, k, g, w)
			}
		}
	}
}

// TestDeliveryPoolTrim pins the delivery-node retention bound that the
// campaign's worker pool applies between jobs, the freelist's backing
// array and the nodes' IP-ID lists included.
func TestDeliveryPoolTrim(t *testing.T) {
	p := &DeliveryPool{}
	for i := 0; i < 50; i++ {
		p.free = append(p.free, &delivery{ids: make([]uint16, 0, 400)})
	}
	if p.Retained() != 50 {
		t.Fatalf("Retained %d, want 50", p.Retained())
	}
	p.Trim(8)
	if p.Retained() != 8 || cap(p.free) != 8 {
		t.Fatalf("post-Trim Retained %d in %d slots, want 8 in 8", p.Retained(), cap(p.free))
	}
	for _, d := range p.free {
		if cap(d.ids) != 0 {
			t.Fatalf("a kept node holds a list of %d IP-IDs", cap(d.ids))
		}
	}
	p.Trim(0)
	if p.Retained() != 0 {
		t.Fatalf("Trim(0) retained %d nodes", p.Retained())
	}
}

// conserved asserts the packet-conservation invariant: once the clock
// is quiet, every packet offered to the network was delivered or
// dropped.
func conserved(t *testing.T, n *Network) {
	t.Helper()
	if p := n.Clock.Pending(); p != 0 {
		t.Fatalf("%d events still pending", p)
	}
	if n.Offered != n.Delivered+n.Dropped {
		t.Fatalf("offered %d != delivered %d + dropped %d", n.Offered, n.Delivered, n.Dropped)
	}
}

// TestPacketConservation drives every way a packet can leave the
// network — delivery, interception, and each drop path — and checks
// Offered == Delivered + Dropped with the exact split each path
// implies.
func TestPacketConservation(t *testing.T) {
	big := make([]byte, 1000)
	for _, tc := range []struct {
		name               string
		send               func(tn *testNet)
		delivered, dropped uint64
	}{
		{"bound port", func(tn *testNet) {
			tn.ns.BindUDP(53, func(Datagram) {})
			tn.victim.SendUDP(40000, tn.ns.Addr, 53, []byte("q"))
		}, 1, 0},
		{"closed port and its ICMP error", func(tn *testNet) {
			tn.atk.SendUDP(1234, tn.victim.Addr, 9999, []byte("probe"))
		}, 2, 0},
		{"fragments", func(tn *testNet) {
			tn.ns.BindUDP(53, func(Datagram) {})
			tn.victim.SetPMTU(tn.ns.Addr, 576)
			tn.victim.SendUDP(40000, tn.ns.Addr, 53, big)
		}, 2, 0},
		{"egress filter", func(tn *testNet) {
			tn.victim.SendUDPSpoofed(netip.MustParseAddr("9.9.9.9"), 1, tn.ns.Addr, 53, []byte("x"))
		}, 0, 1},
		{"loss", func(tn *testNet) {
			tn.ns.BindUDP(53, func(Datagram) {})
			tn.net.SetLossRate(1)
			tn.victim.SendUDP(40000, tn.ns.Addr, 53, []byte("q"))
		}, 0, 1},
		{"no route", func(tn *testNet) {
			tn.victim.SendUDP(40000, netip.MustParseAddr("203.0.113.1"), 53, []byte("q"))
		}, 0, 1},
		{"DF: no fragmentable MTU", func(tn *testNet) {
			tn.victim.SetPMTU(tn.ns.Addr, 24)
			tn.victim.SendUDP(40000, tn.ns.Addr, 53, big)
		}, 0, 1},
		{"no receiving host", func(tn *testNet) {
			tn.victim.SendUDP(40000, netip.MustParseAddr("123.0.0.99"), 53, []byte("q"))
		}, 0, 1},
		{"interceptor", func(tn *testNet) {
			tn.net.AS(tn.atkAS).Interceptor = func(*packet.IPv4) {}
			tn.net.RIB.Announce(netip.MustParsePrefix("123.0.0.0/24"), tn.atkAS)
			tn.victim.SendUDP(40000, tn.ns.Addr, 53, []byte("q"))
		}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := build(t)
			tn.net.Snapshot()
			tc.send(tn)
			tn.net.Run()
			conserved(t, tn.net)
			if tn.net.Delivered != tc.delivered || tn.net.Dropped != tc.dropped {
				t.Fatalf("delivered %d, dropped %d; want %d, %d",
					tn.net.Delivered, tn.net.Dropped, tc.delivered, tc.dropped)
			}
			tn.net.Reset(2)
			if tn.net.Offered != 0 {
				t.Fatalf("Reset left Offered = %d", tn.net.Offered)
			}
		})
	}
}
