package crosslayer_test

import (
	"context"
	"net/netip"
	"testing"

	"crosslayer/internal/deploy"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/engine"
	"crosslayer/internal/netsim"
	"crosslayer/internal/packet"
	"crosslayer/internal/resolver"
	"crosslayer/internal/scenario"
)

// These tests pin the zero-allocation contract of the trial hot path:
// packing a DNS message into a reused buffer, serializing UDP/IPv4
// into sized buffers, and the netsim send/deliver cycle at steady
// state must not allocate. A regression here shows up as a number, not
// as a 5% benchmark drift someone has to argue about.

func TestAppendPackZeroAllocs(t *testing.T) {
	q := dnswire.NewQuery(0x1234, "www.vict.im.", dnswire.TypeA)
	q.SetEDNS(1232, false)
	var buf []byte
	// Warm the buffer to its steady-state capacity.
	wire, err := q.AppendPack(buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	buf = wire
	allocs := testing.AllocsPerRun(100, func() {
		wire, err := q.AppendPack(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = wire
	})
	if allocs != 0 {
		t.Fatalf("AppendPack into warmed buffer: %v allocs/op, want 0", allocs)
	}
}

func TestSerializeZeroAllocs(t *testing.T) {
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	payload := make([]byte, 512)
	u := packet.UDP{SrcPort: 5353, DstPort: 53, Payload: payload}
	ubuf := make([]byte, 0, packet.UDPHeaderLen+len(payload))
	ip := packet.IPv4{ID: 7, TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
	ipbuf := make([]byte, 0, packet.IPv4HeaderLen+packet.UDPHeaderLen+len(payload))

	allocs := testing.AllocsPerRun(100, func() {
		uw, err := u.Serialize(ubuf[:0], src, dst)
		if err != nil {
			t.Fatal(err)
		}
		ip.Payload = uw
		if _, err := ip.Serialize(ipbuf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UDP+IPv4 Serialize into sized buffers: %v allocs/op, want 0", allocs)
	}
}

// TestAppendNameZeroAllocs pins the append-style name decoder: walking
// a compressed wire name into a warmed caller-owned buffer must not
// touch the heap. This is the decode half of the resident-server
// hot-path contract (AppendPack is the encode half).
func TestAppendNameZeroAllocs(t *testing.T) {
	q := dnswire.NewQuery(0x1234, "a.b.c.www.vict.im.", dnswire.TypeA)
	wire, err := q.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, dnswire.MaxNameLen)
	allocs := testing.AllocsPerRun(100, func() {
		out, _, err := dnswire.AppendName(buf[:0], wire, dnswire.HeaderLen)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if allocs != 0 {
		t.Fatalf("AppendName into warmed buffer: %v allocs/op, want 0", allocs)
	}
	if string(buf) != "a.b.c.www.vict.im." {
		t.Fatalf("decoded %q", buf)
	}
}

// TestSteadyStateSendZeroAllocs drives a full spoofed-send round trip —
// serialize into a pooled buffer, schedule, deliver, recycle — and
// requires the warmed network to stop allocating: the wire pool feeds
// payload buffers back, the clock's event freelist feeds events back,
// and the delivery freelist feeds delivery nodes back.
func TestSteadyStateSendZeroAllocs(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 42})
	payload := make([]byte, 128)
	sink := 0
	s.ResolverHost.BindUDP(12345, func(dg netsim.Datagram) { sink += len(dg.Payload) })
	round := func() {
		s.Attacker.SendUDPSpoofed(scenario.NSIP, 53, scenario.ResolverIP, 12345, payload)
		s.Net.Run()
	}
	// Warm pools, freelists and the host's receive path.
	for i := 0; i < 10; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state spoofed send: %v allocs/op, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("payloads never delivered")
	}
}

// TestClosedPortProbeZeroAllocs pins the ICMP error path that a SadDNS
// port scan and the tail of its TXID flood take: on a warmed world a
// spoofed probe to a closed port allocates nothing. The error quotes
// the probe into the network's reused scratch buffer, and, with no
// host owning the probe's source address, it is dropped and its
// buffers are recycled.
func TestClosedPortProbeZeroAllocs(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 42})
	src := netip.MustParseAddr("123.0.0.99") // in the nameserver's prefix, owned by no host
	payload := make([]byte, 64)
	round := func() {
		s.Attacker.SendUDPSpoofed(src, 53, scenario.ResolverIP, 999, payload)
		s.Net.Run()
	}
	for i := 0; i < 10; i++ {
		round() // warm pools, freelists and the quote buffer
	}
	sent := s.ResolverHost.ICMPSent
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("spoofed probe to a closed port: %v allocs/op, want 0", allocs)
	}
	if s.ResolverHost.ICMPSent-sent < 100 || s.ResolverHost.ICMPSuppressed != 0 {
		t.Fatalf("%d ICMP errors sent, %d suppressed; want one per probe", s.ResolverHost.ICMPSent-sent, s.ResolverHost.ICMPSuppressed)
	}
}

// TestTrainAllocsIndependentOfLength pins what makes a flood cheap: a
// train is one scheduled delivery that rewrites one pooled buffer per
// datagram, so on a warmed world a 65,536-datagram train to a bound
// port allocates no more than a 16-datagram one.
func TestTrainAllocsIndependentOfLength(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 42})
	payload := make([]byte, 128)
	sink := 0
	s.ResolverHost.BindUDP(12345, func(dg netsim.Datagram) { sink += len(dg.Payload) })
	perTrain := func(n int) float64 {
		round := func() {
			s.Attacker.SendUDPTrain(scenario.NSIP, 53, scenario.ResolverIP, 12345, payload, n)
			s.Net.Run()
		}
		for i := 0; i < 3; i++ {
			round() // warm pools, freelists and the host's receive path
		}
		return testing.AllocsPerRun(5, round)
	}
	short, long := perTrain(16), perTrain(1<<16)
	if long > short {
		t.Fatalf("65,536-datagram train: %v allocs/op, 16-datagram train: %v; want no more", long, short)
	}
	if sink == 0 {
		t.Fatal("payloads never delivered")
	}
}

// TestResolverRoundTripZeroAllocs pins the resolver's full-resolution
// path at zero allocations per upstream round trip. The measurement is
// differential: two resolvers identical except for the retry count
// resolve against a muted server, and a resolution with four extra
// retransmission round trips must allocate exactly as much as one with
// none — the per-resolution cost (inflight struct, handler closure,
// callback slice) is allowed, a per-attempt cost is the regression.
func TestResolverRoundTripZeroAllocs(t *testing.T) {
	build := func(retries int) *scenario.S {
		prof := resolver.ProfileBIND
		prof.Retries = retries
		s := scenario.New(scenario.Config{Seed: 42, Profile: prof})
		// Route the test zone into a black hole — an address no host
		// owns, so the network drops each query after the propagation
		// delay and the only work measured is the resolver's own
		// retransmission machinery (a muted *server* would still pay
		// an Unpack per delivery and pollute the differential).
		s.Resolver.AddZoneServer("dead.vict.im.", netip.MustParseAddr("203.0.113.99"))
		return s
	}
	perResolution := func(s *scenario.S) float64 {
		round := func() {
			s.Resolver.Lookup("dead.vict.im.", dnswire.TypeA, func([]*dnswire.RR, error) {})
			s.Run()
		}
		for i := 0; i < 10; i++ {
			round() // warm wire pool, event freelist, port maps
		}
		return testing.AllocsPerRun(50, round)
	}
	base := perResolution(build(0))
	extra := perResolution(build(4))
	if extra != base {
		t.Fatalf("4 extra upstream round trips cost %v allocs (%v vs %v per resolution), want 0",
			extra-base, extra, base)
	}
}

// TestEngineDispatchAllocs bounds the engine's own per-trial overhead:
// dispatching trials off the shared counter must cost well under one
// allocation per trial once the per-job slices are amortized.
func TestEngineDispatchAllocs(t *testing.T) {
	const trials = 1024
	j := engine.Job{Items: trials, ShardSize: 1, Seed: 1, Parallelism: 1}
	allocs := testing.AllocsPerRun(10, func() {
		out, err := engine.RunWorkersCtx(context.Background(), j, func() *struct{} { return nil },
			func(_ *struct{}, sh engine.Shard) int { return sh.Start })
		if err != nil || len(out) != trials {
			t.Fatalf("%d results (%v)", len(out), err)
		}
	})
	if perTrial := allocs / trials; perTrial > 0.1 {
		t.Fatalf("engine dispatch: %v allocs/trial, want < 0.1", perTrial)
	}
}

// TestResetTrialAllocs bounds the steady-state cost of the build-once/
// reset-per-trial lifecycle. Both lifecycles run the same trial — one
// full resolution — so both pay its bookkeeping (the inflight record,
// the handler closure, cache inserts); the reset trial must shed the
// world-assembly cost on top, staying well under a third of the legacy
// build-per-trial figure. A regression here means Reset started
// rebuilding state that New owns, or a freelist stopped being reused.
//
// The rewind itself must not allocate at all once warm: every host
// stream is reseeded in place, and pools, maps and freelists keep
// their capacity. Three worlds cover the host, forwarder-hop and
// deployment-sampling parts of Reset.
func TestResetTrialAllocs(t *testing.T) {
	measured, ok := deploy.ByKey("measured")
	if !ok {
		t.Fatal("no measured deployment dataset")
	}
	hop := scenario.ForwarderSpec{}
	for _, w := range []struct {
		name string
		cfg  scenario.Config
	}{
		{"depth 0", scenario.Config{Seed: 42}},
		{"depth 3", scenario.Config{Seed: 42, ForwarderChain: []scenario.ForwarderSpec{hop, hop, hop}}},
		{"measured, depth 1", scenario.Config{Seed: 42, Deployment: measured, ForwarderChain: []scenario.ForwarderSpec{hop}}},
	} {
		s := scenario.New(w.cfg)
		s.Snapshot()
		seed := int64(0)
		reset := func() {
			seed++
			s.Reset(seed)
		}
		for i := 0; i < 10; i++ {
			reset()
		}
		if allocs := testing.AllocsPerRun(50, reset); allocs != 0 {
			t.Errorf("%s: scenario.S.Reset: %v allocs/op, want 0", w.name, allocs)
		}
	}

	resolve := func(s *scenario.S) {
		done := false
		s.Resolver.Lookup("www.vict.im.", dnswire.TypeA, func(_ []*dnswire.RR, err error) {
			done = err == nil
		})
		s.Run()
		if !done {
			t.Fatal("resolution failed")
		}
	}
	freshAllocs := testing.AllocsPerRun(5, func() {
		resolve(scenario.New(scenario.Config{Seed: 42}))
	})

	s := scenario.New(scenario.Config{Seed: 42})
	s.Snapshot()
	trial := func() {
		s.Reset(42)
		resolve(s)
	}
	for i := 0; i < 10; i++ {
		trial() // warm pools, freelists and lazily-created maps
	}
	resetAllocs := testing.AllocsPerRun(50, trial)
	if resetAllocs*3 > freshAllocs {
		t.Fatalf("reset-path trial: %v allocs vs %v for a build-per-trial run; want under a third",
			resetAllocs, freshAllocs)
	}
}
