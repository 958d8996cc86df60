package dnssrv_test

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"

	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/packet"
	"crosslayer/internal/scenario"
)

// trainBurst is n copies of one query payload, whose DNS IDs run
// 0…n−1: one SendUDPTrain, or n SendUDPSpoofed calls.
type trainBurst struct {
	payload []byte
	n       int
}

// trainCase configures both twins of TestTrainRepliesMatchSends. All
// bursts leave the prober at one instant, in order.
type trainCase struct {
	name            string
	signed, shuffle bool
	cfg             func(c *dnssrv.Config)
	bursts          []trainBurst
	// observe installs an Observe hook in the train twin as well.
	observe bool
	// randomIPID draws the nameserver's IP-IDs from the host stream
	// that the shuffle also draws from, so their order shows.
	randomIPID bool
	loss       float64
}

func packedQuery(name string, typ dnswire.Type, edns uint16, do bool) []byte {
	q := dnswire.NewQuery(0, name, typ)
	if edns != 0 {
		q.SetEDNS(edns, do)
	}
	wire, err := q.Pack()
	if err != nil {
		panic(err)
	}
	return wire
}

// TestTrainRepliesMatchSends: a nameserver answering a query train
// builds the reply once and resends it with the ID patched in. One
// twin gets each burst as one train, the other as separate sends; the
// sends twin also has an Observe hook, which keeps every datagram on
// the full path, so it answers as a server that never reuses a reply.
// Every packet the prober receives, the server's counters, its host's
// Sent and next IP-ID and its stream's next draw must match.
func TestTrainRepliesMatchSends(t *testing.T) {
	a := packedQuery("www.vict.im.", dnswire.TypeA, 0, false)
	a4096 := packedQuery("www.vict.im.", dnswire.TypeA, 4096, false)
	rrl := func(c *dnssrv.Config) { c.RateLimit, c.RateLimitQPS = true, 100 }
	pad := func(c *dnssrv.Config) { c.PadAnswersTo = 1400 }
	notQuery := dnswire.NewQuery(0, "www.vict.im.", dnswire.TypeA)
	notQuery.Response = true
	response, err := notQuery.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []trainCase{
		{name: "RRL off", bursts: []trainBurst{{a, 50}}},
		{name: "RRL at 100 qps, the probe's 400-query train", cfg: func(c *dnssrv.Config) { rrl(c); pad(c) },
			bursts: []trainBurst{{a, 400}}},
		{name: "first datagram already rate-limited", cfg: rrl, bursts: []trainBurst{{a, 100}, {a, 30}}},
		{name: "padded, no EDNS: TC reply reused", cfg: pad, bursts: []trainBurst{{a, 40}}},
		{name: "padded, EDNS 4096: full reply reused", cfg: pad, bursts: []trainBurst{{a4096, 40}}},
		{name: "RandomizeOrder, full replies", shuffle: true, randomIPID: true, cfg: pad, bursts: []trainBurst{{a4096, 40}}},
		{name: "RandomizeOrder, TC replies", shuffle: true, randomIPID: true, cfg: pad, bursts: []trainBurst{{a, 40}}},
		{name: "RandomizeOrder, TC after a full build", shuffle: true, randomIPID: true,
			bursts: []trainBurst{{packedQuery("vict.im.", dnswire.TypeANY, 200, false), 30}}},
		{name: "signed zone", signed: true, cfg: pad,
			bursts: []trainBurst{{packedQuery("www.vict.im.", dnswire.TypeA, 4096, true), 30}}},
		{name: "ANY", bursts: []trainBurst{{packedQuery("vict.im.", dnswire.TypeANY, 4096, false), 30}}},
		{name: "REFUSED", bursts: []trainBurst{{packedQuery("other.example.", dnswire.TypeA, 0, false), 20}}},
		{name: "NXDOMAIN", bursts: []trainBurst{{packedQuery("missing.vict.im.", dnswire.TypeA, 0, false), 20}}},
		{name: "malformed payload", bursts: []trainBurst{{[]byte("\x00\x00 is no DNS message"), 20}}},
		{name: "a response, not a query", bursts: []trainBurst{{response, 20}}},
		{name: "Observe hook", observe: true, cfg: pad, bursts: []trainBurst{{a, 40}}},
		{name: "two trains with different queries at one instant", cfg: rrl, bursts: []trainBurst{
			{a, 30}, {packedQuery("vict.im.", dnswire.TypeTXT, 4096, false), 30}, {a4096, 30}}},
		{name: "injected loss splits the train", cfg: func(c *dnssrv.Config) { rrl(c); pad(c) }, loss: 0.3,
			bursts: []trainBurst{{a, 300}}},
		{name: "the probe against a random-IP-ID nameserver", randomIPID: true, cfg: pad, bursts: []trainBurst{{a, 400}}},
		{name: "the probe against a random-IP-ID nameserver at 100 qps", randomIPID: true,
			cfg: func(c *dnssrv.Config) { rrl(c); pad(c) }, bursts: []trainBurst{{a, 400}}},
		{name: "a train of one", cfg: pad, bursts: []trainBurst{{a, 1}, {a4096, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			train, sends := runTrainTwin(t, tc, true), runTrainTwin(t, tc, false)
			for i := 0; i < max(len(train), len(sends)); i++ {
				var g, w string
				if i < len(train) {
					g = train[i]
				}
				if i < len(sends) {
					w = sends[i]
				}
				if g != w {
					t.Fatalf("log entry %d of %d/%d:\ntrain: %s\nsends: %s", i, len(train), len(sends), g, w)
				}
			}
		})
	}
}

// runTrainTwin builds a fresh world, sends tc's bursts from the
// attacker host — each as one train, or as separate sends with the ID
// patched in — runs the clock dry and returns its log: every packet the
// nameserver sent back, then its counters and its host's state.
func runTrainTwin(t *testing.T, tc trainCase, train bool) []string {
	s := padWorld(11, tc.signed, tc.shuffle)
	if tc.cfg != nil {
		tc.cfg(&s.NS.Cfg)
	}
	if tc.randomIPID {
		s.NSHost.Cfg.IPIDMode = netsim.IPIDRandom
	}
	if tc.loss > 0 {
		s.Net.SetLossRate(tc.loss)
	}
	var log []string
	s.Attacker.OnRaw(func(ip *packet.IPv4) {
		if ip.Src != scenario.NSIP {
			return
		}
		b, err := ip.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, fmt.Sprintf("reply % x", b))
	})
	const port = 40000
	s.Attacker.BindUDP(port, func(netsim.Datagram) {})
	observed := 0
	if tc.observe || !train {
		s.NS.Observe = func(*dnswire.Message, netip.Addr, string) { observed++ }
	}
	for _, b := range tc.bursts {
		if train {
			s.Attacker.SendUDPTrain(s.Attacker.Addr, port, scenario.NSIP, 53, b.payload, b.n)
			continue
		}
		buf := bytes.Clone(b.payload)
		for id := 0; id < b.n; id++ {
			buf[0], buf[1] = byte(id>>8), byte(id)
			s.Attacker.SendUDPSpoofed(s.Attacker.Addr, port, scenario.NSIP, 53, buf)
		}
	}
	s.Run()
	if tc.observe && int(s.NS.Queries) != observed {
		t.Fatalf("Observe saw %d of %d queries", observed, s.NS.Queries)
	}
	ns := s.NS
	log = append(log,
		fmt.Sprintf("queries=%d responses=%d rate-dropped=%d truncated=%d", ns.Queries, ns.Responses, ns.RateDropped, ns.Truncated),
		fmt.Sprintf("ns sent=%d, next IP-ID %d, next draw %d", s.NSHost.Sent, s.NSHost.NextIPID(s.Attacker.Addr), s.NSHost.Rand().Int63()))
	return log
}

// TestTrainReplyAllocsIndependentOfLength pins what reply reuse and
// reply trains buy: a warm nameserver answering a 400-query train, and
// the prober receiving its replies, allocate no more than for a
// 4-query train, because the server unpacks, looks up and packs once
// per train, not once per datagram, and its replies are one train that
// lists random IP-IDs in a node the freelist keeps warm.
func TestTrainReplyAllocsIndependentOfLength(t *testing.T) {
	for _, mode := range []netsim.IPIDMode{netsim.IPIDGlobalCounter, netsim.IPIDRandom} {
		s := padWorld(42, false, false)
		s.NS.Cfg.PadAnswersTo = 1400
		s.NSHost.Cfg.IPIDMode = mode
		q := packedQuery("www.vict.im.", dnswire.TypeA, 0, false)
		replies := 0
		s.Attacker.BindUDP(40000, func(netsim.Datagram) { replies++ })
		burst := func(n int) func() {
			return func() {
				s.Attacker.SendUDPTrain(s.Attacker.Addr, 40000, scenario.NSIP, 53, q, n)
				s.Run()
			}
		}
		burst(400)() // warm the pools for 400 replies in flight
		short, long := testing.AllocsPerRun(10, burst(4)), testing.AllocsPerRun(10, burst(400))
		t.Logf("IP-ID mode %d: allocs/op: %v for 4 queries, %v for 400", mode, short, long)
		if long > short {
			t.Fatalf("IP-ID mode %d: 400-query train: %v allocs/op, 4-query train: %v; want no more", mode, long, short)
		}
		if s.NS.Responses == 0 || s.NS.Truncated != s.NS.Responses || uint64(replies) != s.NS.Responses {
			t.Fatalf("%d responses, %d truncated, %d received: the probe's TC replies went untested", s.NS.Responses, s.NS.Truncated, replies)
		}
	}
}

// TestReplyTrainIsOneDelivery: a nameserver with random IP-IDs answers
// a lossless 400-query train with one train of replies, one pending
// event that reaches the prober as one delivery; under RRL at 100 qps
// the 100 replies it sends are that one delivery.
func TestReplyTrainIsOneDelivery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rrl     bool
		replies int
	}{{"RRL off", false, 400}, {"RRL at 100 qps", true, 100}} {
		t.Run(tc.name, func(t *testing.T) {
			s := padWorld(7, false, false)
			s.NS.Cfg.PadAnswersTo = 1400
			s.NS.Cfg.RateLimit, s.NS.Cfg.RateLimitQPS = tc.rrl, 100
			s.NSHost.Cfg.IPIDMode = netsim.IPIDRandom
			trains := map[uint64]int{}
			s.Attacker.BindUDP(40000, func(dg netsim.Datagram) { trains[dg.Train]++ })
			q := packedQuery("www.vict.im.", dnswire.TypeA, 0, false)
			s.Attacker.SendUDPTrain(s.Attacker.Addr, 40000, scenario.NSIP, 53, q, 400)
			if p := s.Clock.Pending(); p != 1 {
				t.Fatalf("%d events pending after the query train, want 1", p)
			}
			s.Clock.Step()
			if s.NS.Queries != 400 {
				t.Fatalf("the nameserver got %d queries, want 400", s.NS.Queries)
			}
			if p := s.Clock.Pending(); p != 1 {
				t.Fatalf("%d events pending after the nameserver answered, want 1 reply train", p)
			}
			s.Run()
			if len(trains) != 1 {
				t.Fatalf("replies arrived in %d deliveries, want 1: %v", len(trains), trains)
			}
			for _, n := range trains {
				if n != tc.replies {
					t.Fatalf("%d replies arrived, want %d", n, tc.replies)
				}
			}
		})
	}
}
