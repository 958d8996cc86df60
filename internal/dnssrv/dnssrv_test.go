package dnssrv_test

import (
	"bytes"
	"testing"
	"time"

	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/resolver"
	"crosslayer/internal/scenario"
)

func querySync(t *testing.T, s *scenario.S, from *netsim.Host, name string, typ dnswire.Type) *dnswire.Message {
	t.Helper()
	var got *dnswire.Message
	resolver.StubQuery(from, scenario.NSIP, name, typ, 5*time.Second, func(m *dnswire.Message, err error) {
		if err != nil {
			t.Fatalf("query %s %v: %v", name, typ, err)
		}
		got = m
	})
	s.Run()
	if got == nil {
		t.Fatalf("no response for %s %v", name, typ)
	}
	return got
}

func TestAuthoritativeAnswer(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 1})
	m := querySync(t, s, s.Attacker, "www.vict.im.", dnswire.TypeA)
	if !m.Authoritative || m.RCode != dnswire.RCodeNoError {
		t.Fatalf("header: aa=%v rcode=%v", m.Authoritative, m.RCode)
	}
	if len(m.Answers) != 1 || m.Answers[0].Data.(*dnswire.AData).Addr != scenario.VictimWWW {
		t.Fatalf("answers: %v", m.Answers)
	}
}

func TestNXDomainCarriesSOA(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 1})
	m := querySync(t, s, s.Attacker, "missing.vict.im.", dnswire.TypeA)
	if m.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", m.RCode)
	}
	if len(m.Authority) != 1 || m.Authority[0].Type != dnswire.TypeSOA {
		t.Fatalf("authority: %v", m.Authority)
	}
}

func TestNoDataForExistingName(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 1})
	m := querySync(t, s, s.Attacker, "www.vict.im.", dnswire.TypeMX)
	if m.RCode != dnswire.RCodeNoError || len(m.Answers) != 0 {
		t.Fatalf("NODATA wrong: rcode=%v answers=%v", m.RCode, m.Answers)
	}
}

func TestRefusedOutsideZones(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 1})
	m := querySync(t, s, s.Attacker, "other.example.", dnswire.TypeA)
	if m.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %v, want REFUSED", m.RCode)
	}
}

func TestANYReturnsAllTypesAddressLast(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 1})
	// ANY responses get large; advertise a big buffer.
	var got *dnswire.Message
	q := dnswire.NewQuery(9, "vict.im.", dnswire.TypeANY)
	q.SetEDNS(4096, false)
	wire, _ := q.Pack()
	port := s.Attacker.BindUDP(0, func(dg netsim.Datagram) {
		m, err := dnswire.Unpack(dg.Payload)
		if err == nil && m.ID == 9 {
			got = m
		}
	})
	s.Attacker.SendUDP(port, scenario.NSIP, 53, wire)
	s.Run()
	if got == nil {
		t.Fatal("no ANY response")
	}
	types := map[dnswire.Type]bool{}
	for _, rr := range got.Answers {
		types[rr.Type] = true
	}
	for _, want := range []dnswire.Type{dnswire.TypeSOA, dnswire.TypeNS, dnswire.TypeA, dnswire.TypeMX, dnswire.TypeTXT, dnswire.TypeNAPTR} {
		if !types[want] {
			t.Fatalf("ANY missing %v (got %v)", want, got.Answers)
		}
	}
	if got.Answers[len(got.Answers)-1].Type != dnswire.TypeA {
		t.Fatalf("A record not last in ANY response: last=%v", got.Answers[len(got.Answers)-1].Type)
	}
}

// TestANYOrderIsFixed pins the ANY layout. MX, SRV and NAPTR share a
// rank, and RRsets come out of a map, so only a total order (ties
// broken by type code) keeps lookups, and the replies of two worlds
// built from one seed, identical.
func TestANYOrderIsFixed(t *testing.T) {
	z := scenario.BuildVictimZone(false)
	first, _ := z.Lookup("vict.im.", dnswire.TypeANY)
	for i := 0; i < 64; i++ {
		rrs, _ := z.Lookup("vict.im.", dnswire.TypeANY)
		for j := range rrs {
			if rrs[j] != first[j] {
				t.Fatalf("lookup %d: answer %d is %v, first lookup had %v", i, j, rrs[j].Type, first[j].Type)
			}
		}
	}
	replies := func() [][]byte {
		s := scenario.New(scenario.Config{Seed: 5})
		var got [][]byte
		s.Attacker.BindUDP(40000, func(dg netsim.Datagram) { got = append(got, bytes.Clone(dg.Payload)) })
		q := dnswire.NewQuery(9, "vict.im.", dnswire.TypeANY)
		q.SetEDNS(4096, false)
		wire, _ := q.Pack()
		for i := 0; i < 16; i++ {
			s.Attacker.SendUDP(40000, scenario.NSIP, 53, wire)
			s.Run()
		}
		return got
	}
	a, b := replies(), replies()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("replies: %d and %d, want 16 each", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("ANY reply %d differs between two seed-5 worlds", i)
		}
	}
}

func TestRFC8482MinimalANY(t *testing.T) {
	cfg := dnssrv.DefaultConfig()
	cfg.ServeANY = false
	s := scenario.New(scenario.Config{Seed: 1, ServerCfg: cfg})
	m := querySync(t, s, s.Attacker, "vict.im.", dnswire.TypeANY)
	if len(m.Answers) != 1 || m.Answers[0].Type != dnswire.TypeTXT {
		t.Fatalf("minimal ANY answer: %v", m.Answers)
	}
}

func TestRateLimitMutesServer(t *testing.T) {
	cfg := dnssrv.DefaultConfig()
	cfg.RateLimit = true
	cfg.RateLimitQPS = 10
	s := scenario.New(scenario.Config{Seed: 1, ServerCfg: cfg})
	got := 0
	for i := 0; i < 40; i++ {
		resolver.StubQuery(s.Attacker, scenario.NSIP, "www.vict.im.", dnswire.TypeA, 3*time.Second,
			func(m *dnswire.Message, err error) {
				if err == nil {
					got++
				}
			})
	}
	s.Run()
	if got != 10 {
		t.Fatalf("responses = %d, want 10 (RRL)", got)
	}
	if s.NS.RateDropped != 30 {
		t.Fatalf("RateDropped = %d, want 30", s.NS.RateDropped)
	}
	// Next second the quota resets.
	got2 := 0
	resolver.StubQuery(s.Attacker, scenario.NSIP, "www.vict.im.", dnswire.TypeA, 3*time.Second,
		func(m *dnswire.Message, err error) {
			if err == nil {
				got2++
			}
		})
	s.Run()
	if got2 != 1 {
		t.Fatal("RRL did not reset after window")
	}
}

func TestPaddingInflatesResponses(t *testing.T) {
	cfg := dnssrv.DefaultConfig()
	cfg.PadAnswersTo = 1300
	s := scenario.New(scenario.Config{Seed: 1, ServerCfg: cfg})
	q := dnswire.NewQuery(5, "www.vict.im.", dnswire.TypeA)
	q.SetEDNS(4096, false)
	resp := s.NS.BuildResponse(q)
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) < 1300 {
		t.Fatalf("padded response only %d bytes", len(wire))
	}
	// Genuine A record must be the LAST answer (fragment-tail layout).
	last := resp.Answers[len(resp.Answers)-1]
	if last.Type != dnswire.TypeA {
		t.Fatalf("last answer is %v, want A", last.Type)
	}
}

func TestTruncationAtEDNSLimit(t *testing.T) {
	cfg := dnssrv.DefaultConfig()
	cfg.PadAnswersTo = 1300
	s := scenario.New(scenario.Config{Seed: 1, ServerCfg: cfg})
	m := querySync(t, s, s.Attacker, "www.vict.im.", dnswire.TypeA) // stub sends no EDNS: limit 512
	if !m.Truncated || len(m.Answers) != 0 {
		t.Fatalf("expected TC response, got tc=%v answers=%d", m.Truncated, len(m.Answers))
	}
}

func TestSignedZoneAttachesValidRRSIGs(t *testing.T) {
	s := scenario.New(scenario.Config{Seed: 1, SignVictimZone: true})
	q := dnswire.NewQuery(5, "www.vict.im.", dnswire.TypeA)
	resp := s.NS.BuildResponse(q)
	var sig *dnswire.RRSIGData
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeRRSIG {
			sig = rr.Data.(*dnswire.RRSIGData)
		}
	}
	if sig == nil || !sig.Valid || sig.Covered != dnswire.TypeA {
		t.Fatalf("RRSIG missing/wrong: %+v", sig)
	}
}

func TestRandomizeOrderShufflesAnswers(t *testing.T) {
	cfg := dnssrv.DefaultConfig()
	cfg.RandomizeOrder = true
	cfg.PadAnswersTo = 900
	s := scenario.New(scenario.Config{Seed: 3, ServerCfg: cfg})
	q := dnswire.NewQuery(5, "www.vict.im.", dnswire.TypeA)
	q.SetEDNS(4096, false)
	positions := map[int]bool{}
	for i := 0; i < 16; i++ {
		resp := s.NS.BuildResponse(q)
		for pos, rr := range resp.Answers {
			if rr.Type == dnswire.TypeA {
				positions[pos] = true
			}
		}
	}
	if len(positions) < 2 {
		t.Fatal("answer order not randomised across responses")
	}
}

func TestTCPNeverTruncates(t *testing.T) {
	cfg := dnssrv.DefaultConfig()
	cfg.PadAnswersTo = 1300
	s := scenario.New(scenario.Config{Seed: 1, ServerCfg: cfg})
	q := dnswire.NewQuery(77, "www.vict.im.", dnswire.TypeA)
	wire, _ := q.Pack()
	var resp *dnswire.Message
	s.Attacker.CallTCP(scenario.NSIP, 53, wire, func(b []byte) {
		if b == nil {
			t.Error("no TCP response")
			return
		}
		m, err := dnswire.Unpack(b)
		if err != nil {
			t.Error(err)
			return
		}
		resp = m
	})
	s.Run()
	if resp == nil || resp.Truncated || len(resp.Answers) == 0 {
		t.Fatalf("TCP response wrong: %+v", resp)
	}
}

func TestZoneLookupSemantics(t *testing.T) {
	z := scenario.BuildVictimZone(false)
	if rrs, ok := z.Lookup("WWW.VICT.IM.", dnswire.TypeA); !ok || len(rrs) != 1 {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := z.Lookup("missing.vict.im.", dnswire.TypeA); ok {
		t.Fatal("missing name reported as existing")
	}
	// Empty non-terminal: _tcp.vict.im has children but no records.
	if _, ok := z.Lookup("_tcp.vict.im.", dnswire.TypeA); !ok {
		t.Fatal("empty non-terminal reported NXDOMAIN")
	}
	rrs, _ := z.Lookup("vict.im.", dnswire.TypeANY)
	if len(rrs) < 5 {
		t.Fatalf("ANY returned %d rrs", len(rrs))
	}
}
