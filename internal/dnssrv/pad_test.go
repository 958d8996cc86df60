package dnssrv_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"crosslayer/internal/dnssrv"
	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/scenario"
)

// oracleBuildResponse is BuildResponse as it stood when padding
// repacked the whole response after each filler and built every filler
// anew. It reads only the server's exported state, so it runs beside
// the server it mirrors and checks the linear padding byte for byte.
func oracleBuildResponse(s *dnssrv.Server, query *dnswire.Message) *dnswire.Message {
	q := query.Question()
	resp := &dnswire.Message{
		ID: query.ID, Response: true, Authoritative: true,
		RecursionDesired: query.RecursionDesired,
		Questions:        query.Questions,
	}
	if sz, do, ok := query.EDNS(); ok {
		resp.SetEDNS(sz, do)
	}
	zone := s.Zone(q.Name)
	if zone == nil {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}
	if q.Type == dnswire.TypeANY && !s.Cfg.ServeANY {
		resp.Answers = append(resp.Answers, dnswire.NewTXT(q.Name, 3600, "RFC8482"))
		return resp
	}
	answers, exists := zone.Lookup(q.Name, q.Type)
	if len(answers) == 0 {
		if !exists {
			resp.RCode = dnswire.RCodeNXDomain
		}
		if soa := zone.SOA(); soa != nil {
			resp.Authority = append(resp.Authority, soa)
		}
		return resp
	}
	resp.Answers = append(resp.Answers, answers...)
	if s.Cfg.PadAnswersTo > 0 {
		oraclePad(s, resp, q.Name)
	}
	if s.Cfg.RandomizeOrder {
		rng := s.Host.Rand()
		rng.Shuffle(len(resp.Answers), func(i, j int) {
			resp.Answers[i], resp.Answers[j] = resp.Answers[j], resp.Answers[i]
		})
	} else {
		oracleStableByOrder(resp.Answers)
	}
	if zone.Signed {
		oracleSign(resp, zone)
	}
	return resp
}

// oraclePad is the quadratic padding loop: pack, compare with the
// floor, prepend one more filler, at most 64 times.
func oraclePad(s *dnssrv.Server, resp *dnswire.Message, qname string) {
	fillerName := "filler." + strings.TrimPrefix(dnswire.CanonicalName(qname), "filler.")
	chunk := strings.Repeat("x", 194)
	for i := 0; i < 64; i++ {
		wire, err := resp.Pack()
		if err != nil || len(wire) >= s.Cfg.PadAnswersTo {
			return
		}
		filler := dnswire.NewTXT(fillerName, 300, fmt.Sprintf("%s%06d", chunk, i))
		resp.Answers = append([]*dnswire.RR{filler}, resp.Answers...)
	}
}

func oracleStableByOrder(rrs []*dnswire.RR) {
	rank := func(t dnswire.Type) int {
		switch t {
		case dnswire.TypeTXT:
			return 0
		case dnswire.TypeSOA:
			return 1
		case dnswire.TypeNS:
			return 2
		case dnswire.TypeMX, dnswire.TypeSRV, dnswire.TypeNAPTR:
			return 3
		case dnswire.TypeA, dnswire.TypeAAAA:
			return 9
		default:
			return 5
		}
	}
	for i := 1; i < len(rrs); i++ {
		for j := i; j > 0 && rank(rrs[j].Type) < rank(rrs[j-1].Type); j-- {
			rrs[j], rrs[j-1] = rrs[j-1], rrs[j]
		}
	}
}

func oracleSign(resp *dnswire.Message, zone *dnssrv.Zone) {
	seen := map[dnswire.Type]bool{}
	var sigs []*dnswire.RR
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeRRSIG || seen[rr.Type] {
			continue
		}
		seen[rr.Type] = true
		sigs = append(sigs, &dnswire.RR{
			Name: rr.Name, Type: dnswire.TypeRRSIG, Class: dnswire.ClassIN, TTL: rr.TTL,
			Data: &dnswire.RRSIGData{Covered: rr.Type, Signer: zone.Origin, Valid: true},
		})
	}
	resp.Answers = append(resp.Answers, sigs...)
}

// padQuery is one padded question: A, ANY and TXT, 0x20-cased names,
// and names that themselves start with the filler label (so the
// filler owner is the query name).
type padQuery struct {
	name string
	typ  dnswire.Type
	edns uint16 // 0: no OPT record
}

var padQueries = []padQuery{
	{"www.vict.im.", dnswire.TypeA, 0},
	{"WwW.vIcT.iM.", dnswire.TypeA, 4096},
	{"vict.im.", dnswire.TypeANY, 4096},
	{"ViCt.Im.", dnswire.TypeANY, 0},
	{"vict.im.", dnswire.TypeTXT, 1232},
	{"filler.pad.test.", dnswire.TypeA, 0},
	{"FiLLeR.pAd.TeSt.", dnswire.TypeTXT, 4096},
}

func (pq padQuery) message(id uint16) *dnswire.Message {
	q := dnswire.NewQuery(id, pq.name, pq.typ)
	if pq.edns != 0 {
		q.SetEDNS(pq.edns, false)
	}
	return q
}

// padWorld is a scenario whose nameserver also serves pad.test., whose
// records sit at filler.pad.test.
func padWorld(seed int64, signed, shuffle bool) *scenario.S {
	cfg := dnssrv.DefaultConfig()
	cfg.RandomizeOrder = shuffle
	s := scenario.New(scenario.Config{Seed: seed, ServerCfg: cfg, SignVictimZone: signed})
	z := dnssrv.NewZone("pad.test.")
	z.Signed = signed
	z.Add(
		dnswire.NewA("filler.pad.test.", 300, scenario.VictimWWW),
		dnswire.NewTXT("filler.pad.test.", 300, "v=spf1 -all"),
	)
	s.NS.AddZone(z)
	return s
}

// padTargets returns floors around the oracle's packed length at 0–4,
// 31 and 62–64 fillers (the lengths its loop compares with the floor),
// plus floors no 64 fillers reach.
func padTargets(t *testing.T, pq padQuery) []int {
	t.Helper()
	s := padWorld(1, false, false)
	s.NS.Cfg.PadAnswersTo = 1 << 20
	full := oracleBuildResponse(s.NS, pq.message(1))
	if len(full.Answers) < 64 {
		t.Fatalf("%s %v: %d answers at an unreachable floor", pq.name, pq.typ, len(full.Answers))
	}
	targets := []int{1, 70000}
	for _, k := range []int{0, 1, 2, 3, 4, 31, 62, 63, 64} {
		m := *full
		m.Answers = full.Answers[64-k:] // the loop's state at k fillers
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{-1, 0, 1} {
			if n := len(wire) + d; n > 0 {
				targets = append(targets, n)
			}
		}
	}
	return targets
}

// TestPadMatchesQuadraticOracle checks the linear padding against the
// repack-per-filler loop it replaced: below the 64-filler cap, at it
// and above it, on signed zones and with answer-order randomisation,
// and on twin servers whose host streams must stay in step.
func TestPadMatchesQuadraticOracle(t *testing.T) {
	targets := make([][]int, len(padQueries))
	for i, pq := range padQueries {
		targets[i] = padTargets(t, pq)
	}
	compared := 0
	for _, signed := range []bool{false, true} {
		for _, shuffle := range []bool{false, true} {
			got, want := padWorld(7, signed, shuffle), padWorld(7, signed, shuffle)
			for i, pq := range padQueries {
				for _, target := range targets[i] {
					got.NS.Cfg.PadAnswersTo, want.NS.Cfg.PadAnswersTo = target, target
					q := pq.message(uint16(target))
					g, err := got.NS.BuildResponse(q).Pack()
					if err != nil {
						t.Fatal(err)
					}
					w, err := oracleBuildResponse(want.NS, q).Pack()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(g, w) {
						t.Fatalf("signed=%v shuffle=%v %s %v edns=%d floor %d: %d-byte response, oracle %d bytes",
							signed, shuffle, pq.name, pq.typ, pq.edns, target, len(g), len(w))
					}
					compared++
				}
				if g, w := got.NS.Host.Rand().Int63(), want.NS.Host.Rand().Int63(); g != w {
					t.Fatalf("signed=%v shuffle=%v %s: host streams diverged", signed, shuffle, pq.name)
				}
			}
		}
	}
	t.Logf("%d padded responses match the oracle", compared)
}

// TestUDPTruncationMatchesFullBuild pins the shortcut that skips a
// padded answer known to exceed the client's limit. Twin scenarios get
// the same queries: one server answers over UDP; for the other the test
// builds the full response, packs it and cuts it to a TC reply by the
// rule the UDP path applies, then sends what it got. Replies, the
// truncation count and the nameserver's host stream must match.
func TestUDPTruncationMatchesFullBuild(t *testing.T) {
	const port = 40000
	for _, world := range []struct{ signed, shuffle bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		udp, full := padWorld(5, world.signed, world.shuffle), padWorld(5, world.signed, world.shuffle)
		var gotReply, wantReply []byte
		udp.Attacker.BindUDP(port, func(dg netsim.Datagram) { gotReply = append(gotReply[:0], dg.Payload...) })
		full.Attacker.BindUDP(port, func(dg netsim.Datagram) { wantReply = append(wantReply[:0], dg.Payload...) })
		truncated := uint64(0)
		for _, pad := range []int{0, 600, 1300, 4000} {
			udp.NS.Cfg.PadAnswersTo, full.NS.Cfg.PadAnswersTo = pad, pad
			for _, edns := range []uint16{0, 512, 1232, 1400, 4096} {
				for _, pq := range padQueries {
					pq.edns = edns
					q := pq.message(uint16(pad) ^ edns)
					wire, err := q.Pack()
					if err != nil {
						t.Fatal(err)
					}
					gotReply = gotReply[:0]
					udp.Attacker.SendUDP(port, scenario.NSIP, 53, wire)
					udp.Run()

					resp := full.NS.BuildResponse(q)
					out, err := resp.Pack()
					if err != nil {
						t.Fatal(err)
					}
					limit := 512
					if edns != 0 {
						limit = int(edns)
					}
					if len(out) > limit {
						truncated++
						tr := &dnswire.Message{
							ID: resp.ID, Response: true, Authoritative: resp.Authoritative,
							Truncated: true, RecursionDesired: resp.RecursionDesired,
							RCode: resp.RCode, Questions: resp.Questions,
						}
						if out, err = tr.Pack(); err != nil {
							t.Fatal(err)
						}
					}
					wantReply = wantReply[:0]
					full.NS.Host.SendUDP(53, full.Attacker.Addr, port, out)
					full.Run()

					if len(wantReply) == 0 || !bytes.Equal(gotReply, wantReply) {
						t.Fatalf("%+v pad %d edns %d %s %v: UDP reply %d bytes, full build %d bytes",
							world, pad, edns, pq.name, pq.typ, len(gotReply), len(wantReply))
					}
					if udp.NS.Truncated != truncated {
						t.Fatalf("%+v pad %d edns %d %s: Truncated %d, full build %d",
							world, pad, edns, pq.name, udp.NS.Truncated, truncated)
					}
				}
				if g, w := udp.NS.Host.Rand().Int63(), full.NS.Host.Rand().Int63(); g != w {
					t.Fatalf("%+v pad %d edns %d: host streams diverged", world, pad, edns)
				}
			}
		}
		if truncated == 0 {
			t.Fatalf("%+v: no reply was truncated, so the shortcut went untested", world)
		}
	}
}

// TestPaddedBuildAllocsIndependentOfSize pins what makes padding cheap:
// the filler count is found with three packs, and a warm server reuses
// the fillers of the last owner name, so a response padded to 13,000
// bytes (61 fillers) allocates no more than one padded to 1,300 (6).
func TestPaddedBuildAllocsIndependentOfSize(t *testing.T) {
	s := padWorld(42, false, false)
	q := dnswire.NewQuery(5, "www.vict.im.", dnswire.TypeA)
	q.SetEDNS(4096, false)
	perBuild := func(pad int) float64 {
		s.NS.Cfg.PadAnswersTo = pad
		build := func() { s.NS.BuildResponse(q) }
		build() // build this owner's fillers
		return testing.AllocsPerRun(20, build)
	}
	short, long := perBuild(1300), perBuild(13000)
	if long != short {
		t.Fatalf("padded to 13,000 bytes: %v allocs/op, to 1,300: %v; want the same", long, short)
	}
}
