package dnswire

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
)

func mustPackUnpack(t *testing.T, m *Message) *Message {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	out, err := Unpack(wire)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	return out
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	m := &Message{
		ID: 0x5ab3, Response: true, Authoritative: true, Truncated: true,
		RecursionDesired: true, RecursionAvailable: true, AuthenticData: true,
		RCode:     RCodeNXDomain,
		Questions: []Question{{Name: "www.Vict.IM.", Type: TypeA, Class: ClassIN}},
	}
	out := mustPackUnpack(t, m)
	if out.ID != m.ID || !out.Response || !out.Authoritative || !out.Truncated ||
		!out.RecursionDesired || !out.RecursionAvailable || !out.AuthenticData ||
		out.RCode != RCodeNXDomain {
		t.Fatalf("flags mismatch: %+v", out)
	}
	if out.Questions[0].Name != "www.Vict.IM." {
		t.Fatalf("question case not preserved: %q", out.Questions[0].Name)
	}
}

func TestAllRRTypesRoundTrip(t *testing.T) {
	v4 := netip.MustParseAddr("6.6.6.6")
	v6 := netip.MustParseAddr("2001:db8::1")
	rrs := []*RR{
		NewA("vict.im", 300, v4),
		{Name: "vict.im.", Type: TypeAAAA, Class: ClassIN, TTL: 60, Data: &AAAAData{Addr: v6}},
		NewNS("vict.im", 3600, "ns1.vict.im"),
		NewCNAME("www.vict.im", 120, "vict.im"),
		NewSOA("vict.im", 3600, "ns1.vict.im", "hostmaster.vict.im", 2021082301),
		NewMX("vict.im", 300, 10, "mail.vict.im"),
		NewTXT("vict.im", 300, "v=spf1 ip4:30.0.0.0/24 -all"),
		NewSRV("_xmpp-server._tcp.vict.im", 300, 5, 0, 5269, "xmpp.vict.im"),
		NewNAPTR("vict.im", 300, 100, 10, "s", "x-eduroam:radius.tls", "_radsec._tcp.vict.im"),
		{Name: "vict.im.", Type: TypePTR, Class: ClassIN, TTL: 30, Data: &PTRData{Target: "host.vict.im."}},
		{Name: "vict.im.", Type: TypeIPSECKEY, Class: ClassIN, TTL: 300,
			Data: &IPSECKEYData{Precedence: 10, GatewayType: 1, Algorithm: 2, GatewayIP: v4, PublicKey: []byte{1, 2, 3, 4}}},
		{Name: "vict.im.", Type: TypeIPSECKEY, Class: ClassIN, TTL: 300,
			Data: &IPSECKEYData{Precedence: 10, GatewayType: 3, Algorithm: 2, GatewayName: "gw.vict.im.", PublicKey: []byte{9}}},
		{Name: "vict.im.", Type: TypeRRSIG, Class: ClassIN, TTL: 300,
			Data: &RRSIGData{Covered: TypeA, Signer: "vict.im.", Valid: true}},
	}
	m := &Message{ID: 1, Response: true, Questions: []Question{{Name: "vict.im.", Type: TypeANY, Class: ClassIN}}, Answers: rrs}
	out := mustPackUnpack(t, m)
	if len(out.Answers) != len(rrs) {
		t.Fatalf("got %d answers, want %d", len(out.Answers), len(rrs))
	}
	for i, rr := range out.Answers {
		if rr.Type != rrs[i].Type || !EqualNames(rr.Name, rrs[i].Name) || rr.TTL != rrs[i].TTL {
			t.Errorf("rr %d header mismatch: %v vs %v", i, rr, rrs[i])
		}
		if rr.Data.String() != rrs[i].Data.String() {
			t.Errorf("rr %d data mismatch: %q vs %q", i, rr.Data, rrs[i].Data)
		}
	}
}

func TestRRSIGValidityBitSurvives(t *testing.T) {
	for _, valid := range []bool{true, false} {
		m := &Message{ID: 1, Response: true, Answers: []*RR{{
			Name: "x.example.", Type: TypeRRSIG, Class: ClassIN, TTL: 10,
			Data: &RRSIGData{Covered: TypeTXT, Signer: "example.", Valid: valid},
		}}}
		out := mustPackUnpack(t, m)
		d := out.Answers[0].Data.(*RRSIGData)
		if d.Valid != valid || d.Covered != TypeTXT || !EqualNames(d.Signer, "example.") {
			t.Fatalf("RRSIG round trip lost validity: %+v", d)
		}
	}
}

func TestNameCompressionShrinksAndRoundTrips(t *testing.T) {
	m := &Message{ID: 9, Response: true,
		Questions: []Question{{Name: "mail.vict.im.", Type: TypeMX, Class: ClassIN}}}
	for i := 0; i < 10; i++ {
		m.Answers = append(m.Answers, NewMX("mail.vict.im", 300, uint16(i), "mx.vict.im"))
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Without compression each answer would carry a 14-byte owner name;
	// with compression each is a 2-byte pointer.
	if len(wire) > 12+18+10*(2+10+2+9+3) {
		t.Fatalf("message looks uncompressed: %d bytes", len(wire))
	}
	out, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range out.Answers {
		if !EqualNames(rr.Name, "mail.vict.im.") {
			t.Fatalf("decompressed name %q", rr.Name)
		}
		if !EqualNames(rr.Data.(*MXData).Host, "mx.vict.im.") {
			t.Fatalf("rdata name %q", rr.Data.(*MXData).Host)
		}
	}
}

func TestCompressionPointerLoopRejected(t *testing.T) {
	// Header + a name that is a pointer to itself.
	msg := make([]byte, 12)
	msg[5] = 1 // qdcount=1
	msg = append(msg, 0xc0, 12, 0, 1, 0, 1)
	if _, err := Unpack(msg); err == nil {
		t.Fatal("self-pointing name decoded")
	}
}

func TestTruncatedMessagesRejected(t *testing.T) {
	m := NewQuery(7, "abc.example.com.", TypeA)
	wire, _ := m.Pack()
	for n := 0; n < len(wire); n++ {
		if _, err := Unpack(wire[:n]); err == nil && n < len(wire)-0 {
			// Some prefixes may parse if counts are zeroed, but with
			// qdcount=1 any prefix shorter than the full message must fail.
			t.Fatalf("truncated message of %d/%d bytes decoded", n, len(wire))
		}
	}
}

func TestEDNSRoundTrip(t *testing.T) {
	m := NewQuery(1, "vict.im.", TypeANY)
	m.SetEDNS(4096, true)
	out := mustPackUnpack(t, m)
	sz, do, ok := out.EDNS()
	if !ok || sz != 4096 || !do {
		t.Fatalf("EDNS lost: size=%d do=%v ok=%v", sz, do, ok)
	}
	// Replacing EDNS must not duplicate the OPT RR.
	m.SetEDNS(512, false)
	if len(m.Additional) != 1 {
		t.Fatalf("SetEDNS duplicated OPT: %d additional", len(m.Additional))
	}
}

// TestUnpackEDNSAllocs pins what an OPT record costs Unpack: its RR, its
// OPTData and the Additional slice, and no RDATA object built only to
// be thrown away.
func TestUnpackEDNSAllocs(t *testing.T) {
	perUnpack := func(edns bool) float64 {
		q := NewQuery(0x1234, "www.vict.im.", TypeA)
		if edns {
			q.SetEDNS(1232, true)
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := Unpack(wire); err != nil {
				t.Fatal(err)
			}
		})
	}
	if plain, edns := perUnpack(false), perUnpack(true); edns != plain+3 {
		t.Fatalf("Unpack: %v allocs/op with EDNS, %v without; want 3 more", edns, plain)
	}
}

func TestCanonicalAndEqualNames(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "."}, {".", "."}, {"Vict.IM", "vict.im."}, {"vict.im.", "vict.im."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q)=%q want %q", c.in, got, c.want)
		}
	}
	if !EqualNames("WWW.Vict.im", "www.vict.IM.") {
		t.Fatal("EqualNames failed case-insensitive match")
	}
	if EqualNames("a.vict.im", "vict.im") {
		t.Fatal("EqualNames matched different names")
	}
}

func TestBailiwick(t *testing.T) {
	if !InBailiwick("ns1.vict.im.", "vict.im.") || !InBailiwick("vict.im.", "vict.im.") {
		t.Fatal("in-bailiwick names rejected")
	}
	if InBailiwick("attacker.com.", "vict.im.") {
		t.Fatal("out-of-bailiwick name accepted")
	}
	if InBailiwick("evilvict.im.", "vict.im.") {
		t.Fatal("suffix-but-not-subdomain accepted (missing dot check)")
	}
	if !InBailiwick("anything.example.", ".") {
		t.Fatal("root bailiwick should contain everything")
	}
}

func TestParentZone(t *testing.T) {
	if ParentZone("a.b.c.") != "b.c." || ParentZone("c.") != "." || ParentZone(".") != "." {
		t.Fatalf("ParentZone wrong: %q %q %q", ParentZone("a.b.c."), ParentZone("c."), ParentZone("."))
	}
}

func Test0x20EncodingPreservesIdentityAddsEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	name := "password-recovery.vict.im."
	enc := Encode0x20(name, rng)
	if !EqualNames(enc, name) {
		t.Fatalf("0x20 changed the name: %q", enc)
	}
	if enc == name {
		t.Fatalf("0x20 produced no case change for %d-letter name (astronomically unlikely)", Entropy0x20(name))
	}
	if Entropy0x20(name) != 22 {
		t.Fatalf("entropy count = %d, want 22", Entropy0x20(name))
	}
	if Entropy0x20("123.456.") != 0 {
		t.Fatal("digits counted as entropy")
	}
}

func TestBloatName(t *testing.T) {
	b := BloatName("vict.im.")
	if len(b) < MaxNameLen-MaxLabelLen {
		t.Fatalf("bloated name only %d bytes", len(b))
	}
	if err := validateName(strings.TrimSuffix(b, ".")); err != nil {
		t.Fatalf("bloated name invalid: %v", err)
	}
	if !strings.HasSuffix(b, ".vict.im.") {
		t.Fatalf("bloat lost the original name: %q", b)
	}
	// Must survive a pack/unpack round trip.
	m := NewQuery(1, b, TypeA)
	out := mustPackUnpack(t, m)
	if !EqualNames(out.Questions[0].Name, b) {
		t.Fatal("bloated name mangled in round trip")
	}
}

func TestNameLimitsEnforced(t *testing.T) {
	long := strings.Repeat("a", 64) + ".example."
	if _, err := (&Message{Questions: []Question{{Name: long, Type: TypeA, Class: ClassIN}}}).Pack(); err == nil {
		t.Fatal("64-byte label packed")
	}
	huge := strings.Repeat("abcdefgh.", 40) + "example."
	if _, err := (&Message{Questions: []Question{{Name: huge, Type: TypeA, Class: ClassIN}}}).Pack(); err == nil {
		t.Fatal(">255-byte name packed")
	}
}

func TestUnpackFuzzNoPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base, _ := (&Message{
		ID: 1, Response: true,
		Questions: []Question{{Name: "www.vict.im.", Type: TypeA, Class: ClassIN}},
		Answers:   []*RR{NewA("www.vict.im", 300, netip.MustParseAddr("6.6.6.6"))},
	}).Pack()
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), base...)
		for j := 0; j < 1+rng.Intn(8); j++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			b = b[:rng.Intn(len(b))]
		}
		Unpack(b) // must not panic; errors are fine
	}
}

func TestMXOrderingFieldsSurvive(t *testing.T) {
	m := &Message{ID: 2, Response: true, Answers: []*RR{
		NewMX("vict.im", 300, 10, "mx1.vict.im"),
		NewMX("vict.im", 300, 20, "mx2.vict.im"),
	}}
	out := mustPackUnpack(t, m)
	a := out.Answers[0].Data.(*MXData)
	b := out.Answers[1].Data.(*MXData)
	if a.Pref != 10 || b.Pref != 20 || !EqualNames(a.Host, "mx1.vict.im.") || !EqualNames(b.Host, "mx2.vict.im.") {
		t.Fatalf("MX fields lost: %v %v", a, b)
	}
}

func TestTXTJoined(t *testing.T) {
	d := &TXTData{Strings: []string{"v=spf1 ", "-all"}}
	if d.Joined() != "v=spf1 -all" {
		t.Fatalf("Joined = %q", d.Joined())
	}
}
