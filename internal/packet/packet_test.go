package packet

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	ipA = netip.MustParseAddr("30.0.0.1")
	ipB = netip.MustParseAddr("123.0.0.53")
)

func TestIPv4RoundTrip(t *testing.T) {
	in := &IPv4{
		TOS: 0x10, ID: 0xbeef, DF: true, TTL: 61, Protocol: ProtoUDP,
		Src: ipA, Dst: ipB, Payload: []byte("hello-dns"),
	}
	wire, err := in.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.DF != in.DF || out.MF != in.MF || out.TTL != in.TTL ||
		out.Protocol != in.Protocol || out.Src != in.Src || out.Dst != in.Dst ||
		!bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	in := &IPv4{ID: 7, TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB, Payload: []byte("x")}
	wire, _ := in.Serialize(nil)
	wire[8] ^= 0xff // corrupt TTL
	if _, err := DecodeIPv4(wire); err == nil {
		t.Fatal("corrupted header decoded without error")
	}
}

func TestIPv4RejectsTruncated(t *testing.T) {
	in := &IPv4{ID: 7, TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB, Payload: []byte("abcdef")}
	wire, _ := in.Serialize(nil)
	for _, n := range []int{0, 1, 19} {
		if _, err := DecodeIPv4(wire[:n]); err == nil {
			t.Fatalf("decoded %d-byte prefix without error", n)
		}
	}
}

func TestFragmentOffsetsAndReassemblyOrder(t *testing.T) {
	payload := make([]byte, 1200)
	for i := range payload {
		payload[i] = byte(i)
	}
	in := &IPv4{ID: 0x1234, TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB, Payload: payload}
	frags, err := in.Fragment(576)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("1200B over mtu 576 produced %d fragments, want >=3", len(frags))
	}
	var rebuilt []byte
	for i, f := range frags {
		if f.ID != in.ID {
			t.Fatalf("fragment %d has ID %x, want %x", i, f.ID, in.ID)
		}
		if int(f.FragOff)*8 != len(rebuilt) {
			t.Fatalf("fragment %d offset %d*8 != %d accumulated", i, f.FragOff, len(rebuilt))
		}
		last := i == len(frags)-1
		if f.MF == last {
			t.Fatalf("fragment %d MF=%v, last=%v", i, f.MF, last)
		}
		if !last && len(f.Payload)%8 != 0 {
			t.Fatalf("non-final fragment %d payload %d not multiple of 8", i, len(f.Payload))
		}
		if IPv4HeaderLen+len(f.Payload) > 576 {
			t.Fatalf("fragment %d exceeds mtu", i)
		}
		rebuilt = append(rebuilt, f.Payload...)
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Fatal("concatenated fragments differ from original payload")
	}
}

func TestFragmentDFRefuses(t *testing.T) {
	in := &IPv4{ID: 1, DF: true, TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB, Payload: make([]byte, 2000)}
	if _, err := in.Fragment(576); err == nil {
		t.Fatal("DF packet fragmented without error")
	}
}

func TestFragmentSmallPacketPassthrough(t *testing.T) {
	in := &IPv4{ID: 1, TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB, Payload: []byte("small")}
	frags, err := in.Fragment(576)
	if err != nil || len(frags) != 1 {
		t.Fatalf("small packet: frags=%d err=%v", len(frags), err)
	}
	if frags[0].MF || frags[0].FragOff != 0 {
		t.Fatal("small packet got fragment flags")
	}
}

func TestUDPRoundTripAndChecksum(t *testing.T) {
	u := &UDP{SrcPort: 53, DstPort: 34567, Payload: []byte("dns response bytes")}
	wire, err := u.Serialize(nil, ipB, ipA)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeUDP(wire, ipB, ipA, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.SrcPort != 53 || out.DstPort != 34567 || !bytes.Equal(out.Payload, u.Payload) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	// Corrupt one payload byte: checksum must fail.
	wire[len(wire)-1] ^= 0x01
	if _, err := DecodeUDP(wire, ipB, ipA, true); err == nil {
		t.Fatal("corrupted UDP verified")
	}
	// Wrong pseudo-header (spoof-detection property): also fails.
	wire[len(wire)-1] ^= 0x01
	if _, err := DecodeUDP(wire, ipA, ipA, true); err == nil {
		t.Fatal("UDP verified under wrong pseudo-header")
	}
}

func TestUDPForceChecksum(t *testing.T) {
	u := &UDP{SrcPort: 1, DstPort: 2, Checksum: 0xabcd, ForceChecksum: true, Payload: []byte("z")}
	wire, _ := u.Serialize(nil, ipA, ipB)
	out, err := DecodeUDP(wire, ipA, ipB, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Checksum != 0xabcd {
		t.Fatalf("forced checksum not emitted: %04x", out.Checksum)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	for _, ic := range []*ICMP{
		{Type: ICMPTypeEcho, Code: 0, ID: 0x55, Seq: 9, Payload: []byte("ping")},
		{Type: ICMPTypeDestUnreach, Code: ICMPCodePortUnreach, Payload: make([]byte, ICMPQuoteLen)},
		{Type: ICMPTypeDestUnreach, Code: ICMPCodeFragNeeded, MTU: 292, Payload: make([]byte, ICMPQuoteLen)},
	} {
		wire, err := ic.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeICMP(wire)
		if err != nil {
			t.Fatal(err)
		}
		if out.Type != ic.Type || out.Code != ic.Code || out.MTU != ic.MTU || out.ID != ic.ID || out.Seq != ic.Seq {
			t.Fatalf("round trip mismatch: %+v vs %+v", out, ic)
		}
	}
}

func TestICMPPredicates(t *testing.T) {
	pu := &ICMP{Type: ICMPTypeDestUnreach, Code: ICMPCodePortUnreach}
	fn := &ICMP{Type: ICMPTypeDestUnreach, Code: ICMPCodeFragNeeded, MTU: 68}
	if !pu.IsPortUnreachable() || pu.IsFragNeeded() {
		t.Fatal("port-unreachable predicates wrong")
	}
	if !fn.IsFragNeeded() || fn.IsPortUnreachable() {
		t.Fatal("frag-needed predicates wrong")
	}
}

func TestQuoteDatagramTruncatesTo8PayloadBytes(t *testing.T) {
	ip := &IPv4{ID: 3, TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB, Payload: make([]byte, 100)}
	q, err := QuoteDatagram(nil, ip)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != ICMPQuoteLen {
		t.Fatalf("quote is %d bytes, want %d", len(q), ICMPQuoteLen)
	}
	qip, err := DecodeIPv4(q)
	if err != nil {
		t.Fatal(err)
	}
	if qip.ID != 3 || len(qip.Payload) != 8 {
		t.Fatalf("quote decoded wrong: %+v", qip)
	}
	// The quote appends, like Serialize: a prefix in dst survives.
	a, err := QuoteDatagram([]byte("pre"), ip)
	if err != nil || string(a[:3]) != "pre" || !bytes.Equal(a[3:], q) {
		t.Fatalf("quote appended to a prefix: % x (%v), want \"pre\" then % x", a, err, q)
	}
}

func TestChecksumProperties(t *testing.T) {
	// Verifying a buffer that embeds its own checksum yields 0.
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		d := append([]byte(nil), data...)
		d[0], d[1] = 0, 0
		ck := Checksum(d, 0)
		d[0], d[1] = byte(ck>>8), byte(ck)
		return Checksum(d, 0) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumIncrementalMatchesWhole(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a)%2 != 0 { // split only on even boundary for this property
			a = append(a, 0)
		}
		whole := Checksum(append(append([]byte(nil), a...), b...), 0)
		part := ChecksumPartial(a, 0)
		part = ChecksumPartial(b, part)
		return FoldChecksum(part) == whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(4000)
		mtu := 68 + rng.Intn(1500)
		payload := make([]byte, n)
		rng.Read(payload)
		in := &IPv4{ID: uint16(rng.Uint32()), TTL: 64, Protocol: ProtoUDP, Src: ipA, Dst: ipB, Payload: payload}
		frags, err := in.Fragment(mtu)
		if err != nil {
			t.Fatalf("n=%d mtu=%d: %v", n, mtu, err)
		}
		var got []byte
		for _, f := range frags {
			got = append(got, f.Payload...)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d mtu=%d: reassembly mismatch", n, mtu)
		}
	}
}

// TestSetUDPPayloadIDMatchesSerialize walks the ID through all 65,536
// values by successive patches, as a TXID flood train does, and
// requires every step to be byte-identical to a fresh Serialize of the
// patched payload — including the one value whose computed checksum is
// zero and goes out as 0xffff. Random payloads and IDs cover the rest.
func TestSetUDPPayloadIDMatchesSerialize(t *testing.T) {
	fresh := func(payload []byte) []byte {
		u := &UDP{SrcPort: 53, DstPort: 40000, Payload: payload}
		wire, err := u.Serialize(nil, ipB, ipA)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	payload := []byte("\x00\x00 a spoofed response body.")
	wire := fresh(payload)
	sawZero := false
	for id := 0; id < 1<<16; id++ {
		SetUDPPayloadID(wire, uint16(id))
		payload[0], payload[1] = byte(id>>8), byte(id)
		want := fresh(payload)
		if !bytes.Equal(wire, want) {
			t.Fatalf("ID %#04x: patched % x, serialized % x", id, wire, want)
		}
		sawZero = sawZero || want[6] == 0xff && want[7] == 0xff
	}
	if !sawZero {
		t.Fatal("no step produced a computed-zero checksum")
	}

	f := func(body []byte, id uint16) bool {
		body = append(body, 0, 0)
		wire := fresh(body)
		SetUDPPayloadID(wire, id)
		body[0], body[1] = byte(id>>8), byte(id)
		return bytes.Equal(wire, fresh(body))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}
