package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"crosslayer/internal/bgp"
	"crosslayer/internal/ipfrag"
	"crosslayer/internal/packet"
)

// IPIDMode selects how a host assigns IPv4 identification values —
// the property that decides whether FragDNS is deterministic (global
// counter, paper hitrate ~20%) or probabilistic (random, ~0.1%).
type IPIDMode int8

// IPIDMode values.
const (
	// IPIDGlobalCounter is one counter shared across destinations
	// (old Linux, many embedded stacks): trivially predictable.
	IPIDGlobalCounter IPIDMode = iota
	// IPIDPerDestCounter is a per-destination counter (modern Linux):
	// predictable only to an attacker sharing the path.
	IPIDPerDestCounter
	// IPIDRandom draws every ID uniformly.
	IPIDRandom
)

// ICMPLimitMode selects the ICMP error rate-limiting architecture.
type ICMPLimitMode int8

// ICMPLimitMode values.
const (
	// ICMPLimitGlobal is the single global token bucket (unpatched
	// Linux): the SadDNS side channel.
	ICMPLimitGlobal ICMPLimitMode = iota
	// ICMPLimitPerIP rate-limits per source address (the CVE-2020-25705
	// fix): verification probes are answered independently of spoofed
	// probes, closing the side channel.
	ICMPLimitPerIP
	// ICMPLimitNone sends every error (no side channel either: the
	// verification probe is always answered).
	ICMPLimitNone
)

// HostConfig captures the per-host behaviours the measurements test.
type HostConfig struct {
	IPIDMode      IPIDMode
	ICMPLimitMode ICMPLimitMode
	// ICMPBurst/ICMPRate parameterise the token bucket; Linux defaults
	// are burst 50, 50 tokens/s.
	ICMPBurst int
	ICMPRate  float64
	// HonorPMTUD: accept ICMP Fragmentation Needed and fragment
	// subsequent UDP datagrams. Hosts that ignore PTB never fragment.
	HonorPMTUD bool
	// PMTUFloor is the lowest path MTU the host will accept from a PTB
	// (Linux: min_pmtu 552; some stacks accept down to 68).
	PMTUFloor int
	// AcceptFragments: reassemble fragmented datagrams. Resolvers
	// behind frag-dropping firewalls have this false.
	AcceptFragments bool
	// EphemeralPortRange for source-port randomisation.
	PortMin, PortMax uint16
	// RandomizePorts false models ancient resolvers with a fixed
	// source port.
	RandomizePorts bool
}

// DefaultHostConfig is an unpatched-Linux-like host: the most
// attackable configuration, matching the paper's vulnerable baseline.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		IPIDMode:        IPIDGlobalCounter,
		ICMPLimitMode:   ICMPLimitGlobal,
		ICMPBurst:       50,
		ICMPRate:        1000,
		HonorPMTUD:      true,
		PMTUFloor:       552,
		AcceptFragments: true,
		PortMin:         32768,
		PortMax:         60999,
		RandomizePorts:  true,
	}
}

// Datagram is a received UDP payload with its source address and
// port. The destination is the handler's own: the receiving host's
// Addr and the port the handler was bound to. A socket bound with
// BindUDPExpect sees only the datagrams that pass its ID filter. The
// struct is nine words, which the register ABI passes to a handler in
// registers.
// Payload is only valid for the duration of the handler call, and
// read-only: the network owns the buffer, recycles it afterwards, and
// a train rewrites it in place for its next datagram. A handler that
// needs the bytes beyond its own return must copy them (keeping the
// Datagram struct itself, e.g. to read Src/SrcPort later, is fine).
//
// Train numbers the delivery the datagram arrived in; it is never 0
// and never repeats within a network, Reset included. Datagrams that
// share it came from one SendUDPTrain, back to back in one clock
// event, to the same port, and differ only in their first two payload
// bytes; every other datagram has a Train of its own. Only a loss
// splits a train into several deliveries (or a path MTU that makes
// each datagram leave as fragments). Between two datagrams of one
// train only the receiving handler and the Trace and onRaw observers
// run, so a handler may reuse work it did for the train's earlier
// datagrams.
//
// More is true when another datagram of the same delivery follows this
// one: a handler that defers work to the end of a train (such as
// answering it with one train of replies) does it when More is false.
// The datagrams an ID filter drops count as following ones, so a
// filtered socket may see More set on the last datagram it gets.
//
// A datagram of a SendUDPScan is a delivery of its own, as a separate
// send would be: it has a Train no other datagram shares and More
// false, although the scan travels as one delivery node.
type Datagram struct {
	Src     netip.Addr
	SrcPort uint16
	Payload []byte
	Train   uint64
	More    bool
}

// UDPHandler consumes datagrams delivered to a bound port.
type UDPHandler func(dg Datagram)

// udpBinding is what a bound UDP port holds: its handler and, for a
// socket bound with BindUDPExpect, the ID filter in front of it. A nil
// fn is a closed port.
type udpBinding struct {
	fn UDPHandler
	// rejected counts the datagrams the filter drops, when non-nil.
	rejected *uint64
	id       uint16
	filtered bool
}

// ICMPHandler observes ICMP messages delivered to the host. msg and
// msg.Payload are valid only during the call: the network decodes every
// message into one reused struct and recycles the payload's buffer
// afterwards. A handler that needs either later copies it.
type ICMPHandler func(src netip.Addr, msg *packet.ICMP)

// Host is one simulated machine.
type Host struct {
	Name string
	ASN  bgp.ASN
	Addr netip.Addr
	Cfg  HostConfig

	net          *Network
	rng          *rand.Rand
	udpPorts     map[uint16]udpBinding
	tcpPorts     map[uint16]TCPHandler
	sessionPorts map[uint16]SessionHandler
	sessions     map[sessionKey]*Session
	onICMP       ICMPHandler
	onRaw        func(*packet.IPv4)
	frag         *ipfrag.Cache
	pmtu         map[netip.Addr]int

	// lastPort and last are receiveUDP's last udpPorts lookup, a
	// closed port's zero binding included, while hasLast is set.
	// bindUDP, CloseUDP and reset are the only writers of udpPorts.
	// Each clears hasLast, so a cached binding is always what the map
	// holds, and last, so a released handler is not kept alive.
	lastPort uint16
	hasLast  bool
	last     udpBinding

	ipidGlobal  uint16
	ipidPerDest map[netip.Addr]uint16

	icmpBucket float64
	icmpWindow time.Duration
	icmpPerIP  map[netip.Addr]*bucketState
	// icmpAt is icmpWindowIndex's last result with the instant and the
	// bucket parameters it was computed from.
	icmpAt windowAt

	// Counters.
	Sent, Received    uint64
	ICMPSent          uint64
	ICMPSuppressed    uint64
	UDPDeliveredLocal uint64

	// snap holds the post-build state restored by reset; nil until
	// Network.Snapshot runs.
	snap *hostSnap
}

type bucketState struct {
	tokens float64
	window time.Duration
}

// windowAt is the index of the rate-limit window that holds instant at
// under the given ICMPBurst and ICMPRate. It is a pure function of the
// three, so it never needs dropping, and its zero value is already
// right: time 0 lies in window 0 whatever the window length.
type windowAt struct {
	at, index time.Duration
	burst     int
	rate      float64
}

// hostSnap is the part of a host's state that the build phase sets and
// trials may overwrite: the config (SadDNS narrows the port range per
// trial), the bound-port tables (victims deploy fresh apps per trial),
// the capture hooks, and the ICMP bucket level as built.
type hostSnap struct {
	cfg          HostConfig
	udpPorts     map[uint16]udpBinding
	tcpPorts     map[uint16]TCPHandler
	sessionPorts map[uint16]SessionHandler
	onICMP       ICMPHandler
	onRaw        func(*packet.IPv4)
	icmpBucket   float64
}

// snapshot records the host's current config and bindings as the state
// reset returns to.
func (h *Host) snapshot() {
	s := &hostSnap{
		cfg:        h.Cfg,
		udpPorts:   make(map[uint16]udpBinding, len(h.udpPorts)),
		onICMP:     h.onICMP,
		onRaw:      h.onRaw,
		icmpBucket: h.icmpBucket,
	}
	for p, b := range h.udpPorts {
		s.udpPorts[p] = b
	}
	if h.tcpPorts != nil {
		s.tcpPorts = make(map[uint16]TCPHandler, len(h.tcpPorts))
		for p, fn := range h.tcpPorts {
			s.tcpPorts[p] = fn
		}
	}
	if h.sessionPorts != nil {
		s.sessionPorts = make(map[uint16]SessionHandler, len(h.sessionPorts))
		for p, fn := range h.sessionPorts {
			s.sessionPorts[p] = fn
		}
	}
	h.snap = s
}

// reset rewinds the host to its snapshot: config and port bindings
// restored, ephemeral state (sessions, defrag cache, learned PMTUs,
// IPID counters, ICMP buckets) cleared, counters zeroed, and the random
// stream reseeded in place from the (already reset) clock — called in
// host creation order by Network.Reset, this draws exactly the streams
// a fresh build would.
func (h *Host) reset() {
	s := h.snap
	if s == nil {
		panic("netsim: Host.reset without Snapshot")
	}
	h.Cfg = s.cfg
	h.hasLast, h.last = false, udpBinding{}
	clear(h.udpPorts)
	for p, b := range s.udpPorts {
		h.udpPorts[p] = b
	}
	if s.tcpPorts == nil {
		h.tcpPorts = nil
	} else {
		clear(h.tcpPorts)
		for p, fn := range s.tcpPorts {
			h.tcpPorts[p] = fn
		}
	}
	if s.sessionPorts == nil {
		h.sessionPorts = nil
	} else {
		clear(h.sessionPorts)
		for p, fn := range s.sessionPorts {
			h.sessionPorts[p] = fn
		}
	}
	h.sessions = nil
	h.onICMP = s.onICMP
	h.onRaw = s.onRaw
	h.frag.Reset()
	clear(h.pmtu)
	clear(h.ipidPerDest)
	clear(h.icmpPerIP)
	h.icmpBucket = s.icmpBucket
	h.icmpWindow = 0
	h.Sent, h.Received = 0, 0
	h.ICMPSent, h.ICMPSuppressed = 0, 0
	h.UDPDeliveredLocal = 0
	h.rng.Seed(h.net.Clock.NextSeed())
	h.ipidGlobal = uint16(h.rng.Uint32())
}

func newHost(n *Network, name string, asn bgp.ASN, addr netip.Addr) *Host {
	cfg := DefaultHostConfig()
	h := &Host{
		Name:        name,
		ASN:         asn,
		Addr:        addr,
		Cfg:         cfg,
		net:         n,
		rng:         n.Clock.NewRand(),
		udpPorts:    make(map[uint16]udpBinding),
		frag:        ipfrag.New(0, 0),
		pmtu:        make(map[netip.Addr]int),
		ipidPerDest: make(map[netip.Addr]uint16),
		icmpBucket:  float64(cfg.ICMPBurst),
		icmpPerIP:   make(map[netip.Addr]*bucketState),
	}
	h.ipidGlobal = uint16(h.rng.Uint32())
	return h
}

// Rand returns the host's deterministic random stream.
func (h *Host) Rand() *rand.Rand { return h.rng }

// Network returns the network the host is attached to.
func (h *Host) Network() *Network { return h.net }

// FragCache exposes the host's defragmentation cache (tests observe
// planted fragments through it).
func (h *Host) FragCache() *ipfrag.Cache { return h.frag }

// --- socket API ---

// BindUDP installs a handler for a UDP port, replacing any handler
// bound there; from the next datagram on, the port's traffic goes to
// fn, also within a train that is being delivered. Binding port 0
// draws ephemeral ports per the host's configuration until one is
// free, and returns it; it panics when every port EphemeralPort can
// draw is bound.
func (h *Host) BindUDP(port uint16, fn UDPHandler) uint16 {
	return h.bindUDP(port, udpBinding{fn: fn})
}

// BindUDPExpect is BindUDP for a socket that awaits one DNS ID, such
// as a resolver's upstream query port: a datagram whose first two
// payload bytes are not id, big-endian, or that has fewer than two, is
// dropped at the socket. It still counts in UDPDeliveredLocal, and in
// *rejected when rejected is non-nil, but fn never sees it. Because
// such a datagram's fate is fixed, a train's datagrams up to the next
// one carrying id are counted in one step (see delivery.run).
func (h *Host) BindUDPExpect(port, id uint16, rejected *uint64, fn UDPHandler) uint16 {
	return h.bindUDP(port, udpBinding{fn: fn, rejected: rejected, id: id, filtered: true})
}

func (h *Host) bindUDP(port uint16, b udpBinding) uint16 {
	if port == 0 {
		port = h.EphemeralPort()
		if h.udpPorts[port].fn != nil {
			h.checkEphemeralFree()
			for h.udpPorts[port].fn != nil {
				port = h.EphemeralPort()
			}
		}
	}
	h.udpPorts[port] = b
	h.hasLast, h.last = false, udpBinding{}
	return port
}

// checkEphemeralFree panics unless EphemeralPort can still draw an
// unbound port: the range's first port with RandomizePorts off, any
// port of the range otherwise.
func (h *Host) checkEphemeralFree() {
	lo, hi := int(h.Cfg.PortMin), int(h.Cfg.PortMax)
	if !h.Cfg.RandomizePorts {
		hi = lo
	}
	for p := lo; p <= hi; p++ {
		if h.udpPorts[uint16(p)].fn == nil {
			return
		}
	}
	panic(fmt.Sprintf("netsim: BindUDP(0) on host %s: every ephemeral port in %d-%d is bound (RandomizePorts %v)",
		h.Name, lo, hi, h.Cfg.RandomizePorts))
}

// CloseUDP releases a bound port; from the next datagram on, the
// port's traffic draws ICMP errors, also within a train that is being
// delivered.
func (h *Host) CloseUDP(port uint16) {
	delete(h.udpPorts, port)
	h.hasLast, h.last = false, udpBinding{}
}

// EphemeralPort draws a source port from the configured range; with
// RandomizePorts off the lowest port of the range is always used.
func (h *Host) EphemeralPort() uint16 {
	if !h.Cfg.RandomizePorts {
		return h.Cfg.PortMin
	}
	span := int(h.Cfg.PortMax) - int(h.Cfg.PortMin) + 1
	return h.Cfg.PortMin + uint16(h.rng.Intn(span))
}

// OnICMP installs an observer for ICMP messages addressed to the host;
// see ICMPHandler for how long a message stays valid.
func (h *Host) OnICMP(fn ICMPHandler) { h.onICMP = fn }

// OnRaw installs a packet-capture observer seeing every IP packet the
// host receives, headers included (tcpdump on the measurement probe:
// how the IPID experiments of §5.2.2 read identification values). The
// observer may keep the packet but must not modify it: the receive
// path that follows trusts a train's checksum once its first datagram
// passed (see receiveUDP).
func (h *Host) OnRaw(fn func(*packet.IPv4)) { h.onRaw = fn }

// --- send paths ---

// NextIPID returns the identification value for a datagram to dst,
// advancing the relevant counter.
func (h *Host) NextIPID(dst netip.Addr) uint16 {
	switch h.Cfg.IPIDMode {
	case IPIDGlobalCounter:
		h.ipidGlobal++
		return h.ipidGlobal
	case IPIDPerDestCounter:
		h.ipidPerDest[dst]++
		return h.ipidPerDest[dst]
	default:
		return uint16(h.rng.Uint32())
	}
}

// PeekIPID returns the next identification value without consuming it
// (used by measurement probes that infer counter behaviour).
func (h *Host) PeekIPID(dst netip.Addr) uint16 {
	switch h.Cfg.IPIDMode {
	case IPIDGlobalCounter:
		return h.ipidGlobal + 1
	case IPIDPerDestCounter:
		return h.ipidPerDest[dst] + 1
	default:
		return 0
	}
}

// skipIPIDs draws the host's next n IP-IDs toward dst in one step, when
// they count up from id: its counter toward dst stands at id, the ID it
// drew last. It reports whether it did; a random-IP-ID host draws each
// with NextIPID.
func (h *Host) skipIPIDs(dst netip.Addr, id uint16, n int) bool {
	switch h.Cfg.IPIDMode {
	case IPIDGlobalCounter:
		if h.ipidGlobal != id {
			return false
		}
		h.ipidGlobal += uint16(n)
	case IPIDPerDestCounter:
		if h.ipidPerDest[dst] != id {
			return false
		}
		h.ipidPerDest[dst] += uint16(n)
	default:
		return false
	}
	return true
}

// PMTUTo returns the path MTU the host currently believes applies
// toward dst (learned from PTB messages; default 1500).
func (h *Host) PMTUTo(dst netip.Addr) int {
	if m, ok := h.pmtu[dst]; ok {
		return m
	}
	return 1500
}

// SetPMTU pins the path MTU toward dst — how an operator-controlled
// test nameserver "always emits fragmented responses padded to a
// certain size" (§5.1.2) without waiting for PTB messages.
func (h *Host) SetPMTU(dst netip.Addr, mtu int) { h.pmtu[dst] = mtu }

// SendUDP sends a UDP datagram from the host's own address.
func (h *Host) SendUDP(srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) {
	h.SendUDPSpoofed(h.Addr, srcPort, dst, dstPort, payload)
}

// SendUDPSpoofed sends a UDP datagram with an arbitrary source address
// (delivery subject to the AS's egress filtering). The datagram is
// fragmented if it exceeds the learned path MTU. payload is serialized
// into a pooled buffer before this returns, so the caller may
// immediately reuse it.
func (h *Host) SendUDPSpoofed(src netip.Addr, srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) {
	ip := h.udpPacket(src, srcPort, dst, dstPort, payload)
	h.sendUDP(&ip, 1, nil)
}

// SendUDPTrain sends n UDP datagrams, from any source address, that
// differ only in their first two payload bytes, a big-endian ID that
// counts up from the one payload holds there, wrapping after 0xffff: a
// DNS burst whose IDs count up, such as SadDNS's TXID flood, the
// §5.2.2 RRL probe's query burst or a nameserver's replies to it. A
// train is observably n SendUDPSpoofed calls — the same IP-IDs, loss
// draws, counters, Trace events and handler calls, in the same order —
// but costs one serialization, one egress and route decision and,
// lossless, one scheduled delivery that rewrites one buffer per
// datagram when it fires. What a handler can see besides is
// Datagram.Train and Datagram.More: the datagrams of one delivery share
// a Train, where n sends would each have their own, and all but the
// last have More set. A loss splits the train into several deliveries,
// and datagrams larger than the path MTU leave one at a time, as
// fragments, each reassembled datagram with a Train of its own.
func (h *Host) SendUDPTrain(src netip.Addr, srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte, n int) {
	if len(payload) < 2 {
		panic("netsim: a train's payload must hold its two-byte ID")
	}
	if n <= 0 {
		return
	}
	ip := h.udpPacket(src, srcPort, dst, dstPort, payload)
	h.sendUDP(&ip, n, nil)
}

// SendUDPScan sends one UDP datagram to each of ports, in order, from
// any source address and all with the same payload: a port scan, such
// as a window of SadDNS probes (§3.2). A scan is observably len(ports)
// SendUDPSpoofed calls — the same IP-IDs, loss draws, counters, Trace
// events and handler calls, in the same order — and unlike a train's,
// each of its datagrams is a delivery of its own to the receiver: its
// own Datagram.Train, More false, its checksum verified. It costs one
// serialization and one egress and route decision and, lossless, one
// scheduled delivery, which holds its own copy of ports and rewrites
// the destination port per datagram (packet.SetUDPDstPort) when it
// fires, so the caller may reuse ports and payload at once. A loss
// splits the scan into several deliveries, and datagrams larger than
// the path MTU leave one at a time, as fragments.
func (h *Host) SendUDPScan(src netip.Addr, srcPort uint16, dst netip.Addr, ports []uint16, payload []byte) {
	if len(ports) == 0 {
		return
	}
	ip := h.udpPacket(src, srcPort, dst, ports[0], payload)
	h.sendUDP(&ip, len(ports), ports)
}

// udpPacket serializes a UDP datagram into a pooled buffer and wraps
// it in an IPv4 packet carrying the host's next IP-ID toward dst.
func (h *Host) udpPacket(src netip.Addr, srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) packet.IPv4 {
	u := packet.UDP{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	wire, err := u.Serialize(h.net.wirep.Get(packet.UDPHeaderLen+len(payload)), src, dst)
	if err != nil {
		panic(fmt.Sprintf("netsim: udp serialize: %v", err))
	}
	return packet.IPv4{ID: h.NextIPID(dst), TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst, Payload: wire}
}

// sendUDP sends count datagrams built from ip, whose pooled payload it
// takes over: a train, or a scan of ports (see Network.send for how
// datagram k differs from ip). Datagrams that fit the learned path MTU
// go to the network whole, as one train or scan; larger ones are
// fragmented one datagram at a time. Fragments alias the parent
// payload, so they are sent unowned (copied) and the parent buffer is
// recycled afterwards.
func (h *Host) sendUDP(ip *packet.IPv4, count int, ports []uint16) {
	mtu := h.PMTUTo(ip.Dst)
	if ip.TotalLen() <= mtu {
		h.net.send(h, ip, true, count, ports)
		return
	}
	for k := 0; k < count; k++ {
		if k > 0 {
			ip.ID = h.NextIPID(ip.Dst)
			nextDatagram(ip.Payload, ports, k, 1)
		}
		frags, err := ip.Fragment(mtu)
		if err != nil {
			// No MTU to fragment into: the datagram is dropped at
			// origin (a PTB would come back from a router in reality;
			// sending hosts know their own PMTU already).
			h.net.Offered++
			h.net.Dropped++
			continue
		}
		for _, f := range frags {
			h.net.send(h, f, false, 1, nil)
		}
	}
	h.net.wirep.Put(ip.Payload)
}

// SendRawIP injects an arbitrary pre-built IPv4 packet (the attacker's
// raw socket: spoofed fragments, crafted ICMP, anything). The payload
// is copied before this returns.
func (h *Host) SendRawIP(ip *packet.IPv4) { h.net.Send(h, ip) }

// SendICMP sends an ICMP message from the host's own address.
func (h *Host) SendICMP(dst netip.Addr, msg *packet.ICMP) {
	h.SendICMPSpoofed(h.Addr, dst, msg)
}

// SendICMPSpoofed sends an ICMP message with an arbitrary source.
func (h *Host) SendICMPSpoofed(src, dst netip.Addr, msg *packet.ICMP) {
	wire, err := msg.Serialize(h.net.wirep.Get(packet.ICMPHeaderLen + len(msg.Payload)))
	if err != nil {
		panic(fmt.Sprintf("netsim: icmp serialize: %v", err))
	}
	ip := packet.IPv4{ID: h.NextIPID(dst), TTL: 64, Protocol: packet.ProtoICMP, Src: src, Dst: dst, Payload: wire}
	h.net.send(h, &ip, true, 1, nil)
}

// Ping sends an ICMP echo request.
func (h *Host) Ping(dst netip.Addr, id, seq uint16) {
	h.SendICMP(dst, &packet.ICMP{Type: packet.ICMPTypeEcho, ID: id, Seq: seq, Payload: []byte("ping")})
}

// --- receive path ---

// receive takes one delivered packet; more is Datagram.More.
func (h *Host) receive(ip *packet.IPv4, more bool) {
	h.Received++
	if h.onRaw != nil {
		h.onRaw(ip)
	}
	if ip.IsFragment() {
		if !h.Cfg.AcceptFragments {
			return
		}
		ip = h.frag.Insert(ip, h.net.Clock.Now())
		if ip == nil {
			return
		}
	}
	switch ip.Protocol {
	case packet.ProtoUDP:
		h.receiveUDP(ip, more)
	case packet.ProtoICMP:
		h.receiveICMP(ip)
	}
}

// receiveUDP verifies a datagram's checksum and hands it to its port.
// The checksum is verified once per delivery: datagram k of a train
// differs from the first only by SetUDPPayloadID, which keeps a valid
// checksum valid, so once the delivery's first datagram passed
// (Network.verified holds its Train) the rest are taken as verified.
// Raw sends, fragments and reassembled datagrams are deliveries of one,
// so each is verified. The port's binding comes from the last lookup
// while the port is the last one looked up (see last): a flood hits one
// port datagram after datagram.
func (h *Host) receiveUDP(ip *packet.IPv4, more bool) {
	n := h.net
	var u packet.UDP
	if err := packet.DecodeUDPInto(&u, ip.Payload, ip.Src, ip.Dst, n.verified != n.train); err != nil {
		return // bad checksum: silently dropped, like real stacks
	}
	n.verified = n.train
	b := &h.last
	if !h.hasLast || h.lastPort != u.DstPort {
		h.lastPort, h.last, h.hasLast = u.DstPort, h.udpPorts[u.DstPort], true
	}
	if b.fn == nil {
		h.maybeSendPortUnreachable(ip)
		return
	}
	h.UDPDeliveredLocal++
	if b.filtered && (len(u.Payload) < 2 || binary.BigEndian.Uint16(u.Payload) != b.id) {
		if b.rejected != nil {
			*b.rejected++
		}
		return
	}
	b.fn(Datagram{Src: ip.Src, SrcPort: u.SrcPort, Payload: u.Payload, Train: n.train, More: more})
}

// receiveICMP decodes an ICMP message into the network's reused
// struct, answers echoes, learns path MTUs and hands the message to the
// host's observer.
func (h *Host) receiveICMP(ip *packet.IPv4) {
	msg := &h.net.icmp
	if err := packet.DecodeICMPInto(msg, ip.Payload); err != nil {
		return
	}
	switch {
	case msg.Type == packet.ICMPTypeEcho:
		h.SendICMP(ip.Src, &packet.ICMP{Type: packet.ICMPTypeEchoReply, ID: msg.ID, Seq: msg.Seq, Payload: msg.Payload})
	case msg.IsFragNeeded():
		if !h.Cfg.HonorPMTUD {
			return
		}
		// The quoted datagram tells us which destination path shrank.
		quoted, err := packet.DecodeIPv4(msg.Payload)
		if err != nil || quoted.Src != h.Addr {
			return // not about a packet we sent
		}
		mtu := int(msg.MTU)
		if mtu < h.Cfg.PMTUFloor {
			mtu = h.Cfg.PMTUFloor
		}
		if mtu < h.PMTUTo(quoted.Dst) {
			h.pmtu[quoted.Dst] = mtu
		}
	}
	if h.onICMP != nil {
		h.onICMP(ip.Src, msg)
	}
}

// maybeSendPortUnreachable generates the ICMP error for a closed UDP
// port, subject to the host's rate-limit architecture. This is the
// SadDNS oracle. The quote is built in the network's scratch buffer,
// which is free again once SendICMP returns: the send copies the
// message into a pooled buffer and never delivers it synchronously.
func (h *Host) maybeSendPortUnreachable(ip *packet.IPv4) {
	if !h.takeICMPToken(ip.Src) {
		h.ICMPSuppressed++
		return
	}
	quote, err := packet.QuoteDatagram(h.net.quote[:0], ip)
	if err != nil {
		return
	}
	h.net.quote = quote
	h.ICMPSent++
	h.SendICMP(ip.Src, &packet.ICMP{
		Type: packet.ICMPTypeDestUnreach, Code: packet.ICMPCodePortUnreach, Payload: quote,
	})
}

// ICMPWindow returns the length of one rate-limit window: the bucket
// holds ICMPBurst tokens and refills in full every burst/rate seconds
// (Linux: burst 50, 1000 msgs/s ⇒ 50ms windows — the granularity the
// SadDNS scan clocks itself to).
func (h *Host) ICMPWindow() time.Duration {
	if h.Cfg.ICMPRate <= 0 || h.Cfg.ICMPBurst <= 0 {
		return time.Second
	}
	return time.Duration(float64(h.Cfg.ICMPBurst) / h.Cfg.ICMPRate * float64(time.Second))
}

// takeICMPToken implements the global ICMP error quota ("the
// operating systems have a constant, global limit of how many ICMP
// port unreachable messages they will return", §3.2): the bucket holds
// ICMPBurst tokens and is reset at every window boundary. Within one
// window, exhausting the quota with spoofed probes makes the host
// silent to everyone — the side channel.
func (h *Host) takeICMPToken(src netip.Addr) bool {
	window := h.icmpWindowIndex()
	switch h.Cfg.ICMPLimitMode {
	case ICMPLimitNone:
		return true
	case ICMPLimitPerIP:
		b := h.icmpPerIP[src]
		if b == nil {
			b = &bucketState{tokens: float64(h.Cfg.ICMPBurst), window: window}
			h.icmpPerIP[src] = b
		}
		if window > b.window {
			b.tokens = float64(h.Cfg.ICMPBurst)
			b.window = window
		}
		if b.tokens >= 1 {
			b.tokens--
			return true
		}
		return false
	default: // global
		if window > h.icmpWindow {
			h.icmpBucket = float64(h.Cfg.ICMPBurst)
			h.icmpWindow = window
		}
		if h.icmpBucket >= 1 {
			h.icmpBucket--
			return true
		}
		return false
	}
}

// icmpExhausted is takeICMPToken's side-effect-free twin: it reports
// that the bucket that applies to src is empty at this instant and no
// refill is due, so takeICMPToken(src) would return false and change
// nothing. It never holds under ICMPLimitNone.
func (h *Host) icmpExhausted(src netip.Addr) bool {
	window := h.icmpWindowIndex()
	switch h.Cfg.ICMPLimitMode {
	case ICMPLimitNone:
		return false
	case ICMPLimitPerIP:
		b := h.icmpPerIP[src]
		return b != nil && window <= b.window && b.tokens < 1
	default: // global
		return window <= h.icmpWindow && h.icmpBucket < 1
	}
}

// icmpWindowIndex returns the index of the rate-limit window that holds
// the current instant. A flood's datagrams arrive at one instant, so it
// is computed once per instant (see windowAt).
func (h *Host) icmpWindowIndex() time.Duration {
	w, now := &h.icmpAt, h.net.Clock.Now()
	if w.at != now || w.burst != h.Cfg.ICMPBurst || w.rate != h.Cfg.ICMPRate {
		*w = windowAt{at: now, index: now / h.ICMPWindow(), burst: h.Cfg.ICMPBurst, rate: h.Cfg.ICMPRate}
	}
	return w.index
}
