// Package netsim is a packet-level Internet simulator: hosts with
// IPv4/UDP/ICMP stacks attached to autonomous systems, forwarding
// decided by a BGP RIB (so prefix hijacks divert real packets), source
// spoofing subject to per-AS egress filtering, link latency on a
// virtual clock, and per-host Linux-like behaviours the paper's
// attacks exploit: the global ICMP rate-limit side channel, IP
// defragmentation caches, IPID assignment modes, and path-MTU
// learning from ICMP Fragmentation Needed.
package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"crosslayer/internal/bgp"
	"crosslayer/internal/packet"
	"crosslayer/internal/pool"
	"crosslayer/internal/sim"
)

// Network ties hosts, ASes and routing together.
type Network struct {
	Clock *sim.Clock
	RIB   *bgp.RIB
	Topo  *bgp.Topology

	hosts map[netip.Addr]*Host
	// hostOrder lists hosts in creation order — the replay order
	// Reset uses to re-derive per-host random streams exactly as a
	// fresh build would.
	hostOrder []*Host
	asInfo    map[bgp.ASN]*ASInfo
	// asSnaps holds each AS's snapshotted per-AS configuration
	// (egress filtering, access latency), restored by Reset so a
	// trial that sampled or mutated AS state rewinds like everything
	// else.
	asSnaps map[bgp.ASN]asSnap
	latency time.Duration
	// wirep recycles packet payload buffers; it defaults to a
	// per-network pool and can be replaced with a shared per-worker
	// arena via SetWirePool. delivp recycles in-flight delivery
	// nodes the same way (private by default, shareable via
	// SetDeliveryPool). Both are single-goroutine by the same argument
	// as the clock: all traffic of one simulation runs on one
	// goroutine.
	wirep    *pool.Wire
	ownWire  pool.Wire
	delivp   *DeliveryPool
	ownDeliv DeliveryPool
	// lossRate drops each sent packet independently with this
	// probability (failure injection; 0 = lossless). TCP exchanges are
	// unaffected (the abstraction models a reliable transport).
	lossRate float64
	lossRng  *rand.Rand
	// secureBlocked records (client, server) pairs whose encrypted
	// session handshakes an active attacker disrupts (BlockSecure) —
	// the downgrade lever against opportunistic encryption.
	secureBlocked map[[2]netip.Addr]bool
	// Trace, when non-nil, observes every delivered packet; the
	// example programs use it to print Figure 1/2-style sequences.
	Trace func(ev TraceEvent)
	// train numbers deliveries as they fire: the Datagram.Train of
	// every UDP datagram the one firing now hands to a handler.
	// verified is the train whose checksum receiveUDP last verified.
	train, verified uint64
	// quote is maybeSendPortUnreachable's scratch for the quoted
	// datagram of an ICMP error, and icmp the message receiveICMP
	// decodes each delivered ICMP packet into.
	quote []byte
	icmp  packet.ICMP

	// Counters. Offered counts every datagram or fragment handed to
	// the network, and the datagrams a sender drops for want of a
	// fragmentable MTU; each ends as exactly one Delivered or Dropped,
	// so once the clock is quiet Offered == Delivered + Dropped.
	Offered   uint64
	Delivered uint64
	Dropped   uint64
}

// ASInfo carries per-AS simulator state.
type ASInfo struct {
	ASN bgp.ASN
	// EgressFiltering drops packets whose source address does not
	// belong to the sending host (BCP 38). Per the paper ~70% of
	// networks enforce it; attackers operate from the ~30% that do not.
	EgressFiltering bool
	// AccessLatency is the one-way latency contribution of this AS's
	// access links; 0 means half the network base latency. A packet
	// between two ASes takes the sum of both contributions, so an AS
	// sitting on the carrier backbone (small AccessLatency) reaches
	// everyone faster than a stub behind a default access link — the
	// timing edge an attacker gains by operating from a carrier AS
	// instead of a stub.
	AccessLatency time.Duration
	// Interceptor receives packets routed to this AS for addresses no
	// local host owns — the attacker's view after a successful hijack.
	Interceptor func(ip *packet.IPv4)
	// TCPInterceptor lets a hijacker terminate TCP exchanges for
	// hijacked addresses (e.g. to serve a fake HTTP page after
	// diverting a prefix).
	TCPInterceptor func(src, dst netip.Addr, port uint16, req []byte) []byte
}

// TraceEvent describes one packet delivery.
type TraceEvent struct {
	At       time.Duration
	From, To netip.Addr
	Proto    uint8
	// Size is the transport payload length in bytes (the IP payload:
	// UDP/TCP header plus data) — enough for trace consumers to tell
	// tiny side-channel probes from full DNS responses.
	Size      int
	Info      string
	Intercept bool
}

// New creates a network over the given topology and RIB.
func New(clock *sim.Clock, topo *bgp.Topology, rib *bgp.RIB) *Network {
	n := &Network{
		Clock:   clock,
		RIB:     rib,
		Topo:    topo,
		hosts:   make(map[netip.Addr]*Host),
		asInfo:  make(map[bgp.ASN]*ASInfo),
		latency: 10 * time.Millisecond,
	}
	n.wirep = &n.ownWire
	n.delivp = &n.ownDeliv
	return n
}

// DeliveryPool is a freelist of in-flight delivery nodes that can be
// shared across networks, so the nodes warmed up by one simulation are
// reused by the next (the flood bursts the paper's attacks generate
// park thousands of deliveries in the queue at once — a cold freelist
// allocates every one of them). Single-goroutine, like pool.Wire.
type DeliveryPool struct {
	free []*delivery
}

// Retained reports how many delivery nodes the pool currently holds.
func (p *DeliveryPool) Retained() int { return len(p.free) }

// Trim drops pooled delivery nodes until at most n remain — the
// retention bound a resident process applies between jobs, mirroring
// pool.Wire.Trim. The kept nodes move to an exact-fit backing array
// and drop their IP-ID and port lists, which leaves them uniform-sized,
// so a trimmed pool holds O(n) bytes however large the flood or scan
// that warmed it. Trim(0) empties the pool; it never affects
// correctness, only what the next simulation must re-allocate.
func (p *DeliveryPool) Trim(n int) {
	if cap(p.free) > n {
		k := max(0, min(len(p.free), n))
		p.free = append(make([]*delivery, 0, k), p.free[:k]...)
	}
	for _, d := range p.free {
		d.ids, d.ports = nil, nil
	}
}

// SetDeliveryPool replaces the network's private delivery freelist
// with a caller-owned one. A nil pool is ignored. Like SetWirePool,
// the pool must only be used by the goroutine running this simulation,
// and pooling changes where nodes live, never what packets say.
func (n *Network) SetDeliveryPool(p *DeliveryPool) {
	if p != nil {
		n.delivp = p
	}
}

// SetWirePool replaces the network's private payload-buffer pool with
// a caller-owned one, letting an engine worker share one scratch arena
// across the many short-lived networks of consecutive trials. The
// pool is not synchronised: it must only be used by the goroutine
// running this simulation. Pooling changes where payload bytes live,
// never what they say, so simulation output is unaffected.
func (n *Network) SetWirePool(p *pool.Wire) { n.wirep = p }

// WirePool returns the payload-buffer pool currently in use.
func (n *Network) WirePool() *pool.Wire { return n.wirep }

// SetLatency sets the one-way delivery latency (default 10ms).
func (n *Network) SetLatency(d time.Duration) { n.latency = d }

// SetLossRate enables random packet loss at the given probability —
// the failure-injection knob used to check that retransmission logic
// (resolver retries, attack iterations) survives an imperfect network.
func (n *Network) SetLossRate(p float64) {
	n.lossRate = p
	if n.lossRng == nil {
		n.lossRng = n.Clock.NewRand()
	}
}

// Latency returns the one-way delivery latency.
func (n *Network) Latency() time.Duration { return n.latency }

// latencyBetween returns the one-way latency between two ASes: the sum
// of both endpoints' access-link contributions, each defaulting to half
// the base latency. With no AccessLatency overrides anywhere this is
// exactly the base latency, so existing scenarios are unchanged.
func (n *Network) latencyBetween(a, b bgp.ASN) time.Duration {
	half := n.latency / 2
	la, lb := half, n.latency-half
	if info := n.asInfo[a]; info != nil && info.AccessLatency > 0 {
		la = info.AccessLatency
	}
	if info := n.asInfo[b]; info != nil && info.AccessLatency > 0 {
		lb = info.AccessLatency
	}
	return la + lb
}

// AS returns (creating if needed) the simulator state for an AS.
func (n *Network) AS(asn bgp.ASN) *ASInfo {
	info := n.asInfo[asn]
	if info == nil {
		info = &ASInfo{ASN: asn, EgressFiltering: true}
		n.asInfo[asn] = info
	}
	return info
}

// HostByAddr returns the host owning addr, or nil.
func (n *Network) HostByAddr(addr netip.Addr) *Host { return n.hosts[addr] }

// AddHost creates a host in asn owning addr. Host names are purely
// cosmetic (tracing).
func (n *Network) AddHost(name string, asn bgp.ASN, addr netip.Addr) *Host {
	if _, dup := n.hosts[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate host address %v", addr))
	}
	h := newHost(n, name, asn, addr)
	n.hosts[addr] = h
	n.hostOrder = append(n.hostOrder, h)
	n.AS(asn) // ensure ASInfo exists
	return h
}

// Snapshot records the post-build state Reset will restore: each
// host's config and bound-port tables as they stand now. Call it once,
// after the scenario is fully assembled and before any traffic runs.
func (n *Network) Snapshot() {
	for _, h := range n.hostOrder {
		h.snapshot()
	}
	if n.asSnaps == nil {
		n.asSnaps = make(map[bgp.ASN]asSnap, len(n.asInfo))
	}
	for asn, info := range n.asInfo {
		n.asSnaps[asn] = asSnap{egress: info.EgressFiltering, access: info.AccessLatency}
	}
}

// asSnap is the restorable per-AS configuration Snapshot captures.
type asSnap struct {
	egress bool
	access time.Duration
}

// Reset rewinds the network to the snapshotted post-build state so the
// same assembled world can run another trial: the clock is reset (and
// reseeded with seed), every host's ephemeral state — sessions,
// defragmentation cache, learned path MTUs, IPID and ICMP bookkeeping,
// counters — is cleared, per-host random streams are reseeded in place
// from the fresh clock in creation order (exactly the order a fresh
// build draws them), host configs and port bindings are restored from
// the snapshot, per-AS configuration (egress filtering, access
// latency) returns to its snapshotted values, interception and trace
// hooks are dropped, and the secure-session blocks an attacker
// installed are lifted. Hosts, the topology, the warmed wire/delivery
// pools and their capacity all survive. Snapshot must have been called
// first.
func (n *Network) Reset(seed int64) {
	n.Clock.Reset(seed)
	for _, h := range n.hostOrder {
		h.reset()
	}
	for asn, info := range n.asInfo {
		if s, ok := n.asSnaps[asn]; ok {
			info.EgressFiltering = s.egress
			info.AccessLatency = s.access
		}
		info.Interceptor = nil
		info.TCPInterceptor = nil
	}
	n.secureBlocked = nil
	n.lossRate = 0
	n.lossRng = nil
	n.Trace = nil
	n.Offered = 0
	n.Delivered = 0
	n.Dropped = 0
}

// delivery is one scheduled train or scan of datagrams: a
// pre-allocated clock Action, so scheduling a delivery allocates
// neither a closure nor (at steady state, thanks to the freelist) the
// node itself. ip is the first datagram; datagram k is ip with IP-ID
// ids[k], or ip.ID+k when ids is empty, and, for a scan, destination
// port ports[k], otherwise its payload's ID word (see Network.send)
// advanced by k. ids is filled only once the sender's IP-IDs stop
// counting up (a random-IP-ID sender); ports is the node's own copy of
// a scan's ports and empty for a train. Both lists stay with the node
// through the freelist. An ordinary send is a train of one. ip.Payload
// is always backed by the network's wire pool; whether it may be
// recycled after delivery is decided per path in deliver.
type delivery struct {
	n      *Network
	origin bgp.ASN
	ip     packet.IPv4
	count  int
	ids    []uint16
	ports  []uint16
}

func (n *Network) allocDelivery() *delivery {
	if l := n.delivp.free; len(l) > 0 {
		d := l[len(l)-1]
		l[len(l)-1] = nil
		n.delivp.free = l[:len(l)-1]
		d.n = n // the pool may be shared across networks
		return d
	}
	return &delivery{n: n}
}

func (n *Network) recycleDelivery(d *delivery) {
	d.ip = packet.IPv4{}
	d.ids, d.ports = d.ids[:0], d.ports[:0]
	n.delivp.free = append(n.delivp.free, d)
}

// Send routes one IPv4 packet from the given host. The packet is
// delivered after the network latency, or dropped (egress filtering,
// no route, no receiving host and no interceptor). The payload is
// copied before Send returns, so the caller may immediately reuse it.
func (n *Network) Send(from *Host, ip *packet.IPv4) {
	n.send(from, ip, false, 1, nil)
}

// send hands count datagrams to the network. ip is the first; with
// count > 1 it must be UDP, and datagram k is ip with the sender's next
// IP-ID and either the first word of its UDP payload (the DNS ID)
// advanced by k — a train — or, when ports is not empty, destination
// port ports[k] — a scan, with len(ports) == count. Egress filtering,
// route and latency are resolved once. When the network is lossless,
// the route exists and the sender's IP-IDs count up from ip.ID (a
// counter standing at ip.ID, see Host.skipIPIDs), every datagram
// survives with a known IP-ID, so the IP-IDs and Sent are drawn and
// counted in one step and the datagrams scheduled as one node.
// Otherwise the IP-ID draw, Sent and the loss draw stay per datagram,
// as count separate sends would make them, because random IP-IDs and
// loss draws must each be drawn. Surviving datagrams share one
// scheduled delivery, which lists their IP-IDs if they do not count up
// and copies a scan's ports; only a loss starts the next, so the nodes
// hold exactly the place in the timestamp bucket that count separate
// deliveries would.
//
// owned means ip.Payload was taken from n.wirep by the caller and
// responsibility for returning it passes to the network (recycled on
// drop, handed to the first delivery otherwise). Every other delivery
// copies it into a pooled buffer, which is what preserves Send's
// caller-may-reuse contract.
func (n *Network) send(from *Host, ip *packet.IPv4, owned bool, count int, ports []uint16) {
	n.Offered += uint64(count)
	// Egress filtering: a spoofed source only escapes ASes that do not
	// filter.
	if ip.Src != from.Addr && n.AS(from.ASN).EgressFiltering {
		for k := 1; k < count; k++ {
			from.NextIPID(ip.Dst)
		}
		n.Dropped += uint64(count)
		if owned {
			n.wirep.Put(ip.Payload)
		}
		return
	}
	origin, routed := n.RIB.Resolve(from.ASN, ip.Dst)
	latency := n.latencyBetween(from.ASN, origin)
	if count > 1 && routed && n.lossRate == 0 && from.skipIPIDs(ip.Dst, ip.ID, count-1) {
		from.Sent += uint64(count)
		d := n.newDelivery(origin, ip, owned)
		d.count = count
		d.ports = append(d.ports, ports...)
		n.Clock.AfterAction(latency, d)
		return
	}
	var d *delivery
	var firstID uint16 // the train's first payload ID, read before a node may own the buffer
	if count > 1 && len(ports) == 0 {
		firstID = binary.BigEndian.Uint16(ip.Payload[packet.UDPHeaderLen:])
	}
	for k := 0; k < count; k++ {
		id := ip.ID
		if k > 0 {
			id = from.NextIPID(ip.Dst)
		}
		from.Sent++
		if n.lossRate > 0 && n.lossRng.Float64() < n.lossRate || !routed {
			n.Dropped++
			d = nil
			continue
		}
		if d != nil {
			if len(d.ids) == 0 && id != d.ip.ID+uint16(d.count) {
				d.ids = slices.Grow(d.ids, count-k+d.count)
				for j := range d.count {
					d.ids = append(d.ids, d.ip.ID+uint16(j))
				}
			}
			if len(d.ids) > 0 {
				d.ids = append(d.ids, id)
			}
			if len(ports) > 0 {
				d.ports = append(d.ports, ports[k])
			}
			d.count++
			continue
		}
		d = n.newDelivery(origin, ip, owned)
		owned = false
		d.ip.ID = id
		d.count = 1
		switch {
		case len(ports) > 0:
			d.ports = append(d.ports, ports[k])
			if k > 0 {
				packet.SetUDPDstPort(d.ip.Payload, ports[k])
			}
		case k > 0:
			packet.SetUDPPayloadID(d.ip.Payload, firstID+uint16(k))
		}
		n.Clock.AfterAction(latency, d)
	}
	if owned {
		n.wirep.Put(ip.Payload)
	}
}

// newDelivery returns a node whose first datagram is ip, routed to
// origin. It takes ip.Payload over when owned and copies it into a
// pooled buffer otherwise.
func (n *Network) newDelivery(origin bgp.ASN, ip *packet.IPv4, owned bool) *delivery {
	d := n.allocDelivery()
	d.origin = origin
	d.ip = *ip
	if !owned {
		d.ip.Payload = append(n.wirep.Get(len(ip.Payload)), ip.Payload...)
	}
	return d
}

// Fire delivers the node's datagrams in order, each exactly as its
// own delivery would be: counters, Trace and the receiver's whole
// receive path (port lookup, ICMP budget, handler) stay per datagram,
// except for runs of a train's datagrams whose fate is fixed, which
// run counts in one step with the same counters. Between datagrams the
// one payload buffer is rewritten in place — IP-ID (counted up, or the
// next from ids), the ID word or destination port, and an O(1)
// checksum update, also past a run — which is safe because a UDP
// handler may not keep or modify Payload past its return. Every
// datagram of a train carries the same Datagram.Train, a number no
// other delivery gets, and all but the last Datagram.More, and its
// checksum is verified once (see receiveUDP). A scan's datagrams go to
// different sockets, so each gets a Train of its own and no More, as
// separate deliveries would, and each is verified.
func (d *delivery) Fire() {
	d.n.train++
	dst := d.n.hosts[d.ip.Dst]
	if dst != nil && dst.ASN != d.origin {
		dst = nil // routed into an AS that does not host the address
	}
	for k := 1; k < d.count; k++ {
		d.deliver(dst, true)
		step := 1
		if j := d.run(dst, k); j > 0 {
			if k+j == d.count {
				// The run ended the train: recycle as deliver does
				// after a last datagram, which a run's conditions make
				// safe.
				d.n.wirep.Put(d.ip.Payload)
				d.n.recycleDelivery(d)
				return
			}
			k += j
			step += j
		}
		if len(d.ids) > 0 {
			d.ip.ID = d.ids[k]
		} else {
			d.ip.ID += uint16(step)
		}
		if len(d.ports) > 0 {
			d.n.train++
		}
		nextDatagram(d.ip.Payload, d.ports, k, uint16(step))
	}
	d.deliver(dst, false)
}

// run is called once datagram k-1 of a train has been delivered to dst.
// It counts, in one step, datagrams k… whose fate is already fixed and
// returns how many, 0 when it cannot tell. Their fate is fixed when
// nothing but counters would run for them, so nothing can change it
// between them:
//
//   - (a) the port's socket has an ID filter: every datagram before the
//     first that carries its ID (IDs count up and wrap) is dropped at the
//     socket, counted in Delivered, Received, UDPDeliveredLocal and the
//     filter's counter;
//   - (b) the port is closed and dst's ICMP bucket for the source is
//     empty (Host.icmpExhausted): every datagram left is suppressed,
//     counted in Delivered, Received and ICMPSuppressed.
//
// Runs are taken only where every datagram would take the path above
// and nothing observes it: dst exists, no Trace and no onRaw observer
// is installed, the node is a train (a scan's datagrams are separate
// deliveries) and not a fragment, and the train's checksum has been
// verified. The port's binding is the receive path's cached one, which
// datagram k-1 left there unless its handler rebound or closed the
// port; then the next datagram takes the whole path and refreshes it.
func (d *delivery) run(dst *Host, k int) int {
	n, ip := d.n, &d.ip
	if dst == nil || n.Trace != nil || dst.onRaw != nil || len(d.ports) > 0 || n.verified != n.train || ip.IsFragment() {
		return 0
	}
	if !dst.hasLast || dst.lastPort != binary.BigEndian.Uint16(ip.Payload[2:]) { // the UDP destination port
		return 0
	}
	b := &dst.last
	j := d.count - k
	switch {
	case b.fn == nil:
		if !dst.icmpExhausted(ip.Src) {
			return 0
		}
		dst.ICMPSuppressed += uint64(j)
	case b.filtered:
		// Datagram k carries the ID after datagram k-1's.
		j = min(j, int(b.id-binary.BigEndian.Uint16(ip.Payload[packet.UDPHeaderLen:])-1))
		if j == 0 {
			return 0
		}
		dst.UDPDeliveredLocal += uint64(j)
		if b.rejected != nil {
			*b.rejected += uint64(j)
		}
	default:
		return 0
	}
	n.Delivered += uint64(j)
	dst.Received += uint64(j)
	return j
}

// nextDatagram rewrites the serialized UDP datagram in wire, datagram
// k-step of a train or scan, into datagram k: destination port ports[k]
// for a scan (whose step is always 1), otherwise the payload's ID word
// advanced by step, wrapping after 0xffff, in one checksum update.
func nextDatagram(wire []byte, ports []uint16, k int, step uint16) {
	if len(ports) > 0 {
		packet.SetUDPDstPort(wire, ports[k])
		return
	}
	packet.SetUDPPayloadID(wire, binary.BigEndian.Uint16(wire[packet.UDPHeaderLen:])+step)
}

// deliver hands the datagram in d.ip to dst, or, when the route ended
// in an AS without that host (dst nil), to a hijacker's interceptor,
// or drops it. more means the node rewrites d.ip for another datagram
// afterwards, so a hook that may keep the packet (OnRaw, Interceptor)
// gets its own copy; the receiver sees it as Datagram.More, except in
// a scan, whose datagrams are deliveries of their own. After the last
// datagram the payload buffer and the node go back to their freelists
// only on paths where no reference can outlive the call — a plain
// (non-fragment) delivery to a host without a raw-capture hook, whose
// UDP and ICMP handlers may not keep what they are handed, or a drop
// nobody observed. Fragments are retained by the defrag cache and
// hooks may keep the *IPv4, so those paths leak to the GC — recycling
// is an optimisation, never an obligation.
func (d *delivery) deliver(dst *Host, more bool) {
	n := d.n
	ip := &d.ip
	if dst != nil {
		n.Delivered++
		if n.Trace != nil {
			n.Trace(TraceEvent{At: n.Clock.Now(), From: ip.Src, To: ip.Dst, Proto: ip.Protocol, Size: len(ip.Payload)})
		}
		follows := more && len(d.ports) == 0
		safe := dst.onRaw == nil && !ip.IsFragment()
		if more && !safe {
			dst.receive(n.detach(ip), follows)
			return
		}
		dst.receive(ip, follows)
		if !more && safe {
			n.wirep.Put(ip.Payload)
			n.recycleDelivery(d)
		}
		return
	}
	if info := n.asInfo[d.origin]; info != nil && info.Interceptor != nil {
		n.Delivered++
		if n.Trace != nil {
			n.Trace(TraceEvent{At: n.Clock.Now(), From: ip.Src, To: ip.Dst, Proto: ip.Protocol, Size: len(ip.Payload), Intercept: true})
		}
		if more {
			ip = n.detach(ip)
		}
		info.Interceptor(ip)
		return
	}
	n.Dropped++
	if !more {
		n.wirep.Put(ip.Payload)
		n.recycleDelivery(d)
	}
}

// detach returns a copy of ip with a pooled payload of its own, for a
// hook that may keep the packet while its train moves on.
func (n *Network) detach(ip *packet.IPv4) *packet.IPv4 {
	c := *ip
	c.Payload = append(n.wirep.Get(len(ip.Payload)), ip.Payload...)
	return &c
}

// Run processes all pending events.
func (n *Network) Run() { n.Clock.Run() }

// RunFor processes events for a span of virtual time.
func (n *Network) RunFor(d time.Duration) { n.Clock.RunFor(d) }
