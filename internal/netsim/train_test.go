package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"crosslayer/internal/packet"
)

// trainWorld is one twin of TestTrainEquivalentToSends: a test network
// whose every observable is appended, in order, to one log.
type trainWorld struct {
	*testNet
	log      []string
	captured []*packet.IPv4
	// arrivals records each datagram the receiving socket got, for the
	// Datagram.Train checks, which compare what the twins do not share.
	arrivals []arrival
	// whole: the datagrams fit the path, so a delivery ends only where
	// a loss does, whatever the sender's IP-IDs.
	whole bool
	// rejected is the receiving socket's filter counter, and traced the
	// number of Trace events a counted twin saw.
	rejected uint64
	traced   uint64
}

// arrival is one datagram seen by the receiving socket: its delivery,
// the ID in its payload, when it came and whether more followed it.
type arrival struct {
	train uint64
	id    uint16
	at    time.Duration
	more  bool
}

func (w *trainWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf(format, args...))
}

// counters renders every host's and the network's packet counters and
// the receiving socket's filter counter.
func (w *trainWorld) counters() string {
	s := fmt.Sprintf("net offered=%d delivered=%d dropped=%d rejected=%d", w.net.Offered, w.net.Delivered, w.net.Dropped, w.rejected)
	for _, h := range w.net.hostOrder {
		s += fmt.Sprintf("; %s sent=%d recv=%d udp=%d icmp=%d suppressed=%d",
			h.Name, h.Sent, h.Received, h.UDPDeliveredLocal, h.ICMPSent, h.ICMPSuppressed)
	}
	return s
}

// trainCase configures a twin and names the train: the sending host,
// the spoofed source, the destination and the payload. The receiving
// socket (the victim's port 40000, logging each datagram) and the
// event markers are installed by the test.
type trainCase struct {
	name  string
	n     int
	setup func(w *trainWorld) (from *Host, src, dst netip.Addr, payload []byte)
	// closeAfter closes the receiving port after its handler got this
	// many datagrams, and rebindAfter binds it again, without a filter,
	// to the same handler (0 = never).
	closeAfter, rebindAfter int
	// filtered binds the receiving port with BindUDPExpect for ID
	// expect, counting in trainWorld.rejected.
	filtered bool
	expect   uint16
}

// twin says how runTwin sends a case's datagrams and what observes
// them.
type twin int

const (
	// separate sends them as SendUDPSpoofed calls and logs every Trace
	// event.
	separate twin = iota
	// traced sends one train and logs every Trace event.
	traced
	// counted sends one train under a Trace that only counts events,
	// which keeps every datagram on the per-datagram receive path.
	counted
	// untraced sends one train with no Trace, so the network may count
	// runs of datagrams in one step.
	untraced
)

// idPayload is a train payload whose IDs count up from id.
func idPayload(id uint16) []byte {
	return append(binary.BigEndian.AppendUint16(nil, id), " a spoofed DNS response"...)
}

// spend sends k probes from src to a closed port of the victim, which
// arrive just ahead of a train the attacker sends next and take k of
// the victim's ICMP tokens.
func (w *trainWorld) spend(src netip.Addr, k int) {
	for range k {
		w.atk.SendUDPSpoofed(src, 53, w.victim.Addr, 9, []byte("probe"))
	}
}

func TestTrainEquivalentToSends(t *testing.T) {
	dns := []byte("\xff\xff a spoofed DNS response, ID first")
	spoofed := func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
		return w.atk, w.ns.Addr, w.victim.Addr, dns
	}
	raw := func(w *trainWorld) {
		w.victim.OnRaw(func(ip *packet.IPv4) { w.captured = append(w.captured, ip) })
	}
	for _, tc := range []trainCase{
		{name: "open port", n: 300, setup: spoofed},
		{name: "port closed mid-train exhausts the ICMP budget", n: 120, closeAfter: 20, setup: spoofed},
		{name: "onRaw hook", n: 40, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			raw(w)
			return spoofed(w)
		}},
		{name: "egress-filtered source", n: 50, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			return w.ns, netip.MustParseAddr("9.9.9.9"), w.victim.Addr, dns
		}},
		{name: "no route", n: 50, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			return w.atk, w.ns.Addr, netip.MustParseAddr("203.0.113.1"), dns
		}},
		{name: "hijack interceptor", n: 40, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.net.AS(w.atkAS).Interceptor = func(ip *packet.IPv4) {
				w.logf("intercept %v>%v id=%d", ip.Src, ip.Dst, ip.ID)
				w.captured = append(w.captured, ip)
			}
			w.net.RIB.Announce(netip.MustParsePrefix("123.0.0.0/24"), w.atkAS)
			return w.victim, w.victim.Addr, w.ns.Addr, dns
		}},
		{name: "injected loss", n: 400, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.net.SetLossRate(0.3)
			raw(w)
			return spoofed(w)
		}},
		{name: "random IP-ID sender", n: 60, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.atk.Cfg.IPIDMode = IPIDRandom
			raw(w)
			return spoofed(w)
		}},
		{name: "a node recycled from a random-IP-ID train", n: 50, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.victim.BindUDP(40001, func(Datagram) {})
			w.atk.Cfg.IPIDMode = IPIDRandom
			w.atk.SendUDPTrain(w.ns.Addr, 53, w.victim.Addr, 40001, dns, 50)
			w.net.Run()
			w.atk.Cfg.IPIDMode = IPIDGlobalCounter
			raw(w)
			return spoofed(w)
		}},
		{name: "a node recycled from a scan", n: 50, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.victim.BindUDP(40001, func(Datagram) {})
			w.atk.SendUDPScan(w.ns.Addr, 53, w.victim.Addr, []uint16{40001, 40001, 40001}, dns)
			w.net.Run()
			return spoofed(w)
		}},
		{name: "larger than the path MTU", n: 30, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.atk.SetPMTU(w.victim.Addr, 576)
			raw(w)
			big := make([]byte, 1000)
			copy(big, dns)
			return w.atk, w.ns.Addr, w.victim.Addr, big
		}},
		{name: "ID filter: the match mid-train closes the port", n: 300, filtered: true, expect: 0x1032, closeAfter: 1, setup: fromID(0x1000)},
		{name: "ID filter: no match", n: 300, filtered: true, expect: 0x0fff, setup: fromID(0x1000)},
		{name: "ID filter: the match at datagram 0", n: 100, filtered: true, expect: 0x1000, closeAfter: 1, setup: fromID(0x1000)},
		{name: "ID filter: the match at the last datagram", n: 100, filtered: true, expect: 0x1063, closeAfter: 1, setup: fromID(0x1000)},
		{name: "ID filter: IDs wrap past 0xffff", n: 100, filtered: true, expect: 0x0010, closeAfter: 1, setup: fromID(0xffe0)},
		{name: "ID filter: the match rebinds without a filter", n: 100, filtered: true, expect: 0x1020, rebindAfter: 1, setup: fromID(0x1000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			train, sends := runTwin(t, tc, traced), runTwin(t, tc, separate)
			sameLog(t, "train", "sends", train, sends)
			if train.net.Offered < uint64(tc.n) {
				t.Fatalf("%d packets offered for a %d-datagram train", train.net.Offered, tc.n)
			}
			checkTrains(t, train, sends)
		})
	}
}

// fromID sends the train from the attacker, spoofing the nameserver,
// with IDs counting up from id.
func fromID(id uint16) func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
	return func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
		return w.atk, w.ns.Addr, w.victim.Addr, idPayload(id)
	}
}

// TestTrainBulkMatchesPerDatagram runs each case as one train in two
// identical worlds: one with a Trace that counts events, which keeps
// every datagram on the per-datagram receive path, and one without,
// where the network counts runs of datagrams whose fate is fixed in one
// step. Handler calls (with Datagram.Train and More), every counter, the
// filter's counter, the ICMP messages every host receives and the
// sender's next IP-ID must agree.
func TestTrainBulkMatchesPerDatagram(t *testing.T) {
	withSetup := func(f func(w *trainWorld)) func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
		return func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			f(w)
			return fromID(0x2000)(w)
		}
	}
	tail := func(spent int, mode ICMPLimitMode) func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
		return withSetup(func(w *trainWorld) {
			w.victim.Cfg.ICMPLimitMode = mode
			w.spend(w.ns.Addr, spent)
		})
	}
	// switchAfterSpending empties the global bucket, then switches the
	// victim to mode at the instant the train arrives, before it does.
	switchAfterSpending := func(mode ICMPLimitMode) func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
		return withSetup(func(w *trainWorld) {
			w.spend(w.ns.Addr, 50)
			w.net.Clock.At(w.net.latencyBetween(w.atkAS, w.victimAS), func() { w.victim.Cfg.ICMPLimitMode = mode })
		})
	}
	for _, tc := range []trainCase{
		{name: "ID filter: the match mid-train closes the port", n: 3000, filtered: true, expect: 0x2400, closeAfter: 1, setup: fromID(0x2000)},
		{name: "ID filter: no match", n: 3000, filtered: true, expect: 0x1fff, setup: fromID(0x2000)},
		{name: "ID filter: the match at datagram 0", n: 300, filtered: true, expect: 0x2000, closeAfter: 1, setup: fromID(0x2000)},
		{name: "ID filter: the match at the last datagram", n: 300, filtered: true, expect: 0x212b, closeAfter: 1, setup: fromID(0x2000)},
		{name: "ID filter: IDs wrap past 0xffff", n: 300, filtered: true, expect: 0x0040, closeAfter: 1, setup: fromID(0xff80)},
		{name: "ID filter: a train longer than the ID space matches twice", n: 70000, filtered: true, expect: 0x2010, setup: fromID(0x2000)},
		{name: "ID filter: the match rebinds without a filter", n: 300, filtered: true, expect: 0x2040, rebindAfter: 1, setup: fromID(0x2000)},
		{name: "ID filter: the match rebinds, then closes", n: 300, filtered: true, expect: 0x2040, rebindAfter: 1, closeAfter: 10, setup: fromID(0x2000)},
		{name: "closed-port tail, global bucket full", n: 300, closeAfter: 20, setup: tail(0, ICMPLimitGlobal)},
		{name: "closed-port tail, global bucket part spent", n: 300, closeAfter: 20, setup: tail(30, ICMPLimitGlobal)},
		{name: "closed-port tail, global bucket empty", n: 300, closeAfter: 20, setup: tail(50, ICMPLimitGlobal)},
		{name: "closed-port tail, per-IP bucket part spent", n: 300, closeAfter: 20, setup: tail(30, ICMPLimitPerIP)},
		{name: "closed-port tail, per-IP: another source's bucket spent", n: 300, closeAfter: 20, setup: withSetup(func(w *trainWorld) {
			w.victim.Cfg.ICMPLimitMode = ICMPLimitPerIP
			w.spend(w.atk.Addr, 50)
		})},
		{name: "closed-port tail, per-IP after the global bucket was spent", n: 300, closeAfter: 20, setup: switchAfterSpending(ICMPLimitPerIP)},
		{name: "closed-port tail, no ICMP limit", n: 300, closeAfter: 20, setup: tail(50, ICMPLimitNone)},
		{name: "closed-port tail, no ICMP limit after the global bucket was spent", n: 300, closeAfter: 20, setup: switchAfterSpending(ICMPLimitNone)},
		{name: "closed-port tail, a bucket spent in an earlier window", n: 300, closeAfter: 20, setup: withSetup(func(w *trainWorld) {
			w.spend(w.ns.Addr, 50)
			w.net.RunFor(2 * w.victim.ICMPWindow())
		})},
		{name: "onRaw receiver", n: 300, filtered: true, expect: 0x2040, closeAfter: 1, setup: withSetup(func(w *trainWorld) {
			w.victim.OnRaw(func(ip *packet.IPv4) { w.captured = append(w.captured, ip) })
		})},
		{name: "larger than the path MTU", n: 100, filtered: true, expect: 0x2040, closeAfter: 1, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.atk.SetPMTU(w.victim.Addr, 576)
			big := make([]byte, 1000)
			copy(big, idPayload(0x2000))
			return w.atk, w.ns.Addr, w.victim.Addr, big
		}},
		{name: "random IP-ID sender", n: 300, filtered: true, expect: 0x2040, closeAfter: 1, setup: withSetup(func(w *trainWorld) {
			w.atk.Cfg.IPIDMode = IPIDRandom
		})},
		{name: "per-destination counter sender", n: 300, filtered: true, expect: 0x2040, closeAfter: 1, setup: withSetup(func(w *trainWorld) {
			w.atk.Cfg.IPIDMode = IPIDPerDestCounter
			w.atk.SendUDP(7, w.ns.Addr, 9, []byte("another destination's counter"))
		})},
		{name: "injected loss", n: 300, filtered: true, expect: 0x2040, closeAfter: 1, setup: withSetup(func(w *trainWorld) {
			w.net.SetLossRate(0.3)
		})},
		{name: "no route", n: 300, filtered: true, expect: 0x2040, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			return w.atk, w.ns.Addr, netip.MustParseAddr("203.0.113.1"), idPayload(0x2000)
		}},
		{name: "egress-filtered source", n: 300, filtered: true, expect: 0x2040, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			return w.ns, netip.MustParseAddr("9.9.9.9"), w.victim.Addr, idPayload(0x2000)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { sameBulk(t, tc) })
	}
}

// sameBulk runs tc untraced and counted and fails where they differ.
func sameBulk(t *testing.T, tc trainCase) {
	t.Helper()
	bulk, each := runTwin(t, tc, untraced), runTwin(t, tc, counted)
	sameLog(t, "untraced", "counted", bulk, each)
	if !slices.Equal(bulk.arrivals, each.arrivals) {
		t.Fatalf("the handler's datagrams differ in Train, time or More:\nuntraced: %v\ncounted: %v", bulk.arrivals, each.arrivals)
	}
}

// FuzzTrainBulk is TestTrainBulkMatchesPerDatagram over generated
// cases: a train of 1–4096 datagrams whose IDs count up from first, to
// a socket with or without an ID filter for expect, whose handler
// closes or rebinds the port (without a filter) at the first datagram
// it gets that carries expect, or does neither; the victim's ICMP
// limit mode and the tokens spoofed probes took from the train's
// source just before it; and the sender's IP-ID mode.
//
//	go test -run '^$' -fuzz FuzzTrainBulk -fuzztime 30s ./internal/netsim
func FuzzTrainBulk(f *testing.F) {
	f.Add(uint16(3000), uint16(0x2000), true, uint16(0x2400), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint16(300), uint16(0xff80), true, uint16(0x0040), uint8(2), uint8(1), uint8(20), uint8(1))
	f.Add(uint16(300), uint16(0x2000), false, uint16(0x2014), uint8(1), uint8(0), uint8(50), uint8(2))
	f.Fuzz(func(t *testing.T, n, first uint16, filtered bool, expect uint16, atMatch, icmp, spent, ipid uint8) {
		tc := trainCase{n: int(n)%4096 + 1, filtered: filtered, expect: expect, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.victim.Cfg.ICMPLimitMode = ICMPLimitMode(icmp % 3)
			w.atk.Cfg.IPIDMode = IPIDMode(ipid % 3)
			w.spend(w.ns.Addr, int(spent)%64)
			return fromID(first)(w)
		}}
		// A filtered handler gets the match first; an unfiltered one
		// gets it after every datagram before it.
		at := 1
		if !filtered {
			at = int(expect-first) + 1
		}
		switch atMatch % 3 {
		case 1:
			tc.closeAfter = at
		case 2:
			tc.rebindAfter = at
		}
		sameBulk(t, tc)
	})
}

// sameLog fails at the first entry where the log of w, named how,
// differs from that of its twin, named twinHow.
func sameLog(t *testing.T, how, twinHow string, w, twin *trainWorld) {
	t.Helper()
	for i := 0; i < max(len(w.log), len(twin.log)); i++ {
		var a, b string
		if i < len(w.log) {
			a = w.log[i]
		}
		if i < len(twin.log) {
			b = twin.log[i]
		}
		if a != b {
			t.Fatalf("log entry %d of %d/%d:\n%s: %s\n%s: %s", i, len(w.log), len(twin.log), how, a, twinHow, b)
		}
	}
}

// runTwin builds a fresh world, sends tc's datagrams as how says — as
// one train, or as a loop of SendUDPSpoofed calls with the ID patched
// into the payload — runs the clock dry and returns the world with its
// log completed by the packets the hooks kept, the counters and the
// sender's next IP-ID. Every host logs the ICMP messages it receives,
// which quote the datagram that drew them.
func runTwin(t *testing.T, tc trainCase, how twin) *trainWorld {
	w := &trainWorld{testNet: build(t)}
	for _, h := range w.net.hostOrder {
		h.OnICMP(func(src netip.Addr, msg *packet.ICMP) {
			w.logf("icmp %v>%s type=%d code=%d % x", src, h.Name, msg.Type, msg.Code, msg.Payload)
		})
	}
	from, src, dst, payload := tc.setup(w)
	delivered := w.net.Delivered // by the setup, before any Trace
	switch how {
	case separate, traced:
		w.net.Trace = func(ev TraceEvent) {
			w.logf("trace %v %v>%v proto=%d size=%d intercept=%v", ev.At, ev.From, ev.To, ev.Proto, ev.Size, ev.Intercept)
		}
	case counted:
		w.net.Trace = func(TraceEvent) { w.traced++ }
	}
	got := 0
	var recv UDPHandler
	recv = func(dg Datagram) {
		got++
		w.arrivals = append(w.arrivals, arrival{dg.Train, binary.BigEndian.Uint16(dg.Payload), w.net.Clock.Now(), dg.More})
		w.logf("udp %v:%d % x", dg.Src, dg.SrcPort, dg.Payload)
		if got == 5 {
			w.net.Clock.After(0, func() { w.logf("scheduled by a handler mid-train") })
		}
		if got == tc.closeAfter {
			w.victim.CloseUDP(40000)
		}
		if got == tc.rebindAfter {
			w.victim.BindUDP(40000, recv)
		}
	}
	if tc.filtered {
		w.victim.BindUDPExpect(40000, tc.expect, &w.rejected, recv)
	} else {
		w.victim.BindUDP(40000, recv)
	}
	w.whole = packet.IPv4HeaderLen+packet.UDPHeaderLen+len(payload) <= from.PMTUTo(dst)
	at := w.net.Clock.Now() + w.net.latencyBetween(from.ASN, w.victimAS)
	w.net.Clock.At(at, func() { w.logf("scheduled before the send") })
	pending := w.net.Clock.Pending()
	if how != separate {
		from.SendUDPTrain(src, 53, dst, 40000, payload, tc.n)
		if p := w.net.Clock.Pending() - pending; w.whole && w.net.lossRate == 0 && p > 1 {
			t.Fatalf("a lossless train is %d pending events, want at most one", p)
		}
	} else {
		buf := append([]byte(nil), payload...)
		id := binary.BigEndian.Uint16(payload)
		for range tc.n {
			binary.BigEndian.PutUint16(buf, id)
			from.SendUDPSpoofed(src, 53, dst, 40000, buf)
			id++
		}
	}
	w.net.Clock.At(at, func() { w.logf("scheduled after the send") })
	w.net.Run()
	conserved(t, w.net)
	if how == counted && w.traced != w.net.Delivered-delivered {
		t.Fatalf("Trace saw %d of %d deliveries", w.traced, w.net.Delivered-delivered)
	}
	for _, ip := range w.captured {
		b, err := ip.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		w.logf("kept % x", b)
	}
	w.logf("%s", w.counters())
	w.logf("next IP-ID %d", from.NextIPID(dst))
	if w.net.Clock.Now() < time.Millisecond {
		t.Fatal("the clock never moved")
	}
	return w
}

// checkTrains checks Datagram.Train and Datagram.More. Separate sends
// never share a Train and never have More set. The datagrams of a train
// share one per delivery: each delivery is one clock event and carries
// consecutive IDs, all but its last with More set, and without
// fragments a train is split into deliveries only where a datagram was
// lost, in every IP-ID mode.
func checkTrains(t *testing.T, train, sends *trainWorld) {
	t.Helper()
	seen := map[uint64]bool{}
	for i, a := range sends.arrivals {
		if a.train == 0 || seen[a.train] || a.more {
			t.Fatalf("separate send %d arrived with Train %d, More %v, not a Train of its own", i, a.train, a.more)
		}
		seen[a.train] = true
	}
	clear(seen)
	for i, a := range train.arrivals {
		if i == 0 || a.train != train.arrivals[i-1].train {
			if i > 0 && train.arrivals[i-1].more {
				t.Fatalf("datagram %d ended Train %d although More was set", train.arrivals[i-1].id, train.arrivals[i-1].train)
			}
			if a.train == 0 || seen[a.train] {
				t.Fatalf("datagram %d of the train arrived with Train %d, not a new one", a.id, a.train)
			}
			seen[a.train] = true
			if i > 0 && train.whole && a.id == train.arrivals[i-1].id+1 {
				t.Fatalf("datagram %d of the train has a Train of its own although nothing was lost before it", a.id)
			}
			continue
		}
		if prev := train.arrivals[i-1]; a.id != prev.id+1 || a.at != prev.at || !prev.more {
			t.Fatalf("datagrams %d and %d share Train %d but not one delivery", prev.id, a.id, a.train)
		}
	}
}

// TestTrainIsOneDelivery: a lossless train to a bound port is one
// scheduled event, however long, and all of it arrives, its IDs
// counting up from the payload's own.
func TestTrainIsOneDelivery(t *testing.T) {
	tn := build(t)
	seen := 0
	tn.victim.BindUDP(40000, func(dg Datagram) {
		if id, want := binary.BigEndian.Uint16(dg.Payload), uint16(0x6964+seen); id != want {
			t.Fatalf("datagram %d carries ID %d, want %d", seen, id, want)
		}
		seen++
	})
	tn.atk.SendUDPTrain(tn.ns.Addr, 53, tn.victim.Addr, 40000, []byte("id"), 1<<16)
	if p := tn.clock.Pending(); p != 1 {
		t.Fatalf("%d events pending after a lossless train, want 1", p)
	}
	tn.net.Run()
	if seen != 1<<16 || tn.victim.UDPDeliveredLocal != 1<<16 {
		t.Fatalf("handler saw %d datagrams, host counted %d; want 65536", seen, tn.victim.UDPDeliveredLocal)
	}
	conserved(t, tn.net)
}

// scanCase configures a twin of TestScanEquivalentToSends: setup opens
// ports and installs hooks, and names the scan's sender, its spoofed
// source, the destination and the payload. The scan goes to ports
// 1000–1059 unless ports is set.
type scanCase struct {
	name  string
	ports []uint16
	setup func(w *trainWorld) (from *Host, src, dst netip.Addr, payload []byte)
	// overwrite makes the caller write over its ports slice as soon as
	// the scan (or the last separate send) returns.
	overwrite bool
}

// open binds port on the victim to a handler that logs each datagram
// and records it for checkScan.
func (w *trainWorld) open(port uint16) {
	w.victim.BindUDP(port, func(dg Datagram) {
		w.arrivals = append(w.arrivals, arrival{train: dg.Train, more: dg.More})
		w.logf("udp :%d from %v:%d % x more=%v", port, dg.Src, dg.SrcPort, dg.Payload, dg.More)
	})
}

func TestScanEquivalentToSends(t *testing.T) {
	probe := []byte("probe")
	spoofed := func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
		return w.atk, w.ns.Addr, w.victim.Addr, probe
	}
	raw := func(w *trainWorld) {
		w.victim.OnRaw(func(ip *packet.IPv4) { w.captured = append(w.captured, ip) })
	}
	withOpen := func(ports ...uint16) func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
		return func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			for _, p := range ports {
				w.open(p)
			}
			return spoofed(w)
		}
	}
	for _, tc := range []scanCase{
		{name: "every port closed: the ICMP budget runs out mid-scan", setup: spoofed},
		{name: "one open port among closed ones", setup: withOpen(1017)},
		{name: "a handler that answers when More is false", setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.ns.BindUDP(53, func(dg Datagram) { w.logf("ns:53 got %q from %v:%d", dg.Payload, dg.Src, dg.SrcPort) })
			for _, p := range []uint16{1003, 1004, 1040} {
				w.victim.BindUDP(p, func(dg Datagram) {
					w.arrivals = append(w.arrivals, arrival{train: dg.Train, more: dg.More})
					if !dg.More {
						w.victim.SendUDP(p, dg.Src, dg.SrcPort, []byte(fmt.Sprintf("answer from :%d", p)))
					}
				})
			}
			return spoofed(w)
		}},
		{name: "onRaw hook", setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			raw(w)
			return withOpen(1001, 1059)(w)
		}},
		{name: "egress-filtered source", setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			return w.ns, netip.MustParseAddr("9.9.9.9"), w.victim.Addr, probe
		}},
		{name: "no route", setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			return w.atk, w.ns.Addr, netip.MustParseAddr("203.0.113.1"), probe
		}},
		{name: "hijack interceptor", setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.net.AS(w.atkAS).Interceptor = func(ip *packet.IPv4) {
				w.logf("intercept %v>%v id=%d", ip.Src, ip.Dst, ip.ID)
				w.captured = append(w.captured, ip)
			}
			w.net.RIB.Announce(netip.MustParsePrefix("123.0.0.0/24"), w.atkAS)
			return w.victim, w.victim.Addr, w.ns.Addr, probe
		}},
		{name: "injected loss", setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.net.SetLossRate(0.3)
			raw(w)
			return withOpen(1010, 1011, 1030)(w)
		}},
		{name: "random IP-ID sender", setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.atk.Cfg.IPIDMode = IPIDRandom
			raw(w)
			return withOpen(1020)(w)
		}},
		{name: "larger than the path MTU", ports: []uint16{1000, 1001, 1002, 1003, 1004, 1005}, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.atk.SetPMTU(w.victim.Addr, 576)
			raw(w)
			w.open(1002)
			return w.atk, w.ns.Addr, w.victim.Addr, make([]byte, 1000)
		}},
		{name: "the caller overwrites its ports", overwrite: true, setup: withOpen(1005, 1059)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scan, sends := runScanTwin(t, tc, true), runScanTwin(t, tc, false)
			sameLog(t, "scan", "sends", scan, sends)
			checkScan(t, scan)
			checkScan(t, sends)
		})
	}
}

// runScanTwin builds a fresh world, sends tc's probes — as one
// SendUDPScan or as a loop of SendUDPSpoofed calls — runs the clock dry
// and returns the world with its log completed by the packets the
// hooks kept, the counters and the sender's next IP-ID. Every host logs
// the ICMP messages it receives, which quote each probe's IP-ID, ports
// and checksum.
func runScanTwin(t *testing.T, tc scanCase, scan bool) *trainWorld {
	w := &trainWorld{testNet: build(t)}
	for _, h := range w.net.hostOrder {
		h.OnICMP(func(src netip.Addr, msg *packet.ICMP) {
			w.logf("icmp %v>%s type=%d code=%d % x", src, h.Name, msg.Type, msg.Code, msg.Payload)
		})
	}
	from, src, dst, payload := tc.setup(w)
	w.net.Trace = func(ev TraceEvent) {
		w.logf("trace %v %v>%v proto=%d size=%d intercept=%v", ev.At, ev.From, ev.To, ev.Proto, ev.Size, ev.Intercept)
	}
	ports := append([]uint16(nil), tc.ports...)
	if ports == nil {
		for p := uint16(1000); p < 1060; p++ {
			ports = append(ports, p)
		}
	}
	whole := packet.IPv4HeaderLen+packet.UDPHeaderLen+len(payload) <= from.PMTUTo(dst)
	at := w.net.latencyBetween(from.ASN, w.victimAS)
	w.net.Clock.At(at, func() { w.logf("scheduled before the send") })
	pending := w.net.Clock.Pending()
	if scan {
		from.SendUDPScan(src, 53, dst, ports, payload)
		if p := w.net.Clock.Pending() - pending; whole && w.net.lossRate == 0 && p > 1 {
			t.Fatalf("a lossless scan is %d pending events, want at most one", p)
		}
	} else {
		for _, p := range ports {
			from.SendUDPSpoofed(src, 53, dst, p, payload)
		}
	}
	if tc.overwrite {
		for i := range ports {
			ports[i] = 1005
		}
	}
	w.net.Clock.At(at, func() { w.logf("scheduled after the send") })
	w.net.Run()
	conserved(t, w.net)
	for _, ip := range w.captured {
		b, err := ip.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		w.logf("kept % x", b)
	}
	w.logf("%s", w.counters())
	w.logf("next IP-ID %d", from.NextIPID(dst))
	return w
}

// checkScan checks that every datagram a handler got was a delivery of
// its own: a Train no other datagram has, and More false.
func checkScan(t *testing.T, w *trainWorld) {
	t.Helper()
	seen := map[uint64]bool{}
	for i, a := range w.arrivals {
		if a.train == 0 || seen[a.train] || a.more {
			t.Fatalf("datagram %d arrived with Train %d, More %v, not as a delivery of its own", i, a.train, a.more)
		}
		seen[a.train] = true
	}
}
