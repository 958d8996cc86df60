package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
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

// counters renders every host's and the network's packet counters.
func (w *trainWorld) counters() string {
	s := fmt.Sprintf("net offered=%d delivered=%d dropped=%d", w.net.Offered, w.net.Delivered, w.net.Dropped)
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
	// closeAfter closes the receiving port after this many datagrams
	// (0 = never).
	closeAfter int
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
		{name: "larger than the path MTU", n: 30, setup: func(w *trainWorld) (*Host, netip.Addr, netip.Addr, []byte) {
			w.atk.SetPMTU(w.victim.Addr, 576)
			raw(w)
			big := make([]byte, 1000)
			copy(big, dns)
			return w.atk, w.ns.Addr, w.victim.Addr, big
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			train, sends := runTwin(t, tc, true), runTwin(t, tc, false)
			for i := 0; i < max(len(train.log), len(sends.log)); i++ {
				var a, b string
				if i < len(train.log) {
					a = train.log[i]
				}
				if i < len(sends.log) {
					b = sends.log[i]
				}
				if a != b {
					t.Fatalf("log entry %d of %d/%d:\ntrain: %s\nsends: %s", i, len(train.log), len(sends.log), a, b)
				}
			}
			if train.net.Offered < uint64(tc.n) {
				t.Fatalf("%d packets offered for a %d-datagram train", train.net.Offered, tc.n)
			}
			checkTrains(t, train, sends)
		})
	}
}

// runTwin builds a fresh world, sends tc's datagrams — as one train or
// as a loop of SendUDPSpoofed calls with the ID patched into the
// payload — runs the clock dry and returns the world with its log
// completed by the packets the hooks kept, the counters and the
// sender's next IP-ID.
func runTwin(t *testing.T, tc trainCase, train bool) *trainWorld {
	w := &trainWorld{testNet: build(t)}
	from, src, dst, payload := tc.setup(w)
	w.net.Trace = func(ev TraceEvent) {
		w.logf("trace %v %v>%v proto=%d size=%d intercept=%v", ev.At, ev.From, ev.To, ev.Proto, ev.Size, ev.Intercept)
	}
	got := 0
	w.victim.BindUDP(40000, func(dg Datagram) {
		got++
		w.arrivals = append(w.arrivals, arrival{dg.Train, binary.BigEndian.Uint16(dg.Payload), w.net.Clock.Now(), dg.More})
		w.logf("udp %v:%d % x", dg.Src, dg.SrcPort, dg.Payload)
		if got == 5 {
			w.net.Clock.After(0, func() { w.logf("scheduled by a handler mid-train") })
		}
		if got == tc.closeAfter {
			w.victim.CloseUDP(40000)
		}
	})
	w.whole = packet.IPv4HeaderLen+packet.UDPHeaderLen+len(payload) <= from.PMTUTo(dst)
	at := w.net.latencyBetween(from.ASN, w.victimAS)
	w.net.Clock.At(at, func() { w.logf("scheduled before the send") })
	pending := w.net.Clock.Pending()
	if train {
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
