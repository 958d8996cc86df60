package netsim

import (
	"strings"
	"testing"
)

// A host reuses its last port lookup while datagrams keep arriving at
// one port. These tests check, with counts that do not depend on that
// reuse, that every change to the port table takes effect from the
// very next datagram: a close, a rebind, a Reset and an ephemeral bind.

// sendTo sends n datagrams from the attacker to the victim's port, as
// one train or as n separate sends, and runs the clock dry.
func sendTo(tn *testNet, port uint16, n int, train bool) {
	if train {
		tn.atk.SendUDPTrain(tn.atk.Addr, 1234, tn.victim.Addr, port, []byte("id"), n)
	} else {
		for range n {
			tn.atk.SendUDP(1234, tn.victim.Addr, port, []byte("id"))
		}
	}
	tn.net.Run()
}

// icmpErrors counts the datagrams the victim found no handler for.
func icmpErrors(h *Host) uint64 { return h.ICMPSent + h.ICMPSuppressed }

// TestCloseStopsDeliveryAtOnce: a handler that closes its port after k
// of n datagrams is called exactly k times, and each of the other n−k
// draws an ICMP error or its suppression.
func TestCloseStopsDeliveryAtOnce(t *testing.T) {
	const n, k = 200, 37
	for _, train := range []bool{true, false} {
		tn := build(t)
		calls := 0
		tn.victim.BindUDP(40000, func(Datagram) {
			calls++
			if calls == k {
				tn.victim.CloseUDP(40000)
			}
		})
		sendTo(tn, 40000, n, train)
		if calls != k || tn.victim.UDPDeliveredLocal != k {
			t.Fatalf("train %v: handler called %d times, %d delivered; want %d", train, calls, tn.victim.UDPDeliveredLocal, k)
		}
		if got := icmpErrors(tn.victim); got != n-k {
			t.Fatalf("train %v: %d datagrams found the port closed, want %d", train, got, n-k)
		}
	}
}

// TestRebindTakesOverAtOnce: when a handler rebinds its port mid-train,
// the new handler receives the rest of the train.
func TestRebindTakesOverAtOnce(t *testing.T) {
	const n, k = 100, 10
	tn := build(t)
	first, second := 0, 0
	tn.victim.BindUDP(40000, func(Datagram) {
		first++
		if first == k {
			tn.victim.BindUDP(40000, func(Datagram) { second++ })
		}
	})
	sendTo(tn, 40000, n, true)
	if first != k || second != n-k || icmpErrors(tn.victim) != 0 {
		t.Fatalf("old handler %d, new handler %d, ICMP %d; want %d, %d, 0", first, second, icmpErrors(tn.victim), k, n-k)
	}
}

// TestResetRestoresPortTable: a port bound after Snapshot is closed
// after Reset, and a snapshotted port that a trial closed is open
// again, each from the first datagram after Reset.
func TestResetRestoresPortTable(t *testing.T) {
	tn := build(t)
	kept := 0
	tn.victim.BindUDP(40000, func(Datagram) { kept++ })
	tn.net.Snapshot()

	late := 0
	tn.victim.BindUDP(40001, func(Datagram) { late++ })
	sendTo(tn, 40001, 1, false)
	tn.net.Reset(2)
	sendTo(tn, 40001, 1, false)
	if late != 1 || icmpErrors(tn.victim) != 1 {
		t.Fatalf("port bound after Snapshot: %d calls, %d ICMP after Reset; want 1 call before it, 1 ICMP after", late, icmpErrors(tn.victim))
	}

	tn.victim.CloseUDP(40000)
	sendTo(tn, 40000, 1, false)
	tn.net.Reset(3)
	sendTo(tn, 40000, 1, false)
	if kept != 1 || icmpErrors(tn.victim) != 0 {
		t.Fatalf("snapshotted port closed by a trial: %d calls, %d ICMP after Reset; want 1, 0", kept, icmpErrors(tn.victim))
	}
}

// TestEphemeralBindOnClosedPort: BindUDP(0) landing on the port that
// the last datagram found closed receives the next datagram.
func TestEphemeralBindOnClosedPort(t *testing.T) {
	tn := build(t)
	tn.victim.Cfg.RandomizePorts = false
	port := tn.victim.Cfg.PortMin
	sendTo(tn, port, 1, false)
	got := 0
	if p := tn.victim.BindUDP(0, func(Datagram) { got++ }); p != port {
		t.Fatalf("BindUDP(0) on a fixed-port host bound %d, want %d", p, port)
	}
	sendTo(tn, port, 1, false)
	if got != 1 || icmpErrors(tn.victim) != 1 {
		t.Fatalf("handler called %d times, %d ICMP; want 1, 1", got, icmpErrors(tn.victim))
	}
}

// TestBindEphemeralPanicsWhenNoPortIsFree: BindUDP(0) with every port
// it can draw bound panics, naming the host and the range, instead of
// drawing forever.
func TestBindEphemeralPanicsWhenNoPortIsFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    func(c *HostConfig)
		binds  int
		naming string
	}{
		{"fixed port", func(c *HostConfig) { c.RandomizePorts = false }, 1, "32768-32768"},
		{"4-port range", func(c *HostConfig) { c.PortMin, c.PortMax = 5000, 5003 }, 4, "5000-5003"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := build(t)
			tc.cfg(&tn.victim.Cfg)
			seen := map[uint16]bool{}
			for range tc.binds {
				p := tn.victim.BindUDP(0, func(Datagram) {})
				if seen[p] || p < tn.victim.Cfg.PortMin || p > tn.victim.Cfg.PortMax {
					t.Fatalf("BindUDP(0) returned %d, bound already or outside the range", p)
				}
				seen[p] = true
			}
			msg := func() (msg string) {
				defer func() { msg, _ = recover().(string) }()
				tn.victim.BindUDP(0, func(Datagram) {})
				return ""
			}()
			if !strings.Contains(msg, tn.victim.Name) || !strings.Contains(msg, tc.naming) {
				t.Fatalf("BindUDP(0) with every port bound: panic %q, want one naming host %s and range %s", msg, tn.victim.Name, tc.naming)
			}
		})
	}
}
