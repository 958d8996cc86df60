package resolver

import "crosslayer/internal/netsim"

// Transport selects the wire protocol a resolver or forwarder uses for
// its UPSTREAM queries. The zero value (UDP) is the classic plaintext
// datagram path with its truncation-driven TCP fallback; every other
// transport rides a netsim.Session — a stateful, non-spoofable stream
// whose handshake cost is amortized by connection reuse. The security
// consequences fall out of the session model rather than being encoded
// here: stream transports expose no 16-bit source port or raceable
// TXID to an off-path attacker (SadDNS finds nothing to scan), carry
// answers without IP fragmentation (FragDNS has no second fragment to
// plant), and the encrypted ones fail closed under a prefix hijack
// (certificate validation turns interception into a hard error).
type Transport uint8

const (
	// TransportUDP is plaintext UDP with TCP fallback on truncation.
	TransportUDP Transport = iota
	// TransportTCP is DNS over persistent plaintext TCP (RFC 7766).
	TransportTCP
	// TransportDoT is DNS over TLS (RFC 7858).
	TransportDoT
	// TransportDoH is DNS over HTTPS (RFC 8484).
	TransportDoH
	// TransportDoQ is DNS over QUIC (RFC 9250).
	TransportDoQ
)

// StreamTransports lists every session-based transport — the service
// ports a DNS server binds so that any upstream choice finds an
// endpoint to talk to.
func StreamTransports() []Transport {
	return []Transport{TransportTCP, TransportDoT, TransportDoH, TransportDoQ}
}

// Key is the short stable name used in campaign axes, filters and
// report columns.
func (t Transport) Key() string {
	switch t {
	case TransportTCP:
		return "tcp"
	case TransportDoT:
		return "dot"
	case TransportDoH:
		return "doh"
	case TransportDoQ:
		return "doq"
	default:
		return "udp"
	}
}

func (t Transport) String() string { return t.Key() }

// Stream reports whether queries ride a netsim.Session instead of
// datagrams.
func (t Transport) Stream() bool { return t != TransportUDP }

// Encrypted reports whether the transport authenticates the server
// (fails closed under hijack, handshake refusable by BlockSecure).
func (t Transport) Encrypted() bool {
	return t == TransportDoT || t == TransportDoH || t == TransportDoQ
}

// HandshakeRTTs is the extra round trips a fresh connection pays
// before its first query: TCP handshake 1; TCP+TLS 1.3 for DoT/DoH 2;
// QUIC folds transport and crypto into 1.
func (t Transport) HandshakeRTTs() int {
	switch t {
	case TransportTCP:
		return 1
	case TransportDoT, TransportDoH:
		return 2
	case TransportDoQ:
		return 1
	default:
		return 0
	}
}

// Port is the upstream service port. DoQ's registered port is 853 like
// DoT's, but the simulator keys session services by port alone, so DoQ
// gets a neighbouring port to keep the two endpoints distinct.
func (t Transport) Port() uint16 {
	switch t {
	case TransportTCP:
		return 53
	case TransportDoT:
		return 853
	case TransportDoH:
		return 443
	case TransportDoQ:
		return 8853
	default:
		return 0
	}
}

// PadBlock is the RFC 8467 EDNS-padding block applied to encrypted
// transports (128-byte blocks, the recommended policy); plaintext
// streams send true sizes.
func (t Transport) PadBlock() int {
	if t.Encrypted() {
		return 128
	}
	return 0
}

// SessionConfig translates the transport into netsim session
// behaviour.
func (t Transport) SessionConfig() netsim.SessionConfig {
	return netsim.SessionConfig{
		HandshakeRTTs: t.HandshakeRTTs(),
		Plaintext:     !t.Encrypted(),
		PadBlock:      t.PadBlock(),
	}
}
