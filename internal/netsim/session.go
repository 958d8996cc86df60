package netsim

import (
	"net/netip"
	"time"
)

// Sessions model connection-oriented DNS transports (TCP, TLS, HTTPS,
// QUIC) the way tcp.go models one-shot TCP calls: as reliable,
// non-spoofable request/response exchanges on the virtual clock, with
// no real crypto. What a session adds over CallTCP is connection
// STATE: the first call on a session pays its transport's handshake
// round trips, subsequent calls ride the established connection at
// plain one-round-trip cost (RFC 7766 connection reuse — the
// amortization the latency accounting measures). Because requests and
// responses travel inside the session, an off-path attacker sees no
// 16-bit port or TXID to race and no IP fragments to poison; the only
// levers left are the ones the Session exposes deliberately — refusing
// the handshake (BlockSecure, the downgrade attack's tool) and, for
// PLAINTEXT sessions only, on-path termination after a prefix hijack
// (ASInfo.TCPInterceptor). Encrypted sessions fail closed under
// hijack: certificate validation turns a diverted connection into a
// hard error, never a forged answer.

// SessionHandler serves one request arriving over an established
// session. respond may be invoked at most once — immediately or later
// (servers that resolve asynchronously answer when done); not invoking
// it models a server that stays silent (e.g. response-rate limiting),
// which the caller's own retransmission timeout must cover. req is
// only valid for the duration of the call; respond copies resp before
// returning, so the callee may reuse its buffer.
type SessionHandler func(src netip.Addr, req []byte, respond func(resp []byte))

// SessionConfig fixes a session's transport behaviour.
type SessionConfig struct {
	// HandshakeRTTs is how many extra round trips a fresh connection
	// pays before its first request (TCP 1; TCP+TLS1.3 2; QUIC 1).
	HandshakeRTTs int
	// Plaintext sessions (DNS over bare TCP) can be terminated by a
	// prefix hijacker with a TCPInterceptor; encrypted sessions fail
	// closed instead, and BlockSecure can refuse their handshakes.
	Plaintext bool
	// PadBlock, when non-zero, pads the accounted size of every request
	// and response up to a multiple of this many bytes (RFC 8467 EDNS
	// padding: encrypted transports hide message sizes in fixed blocks).
	PadBlock int
}

// Session is one cached client-side connection to dst:port. Obtain it
// with Host.Session; the host caches one per (dst, port), which is
// what makes reuse observable.
type Session struct {
	h   *Host
	dst netip.Addr
	cfg SessionConfig
	// Port is the server port the session connects to.
	Port        uint16
	established bool

	// Counters for the reuse/latency accounting.
	Handshakes int
	Calls      uint64
	BytesSent  uint64
	BytesRcvd  uint64
}

type sessionKey struct {
	dst  netip.Addr
	port uint16
}

// BindSession installs a request handler for a session service port
// (the server side of DoT/DoH/DoQ and always-TCP DNS).
func (h *Host) BindSession(port uint16, fn SessionHandler) {
	if h.sessionPorts == nil {
		h.sessionPorts = make(map[uint16]SessionHandler)
	}
	h.sessionPorts[port] = fn
}

// Session returns the host's cached session to dst:port, creating it
// (unestablished) on first use. cfg only takes effect at creation.
func (h *Host) Session(dst netip.Addr, port uint16, cfg SessionConfig) *Session {
	k := sessionKey{dst, port}
	if s := h.sessions[k]; s != nil {
		return s
	}
	if h.sessions == nil {
		h.sessions = make(map[sessionKey]*Session)
	}
	s := &Session{h: h, dst: dst, Port: port, cfg: cfg}
	h.sessions[k] = s
	return s
}

// BlockSecure makes every non-plaintext session handshake from client
// to server fail — the active downgrade attacker's lever: it cannot
// read or forge the encrypted channel, but it can break the handshake
// (RST injection, throwaway middlebox tricks) and hope the client
// falls back to plaintext. Established sessions are torn down by the
// next call's re-handshake attempt.
func (n *Network) BlockSecure(client, server netip.Addr) {
	if n.secureBlocked == nil {
		n.secureBlocked = make(map[[2]netip.Addr]bool)
	}
	n.secureBlocked[[2]netip.Addr{client, server}] = true
}

func (n *Network) secureBlockedBetween(client, server netip.Addr) bool {
	return n.secureBlocked[[2]netip.Addr{client, server}]
}

// Established reports whether the next call rides an existing
// connection (no handshake cost).
func (s *Session) Established() bool { return s.established }

// paddedLen rounds n up to the session's padding block.
func (s *Session) paddedLen(n int) uint64 {
	if s.cfg.PadBlock <= 0 {
		return uint64(n)
	}
	b := s.cfg.PadBlock
	return uint64((n + b - 1) / b * b)
}

// Call sends req over the session and invokes cb exactly once per
// failure, or at most once with the server's response: cb(nil) means
// the connection failed (no route, refused handshake, no service,
// hijacked encrypted endpoint), while a server that accepts the
// request but never responds is SILENCE — the caller's retransmission
// timeout governs, exactly as on UDP. An unestablished session pays
// its handshake round trips before the request departs.
func (s *Session) Call(req []byte, cb func(resp []byte)) {
	h := s.h
	n := h.net
	origin, ok := n.RIB.Resolve(h.ASN, s.dst)
	if !ok {
		n.Clock.After(n.latency, func() { cb(nil) })
		return
	}
	if !s.cfg.Plaintext && n.secureBlockedBetween(h.Addr, s.dst) {
		// The attacker breaks the handshake; an established connection
		// does not survive either (its next exchange is disrupted too).
		s.established = false
		n.Clock.After(2*n.latency, func() { cb(nil) })
		return
	}
	var setup time.Duration
	if !s.established {
		s.established = true
		s.Handshakes++
		setup = time.Duration(s.cfg.HandshakeRTTs) * 2 * n.latency
	}
	s.Calls++
	s.BytesSent += s.paddedLen(len(req))
	reqCopy := append([]byte(nil), req...)
	n.Clock.After(setup+n.latency, func() {
		dstHost := n.hosts[s.dst]
		if dstHost == nil || dstHost.ASN != origin {
			// Routed into an AS that does not host the address. A
			// plaintext session can be terminated by the hijacker; an
			// encrypted one fails certificate validation — hard error.
			s.established = false
			if info := n.asInfo[origin]; s.cfg.Plaintext && info != nil && info.TCPInterceptor != nil {
				resp := info.TCPInterceptor(h.Addr, s.dst, s.Port, reqCopy)
				n.Clock.After(n.latency, func() { cb(resp) })
				return
			}
			n.Clock.After(n.latency, func() { cb(nil) })
			return
		}
		fn := dstHost.sessionPorts[s.Port]
		if fn == nil {
			s.established = false
			n.Clock.After(n.latency, func() { cb(nil) })
			return
		}
		responded := false
		fn(h.Addr, reqCopy, func(resp []byte) {
			if responded {
				return
			}
			responded = true
			s.BytesRcvd += s.paddedLen(len(resp))
			respCopy := append([]byte(nil), resp...)
			n.Clock.After(n.latency, func() { cb(respCopy) })
		})
	})
}
