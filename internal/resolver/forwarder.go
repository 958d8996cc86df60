package resolver

import (
	"net/netip"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
)

// Forwarder is an open DNS forwarder: it relays queries to an upstream
// recursive resolver (or another forwarder) from its own address.
// Forwarders "make up the majority of open resolvers in the internet"
// (§4.3.3) and are the lever that lets an attacker trigger queries at
// otherwise closed recursive resolvers.
//
// Each hop has its own socket, port and TXID behaviour: every relayed
// query opens a fresh ephemeral port (per the host's port-range
// configuration — embedded forwarder devices expose far smaller ranges
// than server resolvers) and draws a fresh upstream TXID independent
// of the downstream one. A caching forwarder additionally keeps a
// per-hop answer cache, so a record poisoned at any hop of a chain
// keeps being served long after the upstream recovered — the §4.3
// amplification this package's chain scenarios measure.
type Forwarder struct {
	Host     *netsim.Host
	Upstream netip.Addr
	Timeout  time.Duration

	// Transport is the upstream transport relayed queries ride (zero
	// value: plaintext UDP). Stream transports exchange through a
	// reusable netsim.Session instead of an ephemeral UDP socket, so
	// the hop exposes no spoofable port/TXID surface upstream.
	Transport Transport
	// Opportunistic hops fall back to plaintext UDP when the encrypted
	// upstream session fails (the downgrade attack's target); strict
	// hops drop the query instead.
	Opportunistic bool
	// downgraded is sticky once an opportunistic fallback happened.
	downgraded bool

	// Cache, when non-nil, is the per-hop answer cache. Plain relays
	// (NewForwarder) leave it nil; chain hops (NewCachingForwarder)
	// answer repeat queries locally from it.
	Cache *Cache
	// TTLCap, in seconds, clamps the TTL of every record entering the
	// cache (dnsmasq-style forwarders cap TTLs so stale upstream data
	// ages out on the device's schedule); 0 honours upstream TTLs.
	TTLCap uint32
	// CheckBailiwick drops answer records whose owner name is not the
	// query name before caching or relaying — the crude name-match
	// filter some forwarders apply. Hops without it cache every record
	// a (possibly spoofed) response smuggles in.
	CheckBailiwick bool

	// TestHookQuerySent observes outgoing upstream queries (port and
	// TXID included) for white-box tests; attack code must not use it.
	TestHookQuerySent func(txid, port uint16)

	Forwarded  uint64
	Returned   uint64
	CacheHits  uint64
	Downgrades uint64

	// scratch is the wire-format buffer reused for every message this
	// forwarder packs. Safe because SendUDP copies the payload into a
	// pooled buffer before returning, and nothing retains the packed
	// bytes past the send.
	scratch []byte
}

// NewForwarder creates a plain (non-caching) forwarder on host relaying
// to upstream, listening on UDP 53.
func NewForwarder(host *netsim.Host, upstream netip.Addr) *Forwarder {
	f := &Forwarder{Host: host, Upstream: upstream, Timeout: 5 * time.Second}
	host.BindUDP(53, f.handle)
	// Serve downstream session transports too, so a chain may mix
	// encrypted and plaintext hops freely.
	serve := func(src netip.Addr, req []byte, respond func([]byte)) {
		f.serveQuery(src, req, respond)
	}
	for _, t := range StreamTransports() {
		host.BindSession(t.Port(), serve)
	}
	return f
}

// Reset rewinds the forwarder to its post-construction state for the
// next trial of a reused world: the per-hop cache (if any) is emptied
// in place, the sticky opportunistic downgrade lifted, counters zeroed
// and the test hook dropped. Upstream configuration and bound ports
// survive.
func (f *Forwarder) Reset() {
	if f.Cache != nil {
		f.Cache.Reset()
	}
	f.downgraded = false
	f.Forwarded, f.Returned, f.CacheHits, f.Downgrades = 0, 0, 0, 0
	f.TestHookQuerySent = nil
}

// EffectiveTransport is the transport upstream relays currently use,
// accounting for a sticky opportunistic downgrade.
func (f *Forwarder) EffectiveTransport() Transport {
	if f.downgraded {
		return TransportUDP
	}
	return f.Transport
}

// Downgraded reports whether an opportunistic downgrade has happened.
func (f *Forwarder) Downgraded() bool { return f.downgraded }

// ForceDowngrade strips an opportunistic encrypted hop back to
// plaintext UDP, reporting whether anything changed.
func (f *Forwarder) ForceDowngrade() bool {
	if !f.Opportunistic || !f.Transport.Stream() || f.downgraded {
		return false
	}
	f.downgraded = true
	f.Downgrades++
	return true
}

// NewCachingForwarder creates a forwarder with a per-hop answer cache,
// the node type the forwarder-chain scenarios are built from. ttlCap
// (seconds, 0 = none) clamps cached TTLs; checkBailiwick enables the
// name-match response filter.
func NewCachingForwarder(host *netsim.Host, upstream netip.Addr, ttlCap uint32, checkBailiwick bool) *Forwarder {
	f := NewForwarder(host, upstream)
	f.Cache = NewCache(host.Network().Clock.Now)
	f.TTLCap = ttlCap
	f.CheckBailiwick = checkBailiwick
	return f
}

func (f *Forwarder) handle(dg netsim.Datagram) {
	src, srcPort := dg.Src, dg.SrcPort
	f.serveQuery(src, dg.Payload, func(wire []byte) {
		f.Host.SendUDP(53, src, srcPort, wire)
	})
}

// serveQuery relays one client query, emitting the packed response
// through send — the shared service path behind the UDP socket and
// every downstream session endpoint. The bytes passed to send alias
// f.scratch and are only valid for the duration of the call.
func (f *Forwarder) serveQuery(src netip.Addr, payload []byte, send func(wire []byte)) {
	query, err := dnswire.Unpack(payload)
	if err != nil || query.Response || len(query.Questions) == 0 {
		return
	}
	q := query.Question()
	if f.Cache != nil {
		if rrs, neg, ok := f.Cache.Get(q.Name, q.Type); ok && !neg {
			f.CacheHits++
			f.respondLocal(query, rrs, send)
			return
		}
	}
	f.Forwarded++
	upTXID := uint16(f.Host.Rand().Uint32())
	fwd := *query
	fwd.ID = upTXID
	wire, err := fwd.AppendPack(f.scratch[:0])
	if err != nil {
		return
	}
	f.scratch = wire
	f.exchange(upTXID, wire, func(msg *dnswire.Message) {
		if f.CheckBailiwick {
			msg.Answers = answersMatching(msg.Answers, q.Name)
		}
		f.cacheAnswers(msg)
		msg.ID = query.ID
		back, err := msg.AppendPack(f.scratch[:0])
		if err != nil {
			return
		}
		f.scratch = back
		f.Returned++
		send(back)
	})
}

// exchange performs one upstream round trip over the hop's effective
// transport, invoking onResp with the validated response (or never,
// on timeout/failure). wire is only read synchronously.
func (f *Forwarder) exchange(upTXID uint16, wire []byte, onResp func(*dnswire.Message)) {
	t := f.EffectiveTransport()
	if !t.Stream() {
		f.exchangeUDP(upTXID, wire, onResp)
		return
	}
	// The downgrade retry needs the query bytes after the session
	// callback, by which time f.scratch (which wire aliases) may have
	// been reused; copy up front only when a downgrade is possible.
	var retry []byte
	if f.Opportunistic && !f.downgraded {
		retry = append([]byte(nil), wire...)
	}
	done := false
	f.Host.Network().Clock.After(f.Timeout, func() { done = true })
	if f.TestHookQuerySent != nil {
		f.TestHookQuerySent(upTXID, 0)
	}
	sess := f.Host.Session(f.Upstream, t.Port(), t.SessionConfig())
	sess.Call(wire, func(resp []byte) {
		if done {
			return
		}
		done = true
		if resp == nil {
			// Connection failure: opportunistic hops resend over
			// plaintext UDP, strict hops drop (the client's own
			// retransmission policy governs from here).
			if retry != nil && f.ForceDowngrade() {
				f.exchangeUDP(upTXID, retry, onResp)
			}
			return
		}
		msg, err := dnswire.Unpack(resp)
		if err != nil || msg.ID != upTXID {
			return
		}
		onResp(msg)
	})
}

// exchangeUDP is the classic datagram round trip: fresh ephemeral
// port, fresh TXID (chosen by the caller), spoofable by an off-path
// attacker who wins the port/TXID race.
func (f *Forwarder) exchangeUDP(upTXID uint16, wire []byte, onResp func(*dnswire.Message)) {
	done := false
	var port uint16
	// The socket drops a datagram with the wrong TXID, as every check
	// below would, and keeps spoof floods off the Unpack path.
	port = f.Host.BindUDPExpect(0, upTXID, nil, func(resp netsim.Datagram) {
		if done || resp.Src != f.Upstream || resp.SrcPort != 53 {
			return
		}
		msg, err := dnswire.Unpack(resp.Payload)
		if err != nil || msg.ID != upTXID {
			return
		}
		done = true
		f.Host.CloseUDP(port)
		onResp(msg)
	})
	if f.TestHookQuerySent != nil {
		f.TestHookQuerySent(upTXID, port)
	}
	f.Host.SendUDP(port, f.Upstream, 53, wire)
	f.Host.Network().Clock.After(f.Timeout, func() {
		if !done {
			done = true
			f.Host.CloseUDP(port)
		}
	})
}

// respondLocal answers a client from the per-hop cache.
func (f *Forwarder) respondLocal(query *dnswire.Message, rrs []*dnswire.RR, send func([]byte)) {
	resp := &dnswire.Message{
		ID: query.ID, Response: true, RecursionAvailable: true,
		RecursionDesired: query.RecursionDesired,
		Questions:        query.Questions,
		Answers:          rrs,
	}
	wire, err := resp.AppendPack(f.scratch[:0])
	if err != nil {
		return
	}
	f.scratch = wire
	f.Returned++
	send(wire)
}

// cacheAnswers stores the (already bailiwick-filtered, when enabled)
// answer RRsets of a successful upstream response, grouped per
// (name, type) and with TTLs clamped at TTLCap. A bailiwick-less hop
// therefore caches whatever names a response carries — the injection
// surface the chain scenarios' weakest-hop analysis exploits.
func (f *Forwarder) cacheAnswers(msg *dnswire.Message) {
	if f.Cache == nil || msg.RCode != dnswire.RCodeNoError || len(msg.Answers) == 0 {
		return
	}
	type key struct {
		name string
		typ  dnswire.Type
	}
	groups := map[key][]*dnswire.RR{}
	var order []key
	for _, rr := range msg.Answers {
		cp := rr.Copy()
		if f.TTLCap > 0 && cp.TTL > f.TTLCap {
			cp.TTL = f.TTLCap
		}
		k := key{dnswire.CanonicalName(cp.Name), cp.Type}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], cp)
	}
	for _, k := range order {
		f.Cache.Put(k.name, k.typ, groups[k])
	}
}

// answersMatching keeps only records owned by the query name.
func answersMatching(rrs []*dnswire.RR, qname string) []*dnswire.RR {
	out := rrs[:0:0]
	for _, rr := range rrs {
		if dnswire.EqualNames(rr.Name, qname) {
			out = append(out, rr)
		}
	}
	return out
}

// StubQuery sends a one-shot DNS query from host to a server and
// invokes cb with the response or an error. It is the minimal stub
// resolver every application in internal/apps uses.
func StubQuery(host *netsim.Host, server netip.Addr, name string, typ dnswire.Type, timeout time.Duration, cb func(*dnswire.Message, error)) {
	txid := uint16(host.Rand().Uint32())
	q := dnswire.NewQuery(txid, name, typ)
	wire, err := q.Pack()
	if err != nil {
		cb(nil, err)
		return
	}
	done := false
	var port uint16
	port = host.BindUDPExpect(0, txid, nil, func(dg netsim.Datagram) {
		if done || dg.Src != server || dg.SrcPort != 53 {
			return
		}
		msg, err := dnswire.Unpack(dg.Payload)
		if err != nil || msg.ID != txid {
			return
		}
		done = true
		host.CloseUDP(port)
		cb(msg, nil)
	})
	host.SendUDP(port, server, 53, wire)
	host.Network().Clock.After(timeout, func() {
		if !done {
			done = true
			host.CloseUDP(port)
			cb(nil, ErrTimeout)
		}
	})
}

// StubLookup is StubQuery specialised to return just the answer
// RRset, mapping RCodes to the resolver errors.
func StubLookup(host *netsim.Host, server netip.Addr, name string, typ dnswire.Type, timeout time.Duration, cb Callback) {
	StubQuery(host, server, name, typ, timeout, func(msg *dnswire.Message, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		switch msg.RCode {
		case dnswire.RCodeNoError:
			if len(msg.Answers) == 0 {
				cb(nil, ErrNoData)
				return
			}
			cb(msg.Answers, nil)
		case dnswire.RCodeNXDomain:
			cb(nil, ErrNXDomain)
		case dnswire.RCodeNotImp:
			cb(nil, ErrNotImp)
		case dnswire.RCodeRefused:
			cb(nil, ErrRefused)
		default:
			cb(nil, ErrServFail)
		}
	})
}
