package resolver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
)

// Lookup errors.
var (
	ErrTimeout  = errors.New("resolver: query timed out")
	ErrNXDomain = errors.New("resolver: no such domain")
	ErrNoData   = errors.New("resolver: no records of requested type")
	ErrServFail = errors.New("resolver: server failure")
	ErrRefused  = errors.New("resolver: refused")
	ErrBogus    = errors.New("resolver: DNSSEC validation failed")
)

// Callback receives the outcome of a lookup.
type Callback func(rrs []*dnswire.RR, err error)

// Resolver is a recursive resolver bound to a netsim host. It serves
// clients on UDP port 53 and resolves against configured authoritative
// servers, applying the challenge-response defences of RFC 5452.
type Resolver struct {
	Host  *netsim.Host
	Prof  Profile
	Cache *Cache
	// Open answers queries from any source ("open resolver"); closed
	// resolvers only answer hosts in their own AS.
	Open bool

	zones       map[string][]netip.Addr
	knownSigned map[string]bool
	inflight    map[cacheKey]*inflight
	nextSock    int
	// downgraded is set once an opportunistic resolver falls back to
	// plaintext UDP after its encrypted upstream session failed; it is
	// sticky for the resolver's lifetime (one scenario = one trial).
	downgraded bool
	// scratch is the wire-format buffer reused for client responses
	// (upstream queries keep their own buffers: inf.wire is retained
	// for TCP fallback and must not share this scratch).
	scratch []byte
	// uq and friends are the reusable upstream-query scaffolding:
	// sendAttempt rewrites them in place instead of allocating a
	// Message, a Questions slice and an OPT record per round trip. The
	// message is only alive inside sendAttempt's AppendPack call, so
	// one set per resolver suffices.
	uq     dnswire.Message
	uqQ    [1]dnswire.Question
	uqOpt  dnswire.RR
	uqOptD dnswire.OPTData
	uqAdd  [1]*dnswire.RR

	// Counters observable by the measurements.
	ClientQueries    uint64
	UpstreamQueries  uint64
	Accepted         uint64
	SpoofRejected    uint64 // right socket, wrong TXID/question
	ValidationFailed uint64
	Timeouts         uint64
	TCPFallbacks     uint64
	Downgrades       uint64

	// TestHookQuerySent observes outgoing upstream queries (port and
	// TXID included) for white-box tests; attack code must not use it.
	TestHookQuerySent func(name string, typ dnswire.Type, ns netip.Addr, port, txid uint16)
}

type inflight struct {
	r     *Resolver
	key   cacheKey
	qname string // possibly 0x20-encoded, as sent
	zone  string // bailiwick for this query
	// servers is the zone's authoritative set, resolved once at query
	// start so retries don't re-walk the zone table.
	servers []netip.Addr
	ns      netip.Addr
	port    uint16
	txid    uint16
	// wire is the packed query, leased from the network's wire pool
	// for the lifetime of the resolution (retries re-pack into it, TCP
	// fallback retransmits it) and returned by release().
	wire    []byte
	attempt int
	// timerAttempt is the attempt the pending retransmission timer was
	// armed for; a timer firing after the attempt moved on (the
	// truncated→TCP path bumps attempt to invalidate it) is stale. At
	// most one timer is outstanding per inflight, so the inflight
	// itself is the sim.Action — no per-round-trip closure. A resend
	// that happens while a timer is already pending (the opportunistic
	// session→UDP downgrade) only pushes deadline forward; the pending
	// timer re-arms itself for the remainder when it fires early.
	timerAttempt int
	timerPending bool
	deadline     time.Duration
	done         bool
	depth        int
	cbs          []Callback
	// recv is the upstream datagram handler, created once per
	// resolution and rebound for each attempt.
	recv netsim.UDPHandler
}

// Fire implements sim.Action: the retransmission timeout.
func (inf *inflight) Fire() {
	inf.timerPending = false
	inf.r.onTimeout(inf, inf.timerAttempt)
}

// release returns the leased wire buffer to the network's pool. Safe
// to call on every completion path: TCP fallback copies the request
// synchronously, so nothing retains the bytes after the resolution
// completes.
func (inf *inflight) release() {
	if inf.wire != nil {
		inf.r.Host.Network().WirePool().Put(inf.wire)
		inf.wire = nil
	}
}

// New creates a resolver on host with the given profile and binds UDP
// port 53 for client queries.
func New(host *netsim.Host, prof Profile) *Resolver {
	r := &Resolver{
		Host:        host,
		Prof:        prof.withDefaults(),
		Cache:       NewCache(host.Network().Clock.Now),
		zones:       make(map[string][]netip.Addr),
		knownSigned: make(map[string]bool),
		inflight:    make(map[cacheKey]*inflight),
	}
	host.BindUDP(53, r.handleClient)
	// Serve the same answers over every session transport so a
	// downstream forwarder may pick any upstream transport toward us.
	serve := func(src netip.Addr, req []byte, respond func([]byte)) {
		r.serveQuery(req, src, respond)
	}
	for _, t := range StreamTransports() {
		host.BindSession(t.Port(), serve)
	}
	return r
}

// Reset rewinds the resolver to its post-New state for the next trial
// of a reused world: in-flight resolutions are abandoned (their leased
// wire buffers returned to the pool — their retransmission timers died
// with the clock reset), the cache is emptied in place, the sticky
// opportunistic downgrade is lifted, counters are zeroed and the test
// hook dropped. Zone configuration, the bound ports and the reusable
// upstream-query scaffolding all survive.
func (r *Resolver) Reset() {
	for _, inf := range r.inflight {
		inf.done = true
		inf.release()
	}
	clear(r.inflight)
	r.Cache.Reset()
	r.downgraded = false
	r.ClientQueries, r.UpstreamQueries = 0, 0
	r.Accepted, r.SpoofRejected, r.ValidationFailed = 0, 0, 0
	r.Timeouts, r.TCPFallbacks, r.Downgrades = 0, 0, 0
	r.TestHookQuerySent = nil
}

// EffectiveTransport is the transport upstream queries currently use:
// the profile's choice, unless an opportunistic downgrade stripped it
// back to plaintext UDP.
func (r *Resolver) EffectiveTransport() Transport {
	if r.downgraded {
		return TransportUDP
	}
	return r.Prof.Transport
}

// Downgraded reports whether an opportunistic downgrade has happened.
func (r *Resolver) Downgraded() bool { return r.downgraded }

// ForceDowngrade strips an opportunistic encrypted resolver back to
// plaintext UDP, reporting whether anything changed. Strict profiles
// (Opportunistic false) never downgrade — they fail instead.
func (r *Resolver) ForceDowngrade() bool {
	if !r.Prof.Opportunistic || !r.Prof.Transport.Stream() || r.downgraded {
		return false
	}
	r.downgraded = true
	r.Downgrades++
	return true
}

// AddZoneServer configures the authoritative addresses for a zone
// (longest-suffix match selects the zone for each query; "." is the
// default route for everything).
func (r *Resolver) AddZoneServer(zone string, addrs ...netip.Addr) *Resolver {
	z := dnswire.CanonicalName(zone)
	r.zones[z] = append(r.zones[z], addrs...)
	return r
}

// SetKnownSigned marks a zone as DNSSEC-signed from the resolver's
// point of view (a trust-anchor/DS-chain stand-in): if the profile
// validates, answers for this zone must carry a valid RRSIG.
func (r *Resolver) SetKnownSigned(zone string, signed bool) {
	r.knownSigned[dnswire.CanonicalName(zone)] = signed
}

// zoneFor returns the configured zone and servers for name.
func (r *Resolver) zoneFor(name string) (string, []netip.Addr) {
	name = dnswire.CanonicalName(name)
	bestLen := -1
	best := ""
	for z := range r.zones {
		if dnswire.InBailiwick(name, z) && len(z) > bestLen {
			bestLen, best = len(z), z
		}
	}
	if bestLen < 0 {
		return "", nil
	}
	return best, r.zones[best]
}

// Lookup resolves (name, typ), consulting the cache first. cb runs on
// the simulator's virtual time, possibly synchronously on cache hits.
func (r *Resolver) Lookup(name string, typ dnswire.Type, cb Callback) {
	name = dnswire.CanonicalName(name)
	key := cacheKey{name, typ}
	if rrs, neg, ok := r.cacheLookup(name, typ); ok {
		if neg {
			cb(nil, ErrNXDomain)
			return
		}
		cb(rrs, nil)
		return
	}
	if typ == dnswire.TypeANY && !r.Prof.SupportsANY {
		cb(nil, ErrNotImp)
		return
	}
	if inf := r.inflight[key]; inf != nil {
		inf.cbs = append(inf.cbs, cb)
		return
	}
	r.startQuery(key, 0, cb)
}

// ErrNotImp is returned for ANY lookups on profiles that refuse ANY.
var ErrNotImp = errors.New("resolver: query type not implemented")

// cacheLookup consults the cache, including the ANY-derived entries of
// Table 5: a profile that caches ANY can satisfy an A query from a
// previously fetched ANY response.
func (r *Resolver) cacheLookup(name string, typ dnswire.Type) (rrs []*dnswire.RR, negative, ok bool) {
	if rrs, neg, ok := r.Cache.Get(name, typ); ok {
		return rrs, neg, true
	}
	if typ != dnswire.TypeANY && r.Prof.CachesANY {
		if all, neg, ok := r.Cache.Get(name, dnswire.TypeANY); ok && !neg {
			var match []*dnswire.RR
			for _, rr := range all {
				if rr.Type == typ {
					match = append(match, rr)
				}
			}
			if len(match) > 0 {
				return match, false, true
			}
		}
	}
	return nil, false, false
}

func (r *Resolver) startQuery(key cacheKey, depth int, cbs ...Callback) {
	zone, servers := r.zoneFor(key.name)
	if len(servers) == 0 {
		for _, cb := range cbs {
			cb(nil, ErrServFail)
		}
		return
	}
	inf := &inflight{r: r, key: key, zone: zone, servers: servers, depth: depth, cbs: cbs}
	inf.recv = func(dg netsim.Datagram) { r.handleUpstream(inf, dg.Src, dg.SrcPort, dg.Payload) }
	r.inflight[key] = inf
	r.sendAttempt(inf)
}

// upstreamQuery rewrites the resolver's reusable query message in
// place. The returned message aliases resolver-owned storage and is
// only valid until the next call.
func (r *Resolver) upstreamQuery(txid uint16, name string, typ dnswire.Type) *dnswire.Message {
	r.uqQ[0] = dnswire.Question{Name: name, Type: typ, Class: dnswire.ClassIN}
	r.uq = dnswire.Message{ID: txid, RecursionDesired: true, Questions: r.uqQ[:1]}
	if r.Prof.EDNSSize > 0 {
		r.uqOptD = dnswire.OPTData{UDPSize: r.Prof.EDNSSize, DO: r.Prof.ValidateDNSSEC}
		r.uqOpt = dnswire.RR{
			Name: ".", Type: dnswire.TypeOPT, Class: dnswire.Class(r.Prof.EDNSSize),
			Data: &r.uqOptD,
		}
		r.uqAdd[0] = &r.uqOpt
		r.uq.Additional = r.uqAdd[:1]
	}
	return &r.uq
}

func (r *Resolver) sendAttempt(inf *inflight) {
	rng := r.Host.Rand()
	inf.ns = inf.servers[rng.Intn(len(inf.servers))]
	inf.txid = uint16(rng.Uint32())
	inf.qname = inf.key.name
	if r.Prof.Use0x20 {
		inf.qname = dnswire.Encode0x20(inf.key.name, rng)
	}
	q := r.upstreamQuery(inf.txid, inf.qname, inf.key.typ)
	if inf.wire == nil {
		inf.wire = r.Host.Network().WirePool().Get(512)
	}
	wire, err := q.AppendPack(inf.wire[:0])
	if err != nil {
		r.finish(inf, nil, fmt.Errorf("resolver: pack: %w", err))
		return
	}
	inf.wire = wire
	r.UpstreamQueries++
	if t := r.EffectiveTransport(); t.Stream() {
		// Session transports expose no UDP socket: inf.port stays 0
		// (never bound, so the shared CloseUDP calls are no-ops) and
		// the response arrives through the session callback instead of
		// inf.recv. The retransmission timer still runs — a server
		// that accepts the query but stays silent (RRL) times out here
		// exactly as on UDP, and the retry reuses the warm session.
		inf.port = 0
		if r.TestHookQuerySent != nil {
			r.TestHookQuerySent(inf.qname, inf.key.typ, inf.ns, 0, inf.txid)
		}
		attempt := inf.attempt
		sess := r.Host.Session(inf.ns, t.Port(), t.SessionConfig())
		sess.Call(wire, func(resp []byte) { r.handleSession(inf, attempt, resp) })
	} else {
		inf.port = r.Host.BindUDP(0, inf.recv)
		if r.TestHookQuerySent != nil {
			r.TestHookQuerySent(inf.qname, inf.key.typ, inf.ns, inf.port, inf.txid)
		}
		r.Host.SendUDP(inf.port, inf.ns, 53, wire)
	}
	inf.timerAttempt = inf.attempt
	clock := r.Host.Network().Clock
	inf.deadline = clock.Now() + r.Prof.Timeout
	if !inf.timerPending {
		inf.timerPending = true
		clock.AfterAction(r.Prof.Timeout, inf)
	}
}

// handleSession consumes one session call's outcome. nil resp is a
// CONNECTION failure (refused handshake, hijacked encrypted endpoint,
// no route): opportunistic profiles fall back to plaintext UDP — the
// surface the active downgrade attack exploits — while strict ones
// fail the lookup rather than leak a plaintext query. A real response
// passes the same validation as a UDP datagram minus the source
// address and port checks the session makes redundant.
func (r *Resolver) handleSession(inf *inflight, attempt int, resp []byte) {
	if inf.done || inf.attempt != attempt {
		return // a retransmission or completion superseded this call
	}
	if resp == nil {
		inf.attempt++ // invalidate the pending retransmission timer
		if r.ForceDowngrade() {
			r.sendAttempt(inf) // resend over plaintext UDP
			return
		}
		r.finish(inf, nil, ErrServFail)
		return
	}
	if len(resp) < 2 || binary.BigEndian.Uint16(resp) != inf.txid {
		return // a mis-ID'd stream response cannot be an attack; drop it
	}
	msg, err := dnswire.Unpack(resp)
	if err != nil || msg.ID != inf.txid || !msg.Response || len(msg.Questions) == 0 {
		return
	}
	q := msg.Questions[0]
	if q.Type != inf.key.typ {
		return
	}
	if r.Prof.Use0x20 {
		if q.Name != inf.qname {
			return
		}
	} else if !dnswire.EqualNames(q.Name, inf.key.name) {
		return
	}
	// Streams never truncate; ignore a stray TC bit and process.
	r.processResponse(inf, msg)
}

func (r *Resolver) onTimeout(inf *inflight, attempt int) {
	if inf.done || inf.attempt != attempt {
		return
	}
	clock := r.Host.Network().Clock
	if now := clock.Now(); now < inf.deadline {
		// A downgrade resend pushed the deadline while this timer was
		// in flight; re-arm for the remainder.
		inf.timerPending = true
		clock.AfterAction(inf.deadline-now, inf)
		return
	}
	r.Host.CloseUDP(inf.port)
	if inf.attempt >= r.Prof.Retries {
		r.Timeouts++
		r.finish(inf, nil, ErrTimeout)
		return
	}
	inf.attempt++
	r.sendAttempt(inf)
}

// handleUpstream takes the three fields of a Datagram it reads rather
// than the Datagram: with the resolver and the inflight that is nine
// words, which the register ABI passes in registers, where a whole
// Datagram would be copied to the stack for each datagram of a flood.
func (r *Resolver) handleUpstream(inf *inflight, src netip.Addr, srcPort uint16, payload []byte) {
	// One handler serves every attempt of the resolution: a port is
	// always closed before attempt advances, so a delivery can only
	// reach the binding of the current attempt.
	if inf.done {
		return
	}
	// Address/port check: the response must come from the server we
	// asked (RFC 5452 §3).
	if src != inf.ns || srcPort != 53 {
		r.SpoofRejected++
		return
	}
	// Cheap TXID precheck before parsing: a flood datagram with the
	// wrong ID would be rejected after Unpack anyway (wrong-ID and
	// unparseable both count as SpoofRejected), so bailing on the raw
	// header bytes is observationally identical and skips the parse on
	// the attacker's ~64k wrong guesses per poisoning window.
	if len(payload) < 2 || binary.BigEndian.Uint16(payload) != inf.txid {
		r.SpoofRejected++
		return
	}
	msg, err := dnswire.Unpack(payload)
	if err != nil {
		r.SpoofRejected++
		return
	}
	if msg.ID != inf.txid || !msg.Response || len(msg.Questions) == 0 {
		r.SpoofRejected++
		return
	}
	q := msg.Questions[0]
	if q.Type != inf.key.typ {
		r.SpoofRejected++
		return
	}
	if r.Prof.Use0x20 {
		if q.Name != inf.qname {
			r.SpoofRejected++
			return
		}
	} else if !dnswire.EqualNames(q.Name, inf.key.name) {
		r.SpoofRejected++
		return
	}
	if msg.Truncated {
		// Fall back to TCP: reliable, unspoofable.
		r.TCPFallbacks++
		ns := inf.ns
		r.Host.CloseUDP(inf.port)
		inf.attempt++ // invalidate the pending UDP timeout
		r.Host.CallTCP(ns, 53, inf.wire, func(resp []byte) {
			if inf.done {
				return
			}
			if resp == nil {
				r.finish(inf, nil, ErrServFail)
				return
			}
			m, err := dnswire.Unpack(resp)
			if err != nil || m.ID != inf.txid {
				r.finish(inf, nil, ErrServFail)
				return
			}
			r.processResponse(inf, m)
		})
		return
	}
	r.processResponse(inf, msg)
}

// processResponse applies bailiwick and DNSSEC checks, caches, chases
// CNAMEs, and completes the lookup.
func (r *Resolver) processResponse(inf *inflight, msg *dnswire.Message) {
	switch msg.RCode {
	case dnswire.RCodeNoError:
	case dnswire.RCodeNXDomain:
		ttl := negativeTTL(msg)
		r.Cache.PutNegative(inf.key.name, inf.key.typ, ttl)
		r.acceptAndClose(inf)
		r.finish(inf, nil, ErrNXDomain)
		return
	case dnswire.RCodeRefused:
		r.acceptAndClose(inf)
		r.finish(inf, nil, ErrRefused)
		return
	default:
		r.acceptAndClose(inf)
		r.finish(inf, nil, ErrServFail)
		return
	}

	// Bailiwick: only records inside the zone we asked may enter the
	// cache.
	var answers []*dnswire.RR
	for _, rr := range msg.Answers {
		if dnswire.InBailiwick(rr.Name, inf.zone) {
			answers = append(answers, rr)
		}
	}

	// DNSSEC: a zone we know to be signed must prove its answers.
	if r.Prof.ValidateDNSSEC && r.knownSigned[inf.zone] && len(answers) > 0 {
		if !hasValidSig(answers, inf.zone) {
			// Bogus: ignore this response and keep waiting; the
			// genuine (signed) response can still arrive.
			r.ValidationFailed++
			return
		}
	}

	// Strip RRSIG markers from what we hand to applications.
	answers = withoutType(answers, dnswire.TypeRRSIG)

	// Group answers per (name, type) and cache each RRset.
	groups := map[cacheKey][]*dnswire.RR{}
	var orderKeys []cacheKey
	for _, rr := range answers {
		k := cacheKey{dnswire.CanonicalName(rr.Name), rr.Type}
		if groups[k] == nil {
			orderKeys = append(orderKeys, k)
		}
		groups[k] = append(groups[k], rr)
	}
	if inf.key.typ == dnswire.TypeANY {
		if r.Prof.CachesANY {
			r.Cache.Put(inf.key.name, dnswire.TypeANY, answers)
		}
	} else {
		for _, k := range orderKeys {
			r.Cache.Put(k.name, k.typ, groups[k])
		}
	}

	// Direct answers for the question?
	direct := groups[cacheKey{inf.key.name, inf.key.typ}]
	if inf.key.typ == dnswire.TypeANY {
		direct = answers
	}
	if len(direct) > 0 {
		r.acceptAndClose(inf)
		r.finish(inf, direct, nil)
		return
	}

	// CNAME chasing.
	if cn := groups[cacheKey{inf.key.name, dnswire.TypeCNAME}]; len(cn) > 0 && inf.key.typ != dnswire.TypeCNAME {
		target := dnswire.CanonicalName(cn[0].Data.(*dnswire.CNAMEData).Target)
		// The response may already carry the target records.
		if tr := groups[cacheKey{target, inf.key.typ}]; len(tr) > 0 {
			r.acceptAndClose(inf)
			r.finish(inf, tr, nil)
			return
		}
		if inf.depth >= 8 {
			r.acceptAndClose(inf)
			r.finish(inf, nil, ErrServFail)
			return
		}
		r.acceptAndClose(inf)
		cbs := inf.cbs
		delete(r.inflight, inf.key)
		inf.done = true
		inf.release()
		r.Lookup(target, inf.key.typ, func(rrs []*dnswire.RR, err error) {
			for _, cb := range cbs {
				cb(rrs, err)
			}
		})
		return
	}

	// NODATA.
	r.Cache.PutNegative(inf.key.name, inf.key.typ, negativeTTL(msg))
	r.acceptAndClose(inf)
	r.finish(inf, nil, ErrNoData)
}

func (r *Resolver) acceptAndClose(inf *inflight) {
	r.Accepted++
	r.Host.CloseUDP(inf.port)
}

func (r *Resolver) finish(inf *inflight, rrs []*dnswire.RR, err error) {
	if inf.done {
		return
	}
	inf.done = true
	delete(r.inflight, inf.key)
	inf.release()
	for _, cb := range inf.cbs {
		cb(rrs, err)
	}
}

func negativeTTL(msg *dnswire.Message) uint32 {
	for _, rr := range msg.Authority {
		if soa, ok := rr.Data.(*dnswire.SOAData); ok {
			ttl := soa.Minimum
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
			return ttl
		}
	}
	return 60
}

func hasValidSig(answers []*dnswire.RR, zone string) bool {
	covered := map[dnswire.Type]bool{}
	for _, rr := range answers {
		if rr.Type != dnswire.TypeRRSIG {
			continue
		}
		sig, ok := rr.Data.(*dnswire.RRSIGData)
		if !ok || !sig.Valid || !dnswire.InBailiwick(sig.Signer, zone) {
			continue
		}
		covered[sig.Covered] = true
	}
	for _, rr := range answers {
		if rr.Type == dnswire.TypeRRSIG {
			continue
		}
		if !covered[rr.Type] {
			return false
		}
	}
	return len(covered) > 0
}

func withoutType(rrs []*dnswire.RR, t dnswire.Type) []*dnswire.RR {
	out := rrs[:0:0]
	for _, rr := range rrs {
		if rr.Type != t {
			out = append(out, rr)
		}
	}
	return out
}

// --- client-facing side ---

func (r *Resolver) handleClient(dg netsim.Datagram) {
	src, srcPort := dg.Src, dg.SrcPort
	r.serveQuery(dg.Payload, src, func(wire []byte) {
		r.Host.SendUDP(53, src, srcPort, wire)
	})
}

// serveQuery parses and answers one client query, emitting the packed
// response through send — the shared service path behind the UDP
// socket and every session transport endpoint. The wire bytes passed
// to send alias the resolver's scratch buffer and are only valid for
// the duration of the call (SendUDP and session respond both copy).
func (r *Resolver) serveQuery(payload []byte, src netip.Addr, send func(wire []byte)) {
	query, err := dnswire.Unpack(payload)
	if err != nil || query.Response || len(query.Questions) == 0 {
		return
	}
	if !r.Open && !r.sameAS(src) {
		return // closed resolvers ignore external clients
	}
	r.ClientQueries++
	q := query.Question()
	respond := func(rrs []*dnswire.RR, lookupErr error) {
		resp := &dnswire.Message{
			ID: query.ID, Response: true, RecursionAvailable: true,
			RecursionDesired: query.RecursionDesired,
			Questions:        query.Questions,
			Answers:          rrs,
		}
		switch {
		case lookupErr == nil:
		case errors.Is(lookupErr, ErrNXDomain):
			resp.RCode = dnswire.RCodeNXDomain
		case errors.Is(lookupErr, ErrNoData):
		case errors.Is(lookupErr, ErrNotImp):
			resp.RCode = dnswire.RCodeNotImp
		case errors.Is(lookupErr, ErrRefused):
			resp.RCode = dnswire.RCodeRefused
		default:
			resp.RCode = dnswire.RCodeServFail
		}
		// Pack into the resolver's scratch buffer: SendUDP copies the
		// payload before returning and nothing retains the bytes.
		wire, err := resp.AppendPack(r.scratch[:0])
		if err != nil {
			return
		}
		r.scratch = wire
		send(wire)
	}
	r.Lookup(q.Name, q.Type, respond)
}

func (r *Resolver) sameAS(src netip.Addr) bool {
	h := r.Host.Network().HostByAddr(src)
	return h != nil && h.ASN == r.Host.ASN
}

// InflightCount reports the number of outstanding upstream queries.
func (r *Resolver) InflightCount() int { return len(r.inflight) }
