package dnssrv

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"crosslayer/internal/dnswire"
	"crosslayer/internal/netsim"
	"crosslayer/internal/resolver"
)

// Config controls server behaviours the measurements distinguish.
type Config struct {
	// RateLimit enables response-rate limiting: at most RateLimitQPS
	// responses per one-second window, further responses silently
	// dropped. This is the behaviour the paper's §5.2.2 burst test
	// (4000 queries in one second) detects, and the lever SadDNS uses
	// to mute a nameserver.
	RateLimit    bool
	RateLimitQPS int
	// PadAnswersTo inflates responses with filler TXT answer records
	// until the DNS payload reaches at least this many bytes (the
	// paper's custom test nameserver "emits fragmented responses
	// padded to a certain size").
	PadAnswersTo int
	// RandomizeOrder shuffles answer records per response — the
	// countermeasure that breaks FragDNS checksum prediction (§6.1).
	RandomizeOrder bool
	// ServeANY: answer ANY queries with all RRsets (Unbound refuses).
	ServeANY bool
}

// DefaultConfig returns a typical authoritative server.
func DefaultConfig() Config {
	return Config{RateLimitQPS: 1000, ServeANY: true}
}

// Server is an authoritative nameserver bound to a netsim host on UDP
// port 53.
type Server struct {
	Host  *netsim.Host
	Cfg   Config
	zones map[string]*Zone

	window    time.Duration
	sentInWin int

	// scratch is the wire-format buffer reused across UDP responses
	// (and fill's trial packs). Safe because SendUDP serializes the
	// payload into its own pooled buffer before returning; handleTCP
	// must NOT use it — its return value is retained by the caller.
	scratch []byte
	// fillers are the filler records built so far for the last owner
	// name padded, fillerOwner; padRRs is fill's answer section.
	fillerOwner string
	fillers     []*dnswire.RR
	padRRs      []*dnswire.RR
	// last describes the UDP reply in scratch, so that the rest of the
	// train it was built for can resend it (see handle); queue holds
	// the replies handle has not sent yet.
	last  lastReply
	queue replyQueue

	// Counters.
	Queries, Responses, RateDropped, Truncated uint64

	// Observe, when set, sees every received query with its transport
	// ("udp"/"tcp") and source — the measurement probes' server-side
	// vantage (e.g. reading the EDNS size resolvers advertise, or
	// detecting the re-query after a fragmented CNAME response).
	Observe func(q *dnswire.Message, src netip.Addr, transport string)
}

// New creates a server on host and binds UDP and TCP port 53, plus
// every session-transport service port (always-TCP, DoT, DoH, DoQ) so
// resolvers may pick any upstream transport. TCP fallback responses
// are never truncated or rate limited (RRL only protects the
// amplification-prone UDP path); session responses are never
// truncated but DO spend the RRL budget — the limit models a
// response-rate cap, so a muted server is silent on every transport.
func New(host *netsim.Host, cfg Config) *Server {
	s := &Server{Host: host, Cfg: cfg, zones: make(map[string]*Zone)}
	host.BindUDP(53, s.handle)
	host.BindTCP(53, s.handleTCP)
	for _, t := range resolver.StreamTransports() {
		host.BindSession(t.Port(), s.sessionHandler(t.Key()))
	}
	return s
}

// lastReply is what handle remembers of its last UDP reply: the train
// (netsim.Datagram.Train) it was built for, 0 for none; its length in
// scratch; whether it is a TC reply; and how many records the
// RandomizeOrder shuffle drew over.
type lastReply struct {
	train   uint64
	n       int
	tc      bool
	shuffle int
}

// replyQueue is the reply train handle has queued but not sent: count
// copies of the reply in scratch[:n] for dst:port, whose DNS IDs count
// up from id.
type replyQueue struct {
	dst      netip.Addr
	port, id uint16
	n, count int
}

// Reset rewinds the server to its post-New state for the next trial of
// a reused world: the RRL window bookkeeping and counters are zeroed,
// the remembered reply and the reply queue dropped and the observation
// hook removed.
// Zones (immutable under serving), config and bound ports survive;
// SadDNS-style config overrides are restored by the host-level
// snapshot, not here.
func (s *Server) Reset() {
	s.window = 0
	s.sentInWin = 0
	s.last = lastReply{}
	s.queue = replyQueue{}
	s.Queries, s.Responses, s.RateDropped, s.Truncated = 0, 0, 0, 0
	s.Observe = nil
}

// sessionHandler serves one session service port. Streams carry any
// size, so there is no truncation path; the scratch buffer is safe
// because the session respond contract copies before returning.
func (s *Server) sessionHandler(transport string) netsim.SessionHandler {
	return func(src netip.Addr, req []byte, respond func([]byte)) {
		query, err := dnswire.Unpack(req)
		if err != nil || query.Response || len(query.Questions) == 0 {
			return
		}
		s.Queries++
		if s.Observe != nil {
			s.Observe(query, src, transport)
		}
		if s.Cfg.RateLimit && !s.allowResponse() {
			s.RateDropped++
			return // silence: the SadDNS mute lever is transport-blind
		}
		resp := s.BuildResponse(query)
		wire, err := resp.AppendPack(s.scratch[:0])
		if err != nil {
			return
		}
		s.scratch = wire
		s.Responses++
		respond(wire)
	}
}

func (s *Server) handleTCP(src netip.Addr, req []byte) []byte {
	query, err := dnswire.Unpack(req)
	if err != nil || query.Response || len(query.Questions) == 0 {
		return nil
	}
	s.Queries++
	if s.Observe != nil {
		s.Observe(query, src, "tcp")
	}
	resp := s.BuildResponse(query)
	wire, err := resp.Pack()
	if err != nil {
		return nil
	}
	s.Responses++
	return wire
}

// AddZone attaches a zone to the server.
func (s *Server) AddZone(z *Zone) *Server {
	s.zones[z.Origin] = z
	return s
}

// Zone returns the zone whose origin is the longest suffix of name.
func (s *Server) Zone(name string) *Zone {
	name = dnswire.CanonicalName(name)
	var best *Zone
	for origin, z := range s.zones {
		if dnswire.InBailiwick(name, origin) {
			if best == nil || len(origin) > len(best.Origin) {
				best = z
			}
		}
	}
	return best
}

// handle answers a UDP query, and a query train with a train of
// replies. The datagrams of one train differ only in their DNS ID, and
// between two of them only handle itself and the network's observers
// run, so Cfg, the zones and the fillers cannot change: the reply built
// for the train's first answered datagram is resent to the rest with
// only the ID patched in. What varies per datagram still happens per
// datagram: the counters, the RRL check and the shuffle draw. A reply
// is reused only when it does not depend on the shuffle's outcome (no
// shuffle was drawn, or the reply is TC), and not while an Observe hook
// wants to see each query.
//
// Replies leave through the queue (see enqueue): it is sent as one
// train when the query train ends, before scratch is rewritten and
// before a shuffle draw, so each reply still draws its IP-ID from the
// host stream before the next datagram's shuffle, and the train takes
// the place in the clock that the first reply would have taken.
func (s *Server) handle(dg netsim.Datagram) {
	s.answer(dg)
	if !dg.More {
		s.flush()
	}
}

// answer handles one datagram of a query train, queueing its reply.
func (s *Server) answer(dg netsim.Datagram) {
	if r := s.last; r.train == dg.Train && s.Observe == nil {
		s.Queries++
		if s.Cfg.RateLimit && !s.allowResponse() {
			s.RateDropped++
			return
		}
		if r.shuffle > 0 {
			s.flush() // the queued replies draw their IP-IDs first, as sends would
			s.Host.Rand().Shuffle(r.shuffle, func(int, int) {})
		}
		if r.tc {
			s.Truncated++
		}
		s.Responses++
		s.enqueue(dg, r.n)
		return
	}
	// scratch is about to be overwritten: send the replies it holds.
	s.flush()
	s.last.train = 0
	query, err := dnswire.Unpack(dg.Payload)
	if err != nil || query.Response || len(query.Questions) == 0 {
		return
	}
	s.Queries++
	if s.Observe != nil {
		s.Observe(query, dg.Src, "udp")
	}
	if s.Cfg.RateLimit && !s.allowResponse() {
		s.RateDropped++
		return
	}
	// EDNS truncation: if the client advertised a buffer smaller than
	// the response, set TC and cut to the advertised size (or 512).
	limit := 512
	if sz, _, ok := query.EDNS(); ok {
		limit = int(sz)
	}
	resp, shuffled, truncate := s.respond(query, limit)
	var wire []byte
	if !truncate {
		if wire, err = resp.AppendPack(s.scratch[:0]); err != nil {
			return
		}
		s.scratch = wire
		truncate = len(wire) > limit
	}
	if truncate {
		s.Truncated++
		tr := &dnswire.Message{
			ID: resp.ID, Response: true, Authoritative: resp.Authoritative,
			Truncated: true, RecursionDesired: resp.RecursionDesired,
			RCode: resp.RCode, Questions: resp.Questions,
		}
		if wire, err = tr.AppendPack(s.scratch[:0]); err != nil {
			return
		}
		s.scratch = wire
	}
	s.Responses++
	if shuffled == 0 || truncate {
		s.last = lastReply{train: dg.Train, n: len(wire), tc: truncate, shuffle: shuffled}
	}
	s.enqueue(dg, len(wire))
}

// enqueue adds the reply in scratch[:n], with dg's ID, to the queue,
// sending the queue first if the reply does not extend it.
func (s *Server) enqueue(dg netsim.Datagram, n int) {
	id := binary.BigEndian.Uint16(dg.Payload)
	if q := s.queue; q.count == 0 || id != q.id+uint16(q.count) {
		s.flush()
		s.queue = replyQueue{dst: dg.Src, port: dg.SrcPort, id: id, n: n}
	}
	s.queue.count++
}

// flush sends the queued replies as one train, the only way a UDP reply
// leaves the server.
func (s *Server) flush() {
	q := s.queue
	if q.count == 0 {
		return
	}
	s.queue.count = 0
	wire := s.scratch[:q.n]
	binary.BigEndian.PutUint16(wire, q.id)
	s.Host.SendUDPTrain(s.Host.Addr, 53, q.dst, q.port, wire, q.count)
}

func (s *Server) allowResponse() bool {
	now := s.Host.Network().Clock.Now()
	win := now / time.Second
	if win != s.window {
		s.window = win
		s.sentInWin = 0
	}
	s.sentInWin++
	return s.sentInWin <= s.Cfg.RateLimitQPS
}

// BuildResponse synthesises the authoritative answer for query. It is
// exported so the FragDNS attacker can predict the exact bytes the
// server will emit (the attacker queries public zone data itself).
func (s *Server) BuildResponse(query *dnswire.Message) *dnswire.Message {
	resp, _, _ := s.respond(query, 0)
	return resp
}

// respond is BuildResponse for a client that accepts at most limit
// bytes (0: any size). A padded answer already known to exceed limit
// is never laid out, signed or packed: respond returns the bare header
// and truncate set. Signing only appends records and a padded answer's
// length does not depend on its order (see fill), so such an answer
// could only have been cut to a TC reply. The order shuffle is drawn
// all the same, so the host stream advances as if it had been built.
// shuffled is the number of records the shuffle drew over, 0 when
// none was drawn.
func (s *Server) respond(query *dnswire.Message, limit int) (resp *dnswire.Message, shuffled int, truncate bool) {
	q := query.Question()
	resp = &dnswire.Message{
		ID: query.ID, Response: true, Authoritative: true,
		RecursionDesired: query.RecursionDesired,
		Questions:        query.Questions, // echo, preserving 0x20 case
	}
	if sz, do, ok := query.EDNS(); ok {
		resp.SetEDNS(sz, do)
	}
	zone := s.Zone(q.Name)
	if zone == nil {
		resp.RCode = dnswire.RCodeRefused
		return resp, 0, false
	}
	if q.Type == dnswire.TypeANY && !s.Cfg.ServeANY {
		// Unbound-style minimal ANY refusal (RFC 8482).
		resp.Answers = append(resp.Answers, dnswire.NewTXT(q.Name, 3600, "RFC8482"))
		return resp, 0, false
	}
	answers, exists := zone.Lookup(q.Name, q.Type)
	if len(answers) == 0 {
		if !exists {
			resp.RCode = dnswire.RCodeNXDomain
		}
		if soa := zone.SOA(); soa != nil {
			resp.Authority = append(resp.Authority, soa)
		}
		return resp, 0, false
	}
	// Layout: filler first, then the zone's records (one RRset, or ANY
	// in Lookup's order, address records last), so the genuine records
	// sit in the final fragment with A records at the tail: the layout
	// FragDNS wants to overwrite.
	fillers := 0
	if s.Cfg.PadAnswersTo > 0 {
		var size int
		fillers, size = s.fill(resp, answers, q.Name)
		if limit > 0 && size > limit {
			if s.Cfg.RandomizeOrder {
				shuffled = fillers + len(answers)
				s.Host.Rand().Shuffle(shuffled, func(int, int) {})
			}
			resp.Answers = nil
			return resp, shuffled, true
		}
	}
	resp.Answers = make([]*dnswire.RR, fillers, fillers+len(answers))
	for i := range fillers {
		resp.Answers[i] = s.filler(fillers - 1 - i)
	}
	resp.Answers = append(resp.Answers, answers...)
	if s.Cfg.RandomizeOrder {
		shuffled = len(resp.Answers)
		s.Host.Rand().Shuffle(shuffled, func(i, j int) {
			resp.Answers[i], resp.Answers[j] = resp.Answers[j], resp.Answers[i]
		})
	}
	if zone.Signed {
		s.sign(resp, zone)
	}
	return resp, shuffled, false
}

// maxFillers caps the filler records one response carries.
const maxFillers = 64

// fillerText holds the text of each filler: a 194-byte run and a
// distinct serial, so that answer-order randomisation genuinely changes
// the response bytes (and so defeats FragDNS checksum prediction, §6.1).
var fillerText = func() (t [maxFillers]string) {
	chunk := strings.Repeat("x", 194)
	for i := range t {
		t[i] = fmt.Sprintf("%s%06d", chunk, i)
	}
	return t
}()

// fill counts the filler TXT answer records, owned by a sibling label
// of qname, that bring the packed response with answers up to the
// configured floor (at most maxFillers), and returns the count with
// the padded length before ordering and signing. Only owner names are
// compressed, and every padded answer is owned by qname or by the
// filler name, so every filler after the first adds the same number of
// bytes, wherever it sits: three packs (zero, one and two fillers)
// give the length at any count. resp.Answers is left pointing at the
// server's scratch; the caller lays out the real answer section.
func (s *Server) fill(resp *dnswire.Message, answers []*dnswire.RR, qname string) (n, size int) {
	base := strings.TrimPrefix(dnswire.CanonicalName(qname), "filler.")
	if s.fillerOwner == "" || s.fillerOwner[len("filler."):] != base {
		s.fillerOwner, s.fillers = "filler."+base, s.fillers[:0]
	}
	// The packs see the answer section as respond lays it out: filler
	// n−1 … filler 0, then answers. A response that does not pack is
	// left to fail where it is sent.
	s.padRRs = append(append(s.padRRs[:0], nil, nil), answers...)
	var lens [3]int
	for n = 0; n <= 2; n++ {
		resp.Answers = s.padRRs[2-n:]
		wire, err := resp.AppendPack(s.scratch[:0])
		if err != nil {
			return n, 0
		}
		s.scratch = wire
		if lens[n] = len(wire); lens[n] >= s.Cfg.PadAnswersTo {
			return n, lens[n]
		}
		if n < 2 {
			s.padRRs[1-n] = s.filler(n)
		}
	}
	per := lens[2] - lens[1]
	n = min(maxFillers, 2+(s.Cfg.PadAnswersTo-lens[2]+per-1)/per)
	return n, lens[2] + (n-2)*per
}

// filler returns filler i of the current owner, building the fillers
// up to it on first use. Records are shared by every response that
// carries them, as zone records are.
func (s *Server) filler(i int) *dnswire.RR {
	for len(s.fillers) <= i {
		s.fillers = append(s.fillers, dnswire.NewTXT(s.fillerOwner, 300, fillerText[len(s.fillers)]))
	}
	return s.fillers[i]
}

// sign appends RRSIG markers covering each answer RRset type.
func (s *Server) sign(resp *dnswire.Message, zone *Zone) {
	seen := map[dnswire.Type]bool{}
	var sigs []*dnswire.RR
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeRRSIG || seen[rr.Type] {
			continue
		}
		seen[rr.Type] = true
		sigs = append(sigs, &dnswire.RR{
			Name: rr.Name, Type: dnswire.TypeRRSIG, Class: dnswire.ClassIN, TTL: rr.TTL,
			Data: &dnswire.RRSIGData{Covered: rr.Type, Signer: zone.Origin, Valid: true},
		})
	}
	resp.Answers = append(resp.Answers, sigs...)
}
