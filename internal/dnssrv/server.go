package dnssrv

import (
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

// Reset rewinds the server to its post-New state for the next trial of
// a reused world: the RRL window bookkeeping and counters are zeroed
// and the observation hook dropped. Zones (immutable under serving),
// config and bound ports survive; SadDNS-style config overrides are
// restored by the host-level snapshot, not here.
func (s *Server) Reset() {
	s.window = 0
	s.sentInWin = 0
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

func (s *Server) handle(dg netsim.Datagram) {
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
	resp, truncate := s.respond(query, limit)
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
	s.Host.SendUDP(53, dg.Src, dg.SrcPort, wire)
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
	resp, _ := s.respond(query, 0)
	return resp
}

// respond is BuildResponse for a client that accepts at most limit
// bytes (0: any size). A padded answer already known to exceed limit
// is never laid out, signed or packed: respond returns the bare header
// and truncate set. Signing only appends records and a padded answer's
// length does not depend on its order (see fill), so such an answer
// could only have been cut to a TC reply. The order shuffle is drawn
// all the same, so the host stream advances as if it had been built.
func (s *Server) respond(query *dnswire.Message, limit int) (resp *dnswire.Message, truncate bool) {
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
		return resp, false
	}
	if q.Type == dnswire.TypeANY && !s.Cfg.ServeANY {
		// Unbound-style minimal ANY refusal (RFC 8482).
		resp.Answers = append(resp.Answers, dnswire.NewTXT(q.Name, 3600, "RFC8482"))
		return resp, false
	}
	answers, exists := zone.Lookup(q.Name, q.Type)
	if len(answers) == 0 {
		if !exists {
			resp.RCode = dnswire.RCodeNXDomain
		}
		if soa := zone.SOA(); soa != nil {
			resp.Authority = append(resp.Authority, soa)
		}
		return resp, false
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
				s.Host.Rand().Shuffle(fillers+len(answers), func(int, int) {})
			}
			resp.Answers = nil
			return resp, true
		}
	}
	resp.Answers = make([]*dnswire.RR, fillers, fillers+len(answers))
	for i := range fillers {
		resp.Answers[i] = s.filler(fillers - 1 - i)
	}
	resp.Answers = append(resp.Answers, answers...)
	if s.Cfg.RandomizeOrder {
		rng := s.Host.Rand()
		rng.Shuffle(len(resp.Answers), func(i, j int) {
			resp.Answers[i], resp.Answers[j] = resp.Answers[j], resp.Answers[i]
		})
	}
	if zone.Signed {
		s.sign(resp, zone)
	}
	return resp, false
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
