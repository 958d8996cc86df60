package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// RCode is a DNS response code.
type RCode uint8

// Response codes used in this repository.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint8(r))
}

// Question is a DNS question. Name preserves the case as sent (needed
// for 0x20 verification).
type Question struct {
	Name  string
	Type  Type
	Class Class
}

func (q Question) String() string { return fmt.Sprintf("%s %s?", q.Name, q.Type) }

// Message is a DNS message.
type Message struct {
	ID                 uint16
	Response           bool // QR
	Opcode             uint8
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	AuthenticData      bool // AD
	CheckingDisabled   bool // CD
	RCode              RCode

	Questions  []Question
	Answers    []*RR
	Authority  []*RR
	Additional []*RR
}

// HeaderLen is the DNS fixed header length.
const HeaderLen = 12

// NewQuery builds a recursion-desired query for (name, type).
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: name, Type: t, Class: ClassIN}},
	}
}

// Question returns the first question, or a zero Question if none.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// SetEDNS attaches (or replaces) an OPT pseudo-record advertising the
// given UDP payload size.
func (m *Message) SetEDNS(udpSize uint16, do bool) {
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			rr.Data = &OPTData{UDPSize: udpSize, DO: do}
			return
		}
	}
	m.Additional = append(m.Additional, &RR{
		Name: ".", Type: TypeOPT, Class: Class(udpSize),
		Data: &OPTData{UDPSize: udpSize, DO: do},
	})
}

// EDNS returns the OPT record's parameters and whether one is present.
func (m *Message) EDNS() (udpSize uint16, do bool, ok bool) {
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			if d, isOpt := rr.Data.(*OPTData); isOpt {
				return d.UDPSize, d.DO, true
			}
			return uint16(rr.Class), false, true
		}
	}
	return 0, false, false
}

// Pack serializes the message with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack serializes the message with name compression, appending
// the wire form to dst and returning the extended slice. Compression
// pointer offsets are relative to the start of the message (len(dst)
// at call time), so the bytes produced are identical to Pack's
// regardless of what dst already holds — callers reuse one scratch
// buffer across packs without changing the wire. On error the
// returned slice is nil; dst's contents past its original length are
// unspecified.
func (m *Message) AppendPack(dst []byte) ([]byte, error) {
	base := len(dst)
	msg := append(dst, make([]byte, HeaderLen)...)
	hdr := msg[base:]
	binary.BigEndian.PutUint16(hdr[0:], m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xf) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	if m.AuthenticData {
		flags |= 1 << 5
	}
	if m.CheckingDisabled {
		flags |= 1 << 4
	}
	flags |= uint16(m.RCode) & 0xf
	binary.BigEndian.PutUint16(hdr[2:], flags)
	binary.BigEndian.PutUint16(hdr[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(hdr[6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(hdr[8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(hdr[10:], uint16(len(m.Additional)))

	comp := compressor{base: base}
	var err error
	for _, q := range m.Questions {
		if msg, err = appendName(msg, q.Name, &comp); err != nil {
			return nil, fmt.Errorf("question %q: %w", q.Name, err)
		}
		msg = binary.BigEndian.AppendUint16(msg, uint16(q.Type))
		msg = binary.BigEndian.AppendUint16(msg, uint16(q.Class))
	}
	for _, sec := range [][]*RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if msg, err = appendRR(msg, rr, &comp); err != nil {
				return nil, fmt.Errorf("rr %q/%v: %w", rr.Name, rr.Type, err)
			}
		}
	}
	return msg, nil
}

func appendRR(msg []byte, rr *RR, comp *compressor) ([]byte, error) {
	var err error
	if msg, err = appendName(msg, rr.Name, comp); err != nil {
		return nil, err
	}
	msg = binary.BigEndian.AppendUint16(msg, uint16(rr.Type))
	class := uint16(rr.Class)
	ttl := rr.TTL
	if rr.Type == TypeOPT {
		if d, ok := rr.Data.(*OPTData); ok {
			class = d.UDPSize
			if d.DO {
				ttl = 1 << 15
			} else {
				ttl = 0
			}
		}
	}
	msg = binary.BigEndian.AppendUint16(msg, class)
	msg = binary.BigEndian.AppendUint32(msg, ttl)
	lenOff := len(msg)
	msg = append(msg, 0, 0)
	if rr.Data == nil {
		return nil, fmt.Errorf("dnswire: RR %s has nil data", rr.Name)
	}
	if msg, err = rr.Data.appendTo(msg); err != nil {
		return nil, err
	}
	rdlen := len(msg) - lenOff - 2
	if rdlen > 0xffff {
		return nil, fmt.Errorf("dnswire: RDATA too large: %d", rdlen)
	}
	binary.BigEndian.PutUint16(msg[lenOff:], uint16(rdlen))
	return msg, nil
}

// Unpack parses a DNS message.
func Unpack(data []byte) (*Message, error) {
	if len(data) < HeaderLen {
		return nil, fmt.Errorf("%w: header needs %d bytes, have %d", ErrTruncatedMsg, HeaderLen, len(data))
	}
	m := &Message{ID: binary.BigEndian.Uint16(data[0:])}
	flags := binary.BigEndian.Uint16(data[2:])
	m.Response = flags&(1<<15) != 0
	m.Opcode = uint8(flags >> 11 & 0xf)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.AuthenticData = flags&(1<<5) != 0
	m.CheckingDisabled = flags&(1<<4) != 0
	m.RCode = RCode(flags & 0xf)
	qd := int(binary.BigEndian.Uint16(data[4:]))
	an := int(binary.BigEndian.Uint16(data[6:]))
	ns := int(binary.BigEndian.Uint16(data[8:]))
	ar := int(binary.BigEndian.Uint16(data[10:]))

	off := HeaderLen
	for i := 0; i < qd; i++ {
		name, next, err := readNamePreserveCase(data, off)
		if err != nil {
			return nil, err
		}
		if next+4 > len(data) {
			return nil, fmt.Errorf("%w: question %d", ErrTruncatedMsg, i)
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  Type(binary.BigEndian.Uint16(data[next:])),
			Class: Class(binary.BigEndian.Uint16(data[next+2:])),
		})
		off = next + 4
	}
	var err error
	if m.Answers, off, err = readRRs(data, off, an); err != nil {
		return nil, err
	}
	if m.Authority, off, err = readRRs(data, off, ns); err != nil {
		return nil, err
	}
	if m.Additional, _, err = readRRs(data, off, ar); err != nil {
		return nil, err
	}
	return m, nil
}

// readNamePreserveCase is readName but keeps the original byte case,
// which 0x20 verification depends on.
func readNamePreserveCase(msg []byte, off int) (string, int, error) {
	return readName(msg, off)
}

func readRRs(data []byte, off, n int) ([]*RR, int, error) {
	var rrs []*RR
	for i := 0; i < n; i++ {
		name, next, err := readName(data, off)
		if err != nil {
			return nil, 0, err
		}
		if next+10 > len(data) {
			return nil, 0, fmt.Errorf("%w: RR %d header", ErrTruncatedMsg, i)
		}
		typ := Type(binary.BigEndian.Uint16(data[next:]))
		class := Class(binary.BigEndian.Uint16(data[next+2:]))
		ttl := binary.BigEndian.Uint32(data[next+4:])
		rdlen := int(binary.BigEndian.Uint16(data[next+8:]))
		rdOff := next + 10
		if rdOff+rdlen > len(data) {
			return nil, 0, fmt.Errorf("%w: RR %d rdata (%d bytes at %d)", ErrTruncatedMsg, i, rdlen, rdOff)
		}
		rd := data[rdOff : rdOff+rdlen]
		rr := &RR{Name: name, Type: typ, Class: class, TTL: ttl}
		if typ == TypeOPT {
			// EDNS0 carries its fields in the class and TTL; the RDATA
			// (options) is not kept.
			rr.Data = &OPTData{UDPSize: uint16(class), DO: ttl&(1<<15) != 0}
		} else if rr.Data, err = decodeRData(typ, data, rdOff, rd); err != nil {
			return nil, 0, fmt.Errorf("RR %s/%v: %w", name, typ, err)
		}
		rrs = append(rrs, rr)
		off = rdOff + rdlen
	}
	return rrs, off, nil
}

func decodeRData(typ Type, whole []byte, rdOff int, rd []byte) (RData, error) {
	switch typ {
	case TypeA:
		if len(rd) != 4 {
			return nil, fmt.Errorf("%w: A rdata %d bytes", ErrTruncatedMsg, len(rd))
		}
		return &AData{Addr: netip.AddrFrom4([4]byte(rd))}, nil
	case TypeAAAA:
		if len(rd) != 16 {
			return nil, fmt.Errorf("%w: AAAA rdata %d bytes", ErrTruncatedMsg, len(rd))
		}
		return &AAAAData{Addr: netip.AddrFrom16([16]byte(rd))}, nil
	case TypeNS:
		h, _, err := readName(whole, rdOff)
		return &NSData{Host: h}, err
	case TypeCNAME:
		t, _, err := readName(whole, rdOff)
		return &CNAMEData{Target: t}, err
	case TypePTR:
		t, _, err := readName(whole, rdOff)
		return &PTRData{Target: t}, err
	case TypeSOA:
		m, off, err := readName(whole, rdOff)
		if err != nil {
			return nil, err
		}
		r, off, err := readName(whole, off)
		if err != nil {
			return nil, err
		}
		if off+20 > len(whole) {
			return nil, fmt.Errorf("%w: SOA numbers", ErrTruncatedMsg)
		}
		return &SOAData{
			MName: m, RName: r,
			Serial:  binary.BigEndian.Uint32(whole[off:]),
			Refresh: binary.BigEndian.Uint32(whole[off+4:]),
			Retry:   binary.BigEndian.Uint32(whole[off+8:]),
			Expire:  binary.BigEndian.Uint32(whole[off+12:]),
			Minimum: binary.BigEndian.Uint32(whole[off+16:]),
		}, nil
	case TypeMX:
		if len(rd) < 3 {
			return nil, fmt.Errorf("%w: MX rdata", ErrTruncatedMsg)
		}
		h, _, err := readName(whole, rdOff+2)
		return &MXData{Pref: binary.BigEndian.Uint16(rd), Host: h}, err
	case TypeTXT:
		var ss []string
		for i := 0; i < len(rd); {
			l := int(rd[i])
			if i+1+l > len(rd) {
				return nil, fmt.Errorf("%w: TXT string", ErrTruncatedMsg)
			}
			ss = append(ss, string(rd[i+1:i+1+l]))
			i += 1 + l
		}
		return &TXTData{Strings: ss}, nil
	case TypeSRV:
		if len(rd) < 7 {
			return nil, fmt.Errorf("%w: SRV rdata", ErrTruncatedMsg)
		}
		t, _, err := readName(whole, rdOff+6)
		return &SRVData{
			Priority: binary.BigEndian.Uint16(rd),
			Weight:   binary.BigEndian.Uint16(rd[2:]),
			Port:     binary.BigEndian.Uint16(rd[4:]),
			Target:   t,
		}, err
	case TypeNAPTR:
		if len(rd) < 5 {
			return nil, fmt.Errorf("%w: NAPTR rdata", ErrTruncatedMsg)
		}
		d := &NAPTRData{Order: binary.BigEndian.Uint16(rd), Pref: binary.BigEndian.Uint16(rd[2:])}
		i := 4
		for _, dst := range []*string{&d.Flags, &d.Service, &d.Regexp} {
			if i >= len(rd) {
				return nil, fmt.Errorf("%w: NAPTR strings", ErrTruncatedMsg)
			}
			l := int(rd[i])
			if i+1+l > len(rd) {
				return nil, fmt.Errorf("%w: NAPTR string", ErrTruncatedMsg)
			}
			*dst = string(rd[i+1 : i+1+l])
			i += 1 + l
		}
		rep, _, err := readName(whole, rdOff+i)
		d.Replacement = rep
		return d, err
	case TypeIPSECKEY:
		if len(rd) < 3 {
			return nil, fmt.Errorf("%w: IPSECKEY rdata", ErrTruncatedMsg)
		}
		d := &IPSECKEYData{Precedence: rd[0], GatewayType: rd[1], Algorithm: rd[2]}
		i := 3
		switch d.GatewayType {
		case 0:
		case 1:
			if len(rd) < i+4 {
				return nil, fmt.Errorf("%w: IPSECKEY gateway", ErrTruncatedMsg)
			}
			d.GatewayIP = netip.AddrFrom4([4]byte(rd[i : i+4]))
			i += 4
		case 3:
			name, off, err := readName(whole, rdOff+i)
			if err != nil {
				return nil, err
			}
			if off > rdOff+len(rd) {
				return nil, fmt.Errorf("%w: IPSECKEY gateway name overruns rdata", ErrTruncatedMsg)
			}
			d.GatewayName = name
			i = off - rdOff
		default:
			return &RawData{Bytes: append([]byte(nil), rd...)}, nil
		}
		d.PublicKey = append([]byte(nil), rd[i:]...)
		return d, nil
	case TypeRRSIG:
		if len(rd) < 19 {
			return nil, fmt.Errorf("%w: RRSIG rdata", ErrTruncatedMsg)
		}
		d := &RRSIGData{Covered: Type(binary.BigEndian.Uint16(rd)), Valid: rd[4] == 1}
		signer, off, err := readName(whole, rdOff+20)
		if err != nil {
			return nil, err
		}
		if off > rdOff+len(rd) {
			return nil, fmt.Errorf("%w: RRSIG signer name overruns rdata", ErrTruncatedMsg)
		}
		d.Signer = signer
		d.Signature = append([]byte(nil), whole[off:rdOff+len(rd)]...)
		return d, nil
	default:
		return &RawData{Bytes: append([]byte(nil), rd...)}, nil
	}
}

// String renders a dig-style summary, used by the example programs.
func (m *Message) String() string {
	var sb strings.Builder
	kind := "query"
	if m.Response {
		kind = "response"
	}
	fmt.Fprintf(&sb, ";; %s id=%d rcode=%s aa=%v tc=%v\n", kind, m.ID, m.RCode, m.Authoritative, m.Truncated)
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";; question: %s\n", q)
	}
	for _, rr := range m.Answers {
		fmt.Fprintf(&sb, "answer: %s\n", rr)
	}
	for _, rr := range m.Authority {
		fmt.Fprintf(&sb, "authority: %s\n", rr)
	}
	for _, rr := range m.Additional {
		fmt.Fprintf(&sb, "additional: %s\n", rr)
	}
	return sb.String()
}
