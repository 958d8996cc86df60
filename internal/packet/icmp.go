package packet

import (
	"encoding/binary"
	"fmt"
)

// ICMP types and codes used by the attacks.
const (
	ICMPTypeEchoReply    = 0
	ICMPTypeDestUnreach  = 3
	ICMPTypeEcho         = 8
	ICMPTypeTimeExceeded = 11
	ICMPCodePortUnreach  = 3 // with ICMPTypeDestUnreach
	ICMPCodeFragNeeded   = 4 // with ICMPTypeDestUnreach: "fragmentation needed and DF set"
	ICMPCodeNetUnreach   = 0
	ICMPCodeHostUnreach  = 1
	ICMPHeaderLen        = 8
	// ICMPQuoteLen is how much of the offending datagram an ICMP error
	// quotes: the IP header plus 8 bytes (RFC 792 minimum, which is
	// what Linux sends by default).
	ICMPQuoteLen = IPv4HeaderLen + 8
)

// ICMP is a decoded or to-be-serialized ICMP message. For Destination
// Unreachable / Fragmentation Needed, MTU carries the next-hop MTU
// (RFC 1191) and Payload quotes the offending datagram. For echo
// messages, ID/Seq are the identifier and sequence number.
type ICMP struct {
	Type    uint8
	Code    uint8
	ID      uint16 // echo
	Seq     uint16 // echo
	MTU     uint16 // frag needed
	Payload []byte // echo data, or quoted datagram for errors
}

// IsPortUnreachable reports whether the message is a Destination
// Unreachable / Port Unreachable error — the signal the SadDNS side
// channel observes.
func (ic *ICMP) IsPortUnreachable() bool {
	return ic.Type == ICMPTypeDestUnreach && ic.Code == ICMPCodePortUnreach
}

// IsFragNeeded reports whether the message is Destination Unreachable /
// Fragmentation Needed — the PMTUD trigger FragDNS spoofs.
func (ic *ICMP) IsFragNeeded() bool {
	return ic.Type == ICMPTypeDestUnreach && ic.Code == ICMPCodeFragNeeded
}

// Serialize appends the ICMP message (with computed checksum) to dst.
func (ic *ICMP) Serialize(dst []byte) ([]byte, error) {
	off := len(dst)
	dst = append(dst, make([]byte, ICMPHeaderLen)...)
	h := dst[off:]
	h[0] = ic.Type
	h[1] = ic.Code
	switch ic.Type {
	case ICMPTypeEcho, ICMPTypeEchoReply:
		binary.BigEndian.PutUint16(h[4:], ic.ID)
		binary.BigEndian.PutUint16(h[6:], ic.Seq)
	case ICMPTypeDestUnreach:
		// RFC 1191: unused(2) | next-hop MTU(2)
		binary.BigEndian.PutUint16(h[6:], ic.MTU)
	}
	dst = append(dst, ic.Payload...)
	binary.BigEndian.PutUint16(dst[off+2:], Checksum(dst[off:], 0))
	return dst, nil
}

// DecodeICMP parses an ICMP message, verifying its checksum.
func DecodeICMP(data []byte) (*ICMP, error) {
	ic := &ICMP{}
	if err := DecodeICMPInto(ic, data); err != nil {
		return nil, err
	}
	return ic, nil
}

// DecodeICMPInto is DecodeICMP into a caller-provided struct, which it
// overwrites whole, so a receive path can reuse one struct for every
// message. ic.Payload aliases data.
func DecodeICMPInto(ic *ICMP, data []byte) error {
	if len(data) < ICMPHeaderLen {
		return fmt.Errorf("%w: ICMP header needs %d bytes, have %d", ErrTruncated, ICMPHeaderLen, len(data))
	}
	if Checksum(data, 0) != 0 {
		return fmt.Errorf("%w: ICMP", ErrBadChecksum)
	}
	*ic = ICMP{
		Type:    data[0],
		Code:    data[1],
		Payload: data[ICMPHeaderLen:],
	}
	switch ic.Type {
	case ICMPTypeEcho, ICMPTypeEchoReply:
		ic.ID = binary.BigEndian.Uint16(data[4:])
		ic.Seq = binary.BigEndian.Uint16(data[6:])
	case ICMPTypeDestUnreach:
		ic.MTU = binary.BigEndian.Uint16(data[6:])
	}
	return nil
}

// QuoteDatagram appends to dst the ICMP error payload quoting an
// offending IPv4 datagram: its header plus the first 8 payload bytes
// (which for UDP covers the full UDP header — enough for the receiver
// to identify the socket and, crucially for FragDNS, for a nameserver
// to match the quoted query when validating a PTB). Like Serialize, it
// reuses dst's capacity, so quoting into one buffer allocates nothing.
func QuoteDatagram(dst []byte, ip *IPv4) ([]byte, error) {
	quote := *ip
	if len(quote.Payload) > 8 {
		quote.Payload = quote.Payload[:8]
	}
	return quote.Serialize(dst)
}
