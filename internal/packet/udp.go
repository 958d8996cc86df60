package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// UDPHeaderLen is the fixed UDP header length.
const UDPHeaderLen = 8

// UDP is a decoded or to-be-serialized UDP datagram.
type UDP struct {
	SrcPort uint16
	DstPort uint16
	// Checksum as seen on the wire when decoding; ignored when
	// serializing (it is recomputed) unless ForceChecksum is set.
	Checksum uint16
	// ForceChecksum makes Serialize emit Checksum verbatim instead of
	// computing it. FragDNS uses this to craft second fragments whose
	// bytes compensate a checksum chosen in the first fragment.
	ForceChecksum bool
	Payload       []byte
}

// Serialize appends the UDP header and payload to dst, computing the
// checksum over the IPv4 pseudo-header for src/dst.
func (u *UDP) Serialize(dst []byte, src, dstIP netip.Addr) ([]byte, error) {
	length := UDPHeaderLen + len(u.Payload)
	if length > 0xffff {
		return nil, fmt.Errorf("packet: UDP payload too large: %d", length)
	}
	off := len(dst)
	dst = append(dst, make([]byte, UDPHeaderLen)...)
	h := dst[off:]
	binary.BigEndian.PutUint16(h[0:], u.SrcPort)
	binary.BigEndian.PutUint16(h[2:], u.DstPort)
	binary.BigEndian.PutUint16(h[4:], uint16(length))
	dst = append(dst, u.Payload...)
	var ck uint16
	if u.ForceChecksum {
		ck = u.Checksum
	} else {
		sum := PseudoHeaderSum(src, dstIP, ProtoUDP, length)
		sum = ChecksumPartial(dst[off:], sum)
		ck = FoldChecksum(sum)
		if ck == 0 {
			ck = 0xffff // RFC 768: transmitted zero means "no checksum"
		}
	}
	binary.BigEndian.PutUint16(dst[off+6:], ck)
	return dst, nil
}

// DecodeUDP parses a UDP datagram and, when verify is true, checks the
// checksum against the given pseudo-header addresses. A wire checksum
// of zero means "not computed" and always verifies.
func DecodeUDP(data []byte, src, dst netip.Addr, verify bool) (*UDP, error) {
	u := &UDP{}
	if err := DecodeUDPInto(u, data, src, dst, verify); err != nil {
		return nil, err
	}
	return u, nil
}

// DecodeUDPInto is DecodeUDP into a caller-provided (typically
// stack-allocated) struct, sparing the per-packet heap allocation on
// the receive path. u.Payload aliases data.
func DecodeUDPInto(u *UDP, data []byte, src, dst netip.Addr, verify bool) error {
	if len(data) < UDPHeaderLen {
		return fmt.Errorf("%w: UDP header needs %d bytes, have %d", ErrTruncated, UDPHeaderLen, len(data))
	}
	length := int(binary.BigEndian.Uint16(data[4:]))
	if length < UDPHeaderLen || length > len(data) {
		return fmt.Errorf("%w: UDP length %d of %d", ErrTruncated, length, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:])
	u.DstPort = binary.BigEndian.Uint16(data[2:])
	u.Checksum = binary.BigEndian.Uint16(data[6:])
	u.Payload = data[UDPHeaderLen:length]
	if verify && u.Checksum != 0 {
		sum := PseudoHeaderSum(src, dst, ProtoUDP, length)
		if FoldChecksum(ChecksumPartial(data[:length], sum)) != 0 {
			return fmt.Errorf("%w: UDP %d->%d", ErrBadChecksum, u.SrcPort, u.DstPort)
		}
	}
	return nil
}

// SetUDPPayloadID overwrites the first 16-bit word of a serialized UDP
// datagram's payload (wire starts at the UDP header) — a DNS message's
// ID — with id, big-endian, and updates the checksum for that change
// alone (RFC 1624, eqn. 3): the result is byte-identical to
// serializing the patched payload afresh, at O(1) cost instead of a
// pass over the datagram. A datagram sent without a checksum (zero)
// keeps none.
func SetUDPPayloadID(wire []byte, id uint16) { setUDPWord(wire, UDPHeaderLen, id) }

// SetUDPDstPort overwrites the destination port of a serialized UDP
// datagram (wire starts at the UDP header) and updates the checksum as
// SetUDPPayloadID does: byte-identical to serializing the datagram
// afresh for that port. The pseudo-header does not hold the port, so
// nothing else changes.
func SetUDPDstPort(wire []byte, port uint16) { setUDPWord(wire, 2, port) }

// setUDPWord writes v into the 16-bit word at off of a serialized UDP
// datagram, off being even and not the checksum's, and updates the
// checksum incrementally (RFC 1624, eqn. 3).
func setUDPWord(wire []byte, off int, v uint16) {
	old := binary.BigEndian.Uint16(wire[off:])
	binary.BigEndian.PutUint16(wire[off:], v)
	ck := binary.BigEndian.Uint16(wire[6:])
	if ck == 0 {
		return
	}
	ck = FoldChecksum(uint32(^ck) + uint32(^old) + uint32(v))
	if ck == 0 {
		ck = 0xffff // as Serialize sends a computed zero
	}
	binary.BigEndian.PutUint16(wire[6:], ck)
}
