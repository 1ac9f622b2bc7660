//! UDP datagram header handling.

use crate::addr::Ipv4Addr;
use crate::checksum::Checksum;

/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    /// Length of header plus payload.
    pub length: u16,
}

impl UdpHeader {
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> Self {
        UdpHeader {
            src_port,
            dst_port,
            length: (UDP_HEADER_LEN + payload_len) as u16,
        }
    }

    /// Serialize header plus payload as the L4 part of an IPv4 packet,
    /// computing the UDP checksum over the pseudo header.
    pub fn build_datagram(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(UDP_HEADER_LEN + payload.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.length.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(payload);
        let mut c = Checksum::new();
        c.add_pseudo_header(src, dst, 17, self.length);
        c.add_bytes(&out);
        let mut csum = c.finish();
        if csum == 0 {
            csum = 0xffff; // RFC 768: zero means "no checksum"
        }
        out[6] = (csum >> 8) as u8;
        out[7] = csum as u8;
        out
    }

    /// Parse a UDP datagram, returning header, payload and checksum validity.
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Option<(UdpHeader, &[u8], bool)> {
        if data.len() < UDP_HEADER_LEN {
            return None;
        }
        let length = u16::from_be_bytes([data[4], data[5]]);
        if (length as usize) < UDP_HEADER_LEN || data.len() < length as usize {
            return None;
        }
        let hdr = UdpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            length,
        };
        let stored_csum = u16::from_be_bytes([data[6], data[7]]);
        let ok = if stored_csum == 0 {
            true // checksum disabled
        } else {
            let mut c = Checksum::new();
            c.add_pseudo_header(src, dst, 17, length);
            c.add_bytes(&data[..length as usize]);
            c.finish() == 0
        };
        Some((hdr, &data[UDP_HEADER_LEN..length as usize], ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn datagram_roundtrip() {
        let h = UdpHeader::new(1234, 11211, 6);
        let d = h.build_datagram(SRC, DST, b"memchd");
        let (parsed, payload, ok) = UdpHeader::parse(&d, SRC, DST).unwrap();
        assert!(ok);
        assert_eq!(parsed, h);
        assert_eq!(payload, b"memchd");
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let h = UdpHeader::new(1, 2, 4);
        let mut d = h.build_datagram(SRC, DST, b"abcd");
        d[UDP_HEADER_LEN] ^= 0xff;
        let (_, _, ok) = UdpHeader::parse(&d, SRC, DST).unwrap();
        assert!(!ok);
    }

    #[test]
    fn zero_checksum_means_disabled() {
        let h = UdpHeader::new(1, 2, 2);
        let mut d = h.build_datagram(SRC, DST, b"ab");
        d[6] = 0;
        d[7] = 0;
        let (_, _, ok) = UdpHeader::parse(&d, SRC, DST).unwrap();
        assert!(ok);
    }

    #[test]
    fn truncated_rejected() {
        assert!(UdpHeader::parse(&[0u8; 7], SRC, DST).is_none());
        let h = UdpHeader::new(1, 2, 100);
        let d = h.build_datagram(SRC, DST, &[0u8; 100]);
        assert!(UdpHeader::parse(&d[..50], SRC, DST).is_none());
    }

    #[test]
    fn extra_trailing_bytes_ignored() {
        // Ethernet padding after the UDP datagram must not confuse parsing.
        let h = UdpHeader::new(9, 10, 3);
        let mut d = h.build_datagram(SRC, DST, b"xyz");
        d.extend_from_slice(&[0u8; 20]);
        let (parsed, payload, ok) = UdpHeader::parse(&d, SRC, DST).unwrap();
        assert!(ok);
        assert_eq!(parsed.length as usize, UDP_HEADER_LEN + 3);
        assert_eq!(payload, b"xyz");
    }
}
