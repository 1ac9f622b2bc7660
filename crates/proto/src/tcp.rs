//! TCP segment header handling (with the ECN flags used by DCTCP).

use std::ops::{BitOr, BitOrAssign};

use crate::addr::Ipv4Addr;
use crate::checksum::Checksum;

/// Basic TCP header length without options.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP flag set. Combines with `|`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    pub const NONE: TcpFlags = TcpFlags(0);
    pub const FIN: TcpFlags = TcpFlags(0x01);
    pub const SYN: TcpFlags = TcpFlags(0x02);
    pub const RST: TcpFlags = TcpFlags(0x04);
    pub const PSH: TcpFlags = TcpFlags(0x08);
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// ECN Echo: receiver reports that it saw a CE mark (DCTCP feedback).
    pub const ECE: TcpFlags = TcpFlags(0x40);
    /// Congestion Window Reduced: sender acknowledges the ECE feedback.
    pub const CWR: TcpFlags = TcpFlags(0x80);

    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

/// A TCP header. The options the simulated stack uses are MSS and window
/// scale (both SYN-only, RFC 793 / RFC 7323).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    /// Maximum segment size option (SYN segments only).
    pub mss: Option<u16>,
    /// Window scale shift option (SYN segments only). The advertised shift
    /// applies to window fields of the sender's *subsequent* non-SYN
    /// segments; RFC 7323 caps it at 14.
    pub wscale: Option<u8>,
}

impl TcpHeader {
    /// Header length including options, in bytes. Each option is padded to a
    /// four-byte boundary (window scale is 3 bytes + 1 NOP).
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN
            + if self.mss.is_some() { 4 } else { 0 }
            + if self.wscale.is_some() { 4 } else { 0 }
    }

    /// Maximum serialized TCP header length (offset field limit: 15 words).
    pub const MAX_HEADER_LEN: usize = 60;

    /// Write the header (with options, checksum field zero) into the front
    /// of `out`, returning the header length. Allocation-free; used by the
    /// in-place pooled frame builders.
    pub fn write_header(&self, out: &mut [u8; Self::MAX_HEADER_LEN]) -> usize {
        let hlen = self.header_len();
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = ((hlen / 4) as u8) << 4;
        out[13] = self.flags.0;
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[16..20].fill(0); // checksum placeholder + urgent pointer
        let mut o = TCP_HEADER_LEN;
        if let Some(mss) = self.mss {
            out[o] = 2; // kind: MSS
            out[o + 1] = 4; // length
            out[o + 2..o + 4].copy_from_slice(&mss.to_be_bytes());
            o += 4;
        }
        if let Some(ws) = self.wscale {
            out[o] = 3; // kind: window scale
            out[o + 1] = 3; // length
            out[o + 2] = ws;
            out[o + 3] = 1; // NOP padding to a 4-byte boundary
            o += 4;
        }
        debug_assert_eq!(o, hlen);
        hlen
    }

    /// Serialize the header plus payload as the L4 part of an IPv4 packet,
    /// computing the TCP checksum over the pseudo header.
    pub fn build_segment(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mut hdr = [0u8; Self::MAX_HEADER_LEN];
        let hlen = self.write_header(&mut hdr);
        let total = hlen + payload.len();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&hdr[..hlen]);
        out.extend_from_slice(payload);
        let mut c = Checksum::new();
        c.add_pseudo_header(src, dst, 6, total as u16);
        c.add_bytes(&out);
        let csum = c.finish();
        out[16] = (csum >> 8) as u8;
        out[17] = csum as u8;
        out
    }

    /// Parse a TCP segment (header, payload, checksum validity) given the
    /// enclosing IPv4 addresses for pseudo-header verification.
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Option<(TcpHeader, &[u8], bool)> {
        if data.len() < TCP_HEADER_LEN {
            return None;
        }
        let data_off = ((data[12] >> 4) as usize) * 4;
        if data_off < TCP_HEADER_LEN || data.len() < data_off {
            return None;
        }
        let mut mss = None;
        let mut wscale = None;
        let mut opt = &data[TCP_HEADER_LEN..data_off];
        while !opt.is_empty() {
            match opt[0] {
                0 => break,           // end of options
                1 => opt = &opt[1..], // NOP
                2 if opt.len() >= 4 => {
                    mss = Some(u16::from_be_bytes([opt[2], opt[3]]));
                    opt = &opt[4..];
                }
                3 if opt.len() >= 3 => {
                    // RFC 7323 caps the shift at 14.
                    wscale = Some(opt[2].min(14));
                    opt = &opt[3..];
                }
                _ => {
                    if opt.len() < 2 || opt[1] as usize > opt.len() || opt[1] < 2 {
                        break;
                    }
                    let l = opt[1] as usize;
                    opt = &opt[l..];
                }
            }
        }
        let hdr = TcpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            mss,
            wscale,
        };
        let mut c = Checksum::new();
        c.add_pseudo_header(src, dst, 6, data.len() as u16);
        c.add_bytes(data);
        let ok = c.finish() == 0;
        Some((hdr, &data[data_off..], ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn flags_operations() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert!(TcpFlags::NONE.is_empty());
        let mut g = TcpFlags::NONE;
        g |= TcpFlags::ECE;
        assert!(g.contains(TcpFlags::ECE));
    }

    #[test]
    fn segment_roundtrip_with_checksum() {
        let h = TcpHeader {
            src_port: 40000,
            dst_port: 5201,
            seq: 0xdeadbeef,
            ack: 0x12345678,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 8192,
            mss: None,
            wscale: None,
        };
        let seg = h.build_segment(SRC, DST, b"data bytes");
        let (parsed, payload, ok) = TcpHeader::parse(&seg, SRC, DST).unwrap();
        assert!(ok);
        assert_eq!(parsed, h);
        assert_eq!(payload, b"data bytes");
    }

    #[test]
    fn syn_with_mss_option() {
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 100,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            mss: Some(1460),
            wscale: None,
        };
        assert_eq!(h.header_len(), 24);
        let seg = h.build_segment(SRC, DST, &[]);
        let (parsed, payload, ok) = TcpHeader::parse(&seg, SRC, DST).unwrap();
        assert!(ok);
        assert_eq!(parsed.mss, Some(1460));
        assert!(payload.is_empty());
    }

    #[test]
    fn syn_with_mss_and_window_scale_options() {
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 100,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            mss: Some(1460),
            wscale: Some(7),
        };
        assert_eq!(h.header_len(), 28);
        let seg = h.build_segment(SRC, DST, &[]);
        let (parsed, payload, ok) = TcpHeader::parse(&seg, SRC, DST).unwrap();
        assert!(ok, "options keep the checksum valid");
        assert_eq!(parsed, h);
        assert!(payload.is_empty());

        // Window scale alone (no MSS) also round-trips, and an out-of-range
        // shift is clamped to the RFC 7323 maximum of 14 on parse.
        let h2 = TcpHeader {
            mss: None,
            wscale: Some(44),
            ..h
        };
        let seg2 = h2.build_segment(SRC, DST, b"x");
        let (parsed2, payload2, ok2) = TcpHeader::parse(&seg2, SRC, DST).unwrap();
        assert!(ok2);
        assert_eq!(parsed2.wscale, Some(14));
        assert_eq!(payload2, b"x");
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 1,
            ack: 1,
            flags: TcpFlags::ACK,
            window: 100,
            mss: None,
            wscale: None,
        };
        let mut seg = h.build_segment(SRC, DST, b"abcdef");
        seg[TCP_HEADER_LEN] ^= 0x01;
        let (_, _, ok) = TcpHeader::parse(&seg, SRC, DST).unwrap();
        assert!(!ok);
    }

    #[test]
    fn checksum_depends_on_pseudo_header() {
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 1,
            ack: 1,
            flags: TcpFlags::ACK,
            window: 100,
            mss: None,
            wscale: None,
        };
        let seg = h.build_segment(SRC, DST, b"abcdef");
        let (_, _, ok) = TcpHeader::parse(&seg, SRC, Ipv4Addr::new(10, 0, 0, 3)).unwrap();
        assert!(!ok, "wrong pseudo header address must fail verification");
    }

    #[test]
    fn parse_rejects_short_or_bogus_offsets() {
        assert!(TcpHeader::parse(&[0u8; 10], SRC, DST).is_none());
        let mut seg = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 0,
            mss: None,
            wscale: None,
        }
        .build_segment(SRC, DST, &[]);
        seg[12] = 0xf0; // data offset 60 > segment length
        assert!(TcpHeader::parse(&seg, SRC, DST).is_none());
    }
}
