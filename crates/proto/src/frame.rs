//! Whole-frame convenience builders and parsers.
//!
//! These combine the Ethernet, IPv4, TCP/UDP and ARP modules so component
//! simulators can construct and inspect complete frames with one call.

use simbricks_base::{BufPool, PktBuf};

use crate::addr::{Ipv4Addr, MacAddr};
use crate::arp::ArpPacket;
use crate::checksum::Checksum;
use crate::eth::{EthHeader, EtherType, ETH_HEADER_LEN};
use crate::ipv4::{Ecn, IpProto, Ipv4Header, IPV4_HEADER_LEN};
use crate::tcp::TcpHeader;
use crate::udp::{UdpHeader, UDP_HEADER_LEN};

/// Minimum Ethernet payload (frames are padded up to this, as a real NIC
/// MAC would, so byte counts in the simulation match physical behaviour).
pub const MIN_ETH_PAYLOAD: usize = 46;

/// Headroom reserved in pooled frames (room for re-framing/encapsulation).
const FRAME_HEADROOM: usize = 64;

/// Builders for complete Ethernet frames.
pub struct FrameBuilder;

impl FrameBuilder {
    /// Build an Ethernet+IPv4+TCP frame.
    pub fn tcp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        ecn: Ecn,
        tcp: &TcpHeader,
        payload: &[u8],
    ) -> Vec<u8> {
        let l4 = tcp.build_segment(src_ip, dst_ip, payload);
        Self::ipv4(src_mac, dst_mac, src_ip, dst_ip, IpProto::Tcp, ecn, &l4)
    }

    /// Build an Ethernet+IPv4+UDP frame.
    #[allow(clippy::too_many_arguments)]
    pub fn udp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        ecn: Ecn,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        let l4 = UdpHeader::new(src_port, dst_port, payload.len())
            .build_datagram(src_ip, dst_ip, payload);
        Self::ipv4(src_mac, dst_mac, src_ip, dst_ip, IpProto::Udp, ecn, &l4)
    }

    /// Build an Ethernet+IPv4 frame around an already-serialized L4 payload.
    pub fn ipv4(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        proto: IpProto,
        ecn: Ecn,
        l4: &[u8],
    ) -> Vec<u8> {
        let ip = Ipv4Header::new(src_ip, dst_ip, proto, ecn, l4.len());
        let mut frame = Vec::with_capacity(ETH_HEADER_LEN + IPV4_HEADER_LEN + l4.len());
        EthHeader::new(dst_mac, src_mac, EtherType::Ipv4).write(&mut frame);
        ip.write(&mut frame);
        frame.extend_from_slice(l4);
        Self::pad(&mut frame);
        frame
    }

    /// Build an Ethernet+ARP frame (broadcast for requests).
    pub fn arp(src_mac: MacAddr, dst_mac: MacAddr, arp: &ArpPacket) -> Vec<u8> {
        let mut frame = Vec::with_capacity(ETH_HEADER_LEN + 28);
        EthHeader::new(dst_mac, src_mac, EtherType::Arp).write(&mut frame);
        frame.extend_from_slice(&arp.to_bytes());
        Self::pad(&mut frame);
        frame
    }

    fn pad(frame: &mut Vec<u8>) {
        let min = ETH_HEADER_LEN + MIN_ETH_PAYLOAD;
        if frame.len() < min {
            frame.resize(min, 0);
        }
    }

    // ------------------------------------------------------------------
    // In-place pooled builders: construct the frame directly inside a
    // pooled [`PktBuf`] segment (one write pass, no intermediate L4
    // vector, no heap allocation on a warm pool).
    // ------------------------------------------------------------------

    /// Build an Ethernet+IPv4+TCP frame into a pooled buffer. Byte-identical
    /// to [`FrameBuilder::tcp`].
    #[allow(clippy::too_many_arguments)]
    pub fn tcp_pooled(
        pool: &BufPool,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        ecn: Ecn,
        tcp: &TcpHeader,
        payload: &[u8],
    ) -> PktBuf {
        Self::tcp_chain_pooled(pool, src_mac, dst_mac, src_ip, dst_ip, ecn, tcp, &[payload])
    }

    /// Build an Ethernet+IPv4+TCP frame whose payload is scattered over
    /// `chunks` (e.g. a GRO chain of zero-copy segment views), flattening it
    /// exactly once into the pooled output frame. Byte-identical to
    /// [`FrameBuilder::tcp`] over the concatenated chunks.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp_chain_pooled(
        pool: &BufPool,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        ecn: Ecn,
        tcp: &TcpHeader,
        chunks: &[&[u8]],
    ) -> PktBuf {
        let payload_len: usize = chunks.iter().map(|c| c.len()).sum();
        let mut tcp_hdr = [0u8; TcpHeader::MAX_HEADER_LEN];
        let tcp_hlen = tcp.write_header(&mut tcp_hdr);
        let l4_len = tcp_hlen + payload_len;
        let total =
            (ETH_HEADER_LEN + IPV4_HEADER_LEN + l4_len).max(ETH_HEADER_LEN + MIN_ETH_PAYLOAD);
        let mut buf = pool.alloc_capacity(total, FRAME_HEADROOM);
        let eth = EthHeader::new(dst_mac, src_mac, EtherType::Ipv4);
        buf.extend_from_slice(&eth.to_array());
        let ip = Ipv4Header::new(src_ip, dst_ip, IpProto::Tcp, ecn, l4_len);
        buf.extend_from_slice(&ip.to_array());
        buf.extend_from_slice(&tcp_hdr[..tcp_hlen]);
        for c in chunks {
            buf.extend_from_slice(c);
        }
        // TCP checksum over pseudo header + the contiguous L4 region.
        let l4_off = ETH_HEADER_LEN + IPV4_HEADER_LEN;
        let mut c = Checksum::new();
        c.add_pseudo_header(src_ip, dst_ip, 6, l4_len as u16);
        c.add_bytes(&buf[l4_off..l4_off + l4_len]);
        let csum = c.finish();
        {
            let bytes = buf.make_mut();
            bytes[l4_off + 16] = (csum >> 8) as u8;
            bytes[l4_off + 17] = csum as u8;
        }
        Self::pad_pooled(&mut buf);
        buf
    }

    /// Build an Ethernet+IPv4+UDP frame into a pooled buffer. Byte-identical
    /// to [`FrameBuilder::udp`].
    #[allow(clippy::too_many_arguments)]
    pub fn udp_pooled(
        pool: &BufPool,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        ecn: Ecn,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> PktBuf {
        let udp = UdpHeader::new(src_port, dst_port, payload.len());
        let l4_len = UDP_HEADER_LEN + payload.len();
        let total =
            (ETH_HEADER_LEN + IPV4_HEADER_LEN + l4_len).max(ETH_HEADER_LEN + MIN_ETH_PAYLOAD);
        let mut buf = pool.alloc_capacity(total, FRAME_HEADROOM);
        let eth = EthHeader::new(dst_mac, src_mac, EtherType::Ipv4);
        buf.extend_from_slice(&eth.to_array());
        let ip = Ipv4Header::new(src_ip, dst_ip, IpProto::Udp, ecn, l4_len);
        buf.extend_from_slice(&ip.to_array());
        buf.extend_from_slice(&udp.src_port.to_be_bytes());
        buf.extend_from_slice(&udp.dst_port.to_be_bytes());
        buf.extend_from_slice(&udp.length.to_be_bytes());
        buf.extend_from_slice(&[0, 0]); // checksum placeholder
        buf.extend_from_slice(payload);
        let l4_off = ETH_HEADER_LEN + IPV4_HEADER_LEN;
        let mut c = Checksum::new();
        c.add_pseudo_header(src_ip, dst_ip, 17, udp.length);
        c.add_bytes(&buf[l4_off..l4_off + l4_len]);
        let mut csum = c.finish();
        if csum == 0 {
            csum = 0xffff; // RFC 768: zero means "no checksum"
        }
        {
            let bytes = buf.make_mut();
            bytes[l4_off + 6] = (csum >> 8) as u8;
            bytes[l4_off + 7] = csum as u8;
        }
        Self::pad_pooled(&mut buf);
        buf
    }

    /// Build an Ethernet+IPv4 frame around an already-serialized L4 payload,
    /// into a pooled buffer. Byte-identical to [`FrameBuilder::ipv4`].
    #[allow(clippy::too_many_arguments)]
    pub fn ipv4_pooled(
        pool: &BufPool,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        proto: IpProto,
        ecn: Ecn,
        l4: &[u8],
    ) -> PktBuf {
        let total =
            (ETH_HEADER_LEN + IPV4_HEADER_LEN + l4.len()).max(ETH_HEADER_LEN + MIN_ETH_PAYLOAD);
        let mut buf = pool.alloc_capacity(total, FRAME_HEADROOM);
        let eth = EthHeader::new(dst_mac, src_mac, EtherType::Ipv4);
        buf.extend_from_slice(&eth.to_array());
        let ip = Ipv4Header::new(src_ip, dst_ip, proto, ecn, l4.len());
        buf.extend_from_slice(&ip.to_array());
        buf.extend_from_slice(l4);
        Self::pad_pooled(&mut buf);
        buf
    }

    /// Build an Ethernet+ARP frame into a pooled buffer. Byte-identical to
    /// [`FrameBuilder::arp`].
    pub fn arp_pooled(
        pool: &BufPool,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        arp: &ArpPacket,
    ) -> PktBuf {
        let mut buf = pool.alloc_capacity(ETH_HEADER_LEN + MIN_ETH_PAYLOAD, FRAME_HEADROOM);
        let eth = EthHeader::new(dst_mac, src_mac, EtherType::Arp);
        buf.extend_from_slice(&eth.to_array());
        buf.extend_from_slice(&arp.to_bytes());
        Self::pad_pooled(&mut buf);
        buf
    }

    fn pad_pooled(frame: &mut PktBuf) {
        const ZEROS: [u8; ETH_HEADER_LEN + MIN_ETH_PAYLOAD] = [0; ETH_HEADER_LEN + MIN_ETH_PAYLOAD];
        let min = ETH_HEADER_LEN + MIN_ETH_PAYLOAD;
        if frame.len() < min {
            let missing = min - frame.len();
            frame.extend_from_slice(&ZEROS[..missing]);
        }
    }
}

/// Byte range of the TCP payload within a raw IPv4/TCP Ethernet frame,
/// bounded by the IP total length (excludes Ethernet padding). Used for
/// zero-copy payload slicing (GRO segment chaining, TSO cutting); `None`
/// when the frame is not a well-formed IPv4/TCP frame.
pub fn tcp_payload_range(frame: &[u8]) -> Option<(usize, usize)> {
    if frame.len() < ETH_HEADER_LEN + IPV4_HEADER_LEN {
        return None;
    }
    if u16::from_be_bytes([frame[12], frame[13]]) != 0x0800 {
        return None;
    }
    let ip = &frame[ETH_HEADER_LEN..];
    if ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = (ip[0] & 0x0f) as usize * 4;
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    if ihl < IPV4_HEADER_LEN || total_len < ihl || ip.len() < total_len || ip[9] != 6 {
        return None;
    }
    let l4 = &ip[ihl..total_len];
    if l4.len() < 20 {
        return None;
    }
    let data_off = ((l4[12] >> 4) as usize) * 4;
    if data_off < 20 || l4.len() < data_off {
        return None;
    }
    let start = ETH_HEADER_LEN + ihl + data_off;
    let end = ETH_HEADER_LEN + total_len;
    Some((start, end))
}

/// Parsed layer-4 content of a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParsedL4 {
    Tcp { header: TcpHeader, payload: Vec<u8> },
    Udp { header: UdpHeader, payload: Vec<u8> },
    Arp(ArpPacket),
    Other(Vec<u8>),
}

/// A fully parsed Ethernet frame.
#[derive(Clone, Debug)]
pub struct ParsedFrame {
    pub eth: EthHeader,
    pub ipv4: Option<Ipv4Header>,
    pub l4: ParsedL4,
    /// Whether every checksum present (IPv4 header, TCP/UDP) verified.
    pub checksums_ok: bool,
}

/// Errors produced when a frame cannot be parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseError {
    TooShort,
    BadIpv4,
    BadL4,
    BadArp,
}

impl ParsedFrame {
    /// Parse an Ethernet frame. IPv4/TCP/UDP/ARP are decoded; everything else
    /// is returned raw in [`ParsedL4::Other`].
    pub fn parse(frame: &[u8]) -> Result<ParsedFrame, ParseError> {
        let (eth, rest) = EthHeader::parse(frame).ok_or(ParseError::TooShort)?;
        match eth.ethertype {
            EtherType::Ipv4 => {
                let (ip, ip_ok, l4) = Ipv4Header::parse(rest).ok_or(ParseError::BadIpv4)?;
                match ip.proto {
                    IpProto::Tcp => {
                        let (tcp, payload, tcp_ok) =
                            TcpHeader::parse(l4, ip.src, ip.dst).ok_or(ParseError::BadL4)?;
                        Ok(ParsedFrame {
                            eth,
                            ipv4: Some(ip),
                            l4: ParsedL4::Tcp {
                                header: tcp,
                                payload: payload.to_vec(),
                            },
                            checksums_ok: ip_ok && tcp_ok,
                        })
                    }
                    IpProto::Udp => {
                        let (udp, payload, udp_ok) =
                            UdpHeader::parse(l4, ip.src, ip.dst).ok_or(ParseError::BadL4)?;
                        Ok(ParsedFrame {
                            eth,
                            ipv4: Some(ip),
                            l4: ParsedL4::Udp {
                                header: udp,
                                payload: payload.to_vec(),
                            },
                            checksums_ok: ip_ok && udp_ok,
                        })
                    }
                    IpProto::Other(_) => Ok(ParsedFrame {
                        eth,
                        ipv4: Some(ip),
                        l4: ParsedL4::Other(l4.to_vec()),
                        checksums_ok: ip_ok,
                    }),
                }
            }
            EtherType::Arp => {
                let arp = ArpPacket::parse(rest).ok_or(ParseError::BadArp)?;
                Ok(ParsedFrame {
                    eth,
                    ipv4: None,
                    l4: ParsedL4::Arp(arp),
                    checksums_ok: true,
                })
            }
            EtherType::Other(_) => Ok(ParsedFrame {
                eth,
                ipv4: None,
                l4: ParsedL4::Other(rest.to_vec()),
                checksums_ok: true,
            }),
        }
    }

    /// Convenience accessor for the IPv4 destination, if present.
    pub fn dst_ip(&self) -> Option<Ipv4Addr> {
        self.ipv4.map(|h| h.dst)
    }

    /// Convenience accessor for the IPv4 source, if present.
    pub fn src_ip(&self) -> Option<Ipv4Addr> {
        self.ipv4.map(|h| h.src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    #[test]
    fn arp_frame_roundtrip() {
        let arp = ArpPacket::request(
            MacAddr::from_index(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let frame = FrameBuilder::arp(MacAddr::from_index(1), MacAddr::BROADCAST, &arp);
        assert!(frame.len() >= ETH_HEADER_LEN + MIN_ETH_PAYLOAD);
        let parsed = ParsedFrame::parse(&frame).unwrap();
        assert_eq!(parsed.eth.ethertype, EtherType::Arp);
        assert_eq!(parsed.l4, ParsedL4::Arp(arp));
    }

    #[test]
    fn small_frames_are_padded_to_minimum() {
        let frame = FrameBuilder::udp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::NotEct,
            1,
            2,
            b"x",
        );
        assert_eq!(frame.len(), ETH_HEADER_LEN + MIN_ETH_PAYLOAD);
        // Padding does not confuse parsing.
        match ParsedFrame::parse(&frame).unwrap().l4 {
            ParsedL4::Udp { payload, .. } => assert_eq!(payload, b"x"),
            _ => panic!("expected UDP"),
        }
    }

    #[test]
    fn large_tcp_frame_not_padded() {
        let tcp = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 100,
            mss: None,
            wscale: None,
        };
        let payload = vec![7u8; 1400];
        let frame = FrameBuilder::tcp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::Ect0,
            &tcp,
            &payload,
        );
        assert_eq!(
            frame.len(),
            ETH_HEADER_LEN + IPV4_HEADER_LEN + 20 + payload.len()
        );
        let parsed = ParsedFrame::parse(&frame).unwrap();
        assert!(parsed.checksums_ok);
        assert_eq!(parsed.ipv4.unwrap().ecn, Ecn::Ect0);
    }

    #[test]
    fn unknown_ethertype_passes_through() {
        let eth = EthHeader::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::Other(0x88cc),
        );
        let frame = eth.build_frame(b"lldp-ish");
        let parsed = ParsedFrame::parse(&frame).unwrap();
        assert_eq!(parsed.l4, ParsedL4::Other(b"lldp-ish".to_vec()));
        assert!(parsed.ipv4.is_none());
    }

    #[test]
    fn truncated_ip_rejected() {
        let eth = EthHeader::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::Ipv4,
        );
        let frame = eth.build_frame(&[0x45, 0x00, 0x00]);
        assert_eq!(ParsedFrame::parse(&frame), Err(ParseError::BadIpv4));
    }

    impl PartialEq for ParsedFrame {
        fn eq(&self, other: &Self) -> bool {
            self.eth == other.eth && self.ipv4 == other.ipv4 && self.l4 == other.l4
        }
    }

    /// The pooled in-place builders must produce byte-identical frames to
    /// the `Vec`-based builders — pooling is an allocator change, never a
    /// wire-format change.
    #[test]
    fn pooled_builders_match_vec_builders_bit_for_bit() {
        let pool = simbricks_base::BufPool::new();
        let (sm, dm) = (MacAddr::from_index(1), MacAddr::from_index(2));
        let (si, di) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        for payload_len in [0usize, 1, 45, 46, 100, 1400] {
            let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
            let tcp = TcpHeader {
                src_port: 40000,
                dst_port: 5201,
                seq: 0xdead_beef,
                ack: 0x1234_5678,
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: 8192,
                mss: Some(1460),
                wscale: Some(7),
            };
            let v = FrameBuilder::tcp(sm, dm, si, di, Ecn::Ect0, &tcp, &payload);
            let p = FrameBuilder::tcp_pooled(&pool, sm, dm, si, di, Ecn::Ect0, &tcp, &payload);
            assert_eq!(p.as_slice(), v.as_slice(), "tcp len {payload_len}");
            // Chained payload (split at an odd boundary) flattens identically.
            let cut = payload_len / 3;
            let pc = FrameBuilder::tcp_chain_pooled(
                &pool,
                sm,
                dm,
                si,
                di,
                Ecn::Ect0,
                &tcp,
                &[&payload[..cut], &payload[cut..]],
            );
            assert_eq!(pc.as_slice(), v.as_slice(), "tcp chain len {payload_len}");

            let v = FrameBuilder::udp(sm, dm, si, di, Ecn::Ce, 7, 9, &payload);
            let p = FrameBuilder::udp_pooled(&pool, sm, dm, si, di, Ecn::Ce, 7, 9, &payload);
            assert_eq!(p.as_slice(), v.as_slice(), "udp len {payload_len}");

            let v = FrameBuilder::ipv4(sm, dm, si, di, IpProto::Other(89), Ecn::NotEct, &payload);
            let p = FrameBuilder::ipv4_pooled(
                &pool,
                sm,
                dm,
                si,
                di,
                IpProto::Other(89),
                Ecn::NotEct,
                &payload,
            );
            assert_eq!(p.as_slice(), v.as_slice(), "ipv4 len {payload_len}");
        }
        let arp = ArpPacket::request(sm, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let v = FrameBuilder::arp(sm, MacAddr::BROADCAST, &arp);
        let p = FrameBuilder::arp_pooled(&pool, sm, MacAddr::BROADCAST, &arp);
        assert_eq!(p.as_slice(), v.as_slice(), "arp");
        assert!(
            pool.stats().hits + pool.stats().misses > 0,
            "builders used the pool"
        );
    }

    #[test]
    fn tcp_payload_range_matches_parser() {
        let tcp = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 500,
            ack: 7,
            flags: TcpFlags::ACK,
            window: 100,
            mss: None,
            wscale: None,
        };
        let payload: Vec<u8> = (0..333).map(|i| (i % 101) as u8).collect();
        let frame = FrameBuilder::tcp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::Ect0,
            &tcp,
            &payload,
        );
        let (start, end) = tcp_payload_range(&frame).unwrap();
        assert_eq!(&frame[start..end], payload.as_slice());
        // Padded short frames: the range excludes the Ethernet padding.
        let short = FrameBuilder::tcp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::Ect0,
            &tcp,
            b"xy",
        );
        let (s, e) = tcp_payload_range(&short).unwrap();
        assert_eq!(&short[s..e], b"xy");
        // Non-TCP traffic yields None.
        let udp = FrameBuilder::udp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::NotEct,
            1,
            2,
            b"p",
        );
        assert!(tcp_payload_range(&udp).is_none());
        assert!(tcp_payload_range(&[0u8; 10]).is_none());
    }
}
