//! # simbricks-proto
//!
//! Wire formats used by the simulated end hosts, NICs and networks: Ethernet
//! II framing, ARP, IPv4 (including the ECN code points used by DCTCP), TCP
//! and UDP, plus the Internet checksum.
//!
//! The SimBricks Ethernet interface (§5.1.2 of the paper) exchanges raw
//! Ethernet frames between NIC and network simulators, so every component
//! that looks inside a packet (switch MAC learning, ECN marking at a queue,
//! the host network stack, NIC checksum offload, the Tofino-style sequencer)
//! parses and builds frames with this crate.

pub mod addr;
pub mod arp;
pub mod checksum;
pub mod eth;
pub mod frame;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use addr::{Ipv4Addr, MacAddr};
pub use arp::{ArpOp, ArpPacket};
pub use eth::{frame_dst, frame_src, EthHeader, EtherType, ETH_HEADER_LEN};
pub use frame::{tcp_payload_range, FrameBuilder, ParsedFrame, ParsedL4};
pub use ipv4::{Ecn, IpProto, Ipv4Header, IPV4_HEADER_LEN};
pub use tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
pub use udp::{UdpHeader, UDP_HEADER_LEN};

#[cfg(test)]
mod properties {
    use super::*;
    use simbricks_base::impair::check_cases;
    use simbricks_base::Rng;

    const SEED: u64 = 0x9047;

    /// A port in `1..65535`.
    fn port(rng: &mut Rng) -> u16 {
        1 + rng.below(65534) as u16
    }

    /// Up to 1399 bytes of generator output.
    fn payload(rng: &mut Rng) -> Vec<u8> {
        (0..rng.below(1400)).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn tcp_frame_roundtrip() {
        check_cases("tcp_frame_roundtrip", SEED, 256, |rng| {
            let (sport, dport) = (port(rng), port(rng));
            let (seq, ack) = (rng.next_u64() as u32, rng.next_u64() as u32);
            let window = rng.next_u64() as u16;
            let payload = payload(rng);
            let src_mac = MacAddr::from_index(1);
            let dst_mac = MacAddr::from_index(2);
            let src_ip = Ipv4Addr::new(10, 0, 0, 1);
            let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
            let tcp = TcpHeader {
                src_port: sport,
                dst_port: dport,
                seq,
                ack,
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window,
                mss: None,
                wscale: None,
            };
            let frame =
                FrameBuilder::tcp(src_mac, dst_mac, src_ip, dst_ip, Ecn::Ect0, &tcp, &payload);
            let parsed = ParsedFrame::parse(&frame).unwrap();
            assert_eq!(parsed.eth.src, src_mac);
            assert_eq!(parsed.eth.dst, dst_mac);
            let ip = parsed.ipv4.unwrap();
            assert_eq!(ip.src, src_ip);
            assert_eq!(ip.dst, dst_ip);
            assert_eq!(ip.ecn, Ecn::Ect0);
            let ParsedL4::Tcp { header, payload: p } = parsed.l4 else {
                panic!("expected TCP");
            };
            assert_eq!(header.src_port, sport);
            assert_eq!(header.dst_port, dport);
            assert_eq!(header.seq, seq);
            assert_eq!(header.ack, ack);
            assert_eq!(header.window, window);
            assert_eq!(p, payload);
            assert!(parsed.checksums_ok);
        });
    }

    #[test]
    fn udp_frame_roundtrip() {
        check_cases("udp_frame_roundtrip", SEED, 256, |rng| {
            let (sport, dport) = (port(rng), port(rng));
            let payload = payload(rng);
            let frame = FrameBuilder::udp(
                MacAddr::from_index(3),
                MacAddr::from_index(4),
                Ipv4Addr::new(192, 168, 1, 1),
                Ipv4Addr::new(192, 168, 1, 2),
                Ecn::NotEct,
                sport,
                dport,
                &payload,
            );
            let parsed = ParsedFrame::parse(&frame).unwrap();
            let ParsedL4::Udp { header, payload: p } = parsed.l4 else {
                panic!("expected UDP");
            };
            assert_eq!(header.src_port, sport);
            assert_eq!(header.dst_port, dport);
            assert_eq!(p, payload);
        });
    }

    /// Flipping any byte that the IP or TCP checksum covers (not the
    /// Ethernet header, not the checksum fields themselves) leaves a frame
    /// that either fails to parse or fails its checksums.
    #[test]
    fn corrupting_a_byte_breaks_a_checksum() {
        let tcp = TcpHeader {
            src_port: 10,
            dst_port: 20,
            seq: 1,
            ack: 2,
            flags: TcpFlags::ACK,
            window: 1000,
            mss: None,
            wscale: None,
        };
        let frame = FrameBuilder::tcp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::NotEct,
            &tcp,
            b"hello checksum",
        );
        let ip_csum_range = ETH_HEADER_LEN + 10..ETH_HEADER_LEN + 12;
        let tcp_csum_range =
            ETH_HEADER_LEN + IPV4_HEADER_LEN + 16..ETH_HEADER_LEN + IPV4_HEADER_LEN + 18;
        check_cases("corrupting_a_byte_breaks_a_checksum", SEED, 256, |rng| {
            let idx = ETH_HEADER_LEN + rng.below((frame.len() - ETH_HEADER_LEN) as u64) as usize;
            if ip_csum_range.contains(&idx) || tcp_csum_range.contains(&idx) {
                return;
            }
            let mut frame = frame.clone();
            frame[idx] ^= 0xff;
            // Corrupting length/version fields may make the frame unparseable.
            if let Ok(parsed) = ParsedFrame::parse(&frame) {
                assert!(!parsed.checksums_ok, "flipped byte {idx} still checks");
            }
        });
    }
}
