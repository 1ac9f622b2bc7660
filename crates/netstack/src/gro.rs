//! Generic receive offload (GRO).
//!
//! Linux coalesces back-to-back TCP segments of the same flow into one large
//! segment inside the NAPI poll loop, before they enter the protocol stack.
//! This amortizes per-segment stack and socket costs over many wire packets
//! and is one of the two offloads (with TSO) that let a single core sustain
//! close to line rate — which is why the paper's gem5 host reaches ~9 Gbps
//! netperf throughput (Tab. 1/3). The simulated hosts run this coalescing
//! pass over each received batch; the host model charges per-wire-frame
//! driver costs but only per-coalesced-segment stack costs.

use simbricks_base::{BufPool, PktBuf};
use simbricks_proto::{
    tcp_payload_range, Ecn, EthHeader, FrameBuilder, Ipv4Header, ParsedFrame, ParsedL4, TcpFlags,
    TcpHeader,
};

/// Upper bound on the coalesced payload (same as Linux: 64 KiB minus room
/// for headers, and at most `MAX_SEGS` wire segments).
pub const GRO_MAX_PAYLOAD: usize = 64 * 1024 - 256;
/// Maximum number of wire segments merged into one super-segment.
pub const GRO_MAX_SEGS: usize = 44;

/// Result of a GRO pass.
#[derive(Clone, Debug, Default)]
pub struct GroResult {
    /// Frames to hand to the protocol stack (coalesced where possible, other
    /// traffic passed through unchanged, original relative order preserved).
    pub frames: Vec<PktBuf>,
    /// Number of wire frames that entered the pass.
    pub wire_frames: usize,
    /// Number of wire frames that were merged into a predecessor (i.e.
    /// `wire_frames - frames.len()` when nothing was dropped).
    pub merged: usize,
}

/// A batch being built: header state from the first segment plus a *chain*
/// of zero-copy payload views into the original wire buffers. Nothing is
/// copied while segments join the batch; the chain is flattened exactly once
/// (into one pooled frame) when the batch flushes.
struct Pending {
    /// The first wire frame, unmodified (flushed as-is for 1-segment
    /// batches: the overwhelmingly common case at low rate costs nothing).
    first: PktBuf,
    eth: EthHeader,
    ip: Ipv4Header,
    tcp: TcpHeader,
    /// Zero-copy payload views, in arrival order (refcount bumps on the
    /// received buffers, no byte copies).
    chain: Vec<PktBuf>,
    payload_len: usize,
    segs: usize,
}

impl Pending {
    fn new(
        raw: PktBuf,
        range: (usize, usize),
        eth: EthHeader,
        ip: Ipv4Header,
        tcp: TcpHeader,
    ) -> Pending {
        let view = raw.slice(range.0, range.1);
        Pending {
            eth,
            ip,
            tcp,
            payload_len: view.len(),
            chain: vec![view],
            first: raw,
            segs: 1,
        }
    }

    fn flush(self, pool: &BufPool, out: &mut Vec<PktBuf>) {
        if self.segs == 1 {
            // Nothing merged: pass the original wire buffer through (move,
            // zero copies, no rebuild).
            out.push(self.first);
            return;
        }
        let chunks: Vec<&[u8]> = self.chain.iter().map(|c| c.as_slice()).collect();
        out.push(FrameBuilder::tcp_chain_pooled(
            pool,
            self.eth.src,
            self.eth.dst,
            self.ip.src,
            self.ip.dst,
            self.ip.ecn,
            &self.tcp,
            &chunks,
        ));
    }
}

/// Whether a parsed TCP frame is eligible to start or join a GRO batch:
/// plain data segments only (no SYN/FIN/RST/URG), since control segments must
/// reach the stack unmodified.
fn mergeable(frame: &ParsedFrame) -> bool {
    match &frame.l4 {
        ParsedL4::Tcp { header, payload } => {
            !payload.is_empty()
                && !header.flags.contains(TcpFlags::SYN)
                && !header.flags.contains(TcpFlags::FIN)
                && !header.flags.contains(TcpFlags::RST)
                && frame.ipv4.is_some()
        }
        _ => false,
    }
}

/// Whether `new` equals `old` or is ahead of it in wrapping u32 ACK space.
fn ack_ge(new: u32, old: u32) -> bool {
    (new.wrapping_sub(old) as i32) >= 0
}

/// Whether `next` directly continues `held` (same flow, contiguous sequence
/// number, same ECN codepoint so DCTCP mark accounting is preserved exactly).
/// The ACK may stay put or advance — data trains whose segments each carry a
/// fresher cumulative ACK are the common case on a bidirectional flow, and
/// Linux GRO coalesces them — but an ACK that moves *backwards* breaks the
/// batch (stale information must not overwrite fresher state).
fn continues(held: &Pending, held_payload_len: usize, next: &ParsedFrame) -> bool {
    let (h_hdr, h_ip) = (&held.tcp, &held.ip);
    let (n_hdr, n_payload, n_ip) = match (&next.l4, &next.ipv4) {
        (ParsedL4::Tcp { header, payload }, Some(ip)) => (header, payload, ip),
        _ => return false,
    };
    h_ip.src == n_ip.src
        && h_ip.dst == n_ip.dst
        && h_hdr.src_port == n_hdr.src_port
        && h_hdr.dst_port == n_hdr.dst_port
        && h_ip.ecn == n_ip.ecn
        && n_hdr.seq == h_hdr.seq.wrapping_add(held_payload_len as u32)
        && ack_ge(n_hdr.ack, h_hdr.ack)
        && held_payload_len + n_payload.len() <= GRO_MAX_PAYLOAD
        && held.segs < GRO_MAX_SEGS
}

/// Run one GRO pass over a batch of received wire frames.
///
/// Consecutive in-order TCP data segments of the same flow with identical ECN
/// marking are merged into one frame — by *chaining* zero-copy payload views
/// and flattening once at flush (checksums are regenerated there); everything
/// else — ARP, UDP, out-of-order data, control segments, frames that fail to
/// parse — is passed through unmodified (and uncopied) in its original
/// position. Merged frames are built in `pool`.
pub fn coalesce(pool: &BufPool, wire: Vec<PktBuf>) -> GroResult {
    let mut result = GroResult {
        wire_frames: wire.len(),
        ..Default::default()
    };
    let mut held: Option<Pending> = None;

    for raw in wire {
        // A frame joins a batch only if it parses as a mergeable TCP data
        // segment AND its payload byte range can be located for zero-copy
        // slicing; anything else passes through unmodified (and uncopied).
        let (parsed, range) = match (ParsedFrame::parse(&raw), tcp_payload_range(&raw)) {
            (Ok(p), Some(r)) if mergeable(&p) => (p, r),
            _ => {
                if let Some(p) = held.take() {
                    p.flush(pool, &mut result.frames);
                }
                result.frames.push(raw);
                continue;
            }
        };
        match held.take() {
            Some(mut p) if continues(&p, p.payload_len, &parsed) => {
                let (start, end) = range;
                p.payload_len += end - start;
                p.chain.push(raw.slice(start, end));
                p.segs += 1;
                result.merged += 1;
                // The coalesced segment must carry the *latest* ACK / window /
                // PSH information, as Linux GRO does.
                if let ParsedL4::Tcp { header: n, .. } = &parsed.l4 {
                    p.tcp.ack = n.ack;
                    p.tcp.window = n.window;
                    p.tcp.flags = TcpFlags(p.tcp.flags.0 | n.flags.0);
                }
                held = Some(p);
            }
            prev => {
                if let Some(p) = prev {
                    p.flush(pool, &mut result.frames);
                }
                // `mergeable` guarantees an IPv4/TCP frame; a frame that
                // still fails to destructure passes through unmodified.
                match (&parsed.l4, parsed.ipv4) {
                    (ParsedL4::Tcp { header, .. }, Some(ip)) => {
                        held = Some(Pending::new(raw, range, parsed.eth, ip, *header));
                    }
                    _ => result.frames.push(raw),
                }
            }
        }
    }
    if let Some(p) = held.take() {
        p.flush(pool, &mut result.frames);
    }
    result
}

/// ECN codepoint of a raw frame (used by tests and by switch models that need
/// to check marking without a full parse).
pub fn frame_ecn(raw: &[u8]) -> Option<Ecn> {
    ParsedFrame::parse(raw).ok()?.ipv4.map(|ip| ip.ecn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::impair::check_cases;

    /// Test helper: run a pass over plain byte-vector frames.
    fn coalesce_vecs(frames: Vec<Vec<u8>>) -> GroResult {
        let pool = BufPool::new();
        coalesce(&pool, frames.into_iter().map(PktBuf::from_vec).collect())
    }
    use simbricks_proto::{Ipv4Addr, MacAddr, TcpHeader};

    fn data_frame(seq: u32, payload: &[u8], ecn: Ecn, flags: TcpFlags) -> Vec<u8> {
        let hdr = TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq,
            ack: 777,
            flags,
            window: 1000,
            mss: None,
            wscale: None,
        };
        FrameBuilder::tcp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            ecn,
            &hdr,
            payload,
        )
    }

    fn payload_of(frame: &[u8]) -> Vec<u8> {
        match ParsedFrame::parse(frame).unwrap().l4 {
            ParsedL4::Tcp { payload, .. } => payload,
            _ => panic!("not tcp"),
        }
    }

    #[test]
    fn contiguous_segments_merge_into_one() {
        let frames = vec![
            data_frame(100, &[1u8; 500], Ecn::Ect0, TcpFlags::ACK),
            data_frame(600, &[2u8; 500], Ecn::Ect0, TcpFlags::ACK),
            data_frame(1100, &[3u8; 500], Ecn::Ect0, TcpFlags::ACK | TcpFlags::PSH),
        ];
        let r = coalesce_vecs(frames);
        assert_eq!(r.wire_frames, 3);
        assert_eq!(r.merged, 2);
        assert_eq!(r.frames.len(), 1);
        let p = payload_of(&r.frames[0]);
        assert_eq!(p.len(), 1500);
        assert_eq!(&p[..500], &[1u8; 500]);
        assert_eq!(&p[1000..], &[3u8; 500]);
        // PSH from the last segment is preserved; checksums verify.
        let parsed = ParsedFrame::parse(&r.frames[0]).unwrap();
        assert!(parsed.checksums_ok);
        match parsed.l4 {
            ParsedL4::Tcp { header, .. } => assert!(header.flags.contains(TcpFlags::PSH)),
            _ => panic!(),
        }
    }

    fn data_frame_ack(seq: u32, ack: u32, payload: &[u8]) -> Vec<u8> {
        let hdr = TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq,
            ack,
            flags: TcpFlags::ACK,
            window: 1000,
            mss: None,
            wscale: None,
        };
        FrameBuilder::tcp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::Ect0,
            &hdr,
            payload,
        )
    }

    /// Regression test: a data train whose segments each carry a fresher
    /// cumulative ACK (the normal shape of bidirectional traffic) must still
    /// coalesce, and the merged header must carry the *latest* ACK — as the
    /// comment in `coalesce` always claimed but the code did not do.
    #[test]
    fn advancing_acks_merge_and_carry_the_latest_ack() {
        let frames = vec![
            data_frame_ack(100, 7000, &[1u8; 500]),
            data_frame_ack(600, 8000, &[2u8; 500]),
            data_frame_ack(1100, 9000, &[3u8; 500]),
        ];
        let r = coalesce_vecs(frames);
        assert_eq!(r.wire_frames, 3);
        assert_eq!(r.merged, 2, "ACK-advancing train coalesces");
        assert_eq!(r.frames.len(), 1);
        let parsed = ParsedFrame::parse(&r.frames[0]).unwrap();
        assert!(parsed.checksums_ok, "regenerated checksums verify");
        match parsed.l4 {
            ParsedL4::Tcp { header, payload } => {
                assert_eq!(header.ack, 9000, "merged segment carries the latest ACK");
                assert_eq!(payload.len(), 1500);
            }
            _ => panic!("not tcp"),
        }

        // An ACK moving backwards (stale duplicate) must break the batch.
        let frames = vec![
            data_frame_ack(100, 7000, &[1u8; 500]),
            data_frame_ack(600, 6999, &[2u8; 500]),
        ];
        let r = coalesce_vecs(frames);
        assert_eq!(r.merged, 0, "regressing ACK never merges");
        assert_eq!(r.frames.len(), 2);

        // ACK advance across the u32 wrap still counts as advancing.
        let frames = vec![
            data_frame_ack(100, u32::MAX - 10, &[1u8; 100]),
            data_frame_ack(200, 5, &[2u8; 100]),
        ];
        let r = coalesce_vecs(frames);
        assert_eq!(r.merged, 1, "wrapping ACK advance merges");
        match ParsedFrame::parse(&r.frames[0]).unwrap().l4 {
            ParsedL4::Tcp { header, .. } => assert_eq!(header.ack, 5),
            _ => panic!("not tcp"),
        }
    }

    #[test]
    fn gap_in_sequence_space_breaks_the_batch() {
        let frames = vec![
            data_frame(100, &[1u8; 500], Ecn::Ect0, TcpFlags::ACK),
            data_frame(1100, &[2u8; 500], Ecn::Ect0, TcpFlags::ACK), // hole at 600
        ];
        let r = coalesce_vecs(frames);
        assert_eq!(r.frames.len(), 2);
        assert_eq!(r.merged, 0);
    }

    #[test]
    fn differing_ecn_marks_are_never_merged() {
        // A CE-marked segment between unmarked ones must remain distinct, or
        // DCTCP's marked-byte accounting would be distorted.
        let frames = vec![
            data_frame(100, &[1u8; 500], Ecn::Ect0, TcpFlags::ACK),
            data_frame(600, &[2u8; 500], Ecn::Ce, TcpFlags::ACK),
            data_frame(1100, &[3u8; 500], Ecn::Ce, TcpFlags::ACK),
        ];
        let r = coalesce_vecs(frames);
        assert_eq!(r.frames.len(), 2, "unmarked | marked+marked");
        assert_eq!(r.merged, 1);
        assert_eq!(frame_ecn(&r.frames[0]), Some(Ecn::Ect0));
        assert_eq!(frame_ecn(&r.frames[1]), Some(Ecn::Ce));
        assert_eq!(payload_of(&r.frames[1]).len(), 1000);
    }

    #[test]
    fn control_segments_and_other_traffic_pass_through() {
        let syn = data_frame(50, &[9u8; 10], Ecn::NotEct, TcpFlags::SYN | TcpFlags::ACK);
        let pure_ack = data_frame(100, &[], Ecn::NotEct, TcpFlags::ACK);
        let fin = data_frame(100, &[4u8; 20], Ecn::NotEct, TcpFlags::FIN | TcpFlags::ACK);
        let junk = vec![0u8; 30];
        let frames = vec![syn.clone(), pure_ack.clone(), fin.clone(), junk.clone()];
        let r = coalesce_vecs(frames);
        assert_eq!(r.frames, vec![syn, pure_ack, fin, junk]);
        assert_eq!(r.merged, 0);
    }

    #[test]
    fn interleaved_flows_do_not_merge_across_each_other() {
        let a1 = data_frame(100, &[1u8; 100], Ecn::NotEct, TcpFlags::ACK);
        // Different destination port => different flow.
        let mut other_hdr = TcpHeader {
            src_port: 4000,
            dst_port: 81,
            seq: 200,
            ack: 1,
            flags: TcpFlags::ACK,
            window: 500,
            mss: None,
            wscale: None,
        };
        other_hdr.flags = TcpFlags::ACK;
        let b1 = FrameBuilder::tcp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ecn::NotEct,
            &other_hdr,
            &[2u8; 100],
        );
        let a2 = data_frame(200, &[3u8; 100], Ecn::NotEct, TcpFlags::ACK);
        let r = coalesce_vecs(vec![a1, b1, a2]);
        // The interleaving flushes flow A, so nothing merges.
        assert_eq!(r.frames.len(), 3);
        assert_eq!(r.merged, 0);
    }

    #[test]
    fn merge_respects_segment_count_cap() {
        let mut frames = Vec::new();
        for i in 0..(GRO_MAX_SEGS + 5) as u32 {
            frames.push(data_frame(
                100 + i * 100,
                &[i as u8; 100],
                Ecn::Ect0,
                TcpFlags::ACK,
            ));
        }
        let r = coalesce_vecs(frames);
        assert_eq!(r.wire_frames, GRO_MAX_SEGS + 5);
        assert_eq!(r.frames.len(), 2, "one full batch plus the remainder");
        assert_eq!(payload_of(&r.frames[0]).len(), GRO_MAX_SEGS * 100);
        assert_eq!(payload_of(&r.frames[1]).len(), 5 * 100);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let r = coalesce_vecs(Vec::new());
        assert!(r.frames.is_empty());
        assert_eq!(r.wire_frames, 0);
        assert_eq!(r.merged, 0);
    }

    fn stream_payload(frame: &[u8]) -> Option<(Ecn, Vec<u8>)> {
        let p = ParsedFrame::parse(frame).ok()?;
        let ecn = p.ipv4?.ecn;
        match p.l4 {
            ParsedL4::Tcp { payload, .. } => Some((ecn, payload)),
            _ => None,
        }
    }

    /// GRO never loses, duplicates, or reorders stream bytes, never mixes
    /// ECN codepoints within one coalesced segment, and never produces more
    /// frames than it consumed.
    #[test]
    fn coalescing_preserves_the_byte_stream() {
        check_cases("coalescing_preserves_the_byte_stream", 0x960, 256, |rng| {
            // 1 to 39 chunks of 1 to 1399 bytes, each CE-marked or not.
            let chunks: Vec<(usize, bool)> = (0..1 + rng.below(39))
                .map(|_| (1 + rng.below(1399) as usize, rng.below(2) == 1))
                .collect();
            // Build one contiguous TCP stream: chunk i carries `len` bytes
            // of a recognisable pattern and is CE-marked when the bool is
            // set (as a congested switch would).
            let mut seq = 5000u32;
            let mut wire = Vec::new();
            let mut expected: Vec<u8> = Vec::new();
            for (i, (len, marked)) in chunks.iter().enumerate() {
                let payload: Vec<u8> = (0..*len).map(|b| ((b + i * 31) % 251) as u8).collect();
                expected.extend_from_slice(&payload);
                let ecn = if *marked { Ecn::Ce } else { Ecn::Ect0 };
                wire.push(data_frame(seq, &payload, ecn, TcpFlags::ACK));
                seq = seq.wrapping_add(*len as u32);
            }
            let marked_bytes: usize = chunks.iter().filter(|(_, m)| *m).map(|(l, _)| *l).sum();

            let r = coalesce_vecs(wire);
            assert_eq!(r.wire_frames, chunks.len());
            assert!(r.frames.len() <= chunks.len());
            assert_eq!(r.merged, chunks.len() - r.frames.len());

            let mut reassembled = Vec::new();
            let mut marked_out = 0usize;
            for f in &r.frames {
                let (ecn, payload) = stream_payload(f).expect("coalesced frames stay valid TCP");
                if ecn == Ecn::Ce {
                    marked_out += payload.len();
                }
                assert!(payload.len() <= GRO_MAX_PAYLOAD);
                reassembled.extend_from_slice(&payload);
                // Checksums of rebuilt frames must verify.
                assert!(ParsedFrame::parse(f).unwrap().checksums_ok);
            }
            assert_eq!(reassembled, expected);
            assert_eq!(
                marked_out, marked_bytes,
                "CE-marked bytes are never transferred to unmarked segments"
            );
        });
    }
}
