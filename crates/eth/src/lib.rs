//! # simbricks-eth
//!
//! The SimBricks network component interface (Fig. 4, bottom table): NIC ↔
//! network and network ↔ network components exchange `PACKET` messages that
//! carry a raw Ethernet frame (without CRC — §5.1.2 of the paper). The link
//! bandwidth and propagation latency are channel parameters; serialization
//! delay is modelled by the sending component.

use simbricks_base::{Kernel, MsgType, OwnedMsg, PktBuf, PortId, SimTime};

/// Message type for Ethernet packets.
pub const MSG_ETH_PACKET: MsgType = 0x40;

/// An Ethernet frame crossing a SimBricks channel.
///
/// The frame bytes live in a pooled [`PktBuf`]: cloning the packet (e.g. a
/// switch flooding it out of several ports) is a reference-count bump, not a
/// copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EthPacket {
    pub frame: PktBuf,
}

impl EthPacket {
    pub fn new(frame: impl Into<PktBuf>) -> Self {
        EthPacket {
            frame: frame.into(),
        }
    }

    pub fn len(&self) -> usize {
        self.frame.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }

    /// Encode into a (message type, payload) pair. The frame is carried
    /// verbatim; the length field of the interface definition is implicit in
    /// the slot's payload length.
    pub fn encode(&self) -> (MsgType, &[u8]) {
        (MSG_ETH_PACKET, &self.frame)
    }

    /// Decode a received SimBricks message into an Ethernet packet (refcount
    /// bump on the shared buffer, no byte copy).
    pub fn decode(msg: &OwnedMsg) -> Option<EthPacket> {
        if msg.ty == MSG_ETH_PACKET {
            Some(EthPacket {
                frame: msg.data.clone(),
            })
        } else {
            None
        }
    }

    /// Decode, taking ownership of the message buffer (no copy).
    pub fn decode_owned(msg: OwnedMsg) -> Option<EthPacket> {
        if msg.ty == MSG_ETH_PACKET {
            Some(EthPacket { frame: msg.data })
        } else {
            None
        }
    }
}

/// Send an Ethernet frame on `port` of `kernel` at the current virtual time.
pub fn send_packet(kernel: &mut Kernel, port: PortId, frame: &[u8]) {
    kernel.send(port, MSG_ETH_PACKET, frame);
}

/// Send an Ethernet frame the caller already owns as a [`PktBuf`]; on queue
/// backpressure the buffer moves into the port's outbox without a copy.
pub fn send_packet_buf(kernel: &mut Kernel, port: PortId, frame: PktBuf) {
    kernel.send_buf(port, MSG_ETH_PACKET, frame);
}

/// Compute the serialization (transmission) delay of a frame at `bits_per_sec`,
/// which link models add on top of the channel's propagation latency.
pub fn serialization_delay(frame_len: usize, bits_per_sec: u64) -> SimTime {
    simbricks_base::transmission_time(frame_len, bits_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{bw, OwnedMsg, SimTime};

    #[test]
    fn encode_decode_roundtrip() {
        let p = EthPacket::new(vec![1, 2, 3, 4, 5]);
        let (ty, payload) = p.encode();
        assert_eq!(ty, MSG_ETH_PACKET);
        let msg = OwnedMsg::new(SimTime::from_ns(5), ty, payload.to_vec());
        assert_eq!(EthPacket::decode(&msg), Some(p.clone()));
        assert_eq!(EthPacket::decode_owned(msg), Some(p));
    }

    #[test]
    fn foreign_message_types_rejected() {
        let msg = OwnedMsg::new(SimTime::ZERO, 0x10, vec![1, 2, 3]);
        assert!(EthPacket::decode(&msg).is_none());
        assert!(EthPacket::decode_owned(msg).is_none());
    }

    #[test]
    fn serialization_delay_matches_line_rate() {
        // 1500 B at 10 Gbps = 1.2 us
        assert_eq!(serialization_delay(1500, bw::B10G), SimTime::from_ns(1200));
        // 64 B at 100 Gbps = 5.12 ns
        assert_eq!(serialization_delay(64, bw::B100G), SimTime::from_ps(5120));
    }

    #[test]
    fn empty_frame_handling() {
        let p = EthPacket::new(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }
}
