//! # simbricks-pcie
//!
//! The SimBricks host ↔ device interface (Fig. 4 of the paper), modelled on
//! the PCIe *transactional* layer: device discovery (`INIT_DEV`), MMIO reads
//! and writes initiated by the host, DMA reads and writes initiated by the
//! device, completions in both directions, and interrupt signalling (INTx,
//! MSI, MSI-X). Low-level PCIe details (encoding, signalling, flow control)
//! are abstracted into two channel parameters: bandwidth and latency.
//!
//! Messages are serialized into SimBricks message slots; this crate provides
//! the typed encode/decode layer both host-simulator and device-simulator
//! adapters use, plus a small helper for tracking outstanding requests.

pub mod msg;
pub mod outstanding;

pub use msg::{
    BarInfo, BarKind, DevToHost, DeviceInfo, HostToDev, IntKind, IntStatus, MSG_DEV_TO_HOST_BASE,
    MSG_HOST_TO_DEV_BASE,
};
pub use outstanding::OutstandingRequests;

#[cfg(test)]
mod properties {
    use super::*;
    use simbricks_base::impair::check_cases;
    use simbricks_base::{PktBuf, Rng};

    const SEED: u64 = 0x9c1e;

    /// `lo..hi` bytes of generator output (`lo < hi`).
    fn bytes(rng: &mut Rng, lo: u64, hi: u64) -> PktBuf {
        (0..lo + rng.below(hi - lo))
            .map(|_| rng.next_u64() as u8)
            .collect::<Vec<_>>()
            .into()
    }

    #[test]
    fn dev_to_host_roundtrip() {
        check_cases("dev_to_host_roundtrip", SEED, 256, |rng| {
            let (req_id, addr) = (rng.next_u64(), rng.next_u64());
            let len = rng.below(2048) as usize;
            let data = bytes(rng, 0, 256);
            let vector = rng.next_u64() as u16;
            let msgs = vec![
                DevToHost::DmaRead { req_id, addr, len },
                DevToHost::DmaWrite {
                    req_id,
                    addr,
                    data: data.clone(),
                },
                DevToHost::MmioComplete { req_id, data },
                DevToHost::Interrupt {
                    kind: IntKind::Msix,
                    vector,
                },
                DevToHost::Interrupt {
                    kind: IntKind::Legacy,
                    vector: 0,
                },
            ];
            for m in msgs {
                let (ty, payload) = m.encode();
                assert_eq!(DevToHost::decode(ty, &payload).unwrap(), m);
            }
        });
    }

    #[test]
    fn host_to_dev_roundtrip() {
        check_cases("host_to_dev_roundtrip", SEED, 256, |rng| {
            let req_id = rng.next_u64();
            let bar = rng.below(6) as u8;
            let offset = rng.next_u64();
            let len = 1 + rng.below(63) as usize;
            let data = bytes(rng, 1, 64);
            let msgs = vec![
                HostToDev::MmioRead {
                    req_id,
                    bar,
                    offset,
                    len,
                },
                HostToDev::MmioWrite {
                    req_id,
                    bar,
                    offset,
                    data: data.clone(),
                },
                HostToDev::DmaComplete { req_id, data },
                HostToDev::IntStatus(IntStatus {
                    legacy: true,
                    msi: false,
                    msix: true,
                }),
            ];
            for m in msgs {
                let (ty, payload) = m.encode();
                assert_eq!(HostToDev::decode(ty, &payload).unwrap(), m);
            }
        });
    }
}
