//! PCIe interface message definitions and their slot encoding.
//!
//! Bulk payloads (DMA reads/writes, MMIO data) are carried as pooled
//! [`PktBuf`]s. Decoding through [`DevToHost::decode_buf`] /
//! [`HostToDev::decode_buf`] yields payload fields that are zero-copy slice
//! views into the received message buffer (a refcount bump, no allocation).

use simbricks_base::{MsgType, PktBuf};

/// Message type space for device → host messages (Fig. 4, top table).
pub const MSG_DEV_TO_HOST_BASE: MsgType = 0x10;
pub const MSG_D2H_DEV_INFO: MsgType = MSG_DEV_TO_HOST_BASE;
pub const MSG_D2H_DMA_READ: MsgType = MSG_DEV_TO_HOST_BASE + 1;
pub const MSG_D2H_DMA_WRITE: MsgType = MSG_DEV_TO_HOST_BASE + 2;
pub const MSG_D2H_MMIO_COMPL: MsgType = MSG_DEV_TO_HOST_BASE + 3;
pub const MSG_D2H_INTERRUPT: MsgType = MSG_DEV_TO_HOST_BASE + 4;

/// Message type space for host → device messages (Fig. 4, middle table).
pub const MSG_HOST_TO_DEV_BASE: MsgType = 0x20;
pub const MSG_H2D_DMA_COMPL: MsgType = MSG_HOST_TO_DEV_BASE;
pub const MSG_H2D_MMIO_READ: MsgType = MSG_HOST_TO_DEV_BASE + 1;
pub const MSG_H2D_MMIO_WRITE: MsgType = MSG_HOST_TO_DEV_BASE + 2;
pub const MSG_H2D_INT_STATUS: MsgType = MSG_HOST_TO_DEV_BASE + 3;

/// Kind of a base address register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarKind {
    Mmio,
    Io,
    /// 64-bit prefetchable MMIO.
    Mmio64,
}

impl BarKind {
    fn to_u8(self) -> u8 {
        match self {
            BarKind::Mmio => 0,
            BarKind::Io => 1,
            BarKind::Mmio64 => 2,
        }
    }
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(BarKind::Mmio),
            1 => Some(BarKind::Io),
            2 => Some(BarKind::Mmio64),
            _ => None,
        }
    }
}

/// One base address region exposed by a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarInfo {
    pub len: u64,
    pub kind: BarKind,
}

/// Device identity and capabilities announced with `INIT_DEV`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceInfo {
    pub vendor_id: u16,
    pub device_id: u16,
    pub class: u8,
    pub subclass: u8,
    pub revision: u8,
    pub msi_vectors: u16,
    pub msix_vectors: u16,
    /// BAR index holding the MSI-X table and its offset.
    pub msix_table_bar: u8,
    pub msix_table_offset: u64,
    /// BAR index holding the MSI-X pending-bit array and its offset.
    pub msix_pba_bar: u8,
    pub msix_pba_offset: u64,
    pub bars: Vec<BarInfo>,
}

impl DeviceInfo {
    /// A convenience constructor for a typical NIC-like device with a single
    /// MMIO register BAR.
    pub fn nic(vendor_id: u16, device_id: u16, bar0_len: u64, msix_vectors: u16) -> Self {
        DeviceInfo {
            vendor_id,
            device_id,
            class: 0x02, // network controller
            subclass: 0x00,
            revision: 1,
            msi_vectors: 0,
            msix_vectors,
            msix_table_bar: 0,
            msix_table_offset: 0,
            msix_pba_bar: 0,
            msix_pba_offset: 0,
            bars: vec![BarInfo {
                len: bar0_len,
                kind: BarKind::Mmio64,
            }],
        }
    }

    /// A convenience constructor for an NVMe-like storage device.
    pub fn nvme(vendor_id: u16, device_id: u16, bar0_len: u64, msix_vectors: u16) -> Self {
        DeviceInfo {
            class: 0x01, // mass storage
            subclass: 0x08,
            ..Self::nic(vendor_id, device_id, bar0_len, msix_vectors)
        }
    }
}

/// Interrupt signalling mechanism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntKind {
    Legacy,
    Msi,
    Msix,
}

impl IntKind {
    fn to_u8(self) -> u8 {
        match self {
            IntKind::Legacy => 0,
            IntKind::Msi => 1,
            IntKind::Msix => 2,
        }
    }
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(IntKind::Legacy),
            1 => Some(IntKind::Msi),
            2 => Some(IntKind::Msix),
            _ => None,
        }
    }
}

/// Which interrupt mechanisms the OS has enabled (`INT_STATUS`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntStatus {
    pub legacy: bool,
    pub msi: bool,
    pub msix: bool,
}

/// Device → host messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DevToHost {
    /// Register the device with the host (discovery / initialization).
    DevInfo(DeviceInfo),
    /// Device-initiated DMA read of host memory.
    DmaRead { req_id: u64, addr: u64, len: usize },
    /// Device-initiated DMA write to host memory.
    DmaWrite {
        req_id: u64,
        addr: u64,
        data: PktBuf,
    },
    /// Completion of an earlier host MMIO read/write.
    MmioComplete { req_id: u64, data: PktBuf },
    /// Raise an interrupt.
    Interrupt { kind: IntKind, vector: u16 },
}

/// Host → device messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostToDev {
    /// Completion of an earlier device DMA read (carries data) or write.
    DmaComplete { req_id: u64, data: PktBuf },
    /// Host-initiated MMIO read of a device BAR.
    MmioRead {
        req_id: u64,
        bar: u8,
        offset: u64,
        len: usize,
    },
    /// Host-initiated MMIO write to a device BAR.
    MmioWrite {
        req_id: u64,
        bar: u8,
        offset: u64,
        data: PktBuf,
    },
    /// Report which interrupt mechanisms the OS enabled.
    IntStatus(IntStatus),
}

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

struct Writer(Vec<u8>);

impl Writer {
    fn new() -> Self {
        Writer(Vec::with_capacity(64))
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
    }
    fn finish(self) -> Vec<u8> {
        self.0
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When decoding straight from a received [`PktBuf`], `bytes()` returns
    /// zero-copy slice views of it instead of fresh allocations.
    src: Option<&'a PktBuf>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            src: None,
        }
    }

    fn new_buf(src: &'a PktBuf) -> Self {
        Reader {
            buf: src.as_slice(),
            pos: 0,
            src: Some(src),
        }
    }
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }
    fn u16(&mut self) -> Option<u16> {
        let s = self.buf.get(self.pos..self.pos + 2)?;
        self.pos += 2;
        Some(u16::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        let s = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Option<PktBuf> {
        let len = self.u64()? as usize;
        let s = self.buf.get(self.pos..self.pos + len)?;
        let out = match self.src {
            Some(src) => src.slice(self.pos, self.pos + len),
            None => PktBuf::from(s),
        };
        self.pos += len;
        Some(out)
    }
}

impl DevToHost {
    /// Encode into a (message type, payload) pair for a SimBricks slot.
    pub fn encode(&self) -> (MsgType, Vec<u8>) {
        let mut w = Writer::new();
        match self {
            DevToHost::DevInfo(info) => {
                w.u16(info.vendor_id);
                w.u16(info.device_id);
                w.u8(info.class);
                w.u8(info.subclass);
                w.u8(info.revision);
                w.u16(info.msi_vectors);
                w.u16(info.msix_vectors);
                w.u8(info.msix_table_bar);
                w.u64(info.msix_table_offset);
                w.u8(info.msix_pba_bar);
                w.u64(info.msix_pba_offset);
                w.u8(info.bars.len() as u8);
                for b in &info.bars {
                    w.u64(b.len);
                    w.u8(b.kind.to_u8());
                }
                (MSG_D2H_DEV_INFO, w.finish())
            }
            DevToHost::DmaRead { req_id, addr, len } => {
                w.u64(*req_id);
                w.u64(*addr);
                w.u64(*len as u64);
                (MSG_D2H_DMA_READ, w.finish())
            }
            DevToHost::DmaWrite { req_id, addr, data } => {
                w.u64(*req_id);
                w.u64(*addr);
                w.bytes(data);
                (MSG_D2H_DMA_WRITE, w.finish())
            }
            DevToHost::MmioComplete { req_id, data } => {
                w.u64(*req_id);
                w.bytes(data);
                (MSG_D2H_MMIO_COMPL, w.finish())
            }
            DevToHost::Interrupt { kind, vector } => {
                w.u8(kind.to_u8());
                w.u16(*vector);
                (MSG_D2H_INTERRUPT, w.finish())
            }
        }
    }

    /// Encode a `DmaWrite` directly from borrowed payload bytes into a
    /// pooled buffer: one write pass, no intermediate envelope allocation.
    /// Wire-identical to `DevToHost::DmaWrite { .. }.encode()`.
    pub fn encode_dma_write_pooled(
        pool: &simbricks_base::BufPool,
        req_id: u64,
        addr: u64,
        data: &[u8],
    ) -> (MsgType, PktBuf) {
        let mut b = pool.alloc_capacity(24 + data.len(), 0);
        b.extend_from_slice(&req_id.to_le_bytes());
        b.extend_from_slice(&addr.to_le_bytes());
        b.extend_from_slice(&(data.len() as u64).to_le_bytes());
        b.extend_from_slice(data);
        (MSG_D2H_DMA_WRITE, b)
    }

    /// Decode straight from a received message buffer: bulk payload fields
    /// come out as zero-copy slice views of `payload` (refcount bump).
    pub fn decode_buf(ty: MsgType, payload: &PktBuf) -> Option<DevToHost> {
        Self::decode_reader(ty, Reader::new_buf(payload))
    }

    /// Decode from a (message type, payload) pair; `None` for foreign types
    /// or malformed payloads. Bulk payload fields are copied; prefer
    /// [`DevToHost::decode_buf`] on hot paths.
    pub fn decode(ty: MsgType, payload: &[u8]) -> Option<DevToHost> {
        Self::decode_reader(ty, Reader::new(payload))
    }

    fn decode_reader(ty: MsgType, mut r: Reader<'_>) -> Option<DevToHost> {
        match ty {
            MSG_D2H_DEV_INFO => {
                let vendor_id = r.u16()?;
                let device_id = r.u16()?;
                let class = r.u8()?;
                let subclass = r.u8()?;
                let revision = r.u8()?;
                let msi_vectors = r.u16()?;
                let msix_vectors = r.u16()?;
                let msix_table_bar = r.u8()?;
                let msix_table_offset = r.u64()?;
                let msix_pba_bar = r.u8()?;
                let msix_pba_offset = r.u64()?;
                let nbars = r.u8()?;
                let mut bars = Vec::with_capacity(nbars as usize);
                for _ in 0..nbars {
                    let len = r.u64()?;
                    let kind = BarKind::from_u8(r.u8()?)?;
                    bars.push(BarInfo { len, kind });
                }
                Some(DevToHost::DevInfo(DeviceInfo {
                    vendor_id,
                    device_id,
                    class,
                    subclass,
                    revision,
                    msi_vectors,
                    msix_vectors,
                    msix_table_bar,
                    msix_table_offset,
                    msix_pba_bar,
                    msix_pba_offset,
                    bars,
                }))
            }
            MSG_D2H_DMA_READ => Some(DevToHost::DmaRead {
                req_id: r.u64()?,
                addr: r.u64()?,
                len: r.u64()? as usize,
            }),
            MSG_D2H_DMA_WRITE => Some(DevToHost::DmaWrite {
                req_id: r.u64()?,
                addr: r.u64()?,
                data: r.bytes()?,
            }),
            MSG_D2H_MMIO_COMPL => Some(DevToHost::MmioComplete {
                req_id: r.u64()?,
                data: r.bytes()?,
            }),
            MSG_D2H_INTERRUPT => Some(DevToHost::Interrupt {
                kind: IntKind::from_u8(r.u8()?)?,
                vector: r.u16()?,
            }),
            _ => None,
        }
    }
}

impl HostToDev {
    /// Encode into a (message type, payload) pair for a SimBricks slot.
    pub fn encode(&self) -> (MsgType, Vec<u8>) {
        let mut w = Writer::new();
        match self {
            HostToDev::DmaComplete { req_id, data } => {
                w.u64(*req_id);
                w.bytes(data);
                (MSG_H2D_DMA_COMPL, w.finish())
            }
            HostToDev::MmioRead {
                req_id,
                bar,
                offset,
                len,
            } => {
                w.u64(*req_id);
                w.u8(*bar);
                w.u64(*offset);
                w.u64(*len as u64);
                (MSG_H2D_MMIO_READ, w.finish())
            }
            HostToDev::MmioWrite {
                req_id,
                bar,
                offset,
                data,
            } => {
                w.u64(*req_id);
                w.u8(*bar);
                w.u64(*offset);
                w.bytes(data);
                (MSG_H2D_MMIO_WRITE, w.finish())
            }
            HostToDev::IntStatus(s) => {
                w.u8(s.legacy as u8);
                w.u8(s.msi as u8);
                w.u8(s.msix as u8);
                (MSG_H2D_INT_STATUS, w.finish())
            }
        }
    }

    /// Encode a `DmaComplete` directly from borrowed payload bytes into a
    /// pooled buffer: one write pass, no intermediate envelope allocation.
    /// Wire-identical to `HostToDev::DmaComplete { .. }.encode()`.
    pub fn encode_dma_complete_pooled(
        pool: &simbricks_base::BufPool,
        req_id: u64,
        data: &[u8],
    ) -> (MsgType, PktBuf) {
        Self::encode_dma_complete_with(pool, req_id, data.len(), |dst| dst.copy_from_slice(data))
    }

    /// [`HostToDev::encode_dma_complete_pooled`] for a payload of `len`
    /// bytes that `fill` writes straight into the pooled buffer (for
    /// example, copied out of guest memory).
    pub fn encode_dma_complete_with(
        pool: &simbricks_base::BufPool,
        req_id: u64,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> (MsgType, PktBuf) {
        let mut b = pool.alloc_capacity(16 + len, 0);
        b.extend_from_slice(&req_id.to_le_bytes());
        b.extend_from_slice(&(len as u64).to_le_bytes());
        b.extend_with(len, fill);
        (MSG_H2D_DMA_COMPL, b)
    }

    /// Decode straight from a received message buffer: bulk payload fields
    /// come out as zero-copy slice views of `payload` (refcount bump).
    pub fn decode_buf(ty: MsgType, payload: &PktBuf) -> Option<HostToDev> {
        Self::decode_reader(ty, Reader::new_buf(payload))
    }

    /// Decode from a (message type, payload) pair. Bulk payload fields are
    /// copied; prefer [`HostToDev::decode_buf`] on hot paths.
    pub fn decode(ty: MsgType, payload: &[u8]) -> Option<HostToDev> {
        Self::decode_reader(ty, Reader::new(payload))
    }

    fn decode_reader(ty: MsgType, mut r: Reader<'_>) -> Option<HostToDev> {
        match ty {
            MSG_H2D_DMA_COMPL => Some(HostToDev::DmaComplete {
                req_id: r.u64()?,
                data: r.bytes()?,
            }),
            MSG_H2D_MMIO_READ => Some(HostToDev::MmioRead {
                req_id: r.u64()?,
                bar: r.u8()?,
                offset: r.u64()?,
                len: r.u64()? as usize,
            }),
            MSG_H2D_MMIO_WRITE => Some(HostToDev::MmioWrite {
                req_id: r.u64()?,
                bar: r.u8()?,
                offset: r.u64()?,
                data: r.bytes()?,
            }),
            MSG_H2D_INT_STATUS => Some(HostToDev::IntStatus(IntStatus {
                legacy: r.u8()? != 0,
                msi: r.u8()? != 0,
                msix: r.u8()? != 0,
            })),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dev_info_roundtrip() {
        let info = DeviceInfo {
            vendor_id: 0x8086,
            device_id: 0x1572,
            class: 2,
            subclass: 0,
            revision: 1,
            msi_vectors: 8,
            msix_vectors: 64,
            msix_table_bar: 3,
            msix_table_offset: 0x1000,
            msix_pba_bar: 3,
            msix_pba_offset: 0x2000,
            bars: vec![
                BarInfo {
                    len: 0x80000,
                    kind: BarKind::Mmio64,
                },
                BarInfo {
                    len: 0x1000,
                    kind: BarKind::Io,
                },
            ],
        };
        let m = DevToHost::DevInfo(info.clone());
        let (ty, p) = m.encode();
        assert_eq!(ty, MSG_D2H_DEV_INFO);
        assert_eq!(DevToHost::decode(ty, &p), Some(m));
    }

    #[test]
    fn nic_and_nvme_constructors() {
        let nic = DeviceInfo::nic(0x8086, 0x1572, 0x80000, 64);
        assert_eq!(nic.class, 0x02);
        assert_eq!(nic.bars.len(), 1);
        let nvme = DeviceInfo::nvme(0x1b36, 0x0010, 0x4000, 32);
        assert_eq!(nvme.class, 0x01);
        assert_eq!(nvme.subclass, 0x08);
    }

    #[test]
    fn cross_decoding_fails_cleanly() {
        let (ty, p) = DevToHost::DmaRead {
            req_id: 1,
            addr: 0x1000,
            len: 64,
        }
        .encode();
        // Host-to-device decoder must not accept device-to-host types.
        assert!(HostToDev::decode(ty, &p).is_none());
        // Truncated payloads decode to None rather than panicking.
        assert!(DevToHost::decode(ty, &p[..4]).is_none());
    }

    #[test]
    fn int_status_roundtrip() {
        let m = HostToDev::IntStatus(IntStatus {
            legacy: false,
            msi: true,
            msix: true,
        });
        let (ty, p) = m.encode();
        assert_eq!(HostToDev::decode(ty, &p), Some(m));
    }

    #[test]
    fn interrupt_kinds_roundtrip() {
        for kind in [IntKind::Legacy, IntKind::Msi, IntKind::Msix] {
            let m = DevToHost::Interrupt { kind, vector: 5 };
            let (ty, p) = m.encode();
            assert_eq!(DevToHost::decode(ty, &p), Some(m));
        }
    }

    #[test]
    fn dma_write_carries_payload() {
        let data: Vec<u8> = (0..255).collect();
        let m = DevToHost::DmaWrite {
            req_id: 42,
            addr: 0xdead_beef_0000,
            data: data.clone().into(),
        };
        let (ty, p) = m.encode();
        match DevToHost::decode(ty, &p).unwrap() {
            DevToHost::DmaWrite { data: d, .. } => assert_eq!(d, data),
            _ => panic!("wrong variant"),
        }
    }
}
