//! Guest NIC drivers.
//!
//! These drive the `simbricks-nicsim` device models exactly the way a guest
//! kernel driver would: descriptor rings and packet buffers are allocated in
//! simulated physical memory, doorbells are MMIO writes, and completions are
//! discovered either by polling DD bits that the NIC wrote back into host
//! memory (i40e, e1000) or by reading the queue head-index registers via MMIO
//! (Corundum) — the §8.1 distinction.
//!
//! Driver methods do not perform I/O themselves; they return [`DriverOp`]s
//! that the host model turns into PCIe messages (and charges CPU time for).

use simbricks_base::snap::{SnapReader, SnapResult, SnapWriter, Snapshot};
use simbricks_base::{BufPool, PktBuf, DEFAULT_HEADROOM};
use simbricks_nicsim::regs::*;
use simbricks_nicsim::NicVariant;
use simbricks_proto::{EtherType, ETH_HEADER_LEN, IPV4_HEADER_LEN};

use crate::mem::PhysMem;

/// Which NIC model the driver is bound to.
pub type NicModelKind = NicVariant;

/// An MMIO operation the driver wants performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverOp {
    /// Posted register write (does not stall the CPU).
    MmioWrite { offset: u64, value: u64 },
    /// Blocking register read; the host calls
    /// [`NicDriver::on_mmio_read`] with the result. Reads stall the CPU for a
    /// full PCIe round trip.
    MmioRead { offset: u64, purpose: ReadPurpose },
}

/// Why the driver issued an MMIO read (to resume the right state machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadPurpose {
    /// Corundum: RX queue head index (how many receive completions exist).
    RxHead,
    /// Corundum: TX queue head index (how many transmit completions exist).
    TxHead,
    /// e1000: interrupt cause register.
    Icr,
}

/// Result of letting the driver process an interrupt or a completed read.
#[derive(Default)]
pub struct DriverOutcome {
    /// Received frames to hand to the network stack (pooled buffers read
    /// straight out of the receive rings).
    pub frames: Vec<PktBuf>,
    /// Follow-up MMIO operations.
    pub ops: Vec<DriverOp>,
    /// Number of MMIO read stalls this step introduced (reporting).
    pub mmio_reads: u32,
}

const RING_ENTRIES: u32 = 256;
const BUF_SIZE: u64 = 4352;
/// Transmit buffer size when the NIC supports TCP segmentation offload: one
/// TSO super-segment ([`TSO_SIZE`] payload bytes plus headers) must fit.
const TSO_BUF_SIZE: u64 = 9216;

/// Payload bytes of one TCP super-segment handed to a TSO-capable NIC. The
/// host network stack is configured with this value when the attached NIC
/// advertises segmentation offload.
pub const TSO_SIZE: usize = 8192;

/// A guest driver instance for one NIC.
pub struct NicDriver {
    // snap-skip: construction-time config; restore runs on an identically built host
    kind: NicModelKind,
    /// Interface MTU (used to derive the wire MSS programmed for TSO).
    // snap-skip: construction-time config; restore runs on an identically built host
    mtu: usize,
    tx_base: u64,
    rx_base: u64,
    tx_bufs: u64,
    rx_bufs: u64,
    tx_tail: u32,
    tx_clean: u32,
    rx_next: u32,
    rx_tail: u32,
    /// Interrupt throttling value the driver programs (ns).
    itr_ns: u64,
    pub initialized: bool,
    pub tx_dropped_ring_full: u64,
    pub tx_packets: u64,
    pub rx_packets: u64,
    /// Arena receive frames are copied into out of guest memory.
    // snap-skip: transient buffer arena; contents are never observable across steps
    pool: BufPool,
}

impl NicDriver {
    pub fn new(kind: NicModelKind, itr_ns: u64, mtu: usize) -> Self {
        NicDriver {
            kind,
            mtu,
            tx_base: 0,
            rx_base: 0,
            tx_bufs: 0,
            rx_bufs: 0,
            tx_tail: 0,
            tx_clean: 0,
            rx_next: 0,
            rx_tail: 0,
            pool: BufPool::new(),
            itr_ns,
            initialized: false,
            tx_dropped_ring_full: 0,
            tx_packets: 0,
            rx_packets: 0,
        }
    }

    pub fn kind(&self) -> NicModelKind {
        self.kind
    }

    /// Rebase the driver onto an external buffer pool (the owning kernel's
    /// per-component arena), so ring-read allocations count per host.
    pub fn set_pool(&mut self, pool: BufPool) {
        self.pool = pool;
    }

    /// Whether the bound NIC model supports TCP segmentation offload (only
    /// the i40e advertises it, as in its Linux driver).
    pub fn supports_tso(&self) -> bool {
        self.kind == NicVariant::I40e
    }

    /// Size of the transmit buffers this driver allocates.
    fn tx_buf_size(&self) -> u64 {
        if self.supports_tso() {
            TSO_BUF_SIZE
        } else {
            BUF_SIZE
        }
    }

    /// Probe/initialize the device: allocate rings and buffers, program the
    /// queue registers, post all receive buffers, enable the device.
    pub fn init(&mut self, mem: &mut PhysMem) -> Vec<DriverOp> {
        let ring_bytes = RING_ENTRIES as u64 * DESC_SIZE as u64;
        self.tx_base = mem.alloc(ring_bytes, 64);
        self.rx_base = mem.alloc(ring_bytes, 64);
        self.tx_bufs = mem.alloc(RING_ENTRIES as u64 * self.tx_buf_size(), 64);
        self.rx_bufs = mem.alloc(RING_ENTRIES as u64 * BUF_SIZE, 64);

        // Post every RX descriptor.
        for i in 0..RING_ENTRIES {
            let d = Descriptor {
                addr: self.rx_bufs + i as u64 * BUF_SIZE,
                len: BUF_SIZE as u16,
                flags: 0,
                status: 0,
            };
            mem.write(self.rx_base + i as u64 * DESC_SIZE as u64, &d.to_bytes());
        }
        self.rx_tail = RING_ENTRIES - 1;
        self.initialized = true;

        let mut ops = vec![
            DriverOp::MmioWrite {
                offset: queue_reg(0, Q_TX_BASE),
                value: self.tx_base,
            },
            DriverOp::MmioWrite {
                offset: queue_reg(0, Q_TX_LEN),
                value: RING_ENTRIES as u64,
            },
            DriverOp::MmioWrite {
                offset: queue_reg(0, Q_RX_BASE),
                value: self.rx_base,
            },
            DriverOp::MmioWrite {
                offset: queue_reg(0, Q_RX_LEN),
                value: RING_ENTRIES as u64,
            },
            DriverOp::MmioWrite {
                offset: queue_reg(0, Q_ITR),
                value: self.itr_ns,
            },
            DriverOp::MmioWrite {
                offset: REG_FLAGS,
                value: FLAG_TX_CSUM | FLAG_RX_CSUM,
            },
            DriverOp::MmioWrite {
                offset: REG_CTRL,
                value: 1,
            },
            DriverOp::MmioWrite {
                offset: queue_reg(0, Q_RX_TAIL),
                value: self.rx_tail as u64,
            },
        ];
        if self.supports_tso() {
            // Program the wire MSS the NIC's segmentation engine must use.
            ops.insert(
                ops.len() - 2,
                DriverOp::MmioWrite {
                    offset: queue_reg(0, Q_TSO_MSS),
                    value: self.mtu.saturating_sub(40).max(100) as u64,
                },
            );
        }
        ops
    }

    fn tx_ring_full(&self) -> bool {
        (self.tx_tail + 1) % RING_ENTRIES == self.tx_clean % RING_ENTRIES
    }

    /// Queue a frame for transmission: copy it to a transmit buffer, write
    /// the descriptor, and ring the doorbell.
    pub fn transmit(&mut self, mem: &mut PhysMem, frame: &[u8]) -> Vec<DriverOp> {
        if !self.initialized || frame.len() as u64 > self.tx_buf_size() {
            return Vec::new();
        }
        if self.tx_ring_full() {
            self.tx_dropped_ring_full += 1;
            return Vec::new();
        }
        let idx = self.tx_tail;
        let buf = self.tx_bufs + idx as u64 * self.tx_buf_size();
        mem.write(buf, frame);
        let mut flags = DESC_EOP | DESC_CSUM_OFFLOAD;
        if self.supports_tso() && frame.len() > self.mtu + simbricks_proto::ETH_HEADER_LEN {
            flags |= DESC_TSO;
        }
        let d = Descriptor {
            addr: buf,
            len: frame.len() as u16,
            flags,
            status: 0,
        };
        mem.write(self.tx_base + idx as u64 * DESC_SIZE as u64, &d.to_bytes());
        self.tx_tail = (self.tx_tail + 1) % RING_ENTRIES;
        self.tx_packets += 1;
        vec![DriverOp::MmioWrite {
            offset: queue_reg(0, Q_TX_TAIL),
            value: self.tx_tail as u64,
        }]
    }

    /// Interrupt handler entry point. Depending on the NIC model this either
    /// processes the rings directly (DD-bit polling in host memory) or asks
    /// for head-index / ICR register reads first.
    pub fn on_interrupt(&mut self, mem: &mut PhysMem) -> DriverOutcome {
        match self.kind {
            NicVariant::I40e => self.reap_rings_dd(mem),
            NicVariant::E1000 => DriverOutcome {
                frames: Vec::new(),
                ops: vec![DriverOp::MmioRead {
                    offset: REG_ICR,
                    purpose: ReadPurpose::Icr,
                }],
                mmio_reads: 1,
            },
            NicVariant::Corundum => DriverOutcome {
                frames: Vec::new(),
                ops: vec![DriverOp::MmioRead {
                    offset: queue_reg(0, Q_RX_HEAD),
                    purpose: ReadPurpose::RxHead,
                }],
                mmio_reads: 1,
            },
        }
    }

    /// Continue after a blocking MMIO read completed.
    pub fn on_mmio_read(
        &mut self,
        mem: &mut PhysMem,
        purpose: ReadPurpose,
        value: u64,
    ) -> DriverOutcome {
        match purpose {
            ReadPurpose::Icr => {
                // e1000: the cause register told us what happened; now poll
                // the rings via DD bits like i40e.
                let _ = value;
                self.reap_rings_dd(mem)
            }
            ReadPurpose::RxHead => {
                let mut out = self.reap_rx_until(mem, value as u32);
                // Corundum has no completion bits in host memory, so the only
                // way to discover packets that arrived while this batch was
                // being processed is to read the head register again. Under
                // load this turns into repeated sub-batch polls — the extra
                // PCIe round trips behind the §8.1 finding. The loop ends
                // naturally once a read reports no new completions.
                if !out.frames.is_empty() {
                    out.ops.push(DriverOp::MmioRead {
                        offset: queue_reg(0, Q_RX_HEAD),
                        purpose: ReadPurpose::RxHead,
                    });
                    out.mmio_reads += 1;
                }
                // Reclaim TX descriptors when the ring is half full: another
                // head-register read (a second stall).
                let outstanding = (self.tx_tail + RING_ENTRIES - self.tx_clean) % RING_ENTRIES;
                if outstanding > RING_ENTRIES / 2 {
                    out.ops.push(DriverOp::MmioRead {
                        offset: queue_reg(0, Q_TX_HEAD),
                        purpose: ReadPurpose::TxHead,
                    });
                    out.mmio_reads += 1;
                }
                out
            }
            ReadPurpose::TxHead => {
                self.tx_clean = value as u32 % RING_ENTRIES;
                DriverOutcome::default()
            }
        }
    }

    /// Copy a received frame out of guest memory into a pooled buffer of
    /// the class [`BufPool::copy_from_slice`] would take for it.
    fn read_frame(&self, mem: &PhysMem, addr: u64, len: usize) -> PktBuf {
        let mut b = self.pool.alloc_capacity(len, DEFAULT_HEADROOM);
        b.extend_with(len, |dst| mem.read_into(addr, dst));
        b
    }

    /// i40e / e1000 receive and transmit reaping: scan descriptors in host
    /// memory for the DD bit the NIC wrote back.
    fn reap_rings_dd(&mut self, mem: &mut PhysMem) -> DriverOutcome {
        let mut out = DriverOutcome::default();
        // TX clean-up.
        while self.tx_clean != self.tx_tail {
            let daddr = self.tx_base + self.tx_clean as u64 * DESC_SIZE as u64;
            let d = read_desc(mem, daddr);
            if !d.has_dd() {
                break;
            }
            mem.write(daddr, &Descriptor::default().to_bytes());
            self.tx_clean = (self.tx_clean + 1) % RING_ENTRIES;
        }
        // RX.
        loop {
            let idx = self.rx_next;
            let daddr = self.rx_base + idx as u64 * DESC_SIZE as u64;
            let d = read_desc(mem, daddr);
            if !d.has_dd() {
                break;
            }
            let buf = self.rx_bufs + idx as u64 * BUF_SIZE;
            out.frames.push(self.read_frame(mem, buf, d.len as usize));
            self.rx_packets += 1;
            // Re-arm the descriptor and advance.
            let fresh = Descriptor {
                addr: buf,
                len: BUF_SIZE as u16,
                flags: 0,
                status: 0,
            };
            mem.write(daddr, &fresh.to_bytes());
            self.rx_next = (self.rx_next + 1) % RING_ENTRIES;
            self.rx_tail = (self.rx_tail + 1) % RING_ENTRIES;
        }
        if !out.frames.is_empty() {
            out.ops.push(DriverOp::MmioWrite {
                offset: queue_reg(0, Q_RX_TAIL),
                value: self.rx_tail as u64,
            });
        }
        out
    }

    /// Corundum receive reaping: the NIC told us (via the head register) how
    /// many descriptors completed; the data is already in our buffers.
    fn reap_rx_until(&mut self, mem: &mut PhysMem, head: u32) -> DriverOutcome {
        let mut out = DriverOutcome::default();
        while self.rx_next != head % RING_ENTRIES {
            let idx = self.rx_next;
            let buf = self.rx_bufs + idx as u64 * BUF_SIZE;
            // Without write-back the length is not in the descriptor; parse
            // the Ethernet/IP headers to recover the frame length.
            let mut head = [0u8; FRAME_HEAD];
            mem.read_into(buf, &mut head);
            let len = frame_length(&head).unwrap_or(64).min(BUF_SIZE as usize);
            out.frames.push(self.read_frame(mem, buf, len));
            self.rx_packets += 1;
            self.rx_next = (self.rx_next + 1) % RING_ENTRIES;
            self.rx_tail = (self.rx_tail + 1) % RING_ENTRIES;
        }
        if !out.frames.is_empty() {
            out.ops.push(DriverOp::MmioWrite {
                offset: queue_reg(0, Q_RX_TAIL),
                value: self.rx_tail as u64,
            });
        }
        out
    }
}

impl Snapshot for NicDriver {
    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.u64(self.tx_base);
        w.u64(self.rx_base);
        w.u64(self.tx_bufs);
        w.u64(self.rx_bufs);
        w.u32(self.tx_tail);
        w.u32(self.tx_clean);
        w.u32(self.rx_next);
        w.u32(self.rx_tail);
        w.u64(self.itr_ns);
        w.bool(self.initialized);
        w.u64(self.tx_dropped_ring_full);
        w.u64(self.tx_packets);
        w.u64(self.rx_packets);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.tx_base = r.u64()?;
        self.rx_base = r.u64()?;
        self.tx_bufs = r.u64()?;
        self.rx_bufs = r.u64()?;
        self.tx_tail = r.u32()?;
        self.tx_clean = r.u32()?;
        self.rx_next = r.u32()?;
        self.rx_tail = r.u32()?;
        self.itr_ns = r.u64()?;
        self.initialized = r.bool()?;
        self.tx_dropped_ring_full = r.u64()?;
        self.tx_packets = r.u64()?;
        self.rx_packets = r.u64()?;
        Ok(())
    }
}

/// The descriptor at `addr` in guest memory.
fn read_desc(mem: &PhysMem, addr: u64) -> Descriptor {
    let mut raw = [0u8; DESC_SIZE];
    mem.read_into(addr, &mut raw);
    Descriptor::from_bytes(&raw).expect("a whole descriptor")
}

/// Leading bytes of a receive buffer that [`frame_length`] reads: the
/// Ethernet header and the first word of an IPv4 header.
const FRAME_HEAD: usize = ETH_HEADER_LEN + 4;

/// Recover the on-wire length of the Ethernet frame at the start of a
/// receive buffer from its headers (IPv4 total length, or ARP fixed size),
/// including minimum-frame padding. An IPv4 header is taken only if it
/// would parse from the whole buffer: version 4, a header of at least
/// [`IPV4_HEADER_LEN`] bytes, and a total length between that header's and
/// the buffer's.
fn frame_length(head: &[u8; FRAME_HEAD]) -> Option<usize> {
    let ethertype = EtherType::from_u16(u16::from_be_bytes([head[12], head[13]]));
    let payload = match ethertype {
        EtherType::Ipv4 => {
            let ip = &head[ETH_HEADER_LEN..];
            let ihl = (ip[0] & 0x0f) as usize * 4;
            let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
            let parses = ip[0] >> 4 == 4
                && ihl >= IPV4_HEADER_LEN
                && (ihl..=BUF_SIZE as usize - ETH_HEADER_LEN).contains(&total_len);
            if !parses {
                return None;
            }
            total_len
        }
        EtherType::Arp => 28,
        EtherType::Other(_) => return None,
    };
    Some((ETH_HEADER_LEN + payload).max(60))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_programs_rings_and_enables() {
        let mut mem = PhysMem::new(8 << 20);
        let mut drv = NicDriver::new(NicVariant::I40e, 2000, 1500);
        let ops = drv.init(&mut mem);
        assert!(drv.initialized);
        assert!(ops.contains(&DriverOp::MmioWrite {
            offset: REG_CTRL,
            value: 1
        }));
        assert!(ops.iter().any(|o| matches!(o, DriverOp::MmioWrite { offset, .. } if *offset == queue_reg(0, Q_RX_TAIL))));
        // RX descriptors were posted in memory.
        let d = read_desc(&mem, drv.rx_base);
        assert_ne!(d.addr, 0);
        assert!(!d.has_dd());
    }

    #[test]
    fn transmit_writes_descriptor_and_doorbell() {
        let mut mem = PhysMem::new(8 << 20);
        let mut drv = NicDriver::new(NicVariant::I40e, 0, 1500);
        drv.init(&mut mem);
        let frame = vec![0xaau8; 900];
        let ops = drv.transmit(&mut mem, &frame);
        assert_eq!(
            ops,
            vec![DriverOp::MmioWrite {
                offset: queue_reg(0, Q_TX_TAIL),
                value: 1
            }]
        );
        let d = read_desc(&mem, drv.tx_base);
        assert_eq!(d.len, 900);
        let mut written = vec![0u8; 900];
        mem.read_into(d.addr, &mut written);
        assert_eq!(written, frame);
    }

    #[test]
    fn dd_reaping_extracts_frames_and_reposts() {
        let mut mem = PhysMem::new(8 << 20);
        let mut drv = NicDriver::new(NicVariant::I40e, 0, 1500);
        drv.init(&mut mem);
        // Emulate the NIC: write a frame into the first RX buffer and set DD.
        let frame = simbricks_proto::FrameBuilder::udp(
            simbricks_proto::MacAddr::from_index(1),
            simbricks_proto::MacAddr::from_index(2),
            simbricks_proto::Ipv4Addr::new(10, 0, 0, 1),
            simbricks_proto::Ipv4Addr::new(10, 0, 0, 2),
            simbricks_proto::Ecn::NotEct,
            1,
            2,
            &[9u8; 64],
        );
        let d0 = read_desc(&mem, drv.rx_base);
        mem.write(d0.addr, &frame);
        let wb = Descriptor {
            addr: d0.addr,
            len: frame.len() as u16,
            flags: DESC_EOP,
            status: DESC_DD,
        };
        mem.write(drv.rx_base, &wb.to_bytes());
        let out = drv.on_interrupt(&mut mem);
        assert_eq!(out.frames.len(), 1);
        assert_eq!(out.frames[0], frame);
        assert_eq!(
            out.mmio_reads, 0,
            "i40e never reads registers on the RX path"
        );
        assert!(out.ops.iter().any(|o| matches!(o, DriverOp::MmioWrite { offset, .. } if *offset == queue_reg(0, Q_RX_TAIL))));
        // The descriptor was re-armed.
        let re = read_desc(&mem, drv.rx_base);
        assert!(!re.has_dd());
    }

    #[test]
    fn corundum_interrupt_requires_head_register_read() {
        let mut mem = PhysMem::new(8 << 20);
        let mut drv = NicDriver::new(NicVariant::Corundum, 0, 1500);
        drv.init(&mut mem);
        let out = drv.on_interrupt(&mut mem);
        assert!(out.frames.is_empty());
        assert_eq!(out.mmio_reads, 1, "Corundum must read RX head via MMIO");
        assert_eq!(
            out.ops,
            vec![DriverOp::MmioRead {
                offset: queue_reg(0, Q_RX_HEAD),
                purpose: ReadPurpose::RxHead
            }]
        );
        // Emulate the NIC having DMA'd one UDP frame into buffer 0.
        let frame = simbricks_proto::FrameBuilder::udp(
            simbricks_proto::MacAddr::from_index(3),
            simbricks_proto::MacAddr::from_index(4),
            simbricks_proto::Ipv4Addr::new(10, 0, 0, 3),
            simbricks_proto::Ipv4Addr::new(10, 0, 0, 4),
            simbricks_proto::Ecn::NotEct,
            5,
            6,
            &[1u8; 100],
        );
        let d0 = read_desc(&mem, drv.rx_base);
        mem.write(d0.addr, &frame);
        let out2 = drv.on_mmio_read(&mut mem, ReadPurpose::RxHead, 1);
        assert_eq!(out2.frames.len(), 1);
        assert_eq!(out2.frames[0], frame);
    }

    #[test]
    fn e1000_reads_icr_then_reaps() {
        let mut mem = PhysMem::new(8 << 20);
        let mut drv = NicDriver::new(NicVariant::E1000, 0, 1500);
        drv.init(&mut mem);
        let out = drv.on_interrupt(&mut mem);
        assert_eq!(out.mmio_reads, 1);
        assert_eq!(
            out.ops,
            vec![DriverOp::MmioRead {
                offset: REG_ICR,
                purpose: ReadPurpose::Icr
            }]
        );
        let out2 = drv.on_mmio_read(&mut mem, ReadPurpose::Icr, ICR_RXQ0);
        assert!(out2.frames.is_empty(), "nothing pending yet");
    }

    #[test]
    fn tx_ring_full_drops() {
        let mut mem = PhysMem::new(16 << 20);
        let mut drv = NicDriver::new(NicVariant::I40e, 0, 1500);
        drv.init(&mut mem);
        for _ in 0..RING_ENTRIES * 2 {
            drv.transmit(&mut mem, &[0u8; 64]);
        }
        assert!(drv.tx_dropped_ring_full > 0);
        assert_eq!(drv.tx_packets, RING_ENTRIES as u64 - 1);
    }

    #[test]
    fn frame_length_recovery() {
        let f = simbricks_proto::FrameBuilder::udp(
            simbricks_proto::MacAddr::from_index(1),
            simbricks_proto::MacAddr::from_index(2),
            simbricks_proto::Ipv4Addr::new(1, 1, 1, 1),
            simbricks_proto::Ipv4Addr::new(2, 2, 2, 2),
            simbricks_proto::Ecn::NotEct,
            1,
            2,
            &[0u8; 200],
        );
        let head = |f: &[u8]| -> [u8; FRAME_HEAD] { f[..FRAME_HEAD].try_into().unwrap() };
        assert_eq!(frame_length(&head(&f)), Some(f.len()));
        assert_eq!(frame_length(&[0u8; FRAME_HEAD]), None);
        // A total length the buffer cannot hold, or shorter than the IPv4
        // header, is no length.
        let mut bad = f.to_vec();
        bad[ETH_HEADER_LEN + 2..ETH_HEADER_LEN + 4].copy_from_slice(&4339u16.to_be_bytes());
        assert_eq!(frame_length(&head(&bad)), None);
        bad[ETH_HEADER_LEN + 2..ETH_HEADER_LEN + 4].copy_from_slice(&4338u16.to_be_bytes());
        assert_eq!(frame_length(&head(&bad)), Some(4352));
        bad[ETH_HEADER_LEN + 2..ETH_HEADER_LEN + 4].copy_from_slice(&19u16.to_be_bytes());
        assert_eq!(frame_length(&head(&bad)), None);
    }
}
