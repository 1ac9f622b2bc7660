//! Behavioural NIC models (Intel i40e, Corundum, e1000).
//!
//! All three share the descriptor-ring data path implemented here and differ
//! in the driver-visible completion and interrupt mechanisms:
//!
//! | Variant   | RX/TX completion signalling              | Interrupts          |
//! |-----------|------------------------------------------|---------------------|
//! | I40e      | descriptor write-back (DD bit in memory) | MSI-X, ITR throttle |
//! | E1000     | descriptor write-back (DD bit in memory) | MSI-X + ICR readout |
//! | Corundum  | head-index register read via MMIO (§8.1) | MSI-X, immediate    |
//!
//! The Corundum difference is the root cause the paper's §8.1 case study
//! identifies: discovering completions through MMIO reads stalls the CPU for
//! a full PCIe round trip per batch, so doubling the PCIe latency hurts
//! Corundum throughput while leaving the i40e unaffected.

use std::collections::VecDeque;

use simbricks_base::pktbuf::PktBuf;
use simbricks_base::snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use simbricks_base::{Kernel, Model, OwnedMsg, PortId, SimTime, SyncLookahead};
use simbricks_eth::{send_packet_buf, serialization_delay, EthPacket};
use simbricks_pcie::{DevToHost, DeviceInfo, HostToDev};

use crate::nicbm::{DmaEngine, IntModeration};
use crate::regs::*;

/// Which NIC the behavioural model emulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NicVariant {
    I40e,
    Corundum,
    E1000,
}

/// Static NIC configuration.
#[derive(Clone, Copy, Debug)]
pub struct NicConfig {
    pub variant: NicVariant,
    /// Ethernet port line rate.
    pub eth_bandwidth_bps: u64,
    /// Default interrupt throttling interval (drivers can override via ITR).
    pub default_itr: SimTime,
    /// Extra per-packet processing latency inside the NIC data path.
    pub processing_latency: SimTime,
}

impl NicConfig {
    pub fn i40e() -> Self {
        NicConfig {
            variant: NicVariant::I40e,
            eth_bandwidth_bps: simbricks_base::bw::B40G,
            default_itr: SimTime::from_us(2),
            processing_latency: SimTime::from_ns(300),
        }
    }
    pub fn corundum() -> Self {
        NicConfig {
            variant: NicVariant::Corundum,
            eth_bandwidth_bps: simbricks_base::bw::B100G,
            default_itr: SimTime::ZERO,
            processing_latency: SimTime::from_ns(400),
        }
    }
    pub fn e1000() -> Self {
        NicConfig {
            variant: NicVariant::E1000,
            eth_bandwidth_bps: simbricks_base::bw::GBPS,
            default_itr: SimTime::ZERO,
            processing_latency: SimTime::from_ns(500),
        }
    }
}

/// Counters for reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct NicStats {
    pub tx_packets: u64,
    pub tx_bytes: u64,
    pub rx_packets: u64,
    pub rx_bytes: u64,
    pub rx_dropped_no_buffer: u64,
    pub interrupts: u64,
    pub mmio_reads: u64,
    pub mmio_writes: u64,
}

/// DMA contexts of the data path.
#[derive(Clone)]
enum DmaCtx {
    TxDescFetch { idx: u32 },
    TxBufFetch { idx: u32, tso: bool },
    TxWriteback,
    RxDescFetch { idx: u32, frame: PktBuf },
    RxDataWrite { idx: u32, len: u16 },
    RxWriteback { idx: u32 },
}

/// How many descriptor/buffer DMA operations the NIC keeps in flight per
/// direction. Real NICs pipeline descriptor prefetches and payload DMA
/// aggressively, which is what makes their throughput largely insensitive to
/// the PCIe round-trip latency (§8.1: doubling the PCIe latency leaves i40e
/// throughput unchanged).
const DMA_PIPELINE_DEPTH: u32 = 16;

/// Frames the NIC can buffer internally while waiting for receive
/// descriptors (packets beyond this are tail-dropped).
pub(crate) const RX_FIFO_FRAMES: usize = 64;

#[derive(Default)]
struct QueuePair {
    tx_base: u64,
    tx_len: u32,
    tx_tail: u32,
    tx_head: u32,
    /// Next TX descriptor index to fetch (runs ahead of `tx_head` by the
    /// number of in-flight TX operations).
    tx_fetch_next: u32,
    tx_inflight: u32,
    rx_base: u64,
    rx_len: u32,
    rx_tail: u32,
    rx_head: u32,
    /// Next RX descriptor index to consume (runs ahead of `rx_head`).
    rx_fetch_next: u32,
    rx_inflight: u32,
}

impl QueuePair {
    /// TX descriptors posted by the driver but not yet fetched.
    fn tx_fetchable(&self) -> bool {
        self.tx_len > 0 && self.tx_fetch_next != self.tx_tail
    }
    /// RX descriptors posted by the driver but not yet consumed by a fetch.
    fn rx_buffer_available(&self) -> bool {
        self.rx_len > 0 && self.rx_fetch_next != self.rx_tail
    }
}

const TOK_TX_DONE: u64 = 1 << 56;
const TOK_ITR: u64 = 2 << 56;

/// The shared behavioural NIC model. Port 0 must be the PCIe channel to the
/// host simulator, port 1 the Ethernet channel to the network simulator.
pub struct BehavioralNic {
    cfg: NicConfig,
    enabled: bool,
    mac: u64,
    flags: u64,
    icr: u64,
    /// Wire MSS for TCP segmentation offload (0 = TSO disabled). Programmed
    /// by the driver through [`Q_TSO_MSS`]; only honored by the i40e model.
    tso_mss: u32,
    queue: QueuePair,
    dma: DmaEngine<DmaCtx>,
    itr: IntModeration,
    /// Frames fetched from host memory, waiting for the egress link
    /// (pooled buffers handed on by refcount move, never copied).
    tx_fifo: VecDeque<PktBuf>,
    tx_busy_until: SimTime,
    tx_xmit_scheduled: bool,
    /// Frames received from the network, waiting for RX descriptors/DMA
    /// (pooled buffers, zero-copy from the Ethernet channel).
    rx_fifo: VecDeque<PktBuf>,
    stats: NicStats,
    pcie_port: PortId,
    eth_port: PortId,
}

impl BehavioralNic {
    pub fn new(cfg: NicConfig) -> Self {
        // Ports are fixed by convention: 0 = PCIe, 1 = Ethernet.
        let pcie_port = PortId(0);
        let eth_port = PortId(1);
        BehavioralNic {
            cfg,
            enabled: false,
            mac: 0,
            flags: 0,
            icr: 0,
            tso_mss: 0,
            queue: QueuePair::default(),
            dma: DmaEngine::new(pcie_port),
            itr: IntModeration::new(pcie_port, 0, cfg.default_itr),
            tx_fifo: VecDeque::new(),
            tx_busy_until: SimTime::ZERO,
            tx_xmit_scheduled: false,
            rx_fifo: VecDeque::new(),
            stats: NicStats::default(),
            pcie_port,
            eth_port,
        }
    }

    pub fn stats(&self) -> NicStats {
        self.stats
    }

    pub fn variant(&self) -> NicVariant {
        self.cfg.variant
    }

    fn device_info(&self) -> DeviceInfo {
        match self.cfg.variant {
            NicVariant::I40e => DeviceInfo::nic(ids::VENDOR_INTEL, ids::DEVICE_I40E, BAR0_SIZE, 64),
            NicVariant::E1000 => {
                DeviceInfo::nic(ids::VENDOR_INTEL, ids::DEVICE_E1000, BAR0_SIZE, 1)
            }
            NicVariant::Corundum => {
                DeviceInfo::nic(ids::VENDOR_CORUNDUM, ids::DEVICE_CORUNDUM, BAR0_SIZE, 32)
            }
        }
    }

    // ------------------------------------------------------------------
    // Register file
    // ------------------------------------------------------------------

    fn reg_read(&mut self, offset: u64) -> u64 {
        self.stats.mmio_reads += 1;
        match offset {
            REG_CTRL => self.enabled as u64,
            REG_NQUEUES => 1,
            REG_FLAGS => self.flags,
            REG_MAC => self.mac,
            REG_ICR => {
                let v = self.icr;
                self.icr = 0; // read-to-clear
                v
            }
            o if o >= QUEUE_BASE => match o - QUEUE_BASE {
                Q_TX_BASE => self.queue.tx_base,
                Q_TX_LEN => self.queue.tx_len as u64,
                Q_TX_TAIL => self.queue.tx_tail as u64,
                Q_TX_HEAD => self.queue.tx_head as u64,
                Q_RX_BASE => self.queue.rx_base,
                Q_RX_LEN => self.queue.rx_len as u64,
                Q_RX_TAIL => self.queue.rx_tail as u64,
                Q_RX_HEAD => self.queue.rx_head as u64,
                Q_ITR => self.itr.interval.as_ns(),
                Q_TSO_MSS => self.tso_mss as u64,
                _ => 0,
            },
            _ => 0,
        }
    }

    fn reg_write(&mut self, k: &mut Kernel, offset: u64, value: u64) {
        self.stats.mmio_writes += 1;
        match offset {
            REG_CTRL => self.enabled = value & 1 != 0,
            REG_FLAGS => self.flags = value,
            REG_MAC => self.mac = value,
            o if o >= QUEUE_BASE => match o - QUEUE_BASE {
                Q_TX_BASE => self.queue.tx_base = value,
                Q_TX_LEN => self.queue.tx_len = value as u32,
                Q_TX_TAIL => {
                    self.queue.tx_tail = value as u32;
                    self.try_fetch_tx(k);
                }
                Q_RX_BASE => self.queue.rx_base = value,
                Q_RX_LEN => self.queue.rx_len = value as u32,
                Q_RX_TAIL => {
                    self.queue.rx_tail = value as u32;
                    self.try_start_rx(k);
                }
                Q_ITR => self.itr.interval = SimTime::from_ns(value),
                Q_TSO_MSS
                    // Only the i40e advertises TSO; other models ignore it.
                    if self.cfg.variant == NicVariant::I40e => {
                        self.tso_mss = value as u32;
                    }
                _ => {}
            },
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // TX path: doorbell -> descriptor fetch -> buffer fetch -> transmit ->
    // completion (write-back or head register) -> interrupt
    // ------------------------------------------------------------------

    fn try_fetch_tx(&mut self, k: &mut Kernel) {
        if !self.enabled {
            return;
        }
        // Pipeline: keep several descriptor fetches in flight at once.
        while self.queue.tx_inflight < DMA_PIPELINE_DEPTH && self.queue.tx_fetchable() {
            let idx = self.queue.tx_fetch_next % self.queue.tx_len.max(1);
            let addr = self.queue.tx_base + idx as u64 * DESC_SIZE as u64;
            self.queue.tx_fetch_next = (self.queue.tx_fetch_next + 1) % self.queue.tx_len.max(1);
            self.queue.tx_inflight += 1;
            self.dma
                .read(k, addr, DESC_SIZE, DmaCtx::TxDescFetch { idx });
        }
    }

    fn tx_desc_fetched(&mut self, k: &mut Kernel, idx: u32, data: &[u8]) {
        let Some(desc) = Descriptor::from_bytes(data) else {
            self.queue.tx_inflight = self.queue.tx_inflight.saturating_sub(1);
            return;
        };
        let tso = desc.flags & DESC_TSO != 0;
        self.dma.read(
            k,
            desc.addr,
            desc.len as usize,
            DmaCtx::TxBufFetch { idx, tso },
        );
    }

    fn tx_buf_fetched(&mut self, k: &mut Kernel, idx: u32, tso: bool, frame: PktBuf) {
        // Segmentation offload: cut a TCP super-segment into wire segments
        // (built in place inside pooled buffers).
        let wire_frames = if tso && self.cfg.variant == NicVariant::I40e && self.tso_mss > 0 {
            segment_tso(k.pool(), &frame, self.tso_mss as usize).unwrap_or_else(|| vec![frame])
        } else {
            vec![frame]
        };
        // Queue the frame(s) for egress serialization.
        let now = k.now();
        for frame in wire_frames {
            let start = now.max(self.tx_busy_until) + self.cfg.processing_latency;
            let done = start + serialization_delay(frame.len(), self.cfg.eth_bandwidth_bps);
            self.tx_busy_until = done;
            self.tx_fifo.push_back(frame);
            self.tx_xmit_scheduled = true;
            k.schedule_at(done, TOK_TX_DONE);
        }

        // Complete the descriptor. DMA completions arrive in issue order, so
        // advancing the head here keeps it consistent with the ring order
        // even with several operations in flight.
        let desc_addr = self.queue.tx_base + idx as u64 * DESC_SIZE as u64;
        self.queue.tx_head = (self.queue.tx_head + 1) % self.queue.tx_len.max(1);
        self.queue.tx_inflight = self.queue.tx_inflight.saturating_sub(1);
        match self.cfg.variant {
            NicVariant::I40e | NicVariant::E1000 => {
                // Write DD back into the descriptor status field.
                let wb = Descriptor {
                    addr: 0,
                    len: 0,
                    flags: 0,
                    status: DESC_DD,
                };
                self.dma
                    .write(k, desc_addr + 8, &wb.to_bytes()[8..], DmaCtx::TxWriteback);
            }
            NicVariant::Corundum => {
                // Completion is discovered by the driver reading Q_TX_HEAD.
            }
        }
        self.icr |= ICR_TXQ0;
        self.raise_interrupt(k);
        // Chain: fetch the next pending descriptor.
        self.try_fetch_tx(k);
    }

    fn transmit_ready(&mut self, k: &mut Kernel) {
        self.tx_xmit_scheduled = false;
        if let Some(frame) = self.tx_fifo.pop_front() {
            self.stats.tx_packets += 1;
            self.stats.tx_bytes += frame.len() as u64;
            k.log("nic_tx", frame.len() as u64, 0);
            send_packet_buf(k, self.eth_port, frame);
        }
    }

    // ------------------------------------------------------------------
    // RX path: packet arrival -> descriptor fetch -> payload DMA write ->
    // completion -> interrupt
    // ------------------------------------------------------------------

    fn try_start_rx(&mut self, k: &mut Kernel) {
        if !self.enabled {
            return;
        }
        // Pipeline: start a descriptor fetch for every buffered frame as long
        // as posted descriptors and pipeline slots are available.
        while !self.rx_fifo.is_empty()
            && self.queue.rx_inflight < DMA_PIPELINE_DEPTH
            && self.queue.rx_buffer_available()
        {
            let frame = self.rx_fifo.pop_front().expect("checked non-empty");
            let idx = self.queue.rx_fetch_next % self.queue.rx_len.max(1);
            let addr = self.queue.rx_base + idx as u64 * DESC_SIZE as u64;
            self.queue.rx_fetch_next = (self.queue.rx_fetch_next + 1) % self.queue.rx_len.max(1);
            self.queue.rx_inflight += 1;
            self.dma
                .read(k, addr, DESC_SIZE, DmaCtx::RxDescFetch { idx, frame });
        }
    }

    fn rx_desc_fetched(&mut self, k: &mut Kernel, idx: u32, frame: PktBuf, data: &[u8]) {
        let Some(desc) = Descriptor::from_bytes(data) else {
            self.queue.rx_inflight = self.queue.rx_inflight.saturating_sub(1);
            return;
        };
        let len = frame.len() as u16;
        self.stats.rx_packets += 1;
        self.stats.rx_bytes += frame.len() as u64;
        self.dma
            .write(k, desc.addr, &frame, DmaCtx::RxDataWrite { idx, len });
    }

    fn rx_data_written(&mut self, k: &mut Kernel, idx: u32, len: u16) {
        let desc_addr = self.queue.rx_base + idx as u64 * DESC_SIZE as u64;
        match self.cfg.variant {
            NicVariant::I40e | NicVariant::E1000 => {
                let wb = Descriptor {
                    addr: 0,
                    len,
                    flags: DESC_EOP | DESC_CSUM_OK,
                    status: DESC_DD,
                };
                self.dma.write(
                    k,
                    desc_addr + 8,
                    &wb.to_bytes()[8..],
                    DmaCtx::RxWriteback { idx },
                );
            }
            NicVariant::Corundum => {
                self.rx_complete(k, idx);
            }
        }
    }

    fn rx_complete(&mut self, k: &mut Kernel, _idx: u32) {
        // DMA completions arrive in issue order, so the head advances in ring
        // order even with several receives in flight.
        self.queue.rx_head = (self.queue.rx_head + 1) % self.queue.rx_len.max(1);
        self.queue.rx_inflight = self.queue.rx_inflight.saturating_sub(1);
        self.icr |= ICR_RXQ0;
        self.raise_interrupt(k);
        k.log("nic_rx_compl", self.queue.rx_head as u64, 0);
        self.try_start_rx(k);
    }

    fn raise_interrupt(&mut self, k: &mut Kernel) {
        self.stats.interrupts += 1;
        if let Some(deadline) = self.itr.request(k) {
            k.schedule_at(deadline, TOK_ITR);
        }
    }
}

fn dma_ctx_snapshot(ctx: &DmaCtx, w: &mut SnapWriter) {
    match ctx {
        DmaCtx::TxDescFetch { idx } => {
            w.u8(0);
            w.u32(*idx);
        }
        DmaCtx::TxBufFetch { idx, tso } => {
            w.u8(1);
            w.u32(*idx);
            w.bool(*tso);
        }
        DmaCtx::TxWriteback => w.u8(2),
        DmaCtx::RxDescFetch { idx, frame } => {
            w.u8(3);
            w.u32(*idx);
            w.bytes(frame);
        }
        DmaCtx::RxDataWrite { idx, len } => {
            w.u8(4);
            w.u32(*idx);
            w.u16(*len);
        }
        DmaCtx::RxWriteback { idx } => {
            w.u8(5);
            w.u32(*idx);
        }
    }
}

fn dma_ctx_restore(r: &mut SnapReader) -> SnapResult<DmaCtx> {
    Ok(match r.u8()? {
        0 => DmaCtx::TxDescFetch { idx: r.u32()? },
        1 => DmaCtx::TxBufFetch {
            idx: r.u32()?,
            tso: r.bool()?,
        },
        2 => DmaCtx::TxWriteback,
        3 => DmaCtx::RxDescFetch {
            idx: r.u32()?,
            frame: PktBuf::from_vec(r.bytes()?),
        },
        4 => DmaCtx::RxDataWrite {
            idx: r.u32()?,
            len: r.u16()?,
        },
        5 => DmaCtx::RxWriteback { idx: r.u32()? },
        v => return Err(SnapError::Corrupt(format!("bad dma context tag {v}"))),
    })
}

impl Model for BehavioralNic {
    fn init(&mut self, k: &mut Kernel) {
        // Device discovery: announce ourselves to the host (INIT_DEV).
        let (ty, payload) = DevToHost::DevInfo(self.device_info()).encode();
        k.send(self.pcie_port, ty, &payload);
    }

    fn on_msg(&mut self, k: &mut Kernel, port: PortId, msg: OwnedMsg) {
        if port == self.eth_port {
            if let Some(pkt) = EthPacket::decode_owned(msg) {
                k.log("nic_rx", pkt.len() as u64, 0);
                if self.rx_fifo.len() >= RX_FIFO_FRAMES {
                    // Internal buffering exhausted: tail drop at the NIC.
                    self.stats.rx_dropped_no_buffer += 1;
                } else {
                    self.rx_fifo.push_back(pkt.frame);
                    self.try_start_rx(k);
                }
            }
            return;
        }
        // PCIe message from the host (zero-copy decode: bulk payloads are
        // slice views into the received buffer).
        match HostToDev::decode_buf(msg.ty, &msg.data) {
            Some(HostToDev::MmioRead {
                req_id,
                offset,
                len,
                ..
            }) => {
                let v = self.reg_read(offset);
                let data = PktBuf::from(&v.to_le_bytes()[..len.min(8)]);
                let (ty, p) = DevToHost::MmioComplete { req_id, data }.encode();
                k.send(self.pcie_port, ty, &p);
            }
            Some(HostToDev::MmioWrite {
                req_id,
                offset,
                data,
                ..
            }) => {
                let mut buf = [0u8; 8];
                let n = data.len().min(8);
                buf[..n].copy_from_slice(&data[..n]);
                self.reg_write(k, offset, u64::from_le_bytes(buf));
                let (ty, p) = DevToHost::MmioComplete {
                    req_id,
                    data: PktBuf::empty(),
                }
                .encode();
                k.send(self.pcie_port, ty, &p);
            }
            Some(HostToDev::DmaComplete { req_id, data }) => match self.dma.complete(req_id) {
                Some(DmaCtx::TxDescFetch { idx }) => self.tx_desc_fetched(k, idx, &data),
                Some(DmaCtx::TxBufFetch { idx, tso }) => self.tx_buf_fetched(k, idx, tso, data),
                Some(DmaCtx::TxWriteback) => {}
                Some(DmaCtx::RxDescFetch { idx, frame }) => {
                    self.rx_desc_fetched(k, idx, frame, &data)
                }
                Some(DmaCtx::RxDataWrite { idx, len }) => self.rx_data_written(k, idx, len),
                Some(DmaCtx::RxWriteback { idx }) => self.rx_complete(k, idx),
                None => {}
            },
            Some(HostToDev::IntStatus(_)) => {}
            None => {}
        }
    }

    fn on_timer(&mut self, k: &mut Kernel, token: u64) {
        match token & (0xffu64 << 56) {
            TOK_TX_DONE => self.transmit_ready(k),
            TOK_ITR => self.itr.on_timer(k),
            _ => {}
        }
    }

    // Frames leave the Ethernet port only from the TX-completion timer
    // (`transmit_ready`), and a received frame is DMAed to the host, never
    // echoed — so the Ethernet side declares zero lookahead and its promise
    // widens past its own pending input. The PCIe side stays undeclared: a
    // doorbell write hairpins into an immediate DMA read on the same link.
    fn sync_lookahead_on(&self, port: PortId) -> Option<SyncLookahead> {
        (port == self.eth_port).then_some(SyncLookahead::ExcludeSelf(SimTime::ZERO))
    }

    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        w.bool(self.enabled);
        w.u64(self.mac);
        w.u64(self.flags);
        w.u64(self.icr);
        w.u32(self.tso_mss);
        for v in [self.queue.tx_base, self.queue.rx_base] {
            w.u64(v);
        }
        for v in [
            self.queue.tx_len,
            self.queue.tx_tail,
            self.queue.tx_head,
            self.queue.tx_fetch_next,
            self.queue.tx_inflight,
            self.queue.rx_len,
            self.queue.rx_tail,
            self.queue.rx_head,
            self.queue.rx_fetch_next,
            self.queue.rx_inflight,
        ] {
            w.u32(v);
        }
        self.dma.snapshot_with(w, dma_ctx_snapshot)?;
        self.itr.snapshot(w)?;
        w.usize(self.tx_fifo.len());
        for f in &self.tx_fifo {
            w.bytes(f);
        }
        w.time(self.tx_busy_until);
        w.bool(self.tx_xmit_scheduled);
        w.usize(self.rx_fifo.len());
        for f in &self.rx_fifo {
            w.bytes(f);
        }
        for v in [
            self.stats.tx_packets,
            self.stats.tx_bytes,
            self.stats.rx_packets,
            self.stats.rx_bytes,
            self.stats.rx_dropped_no_buffer,
            self.stats.interrupts,
            self.stats.mmio_reads,
            self.stats.mmio_writes,
        ] {
            w.u64(v);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.enabled = r.bool()?;
        self.mac = r.u64()?;
        self.flags = r.u64()?;
        self.icr = r.u64()?;
        self.tso_mss = r.u32()?;
        self.queue.tx_base = r.u64()?;
        self.queue.rx_base = r.u64()?;
        self.queue.tx_len = r.u32()?;
        self.queue.tx_tail = r.u32()?;
        self.queue.tx_head = r.u32()?;
        self.queue.tx_fetch_next = r.u32()?;
        self.queue.tx_inflight = r.u32()?;
        self.queue.rx_len = r.u32()?;
        self.queue.rx_tail = r.u32()?;
        self.queue.rx_head = r.u32()?;
        self.queue.rx_fetch_next = r.u32()?;
        self.queue.rx_inflight = r.u32()?;
        self.dma.restore_with(r, dma_ctx_restore)?;
        self.itr.restore(r)?;
        self.tx_fifo.clear();
        for _ in 0..r.usize()? {
            self.tx_fifo.push_back(PktBuf::from_vec(r.bytes()?));
        }
        self.tx_busy_until = r.time()?;
        self.tx_xmit_scheduled = r.bool()?;
        self.rx_fifo.clear();
        for _ in 0..r.usize()? {
            self.rx_fifo.push_back(PktBuf::from_vec(r.bytes()?));
        }
        self.stats.tx_packets = r.u64()?;
        self.stats.tx_bytes = r.u64()?;
        self.stats.rx_packets = r.u64()?;
        self.stats.rx_bytes = r.u64()?;
        self.stats.rx_dropped_no_buffer = r.u64()?;
        self.stats.interrupts = r.u64()?;
        self.stats.mmio_reads = r.u64()?;
        self.stats.mmio_writes = r.u64()?;
        Ok(())
    }
}

/// Cut a TCP super-segment into wire segments of at most `mss` payload bytes,
/// replicating headers and adjusting sequence numbers, lengths, and checksums
/// — what the TSO engine of a real NIC does. Returns `None` (caller transmits
/// the frame unmodified) if the frame is not an IPv4/TCP data frame or does
/// not exceed one wire segment.
fn segment_tso(pool: &simbricks_base::BufPool, frame: &PktBuf, mss: usize) -> Option<Vec<PktBuf>> {
    use simbricks_proto::{tcp_payload_range, FrameBuilder, ParsedFrame, ParsedL4, TcpFlags};
    if mss == 0 {
        return None;
    }
    let parsed = ParsedFrame::parse(frame).ok()?;
    let ip = parsed.ipv4?;
    let hdr = match &parsed.l4 {
        ParsedL4::Tcp { header, .. } => header,
        _ => return None,
    };
    // Zero-copy payload view into the super-segment buffer.
    let (pstart, pend) = tcp_payload_range(frame)?;
    let payload = frame.slice(pstart, pend);
    if payload.len() <= mss {
        return None;
    }
    let mut out = Vec::with_capacity(payload.len().div_ceil(mss));
    let mut offset = 0usize;
    while offset < payload.len() {
        let end = (offset + mss).min(payload.len());
        let last = end == payload.len();
        let mut seg_hdr = *hdr;
        seg_hdr.seq = hdr.seq.wrapping_add(offset as u32);
        if !last {
            // FIN/PSH only apply to the final wire segment.
            seg_hdr.flags = TcpFlags(seg_hdr.flags.0 & !(TcpFlags::FIN.0 | TcpFlags::PSH.0));
        }
        out.push(FrameBuilder::tcp_pooled(
            pool,
            parsed.eth.src,
            parsed.eth.dst,
            ip.src,
            ip.dst,
            ip.ecn,
            &seg_hdr,
            &payload[offset..end],
        ));
        offset = end;
    }
    Some(out)
}

/// Intel i40e/X710-style behavioural NIC.
pub struct I40eNic;
impl I40eNic {
    pub fn model() -> BehavioralNic {
        BehavioralNic::new(NicConfig::i40e())
    }
}

/// Corundum behavioural NIC.
pub struct CorundumNic;
impl CorundumNic {
    pub fn model() -> BehavioralNic {
        BehavioralNic::new(NicConfig::corundum())
    }
}

/// e1000-style behavioural NIC (the model extracted from gem5).
pub struct E1000Nic;
impl E1000Nic {
    pub fn model() -> BehavioralNic {
        BehavioralNic::new(NicConfig::e1000())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{channel_pair, ChannelParams, StepOutcome, MSG_SYNC};
    use simbricks_eth::MSG_ETH_PACKET;

    /// A miniature host: flat memory plus direct channel access, answering
    /// the NIC's DMA requests and issuing MMIO like a driver would.
    struct MiniHost {
        mem: Vec<u8>,
        pcie: simbricks_base::ChannelEnd,
        horizon: SimTime,
        next_req: u64,
        pub interrupts: u32,
    }

    impl MiniHost {
        fn new(pcie: simbricks_base::ChannelEnd) -> Self {
            MiniHost {
                mem: vec![0u8; 1 << 20],
                pcie,
                horizon: SimTime::from_us(1),
                next_req: 1,
                interrupts: 0,
            }
        }

        fn mmio_write(&mut self, offset: u64, value: u64) {
            let (ty, p) = HostToDev::MmioWrite {
                req_id: self.next_req,
                bar: 0,
                offset,
                data: value.to_le_bytes().to_vec().into(),
            }
            .encode();
            self.next_req += 1;
            self.pcie.send_raw(self.horizon, ty, &p).unwrap();
        }

        /// Answer outstanding NIC requests; returns received interrupts count.
        fn service(&mut self) {
            let mut replies = Vec::new();
            while let Some(m) = self.pcie.recv_raw() {
                match DevToHost::decode(m.ty, &m.data) {
                    Some(DevToHost::DmaRead { req_id, addr, len }) => {
                        let data = self.mem[addr as usize..addr as usize + len].to_vec();
                        replies.push(HostToDev::DmaComplete {
                            req_id,
                            data: data.into(),
                        });
                    }
                    Some(DevToHost::DmaWrite { req_id, addr, data }) => {
                        self.mem[addr as usize..addr as usize + data.len()].copy_from_slice(&data);
                        replies.push(HostToDev::DmaComplete {
                            req_id,
                            data: PktBuf::empty(),
                        });
                    }
                    Some(DevToHost::Interrupt { .. }) => self.interrupts += 1,
                    _ => {}
                }
            }
            for r in replies {
                let (ty, p) = r.encode();
                self.pcie.send_raw(self.horizon, ty, &p).unwrap();
            }
        }

        fn advance(&mut self, dt: SimTime) {
            self.horizon += dt;
            self.pcie.send_raw(self.horizon, MSG_SYNC, &[]).unwrap();
        }
    }

    fn run_nic(
        variant: NicVariant,
    ) -> (BehavioralNic, MiniHost, Vec<PktBuf>, simbricks_base::Kernel) {
        let cfg = match variant {
            NicVariant::I40e => NicConfig::i40e(),
            NicVariant::Corundum => NicConfig::corundum(),
            NicVariant::E1000 => NicConfig::e1000(),
        };
        let (nic_pcie, host_pcie) = channel_pair(ChannelParams::default_sync());
        let (nic_eth, mut net_eth) = channel_pair(ChannelParams::default_sync());
        let mut kernel = Kernel::new("nic", SimTime::from_ms(10));
        kernel.add_port(nic_pcie);
        kernel.add_port(nic_eth);
        let mut nic = BehavioralNic::new(cfg);
        let mut host = MiniHost::new(host_pcie);

        // Driver initialization: rings at fixed addresses, buffers behind them.
        const TX_RING: u64 = 0x1000;
        const RX_RING: u64 = 0x2000;
        const TX_BUF: u64 = 0x10000;
        const RX_BUF: u64 = 0x40000;
        host.mmio_write(REG_CTRL, 1);
        host.mmio_write(queue_reg(0, Q_TX_BASE), TX_RING);
        host.mmio_write(queue_reg(0, Q_TX_LEN), 64);
        host.mmio_write(queue_reg(0, Q_RX_BASE), RX_RING);
        host.mmio_write(queue_reg(0, Q_RX_LEN), 64);
        host.mmio_write(queue_reg(0, Q_ITR), 0);

        // Post 8 RX buffers.
        for i in 0..8u64 {
            let d = Descriptor {
                addr: RX_BUF + i * 2048,
                len: 2048,
                flags: 0,
                status: 0,
            };
            let off = (RX_RING + i * 16) as usize;
            host.mem[off..off + 16].copy_from_slice(&d.to_bytes());
        }
        host.mmio_write(queue_reg(0, Q_RX_TAIL), 8);

        // One TX packet: a 600-byte frame in host memory plus its descriptor.
        let frame: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        host.mem[TX_BUF as usize..TX_BUF as usize + 600].copy_from_slice(&frame);
        let d = Descriptor {
            addr: TX_BUF,
            len: 600,
            flags: DESC_EOP,
            status: 0,
        };
        host.mem[TX_RING as usize..TX_RING as usize + 16].copy_from_slice(&d.to_bytes());
        host.mmio_write(queue_reg(0, Q_TX_TAIL), 1);

        // Inject one RX packet from the network side (timestamped before the
        // first sync the test harness will emit, keeping the channel
        // timestamps monotonic).
        let rx_frame: Vec<u8> = (0..300).map(|i| (i % 7) as u8).collect();
        net_eth
            .send_raw(SimTime::from_us(1), MSG_ETH_PACKET, &rx_frame)
            .unwrap();

        // Drive everything for a while.
        let mut tx_out = Vec::new();
        for _ in 0..500 {
            if kernel.step(&mut nic, 128) == StepOutcome::Finished {
                break;
            }
            host.service();
            host.advance(SimTime::from_us(2));
            net_eth.send_raw(host.horizon, MSG_SYNC, &[]).unwrap();
            while let Some(m) = net_eth.recv_raw() {
                if m.ty == MSG_ETH_PACKET {
                    tx_out.push(m.data);
                }
            }
            if host.horizon > SimTime::from_ms(2) {
                break;
            }
        }
        (nic, host, tx_out, kernel)
    }

    #[test]
    fn i40e_tx_and_rx_datapath() {
        let (nic, host, tx_out, _k) = run_nic(NicVariant::I40e);
        // TX: the frame placed in host memory left on the Ethernet port.
        assert_eq!(tx_out.len(), 1);
        assert_eq!(tx_out[0].len(), 600);
        assert_eq!(tx_out[0][5], 5);
        // TX descriptor write-back: DD set in host memory.
        let txd = Descriptor::from_bytes(&host.mem[0x1000..0x1010]).unwrap();
        assert!(txd.has_dd(), "i40e writes DD back for TX");
        // RX: packet data landed in the first posted RX buffer.
        assert_eq!(
            &host.mem[0x40000..0x40000 + 300],
            (0..300)
                .map(|i| (i % 7) as u8)
                .collect::<Vec<_>>()
                .as_slice()
        );
        // RX descriptor write-back carries DD and the length.
        let rxd = Descriptor::from_bytes(&host.mem[0x2000..0x2010]).unwrap();
        assert!(rxd.has_dd());
        assert_eq!(rxd.len, 300);
        assert!(host.interrupts >= 1, "RX/TX raise interrupts");
        assert_eq!(nic.stats().tx_packets, 1);
        assert_eq!(nic.stats().rx_packets, 1);
    }

    #[test]
    fn corundum_reports_completions_via_head_registers_not_memory() {
        let (nic, host, tx_out, _k) = run_nic(NicVariant::Corundum);
        assert_eq!(tx_out.len(), 1);
        // No DD write-back in memory for Corundum.
        let rxd = Descriptor::from_bytes(&host.mem[0x2000..0x2010]).unwrap();
        assert!(!rxd.has_dd(), "Corundum does not write descriptors back");
        // But the RX data itself is there and the head index advanced.
        assert_eq!(host.mem[0x40000], 0);
        assert_eq!(host.mem[0x40001], 1);
        assert_eq!(nic.queue.rx_head, 1);
        assert_eq!(nic.queue.tx_head, 1);
        assert!(host.interrupts >= 1);
    }

    #[test]
    fn e1000_sets_icr_bits() {
        let (mut nic, _host, tx_out, _k) = run_nic(NicVariant::E1000);
        assert_eq!(tx_out.len(), 1);
        let icr = nic.reg_read(REG_ICR);
        assert!(icr & ICR_RXQ0 != 0, "RX cause latched");
        assert!(icr & ICR_TXQ0 != 0, "TX cause latched");
        // Read-to-clear semantics.
        assert_eq!(nic.reg_read(REG_ICR), 0);
    }

    #[test]
    fn rx_without_posted_buffers_is_dropped_once_the_fifo_fills() {
        let (nic_pcie, host_pcie) = channel_pair(ChannelParams::default_sync());
        let (nic_eth, mut net_eth) =
            channel_pair(ChannelParams::default_sync().with_queue_len(256));
        let mut kernel = Kernel::new("nic", SimTime::from_ms(1));
        kernel.add_port(nic_pcie);
        kernel.add_port(nic_eth);
        let mut nic = BehavioralNic::new(NicConfig::i40e());
        let mut host = MiniHost::new(host_pcie);
        host.mmio_write(REG_CTRL, 1);
        // No RX descriptors are ever posted: the NIC buffers up to its
        // internal FIFO capacity and tail-drops the rest.
        let burst = RX_FIFO_FRAMES as u64 + 10;
        for _ in 0..burst {
            net_eth
                .send_raw(SimTime::from_us(2), MSG_ETH_PACKET, &[1, 2, 3, 4])
                .unwrap();
        }
        for _ in 0..80 {
            if kernel.step(&mut nic, 256) == StepOutcome::Finished {
                break;
            }
            host.service();
            host.advance(SimTime::from_us(5));
            net_eth.send_raw(host.horizon, MSG_SYNC, &[]).unwrap();
        }
        assert_eq!(nic.stats().rx_dropped_no_buffer, 10);
        assert_eq!(nic.stats().rx_packets, 0, "nothing was delivered to memory");
    }

    #[test]
    fn tso_segmentation_preserves_payload_flags_and_checksums() {
        use simbricks_proto::{
            FrameBuilder, Ipv4Addr, MacAddr, ParsedFrame, ParsedL4, TcpFlags, TcpHeader,
        };
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
        let hdr = TcpHeader {
            src_port: 1111,
            dst_port: 2222,
            seq: 1_000_000,
            ack: 42,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 4096,
            mss: None,
            wscale: None,
        };
        let super_frame = FrameBuilder::tcp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            simbricks_proto::Ecn::Ect0,
            &hdr,
            &payload,
        );
        let pool = simbricks_base::BufPool::new();
        let super_frame: PktBuf = super_frame.into();
        let segs = segment_tso(&pool, &super_frame, 1460).expect("segmented");
        assert_eq!(segs.len(), 4, "5000 bytes at 1460 MSS = 4 wire segments");
        let mut reassembled = Vec::new();
        for (i, seg) in segs.iter().enumerate() {
            let p = ParsedFrame::parse(seg).unwrap();
            assert!(p.checksums_ok, "segment {i} has valid checksums");
            let ip = p.ipv4.unwrap();
            assert_eq!(ip.ecn, simbricks_proto::Ecn::Ect0, "ECN preserved");
            match p.l4 {
                ParsedL4::Tcp { header, payload } => {
                    assert_eq!(
                        header.seq,
                        hdr.seq.wrapping_add(reassembled.len() as u32),
                        "sequence numbers advance by payload"
                    );
                    let is_last = i == segs.len() - 1;
                    assert_eq!(
                        header.flags.contains(TcpFlags::PSH),
                        is_last,
                        "PSH only on the final segment"
                    );
                    assert!(payload.len() <= 1460);
                    reassembled.extend_from_slice(&payload);
                }
                _ => panic!("not tcp"),
            }
        }
        assert_eq!(reassembled, payload, "payload is preserved byte for byte");
        // Frames at or below the MSS, or non-TCP frames, are left alone.
        assert!(segment_tso(&pool, &segs[0], 1460).is_none());
        assert!(segment_tso(&pool, &PktBuf::from(&[0u8; 40]), 1460).is_none());
        assert!(segment_tso(&pool, &super_frame, 0).is_none());
    }

    /// The TSO engine preserves the byte stream exactly for arbitrary
    /// payload sizes and MSS values, respects the MSS on every wire segment,
    /// and produces verifiable checksums.
    #[test]
    fn tso_roundtrip() {
        use simbricks_base::impair::check_cases;
        use simbricks_proto::{
            FrameBuilder, Ipv4Addr, MacAddr, ParsedFrame, ParsedL4, TcpFlags, TcpHeader,
        };

        check_cases("tso_roundtrip", 0x750, 256, |rng| {
            let payload_len = 1 + rng.below(5999) as usize;
            let mss = 100 + rng.below(1900) as usize;
            let seq = rng.next_u64() as u32;
            let payload: Vec<u8> = (0..payload_len).map(|i| (i % 241) as u8).collect();
            let hdr = TcpHeader {
                src_port: 7,
                dst_port: 8,
                seq,
                ack: 99,
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: 2000,
                mss: None,
                wscale: None,
            };
            let frame = FrameBuilder::tcp(
                MacAddr::from_index(1),
                MacAddr::from_index(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                simbricks_proto::Ecn::Ect0,
                &hdr,
                &payload,
            );
            let pool = simbricks_base::BufPool::new();
            let Some(segs) = segment_tso(&pool, &frame.into(), mss) else {
                assert!(payload_len <= mss, "only sub-MSS frames pass through");
                return;
            };
            assert!(payload_len > mss);
            assert_eq!(segs.len(), payload_len.div_ceil(mss));
            let mut bytes = Vec::new();
            for (i, seg) in segs.iter().enumerate() {
                let p = ParsedFrame::parse(seg).unwrap();
                assert!(p.checksums_ok);
                let ParsedL4::Tcp {
                    header,
                    payload: chunk,
                } = p.l4
                else {
                    panic!("segment is not TCP");
                };
                assert!(chunk.len() <= mss);
                assert_eq!(header.seq, seq.wrapping_add(bytes.len() as u32));
                assert_eq!(header.flags.contains(TcpFlags::PSH), i == segs.len() - 1);
                bytes.extend_from_slice(&chunk);
            }
            assert_eq!(bytes, payload);
        });
    }

    #[test]
    fn interrupt_moderation_reduces_interrupt_count() {
        // Send a burst of RX packets with a large ITR: fewer interrupts than
        // packets must reach the host.
        let (nic_pcie, host_pcie) = channel_pair(ChannelParams::default_sync());
        let (nic_eth, mut net_eth) = channel_pair(ChannelParams::default_sync());
        let mut kernel = Kernel::new("nic", SimTime::from_ms(10));
        kernel.add_port(nic_pcie);
        kernel.add_port(nic_eth);
        let mut nic = BehavioralNic::new(NicConfig::i40e());
        let mut host = MiniHost::new(host_pcie);
        host.mmio_write(REG_CTRL, 1);
        host.mmio_write(queue_reg(0, Q_RX_BASE), 0x2000);
        host.mmio_write(queue_reg(0, Q_RX_LEN), 64);
        host.mmio_write(queue_reg(0, Q_ITR), 50_000); // 50 us
        for i in 0..32u64 {
            let d = Descriptor {
                addr: 0x40000 + i * 2048,
                len: 2048,
                flags: 0,
                status: 0,
            };
            let off = (0x2000 + i * 16) as usize;
            host.mem[off..off + 16].copy_from_slice(&d.to_bytes());
        }
        host.mmio_write(queue_reg(0, Q_RX_TAIL), 32);
        for _ in 0..16u64 {
            net_eth
                .send_raw(SimTime::from_us(2), MSG_ETH_PACKET, &[9u8; 200])
                .unwrap();
        }
        for _ in 0..300 {
            if kernel.step(&mut nic, 128) == StepOutcome::Finished {
                break;
            }
            host.service();
            host.advance(SimTime::from_us(2));
            net_eth.send_raw(host.horizon, MSG_SYNC, &[]).unwrap();
            if host.horizon > SimTime::from_ms(1) {
                break;
            }
        }
        assert_eq!(nic.stats().rx_packets, 16);
        assert!(
            host.interrupts < 16,
            "moderation coalesces interrupts ({} seen)",
            host.interrupts
        );
        assert!(host.interrupts >= 1);
    }
}
