//! The host component model: CPU, memory, PCIe adapter, interrupts, OS-lite
//! kernel, network stack and application runtime in one SimBricks component.

use std::collections::BTreeMap;

use simbricks_base::snap::{SnapError, SnapReader, SnapResult, SnapWriter, Snapshot};
use simbricks_base::{Kernel, Model, OwnedMsg, PktBuf, PortId, SimTime, SyncLookahead};
use simbricks_netstack::{CongestionControl, NetStack, StackConfig};
use simbricks_pcie::{DevToHost, HostToDev, IntStatus, OutstandingRequests};
use simbricks_proto::{Ipv4Addr, MacAddr};

use crate::app::{Application, NullApp, OsServices};
use crate::driver::{DriverOp, DriverOutcome, NicDriver, NicModelKind, ReadPurpose};
use crate::mem::PhysMem;
use crate::CostProfile;

/// Which host simulator this component stands in for (§6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostKind {
    /// Detailed, synchronized timing host (gem5 TimingSimple stand-in).
    Gem5Timing,
    /// Instruction-counting host (QEMU icount stand-in), synchronized.
    QemuTiming,
    /// Functional host (QEMU+KVM stand-in), intended for unsynchronized runs.
    QemuKvm,
}

impl HostKind {
    /// Whether this host kind is meant to run with synchronized channels.
    pub fn synchronized(&self) -> bool {
        !matches!(self, HostKind::QemuKvm)
    }
}

/// Static configuration of a simulated host.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    pub kind: HostKind,
    pub ip: Ipv4Addr,
    pub mac: MacAddr,
    pub nic: NicModelKind,
    pub congestion: CongestionControl,
    pub mtu: usize,
    pub mem_bytes: usize,
    /// Interrupt throttling the driver programs into the NIC (ns).
    pub itr_ns: u64,
    /// Virtual time after device discovery before the application starts
    /// (stands in for the guest boot we do not simulate instruction by
    /// instruction).
    pub boot_delay: SimTime,
    /// Periodic OS housekeeping tick (more detailed hosts tick more often,
    /// which also makes them costlier to simulate). Zero disables it.
    pub os_tick: SimTime,
    /// Terminate the component as soon as the application reports done
    /// (useful for unsynchronized emulation runs).
    pub quit_when_done: bool,
    /// Seed for the deterministic interrupt-scheduling jitter.
    pub seed: u64,
}

impl HostConfig {
    /// Build a configuration for host number `index` (addresses derived
    /// deterministically).
    pub fn new(kind: HostKind, index: u32) -> Self {
        let (os_tick, itr) = match kind {
            HostKind::Gem5Timing => (SimTime::from_us(50), 2_000),
            HostKind::QemuTiming => (SimTime::from_us(200), 2_000),
            HostKind::QemuKvm => (SimTime::ZERO, 0),
        };
        HostConfig {
            kind,
            ip: Ipv4Addr::from_index(index),
            mac: MacAddr::from_index(index as u64 + 1),
            nic: NicModelKind::I40e,
            congestion: CongestionControl::Reno,
            mtu: 1500,
            mem_bytes: 8 << 20,
            itr_ns: itr,
            boot_delay: SimTime::from_us(100),
            os_tick,
            quit_when_done: false,
            seed: 0x5eed_0000 + index as u64,
        }
    }

    pub fn with_nic(mut self, nic: NicModelKind) -> Self {
        self.nic = nic;
        self
    }

    pub fn with_congestion(mut self, cc: CongestionControl) -> Self {
        self.congestion = cc;
        self
    }

    pub fn with_mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
        self
    }

    pub fn cost_profile(&self) -> CostProfile {
        match self.kind {
            HostKind::Gem5Timing => CostProfile::gem5_timing(),
            HostKind::QemuTiming => CostProfile::qemu_timing(),
            HostKind::QemuKvm => CostProfile::qemu_kvm(),
        }
    }
}

/// Counters reported by a host after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostStats {
    pub interrupts: u64,
    pub rx_frames: u64,
    pub tx_frames: u64,
    pub mmio_read_stalls: u64,
    pub mmio_writes: u64,
    /// Wire frames absorbed into a GRO super-segment before stack processing.
    pub gro_merged: u64,
    /// Total modelled CPU busy time.
    pub cpu_busy: SimTime,
    pub os_ticks: u64,
}

enum MmioPurpose {
    Posted,
    DriverRead(ReadPurpose),
}

enum Work {
    Irq,
    StackTimer,
    AppTimer(u64),
    AppStart,
    OsTick,
    // Deferred PCIe reactions: everything the host emits in response to a
    // PCIe message is scheduled at least `CostProfile::pcie_reaction` after
    // the message arrived (root complex + memory controller traversal). The
    // delay is what makes the host's Chandy–Misra reaction lookahead
    // declaration sound.
    /// Driver init + interrupt negotiation after PCI enumeration.
    DevInit,
    /// DMA read completion: read guest memory and send the data back.
    DmaReadReply {
        req_id: u64,
        addr: u64,
        len: usize,
    },
    /// DMA write completion ack (the posted write itself landed on arrival).
    DmaWriteReply {
        req_id: u64,
    },
    /// Driver state machine resuming after a completed MMIO read.
    MmioReaction {
        purpose: ReadPurpose,
        value: u64,
    },
}

const TOK_WORK: u64 = 1 << 56;

/// One simulated host. Port 0 of its kernel must be the PCIe channel to its
/// NIC simulator.
pub struct HostModel {
    cfg: HostConfig,
    cost: CostProfile,
    mem: PhysMem,
    driver: NicDriver,
    stack: NetStack,
    app: Option<Box<dyn Application>>,
    app_done: bool,
    cpu_busy_until: SimTime,
    pcie: PortId,
    mmio_pending: OutstandingRequests<MmioPurpose>,
    /// Deferred work items keyed by id. Ordered map: snapshot encoding and
    /// any future drain iterate in id order structurally, so hash-map
    /// iteration order can never leak into the event log.
    works: BTreeMap<u64, Work>,
    next_work: u64,
    stack_timer_at: Option<SimTime>,
    /// NAPI-style interrupt coalescing: while an IRQ work item is pending
    /// (scheduled but not yet executed), further device interrupts do not
    /// enqueue additional work — the poll run will reap everything at once.
    /// Without this a saturated receiver accumulates an unbounded backlog of
    /// per-interrupt CPU charges, which no real kernel does.
    irq_work_pending: bool,
    rng: u64,
    stats: HostStats,
}

impl HostModel {
    pub fn new(cfg: HostConfig, app: Box<dyn Application>) -> Self {
        let driver = NicDriver::new(cfg.nic, cfg.itr_ns, cfg.mtu);
        let stack_cfg = StackConfig {
            ip: cfg.ip,
            mac: cfg.mac,
            mtu: cfg.mtu,
            congestion: cfg.congestion,
            // TCP segmentation offload when the NIC supports it (i40e): the
            // stack hands super-segments to the driver and the NIC cuts them
            // into wire segments, amortizing per-segment host costs.
            tso_size: if driver.supports_tso() {
                crate::driver::TSO_SIZE
            } else {
                0
            },
            ..StackConfig::default()
        };
        let mut stack = NetStack::new(stack_cfg);
        stack.rx_checksum_offload = true;
        HostModel {
            cost: cfg.cost_profile(),
            mem: PhysMem::new(cfg.mem_bytes),
            driver,
            stack,
            app: Some(app),
            app_done: false,
            cpu_busy_until: SimTime::ZERO,
            pcie: PortId(0),
            mmio_pending: OutstandingRequests::new(),
            works: BTreeMap::new(),
            next_work: 1,
            stack_timer_at: None,
            irq_work_pending: false,
            rng: cfg.seed.wrapping_mul(0x9e3779b97f4a7c15) | 1,
            stats: HostStats::default(),
            cfg,
        }
    }

    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    pub fn stats(&self) -> HostStats {
        self.stats
    }

    pub fn app_done(&self) -> bool {
        self.app_done
    }

    /// The application's result line plus host counters.
    pub fn report(&self) -> String {
        let app = self.app.as_ref().map(|a| a.report()).unwrap_or_default();
        format!(
            "{app} [irqs={} rx={} tx={} mmio_stalls={}]",
            self.stats.interrupts,
            self.stats.rx_frames,
            self.stats.tx_frames,
            self.stats.mmio_read_stalls
        )
    }

    pub fn app_report(&self) -> String {
        self.app.as_ref().map(|a| a.report()).unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // CPU accounting
    // ------------------------------------------------------------------

    fn charge(&mut self, now: SimTime, d: SimTime) {
        let start = now.max(self.cpu_busy_until);
        self.cpu_busy_until = start + d;
        self.stats.cpu_busy += d;
    }

    fn jitter(&mut self) -> SimTime {
        if self.cost.sched_jitter_max == SimTime::ZERO {
            return SimTime::ZERO;
        }
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        SimTime::from_ps(self.rng % (self.cost.sched_jitter_max.as_ps() + 1))
    }

    fn defer(&mut self, k: &mut Kernel, work: Work, at: SimTime) {
        let id = self.next_work;
        self.next_work += 1;
        self.works.insert(id, work);
        k.schedule_at(at.max(k.now()), TOK_WORK | id);
    }

    // ------------------------------------------------------------------
    // PCIe plumbing
    // ------------------------------------------------------------------

    fn execute_ops(&mut self, k: &mut Kernel, ops: Vec<DriverOp>) {
        let now = k.now();
        for op in ops {
            match op {
                DriverOp::MmioWrite { offset, value } => {
                    self.charge(now, self.cost.mmio_write);
                    self.stats.mmio_writes += 1;
                    let req_id = self.mmio_pending.insert(MmioPurpose::Posted);
                    let (ty, p) = HostToDev::MmioWrite {
                        req_id,
                        bar: 0,
                        offset,
                        data: value.to_le_bytes().to_vec().into(),
                    }
                    .encode();
                    k.send(self.pcie, ty, &p);
                }
                DriverOp::MmioRead { offset, purpose } => {
                    self.stats.mmio_read_stalls += 1;
                    let req_id = self.mmio_pending.insert(MmioPurpose::DriverRead(purpose));
                    let (ty, p) = HostToDev::MmioRead {
                        req_id,
                        bar: 0,
                        offset,
                        len: 8,
                    }
                    .encode();
                    k.send(self.pcie, ty, &p);
                }
            }
        }
    }

    fn handle_outcome(&mut self, k: &mut Kernel, outcome: DriverOutcome) {
        self.execute_ops(k, outcome.ops);
        if !outcome.frames.is_empty() {
            self.handle_rx_frames(k, outcome.frames);
        }
    }

    fn handle_rx_frames(&mut self, k: &mut Kernel, frames: Vec<PktBuf>) {
        let now = k.now();
        // Driver/DMA costs are paid per wire frame.
        for frame in &frames {
            self.charge(
                now,
                self.cost.per_packet
                    + SimTime::from_ps(self.cost.per_byte.as_ps() * frame.len() as u64),
            );
            self.stats.rx_frames += 1;
            k.log("host_rx", frame.len() as u64, 0);
        }
        // GRO: coalesce back-to-back TCP segments of the same flow, so the
        // protocol-stack cost is paid per coalesced segment — the software
        // offload that lets one core keep up with line rate.
        let gro = simbricks_netstack::gro::coalesce(self.stack.pool(), frames);
        self.stats.gro_merged += gro.merged as u64;
        for frame in gro.frames {
            self.charge(now, self.cost.per_segment);
            self.stack.handle_frame(now, &frame);
        }
        self.process_socket_events(k);
        self.flush_stack(k);
    }

    // ------------------------------------------------------------------
    // OS / application plumbing
    // ------------------------------------------------------------------

    fn run_app<F>(&mut self, k: &mut Kernel, f: F)
    where
        F: FnOnce(&mut dyn Application, &mut OsServices),
    {
        let now = k.now();
        let mut app = self.app.take().unwrap_or_else(|| Box::new(NullApp));
        let mut timer_reqs = Vec::new();
        let mut extra = SimTime::ZERO;
        let mut finished = self.app_done;
        let mut syscalls = 0u32;
        {
            let mut os = OsServices {
                now,
                stack: &mut self.stack,
                timer_requests: &mut timer_reqs,
                extra_cpu: &mut extra,
                finished: &mut finished,
                syscalls: &mut syscalls,
            };
            f(app.as_mut(), &mut os);
        }
        self.app = Some(app);
        self.app_done = finished;
        let cost = self.cost.app_callback
            + extra
            + SimTime::from_ps(self.cost.syscall.as_ps() * syscalls as u64);
        self.charge(now, cost);
        for (at, tok) in timer_reqs {
            self.defer(k, Work::AppTimer(tok), at);
        }
        self.flush_stack(k);
        if self.app_done && self.cfg.quit_when_done {
            k.quit();
        }
    }

    fn process_socket_events(&mut self, k: &mut Kernel) {
        loop {
            let events = self.stack.poll_events();
            if events.is_empty() {
                break;
            }
            for ev in events {
                self.run_app(k, |app, os| app.on_socket_event(os, ev));
            }
        }
    }

    fn flush_stack(&mut self, k: &mut Kernel) {
        let now = k.now();
        while let Some(frame) = self.stack.poll_transmit() {
            self.charge(
                now,
                self.cost.per_segment
                    + SimTime::from_ps(self.cost.per_byte.as_ps() * frame.len() as u64),
            );
            self.stats.tx_frames += 1;
            k.log("host_tx", frame.len() as u64, 0);
            let ops = self.driver.transmit(&mut self.mem, &frame);
            self.execute_ops(k, ops);
        }
        // Keep exactly one stack-timer work item armed for the earliest
        // protocol deadline (retransmissions, delayed ACKs).
        if let Some(t) = self.stack.poll_timeout() {
            let needs = match self.stack_timer_at {
                Some(existing) => t < existing,
                None => true,
            };
            if needs {
                self.stack_timer_at = Some(t);
                self.defer(k, Work::StackTimer, t);
            }
        }
    }

    fn run_work(&mut self, k: &mut Kernel, work: Work) {
        let now = k.now();
        match work {
            Work::Irq => {
                // Re-enable "interrupts" before polling: anything that
                // arrives while we process this batch schedules a new poll.
                self.irq_work_pending = false;
                self.charge(now, self.cost.irq_overhead);
                let outcome = self.driver.on_interrupt(&mut self.mem);
                self.handle_outcome(k, outcome);
            }
            Work::StackTimer => {
                self.stack_timer_at = None;
                self.charge(now, self.cost.per_segment);
                self.stack.on_timer(now);
                self.process_socket_events(k);
                self.flush_stack(k);
            }
            Work::AppTimer(tok) => {
                self.run_app(k, |app, os| app.on_timer(os, tok));
                self.process_socket_events(k);
            }
            Work::AppStart => {
                self.run_app(k, |app, os| app.start(os));
                self.process_socket_events(k);
            }
            Work::OsTick => {
                self.stats.os_ticks += 1;
                self.charge(now, self.cost.irq_overhead);
                if self.cfg.os_tick > SimTime::ZERO {
                    let at = now + self.cfg.os_tick;
                    self.defer(k, Work::OsTick, at);
                }
            }
            Work::DevInit => {
                // PCI enumeration found the NIC: initialize the driver, tell
                // the device which interrupt mechanisms are enabled, then
                // start the application after the boot delay.
                let ops = self.driver.init(&mut self.mem);
                let (ty, p) = HostToDev::IntStatus(IntStatus {
                    legacy: false,
                    msi: false,
                    msix: true,
                })
                .encode();
                k.send(self.pcie, ty, &p);
                self.execute_ops(k, ops);
                let at = now + self.cfg.boot_delay;
                self.defer(k, Work::AppStart, at);
            }
            Work::DmaReadReply { req_id, addr, len } => {
                // One write pass: guest memory straight into a pooled
                // message envelope, no intermediate vector.
                let (ty, p) = HostToDev::encode_dma_complete_with(k.pool(), req_id, len, |dst| {
                    self.mem.read_into(addr, dst)
                });
                k.send_buf(self.pcie, ty, p);
            }
            Work::DmaWriteReply { req_id } => {
                let (ty, p) = HostToDev::DmaComplete {
                    req_id,
                    data: PktBuf::empty(),
                }
                .encode();
                k.send(self.pcie, ty, &p);
            }
            Work::MmioReaction { purpose, value } => {
                // The CPU was stalled waiting for this read: it could not do
                // anything else in the meantime.
                self.cpu_busy_until = self.cpu_busy_until.max(now);
                let outcome = self.driver.on_mmio_read(&mut self.mem, purpose, value);
                self.handle_outcome(k, outcome);
            }
        }
    }
}

impl Model for HostModel {
    fn init(&mut self, k: &mut Kernel) {
        // One arena per host: stack (tx frames, GRO flushes) and driver
        // (ring reads) allocate from the kernel's pool, so every pooled
        // allocation this component performs lands in its
        // `KernelStats::pool_*` counters.
        self.stack.set_pool(k.pool().clone());
        self.driver.set_pool(k.pool().clone());
        if self.cfg.os_tick > SimTime::ZERO {
            let at = k.now() + self.cfg.os_tick;
            self.defer(k, Work::OsTick, at);
        }
    }

    // Every send the host performs is either driven by an already-scheduled
    // timer or deferred at least `pcie_reaction` past the input that caused
    // it (see `on_msg` below) — which is exactly the obligation of a
    // reaction-lookahead declaration, and the PCIe link is the host's only
    // port.
    fn sync_lookahead(&self) -> Option<SyncLookahead> {
        Some(SyncLookahead::Reaction(self.cost.pcie_reaction))
    }

    // Every PCIe message is acted on `pcie_reaction` after arrival — the
    // host never emits in the same instant it receives, which both models
    // the root-complex/memory-side latency and backs the reaction-lookahead
    // declaration above. Posted DMA writes land in memory immediately; only
    // the observable response (the completion ack) is deferred.
    fn on_msg(&mut self, k: &mut Kernel, _port: PortId, msg: OwnedMsg) {
        let react_at = k.now() + self.cost.pcie_reaction;
        match DevToHost::decode_buf(msg.ty, &msg.data) {
            Some(DevToHost::DevInfo(_info)) => {
                self.defer(k, Work::DevInit, react_at);
            }
            Some(DevToHost::DmaRead { req_id, addr, len }) => {
                self.defer(k, Work::DmaReadReply { req_id, addr, len }, react_at);
            }
            Some(DevToHost::DmaWrite { req_id, addr, data }) => {
                self.mem.write(addr, &data);
                self.defer(k, Work::DmaWriteReply { req_id }, react_at);
            }
            Some(DevToHost::Interrupt { .. }) => {
                self.stats.interrupts += 1;
                k.log("host_irq", self.stats.interrupts, 0);
                // NAPI-style: only one poll work item outstanding at a time.
                if !self.irq_work_pending {
                    self.irq_work_pending = true;
                    let delay =
                        (self.cost.irq_overhead + self.jitter()).max(self.cost.pcie_reaction);
                    let at = k.now() + delay;
                    self.defer(k, Work::Irq, at);
                }
            }
            Some(DevToHost::MmioComplete { req_id, data }) => {
                match self.mmio_pending.complete(req_id) {
                    Some(MmioPurpose::Posted) | None => {}
                    Some(MmioPurpose::DriverRead(purpose)) => {
                        let mut buf = [0u8; 8];
                        let n = data.len().min(8);
                        buf[..n].copy_from_slice(&data[..n]);
                        let value = u64::from_le_bytes(buf);
                        self.defer(k, Work::MmioReaction { purpose, value }, react_at);
                    }
                }
            }
            None => {}
        }
    }

    fn on_timer(&mut self, k: &mut Kernel, token: u64) {
        if token & (0xffu64 << 56) != TOK_WORK {
            return;
        }
        let id = token & !(0xffu64 << 56);
        let Some(work) = self.works.remove(&id) else {
            return;
        };
        // A single simulated core: work cannot start while the CPU is busy
        // with earlier work (this is what turns CPU cost into added latency).
        // DMA replies are served by the memory controller, not the core, so
        // they never queue behind CPU work.
        let device_side = matches!(work, Work::DmaReadReply { .. } | Work::DmaWriteReply { .. });
        if !device_side && self.cpu_busy_until > k.now() {
            let at = self.cpu_busy_until;
            self.works.insert(id, work);
            k.schedule_at(at, TOK_WORK | id);
            return;
        }
        self.run_work(k, work);
    }

    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        self.mem.snapshot(w)?;
        self.driver.snapshot(w)?;
        self.stack.snapshot(w)?;
        match &self.app {
            Some(app) => {
                w.bool(true);
                app.snapshot(w)?;
            }
            None => w.bool(false),
        }
        w.bool(self.app_done);
        w.time(self.cpu_busy_until);

        w.u64(self.mmio_pending.next_id());
        let pending = self.mmio_pending.entries();
        w.usize(pending.len());
        for (id, purpose) in pending {
            w.u64(id);
            match purpose {
                MmioPurpose::Posted => w.u8(0),
                MmioPurpose::DriverRead(p) => {
                    w.u8(1);
                    w.u8(match p {
                        ReadPurpose::RxHead => 0,
                        ReadPurpose::TxHead => 1,
                        ReadPurpose::Icr => 2,
                    });
                }
            }
        }

        // Ascending id order, straight off the ordered map.
        w.usize(self.works.len());
        for (id, work) in &self.works {
            w.u64(*id);
            match work {
                Work::Irq => w.u8(0),
                Work::StackTimer => w.u8(1),
                Work::AppTimer(tok) => {
                    w.u8(2);
                    w.u64(*tok);
                }
                Work::AppStart => w.u8(3),
                Work::OsTick => w.u8(4),
                Work::DevInit => w.u8(5),
                Work::DmaReadReply { req_id, addr, len } => {
                    w.u8(6);
                    w.u64(*req_id);
                    w.u64(*addr);
                    w.usize(*len);
                }
                Work::DmaWriteReply { req_id } => {
                    w.u8(7);
                    w.u64(*req_id);
                }
                Work::MmioReaction { purpose, value } => {
                    w.u8(8);
                    w.u8(match purpose {
                        ReadPurpose::RxHead => 0,
                        ReadPurpose::TxHead => 1,
                        ReadPurpose::Icr => 2,
                    });
                    w.u64(*value);
                }
            }
        }
        w.u64(self.next_work);
        w.opt_time(self.stack_timer_at);
        w.bool(self.irq_work_pending);
        w.u64(self.rng);

        for v in [
            self.stats.interrupts,
            self.stats.rx_frames,
            self.stats.tx_frames,
            self.stats.mmio_read_stalls,
            self.stats.mmio_writes,
            self.stats.gro_merged,
            self.stats.os_ticks,
        ] {
            w.u64(v);
        }
        w.time(self.stats.cpu_busy);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.mem.restore(r)?;
        self.driver.restore(r)?;
        self.stack.restore(r)?;
        if r.bool()? {
            match &mut self.app {
                Some(app) => app.restore(r)?,
                None => {
                    return Err(SnapError::Corrupt(
                        "snapshot has an application, rebuilt host does not".into(),
                    ))
                }
            }
        } else {
            self.app = None;
        }
        self.app_done = r.bool()?;
        self.cpu_busy_until = r.time()?;

        let next_id = r.u64()?;
        let n = r.usize()?;
        let mut items = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let id = r.u64()?;
            let purpose = match r.u8()? {
                0 => MmioPurpose::Posted,
                1 => MmioPurpose::DriverRead(match r.u8()? {
                    0 => ReadPurpose::RxHead,
                    1 => ReadPurpose::TxHead,
                    2 => ReadPurpose::Icr,
                    v => return Err(SnapError::Corrupt(format!("bad read purpose tag {v}"))),
                }),
                v => return Err(SnapError::Corrupt(format!("bad mmio purpose tag {v}"))),
            };
            items.push((id, purpose));
        }
        self.mmio_pending = OutstandingRequests::restore_parts(next_id, items);

        self.works.clear();
        for _ in 0..r.usize()? {
            let id = r.u64()?;
            let work = match r.u8()? {
                0 => Work::Irq,
                1 => Work::StackTimer,
                2 => Work::AppTimer(r.u64()?),
                3 => Work::AppStart,
                4 => Work::OsTick,
                5 => Work::DevInit,
                6 => Work::DmaReadReply {
                    req_id: r.u64()?,
                    addr: r.u64()?,
                    len: r.usize()?,
                },
                7 => Work::DmaWriteReply { req_id: r.u64()? },
                8 => Work::MmioReaction {
                    purpose: match r.u8()? {
                        0 => ReadPurpose::RxHead,
                        1 => ReadPurpose::TxHead,
                        2 => ReadPurpose::Icr,
                        v => {
                            return Err(SnapError::Corrupt(format!("bad reaction purpose tag {v}")))
                        }
                    },
                    value: r.u64()?,
                },
                v => return Err(SnapError::Corrupt(format!("bad work tag {v}"))),
            };
            self.works.insert(id, work);
        }
        self.next_work = r.u64()?;
        self.stack_timer_at = r.opt_time()?;
        self.irq_work_pending = r.bool()?;
        self.rng = r.u64()?;

        self.stats.interrupts = r.u64()?;
        self.stats.rx_frames = r.u64()?;
        self.stats.tx_frames = r.u64()?;
        self.stats.mmio_read_stalls = r.u64()?;
        self.stats.mmio_writes = r.u64()?;
        self.stats.gro_merged = r.u64()?;
        self.stats.os_ticks = r.u64()?;
        self.stats.cpu_busy = r.time()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_kind_sync_defaults() {
        assert!(HostKind::Gem5Timing.synchronized());
        assert!(HostKind::QemuTiming.synchronized());
        assert!(!HostKind::QemuKvm.synchronized());
    }

    #[test]
    fn host_config_derives_addresses() {
        let a = HostConfig::new(HostKind::Gem5Timing, 0);
        let b = HostConfig::new(HostKind::Gem5Timing, 1);
        assert_ne!(a.ip, b.ip);
        assert_ne!(a.mac, b.mac);
        assert!(a.os_tick > SimTime::ZERO);
        let kvm = HostConfig::new(HostKind::QemuKvm, 2);
        assert_eq!(kvm.os_tick, SimTime::ZERO);
    }

    #[test]
    fn charge_serializes_cpu_time() {
        let cfg = HostConfig::new(HostKind::Gem5Timing, 0);
        let mut h = HostModel::new(cfg, Box::new(NullApp));
        h.charge(SimTime::from_us(10), SimTime::from_us(5));
        assert_eq!(h.cpu_busy_until, SimTime::from_us(15));
        // Work arriving while busy extends from the busy point, not from now.
        h.charge(SimTime::from_us(12), SimTime::from_us(5));
        assert_eq!(h.cpu_busy_until, SimTime::from_us(20));
        // After idle time, charging restarts from now.
        h.charge(SimTime::from_us(100), SimTime::from_us(1));
        assert_eq!(h.cpu_busy_until, SimTime::from_us(101));
        assert_eq!(h.stats().cpu_busy, SimTime::from_us(11));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let cfg = HostConfig::new(HostKind::Gem5Timing, 3);
        let mut a = HostModel::new(cfg, Box::new(NullApp));
        let mut b = HostModel::new(cfg, Box::new(NullApp));
        let ja: Vec<SimTime> = (0..32).map(|_| a.jitter()).collect();
        let jb: Vec<SimTime> = (0..32).map(|_| b.jitter()).collect();
        assert_eq!(ja, jb, "same seed, same jitter sequence");
        let max = CostProfile::gem5_timing().sched_jitter_max;
        assert!(ja.iter().all(|j| *j <= max));
        assert!(ja.iter().any(|j| *j > SimTime::ZERO));
        // KVM hosts have no jitter at all.
        let mut k = HostModel::new(HostConfig::new(HostKind::QemuKvm, 9), Box::new(NullApp));
        assert_eq!(k.jitter(), SimTime::ZERO);
    }
}
