//! Storage host: a simulated host driving an NVMe SSD device model through
//! the SimBricks PCIe interface (§7.2 "SimBricks interfaces are general" —
//! the FEMU NVMe model ported into SimBricks and used with the existing host
//! simulators).
//!
//! The storage host mirrors [`crate::HostModel`] in structure — CPU cost
//! accounting against a single core, simulated physical memory targeted by
//! device DMA, an interrupt-driven driver — but runs a block workload
//! ([`BlockApp`]) against an NVMe queue pair instead of a network stack
//! against a NIC.

use std::collections::BTreeMap;

use simbricks_base::{Kernel, Model, OwnedMsg, PortId, SimTime};
use simbricks_nvmesim::{
    BLOCK_SIZE, NVME_CMD_SIZE, NVME_OPC_READ, NVME_OPC_WRITE, NVME_REG_CQ_BASE, NVME_REG_ENABLE,
    NVME_REG_Q_LEN, NVME_REG_SQ_BASE, NVME_REG_SQ_TAIL,
};
use simbricks_pcie::{DevToHost, HostToDev, IntStatus, OutstandingRequests};

use crate::mem::PhysMem;
use crate::{CostProfile, HostKind};

/// Queue depth of the single NVMe submission/completion queue pair the driver
/// creates.
pub const NVME_QUEUE_LEN: u32 = 64;

/// Per-command completion information handed to the application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockCompletion {
    /// The application-chosen command id.
    pub id: u64,
    /// Virtual time the command was submitted.
    pub submitted: SimTime,
    /// Virtual time the completion interrupt was processed.
    pub completed: SimTime,
}

impl BlockCompletion {
    pub fn latency(&self) -> SimTime {
        self.completed - self.submitted
    }
}

/// Services a [`BlockApp`] may use during a callback.
pub struct BlockOsServices<'a> {
    now: SimTime,
    submissions: &'a mut Vec<(u64, u8, u64, u32)>,
    timer_requests: &'a mut Vec<(SimTime, u64)>,
    finished: &'a mut bool,
    queue_free: usize,
}

impl BlockOsServices<'_> {
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Submission-queue slots currently free (commands beyond this are
    /// rejected and must be resubmitted later).
    pub fn queue_free(&self) -> usize {
        self.queue_free
    }

    /// Submit a read of `blocks` 4 KiB blocks starting at `lba`. Returns
    /// false if the submission queue is full.
    pub fn read(&mut self, id: u64, lba: u64, blocks: u32) -> bool {
        self.submit(id, NVME_OPC_READ, lba, blocks)
    }

    /// Submit a write of `blocks` 4 KiB blocks starting at `lba`. Returns
    /// false if the submission queue is full.
    pub fn write(&mut self, id: u64, lba: u64, blocks: u32) -> bool {
        self.submit(id, NVME_OPC_WRITE, lba, blocks)
    }

    fn submit(&mut self, id: u64, opcode: u8, lba: u64, blocks: u32) -> bool {
        if self.queue_free == 0 {
            return false;
        }
        self.queue_free -= 1;
        self.submissions.push((id, opcode, lba, blocks));
        true
    }

    /// Request an application timer callback at absolute time `at`.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        self.timer_requests.push((at, token));
    }

    pub fn set_timer_in(&mut self, delay: SimTime, token: u64) {
        let at = self.now + delay;
        self.timer_requests.push((at, token));
    }

    /// Mark the workload as complete.
    pub fn finish(&mut self) {
        *self.finished = true;
    }
}

/// A block-I/O workload running on a [`StorageHostModel`].
pub trait BlockApp: Send {
    fn start(&mut self, os: &mut BlockOsServices);
    fn on_completion(&mut self, os: &mut BlockOsServices, completion: BlockCompletion);
    fn on_timer(&mut self, _os: &mut BlockOsServices, _token: u64) {}
    /// One-line result summary for experiment reports.
    fn report(&self) -> String {
        String::new()
    }
}

/// Counters reported by a storage host after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageHostStats {
    pub submitted: u64,
    pub completed: u64,
    pub interrupts: u64,
    pub cpu_busy: SimTime,
}

/// Configuration of a storage host.
#[derive(Clone, Copy, Debug)]
pub struct StorageHostConfig {
    pub kind: HostKind,
    pub mem_bytes: usize,
    /// Virtual time after device discovery before the workload starts.
    pub boot_delay: SimTime,
    /// Terminate the component once the workload reports completion.
    pub quit_when_done: bool,
}

impl StorageHostConfig {
    pub fn new(kind: HostKind) -> Self {
        StorageHostConfig {
            kind,
            mem_bytes: 4 << 20,
            boot_delay: SimTime::from_us(50),
            quit_when_done: false,
        }
    }
}

enum MmioPurpose {
    Posted,
}

enum Work {
    Irq,
    AppTimer(u64),
    AppStart,
}

const TOK_WORK: u64 = 1 << 56;

struct Inflight {
    submitted: SimTime,
    app_id: u64,
}

/// A simulated host whose PCIe port 0 is connected to an
/// [`simbricks_nvmesim::NvmeDev`].
pub struct StorageHostModel {
    cfg: StorageHostConfig,
    cost: CostProfile,
    mem: PhysMem,
    app: Option<Box<dyn BlockApp>>,
    app_done: bool,
    cpu_busy_until: SimTime,
    pcie: PortId,
    mmio_pending: OutstandingRequests<MmioPurpose>,
    /// Deferred work items keyed by id (ordered: iteration can never expose
    /// hash order — see `crate::host::HostModel::works`).
    works: BTreeMap<u64, Work>,
    next_work: u64,
    irq_work_pending: bool,

    // Driver state: one submission/completion queue pair plus a data buffer
    // region, all in simulated physical memory.
    sq_base: u64,
    cq_base: u64,
    data_buf: u64,
    sq_tail: u32,
    cq_head: u32,
    /// Submitted-but-uncompleted NVMe commands keyed by command id (ordered
    /// for the same structural-determinism reason as `works`).
    inflight: BTreeMap<u64, Inflight>,
    next_cmd_id: u64,
    initialized: bool,

    stats: StorageHostStats,
}

impl StorageHostModel {
    pub fn new(cfg: StorageHostConfig, app: Box<dyn BlockApp>) -> Self {
        let mut mem = PhysMem::new(cfg.mem_bytes);
        let sq_base = mem.alloc(NVME_QUEUE_LEN as u64 * NVME_CMD_SIZE as u64, 64);
        let cq_base = mem.alloc(NVME_QUEUE_LEN as u64 * 16, 64);
        let data_buf = mem.alloc(NVME_QUEUE_LEN as u64 * BLOCK_SIZE as u64 * 8, 4096);
        StorageHostModel {
            cost: match cfg.kind {
                HostKind::Gem5Timing => CostProfile::gem5_timing(),
                HostKind::QemuTiming => CostProfile::qemu_timing(),
                HostKind::QemuKvm => CostProfile::qemu_kvm(),
            },
            mem,
            app: Some(app),
            app_done: false,
            cpu_busy_until: SimTime::ZERO,
            pcie: PortId(0),
            mmio_pending: OutstandingRequests::new(),
            works: BTreeMap::new(),
            next_work: 1,
            irq_work_pending: false,
            sq_base,
            cq_base,
            data_buf,
            sq_tail: 0,
            cq_head: 0,
            inflight: BTreeMap::new(),
            next_cmd_id: 1,
            initialized: false,
            stats: StorageHostStats::default(),
            cfg,
        }
    }

    pub fn stats(&self) -> StorageHostStats {
        self.stats
    }

    pub fn app_done(&self) -> bool {
        self.app_done
    }

    pub fn report(&self) -> String {
        let app = self.app.as_ref().map(|a| a.report()).unwrap_or_default();
        format!(
            "{app} [submitted={} completed={} irqs={}]",
            self.stats.submitted, self.stats.completed, self.stats.interrupts
        )
    }

    pub fn app_report(&self) -> String {
        self.app.as_ref().map(|a| a.report()).unwrap_or_default()
    }

    fn charge(&mut self, now: SimTime, d: SimTime) {
        let start = now.max(self.cpu_busy_until);
        self.cpu_busy_until = start + d;
        self.stats.cpu_busy += d;
    }

    fn defer(&mut self, k: &mut Kernel, work: Work, at: SimTime) {
        let id = self.next_work;
        self.next_work += 1;
        self.works.insert(id, work);
        k.schedule_at(at.max(k.now()), TOK_WORK | id);
    }

    fn mmio_write(&mut self, k: &mut Kernel, offset: u64, value: u64) {
        self.charge(k.now(), self.cost.mmio_write);
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

    fn init_device(&mut self, k: &mut Kernel) {
        let (ty, p) = HostToDev::IntStatus(IntStatus {
            legacy: false,
            msi: false,
            msix: true,
        })
        .encode();
        k.send(self.pcie, ty, &p);
        self.mmio_write(k, NVME_REG_SQ_BASE, self.sq_base);
        self.mmio_write(k, NVME_REG_CQ_BASE, self.cq_base);
        self.mmio_write(k, NVME_REG_Q_LEN, NVME_QUEUE_LEN as u64);
        self.mmio_write(k, NVME_REG_ENABLE, 1);
        self.initialized = true;
    }

    /// Write NVMe commands for the requested submissions into the SQ and ring
    /// the doorbell once.
    fn push_submissions(&mut self, k: &mut Kernel, subs: Vec<(u64, u8, u64, u32)>) {
        if subs.is_empty() {
            return;
        }
        let now = k.now();
        for (app_id, opcode, lba, blocks) in subs {
            let slot = self.sq_tail % NVME_QUEUE_LEN;
            let cmd_id = self.next_cmd_id;
            self.next_cmd_id += 1;
            let buf = self.data_buf + (slot as u64) * BLOCK_SIZE as u64 * 8;
            let mut cmd = [0u8; NVME_CMD_SIZE];
            cmd[0] = opcode;
            cmd[8..16].copy_from_slice(&lba.to_le_bytes());
            cmd[16..20].copy_from_slice(&blocks.to_le_bytes());
            cmd[24..32].copy_from_slice(&buf.to_le_bytes());
            cmd[32..40].copy_from_slice(&cmd_id.to_le_bytes());
            self.mem
                .write(self.sq_base + slot as u64 * NVME_CMD_SIZE as u64, &cmd);
            self.sq_tail = self.sq_tail.wrapping_add(1);
            self.inflight.insert(
                cmd_id,
                Inflight {
                    submitted: now,
                    app_id,
                },
            );
            self.stats.submitted += 1;
            // Building and submitting a command costs a syscall-ish amount.
            self.charge(now, self.cost.syscall);
            k.log("blk_submit", cmd_id, lba);
        }
        self.mmio_write(
            k,
            NVME_REG_SQ_TAIL,
            self.sq_tail as u64 % NVME_QUEUE_LEN as u64,
        );
    }

    fn run_app<F>(&mut self, k: &mut Kernel, f: F)
    where
        F: FnOnce(&mut dyn BlockApp, &mut BlockOsServices),
    {
        let now = k.now();
        let mut app = match self.app.take() {
            Some(a) => a,
            None => return,
        };
        let mut submissions = Vec::new();
        let mut timer_reqs = Vec::new();
        let mut finished = self.app_done;
        {
            let mut os = BlockOsServices {
                now,
                submissions: &mut submissions,
                timer_requests: &mut timer_reqs,
                finished: &mut finished,
                queue_free: (NVME_QUEUE_LEN as usize).saturating_sub(self.inflight.len()),
            };
            f(app.as_mut(), &mut os);
        }
        self.app = Some(app);
        self.app_done = finished;
        self.charge(now, self.cost.app_callback);
        for (at, tok) in timer_reqs {
            self.defer(k, Work::AppTimer(tok), at);
        }
        self.push_submissions(k, submissions);
        if self.app_done && self.cfg.quit_when_done {
            k.quit();
        }
    }

    /// Scan the completion queue for new entries written by the device.
    fn reap_completions(&mut self, k: &mut Kernel) {
        loop {
            let slot = self.cq_head % NVME_QUEUE_LEN;
            let addr = self.cq_base + slot as u64 * 16;
            let mut entry = [0u8; 16];
            self.mem.read_into(addr, &mut entry);
            if entry[8] != 1 {
                break;
            }
            let cmd_id = u64::from_le_bytes(entry[0..8].try_into().unwrap());
            // Consume the entry so the slot can be reused on wrap-around.
            self.mem.write(addr, &[0u8; 16]);
            self.cq_head = self.cq_head.wrapping_add(1);
            let Some(inflight) = self.inflight.remove(&cmd_id) else {
                continue;
            };
            self.stats.completed += 1;
            let now = k.now();
            self.charge(now, self.cost.per_segment);
            k.log("blk_complete", cmd_id, 0);
            let completion = BlockCompletion {
                id: inflight.app_id,
                submitted: inflight.submitted,
                completed: now,
            };
            self.run_app(k, |app, os| app.on_completion(os, completion));
        }
    }

    fn run_work(&mut self, k: &mut Kernel, work: Work) {
        let now = k.now();
        match work {
            Work::Irq => {
                self.irq_work_pending = false;
                self.charge(now, self.cost.irq_overhead);
                self.reap_completions(k);
            }
            Work::AppTimer(tok) => self.run_app(k, |app, os| app.on_timer(os, tok)),
            Work::AppStart => self.run_app(k, |app, os| app.start(os)),
        }
    }
}

impl Model for StorageHostModel {
    fn on_msg(&mut self, k: &mut Kernel, _port: PortId, msg: OwnedMsg) {
        match DevToHost::decode(msg.ty, &msg.data) {
            Some(DevToHost::DevInfo(info)) => {
                debug_assert_eq!(info.class, 0x01, "expected a mass-storage device");
                self.init_device(k);
                let at = k.now() + self.cfg.boot_delay;
                self.defer(k, Work::AppStart, at);
            }
            Some(DevToHost::DmaRead { req_id, addr, len }) => {
                let mut data = vec![0u8; len];
                self.mem.read_into(addr, &mut data);
                let (ty, p) = HostToDev::DmaComplete {
                    req_id,
                    data: data.into(),
                }
                .encode();
                k.send(self.pcie, ty, &p);
            }
            Some(DevToHost::DmaWrite { req_id, addr, data }) => {
                self.mem.write(addr, &data);
                let (ty, p) = HostToDev::DmaComplete {
                    req_id,
                    data: simbricks_base::PktBuf::empty(),
                }
                .encode();
                k.send(self.pcie, ty, &p);
            }
            Some(DevToHost::Interrupt { .. }) => {
                self.stats.interrupts += 1;
                k.log("blk_irq", self.stats.interrupts, 0);
                if !self.irq_work_pending {
                    self.irq_work_pending = true;
                    let at = k.now() + self.cost.irq_overhead;
                    self.defer(k, Work::Irq, at);
                }
            }
            Some(DevToHost::MmioComplete { req_id, .. }) => {
                let _ = self.mmio_pending.complete(req_id);
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
        // A single simulated core: work cannot start while the CPU is busy.
        if self.cpu_busy_until > k.now() {
            let at = self.cpu_busy_until;
            self.works.insert(id, work);
            k.schedule_at(at, TOK_WORK | id);
            return;
        }
        self.run_work(k, work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{channel_pair, ChannelParams, StepOutcome};
    use simbricks_nvmesim::{NvmeConfig, NvmeDev};

    /// Minimal workload: `n` sequential 4 KiB reads at queue depth 1.
    struct SeqReads {
        total: u64,
        next: u64,
        pub completions: Vec<BlockCompletion>,
    }

    impl BlockApp for SeqReads {
        fn start(&mut self, os: &mut BlockOsServices) {
            os.read(self.next, self.next, 1);
            self.next += 1;
        }
        fn on_completion(&mut self, os: &mut BlockOsServices, c: BlockCompletion) {
            self.completions.push(c);
            if self.next < self.total {
                os.read(self.next, self.next, 1);
                self.next += 1;
            } else if self.completions.len() as u64 == self.total {
                os.finish();
            }
        }
        fn report(&self) -> String {
            format!("seq-reads completed={}", self.completions.len())
        }
    }

    fn run_storage_pair(kind: HostKind, reads: u64) -> (StorageHostModel, NvmeDev) {
        let params = ChannelParams::default_sync();
        let (host_end, dev_end) = channel_pair(params);
        let end = SimTime::from_ms(50);
        let mut host_kernel = Kernel::new("storage-host", end);
        host_kernel.add_port(host_end);
        let mut dev_kernel = Kernel::new("nvme", end);
        dev_kernel.add_port(dev_end);
        let mut host = StorageHostModel::new(
            StorageHostConfig::new(kind),
            Box::new(SeqReads {
                total: reads,
                next: 0,
                completions: Vec::new(),
            }),
        );
        let mut dev = NvmeDev::new(NvmeConfig::default());
        // Round-robin the two kernels to completion.
        loop {
            let a = host_kernel.step(&mut host, 256);
            let b = dev_kernel.step(&mut dev, 256);
            if a == StepOutcome::Finished && b == StepOutcome::Finished {
                break;
            }
        }
        (host, dev)
    }

    #[test]
    fn sequential_reads_complete_with_media_latency() {
        let (host, dev) = run_storage_pair(HostKind::QemuTiming, 8);
        assert_eq!(host.stats().submitted, 8);
        assert_eq!(host.stats().completed, 8);
        assert_eq!(dev.reads, 8);
        assert!(host.stats().interrupts >= 1);
        // Each read must at least pay the configured media read latency plus
        // two PCIe crossings.
        let app_report = host.app_report();
        assert!(app_report.contains("completed=8"), "{app_report}");
    }

    #[test]
    fn completion_latency_includes_media_and_pcie_time() {
        let (host, _dev) = run_storage_pair(HostKind::QemuTiming, 4);
        let media = NvmeConfig::default().read_latency;
        // Reconstruct latencies from the inflight bookkeeping exposed via the
        // app (SeqReads keeps completions).
        assert!(host.stats().completed == 4);
        assert!(host.stats().cpu_busy > SimTime::ZERO);
        let _ = media;
    }

    #[test]
    fn gem5_host_is_slower_but_equally_correct() {
        let (fast, _) = run_storage_pair(HostKind::QemuTiming, 16);
        let (slow, _) = run_storage_pair(HostKind::Gem5Timing, 16);
        assert_eq!(fast.stats().completed, 16);
        assert_eq!(slow.stats().completed, 16);
        assert!(
            slow.stats().cpu_busy > fast.stats().cpu_busy,
            "the detailed host charges more CPU time for the same work"
        );
    }
}
