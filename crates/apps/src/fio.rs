//! fio-style block I/O workload for the storage host (NVMe over the SimBricks
//! PCIe interface, §7.2).
//!
//! The workload keeps a configurable number of commands in flight (queue
//! depth), chooses offsets sequentially or pseudo-randomly, mixes reads and
//! writes by a configurable ratio, runs for a fixed virtual duration, and
//! reports IOPS plus latency statistics.

use simbricks_base::{Rng, SimTime};
use simbricks_hostsim::{BlockApp, BlockCompletion, BlockOsServices};

/// Access pattern of the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    Sequential,
    Random,
}

/// fio-style workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct FioConfig {
    /// Commands kept in flight.
    pub queue_depth: usize,
    /// Blocks (4 KiB) per command.
    pub blocks_per_cmd: u32,
    /// Fraction of commands that are reads, in percent (100 = read-only).
    pub read_percent: u8,
    pub pattern: AccessPattern,
    /// Number of 4 KiB blocks in the addressable range.
    pub capacity_blocks: u64,
    /// Virtual run time.
    pub duration: SimTime,
    /// Seed for the deterministic offset/op sequence.
    pub seed: u64,
}

impl Default for FioConfig {
    fn default() -> Self {
        FioConfig {
            queue_depth: 8,
            blocks_per_cmd: 1,
            read_percent: 100,
            pattern: AccessPattern::Random,
            capacity_blocks: 4096,
            duration: SimTime::from_ms(10),
            seed: 0xf10,
        }
    }
}

const TOK_END: u64 = 1;

/// The workload driver.
pub struct FioWorkload {
    cfg: FioConfig,
    rng: Rng,
    next_id: u64,
    next_lba: u64,
    issued: u64,
    stopped: bool,
    pub completed: u64,
    pub reads_issued: u64,
    pub writes_issued: u64,
    latency_total: SimTime,
    latency_max: SimTime,
    first_completion: Option<SimTime>,
    last_completion: SimTime,
}

impl FioWorkload {
    pub fn new(cfg: FioConfig) -> Self {
        FioWorkload {
            rng: Rng::new(cfg.seed | 1),
            cfg,
            next_id: 0,
            next_lba: 0,
            issued: 0,
            stopped: false,
            completed: 0,
            reads_issued: 0,
            writes_issued: 0,
            latency_total: SimTime::ZERO,
            latency_max: SimTime::ZERO,
            first_completion: None,
            last_completion: SimTime::ZERO,
        }
    }

    fn pick_lba(&mut self) -> u64 {
        let span = self
            .cfg
            .capacity_blocks
            .saturating_sub(self.cfg.blocks_per_cmd as u64)
            .max(1);
        match self.cfg.pattern {
            AccessPattern::Sequential => {
                let lba = self.next_lba;
                self.next_lba = (self.next_lba + self.cfg.blocks_per_cmd as u64) % span;
                lba
            }
            AccessPattern::Random => self.rng.below(span),
        }
    }

    fn issue_one(&mut self, os: &mut BlockOsServices) -> bool {
        if self.stopped {
            return false;
        }
        let id = self.next_id;
        let lba = self.pick_lba();
        let is_read = self.rng.below(100) < self.cfg.read_percent as u64;
        let ok = if is_read {
            os.read(id, lba, self.cfg.blocks_per_cmd)
        } else {
            os.write(id, lba, self.cfg.blocks_per_cmd)
        };
        if ok {
            self.next_id += 1;
            self.issued += 1;
            if is_read {
                self.reads_issued += 1;
            } else {
                self.writes_issued += 1;
            }
        }
        ok
    }

    fn fill_queue(&mut self, os: &mut BlockOsServices) {
        while !self.stopped && os.queue_free() > 0 && self.inflight() < self.cfg.queue_depth as u64
        {
            if !self.issue_one(os) {
                break;
            }
        }
    }

    fn inflight(&self) -> u64 {
        self.issued - self.completed
    }

    /// Completed operations per second of measured virtual time.
    pub fn iops(&self) -> f64 {
        match self.first_completion {
            Some(first) if self.last_completion > first && self.completed > 1 => {
                (self.completed - 1) as f64 / (self.last_completion - first).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Mean completion latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.latency_total.as_ps() as f64 / self.completed as f64 / 1e6
        }
    }

    /// Maximum completion latency in microseconds.
    pub fn max_latency_us(&self) -> f64 {
        self.latency_max.as_ps() as f64 / 1e6
    }
}

impl BlockApp for FioWorkload {
    fn start(&mut self, os: &mut BlockOsServices) {
        os.set_timer_in(self.cfg.duration, TOK_END);
        self.fill_queue(os);
    }

    fn on_completion(&mut self, os: &mut BlockOsServices, c: BlockCompletion) {
        self.completed += 1;
        let lat = c.latency();
        self.latency_total += lat;
        self.latency_max = self.latency_max.max(lat);
        if self.first_completion.is_none() {
            self.first_completion = Some(c.completed);
        }
        self.last_completion = c.completed;
        if self.stopped {
            if self.inflight() == 0 {
                os.finish();
            }
            return;
        }
        self.fill_queue(os);
    }

    fn on_timer(&mut self, os: &mut BlockOsServices, token: u64) {
        if token == TOK_END {
            self.stopped = true;
            if self.inflight() == 0 {
                os.finish();
            }
        }
    }

    fn report(&self) -> String {
        format!(
            "fio qd={} ops={} iops={:.0} mean_lat={:.1}us max_lat={:.1}us",
            self.cfg.queue_depth,
            self.completed,
            self.iops(),
            self.mean_latency_us(),
            self.max_latency_us()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbricks_base::{channel_pair, ChannelParams, Kernel, StepOutcome};
    use simbricks_hostsim::{HostKind, StorageHostConfig, StorageHostModel};
    use simbricks_nvmesim::{NvmeConfig, NvmeDev};

    fn run_fio(cfg: FioConfig) -> (StorageHostModel, NvmeDev) {
        let (host_end, dev_end) = channel_pair(ChannelParams::default_sync());
        let end = cfg.duration + SimTime::from_ms(5);
        let mut host_kernel = Kernel::new("storage-host", end);
        host_kernel.add_port(host_end);
        let mut dev_kernel = Kernel::new("nvme", end);
        dev_kernel.add_port(dev_end);
        let mut host = StorageHostModel::new(
            StorageHostConfig::new(HostKind::QemuTiming),
            Box::new(FioWorkload::new(cfg)),
        );
        let mut dev = NvmeDev::new(NvmeConfig::default());
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
    fn read_only_workload_completes_and_reports_iops() {
        let (host, dev) = run_fio(FioConfig {
            queue_depth: 4,
            duration: SimTime::from_ms(5),
            ..Default::default()
        });
        assert!(host.stats().completed > 10);
        assert_eq!(dev.writes, 0, "read-only workload issues no writes");
        assert_eq!(dev.reads, host.stats().completed);
        let report = host.app_report();
        assert!(report.contains("iops="), "{report}");
    }

    #[test]
    fn mixed_workload_issues_reads_and_writes() {
        let (host, dev) = run_fio(FioConfig {
            read_percent: 50,
            queue_depth: 8,
            duration: SimTime::from_ms(5),
            ..Default::default()
        });
        assert!(dev.reads > 0, "some reads");
        assert!(dev.writes > 0, "some writes");
        assert_eq!(dev.reads + dev.writes, host.stats().completed);
    }

    #[test]
    fn deeper_queues_give_more_iops() {
        let shallow = run_fio(FioConfig {
            queue_depth: 1,
            duration: SimTime::from_ms(8),
            ..Default::default()
        })
        .0;
        let deep = run_fio(FioConfig {
            queue_depth: 16,
            duration: SimTime::from_ms(8),
            ..Default::default()
        })
        .0;
        assert!(
            deep.stats().completed > shallow.stats().completed * 4,
            "queue depth 16 ({}) should far outrun depth 1 ({})",
            deep.stats().completed,
            shallow.stats().completed
        );
    }

    #[test]
    fn sequential_and_random_patterns_both_work_deterministically() {
        let a = run_fio(FioConfig {
            pattern: AccessPattern::Sequential,
            duration: SimTime::from_ms(3),
            ..Default::default()
        })
        .0;
        let b = run_fio(FioConfig {
            pattern: AccessPattern::Sequential,
            duration: SimTime::from_ms(3),
            ..Default::default()
        })
        .0;
        assert_eq!(a.stats().completed, b.stats().completed);
        assert_eq!(a.app_report(), b.app_report(), "reruns are bit-identical");
        let r = run_fio(FioConfig {
            pattern: AccessPattern::Random,
            duration: SimTime::from_ms(3),
            ..Default::default()
        })
        .0;
        assert!(r.stats().completed > 0);
    }
}
