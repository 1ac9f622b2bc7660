//! Storage end-to-end example: a simulated host drives an NVMe SSD device
//! model through the SimBricks PCIe interface, running a fio-style random
//! read workload at several queue depths (§7.2: the PCIe interface
//! generalizes beyond NICs).
//!
//! Run with: `cargo run --release --example nvme_storage`

use simbricks::apps::{AccessPattern, FioConfig, FioWorkload};
use simbricks::hostsim::{HostKind, StorageHostConfig, StorageHostModel};
use simbricks::nvmesim::NvmeConfig;
use simbricks::runner::{attach_host_nvme, Execution, Experiment};
use simbricks::SimTime;

fn main() {
    println!("queue-depth sweep, 4 KiB random reads, QEMU-timing-like host, synchronized");
    println!(
        "{:>4} {:>10} {:>14} {:>14}",
        "qd", "ops", "IOPS", "mean lat [us]"
    );
    for qd in [1usize, 2, 4, 8, 16, 32] {
        let duration = SimTime::from_ms(20);
        let mut exp = Experiment::new("nvme-quickstart", duration + SimTime::from_ms(2));
        let workload = FioWorkload::new(FioConfig {
            queue_depth: qd,
            pattern: AccessPattern::Random,
            read_percent: 100,
            duration,
            ..Default::default()
        });
        let (host_id, _dev_id) = attach_host_nvme(
            &mut exp,
            "store",
            StorageHostConfig::new(HostKind::QemuTiming),
            Box::new(workload),
            NvmeConfig::default(),
        );
        let result = exp.run(Execution::Sequential);
        let host: &StorageHostModel = result.model(host_id).expect("storage host");
        let report = host.app_report();
        let field = |key: &str| {
            report
                .split_whitespace()
                .find_map(|t| {
                    t.strip_prefix(key)
                        .map(|v| v.trim_end_matches("us").to_string())
                })
                .unwrap_or_default()
        };
        println!(
            "{:>4} {:>10} {:>14} {:>14}",
            qd,
            host.stats().completed,
            field("iops="),
            field("mean_lat=")
        );
    }
}
