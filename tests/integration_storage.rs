//! Storage-path integration tests: host + NVMe device over the SimBricks
//! PCIe interface, orchestrated by the runner (§7.2 generality).

use simbricks::apps::{AccessPattern, FioConfig, FioWorkload};
use simbricks::hostsim::{HostKind, StorageHostConfig, StorageHostModel};
use simbricks::nvmesim::{NvmeConfig, NvmeDev};
use simbricks::runner::{attach_host_nvme, Execution, Experiment};
use simbricks::SimTime;

fn run_fio(kind: HostKind, qd: usize, read_percent: u8, media_read_us: u64) -> (u64, f64, f64) {
    let duration = SimTime::from_ms(10);
    let mut exp = Experiment::new("storage-it", duration + SimTime::from_ms(2));
    let workload = FioWorkload::new(FioConfig {
        queue_depth: qd,
        pattern: AccessPattern::Random,
        read_percent,
        duration,
        ..Default::default()
    });
    let nvme = NvmeConfig {
        read_latency: SimTime::from_us(media_read_us),
        ..Default::default()
    };
    let (host_id, dev_id) = attach_host_nvme(
        &mut exp,
        "store",
        StorageHostConfig::new(kind),
        Box::new(workload),
        nvme,
    );
    let r = exp.run(Execution::Sequential);
    let host: &StorageHostModel = r.model(host_id).unwrap();
    let dev: &NvmeDev = r.model(dev_id).unwrap();
    assert_eq!(
        host.stats().completed,
        dev.completions,
        "every device completion reached the driver"
    );
    let report = host.app_report();
    let field = |key: &str| -> f64 {
        report
            .split_whitespace()
            .find_map(|t| {
                t.strip_prefix(key)
                    .map(|v| v.trim_end_matches("us").parse().unwrap_or(0.0))
            })
            .unwrap_or(0.0)
    };
    (host.stats().completed, field("iops="), field("mean_lat="))
}

#[test]
fn nvme_workload_completes_on_both_host_kinds() {
    let (ops_qemu, _, lat_qemu) = run_fio(HostKind::QemuTiming, 8, 100, 80);
    let (ops_gem5, _, lat_gem5) = run_fio(HostKind::Gem5Timing, 8, 100, 80);
    assert!(ops_qemu > 100, "qemu-timing host completed {ops_qemu} ops");
    assert!(ops_gem5 > 100, "gem5 host completed {ops_gem5} ops");
    // Latency is dominated by the 80 us media time plus PCIe crossings on
    // both hosts; the detailed host adds a little more software time.
    assert!(lat_qemu > 80.0 && lat_qemu < 200.0, "got {lat_qemu} us");
    assert!(
        lat_gem5 >= lat_qemu,
        "gem5 {lat_gem5} us >= qemu {lat_qemu} us"
    );
}

#[test]
fn queue_depth_scales_iops_until_media_limited() {
    let (_, iops_1, _) = run_fio(HostKind::QemuTiming, 1, 100, 80);
    let (_, iops_16, _) = run_fio(HostKind::QemuTiming, 16, 100, 80);
    assert!(
        iops_16 > iops_1 * 5.0,
        "qd16 ({iops_16:.0}) should be well above 5x qd1 ({iops_1:.0})"
    );
}

#[test]
fn faster_media_means_lower_latency_and_more_iops() {
    let (_, iops_slow, lat_slow) = run_fio(HostKind::QemuTiming, 4, 100, 80);
    let (_, iops_fast, lat_fast) = run_fio(HostKind::QemuTiming, 4, 100, 20);
    assert!(lat_fast < lat_slow, "{lat_fast} < {lat_slow}");
    assert!(iops_fast > iops_slow, "{iops_fast} > {iops_slow}");
}

#[test]
fn mixed_read_write_workload_is_deterministic() {
    let a = run_fio(HostKind::Gem5Timing, 8, 50, 40);
    let b = run_fio(HostKind::Gem5Timing, 8, 50, 40);
    assert_eq!(a, b, "repeated synchronized runs are identical");
    assert!(a.0 > 50);
}
