//! The benchmark package writes its scenario documents itself, so that its
//! load changes only with a change under its own directory. This test pins
//! those documents to the topology generator byte for byte: if either
//! writer drifts, the figures and the benchmark no longer run the same
//! topologies, and this fails.

#[allow(dead_code)]
#[path = "../src/bin/perf/src/workloads.rs"]
mod perf_workloads;

use perf_workloads::{Topology, END_MARGIN_US, SMOKE_VIRTUAL_US, WORKLOADS};
use simbricks::hostsim::HostKind;
use simbricks::scenario::topo;
use simbricks::SimTime;

#[test]
fn perf_documents_are_the_generators() {
    let kind = HostKind::Gem5Timing;
    for w in &WORKLOADS {
        let body = match w.topology {
            Topology::ScaleUp => topo::scale_up(21, kind, 1),
            Topology::FatTree => topo::fat_tree(8, 4),
            Topology::Dctcp => topo::dctcp(10),
            Topology::Racks => topo::racks(2, kind, 2),
        };
        let hier = w.topology == Topology::FatTree;
        for seed in [0, 1, 7] {
            for virtual_us in [SMOKE_VIRTUAL_US, w.virtual_us] {
                for log in [false, true] {
                    let run = SimTime::from_us(virtual_us);
                    let margin = SimTime::from_us(END_MARGIN_US);
                    let doc = topo::header(w.name, seed, run, margin, log, hier) + &body;
                    assert_eq!(
                        w.toml(seed, virtual_us, log),
                        doc,
                        "{} seed {seed}, {virtual_us} us, log {log}",
                        w.name
                    );
                }
            }
        }
    }
}
