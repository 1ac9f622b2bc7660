//! DCTCP on an ECN-marking fabric (the Fig. 1 setup, one point of the sweep),
//! loaded from the committed declarative scenario `scenarios/dctcp_fabric.toml`.
//!
//! The topology lives entirely in the TOML file; this example only reads it,
//! optionally overrides the marking threshold K programmatically, lowers it
//! onto an [`simbricks::runner::Experiment`], and prints the per-flow
//! goodput reports.
//!
//! Run with: `cargo run --release --example dctcp_fabric [K_packets]`

use simbricks::hostsim::HostModel;
use simbricks::runner::{Execution, PartitionBuilder};
use simbricks::scenario::{lower, Doc, Scenario, Value};

const SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/dctcp_fabric.toml"
);

fn main() {
    let text =
        std::fs::read_to_string(SCENARIO).unwrap_or_else(|e| panic!("reading {SCENARIO}: {e}"));
    let mut doc = Doc::parse(&text).expect("scenario file parses");
    // A command-line K overrides the file's marking threshold — same
    // mechanism as `simbricks-run --sweep switch.switch.ecn_k=...`.
    let k_thresh = std::env::args().nth(1).and_then(|a| a.parse::<i64>().ok());
    if let Some(k) = k_thresh {
        for sec in &mut doc.sections {
            if sec.path == ["switch"] {
                sec.set("ecn_k", Value::Int(k));
            }
        }
    }
    let spec = Scenario::from_doc(&doc).expect("scenario file validates");
    let mut pb = PartitionBuilder::new_local();
    let lowered = lower(&spec, &mut pb);
    let result = pb.into_experiment().run(Execution::Sequential);

    println!("marking threshold K = {} packets", k_thresh.unwrap_or(20));
    for (name, id) in lowered
        .hosts
        .iter()
        .filter(|(n, _)| n.starts_with("server"))
    {
        let host: &HostModel = result.model(*id).unwrap();
        println!("{name}: {}", host.app_report());
    }
}
