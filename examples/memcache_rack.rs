//! A small memcached rack — two servers, two memaslap-style clients, one
//! top-of-rack switch — loaded from the committed declarative scenario
//! `scenarios/memcache_rack.toml`.
//!
//! Run with: `cargo run --release --example memcache_rack`

use simbricks::hostsim::HostModel;
use simbricks::runner::{Execution, PartitionBuilder};
use simbricks::scenario::{lower, Scenario};

const SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/memcache_rack.toml"
);

fn main() {
    let text =
        std::fs::read_to_string(SCENARIO).unwrap_or_else(|e| panic!("reading {SCENARIO}: {e}"));
    let spec = Scenario::from_toml_str(&text).expect("scenario file validates");
    let mut pb = PartitionBuilder::new_local();
    let lowered = lower(&spec, &mut pb);
    let result = pb.into_experiment().run(Execution::Sequential);

    println!("simulated {} in {:.2?}", result.virtual_time, result.wall);
    for (name, id) in lowered
        .hosts
        .iter()
        .filter(|(n, _)| n.starts_with("client"))
    {
        let host: &HostModel = result.model(*id).unwrap();
        println!("{name}: {}", host.app_report());
    }
}
