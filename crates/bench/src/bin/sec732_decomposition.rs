//! §7.3.2: decomposition for parallelism — 32 packet generators against one
//! switch vs a ToR + core switch hierarchy.
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::nicsim::{PktGen, PktGenConfig};
use simbricks::proto::MacAddr;
use simbricks::runner::{Execution, Experiment};
use simbricks::{bw, SimTime};

fn run(ngen: usize, decomposed: bool, rate: u64) -> f64 {
    let virt = SimTime::from_ms(10);
    let mut exp = Experiment::new("decomp", virt);
    let mk_gen = |i: usize| {
        Box::new(PktGen::new(PktGenConfig {
            mac: MacAddr::from_index(100 + i as u64),
            dst: MacAddr::from_index(1 + ((i + 1) % ngen) as u64 + 100),
            rate_bps: rate,
            frame_len: 1500,
            duration: virt,
        }))
    };
    if !decomposed {
        let mut eth = Vec::new();
        for i in 0..ngen {
            let (g, s) = simbricks::base::channel_pair(exp.eth_params());
            exp.add(format!("gen{i}"), mk_gen(i), vec![g]);
            eth.push(s);
        }
        exp.add(
            "switch",
            Box::new(SwitchBm::new(SwitchConfig {
                ports: ngen,
                ..Default::default()
            })),
            eth,
        );
    } else {
        // 4 ToR switches of ngen/4 generators each, plus one core switch.
        let tors = 4usize;
        let per = ngen / tors;
        let mut core_ports = Vec::new();
        for t in 0..tors {
            let mut eth = Vec::new();
            for i in 0..per {
                let idx = t * per + i;
                let (g, s) = simbricks::base::channel_pair(exp.eth_params());
                exp.add(format!("gen{idx}"), mk_gen(idx), vec![g]);
                eth.push(s);
            }
            let (up, down) = simbricks::base::channel_pair(exp.eth_params());
            eth.push(up);
            exp.add(
                format!("tor{t}"),
                Box::new(SwitchBm::new(SwitchConfig {
                    ports: per + 1,
                    ..Default::default()
                })),
                eth,
            );
            core_ports.push(down);
        }
        exp.add(
            "core",
            Box::new(SwitchBm::new(SwitchConfig {
                ports: tors,
                ..Default::default()
            })),
            core_ports,
        );
    }
    let r = exp.run(Execution::Sequential);
    r.wall_seconds()
}

fn main() {
    println!("# Section 7.3.2: network decomposition (packet generators, 10 ms virtual)");
    println!("{:<34} {:>10}", "configuration", "wall[s]");
    for (rate, label) in [
        (0u64, "rate 0 (sync only)"),
        (bw::B10G, "10 Gbps per generator"),
    ] {
        let single_2 = run(2, false, rate);
        let single_32 = run(32, false, rate);
        let tor_core_32 = run(32, true, rate);
        println!(
            "{:<34} {:>10.2}",
            format!("2 gens, 1 switch, {label}"),
            single_2
        );
        println!(
            "{:<34} {:>10.2}",
            format!("32 gens, 1 switch, {label}"),
            single_32
        );
        println!(
            "{:<34} {:>10.2}",
            format!("32 gens, ToR+core, {label}"),
            tor_core_32
        );
    }
}
