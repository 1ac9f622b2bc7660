//! Criterion microbenchmark of the synchronization layer: how fast two
//! synchronized kernels advance through virtual time when idle (pure SYNC
//! exchange, the §7.3.1 worst case) and under message load.
use criterion::{criterion_group, criterion_main, Criterion};
use simbricks::base::{
    channel_pair, ChannelParams, Kernel, Model, OwnedMsg, PortId, SimTime, StepOutcome,
};

struct Idle;
impl Model for Idle {
    fn on_msg(&mut self, _k: &mut Kernel, _p: PortId, _m: OwnedMsg) {}
}

fn bench_sync_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("sync");
    g.sample_size(10);
    g.bench_function("idle-pair-1ms-virtual", |b| {
        b.iter(|| {
            let (ca, cb) = channel_pair(ChannelParams::default_sync());
            let mut ka = Kernel::new("a", SimTime::from_ms(1));
            let mut kb = Kernel::new("b", SimTime::from_ms(1));
            ka.add_port(ca);
            kb.add_port(cb);
            let (mut a, mut b_) = (Idle, Idle);
            loop {
                let ra = ka.step(&mut a, 256);
                let rb = kb.step(&mut b_, 256);
                if ra == StepOutcome::Finished && rb == StepOutcome::Finished {
                    break;
                }
            }
            std::hint::black_box(ka.stats().syncs_sent);
        });
    });
    g.finish();
}

criterion_group!(benches, bench_sync_pair);
criterion_main!(benches);
