//! Backward-query latency: attack-chain search over full-size dependency
//! graphs.

use actfort_core::profile::AttackerProfile;
use actfort_core::{Analysis, Tdg};
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::synth::paper_population;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_backward(c: &mut Criterion) {
    let specs = paper_population(5);
    let tdg = Tdg::build(&specs, Platform::MobileApp, AttackerProfile::paper_default());
    let mut g = c.benchmark_group("strategy/backward_chains");
    g.sample_size(20);
    for target in ["paypal", "alipay", "union-bank"] {
        g.bench_function(target, |b| {
            b.iter(|| {
                black_box(
                    Analysis::of(&tdg)
                        .backward(&target.into())
                        .max_chains(8)
                        .run()
                        .expect("valid query"),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_backward);
criterion_main!(benches);
