//! Engine microbenchmarks: raw simulator throughput underlying every
//! experiment — prefix-trie operations, full-topology BGP convergence, and
//! withdrawal path exploration.
//!
//! Unlike the experiment-level benches, these measure single-threaded
//! primitives with no cell grid, so the `BOBW_JOBS` / `BOBW_DISPATCH`
//! runner knobs deliberately do not apply here.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;

use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
use bobw_event::RngFactory;
use bobw_net::{Prefix, PrefixTrie};
use bobw_topology::{generate, GenConfig};

fn trie_ops(c: &mut Criterion) {
    let prefixes: Vec<Prefix> = (0..512u32)
        .map(|i| Prefix::new((10 << 24) | (i << 14), 18))
        .collect();
    c.bench_function("trie_insert_512", |b| {
        b.iter_batched(
            PrefixTrie::<u32>::new,
            |mut t| {
                for (i, p) in prefixes.iter().enumerate() {
                    t.insert(*p, i as u32);
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
    let mut full = PrefixTrie::new();
    for (i, p) in prefixes.iter().enumerate() {
        full.insert(*p, i as u32);
    }
    c.bench_function("trie_lpm_lookup", |b| {
        let mut addr = 0u32;
        b.iter(|| {
            addr = addr.wrapping_add(0x9e37_79b9);
            full.lookup((10 << 24) | (addr & 0x00ff_ffff))
        })
    });
}

fn bgp_convergence(c: &mut Criterion) {
    let rng = RngFactory::new(7);
    let (topo, cdn) = generate(&GenConfig::small(), &rng);
    let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
    c.bench_function("bgp_anycast_convergence_small", |b| {
        b.iter(|| {
            let mut sim = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
            for &site in cdn.site_nodes() {
                sim.announce(site, prefix, OriginConfig::plain());
            }
            sim.run_to_idle(10_000_000).expect_within_budget("converge");
            sim.sim().stats().messages
        })
    });
    c.bench_function("bgp_withdrawal_exploration_small", |b| {
        b.iter_batched(
            || {
                let mut sim = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
                sim.announce(cdn.site_nodes()[0], prefix, OriginConfig::plain());
                sim.run_to_idle(10_000_000).expect_within_budget("converge");
                sim
            },
            |mut sim| {
                sim.withdraw(cdn.site_nodes()[0], prefix);
                sim.run_to_idle(10_000_000).expect_within_budget("converge");
                sim.sim().stats().messages
            },
            BatchSize::SmallInput,
        )
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = trie_ops, bgp_convergence
}
criterion_main!(benches);
