//! Ablation benches for three design choices of the mapping ILP: linking
//! strength, warm starting and branching rule. Each variant solves the
//! same fixed instance to a fixed deterministic budget; wall time
//! differences show the cost/benefit of each choice.

use criterion::{criterion_group, criterion_main, Criterion};
use croxmap_core::pipeline::{optimize_area, PipelineConfig};
use croxmap_core::Linking;
use croxmap_gen::calibrated::{generate, NetworkSpec};
use croxmap_ilp::BranchRule;
use croxmap_mca::{ArchitectureSpec, AreaModel, CrossbarPool};

fn fixture() -> (croxmap_snn::Network, CrossbarPool) {
    let net = generate(&NetworkSpec::scaled_a(16));
    let pool = CrossbarPool::for_network_capped(
        &ArchitectureSpec::table_ii_heterogeneous(),
        &AreaModel::memristor_count(),
        net.node_count(),
        2,
    );
    (net, pool)
}

fn config(linking: Linking, warm: bool, rule: BranchRule) -> PipelineConfig {
    let mut cfg = PipelineConfig::with_budget(2.0);
    cfg.formulation.linking = linking;
    cfg.solver.branch_rule = rule;
    cfg.warm_start = warm;
    cfg
}

fn bench_ablations(c: &mut Criterion) {
    let (net, pool) = fixture();
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    let variants: Vec<(&str, PipelineConfig)> = vec![
        (
            "baseline(agg+warm+mostfrac)",
            config(Linking::Aggregated, true, BranchRule::MostFractional),
        ),
        (
            "strong_linking",
            config(Linking::Strong, true, BranchRule::MostFractional),
        ),
        (
            "no_warm_start",
            config(Linking::Aggregated, false, BranchRule::MostFractional),
        ),
        (
            "pseudo_cost",
            config(Linking::Aggregated, true, BranchRule::PseudoCost),
        ),
    ];
    for (label, cfg) in variants {
        group.bench_function(label, |b| {
            b.iter(|| optimize_area(&net, &pool, &cfg));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
