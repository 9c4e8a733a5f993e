//! Ablation benches for four design choices of the mapping ILP: linking
//! strength, symmetry breaking, warm starting and branching rule.
//! Each variant solves the same fixed instance to a fixed deterministic
//! budget; wall time differences show the cost/benefit of each choice.

use criterion::{criterion_group, criterion_main, Criterion};
use croxmap_core::pipeline::{optimize_area, PipelineConfig};
use croxmap_core::{FormulationConfig, Linking};
use croxmap_gen::calibrated::{generate, NetworkSpec};
use croxmap_ilp::{BranchRule, SolverConfig};
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

fn config(linking: Linking, symmetry: bool, warm: bool, rule: BranchRule) -> PipelineConfig {
    PipelineConfig {
        formulation: FormulationConfig {
            linking,
            symmetry_breaking: symmetry,
            restrict_to_slots: None,
        },
        solver: SolverConfig {
            branch_rule: rule,
            ..SolverConfig::default().with_det_time_limit(2.0)
        },
        warm_start: warm,
    }
}

fn bench_ablations(c: &mut Criterion) {
    let (net, pool) = fixture();
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    let variants: Vec<(&str, PipelineConfig)> = vec![
        (
            "baseline(agg+sym+warm+mostfrac)",
            config(Linking::Aggregated, true, true, BranchRule::MostFractional),
        ),
        (
            "strong_linking",
            config(Linking::Strong, true, true, BranchRule::MostFractional),
        ),
        (
            "no_symmetry",
            config(Linking::Aggregated, false, true, BranchRule::MostFractional),
        ),
        (
            "no_warm_start",
            config(Linking::Aggregated, true, false, BranchRule::MostFractional),
        ),
        (
            "pseudo_cost",
            config(Linking::Aggregated, true, true, BranchRule::PseudoCost),
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
