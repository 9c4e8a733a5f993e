//! Spike-evaluation benchmarks: the held-out evaluation loop of the
//! paper-scale PGO flow on Table I networks A and C (a fixed batch of
//! SmartPixel events through encode → LIF run → two packet counts, as the
//! `pgo_full` pipeline benchmark runs it), each stage of that loop alone,
//! and the generation of both networks.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use croxmap_core::baseline::{greedy_first_fit, naive_sequential};
use croxmap_gen::calibrated::{generate, NetworkSpec};
use croxmap_gen::smartpixel::{encode, EventSet, SmartPixelConfig};
use croxmap_mca::{ArchitectureSpec, AreaModel, CrossbarPool};
use croxmap_sim::{count_packets, LifSimulator, SimRecord, Stimulus};
use croxmap_snn::Network;

/// Simulation window of the PGO flow.
const WINDOW: u32 = 24;
/// SmartPixel events per timed batch.
const EVENTS: usize = 2_000;

/// Table I A and C with the two assignments each evaluation scores: a
/// first fit and a sequential fill of the Table II pool (at most 4
/// replicas).
fn networks() -> Vec<(&'static str, Network, [Vec<usize>; 2])> {
    [
        ("A", NetworkSpec::table_i_a()),
        ("C", NetworkSpec::table_i_c()),
    ]
    .into_iter()
    .map(|(name, spec)| {
        let net = generate(&spec);
        let pool = CrossbarPool::for_network_capped(
            &ArchitectureSpec::table_ii_heterogeneous(),
            &AreaModel::memristor_count(),
            net.node_count(),
            4,
        );
        let first = greedy_first_fit(&net, &pool).expect("first fit places A and C");
        let naive = naive_sequential(&net, &pool).expect("sequential fill places A and C");
        let assignments = [first.assignment().to_vec(), naive.assignment().to_vec()];
        (name, net, assignments)
    })
    .collect()
}

fn bench_eval_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("pgo_eval_loop");
    group.sample_size(10);
    let events = EventSet::generate(&SmartPixelConfig::default(), EVENTS);
    let sim = LifSimulator::default();
    for (name, net, [first, naive]) in networks() {
        group.bench_function(format!("{name}/{EVENTS}_events"), |b| {
            b.iter(|| {
                let mut global = 0;
                for event in events.events() {
                    let record = sim.run(&net, &encode(&net, event, WINDOW), WINDOW);
                    global += count_packets(&net, &first, &record).global;
                    global += count_packets(&net, &naive, &record).global;
                }
                global
            });
        });
    }
    group.finish();
}

fn bench_eval_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("pgo_eval_stage");
    group.sample_size(10);
    let events = EventSet::generate(&SmartPixelConfig::default(), EVENTS);
    let sim = LifSimulator::default();
    for (name, net, [first, naive]) in networks() {
        let stimuli: Vec<Stimulus> = events
            .events()
            .iter()
            .map(|e| encode(&net, e, WINDOW))
            .collect();
        let records: Vec<SimRecord> = stimuli.iter().map(|s| sim.run(&net, s, WINDOW)).collect();
        group.bench_function(format!("encode/{name}"), |b| {
            b.iter(|| {
                for event in events.events() {
                    black_box(encode(&net, event, WINDOW));
                }
            });
        });
        group.bench_function(format!("run/{name}"), |b| {
            b.iter(|| {
                for stimulus in &stimuli {
                    black_box(sim.run(&net, stimulus, WINDOW));
                }
            });
        });
        group.bench_function(format!("count_packets/{name}"), |b| {
            b.iter(|| {
                let mut global = 0;
                for record in &records {
                    global += count_packets(&net, &first, record).global;
                    global += count_packets(&net, &naive, record).global;
                }
                global
            });
        });
    }
    group.finish();
}

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.sample_size(10);
    for spec in [NetworkSpec::table_i_a(), NetworkSpec::table_i_c()] {
        group.bench_function(spec.name.clone(), |b| b.iter(|| generate(&spec)));
    }
    group.finish();
}

criterion_group!(benches, bench_eval_loop, bench_eval_stages, bench_generate);
criterion_main!(benches);
