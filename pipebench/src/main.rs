//! Pipeline benchmark for croxmap: the paper's flows end to end, and the
//! same calls split layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload area --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Inputs (networks, pools, SmartPixel events, reference mappings) are
//! generated from `--seed`; seed 0 reproduces the generators' built-in
//! seeds. `--trace 0` runs every job through the public pipeline entry
//! points and prints the end-to-end metrics. `--trace 1` runs the same
//! jobs untraced, then replays each pipeline call from its public parts
//! with spans around every layer (see `replay.rs`) and prints the
//! per-layer metrics. The last stdout line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.
//! `WORKLOADS.md` records why each workload exists.

#![forbid(unsafe_code)]

mod calib;
mod check;
mod replay;
mod wall;

use calib::Calibration;
use check::{check, first_fit, predicted_packets, Checked};
use croxmap_bench::ExperimentScale;
use croxmap_core::pipeline::{
    optimize_area, optimize_pgo_after_area, optimize_routes_after_area, OptimizationRun,
    PipelineConfig,
};
use croxmap_core::Mapping;
use croxmap_gen::calibrated::{generate, NetworkSpec};
use croxmap_gen::smartpixel::{encode, EventSet, SmartPixelConfig};
use croxmap_ilp::tol::OBJ_AGREE;
use croxmap_mca::CrossbarPool;
use croxmap_sim::{count_packets, LifSimulator, SpikeProfile};
use croxmap_snn::Network;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use wall::{timed, Stopwatch};

/// SmartPixel encoding and simulation window, in timesteps.
const WINDOW: u32 = 24;
/// Share of the event set used for profiling (§V-H); the rest is held out.
const PROFILE_SHARE: f64 = 0.01;
/// Input sets are built again and again, at least `SETUP_REPS` times and for
/// at least `SETUP_SECONDS`; `setup_s` is their median build time, scaled
/// by the host speed that a kernel run between the builds measures
/// (`calib.rs`), which takes `SETUP_CALIBRATION` of the build time. One
/// build lasts milliseconds: on a shared host the median of eleven builds
/// of one seed swung by 40 % between runs; over ten seeds the median of a
/// second of builds spread 0.33 unscaled and 0.11 scaled.
const SETUP_REPS: usize = 11;
const SETUP_SECONDS: f64 = 1.0;
const SETUP_CALIBRATION: f64 = 0.25;
/// Share of the pass's wall time given to the calibration kernel, run after
/// each job; it scales `wall_per_det` and `sim_s`.
const PASS_CALIBRATION: f64 = 0.05;
/// Network draws per job before set-up gives up. A draw that the
/// benchmark's first fit cannot place is redrawn, so every job has a
/// reference mapping (C/4 on the 16×16 pool: about 1 draw in 100).
const MAX_DRAWS: u64 = 64;

/// Which pipeline entry point a job calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// `optimize_area` (Eq. 8).
    Area,
    /// `optimize_routes_after_area` (Eq. 11).
    Snu,
    /// `optimize_pgo_after_area` (Eq. 12).
    Pgo,
}

/// How a job's crossbar pool is built (by `croxmap_bench::ExperimentScale`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Table II heterogeneous catalog, at most this many replicas per
    /// dimension.
    TableII(usize),
    /// 16×16 homogeneous crossbars with 2× output slack.
    Homogeneous16,
}

/// One job of a workload: entry point, Table I network, size divisor
/// (1 = paper scale) and pool.
type JobSpec = (Flow, char, usize, PoolKind);

struct Workload {
    jobs: Vec<JobSpec>,
    /// Independent network draws per job spec: more draws average away
    /// more of the input-to-input variation of every metric.
    instances: u64,
    /// Deterministic-second budget of every pipeline call.
    budget: f64,
    /// SmartPixel events generated per run (1 % profile, 99 % held out).
    events: usize,
    /// Timed repetitions of each held-out evaluation; `sim_s` keeps the
    /// fastest, since interference only ever adds time. Short sim stages
    /// need it: single timings of them drift by up to 30 %.
    sim_reps: usize,
}

fn workload(name: &str) -> Option<Workload> {
    use Flow::{Area, Pgo, Snu};
    use PoolKind::{Homogeneous16, TableII};
    match name {
        "area" => Some(Workload {
            jobs: vec![
                (Area, 'A', 4, TableII(2)),
                (Area, 'C', 4, TableII(2)),
                (Area, 'E', 4, TableII(2)),
                (Area, 'A', 2, TableII(2)),
                (Area, 'C', 4, Homogeneous16),
            ],
            instances: 2,
            budget: 0.1,
            events: 5_000,
            sim_reps: 5,
        }),
        "reroute" => Some(Workload {
            jobs: vec![
                (Snu, 'A', 12, TableII(2)),
                (Snu, 'C', 12, TableII(2)),
                (Snu, 'E', 12, TableII(2)),
                (Pgo, 'A', 12, TableII(2)),
            ],
            instances: 12,
            budget: 0.1,
            events: 2_000,
            sim_reps: 5,
        }),
        "pgo_full" => Some(Workload {
            jobs: vec![(Pgo, 'A', 1, TableII(4)), (Pgo, 'C', 1, TableII(4))],
            instances: 7,
            budget: 1.0,
            events: 18_000,
            sim_reps: 1,
        }),
        _ => None,
    }
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The generator seed for run seed `seed`: seed 0 keeps `builtin`, any
/// other seed mixes the two (splitmix64), so every input is fresh.
fn derive_seed(seed: u64, builtin: u64) -> u64 {
    if seed == 0 {
        return builtin;
    }
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(builtin);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Table I analog `net` at 1/`scale` size, with its seed mixed with the run
/// seed and the `draw` (the job's instance in the low 32 bits, its redraw
/// count in the high 32 bits).
fn network_spec(net: char, scale: usize, seed: u64, draw: u64) -> Option<NetworkSpec> {
    let mut spec = NetworkSpec::table_i_scaled(scale)
        .into_iter()
        .find(|s| s.name.starts_with(net))?;
    spec.seed = derive_seed(draw, derive_seed(seed, spec.seed));
    Some(spec)
}

fn build_pool(kind: PoolKind, network: &Network) -> CrossbarPool {
    // The pool helpers read only `pool_cap`.
    match kind {
        PoolKind::TableII(pool_cap) => ExperimentScale {
            pool_cap,
            ..ExperimentScale::full()
        }
        .heterogeneous_pool(network),
        PoolKind::Homogeneous16 => ExperimentScale::full().homogeneous_pool(network),
    }
}

/// One job's inputs.
pub struct Job {
    /// Human-readable label, e.g. `SNU A/8 tableII<=2`.
    pub label: String,
    /// Entry point.
    pub flow: Flow,
    /// Network to map.
    pub network: Network,
    /// Crossbar pool.
    pub pool: CrossbarPool,
    /// Kind of `pool`.
    pub pool_kind: PoolKind,
    /// Pipeline configuration.
    pub config: PipelineConfig,
    /// The benchmark's first-fit mapping: the base of SNU/PGO jobs and the
    /// reference of every job.
    pub reference: Mapping,
    /// Checker numbers of `reference`.
    pub ref_check: Checked,
}

/// Everything a run is built from.
pub struct Inputs {
    /// Jobs in workload order.
    pub jobs: Vec<Job>,
    /// 1 % profiling sample.
    pub profile: EventSet,
    /// Held-out 99 %.
    pub eval: EventSet,
    /// Timed repetitions of each held-out evaluation.
    pub sim_reps: usize,
}

/// Wall seconds of the two generator stages of one setup.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `croxmap_gen::calibrated::generate` calls.
    pub networks_s: f64,
    /// `EventSet::generate` and the profile split.
    pub events_s: f64,
}

fn setup(wl: &Workload, seed: u64) -> Result<(Inputs, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut jobs = Vec::new();
    for instance in 0..wl.instances {
        for &(flow, net, scale, pool_kind) in &wl.jobs {
            let pool_name = match pool_kind {
                PoolKind::TableII(cap) => format!("tableII<={cap}"),
                PoolKind::Homogeneous16 => "16x16".to_string(),
            };
            let label = format!("{flow:?} {net}/{scale}#{instance} {pool_name}");
            let mut drawn = None;
            for redraw in 0..MAX_DRAWS {
                let spec = network_spec(net, scale, seed, instance | redraw << 32)
                    .ok_or(format!("no Table I network {net}"))?;
                let (network, s) = timed(|| generate(&spec));
                times.networks_s += s;
                let pool = build_pool(pool_kind, &network);
                if let Some(reference) = first_fit(&network, &pool) {
                    drawn = Some((network, pool, reference));
                    break;
                }
            }
            let (network, pool, reference) = drawn.ok_or(format!(
                "{label}: first fit places none of {MAX_DRAWS} draws"
            ))?;
            let ref_check = check(&network, &pool, &reference)
                .map_err(|e| format!("{label}: reference mapping: {e}"))?;
            jobs.push(Job {
                label,
                flow,
                network,
                pool,
                pool_kind,
                config: PipelineConfig::with_budget(wl.budget),
                reference,
                ref_check,
            });
        }
    }
    let pixels = SmartPixelConfig {
        seed: derive_seed(seed, SmartPixelConfig::default().seed),
        ..SmartPixelConfig::default()
    };
    let ((profile, eval), s) =
        timed(|| EventSet::generate(&pixels, wl.events).split(PROFILE_SHARE));
    times.events_s = s;
    Ok((
        Inputs {
            jobs,
            profile,
            eval,
            sim_reps: wl.sim_reps,
        },
        times,
    ))
}

/// Wall seconds a job spent simulating, split by kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTimes {
    /// Encoding plus `LifSimulator::run` (and `SpikeProfile` merging).
    pub lif_s: f64,
    /// `count_packets`.
    pub packets_s: f64,
    /// Σ `SimRecord::total_fires`.
    pub fires: u64,
}

impl SimTimes {
    fn total(&self) -> f64 {
        self.lif_s + self.packets_s
    }
}

/// LIF spike counts of `network` over the profiling sample (Eq. 12 weights).
pub fn profile_weights(network: &Network, events: &EventSet, times: &mut SimTimes) -> Vec<u64> {
    let sim = LifSimulator::default();
    let t = Stopwatch::start();
    let mut profile = SpikeProfile::with_len(network.node_count());
    for event in events.events() {
        let record = sim.run(network, &encode(network, event, WINDOW), WINDOW);
        times.fires += record.total_fires();
        profile.merge(&SpikeProfile::from_record(&record));
    }
    times.lif_s += t.seconds();
    profile.counts().to_vec()
}

/// Global packets of `mapping` and of `reference` over the held-out
/// events, from one simulation per event; the evaluation runs `reps` times
/// and the fastest repetition's times are charged to `times`.
pub fn held_out_packets(
    network: &Network,
    mapping: &Mapping,
    reference: &Mapping,
    events: &EventSet,
    reps: usize,
    times: &mut SimTimes,
) -> (u64, u64) {
    let sim = LifSimulator::default();
    let (mut fastest, mut packets, mut fires) = ((f64::INFINITY, 0.0), (0, 0), 0);
    for _ in 0..reps.max(1) {
        let (mut lif_s, mut count_s) = (0.0, 0.0);
        (packets, fires) = ((0, 0), 0);
        for event in events.events() {
            let t = Stopwatch::start();
            let record = sim.run(network, &encode(network, event, WINDOW), WINDOW);
            let run_s = t.seconds();
            packets.0 += count_packets(network, mapping.assignment(), &record).global;
            packets.1 += count_packets(network, reference.assignment(), &record).global;
            count_s += t.seconds() - run_s;
            lif_s += run_s;
            fires += record.total_fires();
        }
        if lif_s + count_s < fastest.0 + fastest.1 {
            fastest = (lif_s, count_s);
        }
    }
    times.fires += fires;
    times.lif_s += fastest.0;
    times.packets_s += fastest.1;
    packets
}

/// The verdict on one job.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Why the job failed, if it did.
    pub failure: Option<String>,
    /// `true` when the failure is a wrong answer (invalid mapping or a
    /// checker disagreement) rather than a missing or poor one.
    pub wrong: bool,
    /// Wall seconds inside the pipeline call.
    pub wall_s: f64,
    /// `OptimizationRun::det_time`.
    pub det_s: f64,
    /// Checker numbers of the returned mapping (the reference's when failed).
    pub area: f64,
    /// Area of the reference mapping.
    pub ref_area: f64,
    /// Global routes of the reference mapping.
    pub ref_routes: u64,
    /// Global routes (Eq. 11).
    pub routes: u64,
    /// Held-out global packets.
    pub packets: u64,
    /// Held-out global packets of the reference mapping.
    pub ref_packets: u64,
    /// Det-time average of incumbent ÷ reference objective.
    pub primal: f64,
    /// min(1, relative gap to the best bound).
    pub gap: f64,
    /// Simulation wall time of this job.
    pub sim: SimTimes,
    /// Final objective, incumbent count and det time, for the
    /// traced-run faithfulness check.
    pub fingerprint: (Option<u64>, usize, u64),
}

/// The job's own objective of a checked mapping: area, global routes, or
/// Eq. 12 packets under the profile `weights`.
fn own_objective(
    network: &Network,
    mapping: &Mapping,
    c: &Checked,
    flow: Flow,
    weights: Option<&[u64]>,
) -> f64 {
    match (flow, weights) {
        (Flow::Area, _) => c.area,
        (_, Some(w)) => predicted_packets(network, mapping, w) as f64,
        (_, None) => c.routes as f64,
    }
}

/// Det-time average over `[0, horizon]` of incumbent ÷ reference objective,
/// holding 1.0 before the first incumbent and the last one after the run.
fn primal_integral(run: &OptimizationRun, reference: f64, horizon: f64) -> f64 {
    if reference <= 0.0 || horizon <= 0.0 {
        return 1.0;
    }
    let mut area = 0.0;
    let mut t_prev = 0.0;
    let mut ratio = 1.0;
    for inc in &run.incumbents {
        let t = inc.det_time.clamp(t_prev, horizon);
        area += ratio * (t - t_prev);
        t_prev = t;
        ratio = inc.objective / reference;
    }
    area += ratio * (horizon - t_prev);
    area / horizon
}

/// Judges a finished pipeline call (or its panic) against the checker and
/// the job's base, then counts the held-out packets of the mapping that
/// stands: the returned one, or the reference when the job failed.
pub fn judge(
    job: &Job,
    weights: Option<&[u64]>,
    result: Result<OptimizationRun, String>,
    wall_s: f64,
    inputs: &Inputs,
    mut sim: SimTimes,
) -> Outcome {
    let ref_obj = own_objective(
        &job.network,
        &job.reference,
        &job.ref_check,
        job.flow,
        weights,
    );
    let mut out = Outcome {
        failure: None,
        wrong: false,
        wall_s,
        det_s: 0.0,
        area: job.ref_check.area,
        ref_area: job.ref_check.area,
        routes: job.ref_check.routes,
        ref_routes: job.ref_check.routes,
        packets: 0,
        ref_packets: 0,
        primal: 1.0,
        gap: 1.0,
        sim,
        fingerprint: (None, 0, 0),
    };
    let verdict = result.and_then(|run| {
        out.det_s = run.det_time;
        out.fingerprint = (
            run.best_objective().map(f64::to_bits),
            run.incumbents.len(),
            run.det_time.to_bits(),
        );
        let mapping = run.best_mapping().ok_or("returned no mapping")?.clone();
        let reported = run.best_objective().unwrap_or(f64::INFINITY);
        let c = check(&job.network, &job.pool, &mapping).inspect_err(|_| out.wrong = true)?;
        let own = own_objective(&job.network, &mapping, &c, job.flow, weights);
        if own > reported + OBJ_AGREE {
            out.wrong = true;
            return Err(format!("checker objective {own} above reported {reported}"));
        }
        // SNU/PGO jobs start from the reference as their base and must not
        // come back worse. An area job has no base: an area above the
        // reference's is a quality result, which `area_ratio` reports.
        let has_base = job.flow != Flow::Area;
        if has_base && (c.area > job.ref_check.area + OBJ_AGREE || own > ref_obj + OBJ_AGREE) {
            return Err(format!(
                "worse than base: area {} vs {}, objective {own} vs {ref_obj}",
                c.area, job.ref_check.area
            ));
        }
        let horizon = job.config.solver.det_time_limit.max(run.det_time);
        out.primal = primal_integral(&run, ref_obj, horizon);
        // Objectives are whole counts, so a zero incumbent divides by one.
        out.gap = if run.best_bound.is_finite() {
            ((reported - run.best_bound).abs() / reported.abs().max(1.0)).min(1.0)
        } else {
            1.0
        };
        Ok((mapping, c))
    });
    let standing = match verdict {
        Ok((mapping, c)) => {
            out.area = c.area;
            out.routes = c.routes;
            mapping
        }
        Err(e) => {
            out.failure = Some(e);
            out.primal = 1.0;
            out.gap = 1.0;
            job.reference.clone()
        }
    };
    (out.packets, out.ref_packets) = held_out_packets(
        &job.network,
        &standing,
        &job.reference,
        &inputs.eval,
        inputs.sim_reps,
        &mut sim,
    );
    out.sim = sim;
    out
}

/// Runs one job through its public pipeline entry point, untraced.
fn run_job(job: &Job, inputs: &Inputs) -> Outcome {
    let mut sim = SimTimes::default();
    let weights =
        (job.flow == Flow::Pgo).then(|| profile_weights(&job.network, &inputs.profile, &mut sim));
    let (result, wall) = timed(|| {
        catch_unwind(AssertUnwindSafe(|| match job.flow {
            Flow::Area => optimize_area(&job.network, &job.pool, &job.config),
            Flow::Snu => {
                optimize_routes_after_area(&job.network, &job.pool, &job.reference, &job.config)
            }
            Flow::Pgo => optimize_pgo_after_area(
                &job.network,
                &job.pool,
                &job.reference,
                weights.as_deref().unwrap_or(&[]),
                &job.config,
            ),
        }))
        .map_err(|_| "panicked".to_string())
    });
    judge(job, weights.as_deref(), result, wall, inputs, sim)
}

/// Aggregates of one pass over the workload's jobs.
struct Pass {
    outcomes: Vec<Outcome>,
    wall_s: f64,
}

impl Pass {
    fn sum(&self, f: impl Fn(&Outcome) -> f64) -> f64 {
        self.outcomes.iter().map(f).sum()
    }

    fn mean(&self, f: impl Fn(&Outcome) -> f64) -> f64 {
        self.sum(f) / self.outcomes.len().max(1) as f64
    }

    /// Σ returned ÷ Σ reference of one quality measure.
    fn relative(&self, f: impl Fn(&Outcome) -> f64, reference: impl Fn(&Outcome) -> f64) -> f64 {
        let base = self.sum(reference);
        if base > 0.0 {
            self.sum(f) / base
        } else {
            1.0
        }
    }
}

/// Runs every job once, with `calibration` run after each; `Pass::wall_s`
/// leaves the calibration out.
fn run_pass(inputs: &Inputs, calibration: &mut Calibration) -> Pass {
    let t = Stopwatch::start();
    let outcomes: Vec<Outcome> = inputs
        .jobs
        .iter()
        .map(|job| {
            let (o, s) = timed(|| run_job(job, inputs));
            report_job(job, &o);
            calibration.keep_up(s);
            o
        })
        .collect();
    Pass {
        outcomes,
        wall_s: t.seconds() - calibration.seconds(),
    }
}

fn report_job(job: &Job, o: &Outcome) {
    println!(
        "job {:<24} wall {:>7.3} s  det {:>6.3} s  area {:>7}  snu {:>5}  packets {:>9}  primal {:.4}  gap {:.4}  sim {:.3} s  peak {:.1} MiB{}",
        job.label,
        o.wall_s,
        o.det_s,
        o.area,
        o.routes,
        o.packets,
        o.primal,
        o.gap,
        o.sim.total(),
        peak_rss_mb(),
        o.failure
            .as_ref()
            .map_or(String::new(), |f| format!("  FAILED: {f}"))
    );
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric of the result line.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Prints every metric and the result line. A metric that is not finite
/// is printed as `null` and makes the result incorrect.
fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let mut correct = correct;
    for m in metrics {
        println!("metric {:<34} {:>18} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            println!("ERROR: metric {} is {}", m.name, m.value);
            correct = false;
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload(&args.workload) else {
        eprintln!(
            "pipebench: unknown workload {:?} (area | reroute | pgo_full)",
            args.workload
        );
        return ExitCode::from(2);
    };

    let mut setup_times = Vec::new();
    let mut built = None;
    let mut setup_calibration = Calibration::new(SETUP_CALIBRATION);
    let setup_clock = Stopwatch::start();
    while setup_times.len() < SETUP_REPS || setup_clock.seconds() < SETUP_SECONDS {
        let (b, s) = timed(|| setup(&wl, args.seed));
        match b {
            Ok(b) => built = Some(b),
            Err(e) => {
                eprintln!("pipebench: setup failed: {e}");
                return ExitCode::from(1);
            }
        }
        setup_times.push(s);
        setup_calibration.keep_up(s);
    }
    let Some((inputs, gen_times)) = built else {
        return ExitCode::from(1);
    };
    let setup_raw_s = median(setup_times);
    let setup_s = setup_raw_s * setup_calibration.speed();
    println!(
        "workload {} seed {}: {} jobs, {} profile + {} held-out events, setup {:.4} s at host speed {:.3} ({:.4} s scaled)",
        args.workload,
        args.seed,
        inputs.jobs.len(),
        inputs.profile.len(),
        inputs.eval.len(),
        setup_raw_s,
        setup_calibration.speed(),
        setup_s
    );

    // Measure: one pass over the workload's fixed job list. The job list,
    // not `--seconds`, sets how long it lasts, so every run measures the
    // same work; determinism is checked by comparing separate runs.
    let mut calibration = Calibration::new(PASS_CALIBRATION);
    let pass = run_pass(&inputs, &mut calibration);
    let wall_per_det = pass.sum(|o| o.wall_s) / pass.sum(|o| o.det_s);
    let sim_s = pass.sum(|o| o.sim.total());
    println!(
        "pass {:.1} s (--seconds {}): {wall_per_det:.3} s/det-s, sim {sim_s:.3} s at host speed {:.3}",
        pass.wall_s,
        args.seconds,
        calibration.speed()
    );
    let attempted = pass.outcomes.len();
    let failed = pass.outcomes.iter().filter(|o| o.failure.is_some()).count();
    let wrong = pass.outcomes.iter().any(|o| o.wrong);
    println!(
        "sums: area {} (reference {}), snu {} ({}), packets {} ({})",
        pass.sum(|o| o.area),
        pass.sum(|o| o.ref_area),
        pass.sum(|o| o.routes as f64),
        pass.sum(|o| o.ref_routes as f64),
        pass.sum(|o| o.packets as f64),
        pass.sum(|o| o.ref_packets as f64),
    );

    if args.trace {
        let traced = replay::traced_pass(&args.workload, args.seed, &inputs, &pass, gen_times);
        let Some((metrics, traced_ok)) = traced else {
            return ExitCode::from(1);
        };
        print_result(!wrong && traced_ok, attempted, failed, &metrics);
        return ExitCode::SUCCESS;
    }

    // Wall-clock metrics at the reference host speed (see `calib.rs`).
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric(
            "wall_per_det",
            wall_per_det * calibration.speed(),
            "s/det-s",
        ),
        metric("sim_s", sim_s * calibration.speed(), "s"),
        metric(
            "area_ratio",
            pass.relative(|o| o.area, |o| o.ref_area),
            "ratio",
        ),
        metric(
            "snu_ratio",
            pass.relative(|o| o.routes as f64, |o| o.ref_routes as f64),
            "ratio",
        ),
        metric(
            "packets_ratio",
            pass.relative(|o| o.packets as f64, |o| o.ref_packets as f64),
            "ratio",
        ),
        metric("primal_integral", pass.mean(|o| o.primal), "ratio"),
        metric("gap", pass.mean(|o| o.gap), "ratio"),
    ];
    print_result(!wrong, attempted, failed, &metrics);
    ExitCode::SUCCESS
}
