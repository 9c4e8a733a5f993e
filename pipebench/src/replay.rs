//! The traced run: every pipeline call replayed from its public parts, with
//! a span around each layer.
//!
//! The replays mirror `croxmap_core::pipeline` step for step —
//! `optimize_area` is greedy → local search → `MappingIlp::build` →
//! `refine_pairwise` → `warm_start` → `Solver::solve_with_callback` →
//! `decode`; the SNU/PGO re-solves build the restricted formulation and
//! polish the base with `local_search_routes`. Refinement sub-ILPs are
//! anonymous inside the library, so their phases come from a
//! [`PhaseSink`] installed with `SolverConfig::with_trace`; tracing never
//! charges the deterministic clock. Each replay's final objective,
//! incumbent count and det time must equal the untraced call's
//! (`trace.faithful`), so the split always describes the program measured.
//!
//! The pipeline calls run the sequential solver, which bypasses
//! `croxmap_ilp::parallel`. To measure that layer too, the traced run
//! re-solves the area ILP of every job on the 16×16 pool with the
//! deterministic parallel tree search (`parallel.*` metrics), outside the
//! replayed calls and their wall times.

use crate::check::check;
use crate::wall::Stopwatch;
use crate::{
    judge, metric, profile_weights, Flow, Inputs, Job, Metric, Outcome, PoolKind, SetupTimes,
    SimTimes,
};
use croxmap_core::baseline::{greedy_first_fit, local_search_area, local_search_routes};
use croxmap_core::pipeline::{refine_pairwise, OptimizationRun, TimedMapping};
use croxmap_core::{Mapping, MappingIlp, MappingObjective};
use croxmap_ilp::tol::OBJ_AGREE;
use croxmap_ilp::{
    DeterministicClock, ParallelMode, Phase, PhaseBreakdown, SolveResult, Solver, SolverConfig,
    SpanEvent, TraceHandle, TraceSink,
};
use croxmap_sim::count_routes;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Worker threads of the parallel re-solve.
const PARALLEL_THREADS: usize = 2;
/// Det-second budget of the parallel re-solve: enough for the C/4 16×16
/// area ILP to leave its root and run the tree on most inputs.
const PARALLEL_BUDGET: f64 = 0.8;

/// Forwards each finished solve's phase breakdown to the benchmark.
struct PhaseSink(Sender<PhaseBreakdown>);

impl TraceSink for PhaseSink {
    fn record(&mut self, _event: &SpanEvent) {}

    fn finish(&mut self, phases: &PhaseBreakdown) {
        // The receiver outlives every solve of the replay.
        let _ = self.0.send(*phases);
    }
}

fn phase_sink() -> (TraceHandle, Receiver<PhaseBreakdown>) {
    let (tx, rx) = channel();
    (TraceHandle::new(PhaseSink(tx)), rx)
}

/// One timed call: job id, layer, start, end and the enclosing span.
struct Span {
    job: usize,
    layer: &'static str,
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder, written out at exit.
struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    fn enter(&mut self, job: usize, layer: &'static str, name: &'static str) -> usize {
        let start = self.origin.seconds();
        self.spans.push(Span {
            job,
            layer,
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and any span a panic left open inside it) and
    /// returns its wall seconds.
    fn exit(&mut self, id: usize) -> f64 {
        let now = self.origin.seconds();
        while let Some(open) = self.open.pop() {
            self.spans[open].end = now;
            if open == id {
                break;
            }
        }
        now - self.spans[id].start
    }

    /// Runs `f` inside a span and returns its result and wall seconds.
    fn span<R>(
        &mut self,
        job: usize,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.enter(job, layer, name);
        let r = f();
        (r, self.exit(id))
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"job\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}}}",
                s.job, s.layer, s.name, s.start, s.end
            );
        }
        out
    }
}

/// Per-layer counters summed over the jobs of one traced pass.
#[derive(Default)]
struct Layers {
    greedy_s: f64,
    local_search_s: f64,
    routes_s: f64,
    seed_area: f64,
    seed_ref_area: f64,
    build_s: f64,
    vars: usize,
    rows: usize,
    warm_s: f64,
    decode_s: f64,
    refine_wall_s: f64,
    refine_det_s: f64,
    refine_subilps: u64,
    refine_hits: u64,
    refine_phases: PhaseBreakdown,
    ilp_wall_s: f64,
    ilp_det_s: f64,
    ilp_solves: u64,
    ilp_nodes: u64,
    ilp_phases: PhaseBreakdown,
    lp_fallbacks: u64,
    refactors: u64,
    ftran_visited: u64,
    presolve_rows_removed: u64,
    cuts_added: u64,
    warm_accepted: u64,
    bound_finite: u64,
    parallel_epochs: u64,
    parallel_heuristic_incumbents: u64,
    sim: SimTimes,
}

fn add_phases(into: &mut PhaseBreakdown, from: &PhaseBreakdown) {
    for p in Phase::ALL {
        into.add(p, from.ticks(p), from.count(p));
    }
}

impl Layers {
    /// Records one global solve; `warm_objective` is the objective of the
    /// mapping passed as its warm start.
    fn record_solve(&mut self, result: &SolveResult, wall_s: f64, warm_objective: Option<f64>) {
        self.ilp_wall_s += wall_s;
        self.ilp_det_s += result.det_time;
        self.ilp_solves += 1;
        self.ilp_nodes += result.nodes;
        add_phases(&mut self.ilp_phases, &result.phases);
        self.lp_fallbacks += result.lp_fallbacks;
        self.refactors += result.factor.refactors;
        self.ftran_visited += result.factor.ftran_visited;
        self.presolve_rows_removed += result.presolve.rows_removed as u64;
        self.cuts_added += result.cuts.cuts_added as u64;
        let first = result.incumbents.first().map(|e| e.objective);
        if let (Some(f), Some(w)) = (first, warm_objective) {
            self.warm_accepted += u64::from((f - w).abs() <= OBJ_AGREE);
        }
        self.bound_finite += u64::from(result.best_bound.is_finite());
    }
}

/// `run_ilp` of `pipeline.rs`, traced: encode the warm start (a mapping
/// and its objective), solve, decode every incumbent.
fn traced_ilp(
    tr: &mut Tracer,
    layers: &mut Layers,
    j: usize,
    job: &Job,
    ilp: &MappingIlp,
    warm: Option<(&Mapping, f64)>,
    config: &SolverConfig,
) -> OptimizationRun {
    let (warm_vec, s) = tr.span(j, "formulation", "warm_start", || {
        warm.map(|(m, _)| ilp.warm_start(&job.network, m))
    });
    layers.warm_s += s;
    let (result, s) = tr.span(j, "ilp", "solve_with_callback", || {
        Solver::new(config.clone()).solve_with_callback(ilp.model(), warm_vec.as_deref(), |_| {})
    });
    layers.record_solve(&result, s, warm.map(|(_, objective)| objective));
    let (incumbents, s) = tr.span(j, "formulation", "decode", || {
        result
            .incumbents
            .iter()
            .map(|ev| TimedMapping {
                det_time: ev.det_time,
                objective: ev.objective,
                mapping: ilp.decode(&ev.solution),
            })
            .collect()
    });
    layers.decode_s += s;
    OptimizationRun {
        incumbents,
        status: result.status,
        best_bound: result.best_bound,
        det_time: result.det_time,
    }
}

/// `optimize_area`, traced.
fn replay_area(tr: &mut Tracer, layers: &mut Layers, j: usize, job: &Job) -> OptimizationRun {
    let (net, pool, cfg) = (&job.network, &job.pool, &job.config);
    let seed = if cfg.warm_start {
        let (greedy, s) = tr.span(j, "baseline", "greedy_first_fit", || {
            greedy_first_fit(net, pool).ok()
        });
        layers.greedy_s += s;
        let (seed, s) = tr.span(j, "baseline", "local_search_area", || {
            greedy.map(|g| local_search_area(net, pool, &g, 64))
        });
        layers.local_search_s += s;
        seed
    } else {
        None
    };
    if let Some(seed) = &seed {
        layers.seed_area += seed.area(pool);
        layers.seed_ref_area += job.ref_check.area;
    }
    let (ilp, s) = tr.span(j, "formulation", "build", || {
        MappingIlp::build(net, pool, &MappingObjective::Area, &cfg.formulation)
    });
    layers.build_s += s;
    layers.vars += ilp.model().num_vars();
    layers.rows += ilp.model().num_constraints();

    let mut incumbents: Vec<TimedMapping> = Vec::new();
    let mut refine_time = 0.0;
    let warm = seed.map(|seed| {
        incumbents.push(TimedMapping {
            det_time: 0.0,
            objective: seed.area(pool),
            mapping: seed.clone(),
        });
        let (sink, rx) = phase_sink();
        let sub_cfg = cfg.solver.clone().with_trace(sink);
        let ((improvements, spent), s) = tr.span(j, "pipeline", "refine_pairwise", || {
            refine_pairwise(net, pool, &seed, &sub_cfg, cfg.solver.det_time_limit * 0.5)
        });
        layers.refine_wall_s += s;
        layers.refine_det_s += spent;
        layers.refine_hits += improvements.len() as u64;
        for phases in rx.try_iter() {
            layers.refine_subilps += 1;
            add_phases(&mut layers.refine_phases, &phases);
        }
        refine_time = spent;
        let best = improvements.last().map_or(seed, |t| t.mapping.clone());
        incumbents.extend(improvements);
        best
    });
    let remaining = SolverConfig {
        det_time_limit: (cfg.solver.det_time_limit - refine_time).max(0.1),
        ..cfg.solver.clone()
    };
    let warm = warm.as_ref().map(|m| (m, m.area(pool)));
    let mut run = traced_ilp(tr, layers, j, job, &ilp, warm, &remaining);
    let best_so_far = incumbents.last().map(|t| t.objective);
    for inc in run.incumbents {
        if best_so_far.is_some_and(|b| inc.objective >= b - OBJ_AGREE) {
            continue;
        }
        incumbents.push(TimedMapping {
            det_time: inc.det_time + refine_time,
            objective: inc.objective,
            mapping: inc.mapping,
        });
    }
    run.incumbents = incumbents;
    run.det_time += refine_time;
    run
}

/// `optimize_routes_after_area` / `optimize_pgo_after_area`, traced.
fn replay_reroute(
    tr: &mut Tracer,
    layers: &mut Layers,
    j: usize,
    job: &Job,
    weights: Option<&[u64]>,
) -> OptimizationRun {
    let (net, pool, cfg, base) = (&job.network, &job.pool, &job.config, &job.reference);
    let objective = match weights {
        Some(w) => MappingObjective::PgoPackets(w.to_vec()),
        None => MappingObjective::GlobalRoutes,
    };
    let (ilp, s) = tr.span(j, "formulation", "build", || {
        let formulation = cfg.formulation.clone().restricted_to(base);
        MappingIlp::build(net, pool, &objective, &formulation)
    });
    layers.build_s += s;
    layers.vars += ilp.model().num_vars();
    layers.rows += ilp.model().num_constraints();
    let warm = if cfg.warm_start {
        let (m, s) = tr.span(j, "baseline", "local_search_routes", || {
            local_search_routes(net, pool, base, weights, 32)
        });
        layers.routes_s += s;
        m
    } else {
        base.clone()
    };
    let warm_objective = match weights {
        Some(w) => crate::check::predicted_packets(net, &warm, w) as f64,
        None => count_routes(net, warm.assignment()).global as f64,
    };
    traced_ilp(
        tr,
        layers,
        j,
        job,
        &ilp,
        Some((&warm, warm_objective)),
        &cfg.solver,
    )
}

/// The `ilp::parallel` layer: `job`'s area ILP, warm-started from its
/// reference mapping, solved by the deterministic parallel tree search.
///
/// # Errors
///
/// Fails if the parallel search did not run, or if the best mapping fails the
/// checker or has more area than the warm start.
fn parallel_resolve(
    tr: &mut Tracer,
    layers: &mut Layers,
    j: usize,
    job: &Job,
) -> Result<(), String> {
    let (net, pool) = (&job.network, &job.pool);
    let ilp = MappingIlp::build(net, pool, &MappingObjective::Area, &job.config.formulation);
    let warm = ilp.warm_start(net, &job.reference);
    let config = job
        .config
        .solver
        .clone()
        .with_det_time_limit(PARALLEL_BUDGET)
        .with_threads(PARALLEL_THREADS)
        .with_parallel_mode(ParallelMode::Deterministic);
    let (result, _) = tr.span(j, "parallel", "solve_with_callback", || {
        Solver::new(config).solve_with_callback(ilp.model(), Some(&warm), |_| {})
    });
    let stats = result.parallel.ok_or("the parallel search did not run")?;
    layers.parallel_epochs += stats.epochs;
    layers.parallel_heuristic_incumbents += stats.heuristic_incumbents;
    let best = result.best.as_ref().ok_or("no incumbent")?;
    let c = check(net, pool, &ilp.decode(best))?;
    if c.area > job.ref_check.area + OBJ_AGREE {
        return Err(format!(
            "area {} above the warm start's {}",
            c.area, job.ref_check.area
        ));
    }
    Ok(())
}

/// Runs the traced pass, checks it against the untraced `reference` pass,
/// writes the spans and returns the per-layer metrics and whether the
/// replay was faithful and every parallel re-solve checked out. Returns
/// `None` if the span file cannot be written.
pub fn traced_pass(
    workload: &str,
    seed: u64,
    inputs: &Inputs,
    untraced: &crate::Pass,
    gen_times: SetupTimes,
) -> Option<(Vec<Metric>, bool)> {
    let mut tr = Tracer::new();
    let mut layers = Layers::default();
    let t = Stopwatch::start();
    let mut outcomes: Vec<Outcome> = Vec::new();
    for (j, job) in inputs.jobs.iter().enumerate() {
        let mut sim = SimTimes::default();
        let (weights, _) = tr.span(j, "sim", "profile", || {
            (job.flow == Flow::Pgo)
                .then(|| profile_weights(&job.network, &inputs.profile, &mut sim))
        });
        let name = match job.flow {
            Flow::Area => "optimize_area",
            Flow::Snu => "optimize_routes_after_area",
            Flow::Pgo => "optimize_pgo_after_area",
        };
        let span = tr.enter(j, "pipeline", name);
        let result = catch_unwind(AssertUnwindSafe(|| match job.flow {
            Flow::Area => replay_area(&mut tr, &mut layers, j, job),
            Flow::Snu | Flow::Pgo => {
                replay_reroute(&mut tr, &mut layers, j, job, weights.as_deref())
            }
        }))
        .map_err(|_| "panicked".to_string());
        tr.exit(span);
        let (o, _) = tr.span(j, "bench", "judge", || {
            judge(job, weights.as_deref(), result, 0.0, inputs, sim)
        });
        layers.sim.lif_s += o.sim.lif_s;
        layers.sim.packets_s += o.sim.packets_s;
        layers.sim.fires += o.sim.fires;
        outcomes.push(o);
    }
    let traced_wall = t.seconds();

    let mut parallel_ok = true;
    for (j, job) in inputs.jobs.iter().enumerate() {
        if job.flow != Flow::Area || job.pool_kind != PoolKind::Homogeneous16 {
            continue;
        }
        if let Err(e) = parallel_resolve(&mut tr, &mut layers, j, job) {
            parallel_ok = false;
            println!("PARALLEL {}: {e}", job.label);
        }
    }

    let mut faithful = true;
    for ((job, u), t) in inputs.jobs.iter().zip(&untraced.outcomes).zip(&outcomes) {
        if u.fingerprint != t.fingerprint {
            faithful = false;
            println!(
                "MISMATCH {}: untraced (objective bits, incumbents, det bits) {:?}, traced {:?}",
                job.label, u.fingerprint, t.fingerprint
            );
        }
    }

    let dir = std::path::Path::new("pipebench").join("out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.jsonl())) {
        eprintln!("pipebench: cannot write {}: {e}", path.display());
        return None;
    }
    println!("{} spans written to {}", tr.spans.len(), path.display());

    let l = &layers;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ns_per_tick = |wall_s: f64, det_s: f64| {
        let wall_ns = std::time::Duration::from_secs_f64(wall_s).as_nanos() as f64;
        ratio(wall_ns, DeterministicClock::seconds_to_ticks(det_s) as f64)
    };
    let n_jobs = outcomes.len().max(1) as f64;
    let mut m = vec![
        metric("gen.networks_ms", gen_times.networks_s * 1e3, "ms"),
        metric("gen.events_ms", gen_times.events_s * 1e3, "ms"),
        metric("baseline.greedy_ms", l.greedy_s * 1e3, "ms"),
        metric("baseline.local_search_ms", l.local_search_s * 1e3, "ms"),
        metric("baseline.routes_ms", l.routes_s * 1e3, "ms"),
        metric(
            "baseline.seed_ratio",
            ratio(l.seed_area, l.seed_ref_area),
            "ratio",
        ),
        metric("formulation.build_ms", l.build_s * 1e3, "ms"),
        metric("formulation.vars", l.vars as f64, "count"),
        metric("formulation.rows", l.rows as f64, "count"),
        metric("formulation.warm_ms", l.warm_s * 1e3, "ms"),
        metric("formulation.decode_ms", l.decode_s * 1e3, "ms"),
        metric("pipeline.refine_wall_s", l.refine_wall_s, "s"),
        metric("pipeline.refine_det_s", l.refine_det_s, "det-s"),
        metric(
            "pipeline.refine_ns_per_tick",
            ns_per_tick(l.refine_wall_s, l.refine_det_s),
            "ns/tick",
        ),
        metric("pipeline.refine_subilps", l.refine_subilps as f64, "count"),
        metric(
            "pipeline.refine_hit_rate",
            ratio(l.refine_hits as f64, l.refine_subilps as f64),
            "ratio",
        ),
    ];
    for p in Phase::ALL {
        m.push(metric(
            format!("pipeline.refine_{}_ticks", p.name()),
            l.refine_phases.ticks(p) as f64,
            "ticks",
        ));
    }
    m.extend([
        metric("ilp.wall_s", l.ilp_wall_s, "s"),
        metric("ilp.det_s", l.ilp_det_s, "det-s"),
        metric(
            "ilp.ns_per_tick",
            ns_per_tick(l.ilp_wall_s, l.ilp_det_s),
            "ns/tick",
        ),
        metric(
            "ilp.nodes_per_s",
            ratio(l.ilp_nodes as f64, l.ilp_wall_s),
            "1/s",
        ),
    ]);
    for p in Phase::ALL {
        m.push(metric(
            format!("ilp.{}_ticks", p.name()),
            l.ilp_phases.ticks(p) as f64,
            "ticks",
        ));
    }
    m.extend([
        metric("ilp.lp_fallbacks", l.lp_fallbacks as f64, "count"),
        metric("ilp.refactors", l.refactors as f64, "count"),
        metric("ilp.ftran_visited", l.ftran_visited as f64, "count"),
        metric(
            "ilp.presolve_rows_removed",
            l.presolve_rows_removed as f64,
            "count",
        ),
        metric("ilp.cuts_added", l.cuts_added as f64, "count"),
        metric(
            "ilp.warm_accepted",
            ratio(l.warm_accepted as f64, l.ilp_solves as f64),
            "ratio",
        ),
        metric(
            "ilp.bound_finite",
            ratio(l.bound_finite as f64, l.ilp_solves as f64),
            "ratio",
        ),
        metric("parallel.epochs", l.parallel_epochs as f64, "count"),
        metric(
            "parallel.heuristic_incumbents",
            l.parallel_heuristic_incumbents as f64,
            "count",
        ),
        metric("sim.lif_ms", l.sim.lif_s * 1e3, "ms"),
        metric("sim.fires", l.sim.fires as f64, "count"),
        metric("sim.packets_ms", l.sim.packets_s * 1e3, "ms"),
        metric(
            "fail_rate",
            outcomes.iter().filter(|o| o.failure.is_some()).count() as f64 / n_jobs,
            "ratio",
        ),
        metric("process.peak_rss_mb", crate::peak_rss_mb(), "MiB"),
        metric(
            "trace.overhead",
            ratio(traced_wall, untraced.wall_s),
            "ratio",
        ),
        metric("trace.faithful", f64::from(u8::from(faithful)), "bool"),
    ]);
    Some((m, faithful && parallel_ok))
}
