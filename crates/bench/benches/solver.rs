//! Micro-benchmarks of the ILP engine: LP relaxations, full
//! branch-and-bound solves, and the warm-vs-cold comparison that tracks
//! the revised-simplex warm-start win across PRs.
//!
//! Besides the criterion groups, `warm_vs_cold` writes a machine-readable
//! `BENCH_solver.json` at the repository root: one record per
//! (instance, mode) with node counts, deterministic work and throughput,
//! so future PRs can diff the solver's perf trajectory without parsing
//! human-oriented bench output. Reported objectives are rounded to
//! [`OBJECTIVE_DECIMALS`] decimal places (1e-6, comfortably above the
//! solver's 1e-9 duality tolerances) so warm/cold rows diff cleanly
//! instead of disagreeing in the 15th digit.
//!
//! The instance families are ring covers and multi-knapsacks at
//! n ∈ {48, 96, 192, 384} plus a set-partitioning family built from the
//! *real* core mapping formulation (Eqs. 3–7 over a generated SNN and a
//! heterogeneous crossbar pool) — the workload the ROADMAP cares about.
//! The family includes a degenerate `cold_root/*` group (single cold root
//! LPs, raw vs unperturbed vs presolved, with rows/cols/nnz removed in
//! the JSON), `presolve_bb/*` rows toggling presolve over the full
//! branch-and-bound, a `cuts_root/*` group driving the root
//! cutting-plane loop through the public `LpSession` API (root bound
//! before/after, rounds, rows added, in-place growth batches, and the
//! root gap closed against a reference incumbent), a `parallel_bb/*`
//! group running the tree-heavy instances through the parallel driver
//! (sequential `t1` baseline, deterministic 4-thread schedule measured
//! twice as `t4_det`/`t4_det_rerun`, and work-stealing `t4_ws`).
//!
//! ## CI smoke mode
//!
//! With `CROXMAP_BENCH_SMOKE=1` the harness skips the criterion timing
//! loops and the large instances, re-measures the committed n ∈ {48, 96}
//! `lp_chain` workloads plus the `cold_root` and `cuts_root` groups, and
//! **fails (exit 1) if any guarded `work_ticks` (warm lp_chain, cold_root
//! with presolve / perturbation enabled, or cuts_root) regresses more
//! than 1.5× against the committed `BENCH_solver.json`**, if any
//! measured row had an LP solve the engine declined (`LpStatus::Failed`,
//! counted in the JSON `lp_fallbacks` field), or if a cut round ever
//! *worsens* the root objective bound (valid cuts can only raise it).
//! The freshly
//! measured `parallel_bb/*` rows are gated live: the deterministic
//! 4-thread schedule must not diverge between its two runs, every mode
//! must land on the sequential objective, and (only on ≥ 4-core
//! machines) the best 4-thread wall time must beat sequential by 1.5×.
//! The committed file is left untouched in this mode.

use criterion::{criterion_group, BenchmarkId, Criterion};
use croxmap_core::baseline::greedy_first_fit;
use croxmap_core::{FormulationConfig, MappingIlp, MappingObjective};
use croxmap_gen::calibrated::{generate, NetworkSpec};
use croxmap_ilp::presolve::{presolve, PresolveOutcome, PresolveStats};
use croxmap_ilp::simplex::{self, LpResult, LpStatus};
use croxmap_ilp::{
    Cut, CutSeparator, DeterministicClock, FactorStats, LpSession, Model, ParallelMode, Phase,
    PhaseBreakdown, Solver, SolverConfig,
};
use croxmap_mca::{ArchitectureSpec, AreaModel, CrossbarPool};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Decimal places kept on reported objectives (documented tolerance).
const OBJECTIVE_DECIMALS: i32 = 6;
/// Warm `work_ticks` regression factor at which the smoke run fails.
/// The guarded warm `lp_chain` rows are the Forrest–Tomlin warm ticks.
const SMOKE_REGRESSION_LIMIT: f64 = 1.5;
/// Peak `update file / refactor policy bound` ratio at which the smoke
/// run fails. Ratios slightly above 1.0 are normal (the policy is
/// checked after the pivot that crosses it); sustained growth past this
/// limit means the update file escaped the refactor policy.
const SMOKE_GROWTH_LIMIT: f64 = 1.5;
/// Minimum `t1 wall / best 4-thread wall` ratio the smoke gate demands
/// from the `parallel_bb/*` rows — checked only on machines that
/// actually expose ≥ 4 cores (single-core CI runners print a skip note;
/// the determinism gate on those rows always runs).
const PARALLEL_SPEEDUP_FLOOR: f64 = 1.5;

/// Set-cover instance over a ring: n elements, each covered by 2 sets.
fn ring_cover(n: usize) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|_| m.add_binary()).collect();
    for e in 0..n {
        m.add_constraint(m.expr([(vars[e], 1.0), (vars[(e + 1) % n], 1.0)]).geq(1.0));
    }
    m.set_objective(
        m.expr(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 3) as f64)),
        ),
    );
    m
}

/// Multi-knapsack: n items, 3 resource constraints.
fn knapsack(n: usize) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|_| m.add_binary()).collect();
    for r in 0..3 {
        let cap = (n as f64) * 1.5;
        m.add_constraint(
            m.expr(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, 1.0 + ((i + r) % 5) as f64)),
            )
            .leq(cap),
        );
    }
    m.set_objective(
        m.expr(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, -(2.0 + ((i * 7) % 11) as f64))),
        ),
    );
    m
}

/// Set-partitioning family drawn from the core mapping formulation: the
/// area ILP (one-slot-per-neuron partition rows, capacity rows, linking)
/// over a calibrated network and the Table-II heterogeneous pool.
fn set_partition(scale: usize) -> Model {
    let net = generate(&NetworkSpec::scaled_a(scale));
    let pool = table_ii_pool(net.node_count());
    let ilp = MappingIlp::build(
        &net,
        &pool,
        &MappingObjective::Area,
        &FormulationConfig::new(),
    );
    ilp.model().clone()
}

fn table_ii_pool(node_count: usize) -> CrossbarPool {
    CrossbarPool::for_network_capped(
        &ArchitectureSpec::table_ii_heterogeneous(),
        &AreaModel::memristor_count(),
        node_count,
        2,
    )
}

/// The slot-restricted SNU re-optimisation member of the family (§V-F /
/// LNS resolves): the `fix_binary` cascades make it the degenerate cold
/// solve the ROADMAP's degeneracy item is about.
fn set_partition_restricted(scale: usize) -> Model {
    let net = generate(&NetworkSpec::scaled_a(scale));
    let pool = table_ii_pool(net.node_count());
    let mapping = greedy_first_fit(&net, &pool).expect("greedy mapping exists");
    let formulation = FormulationConfig::new().restricted_to(&mapping);
    let ilp = MappingIlp::build(&net, &pool, &MappingObjective::GlobalRoutes, &formulation);
    ilp.model().clone()
}

fn bench_lp_relaxation(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_relaxation");
    group.sample_size(20);
    for n in [16usize, 48, 96] {
        let model = Arc::new(ring_cover(n));
        group.bench_with_input(BenchmarkId::new("ring_cover", n), &model, |b, m| {
            let bounds: Vec<(f64, f64)> =
                m.variables().iter().map(|v| (v.lower, v.upper)).collect();
            b.iter(|| {
                LpSession::open(Arc::clone(m), simplex::LpConfig::default()).solve(&bounds, None)
            });
        });
    }
    group.finish();
}

fn bench_branch_and_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch_and_bound");
    group.sample_size(10);
    let cfg = SolverConfig::default().with_det_time_limit(5.0);
    for n in [12usize, 24] {
        let model = ring_cover(n);
        group.bench_with_input(BenchmarkId::new("ring_cover", n), &model, |b, m| {
            b.iter(|| Solver::new(cfg.clone()).solve(m));
        });
        let model = knapsack(n);
        group.bench_with_input(BenchmarkId::new("knapsack", n), &model, |b, m| {
            b.iter(|| Solver::new(cfg.clone()).solve(m));
        });
    }
    group.finish();
}

/// One record of the machine-readable perf log.
struct WarmColdRecord {
    instance: String,
    mode: &'static str,
    nodes: u64,
    det_seconds: f64,
    work_ticks: u64,
    wall_seconds: f64,
    objective: Option<f64>,
    /// Root presolve outcome, when the run presolved.
    presolve: Option<PresolveStats>,
    /// LP solves the engine declined during the run (`LpStatus::Failed`;
    /// `SolveResult::lp_fallbacks` on full solves).
    fallbacks: u64,
    /// Factorisation counters summed over the run's LP solves (None for
    /// runs that only observe `SolveResult`-level aggregates).
    factor: Option<FactorStats>,
    /// Root cutting-plane trajectory (cuts_root rows only).
    cuts: Option<CutsRootInfo>,
    /// Deterministic-tick split across solver phases. All-zero on rows
    /// that never enter `Solver::solve` (LP chains, cold roots).
    phases: PhaseBreakdown,
}

/// What one root cut loop achieved, for the `cuts_root/*` rows.
struct CutsRootInfo {
    /// Root LP objective before any cut.
    bound_before: f64,
    /// Root LP objective after the last round.
    bound_after: f64,
    /// Rounds that added at least one cut.
    rounds: u32,
    /// Cut rows appended.
    rows_added: usize,
    /// `false` if any round *lowered* the root bound (valid cuts cannot;
    /// the smoke gate fails on it).
    monotone: bool,
    /// Row batches the live engine absorbed in place (vs snapshot
    /// reinstalls with a refactorisation).
    incremental_batches: u64,
    /// Percentage of the root integrality gap closed, measured against a
    /// reference branch-and-bound incumbent (`None` when the reference
    /// found no solution or there was no gap).
    gap_closed_pct: Option<f64>,
}

impl WarmColdRecord {
    fn nodes_per_sec(&self) -> f64 {
        self.nodes as f64 / self.wall_seconds.max(1e-9)
    }
}

/// `1` when the engine declined `result`'s solve, else `0`.
fn failures(result: &LpResult) -> u64 {
    u64::from(result.status == LpStatus::Failed)
}

/// Rounds a reported objective to the documented tolerance so warm/cold
/// rows (and runs across PRs) diff cleanly.
fn round_objective(o: f64) -> f64 {
    let scale = 10f64.powi(OBJECTIVE_DECIMALS);
    (o * scale).round() / scale
}

/// Full branch-and-bound, warm vs cold LPs (presolve at its default: on).
fn measure_bb(name: &str, model: &Model, warm_lp: bool) -> WarmColdRecord {
    let cfg = SolverConfig {
        det_time_limit: 5.0,
        enable_lns: false,
        warm_lp,
        ..SolverConfig::default()
    };
    let start = Instant::now();
    let result = Solver::new(cfg).solve(model);
    let wall = start.elapsed().as_secs_f64();
    WarmColdRecord {
        instance: format!("bb/{name}"),
        mode: if warm_lp { "warm" } else { "cold" },
        nodes: result.nodes,
        det_seconds: result.det_time,
        work_ticks: DeterministicClock::seconds_to_ticks(result.det_time),
        wall_seconds: wall,
        objective: result.best.as_ref().map(croxmap_ilp::Solution::objective),
        presolve: Some(result.presolve),
        fallbacks: result.lp_fallbacks,
        factor: None,
        cuts: None,
        phases: result.phases,
    }
}

/// Full branch-and-bound with presolve toggled (warm LPs in both modes):
/// the rows/cols/nnz-removed trajectory plus the tick win presolve buys.
fn measure_bb_presolve(name: &str, model: &Model, presolve_on: bool) -> WarmColdRecord {
    let cfg = SolverConfig {
        det_time_limit: 5.0,
        enable_lns: false,
        ..SolverConfig::default()
    }
    .with_presolve(presolve_on);
    let start = Instant::now();
    let result = Solver::new(cfg).solve(model);
    let wall = start.elapsed().as_secs_f64();
    WarmColdRecord {
        instance: format!("presolve_bb/{name}"),
        mode: if presolve_on { "on" } else { "off" },
        nodes: result.nodes,
        det_seconds: result.det_time,
        work_ticks: DeterministicClock::seconds_to_ticks(result.det_time),
        wall_seconds: wall,
        objective: result.best.as_ref().map(croxmap_ilp::Solution::objective),
        presolve: presolve_on.then_some(result.presolve),
        fallbacks: result.lp_fallbacks,
        factor: None,
        cuts: None,
        phases: result.phases,
    }
}

/// Full branch-and-bound through the parallel tree driver: one row per
/// (instance, threading mode) for the `parallel_bb/*` group. `t1` is the
/// sequential baseline; the deterministic 4-thread schedule is measured
/// twice (`t4_det` / `t4_det_rerun`) so the smoke gate can diff the two
/// runs exactly.
fn measure_parallel_bb(
    name: &str,
    model: &Model,
    mode: &'static str,
    threads: usize,
    parallel_mode: ParallelMode,
) -> WarmColdRecord {
    let cfg = SolverConfig {
        det_time_limit: 2.0,
        enable_lns: false,
        ..SolverConfig::default()
    }
    .with_threads(threads)
    .with_parallel_mode(parallel_mode);
    let start = Instant::now();
    let result = Solver::new(cfg).solve(model);
    let wall = start.elapsed().as_secs_f64();
    WarmColdRecord {
        instance: format!("parallel_bb/{name}"),
        mode,
        nodes: result.nodes,
        det_seconds: result.det_time,
        work_ticks: DeterministicClock::seconds_to_ticks(result.det_time),
        wall_seconds: wall,
        objective: result.best.as_ref().map(croxmap_ilp::Solution::objective),
        presolve: None,
        fallbacks: result.lp_fallbacks,
        factor: Some(result.factor),
        cuts: None,
        phases: result.phases,
    }
}

/// One deterministic cold root-LP solve — the degenerate cold path the
/// perturbation and presolve retire. Modes: `raw` (perturbation on, no
/// presolve), `noperturb` (neither), `presolved` (both).
fn measure_cold_root(name: &str, model: &Model, mode: &'static str) -> WarmColdRecord {
    let lp_cfg = simplex::LpConfig {
        perturb: mode != "noperturb",
        ..simplex::LpConfig::default()
    };
    let (target, stats) = if mode == "presolved" {
        match presolve(model) {
            PresolveOutcome::Reduced(p) => (p.model, Some(p.stats)),
            PresolveOutcome::Infeasible(_) => unreachable!("bench instances are feasible"),
        }
    } else {
        (model.clone(), None)
    };
    let bounds: Vec<(f64, f64)> = target
        .variables()
        .iter()
        .map(|v| (v.lower, v.upper))
        .collect();
    let start = Instant::now();
    let result = LpSession::open(Arc::new(target), lp_cfg)
        .solve(&bounds, None)
        .result;
    let wall = start.elapsed().as_secs_f64();
    WarmColdRecord {
        instance: format!("cold_root/{name}"),
        mode,
        nodes: 1,
        det_seconds: DeterministicClock::ticks_to_seconds(result.work_ticks),
        work_ticks: result.work_ticks,
        wall_seconds: wall,
        objective: Some(result.objective),
        presolve: stats,
        fallbacks: failures(&result),
        factor: Some(result.factor),
        cuts: None,
        phases: PhaseBreakdown::default(),
    }
}

/// How an LP-chain workload fixes the next variable.
#[derive(Clone, Copy)]
enum FixRule {
    /// Fix every variable to 1 in turn (the original covering/knapsack
    /// chain; all-ones stays feasible on those families).
    Ones,
    /// Fix each variable to its rounded LP value (diving-style; required
    /// on partition rows, where all-ones is instantly infeasible).
    Round,
}

/// A branching workload at the LP level: solve the root, then re-solve one
/// child per binary (fixing it per `rule`), warm-starting each child from
/// the previous optimal basis — exactly what a branch-and-bound plunge
/// does. `warm` toggles basis reuse; cold mode re-solves every child from
/// scratch. At most `max_steps` children keep huge instances bounded.
fn measure_lp_chain(
    name: &str,
    model: &Model,
    warm: bool,
    rule: FixRule,
    max_steps: usize,
) -> WarmColdRecord {
    let mut bounds: Vec<(f64, f64)> = model
        .variables()
        .iter()
        .map(|v| (v.lower, v.upper))
        .collect();
    let mut solver = LpSession::open(Arc::new(model.clone()), simplex::LpConfig::default());
    let start = Instant::now();
    let root = solver.solve(&bounds, None);
    let mut basis = root.basis;
    let mut ticks = root.result.work_ticks;
    let mut factor = root.result.factor;
    let mut fallbacks = failures(&root.result);
    let mut solves = 1u64;
    let mut last_obj = root.result.objective;
    let mut last_values = root.result.values.clone();
    for j in 0..model.num_vars().min(max_steps) {
        let fix = match rule {
            FixRule::Ones => 1.0,
            FixRule::Round => last_values
                .get(j)
                .map_or(0.0, |&x| x.round().clamp(0.0, 1.0)),
        };
        bounds[j] = (fix, fix);
        let out = solver.solve(&bounds, if warm { basis.as_ref() } else { None });
        ticks += out.result.work_ticks;
        factor.merge(&out.result.factor);
        fallbacks += failures(&out.result);
        solves += 1;
        if out.result.status != LpStatus::Optimal {
            break;
        }
        last_obj = out.result.objective;
        last_values = out.result.values;
        if warm {
            basis = out.basis;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    WarmColdRecord {
        instance: format!("lp_chain/{name}"),
        mode: if warm { "warm" } else { "cold" },
        nodes: solves,
        det_seconds: DeterministicClock::ticks_to_seconds(ticks),
        work_ticks: ticks,
        wall_seconds: wall,
        objective: Some(last_obj),
        presolve: None,
        fallbacks,
        factor: Some(factor),
        cuts: None,
        phases: PhaseBreakdown::default(),
    }
}

/// Root cutting-plane loop driven entirely through the public
/// [`LpSession`] API: presolve, solve the root, separate cover/clique
/// cuts (conflict graph seeded with presolve's exported cliques), append
/// them to the live session, re-solve; up to 8 rounds. The JSON row
/// records the bound trajectory, growth behaviour and — against a
/// reference branch-and-bound incumbent — the root gap closed.
fn measure_cuts_root(name: &str, model: &Model) -> WarmColdRecord {
    let lp_cfg = simplex::LpConfig::default();
    let (target, cliques, pre_stats) = match presolve(model) {
        PresolveOutcome::Reduced(p) => (p.model, p.cliques, p.stats),
        PresolveOutcome::Infeasible(_) => unreachable!("bench instances are feasible"),
    };
    let bounds: Vec<(f64, f64)> = target
        .variables()
        .iter()
        .map(|v| (v.lower, v.upper))
        .collect();
    let target = Arc::new(target);
    let mut session = LpSession::open(Arc::clone(&target), lp_cfg);
    let start = Instant::now();
    let root = session.solve(&bounds, None);
    let mut ticks = root.result.work_ticks;
    let mut factor = root.result.factor;
    let mut fallbacks = failures(&root.result);
    let mut solves = 1u64;
    let bound_before = root.result.objective;
    let mut bound_after = bound_before;
    let mut rounds = 0u32;
    let mut rows_added = 0usize;
    let mut monotone = true;
    let mut basis = root.basis;
    let mut values = root.result.values.clone();
    let mut separator = CutSeparator::new(&target, &cliques);
    // The loop runs the *shipped* root-cut configuration — round limit,
    // per-round cut cap, stall guard and per-round tick budget all come
    // from `SolverConfig` — so the guarded rows measure what
    // `Solver::solve` actually does.
    let round_limit = SolverConfig::default().cut_rounds;
    // Each round's re-solve gets a tick budget sized off the root solve
    // (a blown budget reports `IterLimit`, ending the loop exactly like
    // the solver abandoning its cut loop).
    let round_budget = root
        .result
        .work_ticks
        .saturating_mul(SolverConfig::CUT_ROUND_TICK_FACTOR)
        .max(SolverConfig::CUT_ROUND_TICK_FLOOR);
    session.configure(simplex::LpConfig {
        work_limit: round_budget,
        ..lp_cfg
    });
    let mut stalled = 0u32;
    if root.result.status == LpStatus::Optimal && !separator.is_empty() {
        for _ in 0..round_limit {
            if stalled >= SolverConfig::CUT_STALL_LIMIT {
                break;
            }
            let cuts = separator.separate(&values, SolverConfig::MAX_CUTS_PER_ROUND);
            if cuts.is_empty() {
                break;
            }
            let rows: Vec<_> = cuts.into_iter().map(Cut::into_row).collect();
            let added = session.add_rows(rows, basis.as_ref());
            ticks += added.work_ticks;
            rows_added += added.added;
            let out = session.solve(&bounds, added.basis.as_ref());
            ticks += out.result.work_ticks;
            factor.merge(&out.result.factor);
            fallbacks += failures(&out.result);
            solves += 1;
            if out.result.status != LpStatus::Optimal {
                break;
            }
            rounds += 1;
            if out.result.objective < bound_after - 1e-6 {
                monotone = false;
            }
            if out.result.objective > bound_after + 1e-9 {
                stalled = 0;
            } else {
                stalled += 1;
            }
            bound_after = bound_after.max(out.result.objective);
            basis = out.basis;
            values = out.result.values;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    // Reference incumbent for the gap-closed figure (not timed into the
    // cut loop's wall clock; its determinism makes the figure stable).
    let reference = Solver::new(SolverConfig {
        det_time_limit: 5.0,
        enable_lns: false,
        ..SolverConfig::default()
    })
    .solve(model);
    let gap_closed_pct = reference.best.as_ref().and_then(|best| {
        let gap = best.objective() - bound_before;
        (gap > 1e-9).then(|| 100.0 * (bound_after - bound_before) / gap)
    });
    WarmColdRecord {
        instance: format!("cuts_root/{name}"),
        mode: "cuts",
        nodes: solves,
        det_seconds: DeterministicClock::ticks_to_seconds(ticks),
        work_ticks: ticks,
        wall_seconds: wall,
        objective: Some(bound_after),
        presolve: Some(pre_stats),
        fallbacks,
        factor: Some(factor),
        cuts: Some(CutsRootInfo {
            bound_before,
            bound_after,
            rounds,
            rows_added,
            monotone,
            incremental_batches: session.stats().incremental_row_batches,
            gap_closed_pct,
        }),
        phases: PhaseBreakdown::default(),
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_json(records: &[WarmColdRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let obj = r
            .objective
            .map_or_else(|| "null".to_owned(), |o| format!("{}", round_objective(o)));
        let _ = write!(
            out,
            "  {{\"instance\": \"{}\", \"mode\": \"{}\", \"nodes\": {}, \
             \"det_seconds\": {:.6}, \"work_ticks\": {}, \"wall_seconds\": {:.6}, \
             \"nodes_per_sec\": {:.1}, \"objective\": {}, \"lp_fallbacks\": {}",
            json_escape(&r.instance),
            r.mode,
            r.nodes,
            r.det_seconds,
            r.work_ticks,
            r.wall_seconds,
            r.nodes_per_sec(),
            obj,
            r.fallbacks,
        );
        if let Some(f) = &r.factor {
            let _ = write!(
                out,
                ", \"ftran_visited\": {}, \"btran_visited\": {}, \"ftran_hyper\": {}, \
                 \"btran_hyper\": {}, \"lp_updates\": {}, \"update_nnz\": {}, \
                 \"refactors\": {}, \"update_growth_peak\": {:.3}",
                f.ftran_visited,
                f.btran_visited,
                f.ftran_hyper,
                f.btran_hyper,
                f.updates,
                f.update_nnz,
                f.refactors,
                f.growth_peak,
            );
        }
        if let Some(p) = &r.presolve {
            let _ = write!(
                out,
                ", \"rows_removed\": {}, \"cols_removed\": {}, \"nnz_removed\": {}, \
                 \"nnz_before\": {}",
                p.rows_removed,
                p.cols_removed,
                p.nnz_removed(),
                p.nnz_before,
            );
        }
        if let Some(c) = &r.cuts {
            let gap = c
                .gap_closed_pct
                .map_or_else(|| "null".to_owned(), |g| format!("{g:.1}"));
            let _ = write!(
                out,
                ", \"root_bound_before\": {}, \"root_bound_after\": {}, \"cut_rounds\": {}, \
                 \"cut_rows_added\": {}, \"bound_monotone\": {}, \
                 \"incremental_row_batches\": {}, \"root_gap_closed_pct\": {gap}",
                round_objective(c.bound_before),
                round_objective(c.bound_after),
                c.rounds,
                c.rows_added,
                c.monotone,
                c.incremental_batches,
            );
        }
        // Deterministic-tick phase split (satellite of the observability
        // PR): all-zero on rows that never enter `Solver::solve`.
        for phase in Phase::ALL {
            let _ = write!(
                out,
                ", \"phase_{}_ticks\": {}",
                phase.name(),
                r.phases.ticks(phase)
            );
        }
        out.push('}');
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

fn bench_json_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json")
}

fn write_json(records: &[WarmColdRecord]) {
    let path = bench_json_path();
    if let Err(e) = std::fs::write(path, render_json(records)) {
        eprintln!("warm_vs_cold: could not write {path}: {e}");
    } else {
        println!("warm_vs_cold: wrote {path}");
    }
}

/// Minimal parser for the committed `BENCH_solver.json` (our own writer's
/// format — one record per line): returns `(instance, mode, work_ticks)`.
fn parse_committed(json: &str) -> Vec<(String, String, u64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let tag = format!("\"{key}\": ");
        let at = line.find(&tag)? + tag.len();
        let rest = &line[at..];
        let rest = rest.strip_prefix('"').map_or(rest, |r| r);
        let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
        Some(rest[..end].to_owned())
    };
    json.lines()
        .filter_map(|line| {
            Some((
                field(line, "instance")?,
                field(line, "mode")?,
                field(line, "work_ticks")?.parse().ok()?,
            ))
        })
        .collect()
}

/// All instance measurements for the JSON log. `smoke` restricts the run
/// to the small, committed lp_chain/bb sizes plus the (cheap,
/// deterministic) cold-root group.
fn collect_records(smoke: bool) -> Vec<WarmColdRecord> {
    let mut records = Vec::new();
    let sizes: &[usize] = if smoke {
        &[48, 96]
    } else {
        &[48, 96, 192, 384]
    };
    for &n in sizes {
        for (name, model) in [
            (format!("ring_cover/{n}"), ring_cover(n)),
            (format!("knapsack/{n}"), knapsack(n)),
        ] {
            for warm in [true, false] {
                records.push(measure_lp_chain(
                    &name,
                    &model,
                    warm,
                    FixRule::Ones,
                    usize::MAX,
                ));
                records.push(measure_bb(&name, &model, warm));
            }
        }
    }
    // Degenerate set-partition cold-solve group: single root LP solves
    // showing the perturbation win (`noperturb` vs `raw`) and the presolve
    // win (`raw` vs `presolved`) with rows/cols/nnz removed. Cheap enough
    // for the smoke gate, where the `raw`/`presolved` rows guard the
    // presolve-enabled cold path against >1.5x tick regressions.
    for (name, model) in [
        ("set_partition/scaled_a_16".to_owned(), set_partition(16)),
        (
            "set_partition_restricted/scaled_a_16".to_owned(),
            set_partition_restricted(16),
        ),
    ] {
        for mode in ["raw", "noperturb", "presolved"] {
            records.push(measure_cold_root(&name, &model, mode));
        }
        // Root cutting planes through the live-session API: the smoke
        // gate fails any row whose cut rounds worsen the root bound or
        // whose solves fail.
        records.push(measure_cuts_root(&name, &model));
    }
    records.push(measure_cuts_root("knapsack/96", &knapsack(96)));
    // Parallel tree-search rows on the two instances whose sequential
    // solves are tree-heavy enough for worker threads to matter. Always
    // measured (smoke included): the run-to-run determinism diff needs
    // fresh rows, not committed ones.
    for (name, model) in [
        ("knapsack/384".to_owned(), knapsack(384)),
        (
            "set_partition_restricted/scaled_a_16".to_owned(),
            set_partition_restricted(16),
        ),
    ] {
        records.push(measure_parallel_bb(
            &name,
            &model,
            "t1",
            1,
            ParallelMode::Deterministic,
        ));
        records.push(measure_parallel_bb(
            &name,
            &model,
            "t4_det",
            4,
            ParallelMode::Deterministic,
        ));
        records.push(measure_parallel_bb(
            &name,
            &model,
            "t4_det_rerun",
            4,
            ParallelMode::Deterministic,
        ));
        records.push(measure_parallel_bb(
            &name,
            &model,
            "t4_ws",
            4,
            ParallelMode::WorkStealing,
        ));
    }
    if !smoke {
        // Scale divisors: 16 ≈ 14 neurons, 8 ≈ 28 neurons (larger models
        // explode the cold chain's wall time without adding signal). The
        // chain is capped: a diving plunge rarely exceeds a few dozen
        // fixings before integrality or infeasibility anyway.
        for scale in [16usize, 8] {
            let model = set_partition(scale);
            let name = format!("set_partition/scaled_a_{scale}");
            for warm in [true, false] {
                records.push(measure_lp_chain(&name, &model, warm, FixRule::Round, 32));
                records.push(measure_bb(&name, &model, warm));
            }
            // Presolve on/off over the full branch-and-bound.
            for on in [true, false] {
                records.push(measure_bb_presolve(&name, &model, on));
            }
        }
    }
    records
}

/// CI smoke: re-measure the committed small instances and fail on a
/// work_ticks regression beyond 1.5× — warm lp_chain rows, and every
/// cold_root row (so the presolve-enabled and perturbed cold paths are
/// guarded too). Also fails if any measured row had a failed LP solve.
/// Returns `false` on regression.
fn smoke_check() -> bool {
    let committed = match std::fs::read_to_string(bench_json_path()) {
        Ok(s) => parse_committed(&s),
        Err(e) => {
            eprintln!("bench-smoke: no committed BENCH_solver.json ({e}); nothing to compare");
            return true;
        }
    };
    let records = collect_records(true);
    let mut ok = true;
    for r in &records {
        // Every LP of the smoke run must finish: a solve the engine
        // declines proves nothing, on any row.
        if r.fallbacks > 0 {
            println!(
                "bench-smoke: {:<44} {} had {} failed LP solve(s) REGRESSED",
                r.instance, r.mode, r.fallbacks
            );
            ok = false;
        }
        let guarded = (r.mode == "warm" && r.instance.starts_with("lp_chain/"))
            || (r.instance.starts_with("cold_root/") && r.mode != "noperturb")
            || r.instance.starts_with("cuts_root/");
        if !guarded {
            continue;
        }
        // The cut-round invariant is measured live, not diffed: valid
        // cuts can only raise the root bound.
        if let Some(c) = r.cuts.as_ref().filter(|c| !c.monotone) {
            println!(
                "bench-smoke: {:<44} {} cut round worsened the root bound \
                 ({} -> {}) REGRESSED",
                r.instance, r.mode, c.bound_before, c.bound_after
            );
            ok = false;
        }
        // The update file must never escape the refactor policy bound:
        // peaks slightly above 1.0 are the normal one-pivot overshoot,
        // sustained growth past SMOKE_GROWTH_LIMIT means refactorisation
        // stopped firing.
        if let Some(f) = &r.factor {
            if f.growth_peak > SMOKE_GROWTH_LIMIT {
                println!(
                    "bench-smoke: {:<44} {} update file reached {:.2}x the \
                     refactor policy bound REGRESSED",
                    r.instance, r.mode, f.growth_peak
                );
                ok = false;
            }
        }
        let Some((_, _, old_ticks)) = committed
            .iter()
            .find(|(inst, mode, _)| *inst == r.instance && mode == r.mode)
        else {
            println!("bench-smoke: {:<44} new instance, skipped", r.instance);
            continue;
        };
        let ratio = r.work_ticks as f64 / (*old_ticks).max(1) as f64;
        let verdict = if ratio > SMOKE_REGRESSION_LIMIT {
            ok = false;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench-smoke: {:<44} {:<9} ticks {:>12} vs committed {:>12} ({ratio:.2}x) {verdict}",
            r.instance, r.mode, r.work_ticks, old_ticks
        );
    }
    if !parallel_smoke_check(&records) {
        ok = false;
    }
    ok
}

/// Live invariants on the freshly measured `parallel_bb/*` rows (never
/// diffed against the committed file — wall clocks are machine-bound and
/// the determinism contract is between the two runs of *this* machine):
///
/// * the deterministic 4-thread schedule must be reproducible run-to-run
///   (node count, work ticks, objective — always checked),
/// * every parallel mode must land on the sequential objective,
/// * on machines exposing ≥ 4 cores, the best 4-thread wall time must
///   beat sequential by [`PARALLEL_SPEEDUP_FLOOR`]; fewer cores print a
///   skip note instead (the container cannot demonstrate a speedup).
fn parallel_smoke_check(records: &[WarmColdRecord]) -> bool {
    let find = |inst: &str, mode: &str| {
        records
            .iter()
            .find(|r| r.instance == inst && r.mode == mode)
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut ok = true;
    for name in [
        "parallel_bb/knapsack/384",
        "parallel_bb/set_partition_restricted/scaled_a_16",
    ] {
        let (Some(t1), Some(det), Some(rerun), Some(ws)) = (
            find(name, "t1"),
            find(name, "t4_det"),
            find(name, "t4_det_rerun"),
            find(name, "t4_ws"),
        ) else {
            println!("bench-smoke: {name:<44} rows missing, skipped");
            continue;
        };
        if det.nodes != rerun.nodes
            || det.work_ticks != rerun.work_ticks
            || det.objective != rerun.objective
        {
            println!(
                "bench-smoke: {name:<44} deterministic mode diverged run-to-run \
                 (nodes {} vs {}, ticks {} vs {}) REGRESSED",
                det.nodes, rerun.nodes, det.work_ticks, rerun.work_ticks
            );
            ok = false;
        }
        for r in [det, ws] {
            match (t1.objective, r.objective) {
                (Some(a), Some(b)) if (a - b).abs() <= 1e-6 => {}
                _ => {
                    println!(
                        "bench-smoke: {name:<44} {} objective {:?} != sequential {:?} REGRESSED",
                        r.mode, r.objective, t1.objective
                    );
                    ok = false;
                }
            }
        }
        if cores >= 4 {
            let best = det.wall_seconds.min(ws.wall_seconds).max(1e-9);
            let speedup = t1.wall_seconds / best;
            let verdict = if speedup < PARALLEL_SPEEDUP_FLOOR {
                ok = false;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "bench-smoke: {name:<44} 4-thread speedup {speedup:.2}x \
                 (floor {PARALLEL_SPEEDUP_FLOOR}x) {verdict}"
            );
        } else {
            println!("bench-smoke: {name:<44} speedup check skipped: {cores} core(s) available");
        }
    }
    ok
}

/// Warm-vs-cold comparison across the bench families, plus the JSON log.
fn bench_warm_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_vs_cold");
    group.sample_size(10);
    // Criterion timing loops only on the small committed sizes; the large
    // instances are measured once for the JSON log below.
    for n in [48usize, 96] {
        for (name, model) in [
            (format!("ring_cover/{n}"), ring_cover(n)),
            (format!("knapsack/{n}"), knapsack(n)),
        ] {
            for warm in [true, false] {
                let mode = if warm { "warm" } else { "cold" };
                group.bench_with_input(
                    BenchmarkId::new(format!("lp_chain/{name}"), mode),
                    &model,
                    |b, m| {
                        b.iter(|| measure_lp_chain(&name, m, warm, FixRule::Ones, usize::MAX));
                    },
                );
            }
        }
    }
    group.finish();

    let records = collect_records(false);
    // Headline ratios, printed for humans; the JSON carries the raw data.
    for window in records.windows(4) {
        if let [lw, bw, lc, bc] = window {
            let foursome = lw.instance.starts_with("lp_chain/")
                && bw.instance.starts_with("bb/")
                && lc.instance == lw.instance
                && bc.instance == bw.instance
                && lw.mode == "warm"
                && lc.mode == "cold";
            if foursome {
                println!(
                    "warm_vs_cold {}: lp_chain warm/cold ticks {:.1}x, bb nodes/det-sec {:.1}x",
                    lw.instance,
                    lc.work_ticks as f64 / lw.work_ticks.max(1) as f64,
                    (bw.nodes as f64 / bw.det_seconds.max(1e-9))
                        / (bc.nodes as f64 / bc.det_seconds.max(1e-9)),
                );
            }
        }
    }
    for r in &records {
        if let Some(c) = &r.cuts {
            println!(
                "cuts_root {}: bound {} -> {} in {} rounds (+{} rows, {} in-place), gap closed {}",
                r.instance,
                c.bound_before,
                c.bound_after,
                c.rounds,
                c.rows_added,
                c.incremental_batches,
                c.gap_closed_pct
                    .map_or_else(|| "n/a".to_owned(), |g| format!("{g:.1}%")),
            );
        }
    }
    for window in records.windows(4) {
        if let [t1, det, _rerun, ws] = window {
            if t1.instance.starts_with("parallel_bb/") && t1.mode == "t1" {
                println!(
                    "parallel_bb {}: t1 {:.2}s, t4_det {:.2}s, t4_ws {:.2}s \
                     (best speedup {:.2}x)",
                    t1.instance,
                    t1.wall_seconds,
                    det.wall_seconds,
                    ws.wall_seconds,
                    t1.wall_seconds / det.wall_seconds.min(ws.wall_seconds).max(1e-9),
                );
            }
        }
    }
    for window in records.windows(3) {
        if let [raw, noperturb, presolved] = window {
            if raw.instance.starts_with("cold_root/") && raw.mode == "raw" {
                println!(
                    "cold_root {}: perturbation {:.1}x, presolve {:.1}x (nnz −{})",
                    raw.instance,
                    noperturb.work_ticks as f64 / raw.work_ticks.max(1) as f64,
                    raw.work_ticks as f64 / presolved.work_ticks.max(1) as f64,
                    presolved
                        .presolve
                        .as_ref()
                        .map_or(0, PresolveStats::nnz_removed),
                );
            }
        }
    }
    write_json(&records);
}

criterion_group!(
    benches,
    bench_lp_relaxation,
    bench_branch_and_bound,
    bench_warm_vs_cold
);

fn main() {
    if std::env::var("CROXMAP_BENCH_SMOKE").is_ok() {
        if smoke_check() {
            println!("bench-smoke: warm work_ticks within {SMOKE_REGRESSION_LIMIT}x of committed");
        } else {
            eprintln!("bench-smoke: warm work_ticks regression detected");
            std::process::exit(1);
        }
        return;
    }
    benches();
}
