//! Anytime branch-and-bound solver with root cutting planes, diving and
//! LNS heuristics. Every LP relaxation in the search — node
//! re-optimisations, dives, LNS sub-searches — runs through an
//! [`LpSession`], so a search thread shares a single live engine and the
//! root cut loop can tighten the relaxation in place
//! ([`LpSession::add_rows`]) before the first branch.
//!
//! With [`SolverConfig::with_threads`] the tree phase runs on the
//! parallel driver ([`crate::parallel`]): the sequential root phase
//! (presolve → root LP → root cuts → root dives) is unchanged, then the
//! open tree is explored by worker threads, each owning a private
//! `LpSession` over the cut-grown root relaxation.

use crate::backend::LpSession;
use crate::basis::Basis;
use crate::clock::DeterministicClock;
use crate::cuts::{Cut, CutSeparator};
use crate::expr::{Comparison, VarId};
use crate::factor::FactorStats;
use crate::model::{Model, VarType};
use crate::parallel::{self, Exchange, ParallelMode, ParallelStats};
use crate::presolve::{presolve, PresolveOutcome, PresolveStats};
use crate::simplex::{LpConfig, LpStatus, WarmLpResult};
use crate::solution::{IncumbentEvent, Solution};
use crate::tol;
use crate::trace::{Phase, PhaseBreakdown, ProgressRow, SpanKind, TraceBuf, TraceHandle};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::Arc;

/// Tolerance under which a relaxation value counts as integral.
const INT_TOL: f64 = tol::INT_FEAS;
/// Feasibility tolerance for accepting solutions.
const FEAS_TOL: f64 = tol::FEAS;

/// Branching variable selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchRule {
    /// Branch on the binary whose relaxation value is closest to 0.5.
    #[default]
    MostFractional,
    /// Branch on the binary with the best pseudo-cost score, falling back
    /// to most-fractional until history accumulates.
    PseudoCost,
}

/// Solver configuration. LP relaxations run on [`LpConfig::default()`],
/// with an iteration cap the search derives from the remaining budget
/// and the perturbation seed taken from [`SolverConfig::seed`].
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Deterministic-time budget in seconds (see
    /// [`DeterministicClock`]). The solver stops improving when exhausted.
    pub det_time_limit: f64,
    /// RNG seed; fixes the entire solve deterministically.
    pub seed: u64,
    /// Enables periodic large-neighbourhood search around the incumbent.
    pub enable_lns: bool,
    /// Branching rule.
    pub branch_rule: BranchRule,
    /// Warm-starts every child LP from its parent's optimal basis (dual
    /// simplex reoptimisation). Disable to force cold solves everywhere —
    /// useful only for benchmarking the warm-start win itself.
    pub warm_lp: bool,
    /// Presolve: when `true` (the default) the model is reduced once at
    /// the root (rows, columns and nonzeros removed; see
    /// [`crate::presolve`]) and every incumbent is mapped back through
    /// the postsolve stack. `false` runs the search on the model as given.
    pub presolve: bool,
    /// Root cutting-plane rounds: before the tree search, knapsack cover
    /// and clique cuts ([`crate::cuts`]) violated by the root relaxation
    /// are appended to the live session — up to this many
    /// separate/re-solve rounds. `0` disables the cut loop.
    pub cut_rounds: u32,
    /// Worker threads for the tree phase. `1` (the default) runs the
    /// sequential search unchanged — bit-identical to previous releases.
    /// With `n > 1` the root phase still runs sequentially, then the open
    /// tree is explored by `n` workers ([`crate::parallel`]), each owning
    /// a private [`LpSession`] seeded from the cut-grown root relaxation.
    pub threads: usize,
    /// How the parallel tree phase coordinates (ignored at `threads = 1`).
    pub parallel_mode: ParallelMode,
    /// Observability sink ([`crate::trace`]): when set, the solver
    /// delivers tick-stamped span events, periodic progress rows and the
    /// final [`PhaseBreakdown`] to it. `None` (the default) records
    /// nothing and leaves the solve bit-identical to an untraced build.
    pub trace: Option<TraceHandle>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            det_time_limit: 30.0,
            seed: 0,
            enable_lns: true,
            branch_rule: BranchRule::MostFractional,
            warm_lp: true,
            presolve: true,
            cut_rounds: 4,
            threads: 1,
            parallel_mode: ParallelMode::default(),
            trace: None,
        }
    }
}

impl SolverConfig {
    /// Branch-and-bound nodes a solve expands at most (counted over every
    /// worker in parallel runs); the search stops like on a spent budget.
    pub(crate) const NODE_LIMIT: u64 = 200_000;
    /// Simplex iterations one LP relaxation of the search runs at most,
    /// however much budget remains.
    pub(crate) const LP_ITERATION_LIMIT: u64 = 200_000;
    /// Share of the binaries each large-neighbourhood search round
    /// releases; the rest stay frozen at the incumbent's values.
    pub(crate) const LNS_DESTROY_FRACTION: f64 = 0.3;
    /// Most-violated cuts kept per root separation round. Shared with
    /// the bench harness so the guarded `cuts_root/*` rows measure the
    /// same per-round cap the solver ships.
    pub const MAX_CUTS_PER_ROUND: usize = 32;
    /// Consecutive cut rounds without root-bound movement before the
    /// loop stops (degenerate roots admit endless violated-but-useless
    /// cuts). Shared with the bench harness like
    /// [`SolverConfig::MAX_CUTS_PER_ROUND`].
    pub const CUT_STALL_LIMIT: u32 = 2;
    /// Deterministic-tick budget for each cut round's re-solve, as a
    /// multiple of the root solve's own ticks. Massively degenerate roots
    /// (set partitioning) can make the re-solve after a cut batch orders
    /// of magnitude costlier than the root solve itself while moving the
    /// bound not at all; the stall guard only reacts *after* paying for
    /// two such rounds. This cap bounds the damage per round: a re-solve
    /// that exceeds it reports `IterLimit` and the loop abandons cutting
    /// (reopening the base session), exactly like a blown LP iteration
    /// budget. Shared with the bench harness like
    /// [`SolverConfig::MAX_CUTS_PER_ROUND`].
    pub const CUT_ROUND_TICK_FACTOR: u64 = 32;
    /// Floor under the per-round tick budget, so cheap root solves still
    /// leave every cut round a workable slice.
    pub const CUT_ROUND_TICK_FLOOR: u64 = 1 << 22;
    /// Nodes between progress rows in the sequential tree phase (the
    /// deterministic coordinator emits one row per epoch instead).
    pub const PROGRESS_NODE_INTERVAL: u64 = 256;

    /// Returns a copy with the given deterministic-time budget.
    #[must_use]
    pub fn with_det_time_limit(mut self, seconds: f64) -> Self {
        self.det_time_limit = seconds;
        self
    }

    /// Returns a copy with the given seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with root presolve switched on (the default) or
    /// off.
    #[must_use]
    pub fn with_presolve(mut self, presolve: bool) -> Self {
        self.presolve = presolve;
        self
    }

    /// Returns a copy with the given number of root cutting-plane rounds
    /// (`0` disables the cut loop).
    #[must_use]
    pub fn with_cuts(mut self, rounds: u32) -> Self {
        self.cut_rounds = rounds;
        self
    }

    /// Returns a copy running the tree phase on `threads` workers
    /// (clamped to at least 1; `1` is the sequential path).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns a copy with the given parallel coordination mode.
    #[must_use]
    pub fn with_parallel_mode(mut self, mode: ParallelMode) -> Self {
        self.parallel_mode = mode;
        self
    }

    /// Returns a copy delivering trace events (spans, progress rows, the
    /// final phase breakdown) to `trace`. See [`crate::trace`] for the
    /// available sinks and the determinism guarantees.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Final status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Optimality proved (tree exhausted or gap closed).
    Optimal,
    /// A feasible solution exists but optimality was not proved.
    Feasible,
    /// The model was proved infeasible.
    Infeasible,
    /// Budget exhausted with no feasible solution and no infeasibility proof.
    Unknown,
}

/// What the root cutting-plane loop achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutSummary {
    /// Separate/re-solve rounds that added at least one cut.
    pub rounds: u32,
    /// Cut rows appended to the session.
    pub cuts_added: usize,
    /// Root LP objective before any cut.
    pub root_bound_before: f64,
    /// Root LP objective after the last cut round — with valid cuts this
    /// can only move up (towards the integer optimum).
    pub root_bound_after: f64,
    /// `false` if any cut round *lowered* the root objective, which valid
    /// cuts cannot do — the bench smoke gate fails on it.
    pub bound_monotone: bool,
    /// `true` when a cut reoptimisation blew its LP budget slice and the
    /// solver dropped **all** cuts (sessions are grow-only, so the only
    /// way back is a fresh session on the base model) — the search then
    /// proceeds exactly as it would have without a cut loop.
    pub abandoned: bool,
}

impl Default for CutSummary {
    fn default() -> Self {
        CutSummary {
            rounds: 0,
            cuts_added: 0,
            root_bound_before: f64::NEG_INFINITY,
            root_bound_after: f64::NEG_INFINITY,
            bound_monotone: true,
            abandoned: false,
        }
    }
}

/// Result of [`Solver::solve`].
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Final status.
    pub status: SolveStatus,
    /// Best solution found, if any.
    pub best: Option<Solution>,
    /// Best proven lower bound on the objective.
    pub best_bound: f64,
    /// Deterministic time consumed, in seconds.
    pub det_time: f64,
    /// Branch-and-bound nodes expanded.
    pub nodes: u64,
    /// Every improving solution in discovery order with timestamps.
    pub incumbents: Vec<IncumbentEvent>,
    /// What root presolve achieved (all zeros when disabled).
    pub presolve: PresolveStats,
    /// LP relaxations the engine could not finish
    /// ([`LpStatus::Failed`]): each proved nothing, so its node was
    /// dropped with its inherited bound, or its cut round abandoned.
    /// Zero on healthy runs.
    pub lp_fallbacks: u64,
    /// What the root cutting-plane loop achieved (all defaults when
    /// disabled or never reached).
    pub cuts: CutSummary,
    /// Factorisation statistics aggregated over every LP solve of the
    /// search — across all workers in parallel runs.
    pub factor: FactorStats,
    /// Parallel-driver statistics; `None` on sequential (`threads = 1`)
    /// runs and the pre-search short circuits.
    pub parallel: Option<ParallelStats>,
    /// Deterministic ticks and operation counts split by solver phase
    /// (presolve / root LP / cuts / dives / tree / LNS); the phase ticks
    /// sum exactly to [`SolveResult::det_time`]'s total, with `Other`
    /// holding unattributed driver overhead. Always populated, traced or
    /// not.
    pub phases: PhaseBreakdown,
}

impl SolveResult {
    /// Relative gap between incumbent and bound (`inf` without incumbent).
    #[must_use]
    pub fn gap(&self) -> f64 {
        match &self.best {
            None => f64::INFINITY,
            Some(s) => {
                let inc = s.objective();
                if inc.abs() < tol::ZERO {
                    (inc - self.best_bound).abs()
                } else {
                    (inc - self.best_bound).abs() / inc.abs().max(tol::ZERO)
                }
            }
        }
    }
}

/// The anytime 0/1 ILP solver.
///
/// See the [crate-level docs](crate) for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
}

#[derive(Debug)]
struct Node {
    /// Index of the parent in the arena, `usize::MAX` for the root.
    parent: usize,
    /// Branching decision applied on top of the parent's bounds.
    var: u32,
    lower: f64,
    upper: f64,
    /// LP bound inherited from the parent at creation time.
    bound: f64,
    depth: u32,
    /// The parent's optimal LP basis, shared by both children: the warm
    /// start for this node's relaxation.
    warm: Option<Rc<Basis>>,
}

/// Heap entry ordered so the smallest bound pops first.
struct OpenNode {
    bound: f64,
    seq: u64,
    node: usize,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.bound.to_bits() == other.bound.to_bits() && self.seq == other.seq
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the lowest bound wins;
        // tie-break on recency for a mild plunging bias.
        other
            .bound
            .total_cmp(&self.bound)
            .then(self.seq.cmp(&other.seq))
    }
}

/// One search context: a model view, a private [`LpSession`], a clock and
/// an RNG stream. The sequential solver owns exactly one; every parallel
/// worker thread owns its own (over the shared cut-grown root view).
pub(crate) struct Search<'a> {
    /// The base model: the session's view before any cut rows.
    model: &'a Arc<Model>,
    pub(crate) cfg: &'a SolverConfig,
    pub(crate) clock: DeterministicClock,
    /// Current incumbent, shared by reference so LNS rounds and the
    /// parallel exchange never deep-copy the assignment on the hot path.
    pub(crate) incumbent: Option<Arc<Solution>>,
    pub(crate) events: Vec<IncumbentEvent>,
    rng: SmallRng,
    /// True when every objective coefficient is integral, enabling the
    /// stronger `incumbent − 1` cutoff.
    integral_objective: bool,
    pseudo_up: Vec<(f64, u32)>,
    pseudo_down: Vec<(f64, u32)>,
    /// Per-variable branching priority (higher = decided first).
    priorities: Vec<i32>,
    /// The one LP session this search context runs through: holds the
    /// live engine (consecutive solves sharing a basis skip
    /// refactorisation) and the cut-grown model view.
    pub(crate) session: LpSession,
    /// Non-zero count of the session's constraint matrix, including cut
    /// rows (for pivot cost estimates).
    nnz: usize,
    pub(crate) nodes: u64,
    /// LP solves the engine declined ([`LpStatus::Failed`]).
    pub(crate) lp_fallbacks: u64,
    /// Factorisation statistics aggregated over this context's LP solves.
    pub(crate) factor: FactorStats,
    /// Local deterministic deadline: the config budget sequentially, a
    /// per-task slice on deterministic workers, unbounded on free-running
    /// workers (the shared exchange enforces the global budget there).
    det_limit: f64,
    /// Externally imposed objective cutoff (deterministic epochs freeze
    /// the global incumbent objective here); `+inf` when unused.
    cutoff_hint: f64,
    /// The parallel exchange, for free-running workers only: pruning
    /// reads its atomic incumbent cutoff, accepted incumbents publish
    /// through it, and solve work is charged to its aggregate clock.
    shared: Option<&'a Exchange>,
    /// Which phase the clock charges currently attribute to.
    phase: Phase,
    /// Per-phase tick/count attribution for this context. Maintained
    /// unconditionally (a handful of array adds per LP solve) so every
    /// [`SolveResult`] carries a breakdown, traced or not.
    pub(crate) phases: PhaseBreakdown,
    /// Span-event buffer; `None` when no trace sink is configured, which
    /// keeps the no-sink path free of any event work.
    pub(crate) trace: Option<TraceBuf>,
}

impl<'a> Search<'a> {
    fn new(model: &'a Arc<Model>, cfg: &'a SolverConfig) -> Self {
        Search::with_context(model, cfg, cfg.seed, None)
    }

    /// A search context with an explicit RNG seed and (for free-running
    /// parallel workers) a shared exchange. Workers diversify by seed so
    /// their dives and LNS rounds explore different neighbourhoods.
    pub(crate) fn with_context(
        model: &'a Arc<Model>,
        cfg: &'a SolverConfig,
        seed: u64,
        shared: Option<&'a Exchange>,
    ) -> Self {
        let integral_objective = model
            .objective()
            .iter()
            .all(|&(_, c)| (c - c.round()).abs() < tol::OBJ_AGREE)
            && (model.objective_offset() - model.objective_offset().round()).abs() < tol::OBJ_AGREE;
        Search {
            model,
            cfg,
            clock: DeterministicClock::new(),
            incumbent: None,
            events: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            integral_objective,
            pseudo_up: vec![(0.0, 0); model.num_vars()],
            pseudo_down: vec![(0.0, 0); model.num_vars()],
            priorities: model.branch_priorities(),
            session: LpSession::open(Arc::clone(model), LpConfig::default()),
            nnz: model.csc().nnz(),
            nodes: 0,
            lp_fallbacks: 0,
            factor: FactorStats::default(),
            det_limit: if shared.is_some() {
                f64::INFINITY
            } else {
                cfg.det_time_limit
            },
            cutoff_hint: f64::INFINITY,
            shared,
            phase: Phase::Other,
            phases: PhaseBreakdown::default(),
            trace: cfg.trace.as_ref().map(|_| TraceBuf::new(0)),
        }
    }

    /// Switches the phase subsequent clock charges attribute to,
    /// returning the previous phase (restore it for nested scopes — LNS
    /// runs a mini tree search inside the LNS phase).
    pub(crate) fn set_phase(&mut self, phase: Phase) -> Phase {
        std::mem::replace(&mut self.phase, phase)
    }

    /// Stamps this context's trace buffer with a parallel worker id
    /// (`0` stays the root/sequential context).
    pub(crate) fn set_trace_worker(&mut self, worker: u32) {
        if let Some(buf) = self.trace.as_mut() {
            buf.set_worker(worker);
        }
    }

    /// Buffers one span event ending at the current clock; no-op without
    /// a configured sink.
    fn emit_span(&mut self, kind: SpanKind, start_ticks: u64, count: u64, value: f64) {
        if let Some(buf) = self.trace.as_mut() {
            let end = self.clock.ticks();
            buf.emit(
                kind,
                start_ticks,
                end.saturating_sub(start_ticks),
                count,
                value,
            );
        }
    }

    /// Closes the phase breakdown against this context's clock total and
    /// delivers the buffered span stream plus the breakdown to the
    /// configured sink, if any. Call exactly once, when the solve ends.
    pub(crate) fn finish_trace(&mut self) -> PhaseBreakdown {
        let mut phases = self.phases;
        phases.finalize(self.clock.ticks());
        if let Some(handle) = self.cfg.trace.as_ref() {
            if let Some(buf) = self.trace.as_ref() {
                handle.record_all(&buf.events);
            }
            handle.finish(&phases);
        }
        phases
    }

    /// Delivers one progress row straight to the configured sink (rows
    /// are rendered live, not buffered — their inputs are deterministic,
    /// so traced streams stay reproducible).
    pub(crate) fn emit_progress(&self, open: u64, bound: f64) {
        if let Some(handle) = self.cfg.trace.as_ref() {
            handle.progress(&ProgressRow {
                det_seconds: self.clock.seconds(),
                nodes: self.nodes,
                open,
                incumbent: self.incumbent.as_ref().map(|s| s.objective()),
                bound,
            });
        }
    }

    /// Caps this context's deterministic deadline at `remaining` seconds
    /// from its current clock (deterministic workers get one per task).
    pub(crate) fn set_task_budget(&mut self, remaining: f64) {
        self.det_limit = self.clock.seconds() + remaining.max(0.0);
    }

    /// Imposes an external objective cutoff (`+inf` clears it).
    pub(crate) fn set_cutoff_hint(&mut self, objective: f64) {
        self.cutoff_hint = objective;
    }

    /// Replaces the local incumbent reference (no event is recorded; the
    /// caller owns the authoritative stream).
    pub(crate) fn set_incumbent(&mut self, incumbent: Option<Arc<Solution>>) {
        self.incumbent = incumbent;
    }

    /// Solves one LP relaxation through the session, warm-starting from
    /// `warm` when enabled, and charges its deterministic work to the
    /// clock.
    fn solve_lp(&mut self, bounds: &[(f64, f64)], warm: Option<&Basis>) -> WarmLpResult {
        self.solve_lp_budgeted(bounds, warm, u64::MAX)
    }

    /// [`Search::solve_lp`] with a per-solve deterministic-tick cap layered
    /// on the budget-derived iteration cap. The root cut loop slices its
    /// re-solves this way; the engine reports [`LpStatus::IterLimit`] when
    /// the cap trips.
    fn solve_lp_budgeted(
        &mut self,
        bounds: &[(f64, f64)],
        warm: Option<&Basis>,
        work_limit: u64,
    ) -> WarmLpResult {
        let mut config = self.lp_config();
        config.work_limit = work_limit;
        self.session.configure(config);
        let warm = if self.cfg.warm_lp { warm } else { None };
        let start = self.clock.ticks();
        let out = self.session.solve(bounds, warm);
        self.clock.charge(out.result.work_ticks);
        self.phases.add(self.phase, out.result.work_ticks, 1);
        if let Some(x) = self.shared {
            x.charge(out.result.work_ticks);
        }
        self.factor.merge(&out.result.factor);
        // The per-solve factor stats are a drained delta, so any
        // refactorisations metered there belong to *this* solve — span
        // them (the ticks are a slice of the solve's own charge, not an
        // extra charge).
        if out.result.factor.refactors > 0 {
            if let Some(buf) = self.trace.as_mut() {
                buf.emit(
                    SpanKind::Refactor,
                    start,
                    out.result.factor.refactor_ticks,
                    out.result.factor.refactors,
                    f64::NAN,
                );
            }
        }
        if out.result.status == LpStatus::Failed {
            self.lp_fallbacks += 1;
        }
        out
    }

    /// Root cutting-plane loop: separate knapsack cover and clique cuts
    /// violated by the root relaxation, append them to the live session
    /// ([`LpSession::add_rows`] — the engine grows in place), re-solve,
    /// repeat up to the configured round limit. Valid cuts only ever
    /// *raise* the root bound; every node below the root then inherits
    /// the tightened relaxation for free. The returned basis is the last
    /// optimal root basis (over the cut-grown session), handed to the
    /// dives and the tree search so the root relaxation is never solved
    /// again from scratch.
    ///
    /// `Err(())` reports that the cut-strengthened root LP is infeasible:
    /// since both cut families preserve every integer-feasible point,
    /// that proves the model has no integer solution.
    fn root_cuts(
        &mut self,
        root_bounds: &[(f64, f64)],
        cliques: &[Vec<VarId>],
    ) -> Result<(CutSummary, Option<Basis>), ()> {
        let mut summary = CutSummary::default();
        if self.cfg.cut_rounds == 0 || self.out_of_budget() {
            return Ok((summary, None));
        }
        let mut separator = CutSeparator::new(self.model, cliques);
        if separator.is_empty() {
            return Ok((summary, None));
        }
        let root_start = self.clock.ticks();
        let out = self.solve_lp(root_bounds, None);
        self.emit_span(
            SpanKind::RootLp,
            root_start,
            out.result.iterations,
            out.result.objective,
        );
        if out.result.status != LpStatus::Optimal {
            return Ok((summary, None));
        }
        let mut basis = out.basis;
        let mut values = out.result.values;
        summary.root_bound_before = out.result.objective;
        summary.root_bound_after = out.result.objective;
        // No-gap guard: cuts only ever tighten the *bound*, so once the
        // root bound already prunes against the incumbent/integral cutoff
        // (a warm-started heuristic or an external hint may have closed
        // the gap before the cut loop runs) there is nothing left for
        // them to close — skip separation entirely and keep the root
        // basis for the dives.
        if summary.root_bound_before >= self.cutoff() {
            return Ok((summary, basis));
        }
        // Per-round re-solve budget, sized off the root solve's actual
        // cost (see [`SolverConfig::CUT_ROUND_TICK_FACTOR`]): a blown
        // budget surfaces as `IterLimit` and abandons cutting below.
        let round_budget = out
            .result
            .work_ticks
            .saturating_mul(SolverConfig::CUT_ROUND_TICK_FACTOR)
            .max(SolverConfig::CUT_ROUND_TICK_FLOOR);
        // Stall guard: on a degenerate root with alternate optima the
        // separator can keep finding violated-but-useless cuts forever;
        // two consecutive rounds without bound movement end the loop.
        let mut stalled = 0u32;
        // The caller re-sets the phase after the cut loop either way, so
        // the previous phase need not be restored on the early exits.
        let _ = self.set_phase(Phase::Cuts);
        for _ in 0..self.cfg.cut_rounds {
            if self.out_of_budget() || stalled >= SolverConfig::CUT_STALL_LIMIT {
                break;
            }
            let round_start = self.clock.ticks();
            let cuts = separator.separate(&values, SolverConfig::MAX_CUTS_PER_ROUND);
            if cuts.is_empty() {
                break;
            }
            let rows: Vec<Comparison> = cuts.into_iter().map(Cut::into_row).collect();
            let added = self.session.add_rows(rows, basis.as_ref());
            self.clock.charge(added.work_ticks);
            self.phases.add(Phase::Cuts, added.work_ticks, 0);
            summary.cuts_added += added.added;
            let appended = added.added as u64;
            let out = self.solve_lp_budgeted(root_bounds, added.basis.as_ref(), round_budget);
            self.emit_span(
                SpanKind::CutRound,
                round_start,
                appended,
                out.result.objective,
            );
            match out.result.status {
                LpStatus::Optimal => {}
                LpStatus::Infeasible => return Err(()),
                LpStatus::Unbounded | LpStatus::IterLimit | LpStatus::Failed => {
                    // The reoptimisation blew its round tick budget or
                    // its LP iteration slice, or the engine declined it —
                    // massive dual degeneracy can make even valid cuts
                    // uneconomical. Sessions are grow-only, so drop
                    // *every* cut by reopening on the base model; the
                    // search then runs exactly as without a cut loop,
                    // and the summary reports what the search actually
                    // has (no cuts, the original root bound) rather
                    // than what was tried and dropped.
                    self.session = LpSession::open(Arc::clone(self.model), LpConfig::default());
                    summary = CutSummary {
                        abandoned: true,
                        root_bound_before: summary.root_bound_before,
                        root_bound_after: summary.root_bound_before,
                        ..CutSummary::default()
                    };
                    return Ok((summary, None));
                }
            }
            summary.rounds += 1;
            if out.result.objective < summary.root_bound_after - tol::FEAS {
                summary.bound_monotone = false;
            }
            if out.result.objective > summary.root_bound_after + tol::OBJ_AGREE {
                stalled = 0;
            } else {
                stalled += 1;
            }
            summary.root_bound_after = summary.root_bound_after.max(out.result.objective);
            basis = out.basis;
            values = out.result.values;
        }
        self.nnz = self.session.model().csc().nnz();
        Ok((summary, basis))
    }

    /// Highest branching priority among fractional binaries, if any.
    fn top_fractional_priority(&self, values: &[f64]) -> Option<i32> {
        self.model
            .binary_vars()
            .filter(|v| {
                let x = values[v.index()];
                (x - x.round()).abs() > INT_TOL
            })
            .map(|v| self.priorities[v.index()])
            .max()
    }

    pub(crate) fn out_of_budget(&self) -> bool {
        self.clock.seconds() >= self.det_limit
            || self.nodes >= SolverConfig::NODE_LIMIT
            || self.shared.is_some_and(Exchange::exhausted)
    }

    /// Deterministic seconds left before the local deadline (and, for
    /// free-running workers, before the exchange's global budget).
    fn remaining_budget(&self) -> f64 {
        let local = (self.det_limit - self.clock.seconds()).max(0.0);
        match self.shared {
            None => local,
            Some(x) => local.min(x.remaining()),
        }
    }

    /// LP configuration whose iteration cap cannot blow the remaining
    /// deterministic budget: the cap is `remaining_ticks / pivot_cost`
    /// for a worst-case per-pivot cost (with a small floor so tiny
    /// subproblems always make progress).
    fn lp_config(&self) -> LpConfig {
        let remaining = self.remaining_budget();
        // Size against the session's view: cut rows count like any other.
        let m = self.session.model().num_constraints().max(1);
        let n_total = self.model.num_vars() + m;
        // Worst-case pivot cost, the larger of two estimates: the sparse
        // LU's dense-fill worst case (update-file solves up to a small
        // multiple of m², refactorisation amortised to m³/interval) and a
        // dense-tableau pivot (≈ 2·m·n_cols). The engine's pivots are
        // usually far cheaper, so at paper scale this clamps the
        // iteration cap well below what the budget allows. Replacing it
        // moves ticks, so it is a change of its own.
        let lp = LpConfig::default();
        let interval = lp.refactor_interval as usize;
        let lu_pivot = 12 * m * m + m * m * m / interval + self.nnz + n_total;
        let dense_pivot = 2 * m * (n_total + m);
        let worst = lu_pivot.max(dense_pivot);
        let per_pivot = DeterministicClock::ticks_to_seconds(worst as u64);
        let iters = (remaining / per_pivot.max(tol::ZERO)) as u64;
        LpConfig {
            // At least 64 iterations, so tiny budgets still make
            // progress.
            max_iterations: iters.clamp(64, SolverConfig::LP_ITERATION_LIMIT),
            // The cold-start anti-degeneracy perturbation derives from the
            // solver seed so whole solves stay reproducible.
            perturb_seed: self.cfg.seed,
            ..lp
        }
    }

    /// Objective value any new incumbent must beat: the best of the local
    /// incumbent, the external hint and (for free-running workers) the
    /// exchange's atomic global incumbent, read on every node.
    pub(crate) fn cutoff(&self) -> f64 {
        let mut obj = self
            .incumbent
            .as_ref()
            .map_or(f64::INFINITY, |s| s.objective());
        obj = obj.min(self.cutoff_hint);
        if let Some(x) = self.shared {
            obj = obj.min(x.best_objective());
        }
        if obj == f64::INFINITY {
            return f64::INFINITY;
        }
        if self.integral_objective {
            obj - 1.0 + tol::INT_FEAS
        } else {
            obj - tol::OBJ_AGREE
        }
    }

    pub(crate) fn try_accept(
        &mut self,
        values: Vec<f64>,
        callback: &mut dyn FnMut(&IncumbentEvent),
    ) -> bool {
        // Round binaries defensively before the feasibility check.
        let mut values = values;
        for v in self.model.binary_vars() {
            let x = values[v.index()];
            values[v.index()] = x.round().clamp(0.0, 1.0);
        }
        if !self.model.is_feasible(&values, FEAS_TOL) {
            return false;
        }
        let obj = self.model.objective_value(&values);
        if self
            .incumbent
            .as_ref()
            .is_some_and(|s| obj >= s.objective() - tol::OBJ_AGREE)
        {
            return false;
        }
        if let Some(x) = self.shared {
            // The exchange is the authority on acceptance: it re-checks
            // against the *global* incumbent under the lock and stamps
            // the event with the aggregate clock. The worker-local event
            // list stays empty — the global stream is the record.
            match x.publish(values, obj) {
                Some(sol) => {
                    self.incumbent = Some(sol);
                    true
                }
                None => false,
            }
        } else {
            let sol = Arc::new(Solution::new(values, obj));
            let event = IncumbentEvent {
                objective: obj,
                det_time: self.clock.seconds(),
                solution: Solution::clone(&sol),
            };
            callback(&event);
            self.events.push(event);
            self.incumbent = Some(sol);
            true
        }
    }

    /// LP-guided dive: repeatedly fix the most integral fractional binary
    /// to its rounded value until the relaxation is integral or infeasible.
    fn dive(
        &mut self,
        base_bounds: &[(f64, f64)],
        deadline: f64,
        root_warm: Option<&Basis>,
        callback: &mut dyn FnMut(&IncumbentEvent),
    ) -> bool {
        let mut bounds = base_bounds.to_vec();
        // Each round differs from the last by a few bound fixings, so the
        // previous optimal basis is the natural warm start; the first
        // round starts from the root basis the cut loop left behind.
        let mut warm: Option<Basis> = root_warm.cloned();
        for _ in 0..self.model.num_vars() + 1 {
            if self.out_of_budget() || self.clock.seconds() >= deadline {
                return false;
            }
            let out = self.solve_lp(&bounds, warm.as_ref());
            let lp = out.result;
            warm = out.basis;
            if lp.status != LpStatus::Optimal {
                return false;
            }
            if lp.objective >= self.cutoff() {
                return false;
            }
            // Batch-fix every near-integral binary at once, then the single
            // most integral fractional one; one LP per round instead of one
            // LP per variable.
            let mut fractional = Vec::new();
            for v in self.model.binary_vars() {
                let x = lp.values[v.index()];
                let frac = (x - x.round()).abs();
                let (l, u) = bounds[v.index()];
                if (u - l).abs() < tol::ZERO {
                    continue; // already fixed
                }
                if frac <= 0.02 {
                    let r = x.round().clamp(0.0, 1.0);
                    bounds[v.index()] = (r, r);
                } else {
                    fractional.push((v, x, frac));
                }
            }
            match fractional.iter().min_by(|a, b| a.2.total_cmp(&b.2)) {
                None => {
                    return self.try_accept(lp.values, callback);
                }
                Some(&(v, x, _)) => {
                    let r = x.round().clamp(0.0, 1.0);
                    bounds[v.index()] = (r, r);
                }
            }
        }
        false
    }

    /// Assignment dive: repeatedly drive the *largest* fractional binary to
    /// 1 (backtracking to 0 when that turns infeasible). Far more robust
    /// than batch rounding on partition-structured models, where every
    /// neuron must pick exactly one slot.
    fn dive_assign(
        &mut self,
        base_bounds: &[(f64, f64)],
        root_warm: Option<&Basis>,
        callback: &mut dyn FnMut(&IncumbentEvent),
    ) -> bool {
        let mut bounds = base_bounds.to_vec();
        let out = self.solve_lp(&bounds, root_warm);
        let mut lp = out.result;
        let mut warm = out.basis;
        if lp.status != LpStatus::Optimal || lp.objective >= self.cutoff() {
            return false;
        }
        for _ in 0..2 * self.model.num_vars() {
            if self.out_of_budget() {
                return false;
            }
            // Largest fractional binary in the top priority class.
            let top = self.top_fractional_priority(&lp.values);
            let mut pick: Option<(VarId, f64)> = None;
            for v in self.model.binary_vars() {
                if Some(self.priorities[v.index()]) != top {
                    continue;
                }
                let x = lp.values[v.index()];
                let frac = (x - x.round()).abs();
                if frac > INT_TOL && pick.is_none_or(|(_, best)| x > best) {
                    pick = Some((v, x));
                }
            }
            let Some((v, _)) = pick else {
                return self.try_accept(lp.values, callback);
            };
            bounds[v.index()] = (1.0, 1.0);
            let out = self.solve_lp(&bounds, warm.as_ref());
            let trial = out.result;
            if trial.status == LpStatus::Optimal && trial.objective < self.cutoff() {
                lp = trial;
                warm = out.basis;
                continue;
            }
            // Backtrack: force the variable off instead.
            bounds[v.index()] = (0.0, 0.0);
            let out = self.solve_lp(&bounds, warm.as_ref());
            let trial = out.result;
            if trial.status == LpStatus::Optimal && trial.objective < self.cutoff() {
                lp = trial;
                warm = out.basis;
            } else {
                return false;
            }
        }
        false
    }

    /// Chooses the branching variable among fractional binaries of the
    /// highest priority class.
    fn choose_branch(&self, values: &[f64]) -> Option<(VarId, f64)> {
        let top = self.top_fractional_priority(values);
        let mut best: Option<(VarId, f64, f64)> = None;
        for v in self.model.binary_vars() {
            if Some(self.priorities[v.index()]) != top {
                continue;
            }
            let x = values[v.index()];
            let frac = x - x.floor();
            if !(INT_TOL..=1.0 - INT_TOL).contains(&frac) {
                continue;
            }
            let score = match self.cfg.branch_rule {
                BranchRule::MostFractional => 0.5 - (frac - 0.5).abs(),
                BranchRule::PseudoCost => {
                    let (up_sum, up_n) = self.pseudo_up[v.index()];
                    let (dn_sum, dn_n) = self.pseudo_down[v.index()];
                    if up_n == 0 || dn_n == 0 {
                        // Uninitialised: fall back to fractionality.
                        0.5 - (frac - 0.5).abs()
                    } else {
                        let up = (up_sum / f64::from(up_n)) * (1.0 - frac);
                        let dn = (dn_sum / f64::from(dn_n)) * frac;
                        up.max(tol::PSEUDOCOST_FLOOR) * dn.max(tol::PSEUDOCOST_FLOOR)
                    }
                }
            };
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((v, x, score));
            }
        }
        best.map(|(v, x, _)| (v, x))
    }

    fn record_pseudo_cost(&mut self, var: VarId, frac: f64, up: bool, gain: f64) {
        let slot = if up {
            &mut self.pseudo_up[var.index()]
        } else {
            &mut self.pseudo_down[var.index()]
        };
        let denom = if up { 1.0 - frac } else { frac };
        if denom > tol::PSEUDOCOST_FLOOR && gain.is_finite() {
            slot.0 += (gain / denom).max(0.0);
            slot.1 += 1;
        }
    }

    /// Large-neighbourhood search: release a random subset of binaries and
    /// re-optimise the rest around the incumbent. The incumbent is held by
    /// [`Arc`], so this clone is a reference bump, not a deep copy.
    pub(crate) fn lns_round(
        &mut self,
        base_bounds: &[(f64, f64)],
        callback: &mut dyn FnMut(&IncumbentEvent),
    ) {
        let Some(incumbent) = self.incumbent.clone() else {
            return;
        };
        let binaries: Vec<VarId> = self.model.binary_vars().collect();
        if binaries.is_empty() {
            return;
        }
        let mut released = binaries.clone();
        released.shuffle(&mut self.rng);
        let keep = ((1.0 - SolverConfig::LNS_DESTROY_FRACTION) * binaries.len() as f64) as usize;
        let frozen = &released[..keep.min(released.len())];

        let mut bounds = base_bounds.to_vec();
        for &v in frozen {
            let x = incumbent.value(v).round().clamp(0.0, 1.0);
            // Respect node bounds: only freeze if compatible.
            let (l, u) = bounds[v.index()];
            if x >= l - FEAS_TOL && x <= u + FEAS_TOL {
                bounds[v.index()] = (x, x);
            }
        }
        // Mini branch-and-bound on the restricted problem.
        let budget = self.remaining_budget();
        let mini_budget = (budget * 0.2).min(2.0);
        // The mini search runs entirely inside the LNS phase (its node
        // expansions are neighbourhood repair, not tree progress).
        let prev_phase = self.set_phase(Phase::Lns);
        let start = self.clock.ticks();
        self.branch_and_bound(&bounds, 256, mini_budget, None, callback);
        let after = self.incumbent.as_ref().map_or(f64::NAN, |s| s.objective());
        let improved = after < incumbent.objective() - tol::OBJ_AGREE;
        self.emit_span(SpanKind::LnsRound, start, u64::from(improved), after);
        self.set_phase(prev_phase);
    }

    /// Expands one branch-and-bound node: solve the relaxation at
    /// `bounds` (warm-starting from `warm`), account the node, classify
    /// the outcome and — on a fractional optimum — pick the branching
    /// variable. `edge` is the branching decision that created this node
    /// (variable, up-branch?, parent bound), feeding pseudo-costs; the
    /// root passes `None`. `inherited` is the bound the node carried when
    /// queued, returned as the conservative subtree bound when the LP
    /// blows its iteration slice.
    ///
    /// Every tree driver — the sequential heap, the work-stealing deques
    /// and the deterministic epoch batches — runs nodes through this one
    /// method, so the per-node operation order is identical everywhere.
    pub(crate) fn expand_node(
        &mut self,
        bounds: &[(f64, f64)],
        warm: Option<&Basis>,
        edge: Option<(VarId, bool, f64)>,
        inherited: f64,
    ) -> NodeExpansion {
        let start = self.clock.ticks();
        let out = self.solve_lp(bounds, warm);
        let lp = out.result;
        self.nodes += 1;
        if let Some(x) = self.shared {
            x.count_node();
        }
        if self.trace.is_some() {
            let value = if lp.status == LpStatus::Optimal {
                lp.objective
            } else {
                f64::NAN
            };
            self.emit_span(SpanKind::NodeExpand, start, lp.iterations, value);
        }
        match lp.status {
            LpStatus::Infeasible => return NodeExpansion::Infeasible,
            LpStatus::Unbounded => {
                // A bounded-binary model cannot be unbounded unless it
                // has unbounded continuous vars; treat as no information.
                return NodeExpansion::NoInfo;
            }
            LpStatus::IterLimit | LpStatus::Failed => {
                // No valid bound; keep the subtree conservatively open.
                return NodeExpansion::Dropped(inherited.max(f64::NEG_INFINITY));
            }
            LpStatus::Optimal => {}
        }
        let node_bound = lp.objective;
        if node_bound >= self.cutoff() {
            return NodeExpansion::CutOff;
        }
        // Update parent pseudo costs from the realised bound change.
        if let Some((var, up, parent_bound)) = edge {
            if parent_bound.is_finite() {
                let gain = (node_bound - parent_bound).max(0.0);
                // The fraction at branching is unknown here; approximate
                // with 0.5 which keeps scores comparable.
                self.record_pseudo_cost(var, 0.5, up, gain);
            }
        }
        match self.choose_branch(&lp.values) {
            None => NodeExpansion::Integral {
                values: lp.values,
                bound: node_bound,
            },
            Some((v, _x)) => NodeExpansion::Branch {
                var: v,
                bound: node_bound,
                basis: out.basis,
            },
        }
    }

    /// Core branch-and-bound over the given root bounds. Returns the best
    /// proven bound for that subtree.
    #[allow(clippy::too_many_lines)]
    fn branch_and_bound(
        &mut self,
        root_bounds: &[(f64, f64)],
        node_cap: u64,
        det_budget: f64,
        root_warm: Option<Rc<Basis>>,
        callback: &mut dyn FnMut(&IncumbentEvent),
    ) -> f64 {
        let start_time = self.clock.seconds();
        let deadline = (start_time + det_budget).min(self.det_limit);
        let mut arena: Vec<Node> = vec![Node {
            parent: usize::MAX,
            var: 0,
            lower: 0.0,
            upper: 0.0,
            bound: f64::NEG_INFINITY,
            depth: 0,
            warm: root_warm,
        }];
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        heap.push(OpenNode {
            bound: f64::NEG_INFINITY,
            seq,
            node: 0,
        });
        let mut local_nodes = 0u64;
        let mut subtree_bound = f64::INFINITY; // min over pruned-open bounds
        let mut bounds_buf = root_bounds.to_vec();

        while let Some(open) = heap.pop() {
            if self.clock.seconds() >= deadline || local_nodes >= node_cap || self.out_of_budget() {
                // Remaining open nodes bound the subtree.
                subtree_bound = subtree_bound.min(open.bound);
                for rest in heap {
                    subtree_bound = subtree_bound.min(rest.bound);
                }
                return subtree_bound;
            }
            // Release this node's warm snapshot from the arena: each node
            // is popped at most once, so holding the Rc any longer only
            // delays freeing O(n + m) memory per expanded node.
            let warm = arena[open.node].warm.take();
            if open.bound >= self.cutoff() {
                continue; // pruned by a newer incumbent
            }
            // Reconstruct bounds along the ancestor chain.
            bounds_buf.copy_from_slice(root_bounds);
            {
                let mut at = open.node;
                while at != usize::MAX {
                    let n = &arena[at];
                    if n.parent != usize::MAX {
                        let (l, u) = bounds_buf[n.var as usize];
                        bounds_buf[n.var as usize] = (l.max(n.lower), u.min(n.upper));
                    }
                    at = n.parent;
                }
            }
            let edge = if open.node == 0 {
                None
            } else {
                let n = &arena[open.node];
                Some((VarId(n.var), n.lower > 0.5, n.bound))
            };
            local_nodes += 1;
            // Periodic progress rows for the sequential main tree (the
            // LNS mini searches run under Phase::Lns and stay silent;
            // parallel runs report from the coordinator instead).
            if self.phase == Phase::Tree
                && local_nodes.is_multiple_of(SolverConfig::PROGRESS_NODE_INTERVAL)
            {
                self.emit_progress(heap.len() as u64 + 1, open.bound);
            }
            match self.expand_node(&bounds_buf, warm.as_deref(), edge, open.bound) {
                NodeExpansion::Infeasible | NodeExpansion::CutOff => {}
                NodeExpansion::NoInfo => subtree_bound = f64::NEG_INFINITY,
                NodeExpansion::Dropped(bound) => {
                    subtree_bound = subtree_bound.min(bound);
                }
                NodeExpansion::Integral { values, bound } => {
                    // Integral relaxation: candidate incumbent.
                    self.try_accept(values, callback);
                    subtree_bound = subtree_bound.min(bound);
                }
                NodeExpansion::Branch { var, bound, basis } => {
                    let snapshot = basis.map(Rc::new);
                    for (lo, hi) in [(0.0, 0.0), (1.0, 1.0)] {
                        arena.push(Node {
                            parent: open.node,
                            var: var.0,
                            lower: lo,
                            upper: hi,
                            bound,
                            depth: arena[open.node].depth + 1,
                            warm: snapshot.clone(),
                        });
                        seq += 1;
                        heap.push(OpenNode {
                            bound,
                            seq,
                            node: arena.len() - 1,
                        });
                    }
                }
            }
        }
        // Tree exhausted: the subtree bound is the incumbent (or +inf).
        subtree_bound.min(
            self.incumbent
                .as_ref()
                .map_or(f64::INFINITY, |s| s.objective()),
        )
    }
}

/// What expanding one branch-and-bound node produced
/// ([`Search::expand_node`]). The tree drivers layer bookkeeping —
/// pruning, child creation, bound accounting — on top of this.
pub(crate) enum NodeExpansion {
    /// The relaxation is infeasible: the subtree is exhausted.
    Infeasible,
    /// The LP blew its iteration slice or the engine declined it: no
    /// valid bound; the carried value is the node's inherited bound, kept
    /// conservatively open.
    Dropped(f64),
    /// Unbounded relaxation: no bound information at all.
    NoInfo,
    /// The node's relaxation meets the incumbent cutoff: pruned.
    CutOff,
    /// Integral relaxation: a candidate incumbent at `bound`.
    Integral {
        /// The integral relaxation values.
        values: Vec<f64>,
        /// The node's LP bound (the candidate objective).
        bound: f64,
    },
    /// Fractional optimum: branch on `var`, both children inheriting
    /// `bound` and warm-starting from `basis`.
    Branch {
        /// The branching variable.
        var: VarId,
        /// The node's LP bound, inherited by both children.
        bound: f64,
        /// The node's optimal basis (the children's warm start).
        basis: Option<Basis>,
    },
}

impl Solver {
    /// Creates a solver with the given configuration.
    #[must_use]
    pub fn new(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// The solver's configuration.
    #[must_use]
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Phase breakdown for the presolve short circuits (no `Search` ever
    /// existed: all ticks are presolve's), delivering the trace — one
    /// `PresolvePass` span plus the final breakdown — when a sink is
    /// configured.
    fn short_circuit_phases(&self, stats: &PresolveStats) -> PhaseBreakdown {
        let mut phases = PhaseBreakdown::default();
        phases.add(Phase::Presolve, stats.work_ticks, u64::from(stats.rounds));
        phases.finalize(stats.work_ticks);
        if let Some(handle) = self.config.trace.as_ref() {
            let mut buf = TraceBuf::new(0);
            buf.emit(
                SpanKind::PresolvePass,
                0,
                stats.work_ticks,
                u64::from(stats.rounds),
                f64::NAN,
            );
            handle.record_all(&buf.events);
            handle.finish(&phases);
        }
        phases
    }

    /// Solves `model` to the configured budget.
    ///
    /// # Panics
    ///
    /// Panics if the model fails validation; call
    /// [`Model::validate`] first for a recoverable error.
    #[must_use]
    pub fn solve(&self, model: &Model) -> SolveResult {
        self.solve_with_callback(model, None, |_| {})
    }

    /// Solves with an optional warm-start assignment.
    #[must_use]
    pub fn solve_with_warm_start(&self, model: &Model, warm: &[f64]) -> SolveResult {
        self.solve_with_callback(model, Some(warm), |_| {})
    }

    /// Solves, invoking `callback` for every improving incumbent as it is
    /// discovered (the paper's "intermediate solutions" stream).
    ///
    /// With presolve enabled (the default), the model is reduced once
    /// here, the whole search runs on the reduced model, and every
    /// incumbent — including those delivered through `callback` — is
    /// mapped back to the original variable space via the recorded
    /// postsolve stack. Objectives and bounds need no translation: the
    /// reduced objective carries the substituted constant offset.
    #[must_use]
    pub fn solve_with_callback(
        &self,
        model: &Model,
        warm: Option<&[f64]>,
        mut callback: impl FnMut(&IncumbentEvent),
    ) -> SolveResult {
        if let Err(e) = model.validate() {
            // Documented API contract (see `solve`): solving an invalid
            // model has no defined result, so fail loudly naming the
            // concrete defect instead of a bare unwrap.
            panic!("solve called with an invalid model: {e}");
        }
        if !self.config.presolve {
            let copy = Arc::new(model.clone());
            return self.run_search(&copy, warm, &mut callback, PresolveStats::default(), &[]);
        }
        // The short-circuit exits below happen *before* the first LP
        // relaxation — no `Search` (owner of the real `lp_fallbacks`
        // counter) exists yet, so no LP can have failed there; every
        // path that runs LPs reports through `run_search`.
        let pre_search_fallbacks = 0u64;
        let presolved = match presolve(model) {
            PresolveOutcome::Infeasible(stats) => {
                return SolveResult {
                    status: SolveStatus::Infeasible,
                    best: None,
                    best_bound: f64::NEG_INFINITY,
                    det_time: DeterministicClock::ticks_to_seconds(stats.work_ticks),
                    nodes: 0,
                    incumbents: Vec::new(),
                    presolve: stats,
                    lp_fallbacks: pre_search_fallbacks,
                    cuts: CutSummary::default(),
                    factor: FactorStats::default(),
                    parallel: None,
                    phases: self.short_circuit_phases(&stats),
                };
            }
            PresolveOutcome::Reduced(p) => p,
        };
        let det_time = DeterministicClock::ticks_to_seconds(presolved.stats.work_ticks);
        if presolved.model.num_vars() == 0 {
            // The reductions solved the model outright: the postsolve
            // stack *is* the solution.
            let values = presolved.postsolve.restore(&[]);
            if !model.is_feasible(&values, FEAS_TOL) {
                // Defensive: a reduction chain this aggressive should
                // never fabricate an assignment, but never report one
                // unverified.
                return SolveResult {
                    status: SolveStatus::Unknown,
                    best: None,
                    best_bound: f64::NEG_INFINITY,
                    det_time,
                    nodes: 0,
                    incumbents: Vec::new(),
                    presolve: presolved.stats,
                    lp_fallbacks: pre_search_fallbacks,
                    cuts: CutSummary::default(),
                    factor: FactorStats::default(),
                    parallel: None,
                    phases: self.short_circuit_phases(&presolved.stats),
                };
            }
            let objective = model.objective_value(&values);
            let solution = Solution::new(values, objective);
            let event = IncumbentEvent {
                objective,
                det_time,
                solution: solution.clone(),
            };
            callback(&event);
            return SolveResult {
                status: SolveStatus::Optimal,
                best: Some(solution),
                best_bound: objective,
                det_time,
                nodes: 0,
                incumbents: vec![event],
                presolve: presolved.stats,
                lp_fallbacks: pre_search_fallbacks,
                cuts: CutSummary::default(),
                factor: FactorStats::default(),
                parallel: None,
                phases: self.short_circuit_phases(&presolved.stats),
            };
        }
        let warm_reduced = warm.map(|w| presolved.postsolve.project(w));
        let mut forward = |event: &IncumbentEvent| {
            callback(&presolved.postsolve.restore_event(event));
        };
        let mut result = self.run_search(
            &Arc::new(presolved.model),
            warm_reduced.as_deref(),
            &mut forward,
            presolved.stats,
            &presolved.cliques,
        );
        result.best = result
            .best
            .map(|s| Solution::new(presolved.postsolve.restore(s.values()), s.objective()));
        result.incumbents = result
            .incumbents
            .iter()
            .map(|ev| presolved.postsolve.restore_event(ev))
            .collect();
        result
    }

    /// Branch-and-bound over `model` as given (already presolved, or
    /// presolve disabled). Incumbents stay in `model`'s variable space;
    /// the caller postsolves if needed.
    fn run_search(
        &self,
        model: &Arc<Model>,
        warm: Option<&[f64]>,
        mut callback: &mut dyn FnMut(&IncumbentEvent),
        presolve_stats: PresolveStats,
        cliques: &[Vec<VarId>],
    ) -> SolveResult {
        let mut search = Search::new(model, &self.config);
        search.clock.charge(presolve_stats.work_ticks);
        search.phases.add(
            Phase::Presolve,
            presolve_stats.work_ticks,
            u64::from(presolve_stats.rounds),
        );
        if presolve_stats.work_ticks > 0 {
            search.emit_span(
                SpanKind::PresolvePass,
                0,
                u64::from(presolve_stats.rounds),
                f64::NAN,
            );
        }
        let root_bounds: Vec<(f64, f64)> = model
            .variables()
            .iter()
            .map(|v| match v.ty {
                VarType::Binary => (v.lower.max(0.0), v.upper.min(1.0)),
                VarType::Continuous => (v.lower, v.upper),
            })
            .collect();

        // 1. Warm start.
        if let Some(w) = warm {
            search.try_accept(w.to_vec(), &mut callback);
        }

        // 1b. Root cutting planes: tighten the session's relaxation once,
        //     before any dive or branch runs on it. An infeasible
        //     cut-strengthened root (with no incumbent in hand) proves the
        //     model integer-infeasible — cuts never remove integer points.
        //     The loop's final root basis seeds the dives and the tree
        //     search, so the root relaxation is never re-solved cold.
        search.set_phase(Phase::RootLp);
        let (cut_summary, root_warm) = match search.root_cuts(&root_bounds, cliques) {
            Ok(out) => out,
            Err(()) => {
                if search.incumbent.is_none() {
                    let phases = search.finish_trace();
                    return SolveResult {
                        status: SolveStatus::Infeasible,
                        best: None,
                        best_bound: f64::NEG_INFINITY,
                        det_time: search.clock.seconds(),
                        nodes: search.nodes,
                        incumbents: search.events,
                        presolve: presolve_stats,
                        lp_fallbacks: search.lp_fallbacks,
                        cuts: CutSummary::default(),
                        factor: search.factor,
                        parallel: None,
                        phases,
                    };
                }
                (CutSummary::default(), None)
            }
        };

        // 2. Root dives for a first incumbent: fast batch rounding on a
        //    quarter of the budget, then the more robust assignment dive.
        search.set_phase(Phase::Dive);
        if search.incumbent.is_none() {
            let deadline = search.clock.seconds() + 0.25 * self.config.det_time_limit;
            let start = search.clock.ticks();
            let found = search.dive(&root_bounds, deadline, root_warm.as_ref(), &mut callback);
            let value = search
                .incumbent
                .as_ref()
                .map_or(f64::NAN, |s| s.objective());
            search.emit_span(SpanKind::Dive, start, u64::from(found), value);
        }
        if search.incumbent.is_none() {
            let start = search.clock.ticks();
            let found = search.dive_assign(&root_bounds, root_warm.as_ref(), &mut callback);
            let value = search
                .incumbent
                .as_ref()
                .map_or(f64::NAN, |s| s.objective());
            search.emit_span(SpanKind::Dive, start, u64::from(found), value);
        }

        // 3. Main tree search with periodic LNS: sequential heap at
        //    `threads = 1` (the historical path, bit-identical), the
        //    parallel driver otherwise.
        let mut proved = f64::NEG_INFINITY;
        let mut infeasible_proved = false;
        let mut parallel_stats = None;
        let parallel_tree = self.config.threads > 1;
        search.set_phase(Phase::Tree);
        {
            let remaining = self.config.det_time_limit - search.clock.seconds();
            if remaining > 0.0 {
                let bound = if parallel_tree {
                    let outcome = parallel::run_tree(
                        &mut search,
                        &root_bounds,
                        root_warm.as_ref(),
                        &mut callback,
                    );
                    parallel_stats = Some(outcome.stats);
                    outcome.bound
                } else {
                    search.branch_and_bound(
                        &root_bounds,
                        SolverConfig::NODE_LIMIT,
                        remaining,
                        root_warm.map(Rc::new),
                        &mut callback,
                    )
                };
                proved = proved.max(bound.min(f64::INFINITY));
                if bound == f64::INFINITY && search.incumbent.is_none() {
                    infeasible_proved = true;
                }
            }
        }
        // 4. LNS polishing while budget remains. In parallel runs the
        //    heuristic workers already raced LNS against the tree, so the
        //    sequential polish loop only runs on the `threads = 1` path.
        if self.config.enable_lns && !parallel_tree {
            let mut stale_rounds = 0u32;
            while !search.out_of_budget() && search.incumbent.is_some() && stale_rounds < 8 {
                let before = search.incumbent.as_ref().map(|s| s.objective());
                search.lns_round(&root_bounds, &mut callback);
                let after = search.incumbent.as_ref().map(|s| s.objective());
                if after >= before {
                    stale_rounds += 1;
                } else {
                    stale_rounds = 0;
                }
                // LNS rounds always consume clock; guard against zero-cost loops.
                search.clock.charge(1_000);
                search.phases.add(Phase::Lns, 1_000, 0);
            }
        }

        let phases = search.finish_trace();
        let det_time = search.clock.seconds();
        let nodes = search.nodes;
        let best = search.incumbent.as_deref().cloned();
        let status = match (&best, infeasible_proved) {
            (None, true) => SolveStatus::Infeasible,
            (None, false) => SolveStatus::Unknown,
            (Some(sol), _) => {
                let gap_closed = proved.is_finite()
                    && (sol.objective() - proved).abs()
                        <= tol::GAP_REL * sol.objective().abs().max(1.0);
                let exhausted = proved >= sol.objective() - tol::OBJ_AGREE;
                if gap_closed || exhausted {
                    SolveStatus::Optimal
                } else {
                    SolveStatus::Feasible
                }
            }
        };
        SolveResult {
            status,
            best,
            best_bound: if proved.is_finite() {
                proved
            } else {
                f64::NEG_INFINITY
            },
            det_time,
            nodes,
            incumbents: search.events,
            presolve: presolve_stats,
            lp_fallbacks: search.lp_fallbacks,
            cuts: cut_summary,
            factor: search.factor,
            parallel: parallel_stats,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    fn quick_config() -> SolverConfig {
        SolverConfig {
            det_time_limit: 5.0,
            ..SolverConfig::default()
        }
    }

    /// The presolve short-circuit exits (model solved outright, or proved
    /// infeasible, before any LP relaxation runs) must report a zero
    /// failed-LP count — no `Search` ever exists on those paths, so an
    /// LP failure is impossible by construction.
    #[test]
    fn presolve_short_circuits_report_zero_lp_fallbacks() {
        // Fully fixed by singleton equality rows: presolve solves it.
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0)]).eq(1.0));
        m.add_constraint(m.expr([(y, 1.0)]).eq(0.0));
        m.set_objective(m.expr([(x, 2.0), (y, 3.0)]));
        let r = Solver::new(quick_config()).solve(&m);
        assert_eq!(r.status, SolveStatus::Optimal);
        assert_eq!(r.nodes, 0, "expected the presolve short-circuit");
        assert_eq!(r.lp_fallbacks, 0);

        // Contradictory singleton rows: presolve proves infeasibility.
        let mut m = Model::new();
        let x = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0)]).eq(1.0));
        m.add_constraint(m.expr([(x, 1.0)]).eq(0.0));
        m.set_objective(m.expr([(x, 1.0)]));
        let r = Solver::new(quick_config()).solve(&m);
        assert_eq!(r.status, SolveStatus::Infeasible);
        assert_eq!(r.nodes, 0);
        assert_eq!(r.lp_fallbacks, 0);
    }

    /// {x binary, y ∈ [0, ∞), y ≤ 4x, min x − y}: an improving
    /// continuous column without an upper bound, which presolve bounds
    /// from its row (y ≤ 4).
    fn unbounded_column_model() -> Model {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_continuous(0.0, f64::INFINITY);
        m.add_constraint(m.expr([(y, 1.0), (x, -4.0)]).leq(0.0));
        m.set_objective(m.expr([(x, 1.0), (y, -1.0)]));
        m
    }

    /// A root relaxation the LP engine cannot finish (without presolve,
    /// the improving unbounded column has no dual-feasible start) is a
    /// typed failure: the search drops what it cannot bound, counts the
    /// failures, and proves nothing.
    #[test]
    fn failed_root_relaxation_proves_nothing() {
        let r = Solver::new(quick_config().with_presolve(false)).solve(&unbounded_column_model());
        assert!(r.lp_fallbacks >= 1, "the root LP must fail");
        assert!(
            !matches!(r.status, SolveStatus::Optimal | SolveStatus::Infeasible),
            "a failed relaxation proves nothing, got {:?}",
            r.status
        );
    }

    /// With presolve, the column is bounded from its row and the one LP
    /// engine solves the model to its optimum.
    #[test]
    fn presolve_bounds_an_unbounded_column_from_its_row() {
        let r = Solver::new(quick_config()).solve(&unbounded_column_model());
        assert_eq!(r.status, SolveStatus::Optimal);
        assert_eq!(r.best.map(|s| s.objective()), Some(-3.0));
        assert_eq!(r.lp_fallbacks, 0);
    }

    /// A free continuous column the LP engine cannot bound: the solver
    /// may find the true optimum (−5) or prove nothing, but it may never
    /// report the optimum of the LP with the column pinned at 0.
    #[test]
    fn free_column_never_yields_a_wrong_optimum() {
        let mut m = Model::new();
        let x = m.add_continuous(f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(-5.0));
        m.set_objective(m.expr([(x, 1.0), (y, 1.0)]));
        let r = Solver::new(quick_config()).solve(&m);
        if r.status == SolveStatus::Optimal {
            let best = r.best.expect("an optimal solve has an incumbent");
            assert!(
                (best.objective() + 5.0).abs() < 1e-6,
                "{}",
                best.objective()
            );
        }
        assert!(
            r.best_bound <= -5.0 + 1e-6,
            "bound {} cuts off the optimum",
            r.best_bound
        );
    }

    /// The three public entry points (`solve`, `solve_with_callback`,
    /// `solve_with_warm_start`) must run the exact same session path: a
    /// rejected warm start and a no-op callback may not perturb a single
    /// pivot. Deterministic ticks equal ⇒ pivot sequences equal.
    #[test]
    fn entry_points_cannot_drift() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..8).map(|_| m.add_binary()).collect();
        for i in 0..4 {
            m.add_constraint(
                m.expr([(vars[2 * i], 1.0), (vars[2 * i + 1], 1.0)])
                    .geq(1.0),
            );
        }
        m.add_constraint(
            m.expr(vars.iter().enumerate().map(|(i, &v)| (v, 1.0 + i as f64)))
                .leq(20.0),
        );
        m.set_objective(
            m.expr(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, (i % 3 + 1) as f64)),
            ),
        );
        let solver = Solver::new(quick_config());
        let plain = solver.solve(&m);
        let with_cb = solver.solve_with_callback(&m, None, |_| {});
        // An infeasible warm assignment is rejected before the search, so
        // the third entry point must replay the same solve bit-for-bit.
        let rejected_warm = vec![0.0; 8];
        let warm = solver.solve_with_warm_start(&m, &rejected_warm);
        for other in [&with_cb, &warm] {
            assert_eq!(plain.status, other.status);
            assert_eq!(plain.nodes, other.nodes, "node counts diverged");
            assert_eq!(plain.det_time, other.det_time, "tick streams diverged");
            assert_eq!(
                plain.best.as_ref().map(Solution::objective),
                other.best.as_ref().map(Solution::objective)
            );
            assert_eq!(plain.incumbents.len(), other.incumbents.len());
            assert_eq!(plain.cuts, other.cuts);
        }
    }

    /// Clique cuts must close the odd-cycle packing gap at the root: the
    /// pairwise-packing triangle relaxes to 1.5, the merged clique cut
    /// `a + b + c ≤ 1` closes it to the integer optimum outright.
    #[test]
    fn clique_cuts_close_triangle_root_gap() {
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.add_constraint(m.expr([(a, 1.0), (b, 1.0)]).leq(1.0));
        m.add_constraint(m.expr([(b, 1.0), (c, 1.0)]).leq(1.0));
        m.add_constraint(m.expr([(a, 1.0), (c, 1.0)]).leq(1.0));
        m.set_objective(m.expr([(a, -1.0), (b, -1.0), (c, -1.0)]));
        // Presolve off isolates the cut loop (no reductions interfering).
        let cfg = quick_config().with_presolve(false);
        let r = Solver::new(cfg).solve(&m);
        assert_eq!(r.status, SolveStatus::Optimal);
        assert!((r.best.unwrap().objective() + 1.0).abs() < 1e-6);
        assert!(r.cuts.cuts_added >= 1, "expected a clique cut");
        assert!(r.cuts.bound_monotone);
        assert!(
            r.cuts.root_bound_after > r.cuts.root_bound_before + 0.49,
            "root gap not closed: {} -> {}",
            r.cuts.root_bound_before,
            r.cuts.root_bound_after
        );
        assert_eq!(r.lp_fallbacks, 0, "cut rows must not make LP solves fail");
    }

    /// Cuts may never change the optimum, only the route to it.
    #[test]
    fn cuts_preserve_optimal_objectives() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..9).map(|_| m.add_binary()).collect();
        for r in 0..2 {
            let cap = 9.0;
            m.add_constraint(
                m.expr(
                    vars.iter()
                        .enumerate()
                        .map(|(i, &v)| (v, 1.0 + ((i + r) % 4) as f64)),
                )
                .leq(cap),
            );
        }
        m.set_objective(
            m.expr(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, -(1.0 + ((i * 5) % 7) as f64))),
            ),
        );
        let with_cuts = Solver::new(quick_config()).solve(&m);
        let without = Solver::new(quick_config().with_cuts(0)).solve(&m);
        assert_eq!(with_cuts.status, SolveStatus::Optimal);
        assert_eq!(without.status, SolveStatus::Optimal);
        assert!(
            (with_cuts.best.as_ref().unwrap().objective()
                - without.best.as_ref().unwrap().objective())
            .abs()
                < 1e-6
        );
        assert_eq!(without.cuts.cuts_added, 0);
        assert!(with_cuts.cuts.bound_monotone);
    }

    #[test]
    fn trivial_binary_min() {
        let mut m = Model::new();
        let x = m.add_binary();
        m.set_objective(m.expr([(x, 1.0)]));
        let r = Solver::new(quick_config()).solve(&m);
        assert_eq!(r.status, SolveStatus::Optimal);
        assert_eq!(r.best.unwrap().value(x), 0.0);
    }

    #[test]
    fn covering_instance() {
        // Odd-cycle cover needs 2 vertices even though LP says 1.5.
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.add_constraint(m.expr([(a, 1.0), (b, 1.0)]).geq(1.0));
        m.add_constraint(m.expr([(b, 1.0), (c, 1.0)]).geq(1.0));
        m.add_constraint(m.expr([(a, 1.0), (c, 1.0)]).geq(1.0));
        m.set_objective(m.expr([(a, 1.0), (b, 1.0), (c, 1.0)]));
        let r = Solver::new(quick_config()).solve(&m);
        assert_eq!(r.status, SolveStatus::Optimal);
        assert!((r.best.unwrap().objective() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn knapsack_instance() {
        // max 10a + 13b + 7c st 3a + 4b + 2c <= 6 → b + c = 20.
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.add_constraint(m.expr([(a, 3.0), (b, 4.0), (c, 2.0)]).leq(6.0));
        m.set_objective(m.expr([(a, -10.0), (b, -13.0), (c, -7.0)]));
        let r = Solver::new(quick_config()).solve(&m);
        assert_eq!(r.status, SolveStatus::Optimal);
        let s = r.best.unwrap();
        assert!((s.objective() + 20.0).abs() < 1e-6, "obj {}", s.objective());
        assert!(s.is_one(b) && s.is_one(c) && !s.is_one(a));
    }

    #[test]
    fn infeasible_model() {
        let mut m = Model::new();
        let x = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0)]).geq(1.0));
        m.add_constraint(m.expr([(x, 1.0)]).leq(0.0));
        m.set_objective(m.expr([(x, 1.0)]));
        let r = Solver::new(quick_config()).solve(&m);
        assert_eq!(r.status, SolveStatus::Infeasible);
        assert!(r.best.is_none());
    }

    #[test]
    fn warm_start_is_used() {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(1.0));
        m.set_objective(m.expr([(x, 5.0), (y, 9.0)]));
        let warm = vec![0.0, 1.0]; // feasible but suboptimal
        let r = Solver::new(quick_config()).solve_with_warm_start(&m, &warm);
        assert_eq!(r.status, SolveStatus::Optimal);
        // First incumbent must be the warm start, later improved.
        assert!((r.incumbents[0].objective - 9.0).abs() < 1e-9);
        assert!((r.best.unwrap().objective() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn incumbent_stream_is_monotone() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|_| m.add_binary()).collect();
        // Partition 12 items into pairs; cover each of 6 "elements" once.
        for e in 0..6 {
            m.add_constraint(m.expr([(vars[e], 1.0), (vars[e + 6], 1.0)]).geq(1.0));
        }
        m.set_objective(m.expr(vars.iter().enumerate().map(|(i, &v)| (v, 1.0 + i as f64))));
        let r = Solver::new(quick_config()).solve(&m);
        assert!(!r.incumbents.is_empty());
        for w in r.incumbents.windows(2) {
            assert!(w[1].objective < w[0].objective);
            assert!(w[1].det_time >= w[0].det_time);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..10).map(|_| m.add_binary()).collect();
        for i in 0..5 {
            m.add_constraint(
                m.expr([(vars[2 * i], 1.0), (vars[2 * i + 1], 1.0)])
                    .geq(1.0),
            );
        }
        m.set_objective(
            m.expr(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, (i % 3 + 1) as f64)),
            ),
        );
        let r1 = Solver::new(quick_config()).solve(&m);
        let r2 = Solver::new(quick_config()).solve(&m);
        assert_eq!(r1.nodes, r2.nodes);
        assert_eq!(r1.det_time, r2.det_time);
        assert_eq!(
            r1.best.as_ref().map(Solution::objective),
            r2.best.as_ref().map(Solution::objective)
        );
    }

    #[test]
    fn equality_partition() {
        // x + y + z = 2 minimising x+2y+3z → x=y=1.
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        let z = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0), (z, 1.0)]).eq(2.0));
        m.set_objective(m.expr([(x, 1.0), (y, 2.0), (z, 3.0)]));
        let r = Solver::new(quick_config()).solve(&m);
        let s = r.best.unwrap();
        assert!((s.objective() - 3.0).abs() < 1e-6);
        assert!(s.is_one(x) && s.is_one(y) && !s.is_one(z));
    }

    #[test]
    fn pseudo_cost_rule_solves_too() {
        let cfg = SolverConfig {
            branch_rule: BranchRule::PseudoCost,
            ..quick_config()
        };
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.add_constraint(m.expr([(a, 1.0), (b, 1.0)]).geq(1.0));
        m.add_constraint(m.expr([(b, 1.0), (c, 1.0)]).geq(1.0));
        m.add_constraint(m.expr([(a, 1.0), (c, 1.0)]).geq(1.0));
        m.set_objective(m.expr([(a, 1.0), (b, 1.0), (c, 1.0)]));
        let r = Solver::new(cfg).solve(&m);
        assert!((r.best.unwrap().objective() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_integer_continuous() {
        // Binary gate y pays fixed cost 10 to allow continuous x ≤ 5y.
        // Need x ≥ 3 → y = 1, x = 3, obj = 10 + 3.
        let mut m = Model::new();
        let y = m.add_binary();
        let x = m.add_continuous(0.0, 5.0);
        m.add_constraint(m.expr([(x, 1.0), (y, -5.0)]).leq(0.0));
        m.add_constraint(m.expr([(x, 1.0)]).geq(3.0));
        m.set_objective(m.expr([(y, 10.0), (x, 1.0)]));
        let r = Solver::new(quick_config()).solve(&m);
        let s = r.best.unwrap();
        assert!(s.is_one(y));
        assert!((s.objective() - 13.0).abs() < 1e-6);
    }
}
