//! # croxmap-ilp — an anytime 0/1 integer linear programming toolkit
//!
//! The paper solves its mapping formulations with Google OR-Tools' CP-SAT
//! (`SAT_INTEGER_PROGRAMMING`). No solver bindings are available in this
//! reproduction, so this crate implements the required machinery from
//! scratch:
//!
//! * a [`Model`] builder for variables, linear constraints and a
//!   minimisation objective,
//! * a **presolver** ([`presolve`]): before the search starts, one fixed
//!   sequence of reductions (singleton rows, fixed-variable substitution,
//!   redundant and duplicate rows, doubleton equalities, dominated and
//!   duplicate columns, coefficient tightening), repeated to a fixpoint
//!   and followed by clique extraction, shrinks the model to a
//!   [`PresolvedModel`] and records a [`Postsolve`] stack that maps every
//!   solution losslessly back to the original variable space — so the
//!   whole model → presolve → factor → simplex pipeline operates on fewer
//!   rows, columns and nonzeros ([`SolverConfig::with_presolve`] turns it
//!   off),
//! * an **LP session** ([`backend`]): an [`LpSession`] holds the model
//!   view (the caller's model, shared by [`std::sync::Arc`] and copied
//!   only when the session first appends rows to it), the live basis and
//!   factorisation of the one LP engine, and stats; it absorbs warm starts, bound deltas, objective deltas
//!   and appended rows without rebuilding, and a solve the engine cannot
//!   finish comes back as [`LpStatus::Failed`](simplex::LpStatus::Failed)
//!   rather than falling onto a dense path,
//! * a **sparse revised simplex** as that engine ([`simplex`],
//!   [`sparse`], [`factor`]): CSC matrix stored once, basis held as a
//!   sparse LU refactorised under **dynamic Markowitz ordering**
//!   (pivot merit recomputed on the shrinking active submatrix) with
//!   Forrest–Tomlin updates and hyper-sparse triangular solves whose
//!   tracked variants capture result patterns that the rest of the
//!   pivot walks (sparse PRICE, the β and weight updates, the
//!   Forrest–Tomlin update),
//!   **Devex pricing** of the leaving row (reference-framework weights,
//!   with a Bland guard on stalls),
//!   deterministic anti-degeneracy cost perturbation on cold starts, and
//!   a per-solve deterministic work budget (`LpConfig::work_limit`),
//! * a **warm-start API** ([`Basis`]): optimal solves return a basis
//!   snapshot that related solves (same matrix and objective, different
//!   bounds) resume from via dual-simplex reoptimisation, skipping phase 1
//!   entirely,
//! * **incremental row addition** ([`LpSession::add_rows`]): a live
//!   session accepts appended rows without refactorising from scratch —
//!   new logical slacks enter the basis and the factorisation absorbs
//!   the growth through bordered transforms — which is the primitive
//!   behind the **root cutting planes** ([`cuts`]: knapsack cover and
//!   clique cuts, [`SolverConfig::with_cuts`]),
//! * **branch and bound** with best-first exploration, LP-guided diving
//!   and most-fractional / pseudo-cost branching — a search context
//!   threads one session, and every child node re-optimises from its
//!   parent's basis,
//! * **parallel tree search** ([`parallel`],
//!   [`SolverConfig::with_threads`]): after the sequential root phase,
//!   the open tree is explored by worker threads — work-stealing deques
//!   or an epoch-synchronised deterministic schedule — with racing
//!   dive/LNS workers feeding a shared incumbent exchange,
//! * **large-neighbourhood search** for anytime improvement on instances
//!   too large to enumerate,
//! * an *incumbent stream*: every improving solution is reported through a
//!   callback together with its [`DeterministicClock`] timestamp, mirroring
//!   the deterministic timing OR-Tools exposes and the paper reports.
//!
//! ## Threading model and determinism
//!
//! By default (`threads = 1`) the solver is single-threaded and fully
//! deterministic for a fixed seed: identical inputs produce identical
//! incumbent streams, which the experiment harness relies on.
//!
//! With [`SolverConfig::with_threads`]`(n)` for `n > 1`, the phases split
//! as follows:
//!
//! * **Shared, read-only:** the (presolved, cut-grown) model view and
//!   its CSC matrix, each built once and shared by [`std::sync::Arc`],
//!   plus the solver configuration and the final root basis every worker
//!   seeds from.
//! * **Per-worker:** an [`LpSession`] (live basis and factorisation), a
//!   [`DeterministicClock`], an RNG stream offset from the solver seed,
//!   and pseudo-cost tables. Workers never share mutable LP state;
//!   `LpSession: Send` (compile-time asserted in [`parallel`]) is what
//!   lets each session move onto its thread.
//! * **Shared, synchronised:** the incumbent. Pruning reads an atomic
//!   objective cutoff on every node; accepted solutions pass through a
//!   mutex-protected exchange that arbitrates races and stamps events
//!   with the *aggregate* work clock, so `det_time` totals mean the same
//!   thing at any thread count.
//!
//! Determinism guarantees by [`ParallelMode`]:
//!
//! * [`ParallelMode::Deterministic`] (default): reproducible run-to-run
//!   at a fixed thread count — node ordering and incumbent acceptance are
//!   resolved by (bound, node-id) priority at an epoch barrier, so the
//!   incumbent-event sequence, node count, bound and deterministic time
//!   are identical across runs. Results may differ *across* thread
//!   counts (a different-but-valid exploration order).
//! * [`ParallelMode::WorkStealing`]: the final objective is unchanged,
//!   but node counts and incumbent timing vary run-to-run.
//! * `threads = 1` always takes the historical sequential path,
//!   bit-identical to previous releases.
//!
//! ## LP sessions: warm starts and dynamic rows
//!
//! An [`LpSession`] owns one LP conversation: open it on a shared model,
//! solve, change bounds, append rows — the engine state stays hot
//! throughout.
//!
//! ```
//! use croxmap_ilp::simplex::{LpConfig, LpStatus};
//! use croxmap_ilp::{LpSession, Model};
//! use std::sync::Arc;
//!
//! let mut m = Model::new();
//! let x = m.add_binary();
//! let y = m.add_binary();
//! m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(1.0));
//! m.set_objective(m.expr([(x, 1.0), (y, 2.0)]));
//!
//! let m = Arc::new(m);
//! let mut session = LpSession::open(Arc::clone(&m), LpConfig::default());
//!
//! // Root relaxation, cold.
//! let root = session.solve(&[(0.0, 1.0), (0.0, 1.0)], None);
//! assert_eq!(root.result.status, LpStatus::Optimal);
//! let basis = root.basis.expect("optimal solves return a basis");
//!
//! // Child node (x fixed to 0) re-optimises from the parent's basis —
//! // bound deltas fold into one FTRAN on the live engine.
//! let child = session.solve(&[(0.0, 0.0), (0.0, 1.0)], Some(&basis));
//! assert_eq!(child.result.status, LpStatus::Optimal);
//! assert!((child.result.objective - 2.0).abs() < 1e-6);
//!
//! // Tighten the live relaxation with an extra row (a cutting plane):
//! // the factorisation grows in place, no rebuild.
//! let grown = session.add_rows(vec![m.expr([(y, 1.0)]).leq(0.0)], child.basis.as_ref());
//! let cut = session.solve(&[(0.0, 1.0), (0.0, 1.0)], grown.basis.as_ref());
//! assert_eq!(cut.result.status, LpStatus::Optimal);
//! assert!((cut.result.objective - 1.0).abs() < 1e-6);
//! ```
//!
//! ## Observability
//!
//! The [`trace`] module is a std-only deterministic observability layer
//! (no `tracing`-crate dependency — the image builds offline, so like
//! `crates/compat` everything here is hand-rolled on `std`):
//!
//! * **Span taxonomy** ([`trace::SpanKind`]): `PresolvePass`, `RootLp`,
//!   `CutRound`, `Dive`, `NodeExpand`, `Refactor` and `LnsRound` events,
//!   each stamped with the emitting worker's deterministic clock
//!   (*start_ticks* + metered *ticks*), never wall time.
//! * **Sinks** ([`trace::TraceSink`]): install one via
//!   [`SolverConfig::with_trace`] wrapped in a [`trace::TraceHandle`] —
//!   a bounded [`trace::RingSink`], or a [`trace::JsonlSink`] streaming
//!   JSON Lines, periodic progress rows (nodes, open, incumbent, bound,
//!   det-sec) included.
//! * **Phase breakdown** ([`trace::PhaseBreakdown`]): every
//!   [`SolveResult`] reports its deterministic ticks split across
//!   presolve / root LP / cuts / dives / tree / LNS, summing exactly to
//!   `det_time` (an `Other` bucket absorbs unattributed driver
//!   overhead). The breakdown is computed whether or not a sink is
//!   installed.
//!
//! Determinism guarantees:
//!
//! * **Tracing is observation only.** Span emission never charges the
//!   clock and never touches an RNG stream, so a traced solve produces
//!   bit-identical nodes, `det_time`, incumbent stream and
//!   [`FactorStats`] to the same solve untraced (pinned by regression
//!   tests).
//! * **No sink, no cost.** With `SolverConfig::trace = None` the solver
//!   buffers nothing and locks nothing.
//! * **Parallel merge order is fixed.** Workers buffer spans privately
//!   and the driver merges the buffers in worker order (`0` = the
//!   root/sequential context, then worker `1..=n`), so
//!   [`ParallelMode::Deterministic`] runs at a fixed thread count emit
//!   byte-identical JSONL run-to-run.
//!
//! These guarantees are not just documented — they are statically
//! enforced; see [Determinism discipline](#determinism-discipline).
//!
//! ```
//! use croxmap_ilp::trace::{RingSink, TraceHandle, TraceSink};
//! use croxmap_ilp::{Model, Solver, SolverConfig};
//! use std::sync::{Arc, Mutex};
//!
//! let mut m = Model::new();
//! let x = m.add_binary();
//! m.add_constraint(m.expr([(x, 1.0)]).geq(1.0));
//! m.set_objective(m.expr([(x, 1.0)]));
//!
//! let sink: Arc<Mutex<dyn TraceSink>> = Arc::new(Mutex::new(RingSink::new(1024)));
//! let cfg = SolverConfig::default().with_trace(TraceHandle::shared(Arc::clone(&sink)));
//! let result = Solver::new(cfg).solve(&m);
//! // The phase ticks sum exactly to the run's deterministic total.
//! assert_eq!(
//!     croxmap_ilp::DeterministicClock::ticks_to_seconds(result.phases.total_ticks()),
//!     result.det_time,
//! );
//! # let _ = sink;
//! ```
//!
//! ## Determinism discipline
//!
//! The properties above (and the threading model's bit-identical
//! replays) are enforced *statically* by `croxmap-lint`
//! (`crates/lint`), a std-only analysis pass that runs over the whole
//! workspace in tier-1 (`tests/lint_clean.rs`) and CI
//! (`cargo run -p croxmap-lint -- --deny`). The rules it holds this
//! crate (and `croxmap-core`) to:
//!
//! * **`determinism-time`** — no `std::time::Instant`/`SystemTime`:
//!   results must be a function of (model, config, seed), never wall
//!   time. All metering goes through [`DeterministicClock`].
//! * **`determinism-rng`** — no `thread_rng`/`from_entropy`: every RNG
//!   stream derives from the solver seed (workers get golden-ratio
//!   offsets of it).
//! * **`hash-iteration`** — `HashMap`/`HashSet` may be *probed*
//!   (keyed lookups stay legal) but never *iterated*: iteration order
//!   would leak the hasher's per-process state into results. Anything
//!   traversed is a `Vec`/`BTreeMap`/`BTreeSet` — see
//!   the conflict graph's membership-only `adj` contract in `cuts.rs`.
//! * **`relaxed-ordering`** / **`thread-spawn`** — every
//!   `Ordering::Relaxed` and any threading outside `parallel.rs` needs
//!   a written justification; `parallel.rs`'s module docs carry the
//!   full happens-before contract the waivers appeal to.
//! * **`panic-path`** — library `unwrap()`/`expect()` must state an
//!   invariant or be converted to an error path.
//! * **`ticks-arithmetic`** — the `1e9` ticks-per-det-second ratio is
//!   defined once, in [`DeterministicClock`]; everyone else converts
//!   through [`DeterministicClock::ticks_to_seconds`] /
//!   [`DeterministicClock::seconds_to_ticks`].
//! * **`float-equality`** — no `==`/`!=` between float-typed
//!   expressions and no NaN-unaware `partial_cmp(..).unwrap*()`
//!   comparators: a float compare must state its intent as
//!   `total_cmp` (ordering), `to_bits` (bit identity) or a named
//!   tolerance. Structural-zero checks (`x == 0.0`) and the exact
//!   `±INFINITY` no-bound sentinel stay legal.
//! * **`tolerance-drift`** — any float literal with magnitude in
//!   `[1e-12, 1e-3)` outside [`tol`] is an unnamed tolerance; every
//!   feasibility/pivot/gap threshold lives in [`tol`] exactly once, so
//!   two modules can never silently disagree on what "feasible" means.
//! * **`lock-order`** — every `Mutex`/`RwLock` guard's hold span is
//!   tracked across the workspace (including through direct callees)
//!   into an acquisition graph; any cycle fails the build, and the
//!   proven acyclic order is committed as `docs/lock_order.md` (kept
//!   fresh by `tests/lint_clean.rs`).
//! * **`tick-charge`** — in the solver hot path (`revised.rs`,
//!   `factor.rs`, `cuts.rs`, `solver.rs`), a loop driving
//!   FTRAN/BTRAN/pivot/separation kernels must charge the
//!   deterministic clock or check a work budget, so no work can run
//!   outside the tick accounting that `PhaseBreakdown` and the det
//!   budget rest on.
//!
//! A violation is suppressed only by an inline
//! `// lint: allow(<rule>) — <reason>` waiver (reason mandatory) or a
//! path entry in the workspace `lint.toml`; `croxmap-lint` reports
//! anything unwaived with file, line and snippet.
//!
//! ## Example
//!
//! ```
//! use croxmap_ilp::{Model, SolveStatus, Solver, SolverConfig};
//!
//! // Minimise x + 2y subject to x + y >= 1, x,y binary.
//! let mut m = Model::new();
//! let x = m.add_binary();
//! let y = m.add_binary();
//! m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(1.0));
//! m.set_objective(m.expr([(x, 1.0), (y, 2.0)]));
//!
//! let result = Solver::new(SolverConfig::default()).solve(&m);
//! assert_eq!(result.status, SolveStatus::Optimal);
//! let best = result.best.expect("feasible");
//! assert_eq!(best.value(x), 1.0);
//! assert_eq!(best.value(y), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod basis;
mod clock;
pub mod cuts;
mod expr;
pub mod factor;
mod model;
pub mod parallel;
pub mod presolve;
mod revised;
pub mod simplex;
mod solution;
mod solver;
pub mod sparse;
pub mod tol;
pub mod trace;

pub use backend::{LpSession, RowAddition, SessionStats};
pub use basis::{Basis, VarStatus};
pub use clock::{DeterministicClock, TICKS_PER_SECOND};
pub use cuts::{Cut, CutSeparator, SeparationStats};
pub use expr::{Comparison, ConstraintSense, LinExpr, VarId};
pub use factor::{DenseInverse, FactorOpts, FactorStats, LuFactors};
pub use model::{Constraint, Model, ModelError, VarType, Variable};
pub use parallel::{ParallelMode, ParallelStats};
pub use presolve::{Postsolve, PresolveStats, PresolvedModel};
pub use solution::{IncumbentEvent, Solution};
pub use solver::{BranchRule, CutSummary, SolveResult, SolveStatus, Solver, SolverConfig};
pub use sparse::CscMatrix;
pub use trace::{
    JsonlSink, Phase, PhaseBreakdown, ProgressRow, RingSink, SpanEvent, SpanKind, TraceHandle,
    TraceSink,
};
