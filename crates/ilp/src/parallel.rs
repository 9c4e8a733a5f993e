//! Parallel branch-and-bound: work-stealing tree search with racing
//! dive/LNS workers over per-thread [`LpSession`]s.
//!
//! The sequential root phase (presolve → root LP → root cuts → root
//! dives) always runs first on the caller's thread; this module takes
//! over for the tree phase when [`SolverConfig::with_threads`] asks for
//! more than one worker. Each worker owns a private [`LpSession`] opened
//! on the *cut-grown* root view, so the tightened relaxation every node
//! inherits sequentially is inherited here too — the session is the
//! per-thread state, the model view is the shared read-only state.
//!
//! Two coordination modes ([`ParallelMode`]):
//!
//! * **[`ParallelMode::Deterministic`]** (the default) — an epoch-barrier
//!   scheme. A coordinator keeps the one global open-node heap, ordered
//!   by (bound, node-id) exactly like the sequential best-first heap, and
//!   each epoch deals the best nodes round-robin to the workers. Each
//!   worker plunges depth-first through its dealt batch under the
//!   epoch-frozen cutoff — up to a fixed node quota, children expanded
//!   newest-first like the sequential tie-break — so deep integral
//!   leaves are reached within an epoch instead of one level per
//!   barrier. The coordinator waits for *all* results, then folds them
//!   back in fixed worker order: node ids, incumbent acceptance, clock
//!   aggregation and frontier re-queuing are all resolved
//!   deterministically, so two runs at the same thread count produce
//!   identical incumbent streams, node counts and bounds. Every few
//!   epochs one worker races an LNS round (seed-offset from the solver
//!   seed) against the tree instead of expanding nodes.
//! * **[`ParallelMode::WorkStealing`]** — free-running workers over
//!   per-worker deques (LIFO locally for a plunging bias, FIFO steals of
//!   the best untouched subtrees). Pruning reads the atomic incumbent
//!   cutoff on every node, incumbents publish through a mutex-protected
//!   exchange, and the last worker switches to racing diversified LNS
//!   rounds once a first incumbent exists. Fastest wall-clock, but node
//!   counts and the incumbent *timing* vary run-to-run (the final
//!   objective does not: the tree is exhausted or the budget is shared).
//!
//! Work-tick accounting aggregates per-worker [`DeterministicClock`]s
//! into the one [`crate::SolveResult`] total: deterministic budgets mean
//! the same amount of *work* at any thread count — parallelism spends it
//! in less wall time.
//!
//! # Memory-ordering contract
//!
//! The `Exchange` atomics split into two classes, and the split is
//! what every `Ordering` choice below follows (each `Relaxed` site
//! carries a `lint: allow(relaxed-ordering)` waiver restating its case):
//!
//! * **Monotone statistics counters** — `ticks`, `nodes`, `steals`.
//!   These only ever increase, no control decision needs the *latest*
//!   value, and no data is published through them: a stale read of
//!   `ticks`/`nodes` merely delays a budget stop by one node, and the
//!   final totals are read after the `thread::scope` join (which is
//!   itself a full happens-before edge covering every worker write).
//!   `Relaxed` is therefore sound for every access — there is no
//!   payload whose visibility an `Acquire`/`Release` pair would order.
//! * **Protocol state** — everything a worker *acts on*:
//!   - `stop` is written with `Release` and read with `Acquire`: the
//!     store must not sink below the budget check that triggered it,
//!     and a reader that observes it must also observe the writer's
//!     preceding bound drops.
//!   - `in_flight` uses `Release` on the initial store, `AcqRel` on
//!     every decrement and `Acquire` on reads. The protocol is
//!     *children enqueued before the parent retires*, so the count can
//!     only reach zero when the tree is truly exhausted; the `AcqRel`
//!     decrement makes each retirement synchronize with the reader
//!     that concludes "exhausted" and tears the search down.
//!   - `best_bits` / `dropped_bits` go through `atomic_min_f64`
//!     (`Acquire` load, `AcqRel` compare-exchange): the cutoff a
//!     worker prunes against must be at least as fresh as the
//!     incumbent publication it raced with, and the publishing side
//!     pairs the CAS with the mutex-protected `ExchangeInner` update.
//!   - the `alive` worker counter (scope-local) is `Release` on
//!     decrement / `Acquire` on read so the streaming loop's exit
//!     happens-after every worker's final incumbent publication.
//!
//! # Lock-order contract
//!
//! This module owns two of the workspace's three locks: the per-worker
//! steal `deques` (`Vec<Mutex<VecDeque<..>>>`) and the incumbent
//! exchange `inner` (`Mutex<ExchangeInner>`); the third is the trace
//! `sink` (`trace.rs`). The contract, statically proven by
//! `croxmap-lint`'s `lock-order` pass and committed as
//! `docs/lock_order.md`, is that **no code path acquires a second lock
//! while holding one**: every critical section here is self-contained
//! (push/pop/steal under one deque guard, publish/read under the one
//! exchange guard), and trace emission never happens under a deque or
//! exchange guard. The acquisition graph therefore has no edges, any
//! nesting someone introduces shows up as a new edge in the committed
//! contract, and any cyclic nesting fails the build outright.
//!
//! [`LpSession`]: crate::backend::LpSession
//! [`SolverConfig::with_threads`]: crate::SolverConfig::with_threads
//! [`DeterministicClock`]: crate::DeterministicClock

use crate::basis::Basis;
use crate::clock::DeterministicClock;
use crate::expr::VarId;
use crate::factor::FactorStats;
use crate::model::Model;
use crate::solution::{IncumbentEvent, Solution};
use crate::solver::{NodeExpansion, Search, SolverConfig};
use crate::tol;
use crate::trace::{Phase, PhaseBreakdown, SpanEvent};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering as AtomicOrd};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How the parallel tree phase coordinates its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// Epoch-synchronised search: node ordering and incumbent acceptance
    /// are resolved by (bound, node-id) priority at a barrier, so results
    /// — incumbent-event sequence, node count, bound, deterministic time
    /// — are reproducible run-to-run at a fixed thread count.
    #[default]
    Deterministic,
    /// Free-running work-stealing search: maximum throughput; the final
    /// objective is unchanged but node counts and incumbent timing vary
    /// run-to-run.
    WorkStealing,
}

/// What the parallel driver did, reported in
/// [`crate::SolveResult::parallel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelStats {
    /// Worker threads used for the tree phase.
    pub threads: usize,
    /// Coordination mode.
    pub mode: ParallelMode,
    /// Synchronisation epochs (deterministic mode; `0` when stealing).
    pub epochs: u64,
    /// Nodes taken from another worker's deque (stealing mode; `0` when
    /// deterministic).
    pub steals: u64,
    /// Incumbents contributed by the racing LNS workers rather than the
    /// tree itself.
    pub heuristic_incumbents: u64,
}

/// Lock-light shared state for free-running workers: the atomic
/// incumbent cutoff read on every node, the aggregate work clock, the
/// stealing deque bookkeeping and the mutex-protected incumbent stream.
pub(crate) struct Exchange {
    /// Best incumbent objective as `f64` bits (`+inf` when none); the
    /// atomic cutoff every worker prunes against.
    best_bits: AtomicU64,
    /// Aggregate work ticks: root phase plus every worker's LP charges.
    ticks: AtomicU64,
    /// Nodes expanded across all workers.
    nodes: AtomicU64,
    /// Min bound over nodes dropped unresolved (budget stop, iteration
    /// cap), as `f64` bits; `+inf` when every node resolved.
    dropped_bits: AtomicU64,
    /// Open nodes queued or mid-expansion; `0` means the tree is
    /// exhausted (children are enqueued before the parent retires, so
    /// the count never dips to zero while work remains).
    in_flight: AtomicI64,
    /// Cooperative stop flag (budget or node limit hit).
    stop: AtomicBool,
    steals: AtomicU64,
    limit_ticks: u64,
    inner: Mutex<ExchangeInner>,
}

struct ExchangeInner {
    best: Option<Arc<Solution>>,
    events: Vec<IncumbentEvent>,
    /// Prefix of `events` already streamed to the user callback.
    published: usize,
}

/// Lowers `a` (an `f64` stored as bits) to `val` if `val` is smaller,
/// comparing as floats — bit order and float order disagree below zero.
fn atomic_min_f64(a: &AtomicU64, val: f64) {
    let mut cur = a.load(AtomicOrd::Acquire);
    while f64::from_bits(cur) > val {
        match a.compare_exchange_weak(cur, val.to_bits(), AtomicOrd::AcqRel, AtomicOrd::Acquire) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

impl Exchange {
    fn new(cfg: &SolverConfig, root_ticks: u64, incumbent: Option<Arc<Solution>>) -> Self {
        let best = incumbent.as_ref().map_or(f64::INFINITY, |s| s.objective());
        let limit_ticks = if cfg.det_time_limit.is_finite() {
            DeterministicClock::seconds_to_ticks(cfg.det_time_limit)
        } else {
            u64::MAX
        };
        Exchange {
            best_bits: AtomicU64::new(best.to_bits()),
            ticks: AtomicU64::new(root_ticks),
            nodes: AtomicU64::new(0),
            dropped_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            in_flight: AtomicI64::new(0),
            stop: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            limit_ticks,
            inner: Mutex::new(ExchangeInner {
                best: incumbent,
                events: Vec::new(),
                published: 0,
            }),
        }
    }

    /// Charges worker LP work to the aggregate clock.
    pub(crate) fn charge(&self, ticks: u64) {
        // lint: allow(relaxed-ordering) — monotone statistics counter; no payload is published through it and a stale read only delays a budget stop by one node
        self.ticks.fetch_add(ticks, AtomicOrd::Relaxed);
    }

    pub(crate) fn count_node(&self) {
        // lint: allow(relaxed-ordering) — monotone statistics counter; final total is read after the scope join, which already orders every worker write
        self.nodes.fetch_add(1, AtomicOrd::Relaxed);
    }

    fn seconds(&self) -> f64 {
        // lint: allow(relaxed-ordering) — event timestamps tolerate counter staleness; the mutex in publish() orders the event stream itself
        DeterministicClock::ticks_to_seconds(self.ticks.load(AtomicOrd::Relaxed))
    }

    /// Aggregate deterministic seconds left in the global budget.
    pub(crate) fn remaining(&self) -> f64 {
        DeterministicClock::ticks_to_seconds(
            self.limit_ticks
                // lint: allow(relaxed-ordering) — budget check on a monotone counter; a stale read admits at most one extra node, never unsoundness
                .saturating_sub(self.ticks.load(AtomicOrd::Relaxed)),
        )
    }

    /// True once the shared budget is spent or a stop was requested.
    pub(crate) fn exhausted(&self) -> bool {
        self.stop.load(AtomicOrd::Acquire)
            // lint: allow(relaxed-ordering) — monotone budget counter; the stop *decision* publishes via the Release store to `stop` above, not via this read
            || self.ticks.load(AtomicOrd::Relaxed) >= self.limit_ticks
            // lint: allow(relaxed-ordering) — same as the tick counter: monotone, decision-tolerant of staleness by one node
            || self.nodes.load(AtomicOrd::Relaxed) >= SolverConfig::NODE_LIMIT
    }

    /// Current global incumbent objective (`+inf` when none).
    pub(crate) fn best_objective(&self) -> f64 {
        f64::from_bits(self.best_bits.load(AtomicOrd::Acquire))
    }

    /// Publishes a candidate incumbent. The lock arbitrates races: the
    /// candidate must still beat the *global* best when the lock is held,
    /// and its event is stamped with the aggregate clock — so the stream
    /// stays strictly improving and time-monotone. Returns the accepted
    /// solution for the worker to adopt locally, or `None` if a better
    /// incumbent landed first.
    pub(crate) fn publish(&self, values: Vec<f64>, objective: f64) -> Option<Arc<Solution>> {
        // lint: allow(panic-path) — a poisoned exchange means a worker already panicked; propagating the panic is the correct teardown
        let mut inner = self.inner.lock().expect("exchange lock poisoned");
        if inner
            .best
            .as_ref()
            .is_some_and(|b| objective >= b.objective() - tol::OBJ_AGREE)
        {
            return None;
        }
        let sol = Arc::new(Solution::new(values, objective));
        inner.best = Some(Arc::clone(&sol));
        let det_time = self.seconds();
        inner.events.push(IncumbentEvent {
            objective,
            det_time,
            solution: Solution::clone(&sol),
        });
        atomic_min_f64(&self.best_bits, objective);
        Some(sol)
    }

    /// Records the bound of a node retired without being resolved.
    fn drop_bound(&self, bound: f64) {
        atomic_min_f64(&self.dropped_bits, bound);
    }

    /// Events published since the last drain (streamed to the user
    /// callback by the driver's main thread).
    fn drain_new(&self) -> Vec<IncumbentEvent> {
        // lint: allow(panic-path) — a poisoned exchange means a worker already panicked; propagating the panic is the correct teardown
        let mut inner = self.inner.lock().expect("exchange lock poisoned");
        let fresh = inner.events[inner.published..].to_vec();
        inner.published = inner.events.len();
        fresh
    }

    /// Final state: the global incumbent and the full event stream.
    fn take_all(&self) -> (Option<Arc<Solution>>, Vec<IncumbentEvent>) {
        // lint: allow(panic-path) — a poisoned exchange means a worker already panicked; propagating the panic is the correct teardown
        let mut inner = self.inner.lock().expect("exchange lock poisoned");
        let events = std::mem::take(&mut inner.events);
        (inner.best.take(), events)
    }
}

/// Golden-ratio seed offset: worker `id` explores with its own RNG
/// stream so racing dives/LNS rounds diversify instead of duplicating.
fn worker_seed(seed: u64, id: usize) -> u64 {
    seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What the tree phase proved, handed back to
/// [`crate::Solver`]'s result assembly.
pub(crate) struct TreeOutcome {
    /// Best proven bound for the whole tree (`+inf` = exhausted with no
    /// feasible point ⇒ integer-infeasible).
    pub bound: f64,
    pub stats: ParallelStats,
}

/// Runs the tree phase of `search` on `cfg.threads` workers and folds
/// every worker's results — incumbent, events, nodes, ticks, factor and
/// fallback counts — back into the root search context.
///
/// The caller's root phase already ran: `search.session` holds the
/// cut-grown view (shared, not copied, as the workers' view) and
/// `root_warm` is the final root basis every worker seeds from.
pub(crate) fn run_tree(
    search: &mut Search<'_>,
    root_bounds: &[(f64, f64)],
    root_warm: Option<&Basis>,
    callback: &mut dyn FnMut(&IncumbentEvent),
) -> TreeOutcome {
    // The workers' shared read-only view: the session's model carries the
    // root cut rows, so the parallel tree prunes against the same
    // tightened relaxation the sequential tree would.
    let view = Arc::clone(search.session.model());
    match search.cfg.parallel_mode {
        ParallelMode::Deterministic => {
            run_deterministic(search, &view, root_bounds, root_warm, callback)
        }
        ParallelMode::WorkStealing => {
            run_work_stealing(search, &view, root_bounds, root_warm, callback)
        }
    }
}

// ---------------------------------------------------------------------
// Work-stealing driver
// ---------------------------------------------------------------------

/// An open node in transit between workers: the branching decisions from
/// the root (sparse — bounds rebuild in O(depth)), the inherited bound,
/// the edge that created it (for pseudo-costs) and the parent's basis.
struct PNode {
    fixes: Vec<(u32, f64, f64)>,
    bound: f64,
    /// `(var, up-branch?)`; `None` for the root.
    edge: Option<(u32, bool)>,
    warm: Option<Arc<Basis>>,
}

/// Per-worker tallies folded into the root search after the join.
struct WorkerOut {
    nodes: u64,
    fallbacks: u64,
    factor: FactorStats,
    lns_hits: u64,
    phases: PhaseBreakdown,
    /// The worker's whole span buffer, appended to the root's in worker
    /// order after the join (empty when tracing is off).
    trace: Vec<SpanEvent>,
}

fn run_work_stealing(
    search: &mut Search<'_>,
    view: &Arc<Model>,
    root_bounds: &[(f64, f64)],
    root_warm: Option<&Basis>,
    callback: &mut dyn FnMut(&IncumbentEvent),
) -> TreeOutcome {
    let cfg = search.cfg;
    let n = cfg.threads;
    let exchange = Exchange::new(cfg, search.clock.ticks(), search.incumbent.clone());
    let deques: Vec<Mutex<VecDeque<PNode>>> = (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
    deques[0]
        .lock()
        // lint: allow(panic-path) — the deque was created two lines up and no other thread exists yet; the lock cannot be poisoned
        .expect("fresh deque lock")
        .push_back(PNode {
            fixes: Vec::new(),
            bound: f64::NEG_INFINITY,
            edge: None,
            warm: root_warm.cloned().map(Arc::new),
        });
    exchange.in_flight.store(1, AtomicOrd::Release);
    let alive = AtomicUsize::new(n);

    let mut outs: Vec<WorkerOut> = Vec::new();
    thread::scope(|s| {
        let exchange = &exchange;
        let deques = &deques;
        let alive = &alive;
        let handles: Vec<_> = (0..n)
            .map(|id| {
                s.spawn(move || {
                    let out = ws_worker(id, n, cfg, view, root_bounds, exchange, deques);
                    alive.fetch_sub(1, AtomicOrd::Release);
                    out
                })
            })
            .collect();
        // The caller's thread streams incumbents to the user callback in
        // publish order while the workers run.
        while alive.load(AtomicOrd::Acquire) > 0 {
            for ev in exchange.drain_new() {
                callback(&ev);
            }
            thread::sleep(Duration::from_micros(200));
        }
        outs = handles
            .into_iter()
            // lint: allow(panic-path) — join fails only if the worker panicked; re-raising that panic on the driver thread is the intended propagation
            .map(|h| h.join().expect("tree worker panicked"))
            .collect();
    });
    for ev in exchange.drain_new() {
        callback(&ev);
    }

    // Fold the workers back into the root search context.
    let (best, events) = exchange.take_all();
    if let Some(b) = best {
        search.set_incumbent(Some(b));
    }
    search.events.extend(events);
    let mut lns_hits = 0;
    // `outs` joins in spawn (worker-id) order, so the trace merge order
    // is fixed even though the events' relative timing is not.
    for out in outs {
        search.nodes += out.nodes;
        search.lp_fallbacks += out.fallbacks;
        search.factor.merge(&out.factor);
        search.phases.merge(&out.phases);
        if let Some(buf) = search.trace.as_mut() {
            buf.events.extend(out.trace);
        }
        lns_hits += out.lns_hits;
    }
    // lint: allow(relaxed-ordering) — read after the thread::scope join, which is a full happens-before edge over every worker write; ordering is already guaranteed
    let steals = exchange.steals.load(AtomicOrd::Relaxed);
    // The aggregate exchange clock already includes the root phase.
    // lint: allow(relaxed-ordering) — same post-join read; the scope join already ordered every worker's tick charge
    let total = exchange.ticks.load(AtomicOrd::Relaxed);
    search.clock = crate::clock::DeterministicClock::from_ticks(total);

    let dropped = f64::from_bits(exchange.dropped_bits.load(AtomicOrd::Acquire));
    let bound = dropped.min(
        search
            .incumbent
            .as_ref()
            .map_or(f64::INFINITY, |s| s.objective()),
    );
    TreeOutcome {
        bound,
        stats: ParallelStats {
            threads: n,
            mode: ParallelMode::WorkStealing,
            epochs: 0,
            steals,
            heuristic_incumbents: lns_hits,
        },
    }
}

/// Pops from the worker's own deque (LIFO — plunge into recent subtrees)
/// or steals the oldest node of a neighbour (FIFO — take the biggest
/// untouched subtree).
fn pop_or_steal(
    id: usize,
    n: usize,
    deques: &[Mutex<VecDeque<PNode>>],
    exchange: &Exchange,
) -> Option<PNode> {
    // lint: allow(panic-path) — deque poisoning means another worker panicked mid-push; propagating is the correct teardown
    if let Some(node) = deques[id].lock().expect("deque lock").pop_back() {
        return Some(node);
    }
    for k in 1..n {
        let j = (id + k) % n;
        // lint: allow(panic-path) — deque poisoning means another worker panicked mid-push; propagating is the correct teardown
        if let Some(node) = deques[j].lock().expect("deque lock").pop_front() {
            // lint: allow(relaxed-ordering) — monotone statistics counter; the stolen node's payload travelled through the deque mutex, not this counter
            exchange.steals.fetch_add(1, AtomicOrd::Relaxed);
            return Some(node);
        }
    }
    None
}

#[allow(clippy::too_many_lines)]
fn ws_worker(
    id: usize,
    n: usize,
    cfg: &SolverConfig,
    view: &Arc<Model>,
    root_bounds: &[(f64, f64)],
    exchange: &Exchange,
    deques: &[Mutex<VecDeque<PNode>>],
) -> WorkerOut {
    let mut search = Search::with_context(view, cfg, worker_seed(cfg.seed, id), Some(exchange));
    search.set_trace_worker(id as u32 + 1);
    search.set_phase(Phase::Tree);
    // The last worker races diversified LNS against the tree once an
    // incumbent exists (it helps expand the tree until then).
    let heuristic = cfg.enable_lns && id == n - 1 && view.binary_vars().next().is_some();
    let mut lns_hits = 0u64;
    let mut bounds_buf = root_bounds.to_vec();
    loop {
        if search.out_of_budget() {
            // Budget or node limit: tell everyone, then retire this
            // worker's queued nodes as unresolved bounds.
            exchange.stop.store(true, AtomicOrd::Release);
            // lint: allow(panic-path) — deque poisoning means another worker panicked mid-push; propagating is the correct teardown
            let mut q = deques[id].lock().expect("deque lock");
            while let Some(node) = q.pop_back() {
                exchange.drop_bound(node.bound);
                exchange.in_flight.fetch_sub(1, AtomicOrd::AcqRel);
            }
            break;
        }
        if heuristic && exchange.in_flight.load(AtomicOrd::Acquire) == 0 {
            break; // tree exhausted ⇒ optimum proven, nothing to polish
        }
        if heuristic && exchange.best_objective().is_finite() {
            let before = exchange.best_objective();
            // Adopt the freshest global incumbent as the LNS centre.
            let best = exchange
                .inner
                .lock()
                // lint: allow(panic-path) — a poisoned exchange means a worker already panicked; propagating the panic is the correct teardown
                .expect("exchange lock poisoned")
                .best
                .clone();
            search.set_incumbent(best);
            search.lns_round(root_bounds, &mut |_| {});
            // LNS rounds always consume clock; guard against zero-cost
            // loops exactly like the sequential polish loop.
            search.clock.charge(1_000);
            search.phases.add(Phase::Lns, 1_000, 0);
            exchange.charge(1_000);
            if exchange.best_objective() < before - tol::OBJ_AGREE {
                lns_hits += 1;
            }
            continue;
        }
        let Some(node) = pop_or_steal(id, n, deques, exchange) else {
            if exchange.in_flight.load(AtomicOrd::Acquire) == 0 {
                break; // globally exhausted
            }
            thread::yield_now();
            continue;
        };
        // Prune on pop against the *atomic* global cutoff — an incumbent
        // found by any worker prunes everyone immediately.
        if node.bound >= search.cutoff() {
            exchange.in_flight.fetch_sub(1, AtomicOrd::AcqRel);
            continue;
        }
        bounds_buf.copy_from_slice(root_bounds);
        for &(v, lo, hi) in &node.fixes {
            let (l, u) = bounds_buf[v as usize];
            bounds_buf[v as usize] = (l.max(lo), u.min(hi));
        }
        let edge = node.edge.map(|(v, up)| (VarId(v), up, node.bound));
        match search.expand_node(&bounds_buf, node.warm.as_deref(), edge, node.bound) {
            NodeExpansion::Infeasible | NodeExpansion::CutOff => {}
            NodeExpansion::NoInfo => exchange.drop_bound(f64::NEG_INFINITY),
            NodeExpansion::Dropped(bound) => exchange.drop_bound(bound),
            NodeExpansion::Integral { values, bound } => {
                search.try_accept(values, &mut |_| {});
                // Like the sequential subtree accounting, the integral
                // node's own bound caps the proved bound.
                exchange.drop_bound(bound);
            }
            NodeExpansion::Branch { var, bound, basis } => {
                let warm = basis.map(Arc::new);
                {
                    // lint: allow(panic-path) — deque poisoning means another worker panicked mid-push; propagating is the correct teardown
                    let mut q = deques[id].lock().expect("deque lock");
                    for (lo, hi) in [(0.0, 0.0), (1.0, 1.0)] {
                        let mut fixes = node.fixes.clone();
                        fixes.push((var.0, lo, hi));
                        q.push_back(PNode {
                            fixes,
                            bound,
                            edge: Some((var.0, hi > 0.5)),
                            warm: warm.clone(),
                        });
                    }
                }
                // Children registered before the parent retires, so
                // in-flight never dips to zero while work remains.
                exchange.in_flight.fetch_add(2, AtomicOrd::AcqRel);
            }
        }
        exchange.in_flight.fetch_sub(1, AtomicOrd::AcqRel);
    }
    WorkerOut {
        nodes: search.nodes,
        fallbacks: search.lp_fallbacks,
        factor: search.factor,
        lns_hits,
        phases: search.phases,
        trace: search.trace.take().map_or_else(Vec::new, |buf| buf.events),
    }
}

// ---------------------------------------------------------------------
// Deterministic driver
// ---------------------------------------------------------------------

/// Nodes dealt per worker per epoch. Small enough that pruning stays
/// fresh (the cutoff is frozen for the epoch), large enough to amortise
/// the barrier.
const DET_BATCH: usize = 4;
/// Nodes a worker may *expand* per epoch while plunging depth-first
/// through its dealt batch. Without the plunge every dealt node's
/// children would wait for the next barrier, so reaching an integral
/// leaf at depth `d` would cost `d` epochs (and `d × threads ×
/// DET_BATCH` node expansions tree-wide) — on deep binary models the
/// first incumbent would effectively never arrive. The quota bounds the
/// staleness of the frozen epoch cutoff instead of the dive depth.
const DET_NODE_QUOTA: u64 = 64;
/// Every this-many epochs, one worker runs an LNS round instead of
/// expanding nodes (once an incumbent exists).
const LNS_PERIOD: u64 = 4;

/// One node job dealt to a deterministic worker.
#[derive(Clone)]
struct DetJob {
    fixes: Vec<(u32, f64, f64)>,
    bound: f64,
    edge: Option<(u32, bool)>,
    warm: Option<Arc<Basis>>,
}

enum DetTask {
    Expand {
        jobs: Vec<DetJob>,
        /// Global incumbent objective frozen for the epoch.
        cutoff_obj: f64,
        /// Deterministic seconds left in the global budget.
        remaining: f64,
    },
    Lns {
        best: Arc<Solution>,
        remaining: f64,
    },
    Stop,
}

/// Per-node outcome a deterministic worker reports. Terminal variants
/// echo [`NodeExpansion`]; `Open` hands an unexpanded frontier node —
/// a child created during the worker's plunge, or a dealt node the
/// quota/budget left untouched — back to the coordinator's heap, with
/// its root-relative fix list so the coordinator needs no echo of the
/// dealt jobs.
enum DetNodeOut {
    NoInfo,
    Dropped(f64),
    Integral { values: Vec<f64>, bound: f64 },
    Open(DetJob),
}

/// One worker's reply for one epoch. Tallies are cumulative over the
/// worker's lifetime; the coordinator charges deltas.
struct DetOut {
    id: usize,
    results: Vec<DetNodeOut>,
    lns_events: Vec<IncumbentEvent>,
    ticks: u64,
    nodes: u64,
    fallbacks: u64,
    factor: FactorStats,
    /// Cumulative phase attribution (folded like `factor`).
    phases: PhaseBreakdown,
    /// Span events buffered since the last epoch (drained each reply, so
    /// the coordinator accumulates them per worker in deal order).
    trace: Vec<SpanEvent>,
}

/// Coordinator heap entry: min bound first, then *newest* node id —
/// the same plunging tie-break as the sequential [`Search`] heap.
struct DetOpen {
    bound: f64,
    id: u64,
    job: DetJob,
}

impl PartialEq for DetOpen {
    fn eq(&self, other: &Self) -> bool {
        self.bound.to_bits() == other.bound.to_bits() && self.id == other.id
    }
}
impl Eq for DetOpen {}
impl PartialOrd for DetOpen {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DetOpen {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .bound
            .total_cmp(&self.bound)
            .then(self.id.cmp(&other.id))
    }
}

fn det_worker(
    id: usize,
    cfg: &SolverConfig,
    view: &Arc<Model>,
    root_bounds: &[(f64, f64)],
    rx: &mpsc::Receiver<DetTask>,
    tx: &mpsc::Sender<DetOut>,
) {
    let mut search = Search::with_context(view, cfg, worker_seed(cfg.seed, id), None);
    search.set_trace_worker(id as u32 + 1);
    search.set_phase(Phase::Tree);
    let mut bounds_buf = root_bounds.to_vec();
    let mut events_seen = 0usize;
    while let Ok(task) = rx.recv() {
        let mut results = Vec::new();
        let mut lns_events = Vec::new();
        match task {
            DetTask::Stop => break,
            DetTask::Expand {
                jobs,
                cutoff_obj,
                remaining,
            } => {
                search.set_cutoff_hint(cutoff_obj);
                search.set_task_budget(remaining);
                // Depth-first plunge over the dealt batch: a local LIFO
                // stack seeded with the jobs in reverse deal order (so
                // the first-dealt — best-bound — job dives first), each
                // branch pushing its down-child then up-child exactly
                // like the sequential heap's newest-first tie-break.
                // Expansion stops at the epoch quota or the budget;
                // whatever the stack still holds goes back as `Open`.
                let mut stack: Vec<DetJob> = jobs.into_iter().rev().collect();
                let mut expanded = 0u64;
                while let Some(job) = stack.pop() {
                    if expanded >= DET_NODE_QUOTA || search.out_of_budget() {
                        // Quota or budget spent: retire the rest of the
                        // frontier unexpanded, deterministically.
                        results.push(DetNodeOut::Open(job));
                        continue;
                    }
                    // Prune against the frozen epoch cutoff on pop, like
                    // the coordinator does when dealing.
                    if job.bound >= search.cutoff() {
                        continue;
                    }
                    expanded += 1;
                    bounds_buf.copy_from_slice(root_bounds);
                    for &(v, lo, hi) in &job.fixes {
                        let (l, u) = bounds_buf[v as usize];
                        bounds_buf[v as usize] = (l.max(lo), u.min(hi));
                    }
                    let edge = job.edge.map(|(v, up)| (VarId(v), up, job.bound));
                    match search.expand_node(&bounds_buf, job.warm.as_deref(), edge, job.bound) {
                        NodeExpansion::Infeasible | NodeExpansion::CutOff => {}
                        NodeExpansion::NoInfo => results.push(DetNodeOut::NoInfo),
                        NodeExpansion::Dropped(b) => results.push(DetNodeOut::Dropped(b)),
                        NodeExpansion::Integral { values, bound } => {
                            results.push(DetNodeOut::Integral { values, bound });
                        }
                        NodeExpansion::Branch { var, bound, basis } => {
                            let warm = basis.map(Arc::new);
                            for (lo, hi) in [(0.0, 0.0), (1.0, 1.0)] {
                                let mut fixes = job.fixes.clone();
                                fixes.push((var.0, lo, hi));
                                stack.push(DetJob {
                                    fixes,
                                    bound,
                                    edge: Some((var.0, hi > 0.5)),
                                    warm: warm.clone(),
                                });
                            }
                        }
                    }
                }
            }
            DetTask::Lns { best, remaining } => {
                search.set_cutoff_hint(f64::INFINITY);
                search.set_incumbent(Some(best));
                search.set_task_budget(remaining);
                search.lns_round(root_bounds, &mut |_| {});
                search.clock.charge(1_000);
                search.phases.add(Phase::Lns, 1_000, 0);
                // Report the round's local improvements; the coordinator
                // re-verifies them against the global incumbent.
                lns_events.extend(search.events[events_seen..].iter().cloned());
                events_seen = search.events.len();
            }
        }
        let out = DetOut {
            id,
            results,
            lns_events,
            ticks: search.clock.ticks(),
            nodes: search.nodes,
            fallbacks: search.lp_fallbacks,
            factor: search.factor,
            phases: search.phases,
            trace: search
                .trace
                .as_mut()
                .map_or_else(Vec::new, |buf| std::mem::take(&mut buf.events)),
        };
        if tx.send(out).is_err() {
            break;
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run_deterministic(
    search: &mut Search<'_>,
    view: &Arc<Model>,
    root_bounds: &[(f64, f64)],
    root_warm: Option<&Basis>,
    callback: &mut dyn FnMut(&IncumbentEvent),
) -> TreeOutcome {
    let cfg = search.cfg;
    let n = cfg.threads;
    let has_binaries = view.binary_vars().next().is_some();
    let mut dropped = f64::INFINITY;
    let mut epochs = 0u64;
    let mut lns_hits = 0u64;

    thread::scope(|s| {
        let mut txs = Vec::with_capacity(n);
        let (rtx, rrx) = mpsc::channel::<DetOut>();
        for id in 0..n {
            let (tx, rx) = mpsc::channel::<DetTask>();
            txs.push(tx);
            let rtx = rtx.clone();
            s.spawn(move || det_worker(id, cfg, view, root_bounds, &rx, &rtx));
        }
        drop(rtx);

        let mut heap = BinaryHeap::new();
        heap.push(DetOpen {
            bound: f64::NEG_INFINITY,
            id: 0,
            job: DetJob {
                fixes: Vec::new(),
                bound: f64::NEG_INFINITY,
                edge: None,
                warm: root_warm.cloned().map(Arc::new),
            },
        });
        let mut next_id = 1u64;
        let mut prev_ticks = vec![0u64; n];
        let mut prev_nodes = vec![0u64; n];
        let mut last_fallbacks = vec![0u64; n];
        let mut last_factor = vec![FactorStats::default(); n];
        let mut last_phases = vec![PhaseBreakdown::default(); n];
        let mut worker_trace: Vec<Vec<SpanEvent>> = vec![Vec::new(); n];

        loop {
            if search.out_of_budget() {
                // Remaining open nodes bound the tree, like the
                // sequential budget stop.
                for open in heap.drain() {
                    dropped = dropped.min(open.bound);
                }
                break;
            }
            // Freeze the epoch's cutoff: every worker prunes against the
            // same incumbent, whichever worker finds what this epoch.
            let cutoff_obj = search
                .incumbent
                .as_ref()
                .map_or(f64::INFINITY, |s| s.objective());
            let cutoff = search.cutoff();
            let mut jobs = Vec::new();
            while jobs.len() < n * DET_BATCH {
                let Some(top) = heap.pop() else { break };
                if top.bound >= cutoff {
                    continue; // pruned under the epoch cutoff
                }
                jobs.push(top.job);
            }
            if jobs.is_empty() {
                break; // tree exhausted (or fully pruned)
            }
            let lns_due = cfg.enable_lns
                && has_binaries
                && n >= 2
                && epochs % LNS_PERIOD == LNS_PERIOD - 1
                && search.incumbent.is_some();
            let tree_workers = if lns_due { n - 1 } else { n };
            let remaining = (cfg.det_time_limit - search.clock.seconds()).max(0.0);
            let mut batches: Vec<Vec<DetJob>> = (0..tree_workers).map(|_| Vec::new()).collect();
            for (j, job) in jobs.into_iter().enumerate() {
                batches[j % tree_workers].push(job);
            }
            let mut expected = 0usize;
            for (w, batch) in batches.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                txs[w]
                    .send(DetTask::Expand {
                        jobs: batch,
                        cutoff_obj,
                        remaining,
                    })
                    // lint: allow(panic-path) — the receiver lives until the coordinator sends Stop; a closed channel means the worker panicked and the panic should propagate
                    .expect("deterministic worker hung up");
                expected += 1;
            }
            if lns_due {
                // lint: allow(panic-path) — lns_due is only set after an incumbent is accepted; the Option is Some by construction
                let best = search.incumbent.clone().expect("lns_due implies incumbent");
                txs[n - 1]
                    .send(DetTask::Lns { best, remaining })
                    // lint: allow(panic-path) — the receiver lives until the coordinator sends Stop; a closed channel means the worker panicked and the panic should propagate
                    .expect("deterministic worker hung up");
                expected += 1;
            }
            // Epoch barrier: wait for every dealt task, then fold the
            // replies in fixed worker order — the merge order (and with
            // it node ids, acceptance order, clock totals) never depends
            // on thread scheduling.
            let mut slots: Vec<Option<DetOut>> = (0..n).map(|_| None).collect();
            for _ in 0..expected {
                // lint: allow(panic-path) — every dealt task produces exactly one reply; a dead sender means the worker panicked and the panic should propagate
                let out = rrx.recv().expect("deterministic worker died");
                let w = out.id;
                slots[w] = Some(out);
            }
            for w in 0..n {
                let Some(out) = slots[w].take() else { continue };
                search.clock.charge(out.ticks.saturating_sub(prev_ticks[w]));
                prev_ticks[w] = out.ticks;
                search.nodes += out.nodes.saturating_sub(prev_nodes[w]);
                prev_nodes[w] = out.nodes;
                last_fallbacks[w] = out.fallbacks;
                last_factor[w] = out.factor;
                last_phases[w] = out.phases;
                worker_trace[w].extend(out.trace);
                for res in out.results {
                    match res {
                        DetNodeOut::NoInfo => dropped = f64::NEG_INFINITY,
                        DetNodeOut::Dropped(b) => dropped = dropped.min(b),
                        DetNodeOut::Integral { values, bound } => {
                            search.try_accept(values, callback);
                            dropped = dropped.min(bound);
                        }
                        DetNodeOut::Open(job) => {
                            heap.push(DetOpen {
                                bound: job.bound,
                                id: next_id,
                                job,
                            });
                            next_id += 1;
                        }
                    }
                }
                for ev in out.lns_events {
                    // Re-verify against the *global* incumbent and stamp
                    // with the aggregate clock.
                    if search.try_accept(ev.solution.values().to_vec(), callback) {
                        lns_hits += 1;
                    }
                }
            }
            epochs += 1;
            // One progress row per epoch, from coordinator state only —
            // every input is deterministic at a fixed thread count, so
            // traced runs stay byte-identical.
            search.emit_progress(
                heap.len() as u64,
                heap.peek().map_or(f64::INFINITY, |o| o.bound),
            );
        }
        for tx in &txs {
            let _ = tx.send(DetTask::Stop);
        }
        for w in 0..n {
            search.lp_fallbacks += last_fallbacks[w];
            search.factor.merge(&last_factor[w]);
            search.phases.merge(&last_phases[w]);
            if let Some(buf) = search.trace.as_mut() {
                buf.events.append(&mut worker_trace[w]);
            }
        }
    });

    let bound = dropped.min(
        search
            .incumbent
            .as_ref()
            .map_or(f64::INFINITY, |s| s.objective()),
    );
    TreeOutcome {
        bound,
        stats: ParallelStats {
            threads: n,
            mode: ParallelMode::Deterministic,
            epochs,
            steals: 0,
            heuristic_incumbents: lns_hits,
        },
    }
}

// ---------------------------------------------------------------------
// Compile-time Send/Sync audit
// ---------------------------------------------------------------------

/// `static_assertions`-style helpers: adding a non-`Send` field (an `Rc`,
/// a raw pointer) to any type the parallel driver moves or shares across
/// threads becomes a compile error here, not a runtime surprise.
const fn assert_send<T: Send>() {}
const fn assert_sync<T: Sync>() {}

const _: () = {
    // Moved into worker threads.
    assert_send::<crate::backend::LpSession>();
    assert_send::<crate::basis::Basis>();
    assert_send::<crate::solution::Solution>();
    assert_send::<crate::model::Model>();
    assert_send::<crate::solver::Solver>();
    assert_send::<crate::solver::SolverConfig>();
    assert_send::<crate::solver::SolveResult>();
    assert_send::<crate::simplex::LpConfig>();
    assert_send::<PNode>();
    assert_send::<DetTask>();
    assert_send::<DetOut>();
    assert_send::<crate::trace::SpanEvent>();
    assert_send::<crate::trace::TraceHandle>();
    // Shared by reference across worker threads.
    assert_sync::<crate::model::Model>();
    assert_sync::<crate::solver::SolverConfig>();
    assert_sync::<Exchange>();
    assert_sync::<crate::trace::TraceHandle>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_min_handles_negative_floats() {
        let a = AtomicU64::new(f64::INFINITY.to_bits());
        atomic_min_f64(&a, 3.5);
        atomic_min_f64(&a, -2.0);
        atomic_min_f64(&a, 1.0); // larger: must not regress
        assert_eq!(f64::from_bits(a.load(AtomicOrd::Relaxed)), -2.0);
    }

    #[test]
    fn worker_seeds_diversify() {
        let s0 = worker_seed(42, 0);
        let s1 = worker_seed(42, 1);
        assert_ne!(s0, s1);
        assert_ne!(s0, 42);
        // Deterministic in the inputs.
        assert_eq!(worker_seed(42, 3), worker_seed(42, 3));
    }
}
