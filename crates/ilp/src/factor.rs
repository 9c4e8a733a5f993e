//! Sparse LU basis factorisation with Forrest–Tomlin updates and
//! hyper-sparse triangular solves.
//!
//! The revised simplex needs four linear-algebra primitives on the basis
//! matrix `B` (one column per constraint row, drawn from the structural
//! CSC matrix or the implicit slack identity):
//!
//! * **FTRAN** — solve `B x = b` (pivot columns, primal updates),
//! * **BTRAN** — solve `Bᵀ y = c` (dual prices, tableau rows),
//! * **update** — replace the basic column of one row after a pivot,
//! * **refactorise** — rebuild the representation from the basis columns.
//!
//! [`LuFactors`] implements them as a sparse LU factorisation
//! `B·Q = L·U` (columns permuted by `Q`, rows by partial pivoting).
//! [`LuFactors::factorize`] runs a right-looking elimination that picks
//! every pivot by **live Markowitz merit on the active submatrix**:
//! column candidates come out of non-zero-count buckets (lazily
//! rebucketed as elimination changes the counts), and among the entries
//! of a candidate column that pass *threshold partial pivoting* — within
//! 10× of the column's largest magnitude — the one minimising
//! `(col_count − 1) · (row_count − 1)` wins. Both counts are the
//! *current* active-submatrix counts, maintained under fill, so the
//! ordering adapts to the elimination instead of freezing the input
//! structure.
//!
//! Pivots are applied as **Forrest–Tomlin updates**: the stored `U` is
//! modified **in place**. The leaving column's slot `t` is emptied, the
//! transformed entering column (the *spike* `v = L̃⁻¹ a_q`) is inserted
//! in its place, slot `t` is moved to the end of the pivot order, and the
//! now out-of-place row `t` of `U` is eliminated by a single row
//! transform `R = I − e_t μᵀ` whose multipliers solve the trailing
//! triangular system `Ūᵀ μ = u_tᵀ`. `R` joins a short file of row
//! transforms applied between the `L` and `U` solves, so FTRAN/BTRAN cost
//! tracks `nnz(L) + nnz(U) + nnz(R-file)` — flat in the number of pivots.
//!
//! [`LuFactors::needs_refactor`] triggers a fresh factorisation
//! when the update file gets long ([`FactorOpts::refactor_interval`])
//! or fat ([`FactorOpts::eta_fill_factor`] × the LU fill).
//!
//! The triangular solves are **hyper-sparse**: when the right-hand
//! side is sparse enough (see the density cutover below), the solver
//! first computes the *reach* of the RHS pattern — a DFS over the
//! triangular factor's dependency graph, visited in topological
//! (pivot) order — and then runs the scatter-form solve over exactly
//! those columns, so work is proportional to the non-zeros actually
//! touched rather than to `m`. Dense right-hand sides cut over to the
//! scanning kernels, which sweep every elimination step and skip zero
//! multipliers. Both kernels execute bit-identical arithmetic (same
//! scatter operations in the same pivot order), so results do not
//! depend on which kernel a density estimate picks.
//!
//! A sparse right-hand side can still have a dense reach: on small
//! bases (m ≈ 70–200, the branch-and-bound trees) FTRAN's `U` phase and
//! BTRAN's `Lᵀ` phase often reach a quarter to half of their range, and
//! the DFS and the ordering of its output then cost more than the
//! arithmetic. So when the previous reach of the same phase covered at
//! least `SWEEP_DENSITY_CUTOFF` of its range, those two phases find
//! their reach in one topological sweep fused with the solve: down the
//! pivotal positions (`U`) or the slots (`Lᵀ`) from the highest seed, a
//! slot is reached when seeded or marked by a reached slot before it,
//! and each reached slot marks its adjacency and does its scatter in
//! place. The sweep finds the DFS's reach, examines the same edges and
//! runs the same floating-point operations in the same order, so it
//! charges the same ticks and returns the same bits; only wall time
//! moves. Sparse reaches, every reach at paper scale, keep the DFS: a
//! sweep over the whole range there costs more than the reach.
//!
//! [`DenseInverse`], the explicit dense `m × m` basis inverse of the
//! crate's first engine (`O(m³)` Gauss–Jordan refactorisation, `O(m²)`
//! rank-one pivot updates), stays only as the reference the
//! factorisation property tests check FTRAN, BTRAN and updates against.
//!
//! Every elementary floating-point operation of the LU charges ticks
//! (see [`crate::DeterministicClock`]), harvested by the engine through
//! [`take_work`](LuFactors::take_work), so budgets stay reproducible.
//! [`FactorStats`] additionally counts FTRAN/BTRAN visited non-zeros,
//! kernel selections and update-file growth for the bench log.
//!
//! Callers that know a solve's right-hand-side pattern ahead of time use
//! the `*_sparse` entry points; the `*_tracked` variants additionally
//! return the **result** pattern discovered by the DFS reach, so
//! consecutive solves can thread patterns (FTRAN result → update → next
//! FTRAN seed) without ever scanning a dense vector.

use crate::sparse::CscMatrix;

/// Magnitude below which a pivot candidate counts as numerically zero.
const PIVOT_TOL: f64 = crate::tol::PIVOT;
/// Threshold-pivoting relaxation: rows within this factor of the largest
/// eligible magnitude may be preferred for sparsity.
const PIVOT_THRESHOLD: f64 = 0.1;
/// Default RHS density (pattern non-zeros / m) above which the
/// hyper-sparse kernels cut over to the scanning kernels. DFS reach
/// computation only pays off when the solution stays sparse, which an
/// already-dense right-hand side rules out.
const HYPER_DENSITY_CUTOFF: f64 = 0.125;
/// Share of its range (pivotal positions for FTRAN's `U` phase, slots
/// for BTRAN's `Lᵀ` phase) that a hyper-sparse solve's reach must cover
/// for the same phase of the next solve to find its reach by one
/// topological sweep instead of a DFS. A dense reach costs the DFS and
/// its ordering more than a pass over the range; a sparse one the
/// reverse.
const SWEEP_DENSITY_CUTOFF: f64 = 0.25;

/// A vacated pivotal position in [`LuFactors`]' `order`: the slot that
/// held it moved to the end in a Forrest–Tomlin update.
const HOLE: usize = usize::MAX;

/// Bounded candidate search of the Markowitz ordering: how many usable
/// pivot columns are examined (in ascending active count) before the
/// best Markowitz merit seen so far is accepted.
const MARKOWITZ_CANDIDATES: usize = 4;

/// Policy knobs for folding accumulated updates back into a fresh
/// factorisation.
///
/// The LP engine takes these from
/// [`LpConfig::factor_opts`](crate::simplex::LpConfig::factor_opts) (and
/// from there [`SolverConfig`](crate::SolverConfig)), which sets
/// `refactor_interval` only: solves always use `eta_fill_factor`'s
/// default, 3.0. Direct [`LuFactors`] users set both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorOpts {
    /// Pivot updates tolerated — and hot basis reuses across solves —
    /// before a hygiene refactorisation is forced.
    pub refactor_interval: u32,
    /// Refactorise when the update file's non-zeros exceed this multiple
    /// of the LU fill. The fill is `nnz(L) + nnz(U)` *including* both
    /// diagonals (`lu_nnz`, which therefore already counts the `m` unit
    /// diagonal entries of `L`): the trigger point is exactly
    /// `update_nnz > eta_fill_factor · lu_nnz`.
    pub eta_fill_factor: f64,
}

impl Default for FactorOpts {
    fn default() -> Self {
        FactorOpts {
            refactor_interval: 96,
            eta_fill_factor: 3.0,
        }
    }
}

/// Counters for the factorisation work behind one (or more) solves:
/// solve/kernel selections, visited non-zeros and update-file growth.
/// Harvested by the engine via [`LuFactors::take_stats`] and surfaced on
/// [`LpResult`](crate::simplex::LpResult) for the bench log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FactorStats {
    /// FTRAN solves performed.
    pub ftran_solves: u64,
    /// FTRAN solves served by the hyper-sparse (DFS reach) kernel.
    pub ftran_hyper: u64,
    /// Non-zeros visited across all FTRAN passes (reach nodes + scatter
    /// entries + update-file entries).
    pub ftran_visited: u64,
    /// BTRAN solves performed.
    pub btran_solves: u64,
    /// BTRAN solves served by the hyper-sparse (DFS reach) kernel.
    pub btran_hyper: u64,
    /// Non-zeros visited across all BTRAN passes.
    pub btran_visited: u64,
    /// Forrest–Tomlin pivot updates applied.
    pub updates: u64,
    /// Entries added to the update file: spike fill and row-transform
    /// multipliers of the updates, and bordered-growth multipliers.
    pub update_nnz: u64,
    /// Successful refactorisations performed.
    pub refactors: u64,
    /// Deterministic work ticks metered inside those refactorisations
    /// (elimination + triangular-extraction ops) — the slice of the LP
    /// engine's `work_ticks` that
    /// [`SpanKind::Refactor`](crate::trace::SpanKind::Refactor) spans
    /// report.
    pub refactor_ticks: u64,
    /// Peak of `update file size / refactor policy bound` observed at an
    /// update. Values slightly above 1.0 are normal (the policy is
    /// checked after the pivot that crosses it); sustained growth beyond
    /// that means the refactor policy is not being enforced.
    pub growth_peak: f64,
}

impl FactorStats {
    /// Accumulates `other` into `self` (sums counters, maxes peaks).
    pub fn merge(&mut self, other: &FactorStats) {
        self.ftran_solves += other.ftran_solves;
        self.ftran_hyper += other.ftran_hyper;
        self.ftran_visited += other.ftran_visited;
        self.btran_solves += other.btran_solves;
        self.btran_hyper += other.btran_hyper;
        self.btran_visited += other.btran_visited;
        self.updates += other.updates;
        self.update_nnz += other.update_nnz;
        self.refactors += other.refactors;
        self.refactor_ticks += other.refactor_ticks;
        self.growth_peak = self.growth_peak.max(other.growth_peak);
    }
}

/// Debug-build contract check for the `*_sparse` solve entry points:
/// `pattern` must cover every non-zero of `x`, or the reach kernels
/// silently drop values. The check is gated to the hyper path (the
/// scanning fall-through ignores the pattern entirely) and to small
/// systems — it sweeps the dense vector, which would drag the dev
/// profile's optimised numeric kernels on bench-sized instances.
#[inline]
fn debug_check_superset(x: &[f64], pattern: &[usize]) {
    #[cfg(debug_assertions)]
    if x.len() <= 512 {
        for (i, &v) in x.iter().enumerate() {
            debug_assert!(
                v == 0.0 || pattern.contains(&i),
                "sparse-solve pattern misses non-zero row {i}"
            );
        }
    }
    #[cfg(not(debug_assertions))]
    let _ = (x, pattern);
}

/// One Forrest–Tomlin row transform `R = I − e_t μᵀ`: applied between
/// the `L` and `U` solves (in slot space), chronologically in FTRAN and
/// transposed in reverse order in BTRAN.
#[derive(Debug, Clone)]
struct FtTransform {
    /// Slot whose `U` row was eliminated (the update's pivot slot).
    t: usize,
    /// `(slot, multiplier)` pairs over the trailing slots.
    entries: Vec<(usize, f64)>,
}

/// One bordered-growth row transform, recorded when the basis is grown in
/// place by appended constraint rows (cutting planes): with the new basis
/// `B' = [[B, 0], [N, I]]` (new logical slacks basic in the new rows), the
/// inverse factors as `B'⁻¹ = diag(B⁻¹, I) · T` with
/// `T = [[I, 0], [−N B⁻¹, I]]` — one transform per new row, whose
/// multipliers `μ = B⁻ᵀ n` (`n` = the new row over the current basic
/// columns) are computed once at growth time. `T` is applied *first* in
/// FTRAN (newest growth first) and its transpose *last* in BTRAN (oldest
/// growth first); everything downstream — L, the row transforms, U —
/// composes against it unchanged, so Forrest–Tomlin pivots keep
/// absorbing updates on the grown basis without a refactorisation from
/// scratch.
#[derive(Debug, Clone)]
struct Border {
    /// The appended row this transform targets.
    row: usize,
    /// `(row, multiplier)` pairs over rows that existed before the growth.
    entries: Vec<(usize, f64)>,
}

/// Which triangular dependency graph a hyper-sparse reach runs over.
#[derive(Clone, Copy)]
enum Phase {
    /// Forward solve `L y = b`: slot `k` feeds slots `pinv[row]` for the
    /// rows of `l_cols[k]`.
    LowerFwd,
    /// Backward solve `U z = y`: slot `k` feeds the earlier slots of
    /// `u_cols[k]`.
    UpperBwd,
    /// Forward solve `Uᵀ z = c`: slot `k` feeds the later slots of
    /// `u_rows[k]`.
    UpperTFwd,
    /// Backward solve `Lᵀ y = z`: slot `k` feeds the earlier slots of
    /// `l_rows[p[k]]`.
    LowerTBwd,
}

/// Sparse LU factorisation of a simplex basis with in-place
/// Forrest–Tomlin updates and hyper-sparse triangular solves. See the
/// [module docs](self) for the algorithm and the update calculus.
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    /// Pivot row (original row index) per elimination slot.
    p: Vec<usize>,
    /// Inverse of `p`: elimination slot of each original row.
    pinv: Vec<usize>,
    /// Basis position eliminated at each slot (column permutation `Q`).
    q: Vec<usize>,
    /// Inverse of `q`: elimination slot of each basis position.
    qinv: Vec<usize>,
    /// Slots in current pivotal order, indexed by pivotal position. After
    /// a factorisation this is the identity. A Forrest–Tomlin update
    /// moves its slot to the next free position at the end and leaves a
    /// [`HOLE`] at the old one, so positions only grow between
    /// refactorisations: `order` holds `m` slots among `m` + (updates
    /// and grown rows since the factorisation) positions, and the
    /// scanning kernels skip the holes.
    order: Vec<usize>,
    /// Inverse of `order`: pivotal position of each slot (never a hole).
    pos: Vec<usize>,
    /// Columns of unit-lower-triangular `L`: `(original_row, value)`
    /// pairs over rows not yet pivoted at that slot. Static between
    /// refactorisations.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Row-wise mirror of `L` for the transposed scatter solve:
    /// `l_rows[row]` holds `(slot, value)` for every `l_cols[slot]`
    /// entry at `row`.
    l_rows: Vec<Vec<(usize, f64)>>,
    /// Columns of `U` above the diagonal: `(slot, value)` pairs whose
    /// slots come earlier in pivotal order.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// Row-wise mirror of `U`: `u_rows[i]` holds `(slot, value)` for
    /// every `u_cols[slot]` entry at `i` (slots later in pivotal order).
    /// Kept in lockstep with `u_cols` through Forrest–Tomlin updates.
    u_rows: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U`, per slot.
    u_diag: Vec<f64>,
    /// Forrest–Tomlin row transforms since the last refactorisation,
    /// applied between the `L` and `U` solves.
    ft: Vec<FtTransform>,
    /// Bordered-growth transforms since the last refactorisation, in
    /// growth order; applied ahead of everything in FTRAN (newest first)
    /// and after everything in BTRAN (oldest first). See [`Border`].
    border: Vec<Border>,
    /// `nnz(L) + nnz(U)` including the diagonals, at last factorisation.
    lu_nnz: usize,
    /// Current `nnz(U)` including the diagonal (changes under FT).
    u_nnz: usize,
    /// `nnz(U)` at the last factorisation.
    u_nnz0: usize,
    /// Total entries across the update file (row-transform and border
    /// multipliers).
    file_nnz: usize,
    /// Pivot updates applied since the last factorisation.
    updates: u32,
    /// RHS density above which solves use the scanning kernels.
    hyper_cutoff: f64,
    /// Slot-indexed scratch for the permuted triangular solves; zeroed
    /// between calls.
    scratch: Vec<f64>,
    /// Second slot-indexed scratch (spike / elimination work vectors);
    /// zeroed between calls.
    aux: Vec<f64>,
    /// Scratch pattern buffers (row/position and slot space).
    pat: Vec<usize>,
    pat2: Vec<usize>,
    /// The reach of the current solve phase. From the DFS: postorder
    /// from `compute_reach`, then rewritten in the order its solve runs
    /// (ascending slot for the `L` phases, ascending pivotal position for
    /// the `U` phases) by `bitmap_sort`. From the swept `U` and `Lᵀ`
    /// phases (see `sweep_u`): in the order the sweep reached it,
    /// descending. Either way the same set.
    reach: Vec<usize>,
    /// DFS stack of `(slot, next child index)`.
    rstack: Vec<(usize, usize)>,
    /// Ordered bitmap over `0..m` and over the pivotal positions
    /// (`0..order.len()`), one bit per index, all-zero between calls:
    /// `bitmap_sort` orders reaches and tracked result patterns with it
    /// instead of a comparison sort.
    bits: Vec<u64>,
    /// Visit stamps for the DFS and pattern tracking.
    mark: Vec<u32>,
    stamp: u32,
    /// Whether the next hyper-sparse FTRAN finds its `U` reach by one
    /// sweep down the pivotal positions instead of a DFS: set when the
    /// previous one covered at least [`SWEEP_DENSITY_CUTOFF`] of them.
    /// Both ways charge the same ticks and compute the same bits, so
    /// this moves only wall time.
    sweep_u: bool,
    /// The same for BTRAN's `Lᵀ` reach, over the slots.
    sweep_lt: bool,
    /// When set, the hyper kernels record the result's (superset)
    /// pattern into `result_pat` — the `*_tracked` entry points.
    track: bool,
    /// Result pattern captured by the last tracked solve.
    result_pat: Vec<usize>,
    /// Deterministic work accrued since the last harvest.
    work: u64,
    /// Factorisation statistics since the last harvest.
    stats: FactorStats,
    /// Elimination scratch of [`factorize`](Self::factorize), kept across
    /// calls.
    ws: Workspace,
}

/// Elimination scratch of [`LuFactors::factorize`]. Every vector (and
/// every inner vector) keeps its allocation between factorisations and
/// is cleared, never reallocated, at the start of each one, so a
/// refactorisation allocates nothing once the workspace has grown to
/// size.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// Working columns of the active submatrix, `(row, value)` per basis
    /// position.
    wcols: Vec<Vec<(usize, f64)>>,
    /// Per row, a superset of the active columns with an entry there.
    rows_pat: Vec<Vec<usize>>,
    /// Live non-zero count per row of the active submatrix.
    row_count: Vec<usize>,
    /// Active columns bucketed by non-zero count.
    buckets: Vec<Vec<usize>>,
    /// `U` entries recorded row-wise at pivot time, by basis position.
    u_tmp: Vec<Vec<(usize, f64)>>,
    /// Dense work vector for one column update.
    x: Vec<f64>,
    /// Occupancy stamps of `x`.
    occ: Vec<u32>,
    /// Pattern of the column being updated.
    patk: Vec<usize>,
}

/// Sets `v` to `len` copies of `value`, keeping its allocation.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// Rewrites `v` as `emit(b)` for each distinct key `b = key(x)` of its
/// entries `x`, in ascending key order, through the ordered bitmap
/// `bits`: it sets one bit per entry, then walks the words between the
/// lowest and the highest key, so repeats collapse and no two keys are
/// ever compared. Keys must lie below `64 · bits.len()`; `bits` is
/// all-zero on entry and again on return.
fn bitmap_sort(
    bits: &mut [u64],
    v: &mut Vec<usize>,
    key: impl Fn(usize) -> usize,
    emit: impl Fn(usize) -> usize,
) {
    let (mut lo, mut hi) = (usize::MAX, 0);
    for &x in v.iter() {
        let b = key(x);
        bits[b / 64] |= 1 << (b % 64);
        lo = lo.min(b / 64);
        hi = hi.max(b / 64);
    }
    v.clear();
    // An empty `v` leaves `lo > hi`: the walk is empty.
    for w in lo..=hi {
        let mut word = std::mem::take(&mut bits[w]);
        while word != 0 {
            v.push(emit(w * 64 + word.trailing_zeros() as usize));
            word &= word - 1;
        }
    }
}

/// Whether a reach of `len` out of a phase's `range` indices predicts a
/// dense reach for the same phase of the next solve (see
/// [`SWEEP_DENSITY_CUTOFF`]).
fn dense_reach(len: usize, range: usize) -> bool {
    len as f64 >= SWEEP_DENSITY_CUTOFF * range as f64
}

/// Empties every inner vector of `v`, keeping their allocations, and
/// sizes `v` to `len` entries.
fn clear_nested<T>(v: &mut Vec<Vec<T>>, len: usize) {
    v.truncate(len);
    for inner in v.iter_mut() {
        inner.clear();
    }
    v.resize_with(len, Vec::new);
}

impl Default for LuFactors {
    /// The identity factorisation of an empty basis.
    fn default() -> Self {
        LuFactors::identity(0)
    }
}

impl LuFactors {
    /// An identity factorisation for an `m`-row basis (the all-slack
    /// basis `B = I`).
    #[must_use]
    pub fn identity(m: usize) -> Self {
        let mut lu = LuFactors {
            m: 0,
            p: Vec::new(),
            pinv: Vec::new(),
            q: Vec::new(),
            qinv: Vec::new(),
            order: Vec::new(),
            pos: Vec::new(),
            l_cols: Vec::new(),
            l_rows: Vec::new(),
            u_cols: Vec::new(),
            u_rows: Vec::new(),
            u_diag: Vec::new(),
            ft: Vec::new(),
            border: Vec::new(),
            lu_nnz: 0,
            u_nnz: 0,
            u_nnz0: 0,
            file_nnz: 0,
            updates: 0,
            hyper_cutoff: HYPER_DENSITY_CUTOFF,
            scratch: Vec::new(),
            aux: Vec::new(),
            pat: Vec::new(),
            pat2: Vec::new(),
            reach: Vec::new(),
            rstack: Vec::new(),
            bits: Vec::new(),
            mark: Vec::new(),
            stamp: 0,
            sweep_u: false,
            sweep_lt: false,
            track: false,
            result_pat: Vec::new(),
            work: 0,
            stats: FactorStats::default(),
            ws: Workspace::default(),
        };
        lu.reset(m);
        lu
    }

    /// Turns `self` into [`identity(m)`](Self::identity) in place: the
    /// options return to their defaults and undrained work and
    /// statistics are dropped, so the next [`take_work`](Self::take_work)
    /// yields the same `m` set-up ticks a new identity carries. Every
    /// allocation is kept, the elimination workspace included.
    pub(crate) fn reset(&mut self, m: usize) {
        self.m = m;
        self.hyper_cutoff = HYPER_DENSITY_CUTOFF;
        refill(&mut self.scratch, m, 0.0);
        refill(&mut self.aux, m, 0.0);
        self.pat.clear();
        self.pat2.clear();
        self.reach.clear();
        self.rstack.clear();
        refill(&mut self.bits, m.div_ceil(64), 0);
        refill(&mut self.mark, m, 0);
        self.stamp = 0;
        self.sweep_u = false;
        self.sweep_lt = false;
        self.track = false;
        self.result_pat.clear();
        self.work = 0;
        self.stats = FactorStats::default();
        self.reset_identity();
    }

    /// Resets to the identity basis without a factorisation pass.
    pub fn reset_identity(&mut self) {
        let m = self.m;
        for v in [
            &mut self.p,
            &mut self.pinv,
            &mut self.q,
            &mut self.qinv,
            &mut self.order,
            &mut self.pos,
        ] {
            v.clear();
            v.extend(0..m);
        }
        clear_nested(&mut self.l_cols, m);
        clear_nested(&mut self.l_rows, m);
        clear_nested(&mut self.u_cols, m);
        clear_nested(&mut self.u_rows, m);
        refill(&mut self.u_diag, m, 1.0);
        self.ft.clear();
        self.border.clear();
        self.lu_nnz = m;
        self.u_nnz = m;
        self.u_nnz0 = m;
        self.file_nnz = 0;
        self.updates = 0;
        self.work += m as u64;
    }

    /// Grows the factorisation in place by `borders.len()` appended
    /// constraint rows whose basic columns are the new logical slacks —
    /// the incremental-row (cutting plane) path. `borders[i]` holds the
    /// multipliers `μ_i = B⁻ᵀ n_i` of the new row `i` over the
    /// *pre-growth* rows (`n_i` = the appended row's coefficients on the
    /// current basic columns, by row position); the caller computes them
    /// with [`btran_sparse`](Self::btran_sparse) **before** calling this.
    ///
    /// The grown basis `B' = [[B, 0], [N, I]]` is represented exactly as
    /// the old factors extended by unit rows/columns plus one border
    /// transform per new row, so no refactorisation happens here; the
    /// border non-zeros count towards the update file, which means the
    /// [`needs_refactor`](Self::needs_refactor) policy eventually folds
    /// them into a fresh LU like any other accumulated update.
    pub fn grow(&mut self, borders: Vec<Vec<(usize, f64)>>) {
        let k = borders.len();
        let m0 = self.m;
        let m = m0 + k;
        self.m = m;
        for s in m0..m {
            // New slot `s` pivots the new row `s` at the new basis
            // position `s`, last in pivotal order, with a unit diagonal
            // and no off-diagonal fill — exactly the slack unit column.
            self.p.push(s);
            self.pinv.push(s);
            self.q.push(s);
            self.qinv.push(s);
            self.pos.push(self.order.len());
            self.order.push(s);
            self.l_cols.push(Vec::new());
            self.l_rows.push(Vec::new());
            self.u_cols.push(Vec::new());
            self.u_rows.push(Vec::new());
            self.u_diag.push(1.0);
        }
        self.scratch.resize(m, 0.0);
        self.aux.resize(m, 0.0);
        self.bits.resize(self.order.len().div_ceil(64), 0);
        self.mark.resize(m, 0);
        self.lu_nnz += k;
        self.u_nnz += k;
        self.u_nnz0 += k;
        let mut border_nnz = 0usize;
        for (i, entries) in borders.into_iter().enumerate() {
            debug_assert!(entries.iter().all(|&(j, _)| j < m0));
            border_nnz += entries.len();
            if !entries.is_empty() {
                self.border.push(Border {
                    row: m0 + i,
                    entries,
                });
            }
        }
        self.file_nnz += border_nnz;
        self.stats.update_nnz += border_nnz as u64;
        self.work += (border_nnz + k) as u64;
    }

    /// Applies the bordered-growth transforms to an FTRAN right-hand side
    /// (row space), newest growth first. When `pat` is `Some`, rows the
    /// border turned non-zero are pushed onto it so the hyper-sparse
    /// kernels keep a superset pattern.
    fn apply_border_ftran(&mut self, x: &mut [f64], track: bool) {
        if self.border.is_empty() {
            return;
        }
        let LuFactors {
            border,
            pat,
            work,
            stats,
            ..
        } = self;
        let mut visited = 0u64;
        for b in border.iter().rev() {
            let mut dot = 0.0;
            for &(j, mu) in &b.entries {
                dot += mu * x[j];
            }
            visited += b.entries.len() as u64;
            if dot != 0.0 {
                x[b.row] -= dot;
                if track {
                    pat.push(b.row);
                }
            }
        }
        *work += visited;
        stats.ftran_visited += visited;
    }

    /// Applies the transposed bordered-growth transforms to a BTRAN
    /// result (row space), oldest growth first.
    fn apply_border_btran(&mut self, x: &mut [f64]) {
        if self.border.is_empty() {
            return;
        }
        let mut visited = 0u64;
        let LuFactors {
            border,
            track,
            result_pat,
            ..
        } = self;
        for b in border.iter() {
            let v = x[b.row];
            if v == 0.0 {
                continue;
            }
            for &(j, mu) in &b.entries {
                x[j] -= mu * v;
                if *track {
                    result_pat.push(j);
                }
            }
            visited += b.entries.len() as u64;
        }
        self.work += visited;
        self.stats.btran_visited += visited;
    }

    /// Overrides the hyper-sparse density cutover: right-hand sides whose
    /// pattern exceeds `cutoff · m` non-zeros use the scanning kernels.
    /// `0.0` forces scanning everywhere, `1.0` forces the hyper-sparse
    /// kernels; both produce bit-identical results (the kernels execute
    /// the same scatter operations in the same pivot order), so this knob
    /// only moves work accounting, never answers.
    pub fn set_hyper_density_cutoff(&mut self, cutoff: f64) {
        self.hyper_cutoff = cutoff.clamp(0.0, 1.0);
    }

    /// Largest RHS pattern (in non-zeros) the hyper-sparse kernels accept.
    fn hyper_cap(&self) -> usize {
        (self.m as f64 * self.hyper_cutoff) as usize
    }

    /// Number of Forrest–Tomlin updates accumulated since the last
    /// factorisation.
    #[must_use]
    pub fn update_count(&self) -> usize {
        self.updates as usize
    }

    /// Non-zeros across the update file: row-transform and border
    /// multipliers plus any net `U` fill of the Forrest–Tomlin updates.
    /// This is the quantity the [`FactorOpts::eta_fill_factor`] policy
    /// bounds.
    #[must_use]
    pub fn update_nnz(&self) -> usize {
        self.file_nnz + self.u_nnz.saturating_sub(self.u_nnz0)
    }

    /// `nnz(L) + nnz(U)` of the last factorisation (diagonals included).
    #[must_use]
    pub fn lu_nnz(&self) -> usize {
        self.lu_nnz
    }

    /// Drains the deterministic work metered since the last call.
    pub fn take_work(&mut self) -> u64 {
        std::mem::take(&mut self.work)
    }

    /// Drains the factorisation statistics gathered since the last call.
    pub fn take_stats(&mut self) -> FactorStats {
        std::mem::take(&mut self.stats)
    }

    /// Factorises the basis whose column for row position `k` is
    /// `cols[k]`: structural CSC column `cols[k]` when `cols[k] <
    /// n_struct`, else the slack unit vector `e_{cols[k] − n_struct}`.
    /// Clears the update file. Returns `false` when the basis is singular
    /// (or hopelessly ill-conditioned); the factors are then unusable
    /// until the next successful call.
    ///
    /// The elimination scratch, like the factors' own row and column
    /// lists, persists across calls (and across
    /// [`reset_identity`](Self::reset_identity)) and is cleared rather
    /// than reallocated, so a refactorisation allocates nothing once the
    /// workspace has grown to size.
    pub fn factorize(&mut self, cols: &[usize], a: &CscMatrix, n_struct: usize) -> bool {
        let work_before = self.work;
        let ok = self.eliminate(cols, a, n_struct);
        // Attribute the metered elimination work to the refactorisation
        // bucket so traces can split solve vs refactor time.
        self.stats.refactor_ticks += self.work - work_before;
        ok
    }

    /// Epilogue of a successful [`eliminate`](Self::eliminate):
    /// permutation inverses, identity pivotal order and the row-wise
    /// mirrors; refreshes the fill counters and stats.
    fn factorize_finish(&mut self, mut ops: u64) {
        let m = self.m;
        self.qinv.clear();
        self.qinv.resize(m, 0);
        for (k, &pos) in self.q.iter().enumerate() {
            self.qinv[pos] = k;
        }
        self.order.clear();
        self.order.extend(0..m);
        self.pos.clear();
        self.pos.extend(0..m);
        clear_nested(&mut self.l_rows, m);
        for (k, col) in self.l_cols.iter().enumerate() {
            for &(row, val) in col {
                self.l_rows[row].push((k, val));
            }
        }
        clear_nested(&mut self.u_rows, m);
        for (k, col) in self.u_cols.iter().enumerate() {
            for &(i, val) in col {
                self.u_rows[i].push((k, val));
            }
        }
        let u_fill: usize = self.u_cols.iter().map(Vec::len).sum();
        self.u_nnz = m + u_fill;
        self.u_nnz0 = self.u_nnz;
        self.lu_nnz = m + u_fill + self.l_cols.iter().map(Vec::len).sum::<usize>();
        ops += self.lu_nnz as u64;
        self.work += ops;
        self.stats.refactors += 1;
    }

    /// Right-looking elimination under the live Markowitz ordering: the
    /// working matrix (column values + row patterns + active counts) is
    /// updated as pivots are taken, so every pivot choice sees the
    /// *current* active submatrix. Work is proportional to the non-zeros
    /// actually touched (entries, fill and the bounded candidate scans),
    /// not to `m²` — on the very sparse bases the simplex produces this
    /// is the difference between a refactorisation costing `O(nnz)` and
    /// one costing `O(m²)`.
    fn eliminate(&mut self, cols: &[usize], a: &CscMatrix, n_struct: usize) -> bool {
        let m = self.m;
        assert_eq!(cols.len(), m, "one basis column per row required");
        // Clear the update file and size the permutation and factor
        // arrays for a fresh LU. Pivoted columns are flagged through
        // `qinv` until the epilogue rebuilds it from `q`.
        self.ft.clear();
        self.border.clear();
        self.file_nnz = 0;
        self.updates = 0;
        self.p.resize(m, 0);
        self.q.resize(m, 0);
        self.pinv.clear();
        self.pinv.resize(m, usize::MAX);
        self.qinv.clear();
        self.qinv.resize(m, usize::MAX);
        clear_nested(&mut self.l_cols, m);
        clear_nested(&mut self.u_cols, m);
        refill(&mut self.u_diag, m, 0.0);
        if m == 0 {
            self.factorize_finish(0);
            return true;
        }

        // Working matrix: column-wise values, row-wise patterns, live
        // active-submatrix counts. `rows_pat[i]` is a superset of the
        // active columns with an entry at row `i` (stale only through
        // already-pivoted columns, which are skipped on sight); columns
        // hold no stale entries — eliminated rows are compacted out the
        // moment their pivot row is processed.
        let Workspace {
            wcols,
            rows_pat,
            row_count,
            buckets,
            u_tmp,
            x,
            occ,
            patk,
            ..
        } = &mut self.ws;
        clear_nested(wcols, m);
        clear_nested(rows_pat, m);
        refill(row_count, m, 0);
        let mut ops = a.nnz() as u64 + m as u64;
        for (pos, &c) in cols.iter().enumerate() {
            let col = &mut wcols[pos];
            if c < n_struct {
                let (ri, vv) = a.col(c);
                col.extend(ri.iter().zip(vv).map(|(&i, &v)| (i, v)));
            } else {
                col.push((c - n_struct, 1.0));
            }
            for &(i, _) in col.iter() {
                rows_pat[i].push(pos);
                row_count[i] += 1;
            }
        }
        // Column-count buckets; entries go stale when elimination moves
        // a count and are lazily rebucketed on examination.
        clear_nested(buckets, m + 1);
        for (pos, col) in wcols.iter().enumerate() {
            if col.is_empty() {
                self.work += ops;
                return false; // structurally singular (empty column)
            }
            buckets[col.len()].push(pos);
        }
        // Dense scratch for one column update at a time.
        refill(x, m, 0.0);
        refill(occ, m, 0);
        let mut occ_stamp = 0u32;
        // U entries recorded row-wise at pivot time (basis-position
        // column ids); mapped to slots in the epilogue once `qinv` of
        // every position is known.
        clear_nested(u_tmp, m);

        for step in 0..m {
            // --- Pivot selection: ascending active column count, best
            // Markowitz merit among threshold-eligible entries, bounded
            // candidate scan. ---
            let mut best_cost = u64::MAX;
            let mut best_col = usize::MAX;
            let mut best_row = usize::MAX;
            let mut examined = 0usize;
            'count: for count in 1..=m {
                if best_cost <= ((count - 1) * (count - 1)) as u64 {
                    break;
                }
                let mut idx = 0;
                while idx < buckets[count].len() {
                    let pos = buckets[count][idx];
                    if self.qinv[pos] != usize::MAX {
                        buckets[count].swap_remove(idx);
                        continue; // already pivoted
                    }
                    let cc = wcols[pos].len();
                    if cc != count {
                        buckets[count].swap_remove(idx);
                        buckets[cc].push(pos);
                        continue; // stale count: rebucket, re-examined later
                    }
                    idx += 1;
                    let col = &wcols[pos];
                    let mut max_abs = 0.0f64;
                    for &(_, v) in col {
                        let av = v.abs();
                        if av > max_abs {
                            max_abs = av;
                        }
                    }
                    ops += col.len() as u64;
                    if max_abs < PIVOT_TOL {
                        continue; // numerically nil column: unusable
                    }
                    let cutoff = max_abs * PIVOT_THRESHOLD;
                    let mut cand_row = usize::MAX;
                    let mut cand_cost = u64::MAX;
                    for &(i, v) in col {
                        if v.abs() >= cutoff {
                            let cost = ((count - 1) * (row_count[i] - 1)) as u64;
                            if cost < cand_cost {
                                cand_cost = cost;
                                cand_row = i;
                            }
                        }
                    }
                    ops += col.len() as u64;
                    examined += 1;
                    if cand_cost < best_cost {
                        best_cost = cand_cost;
                        best_col = pos;
                        best_row = cand_row;
                    }
                    if best_cost == 0
                        || (examined >= MARKOWITZ_CANDIDATES && best_col != usize::MAX)
                    {
                        break 'count;
                    }
                }
            }
            if best_col == usize::MAX {
                self.work += ops;
                return false; // every remaining column numerically nil
            }
            let (pcol, prow) = (best_col, best_row);

            // --- Eliminate pivot (prow, pcol) at slot `step`. The pivot
            // column leaves the working matrix; its entries below the
            // pivot become `L` column `step`. ---
            self.p[step] = prow;
            self.pinv[prow] = step;
            self.q[step] = pcol;
            self.qinv[pcol] = step;
            let pivot_col = &wcols[pcol];
            let mut diag = 0.0f64;
            for &(i, v) in pivot_col {
                if i == prow {
                    diag = v;
                }
            }
            self.u_diag[step] = diag;
            let inv = 1.0 / diag;
            let lcol = &mut self.l_cols[step];
            for &(i, v) in pivot_col {
                if i != prow {
                    lcol.push((i, v * inv));
                    row_count[i] -= 1; // entry leaves with the pivot column
                }
            }
            ops += pivot_col.len() as u64;
            wcols[pcol].clear();
            row_count[prow] = 0;
            // Schur-complement update: every active column with an entry
            // in the pivot row absorbs `−l · u` fill, sees its pivot-row
            // entry removed, and is rebucketed at its new count. (`lcol`
            // has no entry at `prow`, so the fill never extends the
            // pivot row's own pattern while it is walked.)
            for idx in 0..rows_pat[prow].len() {
                let k = rows_pat[prow][idx];
                if self.qinv[k] != usize::MAX {
                    continue; // stale: column already pivoted
                }
                let colk = &mut wcols[k];
                occ_stamp = occ_stamp.wrapping_add(1);
                if occ_stamp == 0 {
                    occ.fill(0);
                    occ_stamp = 1;
                }
                patk.clear();
                let mut ukval = 0.0f64;
                for &(i, v) in colk.iter() {
                    if i == prow {
                        ukval = v;
                    } else {
                        x[i] = v;
                        occ[i] = occ_stamp;
                        patk.push(i);
                    }
                }
                ops += colk.len() as u64;
                if ukval != 0.0 {
                    u_tmp[step].push((k, ukval));
                    for &(i, lv) in lcol.iter() {
                        if occ[i] == occ_stamp {
                            x[i] -= lv * ukval;
                        } else {
                            occ[i] = occ_stamp;
                            x[i] = -lv * ukval;
                            patk.push(i);
                            rows_pat[i].push(k);
                            row_count[i] += 1;
                        }
                    }
                    ops += lcol.len() as u64;
                }
                colk.clear();
                for &i in patk.iter() {
                    // Exact cancellations keep their (zero) entry: the
                    // row patterns and counts stay consistent without
                    // searching `rows_pat` for removals.
                    colk.push((i, x[i]));
                }
                ops += patk.len() as u64;
                buckets[colk.len().min(m)].push(k);
            }
            rows_pat[prow].clear();
        }

        // Map the recorded U rows into slot space now that every basis
        // position has its elimination slot.
        for (s, entries) in u_tmp.iter().enumerate() {
            for &(k, val) in entries {
                let t = self.qinv[k];
                debug_assert!(t > s, "U entry below the diagonal");
                self.u_cols[t].push((s, val));
            }
        }
        self.factorize_finish(ops);
        true
    }

    /// Computes the reach of the pattern in `self.pat2` (slot space) over
    /// the dependency graph of `phase`, into `self.reach` (unsorted
    /// postorder). Returns the number of edges examined, for metering:
    /// every adjacency entry of every reached slot, once. The swept `U`
    /// and `Lᵀ` phases of [`ftran_hyper`](Self::ftran_hyper) and
    /// [`btran_hyper`](Self::btran_hyper) charge the same count without
    /// calling this.
    fn compute_reach(&mut self, phase: Phase) -> u64 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
        let LuFactors {
            p,
            pinv,
            l_cols,
            l_rows,
            u_cols,
            u_rows,
            pat2,
            reach,
            rstack,
            mark,
            stamp,
            ..
        } = self;
        let stamp = *stamp;
        reach.clear();
        let mut edges = 0u64;
        for &s in pat2.iter() {
            if mark[s] == stamp {
                continue;
            }
            mark[s] = stamp;
            rstack.push((s, 0));
            while let Some(&mut (node, ref mut ci)) = rstack.last_mut() {
                // Find the next unvisited successor of `node`.
                let next = {
                    let adj: &[(usize, f64)] = match phase {
                        Phase::LowerFwd => &l_cols[node],
                        Phase::UpperBwd => &u_cols[node],
                        Phase::UpperTFwd => &u_rows[node],
                        Phase::LowerTBwd => &l_rows[p[node]],
                    };
                    let mut found = None;
                    while *ci < adj.len() {
                        let raw = adj[*ci].0;
                        *ci += 1;
                        edges += 1;
                        let child = match phase {
                            Phase::LowerFwd => pinv[raw],
                            _ => raw,
                        };
                        if mark[child] != stamp {
                            found = Some(child);
                            break;
                        }
                    }
                    found
                };
                match next {
                    Some(c) => {
                        mark[c] = stamp;
                        rstack.push((c, 0));
                    }
                    None => {
                        rstack.pop();
                        reach.push(node);
                    }
                }
            }
        }
        edges
    }

    /// FTRAN: overwrites `x` (indexed by constraint row) with `B⁻¹ x`
    /// (indexed by basis position). Scans `x` for its non-zero pattern;
    /// prefer [`ftran_sparse_tracked`](Self::ftran_sparse_tracked) when
    /// the caller knows the pattern.
    pub fn ftran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        self.apply_border_ftran(x, false);
        let cap = self.hyper_cap();
        self.pat.clear();
        let mut hyper = true;
        for (i, &v) in x.iter().enumerate() {
            if v != 0.0 {
                if self.pat.len() >= cap {
                    hyper = false;
                    break;
                }
                self.pat.push(i);
            }
        }
        if hyper {
            self.ftran_hyper(x);
        } else {
            self.ftran_scan(x);
        }
    }

    /// FTRAN with a caller-supplied non-zero pattern: `pattern` must be a
    /// superset of the non-zero row indices of `x` (duplicates allowed).
    /// Skips the `O(m)` pattern scan of [`ftran`](Self::ftran) and
    /// captures the **result's** non-zero pattern (basis positions, a
    /// superset, ascending and duplicate-free) into `result` — the
    /// solve-pattern-threading primitive: the caller seeds the next
    /// dependent solve's DFS from it instead of scanning the dense
    /// vector. Returns `false` when the solve ran on the scanning
    /// kernel (dense RHS), in which case `result` is left empty and the
    /// result must be treated as dense.
    pub fn ftran_sparse_tracked(
        &mut self,
        x: &mut [f64],
        pattern: &[usize],
        result: &mut Vec<usize>,
    ) -> bool {
        debug_assert_eq!(x.len(), self.m);
        result.clear();
        self.pat.clear();
        self.pat.extend_from_slice(pattern);
        if !self.border.is_empty() {
            self.apply_border_ftran(x, true);
        }
        if self.pat.len() > self.hyper_cap() {
            self.ftran_scan(x);
            return false;
        }
        debug_check_superset(x, &self.pat);
        self.track = true;
        self.result_pat.clear();
        self.ftran_hyper(x);
        self.track = false;
        std::mem::swap(result, &mut self.result_pat);
        // The reach comes out in pivotal order; the bitmap walk puts the
        // pattern in ascending position order, each position once.
        bitmap_sort(&mut self.bits, result, |i| i, |i| i);
        true
    }

    /// `x ← e_rᵀ B⁻¹` with the result's non-zero pattern (constraint
    /// rows, an ascending duplicate-free superset) captured into `result`;
    /// `x` must be all-zero on entry (it is overwritten in place).
    /// Returns `false` when the solve cut over to the scanning kernel
    /// (then `result` is empty and the result must be treated as dense).
    pub fn btran_unit_tracked(&mut self, r: usize, x: &mut [f64], result: &mut Vec<usize>) -> bool {
        debug_assert_eq!(x.len(), self.m);
        debug_assert!(x.iter().all(|&v| v == 0.0), "x must be all-zero");
        result.clear();
        x[r] = 1.0;
        if self.hyper_cap() < 1 {
            self.btran_scan(x);
            self.apply_border_btran(x);
            return false;
        }
        self.pat.clear();
        self.pat.push(r);
        self.track = true;
        self.result_pat.clear();
        self.btran_hyper(x);
        self.apply_border_btran(x);
        self.track = false;
        std::mem::swap(result, &mut self.result_pat);
        // Border targets can repeat reach positions, and consumers apply
        // pattern-indexed updates exactly once per position: the bitmap
        // walk canonicalises the pattern, ascending, each position once.
        bitmap_sort(&mut self.bits, result, |i| i, |i| i);
        true
    }

    /// Scanning FTRAN kernel: sweeps every elimination slot, skipping
    /// zero multipliers.
    fn ftran_scan(&mut self, x: &mut [f64]) {
        let m = self.m;
        let mut ops = 0u64;
        let mut visited = 0u64;
        let LuFactors {
            p,
            q,
            order,
            l_cols,
            u_cols,
            u_diag,
            ft,
            scratch: z,
            ..
        } = self;
        // Forward solve L y = x, in place in elimination order.
        for k in 0..m {
            let t = x[p[k]];
            if t == 0.0 {
                continue;
            }
            for &(row, val) in &l_cols[k] {
                x[row] -= val * t;
            }
            visited += l_cols[k].len() as u64;
        }
        // Gather into slot space.
        for k in 0..m {
            z[k] = x[p[k]];
            x[p[k]] = 0.0;
        }
        // Forrest–Tomlin row transforms, chronologically.
        for tr in ft.iter() {
            let mut dot = 0.0;
            for &(c, mu) in &tr.entries {
                dot += mu * z[c];
            }
            if dot != 0.0 {
                z[tr.t] -= dot;
            }
            visited += tr.entries.len() as u64;
        }
        // Backward solve U z = y in pivotal order.
        for &k in order.iter().rev() {
            if k == HOLE {
                continue;
            }
            let zk = z[k];
            if zk == 0.0 {
                continue;
            }
            let zk = zk / u_diag[k];
            z[k] = zk;
            for &(i, val) in &u_cols[k] {
                z[i] -= val * zk;
            }
            visited += u_cols[k].len() as u64;
        }
        // Undo the column permutation into basis-position space, leaving
        // the scratch zeroed for the hyper-sparse kernels.
        for k in 0..m {
            x[q[k]] = z[k];
            z[k] = 0.0;
        }
        ops += 3 * m as u64;
        self.work += ops + visited;
        self.stats.ftran_solves += 1;
        self.stats.ftran_visited += visited;
    }

    /// Hyper-sparse FTRAN kernel over the reach of `self.pat` (row
    /// indices). Executes the same scatter operations as the scanning
    /// kernel, in the same pivot order, visiting only reached slots.
    fn ftran_hyper(&mut self, x: &mut [f64]) {
        // Pattern rows → starting slots of the L reach.
        let LuFactors {
            pat, pat2, pinv, ..
        } = self;
        pat2.clear();
        for &row in pat.iter() {
            pat2.push(pinv[row]);
        }
        let mut edges = self.compute_reach(Phase::LowerFwd);
        bitmap_sort(&mut self.bits, &mut self.reach, |k| k, |k| k);
        let mut visited = 0u64;
        {
            let LuFactors {
                p,
                l_cols,
                reach,
                scratch: z,
                pat2,
                mark,
                stamp,
                ft,
                ..
            } = self;
            // Forward solve L y = x over the reach, ascending slots.
            for &k in reach.iter() {
                let t = x[p[k]];
                if t == 0.0 {
                    continue;
                }
                for &(row, val) in &l_cols[k] {
                    x[row] -= val * t;
                }
                visited += l_cols[k].len() as u64;
            }
            // Gather the (superset) result pattern into slot space; mark
            // the non-zero slots as the seed of the U reach.
            *stamp = stamp.wrapping_add(1);
            if *stamp == 0 {
                mark.fill(0);
                *stamp = 1;
            }
            pat2.clear();
            for &k in reach.iter() {
                let v = x[p[k]];
                x[p[k]] = 0.0;
                if v != 0.0 {
                    z[k] = v;
                    mark[k] = *stamp;
                    pat2.push(k);
                }
            }
            // Forrest–Tomlin row transforms, chronologically; targets may
            // extend the pattern.
            for tr in ft.iter() {
                let mut dot = 0.0;
                for &(c, mu) in &tr.entries {
                    dot += mu * z[c];
                }
                if dot != 0.0 {
                    z[tr.t] -= dot;
                    if mark[tr.t] != *stamp {
                        mark[tr.t] = *stamp;
                        pat2.push(tr.t);
                    }
                }
                visited += tr.entries.len() as u64;
            }
        }
        // Backward solve U z = y over the reach, descending pivotal order.
        let sweep = self.sweep_u;
        if !sweep {
            edges += self.compute_reach(Phase::UpperBwd);
        }
        let LuFactors {
            q,
            order,
            pos,
            u_cols,
            u_diag,
            reach,
            bits,
            pat2,
            scratch: z,
            mark,
            stamp,
            track,
            result_pat,
            ..
        } = self;
        if sweep {
            // One sweep down the pivotal positions from the highest seed
            // (the slots marked above): a slot is reached when seeded or
            // marked by a reached slot at a higher position, and each
            // reached slot marks its `U` column, so the sweep finds the
            // DFS's reach, edges and scatter order.
            reach.clear();
            let top = pat2.iter().map(|&k| pos[k] + 1).max().unwrap_or(0);
            for &k in order[..top].iter().rev() {
                if k == HOLE || mark[k] != *stamp {
                    continue;
                }
                reach.push(k);
                let col = &u_cols[k];
                edges += col.len() as u64;
                let zk = z[k];
                if zk == 0.0 {
                    for &(i, _) in col {
                        mark[i] = *stamp;
                    }
                    continue;
                }
                let zk = zk / u_diag[k];
                z[k] = zk;
                for &(i, val) in col {
                    z[i] -= val * zk;
                    mark[i] = *stamp;
                }
                visited += col.len() as u64;
            }
        } else {
            bitmap_sort(bits, reach, |k| pos[k], |j| order[j]);
            for &k in reach.iter().rev() {
                let zk = z[k];
                if zk == 0.0 {
                    continue;
                }
                let zk = zk / u_diag[k];
                z[k] = zk;
                for &(i, val) in &u_cols[k] {
                    z[i] -= val * zk;
                }
                visited += u_cols[k].len() as u64;
            }
        }
        self.sweep_u = dense_reach(reach.len(), order.len());
        // Scatter into basis-position space and re-zero the scratch;
        // the reach is the tracked result pattern.
        for &k in reach.iter() {
            x[q[k]] = z[k];
            z[k] = 0.0;
            if *track {
                result_pat.push(q[k]);
            }
        }
        self.work += visited + edges + self.reach.len() as u64;
        self.stats.ftran_solves += 1;
        self.stats.ftran_hyper += 1;
        self.stats.ftran_visited += visited + edges;
    }

    /// BTRAN: overwrites `x` (indexed by basis position) with `B⁻ᵀ x`
    /// (indexed by constraint row). Scans `x` for its non-zero pattern;
    /// prefer [`btran_sparse`](Self::btran_sparse) when the caller knows
    /// the pattern.
    pub fn btran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        let cap = self.hyper_cap();
        self.pat.clear();
        let mut hyper = true;
        for (i, &v) in x.iter().enumerate() {
            if v != 0.0 {
                if self.pat.len() >= cap {
                    hyper = false;
                    break;
                }
                self.pat.push(i);
            }
        }
        if hyper {
            self.btran_hyper(x);
        } else {
            self.btran_scan(x);
        }
        self.apply_border_btran(x);
    }

    /// BTRAN with a caller-supplied non-zero pattern: `pattern` must be a
    /// superset of the non-zero basis positions of `x`.
    pub fn btran_sparse(&mut self, x: &mut [f64], pattern: &[usize]) {
        debug_assert_eq!(x.len(), self.m);
        if pattern.len() <= self.hyper_cap() {
            debug_check_superset(x, pattern);
            self.pat.clear();
            self.pat.extend_from_slice(pattern);
            self.btran_hyper(x);
        } else {
            self.btran_scan(x);
        }
        self.apply_border_btran(x);
    }

    /// Scanning BTRAN kernel: sweeps every slot in scatter form, skipping
    /// zeros.
    fn btran_scan(&mut self, x: &mut [f64]) {
        let m = self.m;
        let mut visited = 0u64;
        let LuFactors {
            p,
            q,
            order,
            l_rows,
            u_rows,
            u_diag,
            ft,
            scratch: z,
            ..
        } = self;
        // Gather into slot space.
        for k in 0..m {
            z[k] = x[q[k]];
            x[q[k]] = 0.0;
        }
        // Forward solve Uᵀ z = c in pivotal order, scatter form.
        for &k in order.iter() {
            if k == HOLE {
                continue;
            }
            let v = z[k];
            if v == 0.0 {
                continue;
            }
            let zk = v / u_diag[k];
            z[k] = zk;
            for &(i, val) in &u_rows[k] {
                z[i] -= val * zk;
            }
            visited += u_rows[k].len() as u64;
        }
        // Transposed Forrest–Tomlin row transforms, reverse order.
        for tr in ft.iter().rev() {
            let zt = z[tr.t];
            if zt == 0.0 {
                continue;
            }
            for &(c, mu) in &tr.entries {
                z[c] -= mu * zt;
            }
            visited += tr.entries.len() as u64;
        }
        // Backward solve Lᵀ y = z in scatter form; every original row is
        // written exactly once and the scratch is left zeroed.
        for k in (0..m).rev() {
            let v = z[k];
            z[k] = 0.0;
            x[p[k]] = v;
            if v == 0.0 {
                continue;
            }
            for &(j, val) in &l_rows[p[k]] {
                z[j] -= val * v;
            }
            visited += l_rows[p[k]].len() as u64;
        }
        self.work += visited + 3 * m as u64;
        self.stats.btran_solves += 1;
        self.stats.btran_visited += visited;
    }

    /// Hyper-sparse BTRAN kernel over the reach of `self.pat` (basis
    /// positions). Same scatter operations as the scanning kernel, same
    /// pivot order, only reached slots visited.
    fn btran_hyper(&mut self, x: &mut [f64]) {
        let mut visited = 0u64;
        {
            // Pattern positions → starting slots (deduped via marks).
            let LuFactors {
                pat,
                pat2,
                qinv,
                q,
                scratch: z,
                mark,
                stamp,
                ..
            } = self;
            *stamp = stamp.wrapping_add(1);
            if *stamp == 0 {
                mark.fill(0);
                *stamp = 1;
            }
            pat2.clear();
            for &posn in pat.iter() {
                let k = qinv[posn];
                if mark[k] != *stamp {
                    mark[k] = *stamp;
                    pat2.push(k);
                    z[k] = x[q[k]];
                    x[q[k]] = 0.0;
                }
            }
        }
        let mut edges = self.compute_reach(Phase::UpperTFwd);
        {
            let LuFactors {
                order,
                pos,
                u_rows,
                u_diag,
                ft,
                reach,
                bits,
                pat2,
                scratch: z,
                mark,
                stamp,
                ..
            } = self;
            bitmap_sort(bits, reach, |k| pos[k], |j| order[j]);
            // Forward solve Uᵀ z = c over the reach, ascending pivotal
            // order, scatter form.
            for &k in reach.iter() {
                let v = z[k];
                if v == 0.0 {
                    continue;
                }
                let zk = v / u_diag[k];
                z[k] = zk;
                for &(i, val) in &u_rows[k] {
                    z[i] -= val * zk;
                }
                visited += u_rows[k].len() as u64;
            }
            // Seed the Lᵀ reach with every slot the Uᵀ phase may have
            // touched, then the transposed row transforms (which may
            // extend it further).
            *stamp = stamp.wrapping_add(1);
            if *stamp == 0 {
                mark.fill(0);
                *stamp = 1;
            }
            pat2.clear();
            for &k in reach.iter() {
                mark[k] = *stamp;
                pat2.push(k);
            }
            for tr in ft.iter().rev() {
                let zt = z[tr.t];
                if zt == 0.0 {
                    continue;
                }
                for &(c, mu) in &tr.entries {
                    z[c] -= mu * zt;
                    if mark[c] != *stamp {
                        mark[c] = *stamp;
                        pat2.push(c);
                    }
                }
                visited += tr.entries.len() as u64;
            }
        }
        let sweep = self.sweep_lt;
        if !sweep {
            edges += self.compute_reach(Phase::LowerTBwd);
        }
        let LuFactors {
            p,
            l_rows,
            reach,
            bits,
            pat2,
            scratch: z,
            mark,
            stamp,
            track,
            result_pat,
            m,
            ..
        } = self;
        // Backward solve Lᵀ y = z over the reach, descending slots; the
        // scratch is re-zeroed as each slot is consumed. The reach is
        // the tracked result pattern (constraint rows).
        if sweep {
            // One sweep down the slots from the highest seed (the slots
            // marked above), as in `ftran_hyper`'s `U` phase: each
            // reached slot marks its `Lᵀ` row.
            reach.clear();
            let top = pat2.iter().map(|&k| k + 1).max().unwrap_or(0);
            for k in (0..top).rev() {
                if mark[k] != *stamp {
                    continue;
                }
                reach.push(k);
                let v = z[k];
                z[k] = 0.0;
                x[p[k]] = v;
                if *track {
                    result_pat.push(p[k]);
                }
                let row = &l_rows[p[k]];
                edges += row.len() as u64;
                if v == 0.0 {
                    for &(j, _) in row {
                        mark[j] = *stamp;
                    }
                    continue;
                }
                for &(j, val) in row {
                    z[j] -= val * v;
                    mark[j] = *stamp;
                }
                visited += row.len() as u64;
            }
        } else {
            bitmap_sort(bits, reach, |k| k, |k| k);
            for &k in reach.iter().rev() {
                let v = z[k];
                z[k] = 0.0;
                x[p[k]] = v;
                if *track {
                    result_pat.push(p[k]);
                }
                if v == 0.0 {
                    continue;
                }
                for &(j, val) in &l_rows[p[k]] {
                    z[j] -= val * v;
                }
                visited += l_rows[p[k]].len() as u64;
            }
        }
        self.sweep_lt = dense_reach(reach.len(), *m);
        self.work += visited + edges + self.reach.len() as u64;
        self.stats.btran_solves += 1;
        self.stats.btran_hyper += 1;
        self.stats.btran_visited += visited + edges;
    }

    /// Records a pivot: the basic column at position `r` is replaced by a
    /// column whose FTRANed form is `w` (so `w[r]` is the pivot element).
    ///
    /// The stored `U` is modified in place (a Forrest–Tomlin update);
    /// returns `false` when the updated diagonal would be numerically
    /// degenerate — the caller must then refactorise from the (already
    /// updated) basis columns instead.
    /// Scans all of `w`; prefer [`update_sparse`](Self::update_sparse)
    /// when the FTRAN that produced `w` returned its pattern.
    pub fn update(&mut self, r: usize, w: &[f64], opts: &FactorOpts) -> bool {
        self.update_with(r, w, None, opts)
    }

    /// [`update`](Self::update) with `w`'s non-zero pattern: `pattern`
    /// must be a superset of the non-zero basis positions of `w`
    /// (duplicates allowed), such as the result pattern of
    /// [`ftran_sparse_tracked`](Self::ftran_sparse_tracked). Within the
    /// hyper-sparse density cutover the Forrest–Tomlin update then walks
    /// patterns instead of sweeping all `m` slots; the arithmetic, the
    /// stored factors and the charged ticks are identical to
    /// [`update`](Self::update).
    pub fn update_sparse(
        &mut self,
        r: usize,
        w: &[f64],
        pattern: &[usize],
        opts: &FactorOpts,
    ) -> bool {
        debug_check_superset(w, pattern);
        self.update_with(r, w, Some(pattern), opts)
    }

    fn update_with(
        &mut self,
        r: usize,
        w: &[f64],
        pattern: Option<&[usize]>,
        opts: &FactorOpts,
    ) -> bool {
        debug_assert_eq!(w.len(), self.m);
        debug_assert!(w[r] != 0.0, "pivot element must be non-zero");
        let ok = self.update_forrest_tomlin(r, w, pattern);
        if ok {
            self.updates += 1;
            self.stats.updates += 1;
            // Record how close the update file came to the refactor
            // policy bound; peaks past ~1.0 beyond one pivot's overshoot
            // mean the policy is not being enforced.
            let bound = opts.eta_fill_factor * self.lu_nnz as f64;
            if bound > 0.0 {
                let ratio = self.update_nnz() as f64 / bound;
                if ratio > self.stats.growth_peak {
                    self.stats.growth_peak = ratio;
                }
            }
        }
        ok
    }

    /// Forrest–Tomlin update: replace the `U` column of the leaving
    /// slot with the spike of the entering column, move the slot to the
    /// end of the pivotal order, and eliminate the out-of-place `U` row
    /// with a recorded row transform.
    ///
    /// The moved slot takes the next free pivotal position, in `O(1)`.
    /// When `pattern` (the tracked pattern of `w`) is within the
    /// hyper-sparse density cutover, the rest costs
    /// `O(nnz(w) + reach + fill)`: the spike walks the pattern in
    /// ascending slot order, and the μ elimination visits only the reach
    /// of row `t`'s pattern over `Uᵀ`. Otherwise `w` is dense enough that
    /// the sweeps win: the spike scans all `m` slots and μ every trailing
    /// pivotal position. Both paths do the same floating-point work in the
    /// same order, and only that work is charged: the bitmap walks, the
    /// DFS edges and the sweeps' zero tests are bookkeeping.
    ///
    /// Returns `false` (leaving the factors untouched) when the new
    /// diagonal is numerically degenerate.
    fn update_forrest_tomlin(&mut self, r: usize, w: &[f64], pattern: Option<&[usize]>) -> bool {
        let pattern = pattern.filter(|p| p.len() <= self.hyper_cap());
        let t = self.qinv[r];
        let mut ops = 0u64;

        // --- Row elimination multipliers: solve Ūᵀ μ = u_tᵀ over the
        // trailing principal submatrix (slots after `t` in pivotal
        // order), forward in pivotal order, scatter form. Only the reach
        // of u_t's pattern over `Uᵀ` can turn non-zero. ---
        {
            // Scatter row t of U into scratch (slot space); its slots
            // seed the reach.
            let LuFactors {
                u_rows,
                scratch: z,
                pat2,
                ..
            } = self;
            pat2.clear();
            for &(k, val) in &u_rows[t] {
                z[k] = val;
                pat2.push(k);
            }
            ops += u_rows[t].len() as u64;
        }
        if pattern.is_some() {
            self.compute_reach(Phase::UpperTFwd);
        }
        let mut mu: Vec<(usize, f64)> = Vec::new();
        {
            let LuFactors {
                order,
                pos,
                u_rows,
                u_diag,
                reach,
                bits,
                scratch: z,
                ..
            } = self;
            // The slots to eliminate in ascending pivotal position: the
            // reach, or (with `reach` left empty) every trailing slot.
            let trailing = if pattern.is_some() {
                bitmap_sort(bits, reach, |k| pos[k], |j| order[j]);
                &order[order.len()..]
            } else {
                reach.clear();
                &order[pos[t] + 1..]
            };
            for &c in reach.iter().chain(trailing.iter().filter(|&&c| c != HOLE)) {
                let v = z[c];
                if v == 0.0 {
                    continue;
                }
                z[c] = 0.0;
                let mc = v / u_diag[c];
                mu.push((c, mc));
                for &(k, val) in &u_rows[c] {
                    z[k] -= val * mc;
                }
                ops += u_rows[c].len() as u64;
            }
        }

        // --- Spike v = L̃⁻¹ a_q = U ẑ, where ẑ is `w` mapped to slot
        // space (w = B⁻¹ a_q = U⁻¹ L̃⁻¹ a_q). Computed as a sparse
        // combination of U's columns, in ascending slot order, so the
        // engine need not save the FTRAN intermediate. Scratch `aux`
        // holds the spike, `pat2` its pattern. ---
        {
            let LuFactors {
                q,
                qinv,
                u_cols,
                u_diag,
                aux,
                pat,
                pat2,
                bits,
                mark,
                stamp,
                m,
                ..
            } = self;
            // The slots of `w`'s non-zeros in ascending order: the
            // pattern's, or (with `pat` left empty) every slot below `all`.
            pat.clear();
            let all = match pattern {
                Some(wpat) => {
                    pat.extend(wpat.iter().map(|&i| qinv[i]));
                    bitmap_sort(bits, pat, |k| k, |k| k);
                    0
                }
                None => *m,
            };
            *stamp = stamp.wrapping_add(1);
            if *stamp == 0 {
                mark.fill(0);
                *stamp = 1;
            }
            pat2.clear();
            let mut mark_spike = |i: usize, pat2: &mut Vec<usize>| {
                if mark[i] != *stamp {
                    mark[i] = *stamp;
                    pat2.push(i);
                }
            };
            for k in pat.iter().copied().chain(0..all) {
                let zv = w[q[k]];
                if zv == 0.0 {
                    continue;
                }
                mark_spike(k, pat2);
                aux[k] += u_diag[k] * zv;
                for &(i, val) in &u_cols[k] {
                    mark_spike(i, pat2);
                    aux[i] += val * zv;
                }
                ops += u_cols[k].len() as u64 + 1;
            }
        }

        // --- New diagonal d = v[t] − μᵀ v; reject degenerate pivots
        // before any structural mutation so a failed update leaves the
        // factors intact for the caller's refactorisation. ---
        let mut d = self.aux[t];
        let mut spike_max = 0.0f64;
        for &k in &self.pat2 {
            let a = self.aux[k].abs();
            if a > spike_max {
                spike_max = a;
            }
        }
        for &(c, mc) in &mu {
            d -= mc * self.aux[c];
        }
        ops += mu.len() as u64;
        if d.abs() < PIVOT_TOL * (1.0 + spike_max) {
            // Clean the scratches and bail; `aux` holds the spike.
            for &k in &self.pat2 {
                self.aux[k] = 0.0;
            }
            self.work += ops;
            return false;
        }

        // --- Commit. Remove the old column t from U (and its row-wise
        // mirror)... ---
        let old_col = std::mem::take(&mut self.u_cols[t]);
        for &(i, _) in &old_col {
            let rowlist = &mut self.u_rows[i];
            if let Some(at) = rowlist.iter().position(|&(k, _)| k == t) {
                rowlist.swap_remove(at);
            }
            ops += rowlist.len() as u64;
        }
        self.u_nnz -= old_col.len();
        // ...remove the eliminated row t from U's columns... ---
        let old_row = std::mem::take(&mut self.u_rows[t]);
        for &(k, _) in &old_row {
            let collist = &mut self.u_cols[k];
            if let Some(at) = collist.iter().position(|&(i, _)| i == t) {
                collist.swap_remove(at);
            }
            ops += collist.len() as u64;
        }
        self.u_nnz -= old_row.len();
        // ...insert the spike as the new column t (all other slots now
        // precede t in pivotal order, so every entry is above the new
        // diagonal)... ---
        let mut spike_fill = 0usize;
        for idx in 0..self.pat2.len() {
            let i = self.pat2[idx];
            let v = self.aux[i];
            self.aux[i] = 0.0;
            if i == t || v == 0.0 {
                continue;
            }
            self.u_cols[t].push((i, v));
            self.u_rows[i].push((t, v));
            spike_fill += 1;
        }
        self.u_diag[t] = d;
        self.u_nnz += spike_fill;
        ops += spike_fill as u64;
        // ...move slot t to the next free pivotal position, leaving a
        // hole at its old one, and widen the bitmap over positions... ---
        let pos_t = self.pos[t];
        self.order[pos_t] = HOLE;
        self.pos[t] = self.order.len();
        self.order.push(t);
        if self.bits.len() * 64 < self.order.len() {
            self.bits.push(0);
        }
        // ...and record the row transform for the solves. ---
        self.file_nnz += mu.len();
        self.stats.update_nnz += mu.len() as u64 + spike_fill as u64;
        if !mu.is_empty() {
            self.ft.push(FtTransform { t, entries: mu });
        }
        self.work += ops;
        true
    }

    /// Refactorisation trigger: a long update file costs every solve, a
    /// fat one costs memory and accuracy; either pays for a fresh LU.
    ///
    /// The fill trigger is `update_nnz > eta_fill_factor · lu_nnz`, where
    /// `lu_nnz = nnz(L) + nnz(U)` *including both diagonals* — it already
    /// counts the `m` unit-diagonal entries of `L`, so no separate `+ m`
    /// term belongs in the bound (an earlier version double-counted it,
    /// firing refactorisations later than documented).
    #[must_use]
    pub fn needs_refactor(&self, opts: &FactorOpts) -> bool {
        self.updates as usize >= opts.refactor_interval as usize
            || self.update_nnz() as f64 > opts.eta_fill_factor * self.lu_nnz as f64
    }
}

/// Explicit dense `m × m` basis inverse — the first engine's
/// representation, kept as the reference the factorisation property
/// tests check [`LuFactors`] against.
#[derive(Debug, Clone)]
pub struct DenseInverse {
    m: usize,
    /// Row-major `m × m` basis inverse: `binv[i·m + k] = (B⁻¹)[i, k]`
    /// maps constraint row `k` to basis position `i`.
    binv: Vec<f64>,
    scratch: Vec<f64>,
}

impl DenseInverse {
    /// The identity inverse for an `m`-row basis.
    #[must_use]
    pub fn identity(m: usize) -> Self {
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }
        DenseInverse {
            m,
            binv,
            scratch: vec![0.0; m],
        }
    }

    /// Gauss–Jordan inversion of the basis matrix with partial pivoting;
    /// the column convention matches [`LuFactors::factorize`]. Returns
    /// `false` on a singular basis.
    pub fn factorize(&mut self, cols: &[usize], a: &CscMatrix, n_struct: usize) -> bool {
        let m = self.m;
        assert_eq!(cols.len(), m, "one basis column per row required");
        let mut b = vec![0.0f64; m * m];
        for (r, &c) in cols.iter().enumerate() {
            if c < n_struct {
                let (rows, vals) = a.col(c);
                for (&i, &v) in rows.iter().zip(vals) {
                    b[i * m + r] = v;
                }
            } else {
                b[(c - n_struct) * m + r] = 1.0;
            }
        }
        self.binv.fill(0.0);
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
        }
        for k in 0..m {
            let mut p = k;
            let mut best = b[k * m + k].abs();
            for i in k + 1..m {
                let v = b[i * m + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < PIVOT_TOL {
                return false;
            }
            if p != k {
                for j in 0..m {
                    b.swap(k * m + j, p * m + j);
                    self.binv.swap(k * m + j, p * m + j);
                }
            }
            let inv = 1.0 / b[k * m + k];
            for j in 0..m {
                b[k * m + j] *= inv;
                self.binv[k * m + j] *= inv;
            }
            for i in 0..m {
                if i == k {
                    continue;
                }
                let f = b[i * m + k];
                if f != 0.0 {
                    for j in 0..m {
                        let bv = b[k * m + j];
                        let nv = self.binv[k * m + j];
                        b[i * m + j] -= f * bv;
                        self.binv[i * m + j] -= f * nv;
                    }
                }
            }
        }
        true
    }

    /// FTRAN: overwrites `x` (row-indexed) with `B⁻¹ x`
    /// (position-indexed); dense `O(m²)`.
    pub fn ftran(&mut self, x: &mut [f64]) {
        let m = self.m;
        for i in 0..m {
            let row = &self.binv[i * m..(i + 1) * m];
            self.scratch[i] = row.iter().zip(x.iter()).map(|(&v, &r)| v * r).sum();
        }
        x.copy_from_slice(&self.scratch);
    }

    /// BTRAN: overwrites `x` (position-indexed) with `B⁻ᵀ x`
    /// (row-indexed); dense `O(m²)`.
    pub fn btran(&mut self, x: &mut [f64]) {
        let m = self.m;
        self.scratch.fill(0.0);
        for r in 0..m {
            let xr = x[r];
            if xr != 0.0 {
                let row = &self.binv[r * m..(r + 1) * m];
                for (acc, &v) in self.scratch.iter_mut().zip(row) {
                    *acc += xr * v;
                }
            }
        }
        x.copy_from_slice(&self.scratch);
    }

    /// Rank-one basis-inverse update after a pivot at row `r` with
    /// transformed entering column `w`; dense `O(m²)`.
    pub fn update(&mut self, r: usize, w: &[f64]) {
        let m = self.m;
        let inv = 1.0 / w[r];
        for j in 0..m {
            self.binv[r * m + j] *= inv;
        }
        for i in 0..m {
            if i == r {
                continue;
            }
            let f = w[i];
            if f != 0.0 {
                for j in 0..m {
                    let v = self.binv[r * m + j];
                    self.binv[i * m + j] -= f * v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// 3×3 matrix with a sparse structure and a known inverse action.
    fn sample_csc() -> CscMatrix {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        // [ 1 0 1 ]
        CscMatrix::from_columns(
            3,
            &[
                vec![(0, 2.0), (2, 1.0)],
                vec![(1, 3.0)],
                vec![(0, 1.0), (2, 1.0)],
            ],
        )
    }

    #[test]
    fn lu_matches_dense_on_structural_basis() {
        let a = sample_csc();
        let cols = vec![0, 1, 2];
        let mut lu = LuFactors::identity(3);
        let mut dense = DenseInverse::identity(3);
        assert!(lu.factorize(&cols, &a, 3));
        assert!(dense.factorize(&cols, &a, 3));
        let rhs = [1.0, 2.0, 3.0];
        let mut x1 = rhs;
        let mut x2 = rhs;
        lu.ftran(&mut x1);
        dense.ftran(&mut x2);
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-12, "{x1:?} vs {x2:?}");
        }
        let mut y1 = rhs;
        let mut y2 = rhs;
        lu.btran(&mut y1);
        dense.btran(&mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12, "{y1:?} vs {y2:?}");
        }
    }

    #[test]
    fn mixed_slack_basis_and_unit_btran() {
        let a = sample_csc();
        // Basis: structural col 0, slack of row 1, structural col 2.
        let cols = vec![0, 4, 2];
        let mut lu = LuFactors::identity(3);
        let mut dense = DenseInverse::identity(3);
        assert!(lu.factorize(&cols, &a, 3));
        assert!(dense.factorize(&cols, &a, 3));
        for r in 0..3 {
            let mut u1 = vec![0.0; 3];
            u1[r] = 1.0;
            let mut u2 = u1.clone();
            lu.btran(&mut u1);
            dense.btran(&mut u2);
            for (a, b) in u1.iter().zip(&u2) {
                assert!((a - b).abs() < 1e-12, "row {r}: {u1:?} vs {u2:?}");
            }
        }
    }

    #[test]
    fn singular_basis_rejected() {
        let a = sample_csc();
        // Column 0 twice: linearly dependent.
        let cols = vec![0, 0, 2];
        let mut lu = LuFactors::identity(3);
        let mut dense = DenseInverse::identity(3);
        assert!(!lu.factorize(&cols, &a, 3));
        assert!(!dense.factorize(&cols, &a, 3));
    }

    #[test]
    fn updates_track_dense_rank_one() {
        let a = sample_csc();
        let cols = vec![3, 4, 5]; // all-slack identity basis
        let mut lu = LuFactors::identity(3);
        let mut dense = DenseInverse::identity(3);
        assert!(lu.factorize(&cols, &a, 3));
        assert!(dense.factorize(&cols, &a, 3));
        // Pivot structural column 0 into row 0.
        let mut w1 = vec![0.0; 3];
        a.axpy_col(&mut w1, 1.0, 0);
        let mut w2 = w1.clone();
        lu.ftran(&mut w1);
        dense.ftran(&mut w2);
        assert!(lu.update(0, &w1, &FactorOpts::default()));
        dense.update(0, &w2);
        assert_eq!(lu.update_count(), 1);
        let rhs = [5.0, -1.0, 2.0];
        let mut x1 = rhs;
        let mut x2 = rhs;
        lu.ftran(&mut x1);
        dense.ftran(&mut x2);
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-12, "{x1:?} vs {x2:?}");
        }
        let mut y1 = rhs;
        let mut y2 = rhs;
        lu.btran(&mut y1);
        dense.btran(&mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12, "{y1:?} vs {y2:?}");
        }
    }

    #[test]
    fn refactor_policy_triggers() {
        let lu = LuFactors::identity(4);
        let tight = FactorOpts {
            refactor_interval: 0,
            eta_fill_factor: 0.0,
        };
        assert!(lu.needs_refactor(&tight));
        let loose = FactorOpts::default();
        assert!(!lu.needs_refactor(&loose));
    }

    /// Pins the fill-trigger point of the refactor policy on bordered
    /// growth, whose sizes are exact: each border multiplier adds 1 to
    /// `update_nnz` and each grown unit row 1 to `lu_nnz`. With
    /// `eta_fill_factor = 2.0` the bound is exactly `2 · lu_nnz` update
    /// non-zeros — not `2·(lu_nnz + m)` as the old double-counted formula
    /// had it.
    #[test]
    fn refactor_fill_bound_is_exact() {
        let m0 = 4;
        let mut lu = LuFactors::identity(m0); // all-slack: lu_nnz = m
        assert_eq!(lu.lu_nnz(), m0);
        let opts = FactorOpts {
            refactor_interval: 1000,
            eta_fill_factor: 2.0,
        };
        // Each grown row below carries exactly 4 multipliers, so every
        // growth moves `update_nnz` by 4 and the bound by 2.
        let border = || vec![vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]];
        for k in 0..4 {
            assert!(
                !lu.needs_refactor(&opts),
                "fired early at {} nnz (bound {})",
                lu.update_nnz(),
                2 * lu.lu_nnz()
            );
            lu.grow(border());
            assert_eq!(lu.update_nnz(), 4 * (k + 1));
            assert_eq!(lu.lu_nnz(), m0 + k + 1);
        }
        // 16 nnz = 2·8: the bound is inclusive (trigger is strict >).
        assert_eq!(lu.update_nnz(), 2 * lu.lu_nnz());
        assert!(!lu.needs_refactor(&opts));
        lu.grow(border());
        // 20 nnz > 2·9: must fire now. Under the old `+ m` double-count
        // the bound would have been 2·(9 + 9) = 36 and this would still
        // be quiet.
        assert!(lu.needs_refactor(&opts));
    }

    /// After many pivots on the same factorisation, the Forrest–Tomlin
    /// update file stays below the eta file a product-form update would
    /// have built (one eta of `nnz(w)` entries per pivot, pivot
    /// included), and the solves still match the dense oracle.
    #[test]
    fn forrest_tomlin_update_file_stays_below_an_eta_file() {
        let m = 16;
        let cols: Vec<Vec<(usize, f64)>> =
            (0..m).map(|j| vec![(j, 2.0), ((j + 1) % m, 1.0)]).collect();
        let a = CscMatrix::from_columns(m, &cols);
        let slack: Vec<usize> = (m..2 * m).collect();
        let mut ft = LuFactors::identity(m);
        let mut dense = DenseInverse::identity(m);
        assert!(ft.factorize(&slack, &a, m));
        assert!(dense.factorize(&slack, &a, m));
        let opts = FactorOpts::default();
        let mut eta_nnz = 0;
        for j in 0..m {
            let mut w1 = vec![0.0; m];
            a.axpy_col(&mut w1, 1.0, j);
            let mut w2 = w1.clone();
            ft.ftran(&mut w1);
            dense.ftran(&mut w2);
            for (x, y) in w1.iter().zip(&w2) {
                assert!((x - y).abs() < 1e-9, "pivot {j}");
            }
            // The eta of this pivot: the pivot plus the other non-zeros.
            eta_nnz += 1 + (0..m).filter(|&i| i != j && w1[i] != 0.0).count();
            assert!(ft.update(j, &w1, &opts));
            dense.update(j, &w2);
        }
        assert_eq!(ft.update_count(), m);
        assert!(
            ft.update_nnz() < eta_nnz,
            "ft {} vs eta file {eta_nnz}",
            ft.update_nnz()
        );
        let rhs: Vec<f64> = (0..m).map(|i| (i as f64) - 7.0).collect();
        let mut x1 = rhs.clone();
        let mut x2 = rhs.clone();
        ft.ftran(&mut x1);
        dense.ftran(&mut x2);
        for (x, y) in x1.iter().zip(&x2) {
            assert!((x - y).abs() < 1e-8, "{x1:?} vs {x2:?}");
        }
        let mut y1 = rhs.clone();
        let mut y2 = rhs;
        ft.btran(&mut y1);
        dense.btran(&mut y2);
        for (x, y) in y1.iter().zip(&y2) {
            assert!((x - y).abs() < 1e-8, "{y1:?} vs {y2:?}");
        }
    }

    #[test]
    fn hyper_and_scanning_kernels_agree_exactly() {
        let a = sample_csc();
        let cols = vec![0, 4, 2];
        let mut scan = LuFactors::identity(3);
        let mut hyper = LuFactors::identity(3);
        scan.set_hyper_density_cutoff(0.0);
        hyper.set_hyper_density_cutoff(1.0);
        assert!(scan.factorize(&cols, &a, 3));
        assert!(hyper.factorize(&cols, &a, 3));
        for r in 0..3 {
            let mut x1 = vec![0.0; 3];
            let mut x2 = vec![0.0; 3];
            x1[r] = 1.0;
            x2[r] = 1.0;
            scan.ftran(&mut x1);
            hyper.ftran(&mut x2);
            assert_eq!(x1, x2, "ftran e{r}");
            let mut y1 = vec![0.0; 3];
            let mut y2 = vec![0.0; 3];
            y1[r] = 1.0;
            y2[r] = 1.0;
            scan.btran(&mut y1);
            hyper.btran(&mut y2);
            assert_eq!(y1, y2, "btran e{r}");
        }
    }

    /// Multipliers `μ_i = B⁻ᵀ n_i` for appending `rows` (structural
    /// `(col, val)` lists) below a basis `cols` already factorised in
    /// `fac`: `n_i` scatters each new row's coefficients on the basic
    /// structural columns by their basis position.
    fn borders_for(
        fac: &mut LuFactors,
        cols: &[usize],
        n_struct: usize,
        rows: &[Vec<(usize, f64)>],
    ) -> Vec<Vec<(usize, f64)>> {
        let m = cols.len();
        rows.iter()
            .map(|row| {
                let mut n = vec![0.0f64; m];
                let mut pat = Vec::new();
                for &(j, v) in row {
                    if let Some(r) = cols.iter().position(|&c| c == j) {
                        assert!(j < n_struct);
                        n[r] = v;
                        pat.push(r);
                    }
                }
                fac.btran_sparse(&mut n, &pat);
                n.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(j, &v)| (j, v))
                    .collect()
            })
            .collect()
    }

    /// In-place growth must agree with a from-scratch factorisation of
    /// the grown basis — on solves immediately after the growth *and*
    /// after a further pivot update. This is the exactness contract behind
    /// `LpSession::add_rows` absorbing cutting planes without a
    /// refactorisation.
    #[test]
    fn grow_matches_refactorised_basis_under_further_updates() {
        let a = sample_csc(); // 3×3
                              // Append rows [1 2 0] and [0 1 1]: grown matrix is 5×3.
        let new_rows = vec![vec![(0, 1.0), (1, 2.0)], vec![(1, 1.0), (2, 1.0)]];
        let big = a.append_rows(&new_rows);
        let cols = vec![0, 4, 2]; // structural 0, slack of row 1, structural 2
        let grown_cols = vec![0, 4, 2, 3 + 3, 3 + 4]; // + new slacks
        let opts = FactorOpts::default();
        let mut lu = LuFactors::identity(3);
        assert!(lu.factorize(&cols, &a, 3));
        let borders = borders_for(&mut lu, &cols, 3, &new_rows);
        lu.grow(borders);
        let mut fresh = LuFactors::identity(5);
        assert!(fresh.factorize(&grown_cols, &big, 3));
        let rhs = [3.0, -1.0, 2.0, 0.5, -4.0];
        let mut x1 = rhs;
        let mut x2 = rhs;
        lu.ftran(&mut x1);
        fresh.ftran(&mut x2);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-9, "grown ftran {x1:?} vs {x2:?}");
        }
        let mut y1 = rhs;
        let mut y2 = rhs;
        lu.btran(&mut y1);
        fresh.btran(&mut y2);
        for (p, q) in y1.iter().zip(&y2) {
            assert!((p - q).abs() < 1e-9, "grown btran {y1:?} vs {y2:?}");
        }
        // Pivot structural column 1 into the last (appended) row on
        // both: updates must keep composing exactly against the
        // border.
        let mut w_lu: Vec<f64> = vec![0.0; 5];
        big.axpy_col(&mut w_lu, 1.0, 1);
        let mut w_fresh = w_lu.clone();
        lu.ftran(&mut w_lu);
        fresh.ftran(&mut w_fresh);
        assert!(lu.update(4, &w_lu, &opts));
        assert!(fresh.update(4, &w_fresh, &opts));
        let rhs = [1.0, 0.0, -2.0, 3.0, 1.5];
        let mut want_f = rhs;
        fresh.ftran(&mut want_f);
        let mut want_b = rhs;
        fresh.btran(&mut want_b);
        let mut x = rhs;
        lu.ftran(&mut x);
        for (p, q) in x.iter().zip(&want_f) {
            assert!((p - q).abs() < 1e-9, "post-update ftran");
        }
        let mut y = rhs;
        lu.btran(&mut y);
        for (p, q) in y.iter().zip(&want_b) {
            assert!((p - q).abs() < 1e-9, "post-update btran");
        }
    }

    /// Two growth batches compose: the second border's multipliers are
    /// computed against the once-grown factors and may reference the
    /// first batch's rows.
    #[test]
    fn repeated_growth_batches_compose() {
        let a = sample_csc();
        let rows1 = vec![vec![(0, 1.0), (1, 2.0)]];
        let rows2 = vec![vec![(1, 1.0), (2, 1.0)]];
        let mid = a.append_rows(&rows1);
        let big = mid.append_rows(&rows2);
        let cols = vec![0, 4, 2];
        let mut lu = LuFactors::identity(3);
        assert!(lu.factorize(&cols, &a, 3));
        let b1 = borders_for(&mut lu, &cols, 3, &rows1);
        lu.grow(b1);
        let cols_mid = vec![0, 4, 2, 6];
        let b2 = borders_for(&mut lu, &cols_mid, 3, &rows2);
        lu.grow(b2);
        let mut fresh = LuFactors::identity(5);
        assert!(fresh.factorize(&[0, 4, 2, 6, 7], &big, 3));
        let rhs = [2.0, 1.0, -1.0, 4.0, 0.25];
        let mut x1 = rhs;
        let mut x2 = rhs;
        lu.ftran(&mut x1);
        fresh.ftran(&mut x2);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-9, "{x1:?} vs {x2:?}");
        }
        let mut y1 = rhs;
        let mut y2 = rhs;
        lu.btran(&mut y1);
        fresh.btran(&mut y2);
        for (p, q) in y1.iter().zip(&y2) {
            assert!((p - q).abs() < 1e-9, "{y1:?} vs {y2:?}");
        }
    }

    /// Border multipliers count towards the update file, so the refactor
    /// policy eventually folds a long border into a fresh LU.
    #[test]
    fn border_counts_towards_refactor_policy() {
        let a = sample_csc();
        let mut lu = LuFactors::identity(3);
        assert!(lu.factorize(&[0, 4, 2], &a, 3));
        let before = lu.update_nnz();
        lu.grow(vec![vec![(0, 1.0), (2, -2.0)]]);
        assert_eq!(lu.update_nnz(), before + 2);
        let opts = FactorOpts {
            refactor_interval: 1000,
            eta_fill_factor: 0.0,
        };
        assert!(lu.needs_refactor(&opts));
    }

    #[test]
    fn work_is_metered_and_drained() {
        let a = sample_csc();
        let mut lu = LuFactors::identity(3);
        assert!(lu.factorize(&[0, 1, 2], &a, 3));
        assert!(lu.take_work() > 0);
        assert_eq!(lu.take_work(), 0);
        let stats = lu.take_stats();
        assert_eq!(stats.refactors, 1);
        assert!(stats.refactor_ticks > 0);
        assert_eq!(lu.take_stats(), FactorStats::default());
    }

    /// The Forrest–Tomlin update before it walked patterns: the spike
    /// scans every slot, μ is eliminated by a zero-skipping sweep of
    /// every trailing pivotal position, and the moved slot is cycled to
    /// the end by shifting `order`/`pos` down by one. The reference the
    /// pattern-driven update is checked against, bit for bit; only it
    /// updates the factors it runs on, so their `order` never holds a
    /// hole.
    fn dense_sweep_update(lu: &mut LuFactors, r: usize, w: &[f64]) -> bool {
        let m = lu.m;
        let t = lu.qinv[r];
        let mut ops = 0u64;
        lu.pat2.clear();
        lu.stamp = lu.stamp.wrapping_add(1);
        if lu.stamp == 0 {
            lu.mark.fill(0);
            lu.stamp = 1;
        }
        for k in 0..m {
            let zv = w[lu.q[k]];
            if zv == 0.0 {
                continue;
            }
            let diagonal = std::iter::once((k, lu.u_diag[k]));
            for (i, val) in diagonal.chain(lu.u_cols[k].iter().copied()) {
                if lu.mark[i] != lu.stamp {
                    lu.mark[i] = lu.stamp;
                    lu.pat2.push(i);
                }
                lu.aux[i] += val * zv;
            }
            ops += lu.u_cols[k].len() as u64 + 1;
        }
        let mut mu: Vec<(usize, f64)> = Vec::new();
        for &(k, val) in &lu.u_rows[t] {
            lu.scratch[k] = val;
        }
        ops += lu.u_rows[t].len() as u64;
        let pos_t = lu.pos[t];
        for j in pos_t + 1..m {
            let c = lu.order[j];
            let v = lu.scratch[c];
            if v == 0.0 {
                continue;
            }
            lu.scratch[c] = 0.0;
            let mc = v / lu.u_diag[c];
            mu.push((c, mc));
            for &(k, val) in &lu.u_rows[c] {
                lu.scratch[k] -= val * mc;
            }
            ops += lu.u_rows[c].len() as u64;
        }
        let mut d = lu.aux[t];
        let spike_max = lu.pat2.iter().map(|&k| lu.aux[k].abs()).fold(0.0, f64::max);
        for &(c, mc) in &mu {
            d -= mc * lu.aux[c];
        }
        ops += mu.len() as u64;
        if d.abs() < PIVOT_TOL * (1.0 + spike_max) {
            for &k in &lu.pat2 {
                lu.aux[k] = 0.0;
            }
            lu.work += ops;
            return false;
        }
        let old_col = std::mem::take(&mut lu.u_cols[t]);
        for &(i, _) in &old_col {
            let rowlist = &mut lu.u_rows[i];
            if let Some(at) = rowlist.iter().position(|&(k, _)| k == t) {
                rowlist.swap_remove(at);
            }
            ops += rowlist.len() as u64;
        }
        lu.u_nnz -= old_col.len();
        let old_row = std::mem::take(&mut lu.u_rows[t]);
        for &(k, _) in &old_row {
            let collist = &mut lu.u_cols[k];
            if let Some(at) = collist.iter().position(|&(i, _)| i == t) {
                collist.swap_remove(at);
            }
            ops += collist.len() as u64;
        }
        lu.u_nnz -= old_row.len();
        let mut spike_fill = 0usize;
        for idx in 0..lu.pat2.len() {
            let i = lu.pat2[idx];
            let v = lu.aux[i];
            lu.aux[i] = 0.0;
            if i == t || v == 0.0 {
                continue;
            }
            lu.u_cols[t].push((i, v));
            lu.u_rows[i].push((t, v));
            spike_fill += 1;
        }
        lu.u_diag[t] = d;
        lu.u_nnz += spike_fill;
        ops += spike_fill as u64;
        for j in pos_t + 1..m {
            let s = lu.order[j];
            lu.order[j - 1] = s;
            lu.pos[s] = j - 1;
        }
        lu.order[m - 1] = t;
        lu.pos[t] = m - 1;
        lu.file_nnz += mu.len();
        lu.stats.update_nnz += mu.len() as u64 + spike_fill as u64;
        if !mu.is_empty() {
            lu.ft.push(FtTransform { t, entries: mu });
        }
        lu.work += ops;
        lu.updates += 1;
        lu.stats.updates += 1;
        true
    }

    fn pair_bits(list: &[(usize, f64)]) -> Vec<(usize, u64)> {
        list.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    fn lists_bits(lists: &[Vec<(usize, f64)>]) -> Vec<Vec<(usize, u64)>> {
        lists.iter().map(|l| pair_bits(l)).collect()
    }

    fn value_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts that the pattern-driven factors `lu` hold exactly what
    /// the dense-sweep reference `want` holds: `U` by columns and rows
    /// (entry order included), its diagonal, the pivotal order with the
    /// holes dropped, the row transforms, the undrained work and the
    /// statistics.
    fn assert_same_factors(lu: &mut LuFactors, want: &mut LuFactors, ctx: &str) {
        assert_eq!(
            lists_bits(&lu.u_cols),
            lists_bits(&want.u_cols),
            "{ctx}: U columns"
        );
        assert_eq!(
            lists_bits(&lu.u_rows),
            lists_bits(&want.u_rows),
            "{ctx}: U rows"
        );
        assert_eq!(
            value_bits(&lu.u_diag),
            value_bits(&want.u_diag),
            "{ctx}: U diagonal"
        );
        let live: Vec<usize> = lu.order.iter().copied().filter(|&k| k != HOLE).collect();
        assert_eq!(live, want.order, "{ctx}: pivotal order");
        for (k, &j) in lu.pos.iter().enumerate() {
            assert_eq!(lu.order[j], k, "{ctx}: pos is not the inverse of order");
        }
        assert!(
            lu.bits.len() * 64 >= lu.order.len(),
            "{ctx}: bitmap misses positions"
        );
        let transforms = |f: &LuFactors| -> Vec<(usize, Vec<(usize, u64)>)> {
            f.ft.iter()
                .map(|tr| (tr.t, pair_bits(&tr.entries)))
                .collect()
        };
        assert_eq!(transforms(lu), transforms(want), "{ctx}: row transforms");
        assert_eq!(lu.u_nnz, want.u_nnz, "{ctx}: nnz(U)");
        assert_eq!(lu.update_count(), want.update_count(), "{ctx}: updates");
        assert_eq!(lu.take_work(), want.take_work(), "{ctx}: work");
        // Growth peaks are bookkeeping of `update` itself, which the
        // reference leaves out.
        let (mut got, mut expected) = (lu.take_stats(), want.take_stats());
        got.growth_peak = 0.0;
        expected.growth_peak = 0.0;
        assert_eq!(got, expected, "{ctx}: statistics");
    }

    /// Solves one unit and one dense right-hand side each way through
    /// both factor sets and asserts bit-identical results, result
    /// patterns and work.
    fn assert_same_solves(lu: &mut LuFactors, want: &mut LuFactors, rng: &mut SmallRng, ctx: &str) {
        let m = lu.m;
        let r = rng.gen_range(0..m);
        let (mut p1, mut p2) = (Vec::new(), Vec::new());
        let mut x1 = vec![0.0; m];
        x1[r] = 1.0;
        let mut x2 = x1.clone();
        let h1 = lu.ftran_sparse_tracked(&mut x1, &[r], &mut p1);
        let h2 = want.ftran_sparse_tracked(&mut x2, &[r], &mut p2);
        assert_eq!((h1, &p1), (h2, &p2), "{ctx}: ftran pattern");
        assert_eq!(value_bits(&x1), value_bits(&x2), "{ctx}: ftran");
        let mut y1 = vec![0.0; m];
        let mut y2 = vec![0.0; m];
        let h1 = lu.btran_unit_tracked(r, &mut y1, &mut p1);
        let h2 = want.btran_unit_tracked(r, &mut y2, &mut p2);
        assert_eq!((h1, &p1), (h2, &p2), "{ctx}: btran pattern");
        assert_eq!(value_bits(&y1), value_bits(&y2), "{ctx}: btran");
        let dense: Vec<f64> = (0..m)
            .map(|_| f64::from(rng.gen_range(-4i32..=4)))
            .collect();
        let (mut x1, mut x2) = (dense.clone(), dense.clone());
        lu.ftran(&mut x1);
        want.ftran(&mut x2);
        assert_eq!(value_bits(&x1), value_bits(&x2), "{ctx}: dense ftran");
        let (mut y1, mut y2) = (dense.clone(), dense);
        lu.btran(&mut y1);
        want.btran(&mut y2);
        assert_eq!(value_bits(&y1), value_bits(&y2), "{ctx}: dense btran");
        assert_eq!(lu.take_work(), want.take_work(), "{ctx}: solve work");
    }

    /// The pattern-driven Forrest–Tomlin update against the dense-sweep
    /// reference over random pivot sequences: two draws each of tracked
    /// and untracked pivot columns, `m` on both sides of a bitmap word
    /// and one 1,000-row system with sparse columns, each sequence
    /// growing by two bordered rows halfway. After every update the
    /// factors, and later solves through them, agree bit for bit.
    #[test]
    fn pattern_update_matches_dense_sweep_reference() {
        let (mut walks, mut sweeps) = (0, 0);
        for m0 in [63usize, 64, 65, 129, 1000] {
            for draw in 0..2 {
                for tracked in [true, false] {
                    let (w, s) = differential_sequence(m0, draw, tracked);
                    walks += w;
                    sweeps += s;
                }
            }
        }
        // Both sides of the density cutover are exercised.
        assert!(
            walks > 200 && sweeps > 200,
            "{walks} walks, {sweeps} sweeps"
        );
    }

    /// One random pivot sequence of [`pattern_update_matches_dense_sweep_reference`]
    /// on an `m0`-row basis over `2·m0` structural columns of 2–4
    /// non-zeros each, seeded by `(m0, draw, tracked)`; no
    /// refactorisation unless an update is declined, so the holes pile up
    /// over several bitmap words. Returns how many updates walked `w`'s
    /// pattern and how many swept.
    fn differential_sequence(m0: usize, draw: u64, tracked: bool) -> (usize, usize) {
        let ctx = format!("m {m0}, draw {draw}, tracked {tracked}");
        let opts = FactorOpts {
            refactor_interval: 1000,
            eta_fill_factor: 1e9,
        };
        let seed = m0 as u64 * 4 + 2 * draw + u64::from(tracked);
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 2 * m0;
        let (mut a, mut basis, mut lu) = random_lu(&mut rng, m0, &ctx);
        let mut m = m0;
        lu.take_work();
        lu.take_stats();
        let mut want = lu.clone();
        let steps = 160;
        let (mut accepted, mut walks, mut sweeps) = (0, 0, 0);
        for step in 0..steps {
            let ctx = format!("{ctx}, step {step}");
            if step == steps / 2 {
                let rows: Vec<Vec<(usize, f64)>> = (0..2)
                    .map(|_| {
                        (0..3)
                            .map(|_| (rng.gen_range(0..n), f64::from(rng.gen_range(1i32..=3))))
                            .collect()
                    })
                    .collect();
                let borders = borders_for(&mut lu, &basis, n, &rows);
                assert_eq!(
                    borders,
                    borders_for(&mut want, &basis, n, &rows),
                    "{ctx}: borders"
                );
                lu.grow(borders.clone());
                want.grow(borders);
                basis.extend(n + m..n + m + 2);
                a = a.append_rows(&rows);
                m += 2;
                assert_same_factors(&mut lu, &mut want, &ctx);
            }
            let q = rng.gen_range(0..n);
            if basis.contains(&q) {
                continue;
            }
            let mut w = vec![0.0; m];
            a.axpy_col(&mut w, 1.0, q);
            let mut w_ref = w.clone();
            let (mut wpat, mut wpat_ref) = (Vec::new(), Vec::new());
            let hyper = if tracked {
                let hyper = lu.ftran_sparse_tracked(&mut w, a.col(q).0, &mut wpat);
                want.ftran_sparse_tracked(&mut w_ref, a.col(q).0, &mut wpat_ref);
                hyper
            } else {
                lu.ftran(&mut w);
                want.ftran(&mut w_ref);
                false
            };
            assert_eq!(wpat, wpat_ref, "{ctx}: pivot column pattern");
            assert_eq!(value_bits(&w), value_bits(&w_ref), "{ctx}: pivot column");
            let usable: Vec<usize> = (0..m).filter(|&i| w[i].abs() >= 1e-3).collect();
            let Some(&r) = usable.get(rng.gen_range(0..usable.len().max(1))) else {
                assert_same_factors(&mut lu, &mut want, &ctx);
                continue;
            };
            basis[r] = q;
            let ok = if hyper {
                lu.update_sparse(r, &w, &wpat, &opts)
            } else {
                lu.update(r, &w, &opts)
            };
            if hyper && wpat.len() <= lu.hyper_cap() {
                walks += 1;
            } else {
                sweeps += 1;
            }
            assert_eq!(
                ok,
                dense_sweep_update(&mut want, r, &w_ref),
                "{ctx}: accepted"
            );
            assert_same_factors(&mut lu, &mut want, &ctx);
            assert_same_solves(&mut lu, &mut want, &mut rng, &ctx);
            if ok {
                accepted += 1;
            } else {
                assert!(lu.factorize(&basis, &a, n), "{ctx}: refactorise");
                assert!(want.factorize(&basis, &a, n), "{ctx}: refactorise");
                assert_same_factors(&mut lu, &mut want, &ctx);
            }
        }
        assert!(accepted > steps / 2, "{ctx}: only {accepted} updates");
        (walks, sweeps)
    }

    /// A random `m0`-row system over `n = 2·m0` structural columns of 2–4
    /// non-zeros each, a basis reached from the slack basis by random
    /// pivots (about half the rows of small systems, a tenth of large
    /// ones, whose pivot columns then stay hyper-sparse) and its fresh
    /// LU, whose slot and position orders differ.
    fn random_lu(rng: &mut SmallRng, m0: usize, ctx: &str) -> (CscMatrix, Vec<usize>, LuFactors) {
        let n = 2 * m0;
        let cols: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|_| {
                let nnz = rng.gen_range(2usize..=4);
                let mut col: Vec<(usize, f64)> = Vec::new();
                while col.len() < nnz {
                    let i = rng.gen_range(0..m0);
                    let v = f64::from(rng.gen_range(-3i32..=3));
                    if v != 0.0 && col.iter().all(|&(k, _)| k != i) {
                        col.push((i, v));
                    }
                }
                col
            })
            .collect();
        let a = CscMatrix::from_columns(m0, &cols);
        let mut basis: Vec<usize> = (n..n + m0).collect();
        let mut lu = LuFactors::identity(m0);
        assert!(lu.factorize(&basis, &a, n));
        for _ in 0..m0.min(200) {
            let q = rng.gen_range(0..n);
            if basis.contains(&q) {
                continue;
            }
            let mut w = vec![0.0; m0];
            a.axpy_col(&mut w, 1.0, q);
            lu.ftran(&mut w);
            if let Some(r) = (0..m0).find(|&i| w[i].abs() >= 0.5 && basis[i] >= n) {
                basis[r] = q;
                if !lu.update(r, &w, &FactorOpts::default()) {
                    assert!(lu.factorize(&basis, &a, n), "{ctx}: warm-up");
                }
            }
        }
        assert!(lu.factorize(&basis, &a, n), "{ctx}: warm-up");
        assert!(
            lu.q.iter().enumerate().any(|(k, &p)| k != p),
            "{ctx}: slots are in position order"
        );
        (a, basis, lu)
    }

    /// Runs `solve` on `sweep` with both reach phases forced onto the
    /// sweep and on `dfs` with both forced onto the DFS, asserts equal
    /// outputs, work and statistics, and returns the output.
    fn swept_and_dfs<R: PartialEq + std::fmt::Debug>(
        sweep: &mut LuFactors,
        dfs: &mut LuFactors,
        ctx: &str,
        mut solve: impl FnMut(&mut LuFactors) -> R,
    ) -> R {
        (sweep.sweep_u, sweep.sweep_lt) = (true, true);
        (dfs.sweep_u, dfs.sweep_lt) = (false, false);
        let got = solve(sweep);
        assert_eq!(got, solve(dfs), "{ctx}: output");
        assert_eq!(sweep.take_work(), dfs.take_work(), "{ctx}: work");
        assert_eq!(sweep.take_stats(), dfs.take_stats(), "{ctx}: statistics");
        got
    }

    /// The swept `U` (FTRAN) and `Lᵀ` (BTRAN) reaches against the DFS:
    /// on the same seeded sequences of factorisations, Forrest–Tomlin
    /// updates and border growths, every solve forced each way on a copy
    /// of the same factors gives bit-identical results, tracked patterns,
    /// work and statistics. Both phases see reaches on both sides of the
    /// cutover, so sweeps run on sparse reaches and the DFS on dense ones.
    #[test]
    fn swept_reaches_match_the_dfs() {
        // Tracked hyper-sparse solves by phase (`U`, `Lᵀ`) and by reach
        // (sparse, dense).
        let mut reaches = [[0usize; 2]; 2];
        for m0 in [20usize, 65, 200, 1000] {
            for draw in 0..2 {
                swept_sequence(m0, draw, &mut reaches);
            }
        }
        assert!(
            reaches.iter().flatten().all(|&c| c >= 200),
            "[U, Lᵀ] x [sparse, dense] reaches: {reaches:?}"
        );
    }

    /// One sequence of [`swept_reaches_match_the_dfs`] on a [`random_lu`]
    /// seeded by `(m0, draw)`. Per step: a tracked FTRAN of a random
    /// structural column, a tracked unit BTRAN of one of its usable rows,
    /// a plain FTRAN and BTRAN of a right-hand side of random density,
    /// then the pivot unless the column is basic (refactorising when the
    /// update is declined or the default policy asks); halfway it grows
    /// by two bordered rows. Counts each tracked solve's reach into
    /// `reaches`.
    fn swept_sequence(m0: usize, draw: u64, reaches: &mut [[usize; 2]; 2]) {
        let ctx = format!("m {m0}, draw {draw}");
        let opts = FactorOpts::default();
        let mut rng = SmallRng::seed_from_u64(m0 as u64 * 2 + draw + 1);
        let n = 2 * m0;
        let (mut a, mut basis, mut sweep) = random_lu(&mut rng, m0, &ctx);
        let mut m = m0;
        let mut dfs = sweep.clone();
        for step in 0..160 {
            let ctx = format!("{ctx}, step {step}");
            if step == 80 {
                let rows: Vec<Vec<(usize, f64)>> = (0..2)
                    .map(|_| {
                        (0..3)
                            .map(|_| (rng.gen_range(0..n), f64::from(rng.gen_range(1i32..=3))))
                            .collect()
                    })
                    .collect();
                let borders = swept_and_dfs(&mut sweep, &mut dfs, &ctx, |f| {
                    lists_bits(&borders_for(f, &basis, n, &rows))
                });
                let borders: Vec<Vec<(usize, f64)>> = borders
                    .iter()
                    .map(|l| l.iter().map(|&(i, v)| (i, f64::from_bits(v))).collect())
                    .collect();
                sweep.grow(borders.clone());
                dfs.grow(borders);
                basis.extend(n + m..n + m + 2);
                a = a.append_rows(&rows);
                m += 2;
            }
            // Each tracked solve also returns its reach and the phase's
            // range.
            let q = rng.gen_range(0..n);
            let (hyper, w, wpat, reach) = swept_and_dfs(&mut sweep, &mut dfs, &ctx, |f| {
                let mut w = vec![0.0; m];
                a.axpy_col(&mut w, 1.0, q);
                let mut pat = Vec::new();
                let hyper = f.ftran_sparse_tracked(&mut w, a.col(q).0, &mut pat);
                (hyper, value_bits(&w), pat, (f.reach.len(), f.order.len()))
            });
            if hyper {
                reaches[0][usize::from(dense_reach(reach.0, reach.1))] += 1;
            }
            let w: Vec<f64> = w.into_iter().map(f64::from_bits).collect();
            let usable: Vec<usize> = (0..m).filter(|&i| w[i].abs() >= 1e-3).collect();
            let r = usable.get(rng.gen_range(0..usable.len().max(1))).copied();
            let (hyper_row, _, _, reach) = swept_and_dfs(&mut sweep, &mut dfs, &ctx, |f| {
                let mut y = vec![0.0; m];
                let mut pat = Vec::new();
                let hyper = f.btran_unit_tracked(r.unwrap_or(q % m), &mut y, &mut pat);
                (hyper, value_bits(&y), pat, (f.reach.len(), f.m))
            });
            if hyper_row {
                reaches[1][usize::from(dense_reach(reach.0, reach.1))] += 1;
            }
            let mut rhs = vec![0.0; m];
            for _ in 0..rng.gen_range(1..=m / 4 + 1) {
                rhs[rng.gen_range(0..m)] = f64::from(rng.gen_range(-4i32..=4));
            }
            swept_and_dfs(&mut sweep, &mut dfs, &ctx, |f| {
                let mut x = rhs.clone();
                f.ftran(&mut x);
                value_bits(&x)
            });
            swept_and_dfs(&mut sweep, &mut dfs, &ctx, |f| {
                let mut y = rhs.clone();
                f.btran(&mut y);
                value_bits(&y)
            });
            let Some(r) = r.filter(|_| !basis.contains(&q)) else {
                continue;
            };
            basis[r] = q;
            let ok = swept_and_dfs(&mut sweep, &mut dfs, &ctx, |f| {
                if hyper {
                    f.update_sparse(r, &w, &wpat, &opts)
                } else {
                    f.update(r, &w, &opts)
                }
            });
            if !ok || sweep.needs_refactor(&opts) {
                let fresh =
                    swept_and_dfs(&mut sweep, &mut dfs, &ctx, |f| f.factorize(&basis, &a, n));
                assert!(fresh, "{ctx}: refactorise");
            }
        }
    }
}
