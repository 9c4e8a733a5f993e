//! Sparse revised simplex with bounded-variable dual reoptimisation.
//!
//! This is the LP engine behind [`crate::LpSession`]. Instead of a dense
//! `B⁻¹A` tableau, it keeps:
//!
//! * the constraint matrix `A` once, in CSC form (shared via
//!   [`Model::csc`]),
//! * the basis as a sparse LU ([`crate::factor::LuFactors`]) under
//!   Forrest–Tomlin updates (`O(nnz)`-flavoured FTRAN/BTRAN solves,
//!   periodic refactorisation),
//! * reduced costs priced through sparse columns (`O(nnz)` per pivot).
//!
//! The dual simplex selects its leaving row with **Devex
//! reference-framework pricing** (violation² over an evolving row
//! weight), with Bland-style lowest-index selection under stalls. It
//! then runs a **bound-flipping dual ratio test**: boxed
//! candidates whose dual ratio is passed by the step are flipped to their
//! other bound — one FTRAN folds all flips into `β` — which lets one
//! iteration absorb many would-be degenerate pivots.
//!
//! Per-iteration work is kept proportional to what the iteration touches,
//! not to the problem size: the BTRAN/FTRAN results carry their non-zero
//! patterns out of the factorisation (see `*_tracked` in
//! [`crate::factor`]), the dual row is priced **row-wise over `ρ`'s
//! support** against a CSR companion view of the matrix (sparse PRICE)
//! instead of a dense sweep over all columns, and the β/weight/reduced-
//! cost updates and scratch re-zeroing all walk those patterns.
//!
//! The engine always starts **dual feasible** and drives out primal
//! infeasibility with the dual simplex:
//!
//! * **cold start** — the all-slack basis with every structural column on
//!   its cost-preferred bound is dual feasible by construction, so phase 1
//!   is never needed;
//! * **warm start** — a parent node's optimal [`Basis`] stays dual
//!   feasible after any bound change (branch-and-bound never touches the
//!   objective or the matrix), so a child re-optimises in a handful of
//!   dual pivots.
//!
//! Warm starts come in two flavours. A [`LpContext`] keeps the engine of
//! the previous solve alive; when the caller's warm basis is exactly the
//! context's current basis (the common case on branch-and-bound plunges
//! and diving loops, where consecutive solves differ by one bound), the
//! context applies the bound deltas directly to `β` with a single FTRAN —
//! no factorisation at all. Otherwise the same engine is reloaded in
//! place and the basis is reinstalled from the snapshot with one sparse
//! refactorisation, still far cheaper than a cold solve.
//!
//! Any situation the engine cannot handle — a dual-infeasible start (an
//! improving direction with an infinite bound, or a free column, which
//! has no finite bound to start from), a singular warm basis,
//! numerical trouble, or a final solution that fails verification — makes
//! it bail out: a failed warm start retries cold, a failed perturbed cold
//! start retries unperturbed, and a solve that fails all of them is
//! declined with the work it spent ([`LpStatus::Failed`] at the session).

use crate::basis::{Basis, VarStatus};
use crate::expr::ConstraintSense;
use crate::factor::{refill, FactorOpts, LuFactors};
use crate::model::Model;
use crate::simplex::{LpConfig, LpResult, LpStatus, TOL};
use crate::sparse::{CscMatrix, RowMajor};
use crate::tol;
use std::sync::Arc;

/// Primal feasibility tolerance for basic values.
const PFEAS: f64 = tol::PRIMAL_FEAS;
/// Dual feasibility tolerance when accepting a warm basis.
const DFEAS: f64 = tol::DUAL_FEAS;
/// Post-solve verification tolerance against the original constraints.
const VERIFY_TOL: f64 = tol::VERIFY;
/// Consecutive non-improving iterations before anti-cycling kicks in.
const STALL_LIMIT: u32 = 64;
/// Devex weights above this trigger a reference-framework reset.
const DEVEX_RESET: f64 = 1e8;
/// Remaining-slope floor for accepting another bound flip in the dual
/// ratio test.
const FLIP_SLOPE_TOL: f64 = tol::FLIP_SLOPE;
/// Relative scale of the anti-degeneracy cost perturbation applied on
/// cold starts (see [`Engine::apply_perturbation`]). Large enough to
/// break exact reduced-cost ties in the dual ratio test, small enough
/// that the perturbed optimum is (in practice) also an optimum of the
/// true costs — which [`Engine::strip_perturbation`] verifies exactly
/// before any result is reported.
const PERTURB_SCALE: f64 = tol::PERTURB;

/// SplitMix64: cheap, high-quality deterministic hash for the per-column
/// perturbation stream.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic uniform in `[0, 1)` for column `j` under `seed`.
fn perturb_unit(seed: u64, j: usize) -> f64 {
    let h = splitmix64(seed ^ (j as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Outcome of one dual-simplex run.
enum RunStatus {
    Optimal,
    Infeasible,
    IterLimit,
    /// Numerical trouble (tiny pivot / inconsistent row): caller must fall
    /// back to a colder, more robust path.
    Unstable,
}

/// Bounded-variable revised simplex working set.
///
/// Owns everything it needs (the CSC matrix is shared via `Arc`), so a
/// [`LpContext`] can keep it alive between solves. The default engine is
/// an empty shell; [`Engine::load`] is its one initialiser.
#[derive(Default)]
struct Engine {
    a: Arc<CscMatrix>,
    /// Row-major companion of `a` for sparse PRICE (pricing the dual row
    /// against the columns adjacent to its support).
    rows: RowMajor,
    m: usize,
    /// Structural column count.
    n: usize,
    /// Structural + logical column count.
    n_total: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Phase cost per column (structural objective; logicals are free).
    cost: Vec<f64>,
    /// Non-zero entries in the structural cost (for objective-change
    /// detection on the hot path).
    cost_nnz: usize,
    /// The unperturbed structural costs while an anti-degeneracy cost
    /// perturbation is active; `None` once stripped (or never applied).
    /// Restoring from this copy (rather than subtracting the perturbation)
    /// keeps the true costs bit-exact.
    base_cost: Option<Vec<f64>>,
    rhs: Vec<f64>,
    status: Vec<VarStatus>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Inverse map: column -> row, or `usize::MAX` when nonbasic.
    in_row: Vec<usize>,
    /// Basis factorisation: sparse LU with Forrest–Tomlin updates.
    factor: LuFactors,
    /// Factorisation options this engine was built with; a hot reuse
    /// with different options must miss and rebuild.
    opts: FactorOpts,
    /// Devex reference-framework weight per row.
    devex: Vec<f64>,
    /// Running maximum of the Devex weights — the reference-framework
    /// reset trigger, maintained incrementally so the weight update can
    /// stay on the pivot column's pattern. (It may briefly overestimate
    /// after a leaving-row weight shrinks, triggering a reset at worst
    /// one framework early — a policy choice, not a correctness issue.)
    devex_max: f64,
    /// Values of basic variables per row.
    beta: Vec<f64>,
    /// Reduced costs per column (zero on basic columns).
    d: Vec<f64>,
    /// Scratch: tableau row `α = e_r B⁻¹ A` of the leaving row.
    alpha: Vec<f64>,
    /// `true` while `alpha` holds a stale dense sweep. The dense PRICE
    /// branch overwrites every entry anyway, so back-to-back dense
    /// iterations skip the re-zeroing sweep; the sparse branch (which
    /// accumulates with `+=`) clears the vector first when this is set.
    alpha_dirty: bool,
    /// Scratch: pivot column `w = B⁻¹ A_q`.
    w: Vec<f64>,
    /// Scratch: `ρ = e_r B⁻¹` (row space), also reused for BTRAN rhs.
    rho: Vec<f64>,
    /// Scratch: accumulated bound-change right-hand side (kept zeroed
    /// between uses).
    flip_rhs: Vec<f64>,
    /// Scratch: dual ratio-test candidates `(ratio, column, sign-normalised
    /// alpha)`.
    cands: Vec<(f64, usize, f64)>,
    /// Scratch: columns flipped by the long-step ratio test.
    flips: Vec<usize>,
    /// Scratch: sparse right-hand-side pattern handed to the
    /// factorisation's hyper-sparse solves.
    pat: Vec<usize>,
    /// Scratch: result pattern of the leaving row's BTRAN (`ρ`'s
    /// support) — drives sparse PRICE.
    rpat: Vec<usize>,
    /// Scratch: result pattern of the pivot column's FTRAN (`w`'s
    /// support) — drives the β/weight updates and re-zeroing.
    wpat: Vec<usize>,
    /// Scratch: columns touched by sparse PRICE (`α`'s support).
    apat: Vec<usize>,
    /// Column marks + stamp deduplicating sparse PRICE touches.
    amark: Vec<u32>,
    astamp: u32,
    /// Hot reuses since the last factorisation (numerical hygiene).
    age: u32,
    iterations: u64,
    work: u64,
}

impl Engine {
    /// Loads `model` under `bounds` and `config`, whatever the engine held
    /// before: afterwards it is in the state a newly built engine would
    /// be in — all-slack bookkeeping, clean scratch, and an identity
    /// factorisation whose `m` set-up ticks the first solve drains — but
    /// every vector keeps its allocation. The row-major companion is
    /// rebuilt only when the model's CSC matrix is not the one already
    /// loaded.
    fn load(&mut self, model: &Model, bounds: &[(f64, f64)], config: &LpConfig) {
        let a = model.csc();
        if !Arc::ptr_eq(&self.a, &a) {
            self.rows = a.to_row_major();
            self.a = a;
        }
        let m = model.num_constraints();
        let n = model.num_vars();
        let n_total = n + m;
        self.m = m;
        self.n = n;
        self.n_total = n_total;
        refill(&mut self.lower, n_total, 0.0);
        refill(&mut self.upper, n_total, f64::INFINITY);
        for j in 0..n {
            (self.lower[j], self.upper[j]) = bounds[j];
        }
        refill(&mut self.rhs, m, 0.0);
        for (i, con) in model.constraints().iter().enumerate() {
            self.rhs[i] = con.rhs;
            let s = n + i;
            match con.sense {
                ConstraintSense::Le => {
                    self.lower[s] = 0.0;
                    self.upper[s] = f64::INFINITY;
                }
                ConstraintSense::Ge => {
                    self.lower[s] = f64::NEG_INFINITY;
                    self.upper[s] = 0.0;
                }
                ConstraintSense::Eq => {
                    self.lower[s] = 0.0;
                    self.upper[s] = 0.0;
                }
            }
        }
        refill(&mut self.cost, n_total, 0.0);
        for &(v, c) in model.objective() {
            self.cost[v.index()] = c;
        }
        self.cost_nnz = self.cost.iter().filter(|&&c| c != 0.0).count();
        self.base_cost = None;
        refill(&mut self.status, n_total, VarStatus::AtLower);
        refill(&mut self.basis, m, 0);
        refill(&mut self.in_row, n_total, usize::MAX);
        self.factor.reset(m);
        self.opts = config.factor_opts();
        refill(&mut self.devex, m, 1.0);
        self.devex_max = 1.0;
        refill(&mut self.beta, m, 0.0);
        refill(&mut self.d, n_total, 0.0);
        refill(&mut self.alpha, n_total, 0.0);
        self.alpha_dirty = false;
        refill(&mut self.w, m, 0.0);
        refill(&mut self.rho, m, 0.0);
        refill(&mut self.flip_rhs, m, 0.0);
        self.cands.clear();
        for pattern in [
            &mut self.flips,
            &mut self.pat,
            &mut self.rpat,
            &mut self.wpat,
            &mut self.apat,
        ] {
            pattern.clear();
        }
        refill(&mut self.amark, n_total, 0);
        self.astamp = 0;
        self.age = 0;
        self.iterations = 0;
        self.work = 0;
    }

    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => self.lower[j],
            VarStatus::AtUpper => self.upper[j],
            VarStatus::Basic => unreachable!("basic column has no bound value"),
        }
    }

    /// Returns `true` if this engine's live state is exactly the snapshot
    /// `warm` for the same constraint matrix *and* objective, under the
    /// same factorisation options. The cost check matters:
    /// the hot path reuses the engine's reduced costs, so a caller that
    /// mutated the objective between solves must not land here (it falls
    /// through to the install path, which reprices).
    fn matches(&self, model: &Model, warm: &Basis, config: &LpConfig) -> bool {
        self.opts == config.factor_opts()
            && Arc::ptr_eq(&self.a, &model.csc())
            && warm.cols == self.basis
            && warm.status == self.status
            && self.cost_matches(model)
    }

    /// Checks that the engine's structural cost vector still equals the
    /// model's objective (terms are normalised: merged, zeros dropped).
    fn cost_matches(&self, model: &Model) -> bool {
        model
            .objective()
            .iter()
            .all(|&(v, c)| self.cost[v.index()].to_bits() == c.to_bits())
            && self.cost_nnz == model.objective().len()
    }

    /// Hot warm start: the basis is already installed and factorised; only
    /// variable bounds changed. Folds every `Δx · A_j` into one right-hand
    /// side and applies a single FTRAN (`β -= B⁻¹ Σ Δx_j A_j`), leaving
    /// reduced costs untouched (dual feasibility is unaffected by bound
    /// *values*). Returns `false` when a bound change forced a nonbasic
    /// column onto its other side and the stored reduced cost is dual
    /// infeasible there, or freed a nonbasic column (both bounds
    /// infinite, so no side to rest on). Either way the installed basis
    /// no longer fits the bounds: the caller must reload the engine
    /// instead of running it.
    fn retarget_bounds(&mut self, bounds: &[(f64, f64)]) -> bool {
        let mut flips_ok = true;
        let mut any = false;
        for j in 0..self.n {
            let (nl, nu) = bounds[j];
            if nl.to_bits() == self.lower[j].to_bits() && nu.to_bits() == self.upper[j].to_bits() {
                continue;
            }
            let was_fixed = self.upper[j] - self.lower[j] <= TOL;
            let old = match self.status[j] {
                VarStatus::Basic => {
                    // Basic columns carry no bound value; the dual simplex
                    // simply sees any new violation through `violation`.
                    self.lower[j] = nl;
                    self.upper[j] = nu;
                    continue;
                }
                VarStatus::AtLower => self.lower[j],
                VarStatus::AtUpper => self.upper[j],
            };
            self.lower[j] = nl;
            self.upper[j] = nu;
            // Fixed columns are exempt from every dual-feasibility check
            // (they can never enter), so a column widening back out of
            // fixedness may carry a stale, infeasible reduced cost — only
            // a reprice can vouch for it.
            if was_fixed && nu - nl > TOL {
                flips_ok &= match self.status[j] {
                    VarStatus::AtLower => self.d[j] >= -DFEAS,
                    VarStatus::AtUpper => self.d[j] <= DFEAS,
                    VarStatus::Basic => unreachable!(),
                };
            }
            // A free column has no finite side to rest on: only the
            // reinstall (which reloads every vector) can judge the basis.
            if !nl.is_finite() && !nu.is_finite() {
                flips_ok = false;
                continue;
            }
            // Keep the nonbasic column on a finite side; a side switch is
            // only dual feasible if the reduced cost sign allows it.
            if self.status[j] == VarStatus::AtLower && !nl.is_finite() {
                self.status[j] = VarStatus::AtUpper;
                flips_ok &= self.d[j] <= DFEAS;
            } else if self.status[j] == VarStatus::AtUpper && !nu.is_finite() {
                self.status[j] = VarStatus::AtLower;
                flips_ok &= self.d[j] >= -DFEAS;
            }
            let new = self.nonbasic_value(j);
            let dx = new - old;
            if dx != 0.0 {
                self.a.axpy_col(&mut self.flip_rhs, dx, j);
                any = true;
                self.work += self.a.col_nnz(j).max(1) as u64;
            }
        }
        if any {
            // β -= B⁻¹ Σ Δx_j A_j: one solve for the whole bound batch.
            self.factor.ftran(&mut self.flip_rhs);
            for (bi, dv) in self.beta.iter_mut().zip(self.flip_rhs.iter()) {
                *bi -= dv;
            }
            self.flip_rhs.fill(0.0);
            self.work += self.m as u64 + self.factor.take_work();
        }
        self.age += 1;
        flips_ok
    }

    /// Grows the live engine in place after `model` gained rows
    /// `old_m..` — the incremental-row (cutting plane) path behind
    /// [`LpSession::add_rows`](crate::LpSession::add_rows). The new
    /// logical slacks enter the basis in the new rows, so the basis
    /// stays square and **dual feasibility is untouched**: the duals of
    /// the new rows are zero (slack costs are zero), every existing
    /// reduced cost keeps its value, and the only thing the next solve
    /// has to repair is the primal infeasibility of whichever appended
    /// rows the current point violates — exactly the cut reoptimisation
    /// the dual simplex is made for.
    ///
    /// The factorisation absorbs the growth without starting over: one
    /// sparse BTRAN per new row computes the bordered-growth multipliers
    /// `μ = B⁻ᵀ n` (see [`crate::factor`]), and the update-file policy
    /// decides when the border is folded into a fresh LU — the forced
    /// refactorisation fallback. Returns `false` only when that fallback
    /// refactorisation itself fails (numerically singular grown basis).
    fn add_rows(&mut self, model: &Model, old_m: usize) -> bool {
        let new_m = model.num_constraints();
        debug_assert_eq!(self.m, old_m);
        debug_assert!(new_m > old_m);
        let k = new_m - old_m;
        // Border multipliers against the *pre-growth* factors.
        let mut borders = Vec::with_capacity(k);
        for con in &model.constraints()[old_m..] {
            self.rho.fill(0.0);
            self.pat.clear();
            for &(v, c) in &con.terms {
                let r = self.in_row[v.index()];
                if r != usize::MAX {
                    self.rho[r] = c;
                    self.pat.push(r);
                }
            }
            if self.pat.is_empty() {
                borders.push(Vec::new());
                continue;
            }
            self.factor.btran_sparse(&mut self.rho, &self.pat);
            let mu: Vec<(usize, f64)> = self
                .rho
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(i, &v)| (i, v))
                .collect();
            self.work += (con.terms.len() + mu.len()) as u64 + self.factor.take_work();
            borders.push(mu);
        }
        self.rho.fill(0.0);
        // Column space grows by k logicals (indices n+old_m..), row space
        // by k — both strictly appended, so no existing index moves.
        self.a = model.csc();
        self.m = new_m;
        self.n_total += k;
        for (i, con) in model.constraints()[old_m..].iter().enumerate() {
            let row = old_m + i;
            let (sl, su) = match con.sense {
                ConstraintSense::Le => (0.0, f64::INFINITY),
                ConstraintSense::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintSense::Eq => (0.0, 0.0),
            };
            self.lower.push(sl);
            self.upper.push(su);
            self.cost.push(0.0);
            if let Some(base) = &mut self.base_cost {
                base.push(0.0);
            }
            self.d.push(0.0);
            self.alpha.push(0.0);
            self.status.push(VarStatus::Basic);
            self.in_row.push(row);
            self.basis.push(self.n + row);
            self.rhs.push(con.rhs);
            self.devex.push(1.0);
            // β for the new basic slack: the row's residual at the
            // current point. A violated cut lands outside the slack
            // bounds and becomes the dual simplex's next leaving row.
            let mut s_val = con.rhs;
            for &(v, c) in &con.terms {
                let j = v.index();
                let x = match self.status[j] {
                    VarStatus::Basic => self.beta[self.in_row[j]],
                    _ => self.nonbasic_value(j),
                };
                s_val -= c * x;
            }
            self.beta.push(s_val);
            self.work += con.terms.len() as u64 + 1;
        }
        self.w.resize(new_m, 0.0);
        self.rho.resize(new_m, 0.0);
        self.flip_rhs.resize(new_m, 0.0);
        self.amark.resize(self.n_total, 0);
        self.rows = self.a.to_row_major();
        self.work += self.a.nnz() as u64;
        self.factor.grow(borders);
        self.work += self.factor.take_work();
        // Forced-refactorisation fallback: the border counts towards the
        // update file, so a growth the policy deems too fat is folded
        // into a fresh LU immediately.
        if self.factor.needs_refactor(&self.opts) {
            if !self.refactorize() {
                return false;
            }
            self.refresh_beta();
        }
        true
    }

    /// Objective-delta retarget: reloads the structural costs from the
    /// model and reprices. Returns `false` when the current basis is dual
    /// infeasible for the new objective — the caller must then restart
    /// cold (the dual simplex cannot run from a dual-infeasible point).
    fn retarget_objective(&mut self, model: &Model) -> bool {
        debug_assert!(self.base_cost.is_none(), "no perturbation between solves");
        for c in &mut self.cost[..self.n] {
            *c = 0.0;
        }
        for &(v, c) in model.objective() {
            self.cost[v.index()] = c;
        }
        self.cost_nnz = self.cost[..self.n].iter().filter(|&&c| c != 0.0).count();
        self.work += self.n as u64;
        self.reprice()
    }

    /// Applies the anti-degeneracy cost perturbation: every structural
    /// cost gains a tiny positive, seed-derived amount, breaking the
    /// reduced-cost ties that make set-partitioning cold solves stall on
    /// degenerate dual pivots. The original costs are kept aside for an
    /// exact restore.
    fn apply_perturbation(&mut self, seed: u64) {
        if self.base_cost.is_some() {
            return;
        }
        self.base_cost = Some(self.cost.clone());
        for j in 0..self.n {
            let eps = PERTURB_SCALE * (1.0 + self.cost[j].abs()) * (0.5 + perturb_unit(seed, j));
            self.cost[j] += eps;
        }
        self.work += self.n as u64;
    }

    /// Removes an active cost perturbation and re-verifies the basis
    /// against the true costs. Returns `false` when the perturbed-optimal
    /// basis is dual infeasible for the true objective — the caller must
    /// then restart unperturbed; `true` means the current basis is exactly
    /// optimal for the unperturbed problem (primal feasibility is
    /// untouched by cost changes).
    fn strip_perturbation(&mut self) -> bool {
        let Some(base) = self.base_cost.take() else {
            return true;
        };
        self.cost = base;
        self.reprice()
    }

    /// All-slack dual-feasible start. Returns `false` when no dual-feasible
    /// nonbasic point exists: an improving direction with an infinite
    /// bound, or a free column, which has no finite bound to rest on.
    fn cold_start(&mut self) -> bool {
        for j in 0..self.n {
            let c = self.cost[j];
            self.status[j] = if c > TOL {
                if !self.lower[j].is_finite() {
                    return false;
                }
                VarStatus::AtLower
            } else if c < -TOL {
                if !self.upper[j].is_finite() {
                    return false;
                }
                VarStatus::AtUpper
            } else if self.lower[j].is_finite() {
                VarStatus::AtLower
            } else if self.upper[j].is_finite() {
                VarStatus::AtUpper
            } else {
                return false;
            };
        }
        for i in 0..self.m {
            let s = self.n + i;
            self.basis[i] = s;
            self.status[s] = VarStatus::Basic;
            self.in_row[s] = i;
        }
        self.factor.reset_identity();
        self.devex.fill(1.0);
        self.devex_max = 1.0;
        // β = b − N x_N; with B = I (slacks) no solve is needed.
        self.beta.copy_from_slice(&self.rhs);
        let mut acc = std::mem::take(&mut self.beta);
        for j in 0..self.n {
            let x = self.nonbasic_value(j);
            self.a.axpy_col(&mut acc, -x, j);
        }
        self.beta = acc;
        // Slack costs are zero, so y = 0 and d = c.
        self.d.copy_from_slice(&self.cost);
        self.age = 0;
        self.work += (self.a.nnz() + self.n_total) as u64 + self.factor.take_work();
        true
    }

    /// Installs a basis snapshot: refactorises the basis, reprices, and
    /// checks dual feasibility. Returns `false` if the snapshot is
    /// unusable.
    fn install(&mut self, warm: &Basis) -> bool {
        if !warm.is_consistent(self.m, self.n_total) {
            return false;
        }
        self.status.copy_from_slice(&warm.status);
        self.basis.copy_from_slice(&warm.cols);
        for j in 0..self.n_total {
            self.in_row[j] = usize::MAX;
        }
        for (i, &c) in self.basis.iter().enumerate() {
            self.in_row[c] = i;
        }
        // Nonbasic statuses must sit on finite bounds; a nonbasic free
        // column has none, so the snapshot is unusable.
        for j in 0..self.n_total {
            match self.status[j] {
                VarStatus::Basic => {}
                VarStatus::AtLower if !self.lower[j].is_finite() => {
                    if !self.upper[j].is_finite() {
                        return false;
                    }
                    self.status[j] = VarStatus::AtUpper;
                }
                VarStatus::AtUpper if !self.upper[j].is_finite() => {
                    if !self.lower[j].is_finite() {
                        return false;
                    }
                    self.status[j] = VarStatus::AtLower;
                }
                _ => {}
            }
        }
        if !self.refactorize() {
            return false;
        }
        self.devex.fill(1.0);
        self.devex_max = 1.0;
        if !self.reprice() {
            return false;
        }
        self.refresh_beta();
        true
    }

    /// Recomputes reduced costs `d = c − c_B B⁻¹ A` and gates on dual
    /// feasibility. Returns `false` when the basis is dual infeasible.
    fn reprice(&mut self) -> bool {
        // y = B⁻ᵀ c_B via one BTRAN on the basic-cost vector; the
        // non-zero basic costs are its pattern, so the hyper-sparse
        // kernel can restrict itself to their reach.
        self.rho.fill(0.0);
        self.pat.clear();
        for (r, &b) in self.basis.iter().enumerate() {
            let cb = self.cost[b];
            if cb != 0.0 {
                self.rho[r] = cb;
                self.pat.push(r);
            }
        }
        if !self.pat.is_empty() {
            self.factor.btran_sparse(&mut self.rho, &self.pat);
        }
        let mut feasible = true;
        for j in 0..self.n_total {
            if self.status[j] == VarStatus::Basic {
                self.d[j] = 0.0;
                continue;
            }
            self.d[j] = if j < self.n {
                self.cost[j] - self.a.dot_col(&self.rho, j)
            } else {
                -self.rho[j - self.n]
            };
            if self.upper[j] - self.lower[j] <= TOL {
                continue; // fixed columns cannot move; their sign is moot
            }
            let ok = match self.status[j] {
                VarStatus::AtLower => self.d[j] >= -DFEAS,
                VarStatus::AtUpper => self.d[j] <= DFEAS,
                VarStatus::Basic => unreachable!(),
            };
            if !ok {
                feasible = false;
                break;
            }
        }
        // The dual loop keeps `rho` all-zero between uses; restore the
        // invariant after borrowing it for the dual prices — on the
        // infeasible exit too, since the caller restarts through paths
        // that assume clean scratch.
        self.rho.fill(0.0);
        self.work += (2 * self.m + self.a.nnz() + self.n_total) as u64 + self.factor.take_work();
        feasible
    }

    /// Restores the all-zero invariant on the pricing scratch (`rho` and
    /// `alpha`) after an iteration that aborted between PRICE and the
    /// end-of-iteration cleanup. Zeroes over the tracked patterns when
    /// the solves were hyper-sparse, densely otherwise.
    fn clear_price_scratch(&mut self, rho_tracked: bool, price_sparse: bool) {
        if rho_tracked {
            for &i in &self.rpat {
                self.rho[i] = 0.0;
            }
            self.work += self.rpat.len() as u64;
        } else {
            self.rho.fill(0.0);
            self.work += self.m as u64;
        }
        if price_sparse {
            for &j in &self.apat {
                self.alpha[j] = 0.0;
            }
            self.work += self.apat.len() as u64;
        }
        // Dense sweeps stay parked under `alpha_dirty` (set when the
        // sweep ran); whoever needs clean α clears it lazily.
    }

    /// Recomputes `β = B⁻¹ (b − N x_N)` from scratch.
    fn refresh_beta(&mut self) {
        self.rho.copy_from_slice(&self.rhs);
        for j in 0..self.n_total {
            if self.status[j] == VarStatus::Basic {
                continue;
            }
            let x = self.nonbasic_value(j);
            if x == 0.0 {
                continue;
            }
            if j < self.n {
                self.a.axpy_col(&mut self.rho, -x, j);
            } else {
                self.rho[j - self.n] -= x;
            }
        }
        self.factor.ftran(&mut self.rho);
        self.beta.copy_from_slice(&self.rho);
        // The dual loop keeps `rho` all-zero between uses; restore the
        // invariant after borrowing it as dense scratch.
        self.rho.fill(0.0);
        self.work += (2 * self.m + self.a.nnz()) as u64 + self.factor.take_work();
    }

    /// Rebuilds the factorisation from the current basis columns.
    fn refactorize(&mut self) -> bool {
        let ok = self.factor.factorize(&self.basis, &self.a, self.n);
        self.work += self.factor.take_work();
        if ok {
            self.age = 0;
        }
        ok
    }

    /// Violation of row `i`'s basic variable: `(amount, below_lower)`.
    fn violation(&self, i: usize) -> (f64, bool) {
        let b = self.basis[i];
        if self.beta[i] < self.lower[b] - PFEAS {
            (self.lower[b] - self.beta[i], true)
        } else if self.beta[i] > self.upper[b] + PFEAS {
            (self.beta[i] - self.upper[b], false)
        } else {
            (0.0, false)
        }
    }

    /// The leaving row and its score, and the sum of the rows' violations
    /// in row order. A row is violated when its basic variable lies more
    /// than `PFEAS` outside its bounds. The leaving row is the first
    /// violated row with the largest Devex score `v² / γᵢ`, or under
    /// `bland` the violated row with the smallest basic column index;
    /// `None` when no row is violated.
    fn leaving_row(&self, bland: bool) -> (Option<(usize, f64)>, f64) {
        let mut total = 0.0;
        if bland {
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.m {
                let (v, _) = self.violation(i);
                if v > 0.0 {
                    total += v;
                    if leave.is_none_or(|(r, _)| self.basis[i] < self.basis[r]) {
                        leave = Some((i, v * v / self.devex[i]));
                    }
                }
            }
            return (leave, total);
        }
        // One pass over the row slices; the violation and its score are
        // computed for every row (zero where feasible, which leaves the
        // sum's bits unchanged), so only a new best row branches.
        let (lower, upper) = (&self.lower[..], &self.upper[..]);
        let (mut row, mut best) = (usize::MAX, 0.0);
        let rows = self.basis.iter().zip(&self.beta).zip(&self.devex);
        for (i, ((&b, &x), &weight)) in rows.enumerate() {
            let (lo, hi) = (lower[b], upper[b]);
            let v = if x < lo - PFEAS {
                lo - x
            } else if x > hi + PFEAS {
                x - hi
            } else {
                0.0
            };
            total += v;
            let score = v * v / weight;
            if v > 0.0 && (row == usize::MAX || score > best) {
                (row, best) = (i, score);
            }
        }
        ((row != usize::MAX).then_some((row, best)), total)
    }

    /// Dual simplex main loop. Dual feasibility is an invariant; the loop
    /// ends when primal feasibility is reached (optimal), a violated row
    /// admits no entering column (infeasible), or a budget/stability limit
    /// trips.
    #[allow(clippy::too_many_lines)]
    fn dual_simplex(&mut self, max_iterations: u64, work_limit: u64) -> RunStatus {
        let mut stall = 0u32;
        let mut was_bland = false;
        let mut last_infeasibility = f64::INFINITY;
        // The iteration kernels keep `rho`, `w` and `alpha` all-zero
        // between uses, scattering and re-zeroing over the tracked solve
        // patterns instead of sweeping dense vectors. Every path into
        // here maintains the invariant (constructors and resizes start
        // zeroed; `reprice`/`refresh_beta` restore it;
        // the dirty mid-iteration exits below clean up before returning),
        // so entry costs nothing — just assert it in debug builds.
        debug_assert!(self.rho.iter().all(|&v| v == 0.0), "rho scratch dirty");
        debug_assert!(self.w.iter().all(|&v| v == 0.0), "w scratch dirty");
        debug_assert!(
            self.alpha_dirty || self.alpha.iter().all(|&v| v == 0.0),
            "alpha scratch dirty without its flag"
        );
        loop {
            // --- Leaving row: the largest Devex-weighted violation
            // `v² / γᵢ`; under stall, the violated row with the smallest
            // basic column index (Bland-like). ---
            let bland = stall > STALL_LIMIT;
            // Devex reference-framework lifecycle: the weights approximate
            // steepest-edge norms *relative to the basis at the last
            // reset*. They deliberately survive refactorisations (the
            // basis is unchanged by a refactorisation, so the framework is
            // still valid), but a Bland-guard episode pivots without
            // regard for the weights — reset the framework on entry so
            // the degenerate thrash does not distort it, and again on
            // exit so Devex resumes from a fresh reference basis.
            if bland != was_bland {
                was_bland = bland;
                self.devex.fill(1.0);
                self.devex_max = 1.0;
                self.work += self.m as u64;
            }
            let (leave, total_infeasibility) = self.leaving_row(bland);
            self.work += self.m as u64;
            let Some((r, _)) = leave else {
                return RunStatus::Optimal;
            };
            // Budget checks live here, after the leaving-row scan: the
            // scratch invariant still holds (no tracked solve has run this
            // iteration), so bailing out needs no cleanup. `work` counts
            // any carried-over ticks from failed warm/perturbed attempts,
            // making `work_limit` a cap on the *whole* solve.
            if self.iterations >= max_iterations || self.work >= work_limit {
                return RunStatus::IterLimit;
            }
            if total_infeasibility < last_infeasibility - tol::OBJ_AGREE {
                stall = 0;
                last_infeasibility = total_infeasibility;
            } else {
                stall += 1;
            }

            let bcol = self.basis[r];
            let (_, below) = self.violation(r);
            let delta0 = if below {
                self.beta[r] - self.lower[bcol] // < 0
            } else {
                self.beta[r] - self.upper[bcol] // > 0
            };

            // --- Entering column: dual ratio test over eligible nonbasics.
            // α is the leaving row of the tableau: ρ = e_r B⁻¹ via a
            // pattern-tracked BTRAN (`rho` is all-zero on entry), then
            // priced row-wise over ρ's support (sparse PRICE) — only the
            // columns adjacent to ρ's non-zero rows can price non-zero.
            let rho_tracked = self
                .factor
                .btran_unit_tracked(r, &mut self.rho, &mut self.rpat);
            self.work += self.factor.take_work();
            // Sparse PRICE only pays when ρ's adjacency is genuinely
            // sparser than one dense sweep: on small dense bases (a
            // handful of rows touching every column) the row walk visits
            // the whole matrix anyway and the dense sweep is cheaper.
            let price_sparse = rho_tracked && {
                let support: usize = self.rpat.iter().map(|&i| self.rows.row_nnz(i) + 1).sum();
                2 * support <= self.a.nnz() + self.n_total
            };
            self.cands.clear();
            if price_sparse {
                if self.alpha_dirty {
                    // A previous dense sweep left α populated; the
                    // accumulation below needs a clean slate.
                    self.alpha.fill(0.0);
                    self.alpha_dirty = false;
                    self.work += self.n_total as u64;
                }
                self.astamp = self.astamp.wrapping_add(1);
                if self.astamp == 0 {
                    self.amark.fill(0);
                    self.astamp = 1;
                }
                self.apat.clear();
                let mut visited = 0u64;
                for &i in &self.rpat {
                    let ri = self.rho[i];
                    if ri == 0.0 {
                        continue;
                    }
                    // Row i's logical column prices to ρᵢ directly.
                    self.alpha[self.n + i] = ri;
                    self.apat.push(self.n + i);
                    let (cols, vals) = self.rows.row(i);
                    for (&j, &v) in cols.iter().zip(vals) {
                        self.alpha[j] += ri * v;
                        if self.amark[j] != self.astamp {
                            self.amark[j] = self.astamp;
                            self.apat.push(j);
                        }
                    }
                    visited += cols.len() as u64 + 1;
                }
                // Canonical (ascending column) candidate order, so the
                // ratio-test tie-breaks are independent of ρ's pattern
                // order.
                self.apat.sort_unstable();
                for &j in &self.apat {
                    if self.status[j] == VarStatus::Basic || self.upper[j] - self.lower[j] <= TOL {
                        continue; // basic, or fixed: can never enter
                    }
                    let aj = self.alpha[j];
                    // Sign-normalised entry: positive = "x_j must rise".
                    let ap = if delta0 > 0.0 { aj } else { -aj };
                    let eligible = match self.status[j] {
                        VarStatus::AtLower => ap > TOL,
                        VarStatus::AtUpper => ap < -TOL,
                        VarStatus::Basic => unreachable!(),
                    };
                    if eligible {
                        self.cands.push((self.d[j] / ap, j, ap));
                    }
                }
                self.work += visited + 2 * self.apat.len() as u64;
            } else {
                // Dense ρ: the classic column sweep.
                for j in 0..self.n_total {
                    if self.status[j] == VarStatus::Basic {
                        self.alpha[j] = 0.0;
                        continue;
                    }
                    let aj = if j < self.n {
                        self.a.dot_col(&self.rho, j)
                    } else {
                        self.rho[j - self.n]
                    };
                    self.alpha[j] = aj;
                    if self.upper[j] - self.lower[j] <= TOL {
                        continue; // fixed: can never enter
                    }
                    let ap = if delta0 > 0.0 { aj } else { -aj };
                    let eligible = match self.status[j] {
                        VarStatus::AtLower => ap > TOL,
                        VarStatus::AtUpper => ap < -TOL,
                        VarStatus::Basic => unreachable!(),
                    };
                    if eligible {
                        self.cands.push((self.d[j] / ap, j, ap));
                    }
                }
                self.work += (self.a.nnz() + self.n_total) as u64;
                self.alpha_dirty = true;
            }
            if self.cands.is_empty() {
                // The violated row proves the bound system inconsistent.
                // ρ and α are live at this point: restore the all-zero
                // scratch invariant before handing the engine back.
                self.clear_price_scratch(rho_tracked, price_sparse);
                return RunStatus::Infeasible;
            }

            // --- Entering selection. The bound-flipping (long-step) ratio
            // test walks candidates by ascending ratio: while the leaving
            // row's infeasibility can absorb a boxed candidate's full
            // bound span, flip it instead of entering it; the first
            // candidate that exhausts the slope (or is unboxed) enters.
            // Under the Bland guard the plain min-ratio test runs. ---
            self.flips.clear();
            let q = if !bland && self.cands.len() > 1 {
                self.cands
                    .sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                let mut slope = delta0.abs();
                let mut chosen = None;
                for (idx, &(_, j, ap)) in self.cands.iter().enumerate() {
                    let span = self.upper[j] - self.lower[j];
                    if idx + 1 == self.cands.len() || !span.is_finite() {
                        chosen = Some(j);
                        break;
                    }
                    let next = slope - ap.abs() * span;
                    if next > FLIP_SLOPE_TOL {
                        self.flips.push(j);
                        slope = next;
                    } else {
                        chosen = Some(j);
                        break;
                    }
                }
                // lint: allow(panic-path) — the walk's final iteration unconditionally sets `chosen` (both branch arms do); reaching here with None is impossible
                chosen.expect("candidate walk always selects an entering column")
            } else {
                let mut best: Option<(f64, usize)> = None;
                for &(ratio, j, _) in &self.cands {
                    if best.is_none_or(|(br, _)| ratio < br - tol::ZERO) {
                        best = Some((ratio, j));
                    }
                }
                // lint: allow(panic-path) — this arm is only entered when `self.cands` is non-empty, so the fold found at least one candidate
                best.expect("candidates are non-empty").1
            };

            // Apply the flips: statuses switch sides and one FTRAN folds
            // every Δx into β (their reduced costs are corrected by the
            // dual update below, which runs over all nonbasic columns).
            if !self.flips.is_empty() {
                let mut nnz_work = 0u64;
                for k in 0..self.flips.len() {
                    let j = self.flips[k];
                    let old = self.nonbasic_value(j);
                    self.status[j] = match self.status[j] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        VarStatus::Basic => unreachable!("flip candidates are nonbasic"),
                    };
                    let dx = self.nonbasic_value(j) - old;
                    if dx != 0.0 {
                        if j < self.n {
                            self.a.axpy_col(&mut self.flip_rhs, dx, j);
                            nnz_work += self.a.col_nnz(j) as u64;
                        } else {
                            self.flip_rhs[j - self.n] += dx;
                            nnz_work += 1;
                        }
                    }
                }
                self.factor.ftran(&mut self.flip_rhs);
                for (bi, dv) in self.beta.iter_mut().zip(self.flip_rhs.iter()) {
                    *bi -= dv;
                }
                self.flip_rhs.fill(0.0);
                self.work += nnz_work + self.m as u64 + self.factor.take_work();
            }

            // --- Pivot. w = B⁻¹ A_q gives the primal update column; the
            // entering column's row pattern seeds the hyper-sparse FTRAN
            // and the result pattern drives every consumer below (`w` is
            // all-zero on entry).
            let w_tracked = if q < self.n {
                self.a.axpy_col(&mut self.w, 1.0, q);
                self.factor
                    .ftran_sparse_tracked(&mut self.w, self.a.col(q).0, &mut self.wpat)
            } else {
                let slack_row = [q - self.n];
                self.w[slack_row[0]] = 1.0;
                self.factor
                    .ftran_sparse_tracked(&mut self.w, &slack_row, &mut self.wpat)
            };
            self.work += self.factor.take_work();
            let wr = self.w[r];
            if wr.abs() < tol::PIVOT_MIN {
                // ρ, α and w are live: restore the all-zero scratch
                // invariant before handing the engine back.
                self.clear_price_scratch(rho_tracked, price_sparse);
                if w_tracked {
                    for &i in &self.wpat {
                        self.w[i] = 0.0;
                    }
                    self.work += self.wpat.len() as u64;
                } else {
                    self.w.fill(0.0);
                    self.work += self.m as u64;
                }
                return RunStatus::Unstable;
            }

            // Dual price update keeps d consistent without repricing;
            // α is zero outside its support, so its pattern suffices.
            let theta_d = self.d[q] / self.alpha[q];
            if theta_d != 0.0 {
                if price_sparse {
                    for &j in &self.apat {
                        if self.status[j] != VarStatus::Basic {
                            self.d[j] -= theta_d * self.alpha[j];
                        }
                    }
                    self.work += self.apat.len() as u64;
                } else {
                    for j in 0..self.n_total {
                        if self.status[j] != VarStatus::Basic {
                            self.d[j] -= theta_d * self.alpha[j];
                        }
                    }
                    self.work += self.n_total as u64;
                }
            }
            self.d[q] = 0.0;
            self.d[bcol] = -theta_d;

            // Primal step from the post-flip violation: entering moves by
            // t, basics move against w (over w's support).
            let delta = if below {
                self.beta[r] - self.lower[bcol]
            } else {
                self.beta[r] - self.upper[bcol]
            };
            let t = delta / wr;
            let x_q = self.nonbasic_value(q);
            if w_tracked {
                for &i in &self.wpat {
                    self.beta[i] -= t * self.w[i];
                }
                self.work += self.wpat.len() as u64;
            } else {
                for (bi, &wi) in self.beta.iter_mut().zip(self.w.iter()) {
                    *bi -= t * wi;
                }
                self.work += self.m as u64;
            }
            self.beta[r] = x_q + t;

            // Devex weight maintenance within the reference framework
            // (only w's support can raise a weight; the reset trigger is
            // the incrementally maintained running maximum).
            let wr2 = wr * wr;
            let gr = self.devex[r].max(1.0);
            if w_tracked {
                for &i in &self.wpat {
                    let wi = self.w[i];
                    if i != r && wi != 0.0 {
                        let cand = (wi * wi / wr2) * gr;
                        if cand > self.devex[i] {
                            self.devex[i] = cand;
                            if cand > self.devex_max {
                                self.devex_max = cand;
                            }
                        }
                    }
                }
                self.work += self.wpat.len() as u64;
            } else {
                for (i, wi) in self.w.iter().enumerate() {
                    if i != r && *wi != 0.0 {
                        let cand = (wi * wi / wr2) * gr;
                        if cand > self.devex[i] {
                            self.devex[i] = cand;
                            if cand > self.devex_max {
                                self.devex_max = cand;
                            }
                        }
                    }
                }
                self.work += self.m as u64;
            }
            self.devex[r] = (gr / wr2).max(1.0);
            if self.devex[r] > self.devex_max {
                self.devex_max = self.devex[r];
            }
            if self.devex_max > DEVEX_RESET {
                self.devex.fill(1.0); // new reference framework
                self.devex_max = 1.0;
                self.work += self.m as u64;
            }

            // Basis bookkeeping before the representation update: a
            // declined Forrest–Tomlin update refactorises from the *new*
            // basis columns, so they must be committed first.
            self.status[bcol] = if below {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            };
            self.in_row[bcol] = usize::MAX;
            self.status[q] = VarStatus::Basic;
            self.in_row[q] = r;
            self.basis[r] = q;
            self.iterations += 1;

            // Representation update: the in-place Forrest–Tomlin spike.
            // An update the LU cannot absorb (a numerically degenerate
            // diagonal) forces an immediate refactorisation, exactly like
            // the update-file policy. A tracked `w` hands its pattern
            // over, so a hyper-sparse one is walked instead of every slot
            // swept.
            let absorbed = if w_tracked {
                self.factor
                    .update_sparse(r, &self.w, &self.wpat, &self.opts)
            } else {
                self.factor.update(r, &self.w, &self.opts)
            };
            self.work += self.factor.take_work();

            // Restore the all-zero scratch invariants over the patterns
            // the iteration actually touched.
            if w_tracked {
                for &i in &self.wpat {
                    self.w[i] = 0.0;
                }
                self.work += self.wpat.len() as u64;
            } else {
                self.w.fill(0.0);
                self.work += self.m as u64;
            }
            if rho_tracked {
                for &i in &self.rpat {
                    self.rho[i] = 0.0;
                }
                self.work += self.rpat.len() as u64;
            } else {
                self.rho.fill(0.0);
                self.work += self.m as u64;
            }
            if price_sparse {
                for &j in &self.apat {
                    self.alpha[j] = 0.0;
                }
                self.work += self.apat.len() as u64;
            }
            // Dense sweeps leave α populated (`alpha_dirty`): the next
            // dense sweep overwrites it wholesale, and a sparse one
            // clears it first — re-zeroing here would charge m-sized
            // work the old dense kernel never paid.

            // Periodic refactorisation folds the update file back into a
            // fresh LU and recomputes β against it. (The Devex weights
            // survive on purpose: refactorisation changes the numbers,
            // not the basis, so the reference framework stays valid.)
            if !absorbed || self.factor.needs_refactor(&self.opts) {
                if !self.refactorize() {
                    return RunStatus::Unstable;
                }
                self.refresh_beta();
            }
        }
    }

    /// Structural variable values at the current basis, clamped to
    /// bounds. A pair crossed by less than the LP tolerance (the session
    /// passes those on) counts as fixed at its upper bound.
    fn extract_values(&self) -> Vec<f64> {
        (0..self.n)
            .map(|j| {
                let x = match self.status[j] {
                    VarStatus::AtLower => self.lower[j],
                    VarStatus::AtUpper => self.upper[j],
                    VarStatus::Basic => self.beta[self.in_row[j]],
                };
                let (l, u) = (self.lower[j], self.upper[j]);
                x.clamp(l.min(u), u)
            })
            .collect()
    }

    /// Cheap exactness gate: the solution the engine reports must satisfy
    /// the original rows. Guards against silent numerical drift in the
    /// factorised basis.
    fn verify(&self, model: &Model, values: &[f64]) -> bool {
        model
            .constraints()
            .iter()
            .all(|c| c.is_satisfied(values, VERIFY_TOL))
    }

    fn snapshot(&self) -> Basis {
        Basis {
            cols: self.basis.clone(),
            status: self.status.clone(),
        }
    }
}

/// A reusable revised-simplex context.
///
/// Each context owns one [`Engine`] for its whole life. After an
/// *optimal* solve the engine is kept hot, so that the next solve can
/// warm-start without refactorising when its warm basis is the engine's
/// live basis — the common case in diving loops and branch-and-bound
/// plunges, where consecutive LPs differ by one or a few bound changes.
/// Every other solve (a hot-path miss, the reinstall that confirms a hot
/// infeasibility verdict, a cold restart) reloads the same engine in
/// place, so it reuses the engine's vectors and the factorisation's
/// workspace instead of allocating them again.
#[derive(Default)]
pub(crate) struct LpContext {
    engine: Engine,
    /// Whether `engine` still holds the state of the last optimal solve
    /// (the only state the hot path, row growth and objective deltas may
    /// build on).
    hot: bool,
}

impl LpContext {
    /// Attempts a revised-simplex solve; `Err(spent_ticks)` declines it,
    /// with the deterministic work already burnt by the failed attempts
    /// so the caller can charge it anyway. On optimal solves the second
    /// tuple element carries the basis snapshot for warm-starting
    /// related solves.
    pub(crate) fn solve(
        &mut self,
        model: &Model,
        bounds: &[(f64, f64)],
        config: &LpConfig,
        warm: Option<&Basis>,
    ) -> Result<(LpResult, Option<Basis>), u64> {
        let mut carried_work = 0u64;
        // Factorisation statistics of failed attempts, merged into the
        // eventual result so the bench log (and its growth_peak guard)
        // sees every update the solve actually performed.
        let mut carried_stats = crate::factor::FactorStats::default();
        let engine = &mut self.engine;

        // Hot path: the engine is exactly the requested basis.
        enum Hot {
            Miss,
            Done(Option<(LpResult, Option<Basis>)>, u64),
        }
        let hot = match warm {
            Some(basis)
                if self.hot
                    && engine.age < config.refactor_interval
                    && engine.matches(model, basis, config) =>
            {
                engine.iterations = 0;
                engine.work = 0;
                let outcome = if engine.retarget_bounds(bounds) {
                    run(engine, model, config)
                } else {
                    // A bound change flipped a nonbasic column onto a dual
                    // infeasible side, or freed one: must reinstall and
                    // reprice.
                    None
                };
                let spent = engine.work;
                if outcome.is_none() {
                    // The attempt will be discarded below: salvage its
                    // factorisation counters alongside the spent work.
                    // (An infeasible outcome's counters were already
                    // drained into the result by `run` and are salvaged
                    // from there when it is discarded.)
                    carried_stats.merge(&engine.factor.take_stats());
                }
                Hot::Done(outcome, spent)
            }
            _ => Hot::Miss,
        };
        match hot {
            Hot::Done(Some(out), spent) => {
                if out.0.status == LpStatus::Infeasible {
                    // A drifted factorisation (Forrest–Tomlin updates +
                    // retarget deltas) can fabricate infeasibility, and
                    // branch-and-bound prunes on it permanently. Confirm
                    // with a freshly factorised install of the same
                    // snapshot below, salvaging the discarded attempt's
                    // counters from the result `run` packaged them into.
                    carried_work = spent;
                    carried_stats.merge(&out.0.factor);
                } else {
                    self.hot = out.0.status == LpStatus::Optimal;
                    return Ok(out);
                }
            }
            Hot::Done(None, spent) => {
                // Numerical drift (or an infeasible flip): discard and
                // restart below, carrying the spent work so deterministic
                // budgets stay honest.
                carried_work = spent;
            }
            Hot::Miss => {}
        }
        // Every path below reloads the engine; it is hot again only once
        // a solve ends optimal.
        self.hot = false;

        // Warm path: reinstall the snapshot with a refactorisation.
        if let Some(basis) = warm {
            engine.load(model, bounds, config);
            engine.work += carried_work;
            if engine.install(basis) {
                if let Some(mut out) = run(engine, model, config) {
                    out.0.factor.merge(&carried_stats);
                    self.hot = out.0.status == LpStatus::Optimal;
                    return Ok(out);
                }
            }
            // Unusable or unstable warm basis: retry cold before giving
            // up, carrying the spent work so budgets stay honest.
            carried_work = engine.work;
            carried_stats.merge(&engine.factor.take_stats());
        }

        // Cold path: all-slack dual-feasible start, with the
        // anti-degeneracy cost perturbation on the first attempt. If the
        // perturbed run fails (numerical trouble, or the perturbation
        // cannot be stripped exactly), one unperturbed retry runs before
        // the solve is declined, carrying the spent work.
        let mut perturb = config.perturb;
        loop {
            engine.load(model, bounds, config);
            engine.work += carried_work;
            if perturb {
                engine.apply_perturbation(config.perturb_seed);
            }
            if !engine.cold_start() {
                // Perturbed costs can flip a zero-cost column's preferred
                // bound onto an infinite side; the unperturbed retry
                // decides.
                carried_work = engine.work;
                carried_stats.merge(&engine.factor.take_stats());
                if perturb {
                    perturb = false;
                    continue;
                }
                return Err(carried_work);
            }
            match run(engine, model, config) {
                Some(mut ok) => {
                    ok.0.factor.merge(&carried_stats);
                    self.hot = ok.0.status == LpStatus::Optimal;
                    return Ok(ok);
                }
                None => {
                    carried_work = engine.work;
                    carried_stats.merge(&engine.factor.take_stats());
                    if perturb {
                        perturb = false;
                        continue;
                    }
                    return Err(carried_work);
                }
            }
        }
    }

    /// Incremental row addition: `model` is the session's view *after*
    /// appending rows `old_m..` (grow-only — same columns, same
    /// objective, same leading rows). When the hot engine's state is
    /// exactly `warm` for the pre-growth problem, the engine absorbs the
    /// new rows in place (new slacks basic, bordered factor growth) and
    /// the grown snapshot is returned; otherwise the engine is no longer
    /// hot and the caller's next warm solve reinstalls with a full
    /// refactorisation at the grown dimensions. The second tuple element
    /// is the deterministic work spent either way.
    pub(crate) fn add_rows(
        &mut self,
        model: &Model,
        old_m: usize,
        warm: &Basis,
    ) -> (Option<Basis>, u64) {
        let engine = &mut self.engine;
        let usable = self.hot
            && engine.m == old_m
            && engine.n == model.num_vars()
            && warm.cols == engine.basis
            && warm.status == engine.status
            && engine.cost_matches(model);
        if !usable {
            self.hot = false;
            return (None, 0);
        }
        engine.work = 0;
        if engine.add_rows(model, old_m) {
            let spent = engine.work;
            (Some(engine.snapshot()), spent)
        } else {
            self.hot = false;
            (None, engine.work)
        }
    }

    /// Objective-delta retarget on the hot engine. Returns whether the
    /// warm state survived (dual-feasible reprice) plus the work spent;
    /// on failure the engine is no longer hot and the next solve runs
    /// cold.
    pub(crate) fn set_objective(&mut self, model: &Model) -> (bool, u64) {
        if !self.hot {
            return (false, 0);
        }
        let engine = &mut self.engine;
        engine.work = 0;
        self.hot = engine.retarget_objective(model);
        (self.hot, engine.work)
    }
}

/// One-shot convenience over [`LpContext::solve`] (no state reuse).
#[cfg(test)]
pub(crate) fn solve(
    model: &Model,
    bounds: &[(f64, f64)],
    config: &LpConfig,
    warm: Option<&Basis>,
) -> Option<(LpResult, Option<Basis>)> {
    LpContext::default().solve(model, bounds, config, warm).ok()
}

/// Runs the dual simplex and packages the outcome; `None` sends the
/// caller to its next attempt (numerical trouble or failed
/// verification).
fn run(engine: &mut Engine, model: &Model, config: &LpConfig) -> Option<(LpResult, Option<Basis>)> {
    match engine.dual_simplex(config.max_iterations, config.work_limit) {
        RunStatus::Optimal => {
            // An active cost perturbation must come off before anything is
            // reported: restoring the true costs and repricing proves the
            // basis optimal for the *unperturbed* objective. Failure sends
            // the caller back for an unperturbed restart.
            if !engine.strip_perturbation() {
                return None;
            }
            let values = engine.extract_values();
            if !engine.verify(model, &values) {
                return None;
            }
            let objective = model.objective_value(&values);
            let result = LpResult {
                status: LpStatus::Optimal,
                objective,
                values,
                iterations: engine.iterations,
                work_ticks: engine.work,
                factor: engine.factor.take_stats(),
            };
            let basis = engine.snapshot();
            Some((result, Some(basis)))
        }
        RunStatus::Infeasible => Some((
            LpResult {
                status: LpStatus::Infeasible,
                objective: f64::INFINITY,
                values: Vec::new(),
                iterations: engine.iterations,
                work_ticks: engine.work,
                factor: engine.factor.take_stats(),
            },
            None,
        )),
        RunStatus::IterLimit => {
            let values = engine.extract_values();
            let objective = model.objective_value(&values);
            Some((
                LpResult {
                    status: LpStatus::IterLimit,
                    objective,
                    values,
                    iterations: engine.iterations,
                    work_ticks: engine.work,
                    factor: engine.factor.take_stats(),
                },
                None,
            ))
        }
        RunStatus::Unstable => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarId;
    use crate::Model;

    fn cfg() -> LpConfig {
        LpConfig::default()
    }

    fn two_var_model() -> Model {
        // min -(x + y) s.t. x + 2y <= 4, 3x + y <= 6; optimum (1.6, 1.2).
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0);
        let y = m.add_continuous(0.0, 10.0);
        m.add_constraint(m.expr([(x, 1.0), (y, 2.0)]).leq(4.0));
        m.add_constraint(m.expr([(x, 3.0), (y, 1.0)]).leq(6.0));
        m.set_objective(m.expr([(x, -1.0), (y, -1.0)]));
        m
    }

    #[test]
    fn cold_revised_matches_known_optimum() {
        let m = two_var_model();
        let bounds = vec![(0.0, 10.0), (0.0, 10.0)];
        let (res, basis) = solve(&m, &bounds, &cfg(), None).expect("revised path");
        assert_eq!(res.status, LpStatus::Optimal);
        assert!(
            (res.objective + 14.0 / 5.0).abs() < 1e-6,
            "{}",
            res.objective
        );
        assert!(basis.expect("basis on optimal").is_consistent(2, 4));
    }

    #[test]
    fn warm_start_reoptimises_after_bound_change() {
        let m = two_var_model();
        let root = vec![(0.0, 10.0), (0.0, 10.0)];
        let (_, basis) = solve(&m, &root, &cfg(), None).expect("root solve");
        let basis = basis.expect("optimal basis");
        // Tighten x to [0, 1]: warm solve must agree with a cold solve.
        let child = vec![(0.0, 1.0), (0.0, 10.0)];
        let (warm_res, _) = solve(&m, &child, &cfg(), Some(&basis)).expect("warm path");
        let (cold_res, _) = solve(&m, &child, &cfg(), None).expect("cold path");
        assert_eq!(warm_res.status, LpStatus::Optimal);
        assert!((warm_res.objective - cold_res.objective).abs() < 1e-6);
    }

    #[test]
    fn hot_context_skips_refactorisation() {
        let m = two_var_model();
        let root = vec![(0.0, 10.0), (0.0, 10.0)];
        let mut ctx = LpContext::default();
        let (root_res, basis) = ctx.solve(&m, &root, &cfg(), None).expect("root");
        assert_eq!(root_res.status, LpStatus::Optimal);
        let basis = basis.expect("basis");
        // The context still holds the engine for `basis`: the child solve
        // must take the in-place path, which skips the install-path
        // refactorisation and reprice — compare against a fresh context's
        // warm solve.
        let child = vec![(0.0, 1.0), (0.0, 10.0)];
        let (hot, _) = ctx.solve(&m, &child, &cfg(), Some(&basis)).expect("hot");
        let (refac, _) = solve(&m, &child, &cfg(), Some(&basis)).expect("refactor");
        assert_eq!(hot.status, LpStatus::Optimal);
        assert!((hot.objective - refac.objective).abs() < 1e-6);
        assert!(
            hot.work_ticks < refac.work_ticks,
            "{} vs {}",
            hot.work_ticks,
            refac.work_ticks
        );
    }

    type Outcome = Result<(LpResult, Option<Basis>), u64>;

    /// Bit-level comparison of two context outcomes: status, objective
    /// and every value bit for bit, iterations, work ticks,
    /// factorisation statistics and the basis snapshot — or the same
    /// declined work.
    fn assert_same_outcome(got: &Outcome, want: &Outcome, what: &str) {
        match (got, want) {
            (Ok((g, g_basis)), Ok((w, w_basis))) => {
                assert_eq!(g.status, w.status, "{what}: status");
                assert_eq!(
                    g.objective.to_bits(),
                    w.objective.to_bits(),
                    "{what}: objective"
                );
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&g.values), bits(&w.values), "{what}: values");
                assert_eq!(g.iterations, w.iterations, "{what}: iterations");
                assert_eq!(g.work_ticks, w.work_ticks, "{what}: work ticks");
                assert_eq!(g.factor, w.factor, "{what}: factor stats");
                assert_eq!(g_basis, w_basis, "{what}: basis");
            }
            (Err(g), Err(w)) => assert_eq!(g, w, "{what}: declined work"),
            _ => panic!("{what}: only one context declined"),
        }
    }

    /// The basis of an optimal outcome.
    fn optimal_basis(out: &Outcome) -> Option<Basis> {
        match out {
            Ok((res, basis)) if res.status == LpStatus::Optimal => basis.clone(),
            _ => None,
        }
    }

    /// One context driven through a branch-and-bound-like request
    /// sequence; every solve that misses the hot path is replayed on a
    /// new context, which must return exactly the same outcome.
    struct Differential {
        ctx: LpContext,
        hits: u32,
        misses: u32,
    }

    impl Differential {
        fn solve(
            &mut self,
            model: &Model,
            bounds: &[(f64, f64)],
            config: &LpConfig,
            warm: Option<&Basis>,
            what: &str,
        ) -> Outcome {
            let engine = &self.ctx.engine;
            let hit = warm.is_some_and(|b| {
                self.ctx.hot
                    && engine.age < config.refactor_interval
                    && engine.matches(model, b, config)
            });
            let got = self.ctx.solve(model, bounds, config, warm);
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
                let want = LpContext::default().solve(model, bounds, config, warm);
                assert_same_outcome(&got, &want, what);
            }
            got
        }

        /// Dives `depth` levels below `(bounds, parent)`, fixing one more
        /// variable per level. Both children of a level warm-start from
        /// the parent's snapshot: the first finds the engine at the
        /// parent (a hit), the second misses. The dive continues from
        /// the child visited last, and the value order alternates per
        /// level.
        fn dive(
            &mut self,
            model: &Model,
            config: &LpConfig,
            mut bounds: Vec<(f64, f64)>,
            mut parent: Basis,
            depth: usize,
            what: &str,
        ) {
            let n = bounds.len();
            for level in 0..depth {
                let j = (2 * level + 1) % n;
                let values = if level % 2 == 0 {
                    [0.0, 1.0]
                } else {
                    [1.0, 0.0]
                };
                let mut next = None;
                for v in values {
                    let mut child = bounds.clone();
                    child[j] = (v, v);
                    let label = format!("{what}: level {level}, x{j} = {v}");
                    let out = self.solve(model, &child, config, Some(&parent), &label);
                    if let Some(basis) = optimal_basis(&out) {
                        next = Some((child, basis));
                    }
                }
                let Some((child, basis)) = next else { break };
                bounds = child;
                parent = basis;
            }
        }
    }

    /// A reloaded engine behaves like a new one: one context is driven,
    /// model after model, through a cold root, dives whose siblings
    /// alternate hot-path hits and misses, an infeasible child (hit and
    /// miss), a `work_limit`-capped solve, an `add_rows` growth and a
    /// return to the ungrown model; every miss must match a new context
    /// bit for bit, ticks and factorisation statistics included.
    #[test]
    fn reloaded_engine_matches_a_new_context() {
        let configs = [
            LpConfig::default(),
            LpConfig {
                refactor_interval: 2,
                ..LpConfig::default()
            },
        ];
        let models = [
            ("ring 10", ring_cover_model(10)),
            ("ring 13", ring_cover_model(13)),
            ("chain 9", chain_model(9).0),
            ("chain 12", chain_model(12).0),
        ];
        for (ci, config) in configs.iter().enumerate() {
            // One context per configuration, so the models follow each
            // other through the same engine, growing and shrinking it.
            let mut run = Differential {
                ctx: LpContext::default(),
                hits: 0,
                misses: 0,
            };
            for (name, model) in &models {
                let what = format!("config {ci}, {name}");
                let n = model.num_vars();
                let m = model.num_constraints();
                let (hits, misses) = (run.hits, run.misses);
                let root_bounds = vec![(0.0, 1.0); n];
                let root = run.solve(model, &root_bounds, config, None, &format!("{what}: root"));
                let root_basis = optimal_basis(&root).expect("root optimal");
                let x0 = root.as_ref().map(|r| r.0.values[0]).unwrap_or_default();
                run.dive(
                    model,
                    config,
                    root_bounds.clone(),
                    root_basis.clone(),
                    n / 2,
                    &what,
                );

                // An infeasible child, first as a miss, then (after a
                // re-solve puts the engine at the root) as a hit, which
                // confirms the verdict with a reinstall.
                let mut infeasible = root_bounds.clone();
                infeasible[0] = (0.0, 0.0);
                infeasible[1] = (0.0, 0.0);
                for pass in ["miss", "hit"] {
                    if pass == "hit" {
                        let label = format!("{what}: root re-solve");
                        let out = run.solve(model, &root_bounds, config, Some(&root_basis), &label);
                        assert!(optimal_basis(&out).is_some(), "{label}");
                    }
                    let label = format!("{what}: infeasible child ({pass})");
                    let out = run.solve(model, &infeasible, config, Some(&root_basis), &label);
                    assert!(
                        matches!(&out, Ok((r, _)) if r.status == LpStatus::Infeasible),
                        "{label}"
                    );
                }

                // A solve capped by its work limit stops before its first
                // pivot: x0 moves off its root value.
                let capped = LpConfig {
                    work_limit: 1,
                    ..*config
                };
                let mut moved = root_bounds.clone();
                let v = 1.0 - x0.round();
                moved[0] = (v, v);
                let label = format!("{what}: capped");
                let out = run.solve(model, &moved, &capped, Some(&root_basis), &label);
                assert!(
                    matches!(&out, Ok((r, _)) if r.status == LpStatus::IterLimit),
                    "{label}"
                );

                // Row growth on the engine hot at the root, then dives on
                // the grown model from the grown snapshot.
                let label = format!("{what}: root before growth");
                let out = run.solve(model, &root_bounds, config, Some(&root_basis), &label);
                assert!(optimal_basis(&out).is_some(), "{label}");
                let mut grown = model.clone();
                let cut = grown.expr([(VarId(0), 1.0), (VarId(1), 1.0), (VarId(2), 1.0)]);
                grown.append_row(cut.geq(2.0));
                let (grown_basis, _) = run.ctx.add_rows(&grown, m, &root_basis);
                let grown_basis = grown_basis.expect("hot engine absorbs the row");
                let label = format!("{what}: grown");
                run.dive(&grown, config, root_bounds.clone(), grown_basis, 3, &label);

                // Back on the ungrown model: the reload must rebuild the
                // row-major companion for the other matrix.
                let label = format!("{what}: back on the ungrown model");
                run.dive(model, config, root_bounds, root_basis, 2, &label);

                assert!(run.hits - hits >= 3, "{what}: {} hits", run.hits - hits);
                assert!(
                    run.misses - misses >= 6,
                    "{what}: {} misses",
                    run.misses - misses
                );
            }
        }
    }

    #[test]
    fn warm_start_detects_child_infeasibility() {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(2.0));
        m.set_objective(m.expr([(x, 1.0), (y, 1.0)]));
        let root = vec![(0.0, 1.0), (0.0, 1.0)];
        let (_, basis) = solve(&m, &root, &cfg(), None).expect("root solve");
        let basis = basis.expect("root optimal");
        // Fixing x = 0 makes the cover impossible.
        let child = vec![(0.0, 0.0), (0.0, 1.0)];
        let (warm, _) = solve(&m, &child, &cfg(), Some(&basis)).expect("warm solve");
        assert_eq!(warm.status, LpStatus::Infeasible);
    }

    #[test]
    fn equality_rows_solved_without_phase_one() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 2.0);
        let y = m.add_continuous(0.0, 2.0);
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).eq(3.0));
        m.set_objective(m.expr([(x, 1.0), (y, 1.0)]));
        let (res, _) = solve(&m, &[(0.0, 2.0), (0.0, 2.0)], &cfg(), None).expect("revised");
        assert_eq!(res.status, LpStatus::Optimal);
        assert!((res.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn bails_on_unbounded_direction() {
        // y has negative cost and no upper bound: no dual-feasible start.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY);
        let y = m.add_continuous(0.0, f64::INFINITY);
        m.add_constraint(m.expr([(x, 1.0), (y, -1.0)]).leq(1.0));
        m.set_objective(m.expr([(y, -1.0)]));
        let bounds = vec![(0.0, f64::INFINITY); 2];
        assert!(solve(&m, &bounds, &cfg(), None).is_none());
    }

    /// A cover-style LP whose dual solve needs a handful of pivots —
    /// enough for `refactor_interval: 2` to force refactorisations in the
    /// middle of the pivot sequence.
    fn chain_model(n: usize) -> (Model, Vec<(f64, f64)>) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.add_continuous(0.0, 1.0)).collect();
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
        let bounds = vec![(0.0, 1.0); n];
        (m, bounds)
    }

    /// Devex-lifecycle regression: a mid-solve refactorisation (forced by
    /// a tiny refactor interval) must leave the pivot sequence fully
    /// deterministic — two identical solves agree on iteration count and
    /// bit-identical objectives/values — and must agree with the
    /// loose-interval solve on the optimum. Guards the audited policy
    /// that Devex weights survive refactorisation (basis unchanged) while
    /// the Bland guard resets the reference framework on entry/exit.
    #[test]
    fn mid_solve_refactorisation_keeps_pivot_sequence_deterministic() {
        let (m, bounds) = chain_model(9);
        let tight = LpConfig {
            refactor_interval: 2,
            ..LpConfig::default()
        };
        let (r1, _) = solve(&m, &bounds, &tight, None).expect("revised path");
        let (r2, _) = solve(&m, &bounds, &tight, None).expect("revised path");
        assert_eq!(r1.status, LpStatus::Optimal);
        assert!(r1.iterations >= 3, "want a mid-solve refactorisation");
        assert_eq!(r1.iterations, r2.iterations, "pivot sequence diverged");
        assert_eq!(r1.objective.to_bits(), r2.objective.to_bits());
        for (a, b) in r1.values.iter().zip(&r2.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The refactorisation cadence must not change the answer either.
        let (loose, _) = solve(&m, &bounds, &LpConfig::default(), None).expect("revised path");
        assert!((r1.objective - loose.objective).abs() < 1e-9);
    }

    /// A long Forrest–Tomlin update file (refactor interval 64) reaches
    /// the optimum that a refactorisation after every pivot (interval 1)
    /// reaches.
    #[test]
    fn long_update_file_keeps_the_optimum() {
        let (m, bounds) = chain_model(12);
        let mut objectives = Vec::new();
        for refactor_interval in [64, 1] {
            let config = LpConfig {
                refactor_interval,
                ..LpConfig::default()
            };
            let (res, _) = solve(&m, &bounds, &config, None).expect("revised path");
            assert_eq!(res.status, LpStatus::Optimal, "{refactor_interval}");
            objectives.push(res.objective);
        }
        assert!(
            (objectives[0] - objectives[1]).abs() < 1e-9,
            "{objectives:?}"
        );
    }

    #[test]
    fn tight_refactor_interval_still_optimal() {
        // Force a refactorisation after every pivot: results must match.
        let m = two_var_model();
        let bounds = vec![(0.0, 10.0), (0.0, 10.0)];
        let config = LpConfig {
            refactor_interval: 1,
            ..LpConfig::default()
        };
        let (res, _) = solve(&m, &bounds, &config, None).expect("revised path");
        assert_eq!(res.status, LpStatus::Optimal);
        assert!((res.objective + 14.0 / 5.0).abs() < 1e-6);
    }

    /// The leaving-row scan as it was before the streaming pass: one
    /// `violation` call and one candidate branch per row.
    fn leaving_row_per_row(engine: &Engine, bland: bool) -> (Option<(usize, f64)>, f64) {
        let mut leave: Option<(usize, f64)> = None;
        let mut total_infeasibility = 0.0;
        for i in 0..engine.m {
            let (v, _) = engine.violation(i);
            if v <= 0.0 {
                continue;
            }
            total_infeasibility += v;
            let score = v * v / engine.devex[i];
            let better = if bland {
                leave.is_none_or(|(r, _)| engine.basis[i] < engine.basis[r])
            } else {
                leave.is_none_or(|(_, s)| score > s)
            };
            if better {
                leave = Some((i, score));
            }
        }
        (leave, total_infeasibility)
    }

    /// The streaming scan picks the per-row loop's row, score and
    /// violation sum, bit for bit, on random engine states: basic values
    /// on a bound, exactly `PFEAS` outside it (not violated) and further
    /// out, infinite bounds, and few distinct violations and weights so
    /// that scores tie.
    #[test]
    fn streaming_leaving_row_matches_per_row_scan() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (mut ties, mut picks) = (0, 0);
        for seed in 0..400 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = rng.gen_range(1..80usize);
            let n_total = m + rng.gen_range(1..40usize);
            let mut e = Engine {
                m,
                ..Engine::default()
            };
            for _ in 0..n_total {
                let lo = [f64::NEG_INFINITY, 0.0, -1.0, 2.5][rng.gen_range(0..4usize)];
                let width = [f64::INFINITY, 0.0, 1.0, 3.0][rng.gen_range(0..4usize)];
                e.lower.push(lo);
                e.upper
                    .push(if lo.is_finite() { lo + width } else { width });
            }
            let offsets = [0.0, PFEAS, 2.0 * PFEAS, 0.5, 1.0];
            for _ in 0..m {
                let b = rng.gen_range(0..n_total);
                let off = offsets[rng.gen_range(0..offsets.len())];
                let (lo, hi) = (e.lower[b], e.upper[b]);
                let x = match rng.gen_range(0..3u32) {
                    0 if lo.is_finite() => lo - off,
                    1 if hi.is_finite() => hi + off,
                    _ if lo.is_finite() => lo,
                    _ => 0.0,
                };
                e.basis.push(b);
                e.beta.push(x);
                e.devex.push([1.0, 2.0, 4.5][rng.gen_range(0..3usize)]);
            }
            for bland in [false, true] {
                let (want, want_total) = leaving_row_per_row(&e, bland);
                let (got, got_total) = e.leaving_row(bland);
                let bits = |leave: Option<(usize, f64)>| leave.map(|(r, s)| (r, s.to_bits()));
                assert_eq!(bits(got), bits(want), "seed {seed}, bland {bland}");
                assert_eq!(
                    got_total.to_bits(),
                    want_total.to_bits(),
                    "seed {seed}, bland {bland}"
                );
                if let (Some((r, best)), false) = (want, bland) {
                    picks += 1;
                    let later_tie = (r + 1..m).any(|i| {
                        let v = e.violation(i).0;
                        v > 0.0 && (v * v / e.devex[i]).total_cmp(&best).is_eq()
                    });
                    ties += usize::from(later_tie);
                }
            }
        }
        assert!(picks > 300 && ties > 100, "{picks} picks, {ties} ties");
    }

    /// Ring cover: every element covered by two adjacent sets — small
    /// integer data, heavy degeneracy, lots of dual pivots under bound
    /// fixing (the bench harness family).
    fn ring_cover_model(n: usize) -> Model {
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.add_binary()).collect();
        for e in 0..n {
            m.add_constraint(m.expr([(vars[e], 1.0), (vars[(e + 1) % n], 1.0)]).geq(1.0));
        }
        m.set_objective(m.expr(vars.iter().map(|&v| (v, 1.0))));
        m
    }
}
