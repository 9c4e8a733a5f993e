//! Cutting planes over binary models: knapsack **cover cuts** and
//! conflict-graph **clique cuts**, separated at the branch-and-bound root
//! and appended to the live relaxation through
//! [`LpSession::add_rows`](crate::LpSession::add_rows).
//!
//! Both families are *globally valid*: they cut off fractional vertices
//! of the LP relaxation but never an integer-feasible point, so rows
//! added at the root stay correct throughout the whole search tree.
//!
//! * **Cover cuts** — a binary knapsack row `Σ a_j x_j ≤ b` (all
//!   `a_j > 0`) admits, for every *minimal cover* `C`
//!   (`Σ_{C} a_j > b`, minimal under removal), the inequality
//!   `Σ_{C} x_j ≤ |C| − 1`; the separator greedily builds a cover around
//!   the fractional point, minimises it, and *extends* it with every
//!   column at least as heavy as the cover's heaviest member (the classic
//!   extended cover, valid for minimal covers).
//! * **Clique cuts** — set-packing rows (`Σ x_j ≤ 1`, including the `≤`
//!   direction of partition equalities) define a conflict graph; any
//!   clique `K` in that graph yields `Σ_{K} x_j ≤ 1`. The separator
//!   greedily grows cliques around high-valued fractional variables,
//!   merging conflicts from *different* rows into inequalities no single
//!   row implies. The cliques presolve extracts
//!   ([`PresolvedModel::cliques`](crate::presolve::PresolvedModel)) seed
//!   the graph on reduced models.
//!
//! A violated cut is only ever *newly* violated: the LP optimum satisfies
//! every row already in the session, so re-separating after a round can
//! not regenerate an added cut.

use crate::expr::{Comparison, ConstraintSense, LinExpr, VarId};
use crate::model::{Model, VarType};
use std::collections::{BTreeSet, HashSet};

/// Violation below which a candidate cut is not worth adding.
const CUT_TOL: f64 = crate::tol::FEAS;
/// Fractional-value floor for clique-growth candidates.
const FRAC_TOL: f64 = crate::tol::INT_FEAS;

/// Which separator produced a cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    /// Extended knapsack cover cut from a binary `≤` row.
    Cover,
    /// Clique cut from the packing-row conflict graph.
    Clique,
}

/// One separated, globally valid cutting plane (always a `≤` row).
#[derive(Debug, Clone)]
pub struct Cut {
    /// Left-hand side terms (unit coefficients for both families).
    pub terms: Vec<(VarId, f64)>,
    /// Right-hand side.
    pub rhs: f64,
    /// Violation at the point it was separated against.
    pub violation: f64,
    /// Producing family.
    pub kind: CutKind,
}

impl Cut {
    /// The cut as a session row.
    #[must_use]
    pub fn into_row(self) -> Comparison {
        LinExpr::from_terms(self.terms).leq(self.rhs)
    }
}

/// Cumulative separation counters for one [`CutSeparator`], surfaced for
/// observability (trace spans, bench logs). Purely observational: reading
/// or ignoring them never changes which cuts are produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeparationStats {
    /// Separation rounds run ([`CutSeparator::separate`] calls).
    pub rounds: u64,
    /// Violated candidates found before ranking/dedup truncation.
    pub candidates: u64,
    /// Cover cuts actually emitted.
    pub cover_cuts: u64,
    /// Clique cuts actually emitted.
    pub clique_cuts: u64,
}

/// One column of a (complemented) knapsack row: weight is always
/// positive; `complemented` marks a column whose original coefficient was
/// negative, entering the knapsack as `x̄ = 1 − x`. Complementation is
/// what lets the cover separator engage **mixed-sign** binary `≤` rows —
/// in particular the gated capacity rows `Σ aⱼxⱼ − c·y ≤ 0` of the
/// set-partitioning formulation, where a cover containing `ȳ` yields the
/// disaggregated `x ≤ y` strengthening the aggregated linking rows lack.
#[derive(Clone, Copy)]
struct KnapItem {
    col: u32,
    weight: f64,
    complemented: bool,
}

/// A binary `≤` row in complemented (all-positive) knapsack form.
struct KnapRow {
    items: Vec<KnapItem>,
    /// Complemented right-hand side `b + Σ_{aⱼ<0} |aⱼ|` (always > 0).
    rhs: f64,
}

/// Stateful separator for one model: built once at the root (knapsack
/// rows + conflict-graph cliques), then queried with successive
/// fractional points. Tracks emitted supports so no cut is produced twice.
pub struct CutSeparator {
    /// Binary `≤` rows in complemented knapsack form.
    knap_rows: Vec<KnapRow>,
    /// Cliques the conflict graph is built from: the model's packing
    /// rows, then the given cliques, each as its binary members.
    cliques: Vec<Vec<u32>>,
    /// Columns of the model.
    n: usize,
    /// The conflict graph, built by the first [`separate`](Self::separate)
    /// call: a root whose LP stops early never pays for it.
    graph: Option<ConflictGraph>,
    /// Supports already emitted (family tag + sign-encoded columns).
    /// Ordered set: dedup keys, but safe to iterate (e.g. when dumping
    /// separator state) without a determinism hazard.
    seen: BTreeSet<Vec<u32>>,
    /// Observational separation counters.
    stats: SeparationStats,
}

/// The conflict graph over the binary columns.
struct ConflictGraph {
    /// Conflict-graph adjacency per column (binary columns only).
    ///
    /// **Membership-only by contract**: these sets are probed with
    /// `insert`/`contains`/`is_empty` and never iterated — every
    /// traversal that feeds cut emission walks the sorted `in_graph` /
    /// candidate vectors instead, so the hash order can never leak into
    /// results. The workspace `hash-iteration` lint enforces this; an
    /// iteration added here must switch the field to `BTreeSet` first.
    adj: Vec<HashSet<u32>>,
    /// Columns with any conflict, for the clique growth candidate sweep.
    in_graph: Vec<u32>,
}

impl ConflictGraph {
    /// Every pair of distinct members of each clique, then the pairwise
    /// knapsack conflicts.
    fn build(n: usize, cliques: &[Vec<u32>], knap_rows: &[KnapRow]) -> Self {
        let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); n];
        for members in cliques {
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    if u != v {
                        adj[u as usize].insert(v);
                        adj[v as usize].insert(u);
                    }
                }
            }
        }
        // Pairwise knapsack conflicts: in a positive binary row
        // `Σ a_j x_j ≤ b`, two columns with `a_u + a_v > b` can never both
        // be 1, so they are conflict-graph edges — the cross-row edges
        // that let clique growth merge capacity conflicts with packing
        // rows (set-partitioning's capacity rows produce exactly these).
        // Descending-coefficient order makes each column's conflict set a
        // prefix, so a two-pointer sweep enumerates only real edges; a
        // global cap bounds pathological rows.
        let mut edge_budget = 50_000usize;
        for row in knap_rows {
            if edge_budget == 0 {
                break;
            }
            // Only original (non-complemented) columns make clique edges:
            // `a_u + a_v > rhs'` means both at 1 overflows the row even
            // with every negative column helping.
            let mut order: Vec<(u32, f64)> = row
                .items
                .iter()
                .filter(|i| !i.complemented)
                .map(|i| (i.col, i.weight))
                .collect();
            order.sort_by(|p, q| q.1.total_cmp(&p.1).then(p.0.cmp(&q.0)));
            let mut t = order.len();
            for i in 0..order.len() {
                // Conflicts of item i: the heaviest items j (j > i) with
                // a_i + a_j > rhs; as a_i shrinks the prefix shrinks too.
                while t > i + 1 && order[i].1 + order[t - 1].1 <= row.rhs + CUT_TOL {
                    t -= 1;
                }
                if t <= i + 1 {
                    // Coefficients only shrink from here: no pair left.
                    break;
                }
                for &(v, _) in &order[i + 1..t] {
                    let u = order[i].0;
                    if adj[u as usize].insert(v) {
                        adj[v as usize].insert(u);
                        edge_budget = edge_budget.saturating_sub(1);
                    }
                }
                if edge_budget == 0 {
                    break;
                }
            }
        }
        let in_graph: Vec<u32> = (0..n as u32)
            .filter(|&j| !adj[j as usize].is_empty())
            .collect();
        ConflictGraph { adj, in_graph }
    }

    /// Greedy clique growth around every fractional seed.
    fn separate_cliques(&self, x: &[f64], out: &mut Vec<Cut>) {
        // Candidates: conflict-graph members with meaningful value,
        // descending, so the greedy extension favours violation.
        let mut cand: Vec<u32> = self
            .in_graph
            .iter()
            .copied()
            .filter(|&j| x[j as usize] > FRAC_TOL)
            .collect();
        if cand.len() < 2 {
            return;
        }
        cand.sort_by(|&p, &q| x[q as usize].total_cmp(&x[p as usize]).then(p.cmp(&q)));
        let mut local: BTreeSet<Vec<u32>> = BTreeSet::new();
        for seed_at in 0..cand.len() {
            let seed = cand[seed_at];
            let mut clique = vec![seed];
            let mut lhs = x[seed as usize];
            for &v in &cand {
                if v == seed {
                    continue;
                }
                if clique.iter().all(|&u| self.adj[u as usize].contains(&v)) {
                    clique.push(v);
                    lhs += x[v as usize];
                }
            }
            let violation = lhs - 1.0;
            if clique.len() >= 2 && violation > CUT_TOL {
                clique.sort_unstable();
                if local.insert(clique.clone()) {
                    out.push(Cut {
                        terms: clique.iter().map(|&j| (VarId(j), 1.0)).collect(),
                        rhs: 1.0,
                        violation,
                        kind: CutKind::Clique,
                    });
                }
            }
        }
    }
}

impl CutSeparator {
    /// Builds the separator for `model`, seeding the conflict graph with
    /// `cliques` (e.g. the packing cliques presolve exports) in addition
    /// to the packing rows found in the model itself. The graph itself is
    /// built on the first [`separate`](Self::separate) call.
    #[must_use]
    pub fn new(model: &Model, cliques: &[Vec<VarId>]) -> Self {
        let n = model.num_vars();
        let binary: Vec<bool> = model
            .variables()
            .iter()
            .map(|v| v.ty == VarType::Binary)
            .collect();
        let mut knap_rows: Vec<KnapRow> = Vec::new();
        let mut members_of: Vec<Vec<u32>> = Vec::new();
        for con in model.constraints() {
            if con.terms.len() < 2 || !con.terms.iter().all(|&(v, _)| binary[v.index()]) {
                continue;
            }
            // Binary `≤` rows feed the cover separator in complemented
            // form: negative-coefficient columns enter as `1 − x`, the
            // right-hand side absorbs their magnitude.
            if con.sense == ConstraintSense::Le {
                let items: Vec<KnapItem> = con
                    .terms
                    .iter()
                    .filter(|&&(_, a)| a != 0.0)
                    .map(|&(v, a)| KnapItem {
                        col: v.0,
                        weight: a.abs(),
                        complemented: a < 0.0,
                    })
                    .collect();
                let rhs = con.rhs
                    + con
                        .terms
                        .iter()
                        .filter(|&&(_, a)| a < 0.0)
                        .map(|&(_, a)| -a)
                        .sum::<f64>();
                let total: f64 = items.iter().map(|i| i.weight).sum();
                if rhs > CUT_TOL && total > rhs + CUT_TOL {
                    knap_rows.push(KnapRow { items, rhs });
                }
            }
            // Packing rows (and the ≤ side of partition equalities) are
            // conflict-graph cliques.
            let packing = matches!(con.sense, ConstraintSense::Le | ConstraintSense::Eq)
                && con.rhs <= 1.0 + CUT_TOL
                && con.terms.iter().all(|&(_, a)| a >= 1.0 - CUT_TOL);
            if packing {
                members_of.push(con.terms.iter().map(|&(v, _)| v.0).collect());
            }
        }
        for clique in cliques {
            members_of.push(
                clique
                    .iter()
                    .filter(|v| v.index() < n && binary[v.index()])
                    .map(|v| v.0)
                    .collect(),
            );
        }
        CutSeparator {
            knap_rows,
            cliques: members_of,
            n,
            graph: None,
            seen: BTreeSet::new(),
            stats: SeparationStats::default(),
        }
    }

    /// The cumulative separation counters so far.
    #[must_use]
    pub fn stats(&self) -> SeparationStats {
        self.stats
    }

    /// Whether any separation is possible at all on this model: no
    /// knapsack row, and no clique with two distinct members (knapsack
    /// conflicts need a knapsack row), so the graph need not be built to
    /// tell.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.knap_rows.is_empty()
            && self
                .cliques
                .iter()
                .all(|members| members.iter().all(|&v| v == members[0]))
    }

    /// Separates up to `max_cuts` cuts violated by the fractional point
    /// `x`, most violated first. Cuts whose support was emitted before
    /// are suppressed, so successive rounds only ever return new rows.
    #[must_use]
    pub fn separate(&mut self, x: &[f64], max_cuts: usize) -> Vec<Cut> {
        let mut cuts = Vec::new();
        self.separate_covers(x, &mut cuts);
        let graph = self
            .graph
            .get_or_insert_with(|| ConflictGraph::build(self.n, &self.cliques, &self.knap_rows));
        graph.separate_cliques(x, &mut cuts);
        self.stats.rounds += 1;
        self.stats.candidates += cuts.len() as u64;
        cuts.sort_by(|a, b| b.violation.total_cmp(&a.violation));
        cuts.truncate(max_cuts);
        // Only now commit the survivors' supports, so capped-out cuts can
        // return in a later round.
        let mut out = Vec::with_capacity(cuts.len());
        for cut in cuts {
            // Family tag + sign-encoded columns, so a cover over `1 − x`
            // never collides with a clique or a cover over `x`.
            let mut key: Vec<u32> = vec![match cut.kind {
                CutKind::Cover => 0,
                CutKind::Clique => 1,
            }];
            let mut cols: Vec<u32> = cut
                .terms
                .iter()
                .map(|&(v, c)| v.0 * 2 + u32::from(c < 0.0))
                .collect();
            cols.sort_unstable();
            key.extend(cols);
            if !self.seen.insert(key) {
                continue;
            }
            match cut.kind {
                CutKind::Cover => self.stats.cover_cuts += 1,
                CutKind::Clique => self.stats.clique_cuts += 1,
            }
            out.push(cut);
        }
        out
    }

    /// Greedy minimal-cover separation with the classic extension, over
    /// the complemented (all-positive) row form: a complemented member
    /// contributes `1 − x` to the cover inequality, i.e. a `−x` term and
    /// a unit off the right-hand side.
    fn separate_covers(&self, x: &[f64], out: &mut Vec<Cut>) {
        // ỹ: the complemented value of an item at the point `x`.
        let val = |it: &KnapItem| {
            let v = x[it.col as usize];
            if it.complemented {
                1.0 - v
            } else {
                v
            }
        };
        for row in &self.knap_rows {
            let items = &row.items;
            // Greedy cover: take items by descending complemented value
            // (ties towards heavy items) until the weights overflow the
            // capacity.
            let mut order: Vec<usize> = (0..items.len()).collect();
            order.sort_by(|&p, &q| {
                let kp = (1.0 - val(&items[p])) / items[p].weight;
                let kq = (1.0 - val(&items[q])) / items[q].weight;
                kp.total_cmp(&kq).then(items[p].col.cmp(&items[q].col))
            });
            let mut cover: Vec<usize> = Vec::new();
            let mut weight = 0.0;
            for &p in &order {
                if weight > row.rhs + CUT_TOL {
                    break;
                }
                cover.push(p);
                weight += items[p].weight;
            }
            if weight <= row.rhs + CUT_TOL {
                continue; // the whole row cannot overflow: no cover
            }
            // Minimise: drop members whose removal keeps the overflow,
            // so the extension below stays valid.
            let mut i = 0;
            while i < cover.len() {
                let a = items[cover[i]].weight;
                if weight - a > row.rhs + CUT_TOL {
                    weight -= a;
                    cover.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            // Extended cover: every column at least as heavy as the
            // cover's heaviest member joins with coefficient one.
            let a_max = cover
                .iter()
                .map(|&p| items[p].weight)
                .fold(0.0f64, f64::max);
            // Membership-only probe set (contains below); the emission
            // order comes from the enumerate over `items`, never from
            // this set's internal order.
            let in_cover: HashSet<usize> = cover.iter().copied().collect();
            let mut support: Vec<usize> = cover.clone();
            for (p, it) in items.iter().enumerate() {
                if !in_cover.contains(&p) && it.weight >= a_max - CUT_TOL {
                    support.push(p);
                }
            }
            // Σ_{support} ỹ ≤ |C| − 1, expanded back to original
            // variables: complemented members flip sign and shift rhs.
            let lhs: f64 = support.iter().map(|&p| val(&items[p])).sum();
            let violation = lhs - (cover.len() as f64 - 1.0);
            if violation > CUT_TOL {
                let mut terms = Vec::with_capacity(support.len());
                let mut rhs_cut = cover.len() as f64 - 1.0;
                for &p in &support {
                    let it = &items[p];
                    if it.complemented {
                        terms.push((VarId(it.col), -1.0));
                        rhs_cut -= 1.0;
                    } else {
                        terms.push((VarId(it.col), 1.0));
                    }
                }
                terms.sort_by_key(|&(v, _)| v);
                out.push(Cut {
                    terms,
                    rhs: rhs_cut,
                    violation,
                    kind: CutKind::Cover,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cover_cut_separates_fractional_knapsack_point() {
        // 3x + 4y + 2z ≤ 6: {x, y} is a minimal cover (7 > 6).
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        let z = m.add_binary();
        m.add_constraint(m.expr([(x, 3.0), (y, 4.0), (z, 2.0)]).leq(6.0));
        m.set_objective(m.expr([(x, -10.0), (y, -13.0), (z, -7.0)]));
        let mut sep = CutSeparator::new(&m, &[]);
        assert!(!sep.is_empty());
        // LP-style point: x = 1, y = 0.75, z = 0 violates x + y ≤ 1.
        let cuts = sep.separate(&[1.0, 0.75, 0.0], 8);
        assert!(!cuts.is_empty());
        let cover = &cuts[0];
        assert_eq!(cover.kind, CutKind::Cover);
        assert!(cover.violation > 0.5);
        // Validity on every integer-feasible point of the knapsack.
        for bits in 0..8u32 {
            let pt = [
                f64::from(bits & 1),
                f64::from((bits >> 1) & 1),
                f64::from((bits >> 2) & 1),
            ];
            if m.is_feasible(&pt, 1e-9) {
                let lhs: f64 = cover.terms.iter().map(|&(v, c)| c * pt[v.index()]).sum();
                assert!(lhs <= cover.rhs + 1e-9, "cut off integer point {pt:?}");
            }
        }
    }

    #[test]
    fn clique_cut_merges_conflicts_across_rows() {
        // Pairwise packing rows a+b ≤ 1, b+c ≤ 1, a+c ≤ 1: the triangle
        // {a, b, c} is a clique no single row states; x = ½ everywhere
        // violates a + b + c ≤ 1 by ½.
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.add_constraint(m.expr([(a, 1.0), (b, 1.0)]).leq(1.0));
        m.add_constraint(m.expr([(b, 1.0), (c, 1.0)]).leq(1.0));
        m.add_constraint(m.expr([(a, 1.0), (c, 1.0)]).leq(1.0));
        m.set_objective(m.expr([(a, -1.0), (b, -1.0), (c, -1.0)]));
        let mut sep = CutSeparator::new(&m, &[]);
        let cuts = sep.separate(&[0.5, 0.5, 0.5], 8);
        assert!(!cuts.is_empty());
        let clique = &cuts[0];
        assert_eq!(clique.kind, CutKind::Clique);
        assert_eq!(clique.terms.len(), 3);
        assert!((clique.violation - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pairwise_knapsack_conflicts_build_clique_cuts() {
        // 6x + 5y + 4z ≤ 8: every pair overflows, so {x, y, z} is a
        // clique purely from knapsack conflicts — no packing row states
        // it. The fractional point (0.5, 0.4, 0.3) violates
        // x + y + z ≤ 1 by 0.2.
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        let z = m.add_binary();
        m.add_constraint(m.expr([(x, 6.0), (y, 5.0), (z, 4.0)]).leq(8.0));
        m.set_objective(m.expr([(x, -3.0), (y, -2.0), (z, -1.0)]));
        let mut sep = CutSeparator::new(&m, &[]);
        let cuts = sep.separate(&[0.5, 0.4, 0.3], 8);
        let clique = cuts
            .iter()
            .find(|c| c.kind == CutKind::Clique && c.terms.len() == 3)
            .expect("triangle clique from knapsack conflicts");
        // Validity: exactly the single-item points are feasible.
        for bits in 0..8u32 {
            let pt = [
                f64::from(bits & 1),
                f64::from((bits >> 1) & 1),
                f64::from((bits >> 2) & 1),
            ];
            if m.is_feasible(&pt, 1e-9) {
                let lhs: f64 = clique.terms.iter().map(|&(v, c)| c * pt[v.index()]).sum();
                assert!(lhs <= clique.rhs + 1e-9, "cut off {pt:?}");
            }
        }
    }

    #[test]
    fn emitted_supports_are_never_repeated() {
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.add_constraint(m.expr([(a, 1.0), (b, 1.0)]).leq(1.0));
        m.add_constraint(m.expr([(b, 1.0), (c, 1.0)]).leq(1.0));
        m.add_constraint(m.expr([(a, 1.0), (c, 1.0)]).leq(1.0));
        m.set_objective(m.expr([(a, -1.0)]));
        let mut sep = CutSeparator::new(&m, &[]);
        let first = sep.separate(&[0.5, 0.5, 0.5], 8);
        assert!(!first.is_empty());
        let again = sep.separate(&[0.5, 0.5, 0.5], 8);
        assert!(again.is_empty(), "same point must not re-emit {again:?}");
    }

    #[test]
    fn integral_point_separates_nothing() {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 3.0), (y, 4.0)]).leq(6.0));
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).leq(1.0));
        m.set_objective(m.expr([(x, -1.0), (y, -1.0)]));
        let mut sep = CutSeparator::new(&m, &[]);
        for pt in [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]] {
            assert!(
                sep.separate(&pt, 8).is_empty(),
                "integer-feasible {pt:?} must separate nothing"
            );
        }
    }

    /// The conflict graph as `CutSeparator::new` built it eagerly before
    /// the separator deferred it to the first round: the reference the
    /// lazy construction is checked against.
    fn eager_graph(model: &Model, cliques: &[Vec<VarId>]) -> (bool, ConflictGraph) {
        let n = model.num_vars();
        let binary: Vec<bool> = model
            .variables()
            .iter()
            .map(|v| v.ty == VarType::Binary)
            .collect();
        let mut knap_rows: Vec<KnapRow> = Vec::new();
        let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); n];
        let add_clique = |members: &[u32], adj: &mut Vec<HashSet<u32>>| {
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    if u != v {
                        adj[u as usize].insert(v);
                        adj[v as usize].insert(u);
                    }
                }
            }
        };
        for con in model.constraints() {
            if con.terms.len() < 2 || !con.terms.iter().all(|&(v, _)| binary[v.index()]) {
                continue;
            }
            if con.sense == ConstraintSense::Le {
                let items: Vec<KnapItem> = con
                    .terms
                    .iter()
                    .filter(|&&(_, a)| a != 0.0)
                    .map(|&(v, a)| KnapItem {
                        col: v.0,
                        weight: a.abs(),
                        complemented: a < 0.0,
                    })
                    .collect();
                let rhs = con.rhs
                    + con
                        .terms
                        .iter()
                        .filter(|&&(_, a)| a < 0.0)
                        .map(|&(_, a)| -a)
                        .sum::<f64>();
                let total: f64 = items.iter().map(|i| i.weight).sum();
                if rhs > CUT_TOL && total > rhs + CUT_TOL {
                    knap_rows.push(KnapRow { items, rhs });
                }
            }
            let packing = matches!(con.sense, ConstraintSense::Le | ConstraintSense::Eq)
                && con.rhs <= 1.0 + CUT_TOL
                && con.terms.iter().all(|&(_, a)| a >= 1.0 - CUT_TOL);
            if packing {
                let members: Vec<u32> = con.terms.iter().map(|&(v, _)| v.0).collect();
                add_clique(&members, &mut adj);
            }
        }
        for clique in cliques {
            let members: Vec<u32> = clique
                .iter()
                .filter(|v| v.index() < n && binary[v.index()])
                .map(|v| v.0)
                .collect();
            add_clique(&members, &mut adj);
        }
        let mut edge_budget = 50_000usize;
        for row in &knap_rows {
            if edge_budget == 0 {
                break;
            }
            let mut order: Vec<(u32, f64)> = row
                .items
                .iter()
                .filter(|i| !i.complemented)
                .map(|i| (i.col, i.weight))
                .collect();
            order.sort_by(|p, q| q.1.total_cmp(&p.1).then(p.0.cmp(&q.0)));
            let mut t = order.len();
            for i in 0..order.len() {
                while t > i + 1 && order[i].1 + order[t - 1].1 <= row.rhs + CUT_TOL {
                    t -= 1;
                }
                if t <= i + 1 {
                    break;
                }
                for &(v, _) in &order[i + 1..t] {
                    let u = order[i].0;
                    if adj[u as usize].insert(v) {
                        adj[v as usize].insert(u);
                        edge_budget = edge_budget.saturating_sub(1);
                    }
                }
                if edge_budget == 0 {
                    break;
                }
            }
        }
        let in_graph: Vec<u32> = (0..n as u32)
            .filter(|&j| !adj[j as usize].is_empty())
            .collect();
        let empty = knap_rows.is_empty() && in_graph.is_empty();
        (empty, ConflictGraph { adj, in_graph })
    }

    /// A random model over 2–9 binaries (and sometimes one continuous
    /// column): packing rows, mixed-sign knapsack rows, `≥` and
    /// equality rows, plus random presolve-style cliques.
    fn random_model(rng: &mut SmallRng) -> (Model, Vec<Vec<VarId>>) {
        let mut m = Model::new();
        let n = rng.gen_range(2usize..10);
        let mut vars: Vec<VarId> = (0..n).map(|_| m.add_binary()).collect();
        if rng.gen_range(0..4) == 0 {
            vars.push(m.add_continuous(0.0, 3.0));
        }
        let pick = |rng: &mut SmallRng| -> Vec<VarId> {
            let k = rng.gen_range(1..=vars.len().min(5));
            let mut out: Vec<VarId> = Vec::new();
            while out.len() < k {
                let v = vars[rng.gen_range(0..vars.len())];
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            out
        };
        for _ in 0..rng.gen_range(0usize..5) {
            let support = pick(rng);
            match rng.gen_range(0..4) {
                0 => {
                    let e = m.expr(support.iter().map(|&v| (v, 1.0)));
                    let cmp = if rng.gen_range(0..2) == 0 {
                        e.leq(1.0)
                    } else {
                        e.eq(1.0)
                    };
                    m.add_constraint(cmp);
                }
                1 | 2 => {
                    let e = m.expr(
                        support
                            .iter()
                            .map(|&v| (v, f64::from(rng.gen_range(-3i32..=7)))),
                    );
                    m.add_constraint(e.leq(f64::from(rng.gen_range(-1i32..=8))));
                }
                _ => {
                    let e = m.expr(support.iter().map(|&v| (v, 1.0)));
                    m.add_constraint(e.geq(1.0));
                }
            }
        }
        let cliques = (0..rng.gen_range(0usize..3)).map(|_| pick(rng)).collect();
        (m, cliques)
    }

    /// The lazily built conflict graph answers `is_empty` and separates
    /// exactly like the eager construction it replaced, round after
    /// round, on random models.
    #[test]
    fn lazy_conflict_graph_matches_eager_construction() {
        let mut rng = SmallRng::seed_from_u64(7);
        let (mut empty_models, mut clique_cuts) = (0, 0);
        for case in 0..600 {
            let (model, cliques) = random_model(&mut rng);
            let (eager_empty, graph) = eager_graph(&model, &cliques);
            let mut lazy = CutSeparator::new(&model, &cliques);
            assert_eq!(lazy.is_empty(), eager_empty, "case {case}: is_empty");
            empty_models += usize::from(eager_empty);
            let mut eager = CutSeparator::new(&model, &cliques);
            eager.graph = Some(graph);
            for round in 0..4 {
                let x: Vec<f64> = (0..model.num_vars())
                    .map(|_| f64::from(rng.gen_range(0..=4)) / 4.0)
                    .collect();
                let (a, b) = (lazy.separate(&x, 3), eager.separate(&x, 3));
                // Debug prints every f64 exactly (shortest round trip).
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "case {case}, round {round}: cuts"
                );
                clique_cuts += a.iter().filter(|c| c.kind == CutKind::Clique).count();
            }
            assert_eq!(lazy.stats(), eager.stats(), "case {case}: stats");
        }
        // The draw covers both answers of `is_empty` and clique cuts.
        assert!(
            empty_models > 20 && empty_models < 580,
            "{empty_models} empty"
        );
        assert!(clique_cuts > 50, "only {clique_cuts} clique cuts");
    }
}
