//! # croxmap-lint — workspace determinism & concurrency static analysis
//!
//! The stack's cardinal guarantee — bit-identical results at
//! `threads = 1`, byte-identical deterministic-mode traces, seed-derived
//! randomness everywhere — was protected only by runtime pinning tests,
//! which catch a violation *after* someone introduces one, and only on a
//! workload that happens to exercise it. This crate turns the
//! determinism discipline into machine-checked rules that run over the
//! whole workspace source in tier-1 (`tests/lint_clean.rs`) and CI
//! (`cargo run -p croxmap-lint -- --deny`).
//!
//! Like `crates/compat` and the trace toolchain, everything here is
//! hand-rolled on `std` (the build image has no registry access): a
//! real lexer ([`lexer`]) strips comments, strings and doc comments,
//! resolves `use` aliases and `#[cfg(test)]` scopes, and the rule
//! passes ([`rules`]) walk the token stream per file.
//!
//! ## Rules
//!
//! | id | what it catches |
//! |----|-----------------|
//! | `determinism-time` | `std::time::Instant` / `SystemTime` (wall clock) in solver code |
//! | `determinism-rng` | `thread_rng` / `from_entropy` (entropy-seeded randomness) |
//! | `hash-iteration` | iterating a `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain()`, `.retain()`, `for … in &map`) — keyed lookups stay legal |
//! | `relaxed-ordering` | any `Ordering::Relaxed` atomic access — must justify why relaxed is sound |
//! | `thread-spawn` | `thread::spawn` / `thread::scope` outside `parallel.rs` |
//! | `panic-path` | `unwrap()` / `expect()` in library (non-test) code |
//! | `ticks-arithmetic` | hand-rolled `1e9` / `1_000_000_000` tick↔second conversion outside `DeterministicClock` |
//! | `float-equality` | `==`/`!=` between f64-typed expressions (zero-literal checks exempt); NaN-unaware `partial_cmp(..).unwrap*()` comparators — use `total_cmp` |
//! | `tolerance-drift` | a float literal with `1e-12 ≤ \|v\| < 1e-3` outside `croxmap_ilp::tol` — tolerances are named, shared constants |
//! | `lock-order` | a cycle in the cross-file `Mutex`/`RwLock` acquisition graph (tracked through guard bindings and direct callees) |
//! | `tick-charge` | a loop in `revised.rs`/`factor.rs`/`cuts.rs`/`solver.rs` calling an FTRAN/BTRAN/pivot/separate kernel without a `DeterministicClock` charge or budget check on any path |
//! | `forbid-unsafe` | crate root missing `#![forbid(unsafe_code)]` |
//! | `malformed-waiver` | a `lint:` marker that fails to parse, names an unknown rule, or carries no reason |
//!
//! The first seven and the last two are token rules; `lock-order` and
//! `tick-charge` are *flow* passes ([`flow`]): they work on
//! brace-matched function spans, guard-binding lifetimes and the
//! cross-file call/lock graph, and run over the whole file set at once
//! ([`scan_sources`]). The proven lock order is committed as
//! `docs/lock_order.md` and regenerated by `tests/lint_clean.rs`.
//!
//! ## Waivers
//!
//! A finding is suppressed by an inline waiver on the same line or in
//! the comment block directly above —
//!
//! ```text
//! // lint: allow(panic-path) — mutex poisoning propagates the panic
//! ```
//!
//! — or by a `[[allow]]` entry in the committed `lint.toml` for whole
//! files/crates whose purpose conflicts with a rule. Both mechanisms
//! require a non-empty reason; an empty one is itself a finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod lexer;
pub mod rules;
pub mod waiver;

use rules::FileCtx;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use waiver::{find_waiver, parse_waivers, Allowlist};

/// Every rule the pass enforces. Ids are the names used in waivers and
/// `lint.toml`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock types (`Instant`, `SystemTime`) in solver code.
    DeterminismTime,
    /// Entropy-seeded randomness (`thread_rng`, `from_entropy`).
    DeterminismRng,
    /// Iteration over `HashMap`/`HashSet` contents.
    HashIteration,
    /// `Ordering::Relaxed` atomic access without justification.
    RelaxedOrdering,
    /// Thread creation outside the sanctioned `parallel.rs`.
    ThreadSpawn,
    /// `unwrap()`/`expect()` in library code.
    PanicPath,
    /// Hand-rolled tick↔second arithmetic outside `DeterministicClock`.
    TicksArithmetic,
    /// `==`/`!=` on float-typed expressions; NaN-unaware comparators.
    FloatEquality,
    /// An unnamed tolerance literal outside `croxmap_ilp::tol`.
    ToleranceDrift,
    /// A cycle in the workspace lock-acquisition graph.
    LockOrder,
    /// A hot-path kernel loop with no deterministic-clock charge.
    TickCharge,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// A `lint:` waiver that does not parse or has no reason.
    MalformedWaiver,
}

impl Rule {
    /// All enforceable rules, in report order.
    pub const ALL: [Rule; 13] = [
        Rule::DeterminismTime,
        Rule::DeterminismRng,
        Rule::HashIteration,
        Rule::RelaxedOrdering,
        Rule::ThreadSpawn,
        Rule::PanicPath,
        Rule::TicksArithmetic,
        Rule::FloatEquality,
        Rule::ToleranceDrift,
        Rule::LockOrder,
        Rule::TickCharge,
        Rule::ForbidUnsafe,
        Rule::MalformedWaiver,
    ];

    /// The kebab-case id used in waivers, `lint.toml` and reports.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::DeterminismTime => "determinism-time",
            Rule::DeterminismRng => "determinism-rng",
            Rule::HashIteration => "hash-iteration",
            Rule::RelaxedOrdering => "relaxed-ordering",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::PanicPath => "panic-path",
            Rule::TicksArithmetic => "ticks-arithmetic",
            Rule::FloatEquality => "float-equality",
            Rule::ToleranceDrift => "tolerance-drift",
            Rule::LockOrder => "lock-order",
            Rule::TickCharge => "tick-charge",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::MalformedWaiver => "malformed-waiver",
        }
    }

    /// Resolves an id back to the rule.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// One-line description for reports.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Rule::DeterminismTime => {
                "wall-clock time in solver code; results must depend on (model, config, seed) only"
            }
            Rule::DeterminismRng => {
                "entropy-seeded randomness; derive every RNG stream from the solver seed"
            }
            Rule::HashIteration => {
                "iteration order of a hash container is not deterministic; traverse a sorted structure instead"
            }
            Rule::RelaxedOrdering => {
                "Relaxed atomic access must justify why no happens-before edge is needed"
            }
            Rule::ThreadSpawn => {
                "thread creation outside parallel.rs bypasses deterministic scheduling and clock aggregation"
            }
            Rule::PanicPath => {
                "library unwrap()/expect() must state its invariant or become an error path"
            }
            Rule::TicksArithmetic => {
                "tick<->second conversion is defined once in DeterministicClock; use ticks_to_seconds/seconds_to_ticks"
            }
            Rule::FloatEquality => {
                "float ==/!= conflates value with rounding history, and partial_cmp().unwrap() is NaN-unsound; use total_cmp/to_bits (zero-literal checks stay legal)"
            }
            Rule::ToleranceDrift => {
                "tolerance literals (1e-12 <= |v| < 1e-3) drift apart when scattered; name them once in croxmap_ilp::tol"
            }
            Rule::LockOrder => {
                "this acquisition closes a cycle in the lock graph; acquire locks in the documented order (docs/lock_order.md)"
            }
            Rule::TickCharge => {
                "a hot-path kernel loop must charge the DeterministicClock or check a work budget, or every PhaseBreakdown and det-budget guarantee silently lies"
            }
            Rule::ForbidUnsafe => "crate roots must carry #![forbid(unsafe_code)]",
            Rule::MalformedWaiver => "waiver does not parse, names an unknown rule, or has no reason",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One unwaived finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Violated rule.
    pub rule: Rule,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.file, self.line, self.rule, self.snippet
        )
    }
}

/// Scan result for one file or a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings neither waived nor allowlisted — these fail `--deny`.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an inline waiver, with the reason.
    pub waived: Vec<(Finding, String)>,
    /// Findings suppressed by the `lint.toml` allowlist.
    pub allowlisted: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    /// Whether the workspace is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-rule `(findings, waived, allowlisted)` counts, every rule
    /// present (zeros included) so the summary table has a stable shape.
    #[must_use]
    pub fn counts_by_rule(&self) -> BTreeMap<Rule, (usize, usize, usize)> {
        let mut by: BTreeMap<Rule, (usize, usize, usize)> =
            Rule::ALL.into_iter().map(|r| (r, (0, 0, 0))).collect();
        for f in &self.findings {
            by.entry(f.rule).or_default().0 += 1;
        }
        for (f, _) in &self.waived {
            by.entry(f.rule).or_default().1 += 1;
        }
        for f in &self.allowlisted {
            by.entry(f.rule).or_default().2 += 1;
        }
        by
    }

    /// Renders the findings report: `file:line [rule] snippet` plus the
    /// waiver hint per finding, then the per-rule summary table (in the
    /// style of `trace_report`) and a totals line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!("{f}\n"));
            s.push_str(&format!("    {}\n", f.rule.describe()));
            if f.rule != Rule::MalformedWaiver && f.rule != Rule::ForbidUnsafe {
                s.push_str(&format!(
                    "    waive with: // lint: allow({}) — <reason>\n",
                    f.rule.id()
                ));
            }
        }
        if !self.findings.is_empty() {
            s.push('\n');
        }
        let width = Rule::ALL.iter().map(|r| r.id().len()).max().unwrap_or(0);
        s.push_str(&format!(
            "{:<width$}  {:>8}  {:>6}  {:>7}\n",
            "rule", "findings", "waived", "allowed"
        ));
        for (rule, (f, w, a)) in self.counts_by_rule() {
            s.push_str(&format!(
                "{:<width$}  {:>8}  {:>6}  {:>7}\n",
                rule.id(),
                f,
                w,
                a
            ));
        }
        s.push_str(&format!(
            "{} finding(s), {} waived, {} allowlisted, {} files scanned\n",
            self.findings.len(),
            self.waived.len(),
            self.allowlisted.len(),
            self.files
        ));
        s
    }

    fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.waived.extend(other.waived);
        self.allowlisted.extend(other.allowlisted);
        self.files += other.files;
    }
}

/// Output of a multi-file scan: the findings report plus the workspace
/// lock-acquisition graph (rendered into the committed contract by
/// [`flow::LockGraph::render_contract`]).
#[derive(Debug, Default)]
pub struct ScanOutput {
    /// Findings after waivers and allowlist.
    pub report: Report,
    /// The cross-file lock graph the `lock-order` pass built.
    pub lock_graph: flow::LockGraph,
}

/// Classifies and scans one file's source text against `allowlist`.
/// `rel_path` must use forward slashes. This is the unit most fixture
/// tests drive directly; the flow passes (`lock-order`, `tick-charge`)
/// see just this one file.
#[must_use]
pub fn scan_source(rel_path: &str, text: &str, allowlist: &Allowlist) -> Report {
    scan_sources(&[(rel_path.to_string(), text.to_string())], allowlist).report
}

/// Scans a set of files as one workspace: per-file token rules first,
/// then the cross-file flow passes — the lock-acquisition graph over
/// every `Mutex`/`RwLock` guard (cycles are `lock-order` findings at the
/// closing acquisition) and the tick-charge check over the solver
/// hot-path files. Findings route through the same waiver/allowlist
/// machinery as the token rules.
#[must_use]
pub fn scan_sources(files: &[(String, String)], allowlist: &Allowlist) -> ScanOutput {
    // Phase A: lex everything once; classify; collect lock declarations
    // (the lock-name set is global so a lock declared in parallel.rs is
    // recognised wherever it is acquired).
    struct FileData {
        rel: String,
        lexed: lexer::Lexed,
        /// Token stream with `#[cfg(test)]` regions removed — what the
        /// flow passes walk (test code may do what it likes).
        flow_toks: Vec<lexer::Tok>,
        is_test_file: bool,
        is_crate_root: bool,
    }
    let data: Vec<FileData> = files
        .iter()
        .map(|(rel, text)| {
            let lexed = lexer::lex(text);
            let flow_toks = lexed
                .tokens
                .iter()
                .filter(|t| !t.in_test)
                .cloned()
                .collect();
            FileData {
                rel: rel.clone(),
                lexed,
                flow_toks,
                is_test_file: rel
                    .split('/')
                    .any(|seg| matches!(seg, "tests" | "benches" | "examples" | "fixtures")),
                is_crate_root: rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs"),
            }
        })
        .collect();
    // Phase B: per-file flow facts against the global lock set.
    let mut facts: Vec<flow::FileFacts> = Vec::new();
    let mut global_locks: BTreeSet<String> = BTreeSet::new();
    for fd in data.iter().filter(|fd| !fd.is_test_file) {
        let decls = flow::collect_lock_decls(&fd.flow_toks);
        global_locks.extend(decls.keys().cloned());
        facts.push((fd.rel.clone(), Vec::new(), decls));
    }
    let mut charging_fns: BTreeSet<String> = BTreeSet::new();
    for fd in data.iter().filter(|fd| !fd.is_test_file) {
        let fns = flow::collect_fn_facts(&fd.flow_toks, &global_locks);
        for f in fns.iter().filter(|f| f.charges) {
            charging_fns.insert(f.name.clone());
        }
        if let Some(entry) = facts.iter_mut().find(|(rel, _, _)| rel == &fd.rel) {
            entry.1 = fns;
        }
    }
    // Phase C: global analyses → raw `(rule, line)` findings per file.
    let lock_graph = flow::LockGraph::build(&facts);
    let mut flow_raw: BTreeMap<&str, Vec<(Rule, u32)>> = BTreeMap::new();
    if let Some(cycle) = lock_graph.find_cycle() {
        for pair in cycle.windows(2) {
            if let Some(e) = lock_graph
                .edges
                .iter()
                .find(|e| e.held == pair[0] && e.acquired == pair[1])
            {
                if let Some((rel, _, _)) = facts.iter().find(|(rel, _, _)| rel == &e.file) {
                    flow_raw
                        .entry(rel.as_str())
                        .or_default()
                        .push((Rule::LockOrder, e.line));
                }
            }
        }
    }
    for fd in data.iter().filter(|fd| !fd.is_test_file) {
        if !flow::in_tick_charge_scope(&fd.rel) {
            continue;
        }
        let Some((_, fns, _)) = facts.iter().find(|(rel, _, _)| rel == &fd.rel) else {
            continue;
        };
        for line in flow::uncharged_kernel_loops(&fd.flow_toks, fns, &charging_fns) {
            flow_raw
                .entry(fd.rel.as_str())
                .or_default()
                .push((Rule::TickCharge, line));
        }
    }
    // Waiver/allowlist application, uniform across token and flow rules.
    let mut out = ScanOutput {
        lock_graph,
        ..ScanOutput::default()
    };
    for (fd, (_, text)) in data.iter().zip(files.iter()) {
        let ctx = FileCtx {
            rel_path: &fd.rel,
            is_test_file: fd.is_test_file,
            is_crate_root: fd.is_crate_root,
        };
        let mut raw = rules::run(&fd.lexed.tokens, &ctx);
        if let Some(extra) = flow_raw.get(fd.rel.as_str()) {
            raw.extend(extra.iter().copied());
            raw.sort_by_key(|&(r, l)| (l, r.id()));
            raw.dedup();
        }
        let wset = parse_waivers(&fd.lexed.comments);
        for &(line, _) in &wset.malformed {
            raw.push((Rule::MalformedWaiver, line));
        }
        let comment_lines: BTreeSet<u32> = fd
            .lexed
            .comments
            .iter()
            .filter(|c| c.own_line)
            .map(|c| c.line)
            .collect();
        let lines: Vec<&str> = text.lines().collect();
        let mut report = Report {
            files: 1,
            ..Report::default()
        };
        for (rule, line) in raw {
            let finding = Finding {
                file: fd.rel.clone(),
                line,
                rule,
                snippet: lines
                    .get(line as usize - 1)
                    .map_or(String::new(), |l| l.trim().to_string()),
            };
            if allowlist.covers(&fd.rel, rule) {
                report.allowlisted.push(finding);
                continue;
            }
            // Malformed waivers cannot themselves be waived — fix the waiver.
            if rule != Rule::MalformedWaiver {
                if let Some(w) = find_waiver(&wset, &comment_lines, rule, line) {
                    report.waived.push((finding, w.reason.clone()));
                    continue;
                }
            }
            report.findings.push(finding);
        }
        out.report.merge(report);
    }
    out
}

/// Scans every `.rs` file under `root` (skipping `target/` and hidden
/// directories) against the root's `lint.toml` allowlist.
///
/// # Errors
///
/// Returns a message if `lint.toml` fails to parse or the tree cannot
/// be read.
pub fn scan_workspace(root: &Path) -> Result<Report, String> {
    scan_workspace_full(root).map(|out| out.report)
}

/// Like [`scan_workspace`] but also returns the lock graph, for the
/// `--lock-graph` artifact and the contract-freshness test.
///
/// # Errors
///
/// Returns a message if `lint.toml` fails to parse or the tree cannot
/// be read.
pub fn scan_workspace_full(root: &Path) -> Result<ScanOutput, String> {
    let allowlist = match std::fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(_) => Allowlist::default(),
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, &mut paths).map_err(|e| format!("walking {}: {e}", root.display()))?;
    paths.sort();
    let mut files: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, text));
    }
    Ok(scan_sources(&files, &allowlist))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if std::path::Path::new(&name)
            .extension()
            .is_some_and(|ext| ext.eq_ignore_ascii_case("rs"))
        {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` to the first
/// directory holding a `lint.toml` or a `Cargo.toml` with a
/// `[workspace]` table.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
