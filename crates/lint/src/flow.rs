//! Flow-aware scope machinery: brace-matched function and loop spans,
//! expression-level binding tracking, and the two workspace-level
//! analyses built on top — the cross-file **lock-acquisition graph**
//! (`lock-order`) and the **hot-loop tick-charge** check (`tick-charge`).
//!
//! Everything here stays name-based (no type inference), like the token
//! rules: a lock is a binding/field whose *written* type names
//! `Mutex`/`RwLock`, a kernel is a call whose name matches the
//! FTRAN/BTRAN/pivot/separation families, a charge is a call into the
//! deterministic work accounting. What the name level cannot see (guards
//! smuggled through generics, trait objects, early `drop()`s) is out of
//! scope by design; the runtime suites stay the backstop.
//!
//! ## Guard lifetimes
//!
//! The lock pass models three guard lifetimes, matching the temporary
//! rules the workspace compiles under:
//!
//! * `let g = m.lock().unwrap();` — **held to the end of the enclosing
//!   block** (the chain after the acquisition is only guard-preserving
//!   `unwrap`/`expect`/`unwrap_or_else` calls, so the binding *is* the
//!   guard).
//! * `if let … = m.lock().unwrap().pop() { … }` — scrutinee temporaries
//!   live for the whole `if`/`while`/`match` body: **held across the
//!   body**.
//! * `m.lock().unwrap().push(x);` — a plain statement temporary: held
//!   to the statement's `;` (still long enough to catch a second
//!   acquisition nested in the same expression).
//!
//! While a guard is held, every later acquisition in its span adds a
//! `held → acquired` edge, and every call resolves through the
//! workspace function map to the locks the *direct callee* touches.
//! Any cycle in the resulting graph is a deadlock the scheduler cannot
//! rule out — a [`Rule::LockOrder`](crate::Rule) finding. The acyclic
//! graph's topological order is the documented lock-order contract
//! (`croxmap-lint --lock-graph`, committed as `docs/lock_order.md`).

use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// A brace-matched `fn` item.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name (the identifier after `fn`).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the body's opening `{`.
    pub body_open: usize,
    /// Token index of the matching `}` (inclusive span end).
    pub body_close: usize,
}

/// A brace-matched loop body (`for` / `while` / `loop`).
#[derive(Debug, Clone)]
pub struct LoopSpan {
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// Token index of the body's opening `{`.
    pub body_open: usize,
    /// Token index of the matching `}`.
    pub body_close: usize,
}

/// Returns the index of the `}` matching the `{` at `open` (or the last
/// token if the file is unbalanced — spans must never run past the end).
#[must_use]
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Every `fn` item with a brace body (trait-method declarations ending
/// in `;` are skipped). Nested functions produce overlapping spans; the
/// analyses attribute their contents to both, which is conservative.
#[must_use]
pub fn fn_spans(toks: &[Tok]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "fn" {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        // Body: the first `{` before any `;` (a `;` first means a
        // bodiless trait-method declaration).
        let mut j = i + 2;
        let mut body_open = None;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "{" => {
                    body_open = Some(j);
                    break;
                }
                ";" => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        out.push(FnSpan {
            name: name_tok.text.clone(),
            line: toks[i].line,
            body_open: open,
            body_close: match_brace(toks, open),
        });
    }
    out
}

/// Every loop body inside `[start, end]`. The loop body is the first
/// `{` after the keyword (Rust forbids brace expressions in loop
/// headers without parentheses).
#[must_use]
pub fn loop_spans(toks: &[Tok], start: usize, end: usize) -> Vec<LoopSpan> {
    let mut out = Vec::new();
    let mut i = start;
    while i <= end && i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop") {
            // `break 'label loop`-style uses and `for` in `impl Fn(..)`
            // bounds have no body brace before the next `;`.
            let mut j = i + 1;
            let mut body_open = None;
            while let Some(n) = toks.get(j) {
                match n.text.as_str() {
                    "{" => {
                        body_open = Some(j);
                        break;
                    }
                    ";" | "}" => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = body_open {
                out.push(LoopSpan {
                    line: t.line,
                    body_open: open,
                    body_close: match_brace(toks, open),
                });
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------
// Binding tracking
// ---------------------------------------------------------------------

/// Bindings whose written type involves one of a set of tracked type
/// names — the `hash-iteration` pass's tracked-binding approach,
/// generalized so the float and lock passes share it.
#[derive(Debug, Default)]
pub struct TrackedBindings {
    /// Bindings whose type *is* a tracked type (`m: HashMap<..>`,
    /// `bound: f64`), mapped to the first declaration line.
    pub direct: BTreeMap<String, u32>,
    /// Bindings whose type *contains* a tracked type under a container
    /// (`adj: Vec<HashSet<..>>`, `deques: Vec<Mutex<..>>`).
    pub nested: BTreeMap<String, u32>,
}

impl TrackedBindings {
    /// Whether `name` is tracked at all (direct or nested).
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.direct.contains_key(name) || self.nested.contains_key(name)
    }
}

/// Collects `name: Type…` bindings (lets, struct fields, fn params,
/// struct-literal fields) and `name = Type::…` inferred bindings whose
/// head or nested type names appear in `type_names`.
#[must_use]
pub fn track_bindings(toks: &[Tok], type_names: &BTreeSet<String>) -> TrackedBindings {
    let mut tracked = TrackedBindings::default();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name: <type…>` — terminated by `=`, `;`, `{`, `)`, `,` or an
        // unbalanced `>` at angle depth 0.
        let colon_type = toks.get(i + 1).is_some_and(|t| t.text == ":")
            && toks.get(i + 2).is_some_and(|t| t.text != ":")
            && i.checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_none_or(|t| t.text != ":");
        if colon_type {
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut first_ident: Option<&str> = None;
            let mut any_hit = false;
            while let Some(t) = toks.get(j) {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => {
                        if angle == 0 {
                            break;
                        }
                        angle -= 1;
                    }
                    "=" | ";" | "{" | "}" | ")" if angle == 0 => break,
                    "," if angle == 0 => break,
                    // Qualifiers before the head type name.
                    "mut" | "dyn" | "impl" | "ref" => {}
                    _ => {
                        if t.kind == TokKind::Ident {
                            if first_ident.is_none() {
                                first_ident = Some(&t.text);
                            }
                            if type_names.contains(&t.text) {
                                any_hit = true;
                            }
                        }
                    }
                }
                j += 1;
            }
            if let Some(first) = first_ident {
                if type_names.contains(first) {
                    tracked
                        .direct
                        .entry(toks[i].text.clone())
                        .or_insert(toks[i].line);
                } else if any_hit {
                    tracked
                        .nested
                        .entry(toks[i].text.clone())
                        .or_insert(toks[i].line);
                }
            }
        }
        // `name = Type::new()` — inferred-type bindings.
        if toks.get(i + 1).is_some_and(|t| t.text == "=")
            && toks
                .get(i + 2)
                .is_some_and(|t| type_names.contains(&t.text))
            && toks.get(i + 3).is_some_and(|t| t.text == ":")
        {
            tracked
                .direct
                .entry(toks[i].text.clone())
                .or_insert(toks[i].line);
        }
    }
    tracked
}

/// Direct calls inside `[start, end]`: an identifier followed by `(`,
/// excluding declarations (`fn name(`), macro invocations (`name!(`)
/// and control keywords. Returns `(token index, callee name, line)`.
#[must_use]
pub fn calls_in(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, String, u32)> {
    let mut out = Vec::new();
    for i in start..=end.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if matches!(
            t.text.as_str(),
            "if" | "while" | "for" | "match" | "loop" | "return" | "fn" | "let" | "move" | "in"
        ) {
            continue;
        }
        if toks.get(i + 1).is_none_or(|n| n.text != "(") {
            continue;
        }
        if i >= 1 && toks[i - 1].text == "fn" {
            continue;
        }
        out.push((i, t.text.clone(), t.line));
    }
    out
}

// ---------------------------------------------------------------------
// Per-file flow facts
// ---------------------------------------------------------------------

/// One lock acquisition with the span over which its guard is held.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Lock name (the receiver binding/field).
    pub lock: String,
    /// Token index of the `lock`/`read`/`write` call.
    pub tok: usize,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Last token index over which the guard is considered held.
    pub span_end: usize,
}

/// Flow facts for one function body.
#[derive(Debug)]
pub struct FnFacts {
    /// Function name.
    pub name: String,
    /// Every acquisition in the body (held or temporary).
    pub acquires: Vec<Acquire>,
    /// Direct calls in the body.
    pub calls: Vec<(usize, String, u32)>,
    /// Whether the body contains a deterministic-work charge or budget
    /// check (see [`is_charge_marker`]).
    pub charges: bool,
    /// Loop bodies in the function.
    pub loops: Vec<LoopSpan>,
}

/// Flow facts for one file, as consumed by [`LockGraph::build`]:
/// `(rel_path, per-function facts, lock decls: name → (line, nested))`.
pub type FileFacts = (String, Vec<FnFacts>, BTreeMap<String, (u32, bool)>);

/// Names whose written type marks a binding as a lock.
fn lock_type_names() -> BTreeSet<String> {
    ["Mutex", "RwLock"].map(String::from).into()
}

/// Phase A: lock declarations in one file (the global lock-name set is
/// the union over all files, so a lock declared in `parallel.rs` is
/// recognised when acquired anywhere).
#[must_use]
pub fn collect_lock_decls(toks: &[Tok]) -> BTreeMap<String, (u32, bool)> {
    let tracked = track_bindings(toks, &lock_type_names());
    let mut out = BTreeMap::new();
    for (name, line) in tracked.direct {
        out.insert(name, (line, false));
    }
    for (name, line) in tracked.nested {
        out.entry(name).or_insert((line, true));
    }
    out
}

/// Deterministic-work charge / budget-check marker: the names through
/// which solver code meters or bounds work. A loop (or callee body)
/// containing any of these is considered charged.
#[must_use]
pub fn is_charge_marker(toks: &[Tok], i: usize) -> bool {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return false;
    }
    match t.text.as_str() {
        // DeterministicClock::charge / LuFactors::take_work call sites.
        "charge" | "take_work" => toks.get(i + 1).is_some_and(|n| n.text == "("),
        // Work accounting fields and limits (`self.work += ops`,
        // `self.work >= work_limit`, `work_ticks`, `refactor_ticks`).
        "work" | "work_limit" | "work_ticks" | "refactor_ticks" => true,
        other => other.contains("budget"),
    }
}

/// Whether any token in `[start, end]` is a charge marker.
fn range_charges(toks: &[Tok], start: usize, end: usize) -> bool {
    (start..=end.min(toks.len().saturating_sub(1))).any(|i| is_charge_marker(toks, i))
}

/// Phase B: per-function flow facts for one file, given the global lock
/// name set.
#[must_use]
pub fn collect_fn_facts(toks: &[Tok], global_locks: &BTreeSet<String>) -> Vec<FnFacts> {
    let spans = fn_spans(toks);
    let mut out = Vec::with_capacity(spans.len());
    for span in &spans {
        let (start, end) = (span.body_open, span.body_close);
        let mut acquires = Vec::new();
        for i in start..=end.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || !matches!(t.text.as_str(), "lock" | "read" | "write")
                || i < 2
                || toks[i - 1].text != "."
            {
                continue;
            }
            // Zero-argument call only: `RwLock::read()`/`write()` and
            // `Mutex::lock()` take no arguments; `out.write(buf)` does.
            if !(toks.get(i + 1).is_some_and(|n| n.text == "(")
                && toks.get(i + 2).is_some_and(|n| n.text == ")"))
            {
                continue;
            }
            // Receiver: the identifier before the `.`, skipping one
            // balanced `[…]` index (`deques[id].lock()`).
            let mut r = i - 2;
            if toks[r].text == "]" {
                let mut depth = 0i32;
                loop {
                    match toks[r].text.as_str() {
                        "]" => depth += 1,
                        "[" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if r == 0 {
                        break;
                    }
                    r -= 1;
                }
                r = r.saturating_sub(1);
            }
            let recv = &toks[r];
            if recv.kind != TokKind::Ident || !global_locks.contains(&recv.text) {
                continue;
            }
            let span_end = guard_span_end(toks, r, i, start, end);
            acquires.push(Acquire {
                lock: recv.text.clone(),
                tok: i,
                line: t.line,
                span_end,
            });
        }
        out.push(FnFacts {
            name: span.name.clone(),
            acquires,
            calls: calls_in(toks, start, end),
            charges: range_charges(toks, start, end),
            loops: loop_spans(toks, start, end),
        });
    }
    out
}

/// Over which span is the guard acquired at token `acq` (receiver at
/// `recv`) held? See the module docs for the three lifetime shapes.
fn guard_span_end(
    toks: &[Tok],
    recv: usize,
    acq: usize,
    body_open: usize,
    body_close: usize,
) -> usize {
    // Statement start: the token after the nearest `;`/`{`/`}` before
    // the receiver.
    let mut s = recv;
    while s > body_open && !matches!(toks[s - 1].text.as_str(), ";" | "{" | "}") {
        s -= 1;
    }
    let starter = toks[s].text.as_str();
    // `if let` / `while let` / `match` scrutinee: the guard temporary
    // lives for the whole construct body.
    if matches!(starter, "if" | "while" | "match") {
        let mut j = s + 1;
        while j < body_close {
            match toks[j].text.as_str() {
                "{" => {
                    if acq < j {
                        return match_brace(toks, j);
                    }
                    break;
                }
                ";" => break,
                _ => {}
            }
            j += 1;
        }
    }
    if starter == "let" {
        // Walk the chain after the acquisition's `()`: guard-preserving
        // unwraps keep the binding a guard; anything else consumes it.
        let mut j = acq + 3; // past `lock ( )`
        loop {
            if toks.get(j).is_some_and(|t| t.text == ".")
                && toks.get(j + 1).is_some_and(|t| {
                    matches!(t.text.as_str(), "unwrap" | "expect" | "unwrap_or_else")
                })
                && toks.get(j + 2).is_some_and(|t| t.text == "(")
            {
                let close = matching_paren(toks, j + 2, body_close);
                j = close + 1;
                continue;
            }
            break;
        }
        if toks.get(j).is_some_and(|t| t.text == ";") {
            // The binding *is* the guard: held to the enclosing block's
            // closing brace.
            return enclosing_block_close(toks, s, body_open, body_close);
        }
    }
    // Statement temporary: held to the statement's `;`.
    let mut j = acq;
    while j < body_close && toks[j].text != ";" {
        j += 1;
    }
    j
}

/// Index of the `)` matching the `(` at `open`, bounded by `limit`.
fn matching_paren(toks: &[Tok], open: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i <= limit && i < toks.len() {
        match toks[i].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    limit
}

/// Closing brace of the innermost block containing token `at`.
fn enclosing_block_close(toks: &[Tok], at: usize, body_open: usize, body_close: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    for i in body_open..=at.min(body_close) {
        match toks[i].text.as_str() {
            "{" => stack.push(i),
            "}" => {
                stack.pop();
            }
            _ => {}
        }
    }
    stack
        .last()
        .map_or(body_close, |&open| match_brace(toks, open))
}

// ---------------------------------------------------------------------
// Lock-order graph
// ---------------------------------------------------------------------

/// One `held → acquired` edge with a witness site.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock held when the second acquisition happens.
    pub held: String,
    /// Lock acquired while `held` is held.
    pub acquired: String,
    /// Witness file.
    pub file: String,
    /// Witness line (the second acquisition or the call that reaches it).
    pub line: u32,
    /// `Some(callee)` when the edge goes through a direct callee.
    pub via_call: Option<String>,
}

/// The workspace lock-acquisition graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Every lock: name → declaring file.
    pub locks: BTreeMap<String, String>,
    /// Acquisition-order edges.
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// Builds the graph from per-file facts. Direct callees are
    /// resolved by name through the workspace function map; a callee
    /// sharing the enclosing function's name is skipped (trait-impl
    /// delivery methods would otherwise read as self-deadlocks).
    #[must_use]
    pub fn build(files: &[FileFacts]) -> LockGraph {
        let mut graph = LockGraph::default();
        // fn name → union of locks its bodies acquire (collisions merge,
        // which is conservative).
        let mut fn_locks: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (path, fns, decls) in files {
            for name in decls.keys() {
                graph
                    .locks
                    .entry(name.clone())
                    .or_insert_with(|| path.clone());
            }
            for f in fns {
                let entry = fn_locks.entry(f.name.as_str()).or_default();
                for a in &f.acquires {
                    entry.insert(a.lock.as_str());
                }
            }
        }
        for (path, fns, _) in files {
            for f in fns {
                for held in &f.acquires {
                    // Later acquisitions inside the hold span.
                    for other in &f.acquires {
                        if other.tok > held.tok && other.tok <= held.span_end {
                            graph.edges.push(LockEdge {
                                held: held.lock.clone(),
                                acquired: other.lock.clone(),
                                file: path.clone(),
                                line: other.line,
                                via_call: None,
                            });
                        }
                    }
                    // Calls inside the hold span resolve to the locks
                    // their direct callee touches.
                    for (tok, callee, line) in &f.calls {
                        if *tok <= held.tok || *tok > held.span_end || callee == &f.name {
                            continue;
                        }
                        if let Some(locks) = fn_locks.get(callee.as_str()) {
                            for l in locks {
                                graph.edges.push(LockEdge {
                                    held: held.lock.clone(),
                                    acquired: (*l).to_string(),
                                    file: path.clone(),
                                    line: *line,
                                    via_call: Some(callee.clone()),
                                });
                            }
                        }
                    }
                }
            }
        }
        graph.edges.sort_by(|a, b| {
            (&a.held, &a.acquired, &a.file, a.line).cmp(&(&b.held, &b.acquired, &b.file, b.line))
        });
        graph
            .edges
            .dedup_by(|a, b| a.held == b.held && a.acquired == b.acquired);
        graph
    }

    /// Finds a cycle, returned as the lock names along it (first ==
    /// last), or `None` when the graph is acyclic.
    #[must_use]
    pub fn find_cycle(&self) -> Option<Vec<String>> {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut nodes: BTreeSet<&str> = self.locks.keys().map(String::as_str).collect();
        for e in &self.edges {
            adj.entry(e.held.as_str())
                .or_default()
                .push(e.acquired.as_str());
            nodes.insert(e.held.as_str());
            nodes.insert(e.acquired.as_str());
        }
        // Iterative DFS with colors: 0 = unseen, 1 = on stack, 2 = done.
        let mut color: BTreeMap<&str, u8> = nodes.iter().map(|&n| (n, 0u8)).collect();
        for &start in &nodes {
            if color[start] != 0 {
                continue;
            }
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            let mut path: Vec<&str> = vec![start];
            color.insert(start, 1);
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let succs = adj.get(node).map_or(&[][..], Vec::as_slice);
                if *next < succs.len() {
                    let succ = succs[*next];
                    *next += 1;
                    match color[succ] {
                        0 => {
                            color.insert(succ, 1);
                            stack.push((succ, 0));
                            path.push(succ);
                        }
                        1 => {
                            // Found: slice the path from succ onward.
                            let at = path.iter().position(|&p| p == succ).unwrap_or(0);
                            let mut cycle: Vec<String> =
                                path[at..].iter().map(|&s| s.to_string()).collect();
                            cycle.push(succ.to_string());
                            return Some(cycle);
                        }
                        _ => {}
                    }
                } else {
                    color.insert(node, 2);
                    stack.pop();
                    path.pop();
                }
            }
        }
        None
    }

    /// Topological order of the lock nodes (acquisition order: a lock
    /// may only be taken while holding locks strictly earlier in the
    /// list). `None` when the graph has a cycle. Ties break
    /// alphabetically so the artifact is deterministic.
    #[must_use]
    pub fn topological_order(&self) -> Option<Vec<String>> {
        if self.find_cycle().is_some() {
            return None;
        }
        let mut nodes: BTreeSet<String> = self.locks.keys().cloned().collect();
        for e in &self.edges {
            nodes.insert(e.held.clone());
            nodes.insert(e.acquired.clone());
        }
        let mut indeg: BTreeMap<&str, usize> = nodes.iter().map(|n| (n.as_str(), 0)).collect();
        for e in &self.edges {
            *indeg.entry(e.acquired.as_str()).or_insert(0) += 1;
        }
        let mut order = Vec::with_capacity(nodes.len());
        let mut ready: Vec<&str> = indeg
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        while let Some(&n) = ready.first() {
            ready.remove(0);
            order.push(n.to_string());
            for e in self.edges.iter().filter(|e| e.held == n) {
                let d = indeg.get_mut(e.acquired.as_str()).map(|d| {
                    *d -= 1;
                    *d
                });
                if d == Some(0) {
                    ready.push(e.acquired.as_str());
                    ready.sort_unstable();
                }
            }
        }
        Some(order)
    }

    /// Renders the committed lock-order contract: every lock with its
    /// declaring file, every edge with its witness's file, the proven
    /// order, and a DOT block for visualisation.
    #[must_use]
    pub fn render_contract(&self) -> String {
        let mut s = String::new();
        s.push_str("# Workspace lock-order contract\n\n");
        s.push_str(
            "Generated by `croxmap-lint --lock-graph`; regenerated and checked by\n\
             `tests/lint_clean.rs`. The lock-order pass tracks every `Mutex`/`RwLock`\n\
             guard binding, builds the cross-file acquisition graph (including through\n\
             direct callees), and fails the build on any cycle.\n\n",
        );
        s.push_str("## Locks\n\n");
        // Files, not lines: the contract changes when a lock or an edge
        // appears, moves to another file or closes a cycle, not when a
        // line above a declaration does.
        for (name, file) in &self.locks {
            s.push_str(&format!("- `{name}` — declared in {file}\n"));
        }
        s.push_str("\n## Acquisition edges (held → acquired)\n\n");
        if self.edges.is_empty() {
            s.push_str(
                "*(none — no workspace code path acquires a second lock while holding\n\
                 one; every critical section is lock-free apart from its own guard)*\n",
            );
        } else {
            for e in &self.edges {
                let via = e
                    .via_call
                    .as_deref()
                    .map_or(String::new(), |c| format!(" via `{c}()`"));
                s.push_str(&format!(
                    "- `{}` → `{}` in {}{}\n",
                    e.held, e.acquired, e.file, via
                ));
            }
        }
        s.push_str("\n## Proven acquisition order\n\n");
        match self.topological_order() {
            Some(order) if order.is_empty() => s.push_str("*(no locks declared)*\n"),
            Some(order) => {
                s.push_str(
                    "A thread holding a lock may only acquire locks strictly later in\n\
                     this list:\n\n",
                );
                for (i, name) in order.iter().enumerate() {
                    s.push_str(&format!("{}. `{name}`\n", i + 1));
                }
            }
            None => s.push_str("**CYCLE — the graph is not a valid order.**\n"),
        }
        s.push_str("\n## DOT\n\n```dot\ndigraph lock_order {\n");
        for name in self.locks.keys() {
            s.push_str(&format!("    \"{name}\";\n"));
        }
        for e in &self.edges {
            s.push_str(&format!("    \"{}\" -> \"{}\";\n", e.held, e.acquired));
        }
        s.push_str("}\n```\n");
        s
    }
}

// ---------------------------------------------------------------------
// Tick-charge
// ---------------------------------------------------------------------

/// File names the tick-charge rule covers: the solver hot path, where a
/// loop driving FTRAN/BTRAN/pivot/separation kernels without charging
/// the deterministic clock would silently invalidate every
/// `PhaseBreakdown`, bench row and det-budget guarantee.
pub const TICK_CHARGE_FILES: [&str; 4] = ["revised.rs", "factor.rs", "cuts.rs", "solver.rs"];

/// Whether `rel_path` is inside the tick-charge scope.
#[must_use]
pub fn in_tick_charge_scope(rel_path: &str) -> bool {
    rel_path
        .rsplit('/')
        .next()
        .is_some_and(|f| TICK_CHARGE_FILES.contains(&f))
}

/// Whether a call name is a work kernel (FTRAN/BTRAN solve, pivot
/// selection/application, factorisation, cut separation).
#[must_use]
pub fn is_kernel_name(name: &str) -> bool {
    name.starts_with("ftran")
        || name.starts_with("btran")
        || name.starts_with("separate")
        || name.contains("pivot")
        || name == "factorize"
}

/// Tick-charge findings for one file: `(line, loop line)` pairs where a
/// loop body calls a kernel but neither the body nor any direct callee
/// charges the deterministic clock or checks a budget.
#[must_use]
pub fn uncharged_kernel_loops(
    toks: &[Tok],
    fns: &[FnFacts],
    charging_fns: &BTreeSet<String>,
) -> Vec<u32> {
    let mut out = Vec::new();
    for f in fns {
        for lp in &f.loops {
            let calls = calls_in(toks, lp.body_open, lp.body_close);
            let kernel = calls
                .iter()
                .find(|(i, name, _)| is_kernel_name(name) && !toks[*i].in_test);
            if kernel.is_none() {
                continue;
            }
            let charged_inline = range_charges(toks, lp.body_open, lp.body_close);
            let charged_via_callee = calls.iter().any(|(_, name, _)| charging_fns.contains(name));
            if !charged_inline && !charged_via_callee {
                out.push(lp.line);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}
