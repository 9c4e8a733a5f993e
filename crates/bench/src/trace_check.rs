//! Schema validation and aggregation for solver JSONL traces.
//!
//! The croxmap-ilp trace subsystem emits flat JSON Lines — `span`,
//! `progress` and `phases` objects (see `croxmap_ilp::trace`). CI re-runs
//! the solver suites with `CROXMAP_TEST_TRACE=jsonl` and pipes the
//! emitted files through [`validate_jsonl`] via the `trace_report`
//! binary, so a schema drift (renamed field, new unvalidated kind,
//! non-JSON output) fails the build instead of silently rotting the
//! traces downstream tooling reads.
//!
//! The parser is deliberately minimal: traces are *flat* objects with
//! string / number / null values only, so a hand-rolled scanner keeps the
//! harness std-only (the workspace's serde is the no-op compat stub).

use croxmap_ilp::{Phase, SpanKind};
use std::collections::BTreeMap;

/// One parsed flat-JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string (no escape handling beyond `\"` and `\\`).
    Str(String),
    /// A finite JSON number.
    Num(f64),
    /// JSON `null` (the trace writer's encoding of NaN / infinities).
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
}

impl JsonValue {
    fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(63) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    fn is_number_or_null(&self) -> bool {
        matches!(self, JsonValue::Num(_) | JsonValue::Null)
    }
}

/// Parses one flat JSON object line (string/number/null/bool values,
/// no nesting) into a key → value map. Returns `None` on malformed
/// input.
#[must_use]
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, JsonValue>> {
    let inner = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut map = BTreeMap::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        rest = rest.trim_start().strip_prefix('"')?;
        let key_end = scan_string_end(rest)?;
        let key = unescape(&rest[..key_end]);
        rest = rest[key_end + 1..].trim_start().strip_prefix(':')?;
        rest = rest.trim_start();
        let (value, len) = if let Some(s) = rest.strip_prefix('"') {
            let end = scan_string_end(s)?;
            (JsonValue::Str(unescape(&s[..end])), end + 2)
        } else {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            let token = rest[..end].trim();
            let value = match token {
                "null" => JsonValue::Null,
                "true" => JsonValue::Bool(true),
                "false" => JsonValue::Bool(false),
                t => JsonValue::Num(t.parse::<f64>().ok().filter(|n| n.is_finite())?),
            };
            (value, end)
        };
        map.insert(key, value);
        rest = rest[len..].trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None if rest.is_empty() => break,
            None => return None,
        }
    }
    Some(map)
}

/// Index of the closing quote of a JSON string whose opening quote was
/// already consumed, honouring `\"` escapes.
fn scan_string_end(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

fn unescape(s: &str) -> String {
    s.replace("\\\"", "\"").replace("\\\\", "\\")
}

/// Aggregated view of one or more validated trace streams.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total lines validated.
    pub lines: u64,
    /// Progress-table rows seen.
    pub progress_rows: u64,
    /// Final `phases` objects seen (one per traced solve).
    pub solves: u64,
    /// Span ticks summed per [`SpanKind`] (taxonomy order).
    pub span_ticks: [u64; SpanKind::ALL.len()],
    /// Span events counted per [`SpanKind`] (taxonomy order).
    pub span_events: [u64; SpanKind::ALL.len()],
    /// Phase ticks summed per [`Phase`] over every `phases` object
    /// (attribution order).
    pub phase_ticks: [u64; Phase::COUNT],
    /// Phase operation counts summed per [`Phase`].
    pub phase_counts: [u64; Phase::COUNT],
}

impl TraceSummary {
    fn kind_index(kind: SpanKind) -> usize {
        SpanKind::ALL.iter().position(|&k| k == kind).unwrap_or(0)
    }

    /// Span kinds with their total ticks and event counts, heaviest
    /// first (the `trace_report` top-k table).
    #[must_use]
    pub fn spans_by_ticks(&self) -> Vec<(SpanKind, u64, u64)> {
        let mut rows: Vec<_> = SpanKind::ALL
            .into_iter()
            .map(|k| {
                let i = TraceSummary::kind_index(k);
                (k, self.span_ticks[i], self.span_events[i])
            })
            .filter(|&(_, ticks, events)| ticks > 0 || events > 0)
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)));
        rows
    }

    /// Phases with their total ticks and operation counts, heaviest
    /// first.
    #[must_use]
    pub fn phases_by_ticks(&self) -> Vec<(Phase, u64, u64)> {
        let mut rows: Vec<_> = Phase::ALL
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, self.phase_ticks[i], self.phase_counts[i]))
            .filter(|&(_, ticks, counts)| ticks > 0 || counts > 0)
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)));
        rows
    }
}

fn require_u64(
    map: &BTreeMap<String, JsonValue>,
    key: &str,
    line_no: usize,
) -> Result<u64, String> {
    map.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
        format!("line {line_no}: field {key:?} missing or not a non-negative integer")
    })
}

fn require_number_or_null(
    map: &BTreeMap<String, JsonValue>,
    key: &str,
    line_no: usize,
) -> Result<(), String> {
    match map.get(key) {
        Some(v) if v.is_number_or_null() => Ok(()),
        _ => Err(format!(
            "line {line_no}: field {key:?} missing or not number/null"
        )),
    }
}

/// Validates one JSONL trace stream against the trace schema and folds
/// it into `summary`. Every non-empty line must be a flat JSON object
/// whose `type` is `span`, `progress` or `phases`, with the fields the
/// croxmap-ilp writer emits; the per-solve `phases` object must
/// internally sum to its own `total_ticks`.
///
/// # Errors
///
/// Returns the first schema violation as a human-readable message with
/// a 1-based line number.
pub fn validate_jsonl(text: &str, summary: &mut TraceSummary) -> Result<(), String> {
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let map = parse_flat_object(line)
            .ok_or_else(|| format!("line {line_no}: not a flat JSON object"))?;
        let ty = match map.get("type") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => return Err(format!("line {line_no}: missing string field \"type\"")),
        };
        match ty.as_str() {
            "span" => {
                let kind = match map.get("kind") {
                    Some(JsonValue::Str(s)) => SpanKind::parse(s)
                        .ok_or_else(|| format!("line {line_no}: unknown span kind {s:?}"))?,
                    _ => return Err(format!("line {line_no}: missing string field \"kind\"")),
                };
                require_u64(&map, "worker", line_no)?;
                require_u64(&map, "seq", line_no)?;
                require_u64(&map, "start_ticks", line_no)?;
                let ticks = require_u64(&map, "ticks", line_no)?;
                let count = require_u64(&map, "count", line_no)?;
                require_number_or_null(&map, "value", line_no)?;
                let k = TraceSummary::kind_index(kind);
                summary.span_ticks[k] = summary.span_ticks[k].saturating_add(ticks);
                summary.span_events[k] += 1;
                let _ = count;
            }
            "progress" => {
                require_number_or_null(&map, "det_seconds", line_no)?;
                require_u64(&map, "nodes", line_no)?;
                require_u64(&map, "open", line_no)?;
                require_number_or_null(&map, "incumbent", line_no)?;
                require_number_or_null(&map, "bound", line_no)?;
                summary.progress_rows += 1;
            }
            "phases" => {
                let total = require_u64(&map, "total_ticks", line_no)?;
                let mut attributed = 0u64;
                for (j, phase) in Phase::ALL.into_iter().enumerate() {
                    let ticks = require_u64(&map, &format!("{}_ticks", phase.name()), line_no)?;
                    let count = require_u64(&map, &format!("{}_count", phase.name()), line_no)?;
                    attributed = attributed.saturating_add(ticks);
                    summary.phase_ticks[j] = summary.phase_ticks[j].saturating_add(ticks);
                    summary.phase_counts[j] = summary.phase_counts[j].saturating_add(count);
                }
                if attributed != total {
                    return Err(format!(
                        "line {line_no}: phase ticks sum to {attributed}, \
                         total_ticks says {total}"
                    ));
                }
                summary.solves += 1;
            }
            other => return Err(format!("line {line_no}: unknown record type {other:?}")),
        }
        summary.lines += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use croxmap_ilp::{ParallelMode, RingSink, Solver, SolverConfig, TraceHandle, TraceSink};
    use std::sync::{Arc, Mutex};

    /// A real traced solve must validate against the schema — and the
    /// span/phase aggregates must reflect the run (JSONL round-trip, the
    /// acceptance criterion for `trace_report`).
    #[test]
    fn real_trace_round_trips_through_the_validator() {
        let mut model = croxmap_ilp::Model::new();
        let vars: Vec<_> = (0..12).map(|_| model.add_binary()).collect();
        for e in 0..12 {
            model.add_constraint(
                model
                    .expr([(vars[e], 1.0), (vars[(e + 1) % 12], 1.0)])
                    .geq(1.0),
            );
        }
        model.set_objective(model.expr(vars.iter().map(|&v| (v, 1.0))));

        let sink = Arc::new(Mutex::new(croxmap_ilp::JsonlSink::new(Vec::<u8>::new())));
        let handle = TraceHandle::shared(Arc::clone(&sink) as Arc<Mutex<dyn TraceSink>>);
        let result = Solver::new(
            SolverConfig {
                det_time_limit: 2.0,
                ..SolverConfig::default()
            }
            .with_trace(handle),
        )
        .solve(&model);

        let bytes = sink.lock().unwrap().get_ref().clone();
        let text = String::from_utf8(bytes).unwrap();
        let mut summary = TraceSummary::default();
        validate_jsonl(&text, &mut summary).expect("schema-valid trace");
        assert_eq!(summary.solves, 1);
        assert!(summary.lines > 0);
        assert_eq!(
            summary.phase_ticks.iter().sum::<u64>(),
            result.phases.total_ticks(),
        );
        assert!(summary
            .spans_by_ticks()
            .iter()
            .any(|&(k, _, _)| k == SpanKind::RootLp));
    }

    /// The same holds for a deterministic 2-thread parallel trace.
    #[test]
    fn parallel_trace_round_trips_through_the_validator() {
        let mut model = croxmap_ilp::Model::new();
        let vars: Vec<_> = (0..16).map(|_| model.add_binary()).collect();
        for e in 0..16 {
            model.add_constraint(
                model
                    .expr([(vars[e], 1.0), (vars[(e + 1) % 16], 1.0)])
                    .geq(1.0),
            );
        }
        model.set_objective(
            model.expr(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, 1.0 + (i % 3) as f64)),
            ),
        );

        let sink = Arc::new(Mutex::new(croxmap_ilp::JsonlSink::new(Vec::<u8>::new())));
        let handle = TraceHandle::shared(Arc::clone(&sink) as Arc<Mutex<dyn TraceSink>>);
        let _ = Solver::new(
            SolverConfig {
                det_time_limit: 2.0,
                ..SolverConfig::default()
            }
            .with_threads(2)
            .with_parallel_mode(ParallelMode::Deterministic)
            .with_trace(handle),
        )
        .solve(&model);

        let bytes = sink.lock().unwrap().get_ref().clone();
        let mut summary = TraceSummary::default();
        validate_jsonl(&String::from_utf8(bytes).unwrap(), &mut summary)
            .expect("schema-valid parallel trace");
        assert_eq!(summary.solves, 1);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let mut s = TraceSummary::default();
        assert!(validate_jsonl("not json", &mut s).is_err());
        assert!(validate_jsonl("{\"type\":\"span\",\"kind\":\"bogus\"}", &mut s).is_err());
        assert!(validate_jsonl("{\"kind\":\"dive\"}", &mut s).is_err());
        // A phases object whose split disagrees with its own total.
        let mut line = String::from("{\"type\":\"phases\"");
        for p in Phase::ALL {
            line.push_str(&format!(
                ",\"{}_ticks\":1,\"{}_count\":0",
                p.name(),
                p.name()
            ));
        }
        line.push_str(",\"total_ticks\":999}");
        assert!(validate_jsonl(&line, &mut s).is_err());
    }

    #[test]
    fn flat_parser_handles_all_value_shapes() {
        let map = parse_flat_object("{\"s\":\"a\\\"b\",\"n\":-1.5,\"z\":null,\"t\":true,\"i\":42}")
            .unwrap();
        assert_eq!(map["s"], JsonValue::Str("a\"b".to_owned()));
        assert_eq!(map["n"], JsonValue::Num(-1.5));
        assert_eq!(map["z"], JsonValue::Null);
        assert_eq!(map["t"], JsonValue::Bool(true));
        assert_eq!(map["i"].as_u64(), Some(42));
        assert!(parse_flat_object("{\"unterminated\":\"x}").is_none());
        assert!(parse_flat_object("[1,2]").is_none());
    }

    /// RingSink-captured spans agree with what the JSONL stream reports
    /// (the two sinks see the same merged event order).
    #[test]
    fn ring_and_jsonl_sinks_agree() {
        let mut model = croxmap_ilp::Model::new();
        let a = model.add_binary();
        let b = model.add_binary();
        model.add_constraint(model.expr([(a, 1.0), (b, 1.0)]).geq(1.0));
        model.set_objective(model.expr([(a, 1.0), (b, 2.0)]));
        let cfg = SolverConfig {
            det_time_limit: 1.0,
            ..SolverConfig::default()
        };

        let ring = Arc::new(Mutex::new(RingSink::new(4096)));
        let _ = Solver::new(cfg.clone().with_trace(TraceHandle::shared(
            Arc::clone(&ring) as Arc<Mutex<dyn TraceSink>>
        )))
        .solve(&model);

        let jsonl = Arc::new(Mutex::new(croxmap_ilp::JsonlSink::new(Vec::<u8>::new())));
        let _ = Solver::new(cfg.with_trace(TraceHandle::shared(
            Arc::clone(&jsonl) as Arc<Mutex<dyn TraceSink>>
        )))
        .solve(&model);

        let bytes = jsonl.lock().unwrap().get_ref().clone();
        let mut summary = TraceSummary::default();
        validate_jsonl(&String::from_utf8(bytes).unwrap(), &mut summary).unwrap();
        let ring = ring.lock().unwrap();
        assert_eq!(
            summary.span_events.iter().sum::<u64>(),
            ring.events().len() as u64 + ring.dropped(),
        );
    }
}
