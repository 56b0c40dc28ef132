//! A plain-text event-log codec for runs.
//!
//! Runs are fully determined by their event sequences (Section 2), so a run
//! can be persisted as one event per line and rebuilt by replay — which
//! re-validates every transition, making stored logs tamper-evident with
//! respect to the program semantics.
//!
//! Format (line-oriented, `#` comments, whitespace-separated):
//!
//! ```text
//! # cwf run log v1
//! create  f:0 s:"design the schema"
//! claim   f:0
//! ```
//!
//! The first token is the rule name; the rest are the rule's variable
//! values in [`VarId`] order, encoded as `_` (⊥), `i:<int>`, `b:<bool>`,
//! `s:"<escaped>"`, or `f:<n>` (fresh symbols).

use std::fmt;

use cwf_lang::{VarId, WorkflowSpec};
use cwf_model::{Instance, Value};

use crate::eval::Bindings;
use crate::event::Event;
use crate::run::{ReplayError, Run};

/// Errors while decoding an event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A line referenced an unknown rule.
    UnknownRule {
        /// 1-based line number.
        line: usize,
        /// The unresolved rule name.
        name: String,
    },
    /// A line had the wrong number of values for its rule.
    Arity {
        /// 1-based line number.
        line: usize,
        /// The rule name.
        name: String,
        /// Expected value count (the rule's variable count).
        expected: usize,
        /// Values found.
        got: usize,
    },
    /// A value token could not be parsed.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The decoded events do not replay (semantic validation).
    Replay(ReplayError),
}

impl CodecError {
    /// The 1-based line number the error points at (`None` for replay
    /// failures, which are indexed by event position instead).
    pub fn line(&self) -> Option<usize> {
        match self {
            CodecError::UnknownRule { line, .. }
            | CodecError::Arity { line, .. }
            | CodecError::BadValue { line, .. } => Some(*line),
            CodecError::Replay(_) => None,
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnknownRule { line, name } => {
                write!(f, "line {line}: unknown rule {name}")
            }
            CodecError::Arity {
                line,
                name,
                expected,
                got,
            } => write!(
                f,
                "line {line}: rule {name} takes {expected} values, got {got}"
            ),
            CodecError::BadValue { line, token } => {
                write!(f, "line {line}: cannot parse value token `{token}`")
            }
            CodecError::Replay(e) => write!(f, "log does not replay: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<ReplayError> for CodecError {
    fn from(e: ReplayError) -> Self {
        CodecError::Replay(e)
    }
}

pub(crate) fn encode_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push('_'),
        Value::Bool(b) => out.push_str(&format!("b:{b}")),
        Value::Int(i) => out.push_str(&format!("i:{i}")),
        Value::Fresh(n) => out.push_str(&format!("f:{n}")),
        Value::Str(s) => {
            out.push_str("s:\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }
}

/// Is `digits` a number as `encode_value` writes it: an optional `-`
/// (when `signed`), then `0` alone or digits without a leading zero, and
/// never `-0`? Rust's integer parsers also take a leading `+` and leading
/// zeros, which would decode to a value that re-encodes differently.
fn canonical_number(digits: &str, signed: bool) -> bool {
    let magnitude = match digits.strip_prefix('-') {
        Some(m) if signed => m,
        Some(_) => return false,
        None => digits,
    };
    let bytes = magnitude.as_bytes();
    let plain = !bytes.is_empty() && bytes.iter().all(u8::is_ascii_digit);
    let zero_ok = bytes.first() != Some(&b'0') || (bytes.len() == 1 && magnitude == digits);
    plain && zero_ok
}

/// Decodes one value token: the exact inverse of [`encode_value`], which
/// refuses every token `encode_value` would not have written (a leading `+`
/// or zero on a number, an unescaped quote inside a string), so a log that
/// decodes re-encodes to itself.
pub(crate) fn decode_value(token: &str, line: usize) -> Result<Value, CodecError> {
    let bad = || CodecError::BadValue {
        line,
        token: token.to_string(),
    };
    if token == "_" {
        return Ok(Value::Null);
    }
    let (tag, rest) = token.split_once(':').ok_or_else(bad)?;
    match tag {
        "b" => rest.parse::<bool>().map(Value::Bool).map_err(|_| bad()),
        "i" if canonical_number(rest, true) => {
            rest.parse::<i64>().map(Value::Int).map_err(|_| bad())
        }
        // No fresh symbol is ever drawn at `u64::MAX`: that counter marks
        // an exhausted generator (`FreshGen::draw`).
        "f" if canonical_number(rest, false) => match rest.parse::<u64>() {
            Ok(n) if n < u64::MAX => Ok(Value::Fresh(n)),
            _ => Err(bad()),
        },
        "s" => {
            let inner = rest
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or_else(bad)?;
            let mut s = String::new();
            let mut chars = inner.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    match chars.next() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('n') => s.push('\n'),
                        _ => return Err(bad()),
                    }
                } else if c == '"' {
                    // `encode_value` escapes every inner quote.
                    return Err(bad());
                } else {
                    s.push(c);
                }
            }
            Ok(Value::str(s))
        }
        _ => Err(bad()),
    }
}

/// Encodes a run's event sequence as a text log.
///
/// ```
/// use std::sync::Arc;
/// use cwf_lang::parse_workflow;
/// use cwf_engine::{encode_run, load_run, Bindings, Event, Run};
/// use cwf_model::Instance;
///
/// let spec = Arc::new(parse_workflow(
///     "schema { T(K); } peers { p sees T(*); } rules { mk @ p: +T(0) :- ; }",
/// ).unwrap());
/// let mut run = Run::new(Arc::clone(&spec));
/// let rid = spec.program().rule_by_name("mk").unwrap();
/// run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap()).unwrap();
///
/// let log = encode_run(&run);
/// let back = load_run(Arc::clone(&spec), Instance::empty(spec.collab().schema()), &log)
///     .unwrap();
/// assert_eq!(back.current(), run.current());
/// ```
pub fn encode_run(run: &Run) -> String {
    let spec = run.spec();
    let mut out = String::from("# cwf run log v1\n");
    for i in 0..run.len() {
        out.push_str(&encode_event(spec, run.event(i)));
        out.push('\n');
    }
    out
}

/// Encodes one event as a single log line (no trailing newline) — the
/// record payload shared by the v1 run log and the v2 WAL format.
pub fn encode_event(spec: &WorkflowSpec, e: &Event) -> String {
    let rule = spec.program().rule(e.rule);
    let mut out = String::from(&*rule.name);
    for v in 0..rule.vars.len() {
        out.push(' ');
        let val = e.valuation.get(VarId(v as u32)).expect("total");
        encode_value(val, &mut out);
    }
    out
}

/// Decodes one event from pre-tokenized line content. `line` is the 1-based
/// line number reported in errors.
pub(crate) fn decode_event_tokens(
    spec: &WorkflowSpec,
    tokens: &[String],
    line: usize,
) -> Result<Event, CodecError> {
    let name = &tokens[0];
    let rid = spec
        .program()
        .rule_by_name(name)
        .ok_or_else(|| CodecError::UnknownRule {
            line,
            name: name.clone(),
        })?;
    let rule = spec.program().rule(rid);
    let vals = &tokens[1..];
    if vals.len() != rule.vars.len() {
        return Err(CodecError::Arity {
            line,
            name: name.clone(),
            expected: rule.vars.len(),
            got: vals.len(),
        });
    }
    let mut b = Bindings::empty(rule.vars.len());
    for (i, tok) in vals.iter().enumerate() {
        b.set(VarId(i as u32), decode_value(tok, line)?);
    }
    Ok(Event {
        rule: rid,
        peer: rule.peer,
        valuation: b,
    })
}

/// Decodes one event from its single-line encoding (the inverse of
/// [`encode_event`]).
pub fn decode_event(spec: &WorkflowSpec, text: &str, line: usize) -> Result<Event, CodecError> {
    let tokens = tokenize(text.trim());
    if tokens.is_empty() {
        return Err(CodecError::BadValue {
            line,
            token: String::new(),
        });
    }
    decode_event_tokens(spec, &tokens, line)
}

/// Tokenizes one log line, honoring quoted strings.
pub(crate) fn tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in line.chars() {
        if in_str {
            cur.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            cur.push(c);
            in_str = true;
        } else if c.is_whitespace() {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        } else {
            cur.push(c);
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Decodes an event log into events (no replay validation).
pub fn decode_events(spec: &WorkflowSpec, log: &str) -> Result<Vec<Event>, CodecError> {
    let mut out = Vec::new();
    for (lineno, raw) in log.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let tokens = tokenize(text);
        out.push(decode_event_tokens(spec, &tokens, line)?);
    }
    Ok(out)
}

/// Decodes and *replays* a log into a validated run from `initial`.
pub fn load_run(
    spec: std::sync::Arc<WorkflowSpec>,
    initial: Instance,
    log: &str,
) -> Result<Run, CodecError> {
    let events = decode_events(&spec, log)?;
    Ok(Run::replay(spec, initial, events)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    fn spec() -> Arc<WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { Task(K, Title); Done(K); }
                peers { a sees Task(*), Done(*); b sees Task(*), Done(*); }
                rules {
                    mk @ a: +Task(t, n) :- ;
                    fin @ b: +Done(d) :- Task(d, n2);
                }
                "#,
            )
            .unwrap(),
        )
    }

    fn sample_run(spec: &Arc<WorkflowSpec>) -> Run {
        let mut run = Run::new(Arc::clone(spec));
        let t = run.draw_fresh();
        let n = run.draw_fresh();
        let mk = spec.program().rule_by_name("mk").unwrap();
        let mut b = Bindings::empty(2);
        b.set(VarId(0), t);
        b.set(VarId(1), n);
        run.push(Event::new(spec, mk, b).unwrap()).unwrap();
        let fin = spec.program().rule_by_name("fin").unwrap();
        let mut b = Bindings::empty(2);
        b.set(VarId(0), t);
        b.set(VarId(1), Value::Fresh(1));
        run.push(Event::new(spec, fin, b).unwrap()).unwrap();
        run
    }

    #[test]
    fn round_trip() {
        let spec = spec();
        let run = sample_run(&spec);
        let log = encode_run(&run);
        let back = load_run(
            Arc::clone(&spec),
            Instance::empty(spec.collab().schema()),
            &log,
        )
        .unwrap();
        assert_eq!(back.events(), run.events());
        assert_eq!(back.current(), run.current());
    }

    #[test]
    fn all_value_kinds_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Fresh(7),
            Value::str("plain"),
            Value::str("with \"quotes\" and \\slashes\\ and\nnewlines"),
        ] {
            let mut s = String::new();
            encode_value(&v, &mut s);
            assert_eq!(decode_value(&s, 1).unwrap(), v, "token {s}");
        }
    }

    #[test]
    fn non_canonical_tokens_are_refused() {
        for token in [
            r#"s:"a"b""#,
            "s:\"\"\"",
            "i:+5",
            "i:05",
            "i:-0",
            "i:-",
            "f:+3",
            "f:03",
            "f:-1",
            "f:18446744073709551615",
        ] {
            assert_eq!(
                decode_value(token, 3),
                Err(CodecError::BadValue {
                    line: 3,
                    token: token.into()
                }),
                "{token}"
            );
        }
        let canonical = [
            "i:0",
            "i:-7",
            "i:10",
            "f:0",
            "f:18446744073709551614",
            "s:\"\"",
        ];
        for token in canonical {
            let mut back = String::new();
            encode_value(&decode_value(token, 1).unwrap(), &mut back);
            assert_eq!(back, token);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let spec = spec();
        let log = "# header\n\n   \nmk f:0 s:\"x\"\n";
        let events = decode_events(&spec, log).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let spec = spec();
        assert_eq!(
            decode_events(&spec, "ghost f:0"),
            Err(CodecError::UnknownRule {
                line: 1,
                name: "ghost".into()
            })
        );
        assert_eq!(
            decode_events(&spec, "# c\nmk f:0"),
            Err(CodecError::Arity {
                line: 2,
                name: "mk".into(),
                expected: 2,
                got: 1
            })
        );
        assert!(matches!(
            decode_events(&spec, "mk f:0 zz:1"),
            Err(CodecError::BadValue { line: 1, .. })
        ));
    }

    #[test]
    fn tampered_logs_fail_replay() {
        let spec = spec();
        // fin before mk: body fails.
        let log = "fin f:0 f:1\n";
        let err = load_run(
            Arc::clone(&spec),
            Instance::empty(spec.collab().schema()),
            log,
        )
        .unwrap_err();
        assert!(matches!(err, CodecError::Replay(_)));
    }

    #[test]
    fn quoted_strings_with_spaces_tokenize() {
        let toks = tokenize(r#"mk f:0 s:"two words" i:3"#);
        assert_eq!(toks, vec!["mk", "f:0", r#"s:"two words""#, "i:3"]);
    }
}
