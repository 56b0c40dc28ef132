//! Hostile input for the text event-log decoder behind `load_run`:
//! `decode_events` and `load_run` must answer every log with events (a
//! replayed run) or a typed `CodecError`, never a panic.
//!
//! Three families of input:
//! - arbitrary bytes, decoded lossily to a string, bare or glued from log
//!   pieces (rule names, value tokens, quotes, escapes, line breaks);
//! - valid `encode_run` logs of procurement streams and chaos-spec walks
//!   with one to three event lines edited: a token truncated, duplicated,
//!   dropped or re-tagged, an unbalanced quote or escape inserted, a value
//!   replaced by an over-long or edge number (`f:18446744073709551615`
//!   among them), or the line cut short;
//! - the same valid logs with CRLF line ends or Unicode whitespace between
//!   tokens, which must decode to the logged events.
//!
//! A decoding error must name a line that holds an event: on an edited log,
//! one of the edited lines. A replay error of an edited log must come at or
//! after the first edited event, since the events before it are the logged
//! ones. Valid logs round-trip: decoding gives the run's events, loading
//! gives its instance, and re-encoding the loaded run gives the log. The
//! decoder is the exact inverse of the encoder: every edited log that
//! decodes re-encodes to its own event lines byte for byte, up to the
//! whitespace between tokens. Fresh values drawn after a log that holds the
//! largest one are refused, never wrapped around.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use collab_workflows::engine::chaos::{default_spec, modification_spec};
use collab_workflows::engine::{
    decode_events, encode_event, encode_run, load_run, CodecError, Event, Run,
};
use collab_workflows::lang::WorkflowSpec;
use collab_workflows::model::Value;
use collab_workflows::workloads::{build_procurement_run, random_run};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A valid run and its log: a procurement stream (`family` 0) or a walk of
/// the chaos `default_spec` (1) or `modification_spec` (2).
fn logged(family: u8, seed: u64) -> (Run, String) {
    let run = match family {
        0 => {
            let mut rng = StdRng::seed_from_u64(seed);
            build_procurement_run(1 + seed as usize % 3, seed as usize % 3, &mut rng).run
        }
        1 => random_run(&default_spec(), 16, seed),
        _ => random_run(&modification_spec(), 16, seed),
    };
    let log = encode_run(&run);
    (run, log)
}

/// What `decode_events` and `load_run` answer for one log.
type Outcome = (Result<Vec<Event>, CodecError>, Result<Run, CodecError>);

/// `decode_events` and `load_run` on `log`, failing the case on a panic.
fn decode_and_load(spec: &Arc<WorkflowSpec>, log: &str) -> Result<Outcome, TestCaseError> {
    catch_unwind(AssertUnwindSafe(|| {
        let initial = Run::new(Arc::clone(spec)).initial().clone();
        (
            decode_events(spec, log),
            load_run(Arc::clone(spec), initial, log),
        )
    }))
    .map_err(|_| TestCaseError::fail(format!("the decoder panicked on {log:?}")))
}

/// Does line `line` (1-based) of `log` hold an event, i.e. is it neither
/// blank nor a comment?
fn holds_event(log: &str, line: usize) -> bool {
    log.lines()
        .nth(line.wrapping_sub(1))
        .is_some_and(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
}

/// The outcome of decoding and loading `log` is typed and consistent: a
/// decoding error names an event line (one of `edited`, when given) and
/// `load_run` fails with the same error; otherwise `load_run` loads the
/// decoded events or fails to replay one of them, at or after event
/// `first_edited`.
fn check(
    spec: &Arc<WorkflowSpec>,
    log: &str,
    edited: Option<&[usize]>,
    first_edited: usize,
) -> Result<(), TestCaseError> {
    let (decoded, loaded) = decode_and_load(spec, log)?;
    match decoded {
        Err(e) => {
            let Some(line) = e.line() else {
                return Err(TestCaseError::fail(format!("{e} names no line")));
            };
            prop_assert!(holds_event(log, line), "{} names no event line", e);
            if let Some(edited) = edited {
                prop_assert!(edited.contains(&line), "{} is not on an edited line", e);
            }
            prop_assert_eq!(loaded.err(), Some(e), "load_run fails as decoding does");
        }
        Ok(events) => match loaded {
            Ok(run) => prop_assert!(run.events() == events, "load_run loads the decoded events"),
            Err(CodecError::Replay(r)) => {
                prop_assert!(r.index < events.len(), "replay fails on a decoded event");
                prop_assert!(
                    r.index >= first_edited,
                    "the logged prefix replays, but event {} failed: {}",
                    r.index,
                    r
                );
            }
            Err(e) => return Err(TestCaseError::fail(format!("decoded, then {e}"))),
        },
    }
    Ok(())
}

/// `line` as the encoder writes it if its tokens are canonical: trimmed,
/// with each run of whitespace between tokens (outside a quoted string) cut
/// to one space.
fn single_spaced(line: &str) -> String {
    let mut out = String::new();
    let (mut in_str, mut escaped, mut gap) = (false, false, false);
    for c in line.trim().chars() {
        if !in_str && c.is_whitespace() {
            gap = true;
            continue;
        }
        if gap {
            out.push(' ');
            gap = false;
        }
        out.push(c);
        if in_str && escaped {
            escaped = false;
        } else if in_str && c == '\\' {
            escaped = true;
        } else if c == '"' {
            in_str = !in_str;
        }
    }
    out
}

/// A log that decodes re-encodes to itself: the encoding of each decoded
/// event is its event line, single-spaced.
fn reencodes(spec: &WorkflowSpec, log: &str) -> Result<(), TestCaseError> {
    let Ok(events) = decode_events(spec, log) else {
        return Ok(());
    };
    let lines: Vec<&str> = log
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
        .collect();
    prop_assert_eq!(lines.len(), events.len(), "one event per event line");
    for (line, event) in lines.iter().zip(&events) {
        prop_assert_eq!(
            encode_event(spec, event),
            single_spaced(line),
            "the line {:?} decodes to an event that re-encodes differently",
            line
        );
    }
    Ok(())
}

/// Replacement value tokens at the edges of their types or past them.
const EDGE_TOKENS: &[&str] = &[
    "f:18446744073709551615",
    "f:18446744073709551616",
    "f:18446744073709551614",
    "f:99999999999999999999999999999999",
    "f:-1",
    "f:",
    "i:9223372036854775807",
    "i:9223372036854775808",
    "i:-9223372036854775808",
    "i:-9223372036854775809",
    "i:000000000000000000000000000000000000007",
    "i:+5",
    "i:0x10",
    "i:\u{ff11}",
    "i:",
    "b:TRUE",
    "b:",
    "s:",
    "s:\"",
    "s:\"\\\"",
    "s:\"\\q\"",
    "s:\"a\"b\"",
    "_",
    "__",
    ":",
    "",
];

/// Tags a re-tagged token may get.
const TAGS: &[&str] = &["i", "b", "s", "f", "_", "x", ""];

/// Edits one event line: truncates, duplicates, drops or re-tags a token,
/// inserts an unbalanced quote or escape, swaps a value for an edge token,
/// or cuts the line short.
fn edit_line(line: &str, rng: &mut StdRng) -> String {
    let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
    let at = rng.gen_range(0..tokens.len());
    match rng.gen_range(0..8) {
        0 => {
            let chars: Vec<char> = tokens[at].chars().collect();
            let keep = rng.gen_range(0..=chars.len());
            tokens[at] = chars[..keep].iter().collect();
        }
        1 => {
            let copy = tokens[at].clone();
            tokens.insert(at, copy);
        }
        2 => {
            tokens.remove(at);
        }
        3 => {
            let tag = TAGS[rng.gen_range(0..TAGS.len())];
            let rest = tokens[at]
                .split_once(':')
                .map_or("", |(_, r)| r)
                .to_string();
            tokens[at] = format!("{tag}:{rest}");
        }
        4 | 5 => {
            const ESCAPES: [&str; 6] = ["\"", "\\", "\\\"", "\\\\", "\\n", "\\q"];
            let piece = ESCAPES[rng.gen_range(0..ESCAPES.len())];
            let chars: Vec<char> = tokens[at].chars().collect();
            let pos = rng.gen_range(0..=chars.len());
            tokens[at] = chars[..pos]
                .iter()
                .copied()
                .chain(piece.chars())
                .chain(chars[pos..].iter().copied())
                .collect();
        }
        6 => tokens[at] = EDGE_TOKENS[rng.gen_range(0..EDGE_TOKENS.len())].to_string(),
        _ => {
            let joined = tokens.join(" ");
            let chars: Vec<char> = joined.chars().collect();
            return chars[..rng.gen_range(0..=chars.len())].iter().collect();
        }
    }
    tokens.join(" ")
}

/// Whitespace characters `char::is_whitespace` accepts, besides the space.
const WHITESPACE: &[char] = &[
    '\t', '\u{b}', '\u{c}', '\u{85}', '\u{a0}', '\u{1680}', '\u{2003}', '\u{2028}', '\u{205f}',
    '\u{3000}',
];

/// Pieces a random log is glued from.
const PIECES: &[&str] = &[
    "draft",
    "review",
    "publish",
    "note",
    "retract",
    "open",
    "claim",
    "finish",
    "prune",
    "submit_small",
    "approve_m",
    " ",
    " ",
    "\n",
    "\r\n",
    "\r",
    "\t",
    "#",
    "\"",
    "\\",
    ":",
    "_",
    "f:0",
    "f:1",
    "i:7",
    "b:true",
    "s:\"small\"",
    "f:18446744073709551615",
    "é",
    "\u{0}",
    "\u{feff}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid logs round-trip, also with CRLF line ends and Unicode
    /// whitespace around and between their tokens.
    #[test]
    fn valid_logs_round_trip(family in 0u8..3, seed in 0u64..10_000) {
        let (run, log) = logged(family, seed);
        let spec = run.spec_arc();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
        let crlf = log.replace('\n', "\r\n");
        let spaced: String = log
            .lines()
            .map(|l| {
                let mut ws = || WHITESPACE[rng.gen_range(0..WHITESPACE.len())];
                let inner: String = l.chars().map(|c| if c == ' ' { ws() } else { c }).collect();
                format!("{}{inner}{}\n", ws(), ws())
            })
            .collect();
        for (what, text) in [("plain", &log), ("crlf", &crlf), ("spaced", &spaced)] {
            let (decoded, loaded) = decode_and_load(&spec, text)?;
            prop_assert!(
                decoded.as_ref().ok().map(Vec::as_slice) == Some(run.events()),
                "{}: decoded events",
                what
            );
            let loaded = loaded.map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
            prop_assert!(loaded.current() == run.current(), "{}: loaded instance", what);
            prop_assert_eq!(encode_run(&loaded), log.clone(), "{}: re-encoded log", what);
        }
    }

    /// Edited event lines fail on an edited line, or replay the logged
    /// prefix before failing or loading.
    #[test]
    fn edited_logs_fail_on_an_edited_line(family in 0u8..3, seed in 0u64..10_000) {
        let (run, log) = logged(family, seed);
        prop_assert!(!run.is_empty(), "every logged walk has events");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xed17);
        let mut lines: Vec<String> = log.lines().map(str::to_string).collect();
        // Line 1 is the header comment; event `i` is on line `i + 2`.
        let mut edited = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let i = rng.gen_range(0..run.len());
            for _ in 0..rng.gen_range(1..3) {
                lines[i + 1] = edit_line(&lines[i + 1], &mut rng);
            }
            edited.push(i + 2);
        }
        let first = edited.iter().min().copied().unwrap_or(2) - 2;
        let hostile = lines.join("\n");
        check(&run.spec_arc(), &hostile, Some(&edited), first)?;
        reencodes(run.spec(), &hostile)?;
    }

    /// Arbitrary bytes, decoded lossily, never panic the decoder.
    #[test]
    fn random_bytes_never_panic(family in 0u8..3, seed in 0u64..u64::MAX) {
        let spec = logged(family, 0).0.spec_arc();
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..rng.gen_range(0..256)).map(|_| rng.gen_range(0..=255u8)).collect();
        check(&spec, &String::from_utf8_lossy(&bytes), None, 0)?;
        let mut glued = String::new();
        for _ in 0..rng.gen_range(0..64) {
            glued.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
        }
        check(&spec, &glued, None, 0)?;
    }
}

/// Every edge token in the place of every value of a logged event: each
/// edited log fails on its line or loads, and re-encodes to itself when it
/// decodes — so a token the encoder never writes (`i:+5`, `s:"a"b"`) is
/// refused, not read as a value that re-encodes differently.
#[test]
fn edge_tokens_are_refused_or_reencode_exactly() {
    for family in 0..3 {
        let (run, log) = logged(family, 1);
        let spec = run.spec_arc();
        let lines: Vec<&str> = log.lines().collect();
        for (at, line) in lines.iter().enumerate().skip(1) {
            let tokens: Vec<&str> = line.split(' ').collect();
            for slot in 1..tokens.len() {
                for edge in EDGE_TOKENS {
                    let mut edited = tokens.clone();
                    edited[slot] = edge;
                    let mut hostile = lines.clone();
                    let line = edited.join(" ");
                    hostile[at] = &line;
                    let hostile = hostile.join("\n");
                    check(&spec, &hostile, Some(&[at + 1]), at - 1).unwrap();
                    reencodes(&spec, &hostile).unwrap();
                }
            }
        }
    }
}

/// A logged fresh value one below `u64::MAX` leaves the loaded run's
/// generator exhausted: every later draw is refused with a panic, in every
/// build profile, instead of wrapping around to re-mint `ν0`. One value
/// lower, the last value is drawn once before the refusals start.
#[test]
fn fresh_draws_after_the_largest_logged_value_are_refused() {
    let spec = default_spec();
    let initial = Run::new(Arc::clone(&spec)).initial().clone();
    let load =
        |log: &str| load_run(Arc::clone(&spec), initial.clone(), log).expect("the log loads");
    let refused = |run: &mut Run| catch_unwind(AssertUnwindSafe(|| run.draw_fresh())).is_err();

    let mut run = load("draft f:18446744073709551614\n");
    assert_eq!(run.fresh_watermark(), u64::MAX);
    assert!(refused(&mut run), "the first draw is refused");
    assert!(refused(&mut run), "and so is every later one");

    let mut run = load("draft f:18446744073709551613\n");
    assert_eq!(run.draw_fresh(), Value::Fresh(u64::MAX - 1));
    assert!(refused(&mut run), "u64::MAX is never drawn");
    assert_eq!(run.fresh_watermark(), u64::MAX);
}
