//! Hostile input for the workflow parser: `parse_workflow` must answer
//! every string with a spec or a typed `LangError`, never a panic. The
//! inputs are random strings over a mix of grammar tokens, punctuation and
//! arbitrary characters; the corpus programs (the workloads' and the chaos
//! simulator's specs, printed back to source) with random byte edits; and
//! deeply nested conditions, which a recursive descent without a depth
//! limit would answer by overflowing its stack.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use collab_workflows::engine::chaos::{default_spec, modification_spec};
use collab_workflows::lang::{parse_workflow, print_workflow, LangError, WorkflowSpec};
use collab_workflows::workloads::{
    applicant_example, hiring_example, hiring_staged, hr_replace_example, procurement_spec,
    review_spec, transitive_spec, triage_spec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The corpus programs, printed back to their concrete syntax.
fn corpus() -> Vec<String> {
    let specs: [Arc<WorkflowSpec>; 10] = [
        default_spec(),
        modification_spec(),
        procurement_spec(),
        triage_spec(),
        review_spec(),
        transitive_spec(),
        applicant_example(),
        hiring_example(),
        hiring_staged(),
        hr_replace_example(),
    ];
    specs.iter().map(|s| print_workflow(s)).collect()
}

/// Pieces a random program is glued from: every keyword and token of the
/// grammar, some names, and characters the lexer has no token for.
const PIECES: &[&str] = &[
    "schema",
    "peers",
    "rules",
    "sees",
    "where",
    "and",
    "or",
    "not",
    "key",
    "true",
    "false",
    "null",
    "{",
    "}",
    "(",
    ")",
    ",",
    ";",
    ":",
    ":-",
    "@",
    "+",
    "-",
    "*",
    "=",
    "!=",
    "!",
    "/",
    "//",
    "#",
    "\"",
    "\\",
    "\n",
    " ",
    "R",
    "K",
    "A",
    "p",
    "q",
    "x",
    "0",
    "-9",
    "99999999999999999999",
    "é",
    "\u{0}",
    "'",
    "R(K, A);",
    "p sees R(*);",
    "r @ p: +R(x, 0) :- ;",
];

/// `parse_workflow(input)`, failing the case on a panic.
fn parses_without_panic(input: &str) -> Result<Result<WorkflowSpec, LangError>, TestCaseError> {
    catch_unwind(AssertUnwindSafe(|| parse_workflow(input)))
        .map_err(|_| TestCaseError::fail(format!("parse_workflow panicked on {input:?}")))
}

/// Random edits of `src`'s bytes: flips, deletions, duplications and
/// inserted pieces, decoded lossily back to a string.
fn mutate(src: &str, rng: &mut StdRng) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..8) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..4) {
            0 => bytes[at] ^= 1u8 << rng.gen_range(0..8u32),
            1 => {
                let end = (at + rng.gen_range(1..16usize)).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => {
                let end = (at + rng.gen_range(1..32usize)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {
                let piece = PIECES[rng.gen_range(0..PIECES.len())].bytes();
                bytes.splice(at..at, piece);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn random_strings_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut input = String::new();
        for _ in 0..rng.gen_range(0..64) {
            if rng.gen_bool(0.8) {
                input.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
            } else {
                input.push(char::from_u32(rng.gen_range(0..0x3000)).unwrap_or('?'));
            }
            if rng.gen_bool(0.5) {
                input.push(' ');
            }
        }
        let _ = parses_without_panic(&input)?;
    }

    #[test]
    fn mutated_corpus_programs_never_panic(seed in 0u64..u64::MAX) {
        let corpus = corpus();
        let mut rng = StdRng::seed_from_u64(seed);
        let src = &corpus[rng.gen_range(0..corpus.len())];
        let _ = parses_without_panic(&mutate(src, &mut rng))?;
    }
}

/// The corpus programs themselves parse back, so the mutations start from
/// valid input.
#[test]
fn corpus_programs_round_trip() {
    for src in corpus() {
        let spec = parse_workflow(&src).expect("a printed spec parses");
        assert_eq!(print_workflow(&spec), src);
    }
}

/// Conditions nested far deeper than any real program are refused with a
/// typed error instead of exhausting the stack; moderate nesting parses.
#[test]
fn deep_nesting_is_a_typed_error() {
    let program = |open: &str, close: &str, depth: usize| {
        let cond = format!("{}A = 1{}", open.repeat(depth), close.repeat(depth));
        format!("schema {{ R(K, A); }} peers {{ p sees R(*) where {cond}; }} rules {{ }}")
    };
    for (open, close) in [("(", ")"), ("not ", "")] {
        assert!(parse_workflow(&program(open, close, 200)).is_ok());
        assert!(matches!(
            parses_without_panic(&program(open, close, 100_000)),
            Ok(Err(LangError::Parse { .. }))
        ));
    }
}
