//! Domain values.
//!
//! The paper assumes an infinite data domain `dom` with a distinguished
//! element `⊥` (an *undefined* value) and, disjoint from it, an infinite set
//! of *fresh* values used to instantiate head-only variables of rules
//! ("globally fresh" values, Section 2).
//!
//! We realize `dom` as the disjoint union of booleans, 64-bit integers,
//! interned strings, and a dedicated countable pool of [`Value::Fresh`]
//! symbols. Fresh symbols can never be written in a program or schema, so a
//! monotone counter suffices to guarantee global freshness within a run.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::intern::Istr;

/// A single domain value.
///
/// `Value::Null` is the paper's `⊥`. The ordering is total (needed for
/// deterministic, reproducible iteration over instances) but otherwise
/// semantically meaningless: the model only ever compares values for
/// (dis)equality.
///
/// `Value` is `Copy`: strings are interned [`Istr`] handles with pointer
/// equality, so comparing, hashing and copying values is O(1) regardless of
/// string length. The ordering over `Str` is still by content (via `Istr`'s
/// `Ord`), so instance iteration orders are identical to the old
/// `Arc<str>` representation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub enum Value {
    /// The undefined value `⊥`.
    #[default]
    Null,
    /// A boolean constant.
    Bool(bool),
    /// An integer constant.
    Int(i64),
    /// An interned string constant (`Copy`, O(1) equality).
    Str(Istr),
    /// A globally fresh symbol drawn by a [`FreshGen`]; never denotable by a
    /// program constant.
    Fresh(u64),
}

impl Value {
    /// Builds a string value (interning the content).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Istr::new(s.as_ref()))
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Is this the undefined value `⊥`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Is this a fresh symbol (i.e. created at run time rather than written
    /// in a program)?
    pub fn is_fresh(&self) -> bool {
        matches!(self, Value::Fresh(_))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Fresh(n) => write!(f, "ν{n}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

/// A generator of globally fresh values.
///
/// The run semantics (Section 2) requires that a variable occurring in the
/// head but not the body of a rule be instantiated to a value that occurs
/// neither in `const(P)` nor in any earlier instance of the run. Because
/// [`Value::Fresh`] symbols are not denotable by programs, a strictly
/// increasing counter satisfies this for any single run.
///
/// The counter draws `ν0` up to `ν18446744073709551614` (`u64::MAX − 1`).
/// A counter at `u64::MAX` is exhausted: it refuses to draw rather than
/// wrap around and re-mint a value already used, in every build profile.
/// (The event-log codec refuses `f:18446744073709551615` for the same
/// reason: no drawn value is ever `u64::MAX`.)
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FreshGen {
    next: u64,
}

impl FreshGen {
    /// A generator starting at `ν0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws the next fresh value.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, when the generator is exhausted:
    /// every value up to `u64::MAX − 1` has been drawn or observed.
    pub fn draw(&mut self) -> Value {
        assert!(
            self.next < u64::MAX,
            "fresh values exhausted: the counter has reached u64::MAX"
        );
        let v = Value::Fresh(self.next);
        self.next += 1;
        v
    }

    /// The counter the next draw will use.
    pub fn peek(&self) -> u64 {
        self.next
    }

    /// Advances the generator past `v` if `v` is a fresh symbol, so that
    /// replaying a prefix of events keeps later draws globally fresh.
    pub fn observe(&mut self, v: &Value) {
        if let Value::Fresh(n) = v {
            if *n >= self.next {
                self.next = n.saturating_add(1);
            }
        }
    }

    /// Raises the counter to at least `next` (never lowers it) — for
    /// restoring a persisted watermark, where values drawn *and deleted*
    /// before a snapshot are no longer observable from any instance.
    pub fn raise_to(&mut self, next: u64) {
        self.next = self.next.max(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_default_and_detected() {
        assert!(Value::default().is_null());
        assert!(Value::Null.is_null());
        assert!(!Value::int(0).is_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "⊥");
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::str("sue").to_string(), "\"sue\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Fresh(7).to_string(), "ν7");
    }

    #[test]
    fn fresh_gen_is_strictly_increasing() {
        let mut g = FreshGen::new();
        let a = g.draw();
        let b = g.draw();
        assert_ne!(a, b);
        assert!(a < b);
        assert!(a.is_fresh() && b.is_fresh());
    }

    #[test]
    fn fresh_gen_observe_skips_past_seen_values() {
        let mut g = FreshGen::new();
        g.observe(&Value::Fresh(10));
        assert_eq!(g.draw(), Value::Fresh(11));
        // Observing constants does nothing.
        g.observe(&Value::int(99));
        assert_eq!(g.draw(), Value::Fresh(12));
        // Observing an already-passed fresh value does nothing.
        g.observe(&Value::Fresh(3));
        assert_eq!(g.draw(), Value::Fresh(13));
    }

    #[test]
    fn fresh_gen_refuses_to_wrap() {
        let exhausted = |mut g: FreshGen| std::panic::catch_unwind(move || g.draw()).is_err();
        let mut g = FreshGen::new();
        g.observe(&Value::Fresh(u64::MAX - 2));
        assert_eq!(g.draw(), Value::Fresh(u64::MAX - 1));
        assert_eq!(g.peek(), u64::MAX);
        assert!(exhausted(g.clone()), "u64::MAX is never drawn");
        let mut g = FreshGen::new();
        g.observe(&Value::Fresh(u64::MAX));
        assert_eq!(g.peek(), u64::MAX, "observing u64::MAX does not wrap");
        assert!(exhausted(g));
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut vs = vec![
            Value::str("b"),
            Value::Null,
            Value::int(1),
            Value::Fresh(0),
            Value::Bool(false),
            Value::str("a"),
        ];
        vs.sort();
        let again = {
            let mut v = vs.clone();
            v.sort();
            v
        };
        assert_eq!(vs, again);
        assert_eq!(vs[0], Value::Null, "⊥ sorts first");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(String::from("y")), Value::str("y"));
    }
}
