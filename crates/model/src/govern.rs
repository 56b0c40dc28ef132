//! Resource governance for the workspace's hard analyses.
//!
//! The paper's central algorithmic objects are worst-case intractable —
//! minimum scenarios are NP-complete (Theorem 3.3), minimality is
//! coNP-complete (Theorem 3.4), h-boundedness and transparency are
//! PSPACE-complete (Theorems 5.10/5.11). Production deployments therefore
//! never run these unbounded: every governed entry point threads a
//! [`Governor`] — a combined **node budget**, **wall-clock deadline** and
//! cooperative **cancellation token** — and reports a [`Verdict`] that says
//! not just *whether* the computation finished, but *which* resource ran
//! out and what the best *anytime* answer found so far is.
//!
//! ```
//! use cwf_model::govern::{Governor, Reason, Verdict};
//!
//! let gov = Governor::with_nodes(2);
//! assert!(gov.tick().is_ok());
//! assert!(gov.tick().is_ok());
//! assert_eq!(gov.tick(), Err(Reason::Nodes));
//!
//! // Panic isolation: a poisoned analysis becomes a verdict, not a crash.
//! let v: Verdict<()> = Governor::unlimited().guard(|| panic!("boom"));
//! assert!(matches!(v, Verdict::Exhausted(Reason::Panicked(_))));
//! ```

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod pool;

pub use pool::{FirstHit, Pool, SharedMin, DEFAULT_CHUNK};

/// How often (in ticks) the governor consults the wall clock. Cancellation
/// and the node budget are checked on **every** tick; only the comparatively
/// expensive `Instant::now()` is strided.
const DEADLINE_STRIDE: u64 = 64;

/// Why a governed computation stopped before finishing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// The node budget ran out.
    Nodes,
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was triggered (typically from another thread).
    Cancelled,
    /// A runaway cap inside the analysis tripped: an enumerated state
    /// space or memo table outgrew the size the analysis allows itself.
    Memory,
    /// The computation panicked; the payload is the panic message.
    Panicked(String),
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reason::Nodes => write!(f, "node budget exhausted"),
            Reason::Deadline => write!(f, "deadline exceeded"),
            Reason::Cancelled => write!(f, "cancelled"),
            Reason::Memory => write!(f, "memory limit exceeded"),
            Reason::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// Qualifies an anytime answer: why the search stopped and the best bounds
/// it had proven by then (interpreted by each analysis — e.g. scenario-length
/// bounds for `search_min_scenario`, instance counts for the reachable-set
/// enumeration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bound {
    /// Which resource ran out.
    pub reason: Reason,
    /// Best proven lower bound, if any.
    pub lower: Option<u64>,
    /// Best proven upper bound (e.g. from a greedy witness), if any.
    pub upper: Option<u64>,
}

impl Bound {
    /// A bound with no numeric information (the reason alone).
    pub fn bare(reason: Reason) -> Self {
        Bound {
            reason,
            lower: None,
            upper: None,
        }
    }
}

/// The uniform result of every governed computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<T> {
    /// The computation finished; the answer is exact.
    Done(T),
    /// A resource ran out, but a best-effort answer was found; the [`Bound`]
    /// says why the search stopped and how good the answer is known to be.
    Anytime(T, Bound),
    /// A resource ran out before any usable answer existed.
    Exhausted(Reason),
}

impl<T> Verdict<T> {
    /// Did the computation finish exactly?
    pub fn is_done(&self) -> bool {
        matches!(self, Verdict::Done(_))
    }

    /// The answer, exact or anytime.
    pub fn value(&self) -> Option<&T> {
        match self {
            Verdict::Done(v) | Verdict::Anytime(v, _) => Some(v),
            Verdict::Exhausted(_) => None,
        }
    }

    /// Consumes the verdict into its answer, exact or anytime.
    pub fn into_value(self) -> Option<T> {
        match self {
            Verdict::Done(v) | Verdict::Anytime(v, _) => Some(v),
            Verdict::Exhausted(_) => None,
        }
    }

    /// The exhaustion reason, if the computation was cut off.
    pub fn reason(&self) -> Option<&Reason> {
        match self {
            Verdict::Done(_) => None,
            Verdict::Anytime(_, b) => Some(&b.reason),
            Verdict::Exhausted(r) => Some(r),
        }
    }

    /// The anytime bound, if present.
    pub fn bound(&self) -> Option<&Bound> {
        match self {
            Verdict::Anytime(_, b) => Some(b),
            _ => None,
        }
    }

    /// Maps the answer through `f`, preserving the verdict shape.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Verdict<U> {
        match self {
            Verdict::Done(v) => Verdict::Done(f(v)),
            Verdict::Anytime(v, b) => Verdict::Anytime(f(v), b),
            Verdict::Exhausted(r) => Verdict::Exhausted(r),
        }
    }
}

impl<T> Verdict<Option<T>> {
    /// For searches whose answer is itself optional (`Some(witness)` /
    /// `None` = proven absent): the witness found, exact or anytime.
    pub fn found(&self) -> Option<&T> {
        self.value().and_then(|v| v.as_ref())
    }
}

/// A clonable, thread-safe cancellation flag. Cancelling is sticky.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Triggers cancellation; every governed computation holding this token
    /// stops at its next tick.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has the token been triggered?
    pub(crate) fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The shared resource-governor handle threaded through every hard analysis.
///
/// A `Governor` combines three independent guards, any subset of which may
/// be active:
///
/// * a **node budget** — a count of search nodes (`tick()` per node);
/// * a **wall-clock deadline** — checked every [`DEADLINE_STRIDE`] ticks;
/// * a **cancel token** — checked on *every* tick, so cancellation from
///   another thread stops a search within one tick.
///
/// Counters use interior mutability, so governed code takes `&Governor`.
#[derive(Debug)]
pub struct Governor {
    max_nodes: u64,
    deadline: Option<Instant>,
    cancel: CancelToken,
    nodes_used: AtomicU64,
}

impl Default for Governor {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Governor {
    /// No limits at all (every check passes).
    pub fn unlimited() -> Self {
        Governor {
            max_nodes: u64::MAX,
            deadline: None,
            cancel: CancelToken::new(),
            nodes_used: AtomicU64::new(0),
        }
    }

    /// A node budget of `n` search nodes.
    pub fn with_nodes(n: u64) -> Self {
        Governor {
            max_nodes: n,
            ..Self::unlimited()
        }
    }

    /// A wall-clock deadline `d` from now (a deadline of zero exhausts on
    /// the first check).
    pub fn with_deadline(d: Duration) -> Self {
        Self::unlimited().deadline(d)
    }

    /// Builder: sets the wall-clock deadline to `d` from now.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Builder: attaches an externally held cancellation token.
    pub fn cancelled_by(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// A token that cancels this governor (clonable across threads).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Counts one search node and checks every guard. `Err` names the first
    /// resource found exhausted; searches should unwind to their entry point
    /// and produce an [`Anytime`](Verdict::Anytime) or
    /// [`Exhausted`](Verdict::Exhausted) verdict.
    ///
    /// One `Governor` is shared by every worker of a parallel search, so
    /// admission is a compare-and-swap loop that never counts past the
    /// budget: exactly `max_nodes` ticks succeed across all threads, no
    /// matter how contended, and `nodes_used` stays a true admission count.
    pub fn tick(&self) -> Result<(), Reason> {
        let mut cur = self.nodes_used.load(Ordering::Relaxed);
        let used = loop {
            if cur >= self.max_nodes {
                return Err(Reason::Nodes);
            }
            match self.nodes_used.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break cur + 1,
                Err(seen) => cur = seen,
            }
        };
        if self.cancel.is_cancelled() {
            return Err(Reason::Cancelled);
        }
        // The clock is strided, but the first tick always checks it so a
        // zero deadline exhausts immediately.
        if used % DEADLINE_STRIDE == 1 {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Checks the tick-independent guards (deadline, cancellation) without
    /// consuming a node. Entry points call this once up front.
    pub fn check(&self) -> Result<(), Reason> {
        if self.cancel.is_cancelled() {
            return Err(Reason::Cancelled);
        }
        self.check_deadline()
    }

    fn check_deadline(&self) -> Result<(), Reason> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(Reason::Deadline),
            _ => Ok(()),
        }
    }

    /// Search nodes consumed so far.
    pub fn nodes_used(&self) -> u64 {
        self.nodes_used.load(Ordering::Relaxed)
    }

    /// Runs `f` with panic isolation: a panicking analysis yields
    /// `Exhausted(Panicked(message))` instead of unwinding into the caller —
    /// one poisoned query must not take down a coordinator serving other
    /// peers. Every governed entry point wraps its body in this.
    pub fn guard<T>(&self, f: impl FnOnce() -> Verdict<T>) -> Verdict<T> {
        match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => v,
            Err(payload) => Verdict::Exhausted(Reason::Panicked(panic_message(&*payload))),
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn node_budget_exhausts_exactly() {
        let gov = Governor::with_nodes(3);
        assert!(gov.tick().is_ok());
        assert!(gov.tick().is_ok());
        assert!(gov.tick().is_ok());
        assert_eq!(gov.tick(), Err(Reason::Nodes));
        // Denied ticks are not admitted: the counter is exact.
        assert_eq!(gov.nodes_used(), 3);
        assert_eq!(gov.tick(), Err(Reason::Nodes));
        assert_eq!(gov.nodes_used(), 3);
    }

    #[test]
    fn node_budget_never_over_admits_under_contention() {
        // Many threads hammer one shared governor: the CAS admission loop
        // must hand out exactly `budget` successful ticks in total, however
        // the interleavings fall.
        const BUDGET: u64 = 10_000;
        let gov = Governor::with_nodes(BUDGET);
        let admitted = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut local = 0u64;
                    // Over-subscribe: every worker tries the full budget.
                    for _ in 0..BUDGET {
                        if gov.tick().is_ok() {
                            local += 1;
                        }
                    }
                    admitted.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(admitted.load(Ordering::Relaxed), BUDGET);
        assert_eq!(gov.nodes_used(), BUDGET);
        assert_eq!(gov.tick(), Err(Reason::Nodes));
    }

    #[test]
    fn zero_deadline_exhausts_on_first_check() {
        let gov = Governor::with_deadline(Duration::ZERO);
        assert_eq!(gov.check(), Err(Reason::Deadline));
        assert_eq!(gov.tick(), Err(Reason::Deadline));
    }

    #[test]
    fn cancellation_is_seen_within_one_tick() {
        let gov = Governor::unlimited();
        let token = gov.cancel_token();
        assert!(gov.tick().is_ok());
        let handle = thread::spawn(move || token.cancel());
        handle.join().unwrap();
        assert_eq!(gov.tick(), Err(Reason::Cancelled));
    }

    #[test]
    fn guard_converts_panics() {
        let v: Verdict<u32> = Governor::unlimited().guard(|| panic!("poisoned evaluator"));
        match v {
            Verdict::Exhausted(Reason::Panicked(msg)) => {
                assert!(msg.contains("poisoned evaluator"));
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn verdict_accessors() {
        let done: Verdict<Option<u32>> = Verdict::Done(Some(7));
        assert_eq!(done.found(), Some(&7));
        assert!(done.is_done());
        let any = Verdict::Anytime(Some(9u32), Bound::bare(Reason::Deadline));
        assert_eq!(any.found(), Some(&9));
        assert_eq!(any.reason(), Some(&Reason::Deadline));
        let ex: Verdict<Option<u32>> = Verdict::Exhausted(Reason::Nodes);
        assert_eq!(ex.found(), None);
        assert_eq!(
            ex.map(|v| v.map(|x| x + 1)),
            Verdict::Exhausted(Reason::Nodes)
        );
    }
}
