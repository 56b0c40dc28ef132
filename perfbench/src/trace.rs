//! In-memory span recorder for the traced runs.
//!
//! A span is one call the benchmark makes into a layer (or one call the
//! engine makes into a wrapper the benchmark supplied, such as the WAL
//! backend): name, start, end, the span that was open when it began, and the
//! operation it belongs to. Spans stay in memory and are written out once,
//! when the run ends. With tracing off, [`span`] is a thread-local flag test
//! around the call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index + 1 of the enclosing span (0: a root span).
    pub parent: u32,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<u32>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// Is span recording on?
pub fn enabled() -> bool {
    ON.with(|c| c.get())
}

/// Tags the spans recorded from now on with operation `op`.
pub fn set_op(op: u64) {
    OP.with(|c| c.set(op));
}

/// Runs `f`, recording it as span `name` when tracing is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let start = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().map_or(0, |&i| i + 1);
        let idx = r.spans.len() as u32;
        r.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: OP.with(|c| c.get()),
        });
        r.open.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = r.origin.elapsed().as_nanos() as u64;
        r.spans[idx as usize].end = end;
        let closed = r.open.pop();
        debug_assert_eq!(closed, Some(idx), "spans close innermost first");
    });
    out
}

/// Runs `f` as span `name` and also returns its wall time in nanoseconds,
/// traced or not. The result is dropped by the caller, outside the timing.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = span(name, f);
    (t0.elapsed().as_nanos() as u64, out)
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// Per-name totals: call count, total time and self time (total minus the
/// time covered by direct child spans), all in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean total time per call, in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64 / 1e3
    }
}

/// Folds the recorded spans into per-name totals.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent > 0 {
            child_ns[s.parent as usize - 1] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.ns();
        t.self_ns += s.ns().saturating_sub(covered);
    }
    out
}

/// Writes every span as one tab-separated line:
/// `id name start_ns end_ns parent op` (parent 0: none; ids start at 1).
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\top")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            i + 1,
            s.name,
            s.start,
            s.end,
            s.parent,
            s.op
        )?;
    }
    w.flush()
}
