//! A small internal thread pool for the governed hard analyses.
//!
//! The paper's analyses — minimum-scenario search, minimal-scenario
//! enumeration, h-boundedness, condition satisfiability — are the CPU-bound
//! core of this reproduction, and all of them decompose into independent
//! subproblems (branch-and-bound subtrees, mask ranges, frontier items).
//! [`Pool::run`] executes one task per item on scoped OS threads
//! ([`std::thread::scope`], no external dependency): a shared atomic index
//! is the work queue idle workers steal the next task from, and results land
//! in **index-ordered slots**, so the caller merges them in the exact order
//! a sequential loop would have produced — the foundation of the
//! "parallel is byte-identical to sequential" contract the differential
//! battery in `tests/par_analysis.rs` enforces.
//!
//! Sizing: [`Pool::global`] reads the `CWF_THREADS` environment variable
//! once (falling back to [`std::thread::available_parallelism`]); tests and
//! benches construct explicit [`Pool::with_threads`] handles instead. A pool
//! of one thread runs every task inline on the caller's stack, which is how
//! the sequential reference paths stay the oracle for the parallel ones.
//!
//! Granularity: workers claim work in **chunks** of consecutive item
//! indices (one atomic claim per chunk, not per item), so fine-grained
//! subproblems — shallow branch-and-bound subtrees, single mask ranges —
//! amortize the queue traffic. The chunk size comes from the `CWF_CHUNK`
//! environment variable ([`Pool::from_env`], default
//! [`DEFAULT_CHUNK`]); tests and benches pin it with
//! [`Pool::with_chunk`]. Chunking only changes *which worker* computes an
//! item, never the item→slot mapping, so merged results are byte-identical
//! at every chunk size — the chunk-sweep battery in
//! `tests/par_analysis.rs` enforces exactly that.
//!
//! Panic discipline: a panicking task does not abort its siblings. Every
//! task runs under `catch_unwind`; after all tasks finish, the payload of
//! the **smallest-index** panicked task is re-raised on the caller — exactly
//! the panic a sequential loop would have surfaced first — so the governor's
//! [`guard`](super::Governor::guard) still converts it into
//! `Exhausted(Panicked)` deterministically.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Default work-claim granularity: how many consecutive items one atomic
/// claim hands a worker. Large enough to amortize queue traffic on
/// fine-grained subproblems, small enough to keep a handful of workers
/// load-balanced over typical fan-outs.
pub const DEFAULT_CHUNK: usize = 16;

/// The work-distribution handle. Cheap to construct; holds no threads while
/// idle (workers are scoped to each [`run`](Pool::run) call).
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
    chunk: usize,
}

impl Pool {
    /// A pool of exactly `n` workers (clamped to at least 1) with the
    /// default claim granularity.
    pub fn with_threads(n: usize) -> Self {
        Pool::with_chunk(n, DEFAULT_CHUNK)
    }

    /// A pool of `n` workers claiming `chunk` consecutive items at a time
    /// (both clamped to at least 1) — the explicit constructor the
    /// determinism batteries sweep.
    pub fn with_chunk(n: usize, chunk: usize) -> Self {
        Pool {
            threads: n.max(1),
            chunk: chunk.max(1),
        }
    }

    /// The single-threaded pool: every task runs inline, in order, on the
    /// caller's stack — the sequential oracle path.
    pub fn sequential() -> Self {
        Pool::with_threads(1)
    }

    /// Sizes a pool from the `CWF_THREADS` environment variable, falling
    /// back to [`std::thread::available_parallelism`] (and to 1 if even that
    /// is unavailable). The claim granularity comes from `CWF_CHUNK`
    /// (default [`DEFAULT_CHUNK`]).
    pub(crate) fn from_env() -> Self {
        let n = std::env::var("CWF_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()));
        let chunk = std::env::var("CWF_CHUNK")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&c| c >= 1)
            .unwrap_or(DEFAULT_CHUNK);
        Pool::with_chunk(n, chunk)
    }

    /// The process-wide default pool, initialized from [`from_env`](Pool::from_env)
    /// on first use. Analyses without an explicit pool route through this.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(Pool::from_env)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Claim granularity: consecutive items handed out per atomic claim.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Does this pool run everything inline (one worker)?
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Runs `f(index, item)` for every item and returns the results **in
    /// item order**, regardless of which worker computed what. With one
    /// worker (or at most one item) everything runs inline, sequentially.
    ///
    /// If any task panics, the panic of the smallest-index panicked task is
    /// re-raised after all tasks have settled (siblings run to completion;
    /// only the poisoned branch is lost).
    pub fn run<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, it)| f(i, it))
                .collect();
        }
        let slots: Vec<Mutex<Option<thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let queue: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        // Effective granularity: never hand one worker more than an even
        // share of the items in a single claim, or a small fan-out (e.g. the
        // 2^spawn-depth subproblems of the min-scenario search) would be
        // swallowed whole by the first claim and run serially.
        let chunk = self.chunk.min(n.div_ceil(workers)).max(1);
        thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    // One atomic claim per chunk of consecutive items; the
                    // item→slot mapping is untouched, so merge order — and
                    // therefore every analysis result — is independent of
                    // the chunk size.
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + chunk).min(n) {
                        let item = queue[i]
                            .lock()
                            .unwrap()
                            .take()
                            .expect("each task runs once");
                        let result = panic::catch_unwind(AssertUnwindSafe(|| f(i, item)));
                        *slots[i].lock().unwrap() = Some(result);
                    }
                });
            }
        });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            match slot.into_inner().unwrap().expect("every slot is filled") {
                Ok(v) => out.push(v),
                // First panic in index order — the one a sequential loop
                // would have raised.
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        out
    }
}

/// A shared atomic minimum — the cross-worker incumbent bound of the
/// branch-and-bound searches. `u64::MAX` means "nothing yet".
#[derive(Debug)]
pub struct SharedMin(AtomicU64);

impl SharedMin {
    /// A tracker holding `initial` (use `u64::MAX` for "empty").
    pub fn new(initial: u64) -> Self {
        SharedMin(AtomicU64::new(initial))
    }

    /// The current minimum.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Lowers the minimum to `v` if `v` is smaller (atomic-min CAS loop);
    /// returns whether `v` became the new minimum.
    pub fn relax(&self, v: u64) -> bool {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if v >= cur {
                return false;
            }
            match self
                .0
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A shared atomic minimum over task **indices** — the early-exit signal of
/// the first-witness searches. A worker whose index is beaten by an already
/// reported smaller index can stop: the index-ordered merge will never read
/// its result.
#[derive(Debug, Default)]
pub struct FirstHit(AtomicUsize);

impl FirstHit {
    /// No hit yet.
    pub fn new() -> Self {
        FirstHit(AtomicUsize::new(usize::MAX))
    }

    /// Reports a hit at task `index` (keeps the smallest).
    pub fn offer(&self, index: usize) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if index >= cur {
                return;
            }
            match self
                .0
                .compare_exchange_weak(cur, index, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The smallest reported index, if any.
    pub fn get(&self) -> Option<usize> {
        match self.0.load(Ordering::Relaxed) {
            usize::MAX => None,
            i => Some(i),
        }
    }

    /// Is there a hit at an index strictly smaller than `index`? (If so,
    /// task `index` may abandon its work — the merge will not use it.)
    pub fn beats(&self, index: usize) -> bool {
        self.0.load(Ordering::Relaxed) < index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{Governor, Reason, Verdict};
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_come_back_in_item_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::with_threads(threads);
            let items: Vec<usize> = (0..64).collect();
            let out = pool.run(items, |i, item| {
                assert_eq!(i, item);
                item * item
            });
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_size_never_changes_results() {
        // Sweep chunk sizes (including ones larger than the item count):
        // identical output vector every time.
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 4] {
            for chunk in [1, 3, 16, 64, 1000] {
                let pool = Pool::with_chunk(threads, chunk);
                assert_eq!(pool.chunk(), chunk);
                let out = pool.run(items.clone(), |i, item| {
                    assert_eq!(i, item);
                    item * 3
                });
                assert_eq!(out, expect, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn single_item_runs_inline() {
        let pool = Pool::with_threads(8);
        assert_eq!(pool.run(vec![41], |_, x| x + 1), vec![42]);
        assert_eq!(pool.run(Vec::<u32>::new(), |_, x| x), Vec::<u32>::new());
    }

    #[test]
    fn panic_in_one_task_poisons_only_that_branch() {
        // Siblings of the poisoned task still run to completion, and the
        // re-raised panic is deterministic (smallest index), so the
        // governor's guard reports the same verdict as a sequential loop.
        let completed = AtomicU32::new(0);
        let v: Verdict<Vec<u32>> = Governor::unlimited().guard(|| {
            let out = Pool::with_threads(4).run((0..16).collect(), |_, i: u32| {
                if i == 3 || i == 11 {
                    panic!("task {i} poisoned");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i
            });
            Verdict::Done(out)
        });
        match v {
            Verdict::Exhausted(Reason::Panicked(msg)) => {
                assert!(
                    msg.contains("task 3 poisoned"),
                    "smallest index wins: {msg}"
                );
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(completed.load(Ordering::Relaxed), 14, "siblings all ran");
    }

    #[test]
    fn shared_min_relaxes_under_contention() {
        let min = SharedMin::new(u64::MAX);
        Pool::with_threads(4).run((0..100u64).collect(), |_, v| {
            min.relax(1000 - v);
        });
        assert_eq!(min.get(), 901);
    }

    #[test]
    fn first_hit_keeps_the_smallest_index() {
        let hit = FirstHit::new();
        assert_eq!(hit.get(), None);
        assert!(!hit.beats(0));
        Pool::with_threads(4).run(vec![9usize, 4, 7, 12], |_, idx| hit.offer(idx));
        assert_eq!(hit.get(), Some(4));
        assert!(hit.beats(5));
        assert!(!hit.beats(4));
    }

    #[test]
    fn env_sizing_parses_and_clamps() {
        // `from_env` must never yield a zero-sized pool even on odd input;
        // the parse itself is exercised indirectly (the variable may or may
        // not be set in the harness environment).
        assert!(Pool::from_env().threads() >= 1);
        assert!(Pool::sequential().is_sequential());
        assert_eq!(Pool::with_threads(0).threads(), 1);
    }
}
