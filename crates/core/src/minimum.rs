//! Exact scenario search (Theorem 3.3).
//!
//! Finding a *minimum* scenario — or deciding whether a scenario of length
//! `≤ N` exists — is NP-complete, so this module implements an exponential
//! branch-and-bound search over subsequences. The search walks the run left
//! to right deciding include/exclude per event, maintaining the replayed
//! subrun state, and prunes branches that (a) fail to replay, (b) produce a
//! visible step at `p` that does not match the next expected observation,
//! (c) have passed the last position that can still produce the next
//! observation, or (d) cannot beat the current bound. In optimize mode the
//! bound starts at the length of the minimal faithful scenario (Thm 4.7), a
//! polynomial upper bound on the minimum.
//!
//! Every entry point is **governed**: it threads a [`Governor`] (node budget,
//! wall-clock deadline, cancellation) and reports a [`Verdict`]. When the
//! governor cuts the search off, the verdict carries the best *anytime*
//! answer available — the best scenario the search had found, or a greedy
//! 1-minimal scenario computed as polynomial-time grace work — together with
//! proven lower/upper bounds on the minimum length.
//!
//! The same search, restricted to a subset of positions and capped length,
//! decides strict-subsequence scenario existence — the coNP-hard minimality
//! test of Theorem 3.4 (see [`crate::minimal`]).
//!
//! The replayed state is stepped only where the branch differs from the
//! run. A branch that has included every position so far is on the run's
//! own prefix: its next include is the run's recorded step, and that
//! step's observation is the target's own, so the search advances only its
//! position and observation count. The one state a search context owns is
//! caught up along the prefix by recorded diffs when a branch that has
//! left the prefix first includes an event; such a branch steps its
//! includes in place and takes each back on return. The search is
//! exclude-first, so branches leave the prefix in increasing depth order
//! and the state only ever moves forward along it. The per-query facts the
//! search reads — the peer's cone and the faithful seed's index — come
//! from the run's facts slot ([`crate::facts`]), built once per run.

use cwf_engine::{Event, EventView, Run, RunView, ScratchRun};
use cwf_model::{Bound, FirstHit, Governor, PeerId, Pool, Reason, SharedMin, Verdict};

use crate::facts::facts;
use crate::set::EventSet;

/// Runs shorter than this stay on the sequential path even under a
/// multi-worker pool: the subproblem fan-out would cost more than the
/// search itself (and the small unit-test runs keep exercising the
/// sequential oracle verbatim).
const PAR_MIN_EVENTS: usize = 8;

/// Options for the scenario search. Resource limits live on the
/// [`Governor`] passed alongside, not here.
#[derive(Debug, Clone, Default)]
pub struct SearchOptions {
    /// Restrict the search to subsequences of this set (default: all
    /// positions).
    pub allowed: Option<EventSet>,
    /// Only consider scenarios of at most this many events.
    pub max_len: Option<usize>,
    /// Stop at the first scenario satisfying the constraints instead of
    /// optimizing (decision mode).
    pub first_found: bool,
    /// Disable provenance-cone pruning. By default the optimizing search
    /// computes the peer's dependency cone ([`crate::cone::peer_cone`]) and
    /// never branches on events outside it — every minimum scenario lies
    /// inside the cone, so completed answers are byte-identical while the
    /// search visits far fewer nodes. Decision mode (`first_found`) never
    /// prunes: its contract is the DFS-first witness over exactly the
    /// caller's position set.
    pub no_cone: bool,
}

/// What every search context of one query shares, computed once per query.
struct Plan {
    /// The position set the branch-and-bound actually searches: the
    /// caller's `allowed` set intersected with the peer's provenance cone
    /// (optimize mode, pruning on), or the caller's set verbatim (decision
    /// mode, or `no_cone`). The original `opts` still drive cutoff verdicts.
    allowed: Option<EventSet>,
    /// The length bound the search starts from (see [`initial_bound`]).
    max_len: usize,
    /// `reach[k]`: one past the latest position at which observation `k` can
    /// still be produced, in time for every later observation; a node at
    /// position `reach[k]` or beyond that has matched only `k` observations
    /// has no completion. `reach[steps] = run.len() + 1` never cuts.
    reach: Vec<usize>,
}

impl Plan {
    fn new(run: &Run, peer: PeerId, target: &RunView, opts: &SearchOptions) -> Self {
        let allowed = if opts.no_cone || opts.first_found {
            opts.allowed.clone()
        } else {
            let cone = crate::cone::peer_cone(run, peer);
            Some(match &opts.allowed {
                Some(allowed) => cone.intersection(allowed),
                None => cone,
            })
        };
        let reach = observation_reach(run, peer, target, &allowed);
        Plan {
            max_len: initial_bound(run, peer, opts),
            allowed,
            reach,
        }
    }
}

/// The length bound every search context of a query starts from: the
/// caller's `max_len`, tightened in optimize mode to the length of the
/// minimal faithful set (Thm 4.7). That set is a scenario (Lemma 4.6), so no
/// minimum is longer; and since the bound admits equal lengths, the
/// DFS-first minimum survives as if the seed were a witness found after
/// every subproblem. Under an `allowed` restriction the seed counts only
/// when the faithful set lies inside it. Decision mode keeps the caller's
/// cap: its contract is the DFS-first scenario under `max_len`, which a
/// tighter cap would re-filter.
fn initial_bound(run: &Run, peer: PeerId, opts: &SearchOptions) -> usize {
    let cap = opts.max_len.unwrap_or(run.len());
    if opts.first_found {
        return cap;
    }
    let faithful = crate::tp::minimal_faithful_set(run, facts(run).index(), peer);
    if opts
        .allowed
        .as_ref()
        .is_some_and(|a| !faithful.is_subset(a))
    {
        return cap;
    }
    cap.min(faithful.len())
}

/// The [`Plan::reach`] table, from the last observation back: an own step
/// needs the identical event at an allowed position, a world step any
/// allowed position holding another peer's event, and each must come
/// before the position of the next step's latest match.
fn observation_reach(
    run: &Run,
    peer: PeerId,
    target: &RunView,
    allowed: &Option<EventSet>,
) -> Vec<usize> {
    let mut reach = vec![run.len() + 1; target.steps.len() + 1];
    let mut before = run.len();
    for (k, step) in target.steps.iter().enumerate().rev() {
        let latest = (0..before).rev().find(|&i| {
            let event = run.event(i);
            allowed.as_ref().is_none_or(|a| a.contains(i))
                && match &step.event {
                    EventView::Own(e) => event.peer == peer && e == event,
                    EventView::World => event.peer != peer,
                }
        });
        reach[k] = latest.map_or(0, |i| i + 1);
        before = latest.unwrap_or(0);
    }
    reach
}

/// Searches for a minimum scenario of `run` at `peer` subject to `opts`,
/// governed by `gov`.
///
/// * `Done(Some(s))` — `s` is a minimum scenario (or the first found, in
///   decision mode); the search completed.
/// * `Done(None)` — no scenario satisfies the constraints (exhaustive).
/// * `Anytime(Some(s), bound)` — the governor cut the search off; `s` is the
///   best scenario known (DFS incumbent, or a greedy 1-minimal scenario when
///   the search is unrestricted) and `bound` brackets the true minimum.
/// * `Exhausted(reason)` — cut off with no usable answer.
pub fn search_min_scenario(
    run: &Run,
    peer: PeerId,
    opts: &SearchOptions,
    gov: &Governor,
) -> Verdict<Option<EventSet>> {
    search_min_scenario_pooled(run, peer, opts, gov, Pool::global())
}

/// [`search_min_scenario`] on an explicit [`Pool`].
///
/// With more than one worker (and a run above a small size threshold) the
/// search becomes parallel branch-and-bound: the decision tree is expanded
/// sequentially to a shallow spawn depth, the resulting subproblems are
/// solved by the pool's workers against a **shared atomic incumbent bound**
/// (the length of the best scenario any worker has found), and the worker
/// results are merged in subproblem DFS order. Two details make the merged
/// answer byte-identical to the sequential one on every completed search:
///
/// * the shared incumbent carries `(length, subproblem index)`: a worker
///   prunes equal lengths away (`length − 1`) only when the published
///   witness sits at or before its own subproblem — where it would win the
///   merge tie anyway — and keeps equal lengths alive against later-index
///   witnesses, so the DFS-first witness of the winning length survives;
/// * ties between equal-length witnesses break by subproblem DFS order —
///   exactly the order the sequential search discovers scenarios in.
///
/// Under a mid-search cutoff the *kind* of verdict (`Anytime`/`Exhausted`
/// and its [`Reason`]) matches the sequential one, but the partial witness
/// may differ — where the budget dies is inherently schedule-dependent. In
/// decision mode a witness found by any worker is reported even if an
/// earlier subproblem was cut off: a scenario in hand is strictly more
/// informative than the sequential `Anytime(false)`.
pub fn search_min_scenario_pooled(
    run: &Run,
    peer: PeerId,
    opts: &SearchOptions,
    gov: &Governor,
    pool: &Pool,
) -> Verdict<Option<EventSet>> {
    gov.guard(|| {
        if let Err(reason) = gov.check() {
            return cutoff_verdict(run, peer, opts, None, reason);
        }
        let target = run.view(peer);
        let plan = Plan::new(run, peer, &target, opts);
        if pool.is_sequential() || run.len() < PAR_MIN_EVENTS {
            return search_sequential(run, peer, opts, &plan, gov, &target);
        }
        search_parallel(run, peer, opts, &plan, gov, &target, pool)
    })
}

/// The sequential oracle path (also the body of every pool-of-one search).
fn search_sequential(
    run: &Run,
    peer: PeerId,
    opts: &SearchOptions,
    plan: &Plan,
    gov: &Governor,
    target: &RunView,
) -> Verdict<Option<EventSet>> {
    let start = ScratchRun::restart_of(run);
    let mut ctx = Ctx::sequential(run, peer, target, opts, plan, gov, start);
    ctx.dfs(0, 0, &mut Vec::new());
    match ctx.stopped {
        None => Verdict::Done(ctx.best),
        Some(reason) => cutoff_verdict(run, peer, opts, ctx.best, reason),
    }
}

/// A branch of the decision tree frozen at the spawn depth, ready to hand
/// to a worker: the replayed subrun state, the observations matched so far,
/// and the chosen positions.
struct Prefix {
    sub: ScratchRun,
    matched: usize,
    chosen: Vec<usize>,
}

/// Cross-worker coordination state of one parallel search.
struct ParShared {
    /// Best `(length, subproblem index)` pair found by any worker, packed
    /// so the numeric CAS-min is the lexicographic minimum (optimize mode).
    best: SharedMin,
    /// Smallest subproblem index holding a witness (decision mode).
    first_hit: FirstHit,
}

/// Packs a witness length and the subproblem index that found it into one
/// CAS-min word: length in the high 32 bits, index in the low 32, so the
/// numeric minimum is the lexicographic `(length, index)` minimum — the
/// exact preference order of the index-ordered merge.
fn pack(len: usize, index: usize) -> u64 {
    debug_assert!(len < u32::MAX as usize && index <= u32::MAX as usize);
    ((len as u64) << 32) | index as u64
}

#[allow(clippy::too_many_arguments)]
fn search_parallel(
    run: &Run,
    peer: PeerId,
    opts: &SearchOptions,
    plan: &Plan,
    gov: &Governor,
    target: &RunView,
    pool: &Pool,
) -> Verdict<Option<EventSet>> {
    // Phase 1: expand the same exclude-first decision tree sequentially
    // down to the spawn depth, collecting the live branches in DFS order.
    let depth = spawn_depth(pool.threads(), run.len());
    let start = ScratchRun::restart_of(run);
    let mut expander = Ctx::sequential(run, peer, target, opts, plan, gov, start);
    expander.spawn_depth = depth;
    expander.dfs(0, 0, &mut Vec::new());
    if let Some(reason) = expander.stopped {
        return cutoff_verdict(run, peer, opts, None, reason);
    }
    debug_assert!(expander.best.is_none(), "no scenario completes above depth");
    let prefixes = std::mem::take(&mut expander.prefixes);
    if prefixes.is_empty() {
        // Every branch died before the spawn depth: exhaustively no
        // scenario, same as the sequential search concluding Done(None).
        return Verdict::Done(None);
    }

    // Phase 2: workers solve the subproblems under the shared incumbent.
    // Every worker starts from the plan's bound, which in optimize mode is
    // already the faithful-set length (see `initial_bound`).
    let shared = ParShared {
        best: SharedMin::new(u64::MAX),
        first_hit: FirstHit::new(),
    };
    let outs = pool.run(prefixes, |idx, p: Prefix| {
        let mut ctx = Ctx::sequential(run, peer, target, opts, plan, gov, p.sub);
        ctx.shared = Some(&shared);
        ctx.my_index = idx;
        let mut chosen = p.chosen;
        ctx.dfs(depth, p.matched, &mut chosen);
        (ctx.best, ctx.stopped)
    });

    // Phase 3: index-ordered merge.
    if opts.first_found {
        // The earliest subproblem holding a witness is the sequential
        // answer; a witness is definitive even past a cutoff.
        if let Some(w) = outs.iter().find_map(|(best, _)| best.clone()) {
            return Verdict::Done(Some(w));
        }
        return match outs.into_iter().find_map(|(_, stopped)| stopped) {
            None => Verdict::Done(None),
            Some(reason) => cutoff_verdict(run, peer, opts, None, reason),
        };
    }
    let mut best: Option<EventSet> = None;
    for (b, _) in &outs {
        let Some(b) = b else { continue };
        // Strictly-shorter replacement: at equal lengths the earlier
        // subproblem (the one sequential DFS reaches first) keeps the tie.
        if best.as_ref().is_none_or(|cur| b.len() < cur.len()) {
            best = Some(b.clone());
        }
    }
    match outs.into_iter().find_map(|(_, stopped)| stopped) {
        None => Verdict::Done(best),
        Some(reason) => cutoff_verdict(run, peer, opts, best, reason),
    }
}

/// Spawn depth: enough levels for a few subproblems per worker (≤ 2^d
/// branches), capped below the run length so workers always have a tree
/// left to search.
fn spawn_depth(threads: usize, run_len: usize) -> usize {
    let want = (threads * 4).max(2) as u64;
    let bits = (u64::BITS - (want - 1).leading_zeros()) as usize;
    bits.min(run_len - 1)
}

/// Builds the anytime verdict for a cut-off search: prefers the DFS
/// incumbent, falls back to greedy grace work (polynomial, ungoverned) when
/// the search was unrestricted, and brackets the minimum between the number
/// of observations (each needs at least one event) and the witness length.
fn cutoff_verdict(
    run: &Run,
    peer: PeerId,
    opts: &SearchOptions,
    best: Option<EventSet>,
    reason: Reason,
) -> Verdict<Option<EventSet>> {
    let witness = best.or_else(|| {
        // Greedy 1-minimal extraction only answers the unrestricted
        // optimization problem: under an `allowed` restriction the full run
        // is not a candidate, and in decision mode the caller has already
        // taken its own greedy shortcut.
        if opts.allowed.is_none() && !opts.first_found {
            let greedy = crate::minimal::one_minimal_scenario(run, peer);
            (greedy.len() <= opts.max_len.unwrap_or(run.len())).then_some(greedy)
        } else {
            None
        }
    });
    match witness {
        Some(w) => {
            let bound = Bound {
                reason,
                lower: Some(run.view(peer).steps.len() as u64),
                upper: Some(w.len() as u64),
            };
            Verdict::Anytime(Some(w), bound)
        }
        None => Verdict::Exhausted(reason),
    }
}

/// Decision variant: does a scenario with at most `n` events exist?
///
/// Starts with a polynomial greedy quick-accept (a 1-minimal scenario of
/// length `≤ n` settles the question positively without any search). On a
/// governor cutoff the verdict is `Anytime(false, bound)`: no qualifying
/// scenario was found, and `bound` records how far the search got — the
/// observation-count lower bound and the greedy upper bound on the true
/// minimum length.
pub fn exists_scenario_at_most(run: &Run, peer: PeerId, n: usize, gov: &Governor) -> Verdict<bool> {
    exists_scenario_at_most_pooled(run, peer, n, gov, Pool::global())
}

/// [`exists_scenario_at_most`] on an explicit [`Pool`] (see
/// [`search_min_scenario_pooled`] for the parallel contract).
pub fn exists_scenario_at_most_pooled(
    run: &Run,
    peer: PeerId,
    n: usize,
    gov: &Governor,
    pool: &Pool,
) -> Verdict<bool> {
    gov.guard(|| {
        let greedy = crate::minimal::one_minimal_scenario(run, peer);
        if greedy.len() <= n {
            return Verdict::Done(true);
        }
        let cut = |reason| {
            Verdict::Anytime(
                false,
                Bound {
                    reason,
                    lower: Some(run.view(peer).steps.len() as u64),
                    upper: Some(greedy.len() as u64),
                },
            )
        };
        if let Err(reason) = gov.check() {
            return cut(reason);
        }
        let opts = SearchOptions {
            max_len: Some(n),
            first_found: true,
            ..Default::default()
        };
        match search_min_scenario_pooled(run, peer, &opts, gov, pool) {
            Verdict::Done(Some(_)) | Verdict::Anytime(Some(_), _) => Verdict::Done(true),
            Verdict::Done(None) => Verdict::Done(false),
            Verdict::Anytime(None, b) => cut(b.reason),
            Verdict::Exhausted(reason) => cut(reason),
        }
    })
}

struct Ctx<'a> {
    run: &'a Run,
    peer: PeerId,
    target: &'a RunView,
    plan: &'a Plan,
    first_found: bool,
    gov: &'a Governor,
    best: Option<EventSet>,
    stopped: Option<Reason>,
    /// Depth at which the expansion phase freezes branches into [`Prefix`]es
    /// instead of recursing (`usize::MAX`: never — plain search).
    spawn_depth: usize,
    /// Branches collected by the expansion phase, in DFS order.
    prefixes: Vec<Prefix>,
    /// Cross-worker incumbent state (parallel workers only).
    shared: Option<&'a ParShared>,
    /// This worker's subproblem index (DFS order of its prefix).
    my_index: usize,
    /// The one replayed state this context owns: the run's own prefix of
    /// [`ScratchRun::len`] events, then the includes of the current branch
    /// past it. Branches on the run's prefix move it not at all; one that
    /// has left the prefix catches it up by recorded steps
    /// ([`ScratchRun::apply_recorded`]), then steps each include in place
    /// ([`ScratchRun::apply`]) and takes it back on return
    /// ([`ScratchRun::undo`]), so no node copies a state.
    state: ScratchRun,
}

impl<'a> Ctx<'a> {
    fn sequential(
        run: &'a Run,
        peer: PeerId,
        target: &'a RunView,
        opts: &SearchOptions,
        plan: &'a Plan,
        gov: &'a Governor,
        state: ScratchRun,
    ) -> Self {
        Ctx {
            run,
            peer,
            target,
            plan,
            first_found: opts.first_found,
            gov,
            best: None,
            stopped: None,
            spawn_depth: usize::MAX,
            prefixes: Vec::new(),
            shared: None,
            my_index: 0,
            state,
        }
    }

    /// Current upper bound on useful lengths. The local incumbent prunes to
    /// strictly-shorter (`len − 1`). The cross-worker incumbent carries the
    /// *subproblem index* of its witness alongside the length: a witness in
    /// a subproblem at or before this worker's wins the index-ordered merge
    /// over any equal-length witness found here, so this worker can prune
    /// to `len − 1` too; a witness in a *later* subproblem keeps the tie
    /// open and equal lengths must survive (prune only to `len`) — which is
    /// exactly the sequential tie-break.
    fn bound(&self) -> usize {
        let mut b = match &self.best {
            Some(s) => s.len().saturating_sub(1).min(self.plan.max_len),
            None => self.plan.max_len,
        };
        if let Some(shared) = self.shared {
            let g = shared.best.get();
            if g != u64::MAX {
                let (len, idx) = ((g >> 32) as usize, (g & u32::MAX as u64) as usize);
                b = b.min(if idx <= self.my_index {
                    len.saturating_sub(1)
                } else {
                    len
                });
            }
        }
        b
    }

    fn done(&self) -> bool {
        if !self.first_found {
            return false;
        }
        if self.best.is_some() {
            return true;
        }
        // An earlier subproblem already holds a witness: the index-ordered
        // merge will never read this worker's answer, so stop early.
        self.shared
            .is_some_and(|s| s.first_hit.beats(self.my_index))
    }

    /// Records a completed scenario, publishing it to the cross-worker
    /// incumbent when running as a parallel worker.
    fn record(&mut self, set: EventSet) {
        if let Some(shared) = self.shared {
            shared.best.relax(pack(set.len(), self.my_index));
            if self.first_found {
                shared.first_hit.offer(self.my_index);
            }
        }
        self.best = Some(set);
    }

    /// DFS over positions, with [`Ctx::state`] the replayed subrun so far
    /// and `matched` the number of target steps already produced.
    fn dfs(&mut self, i: usize, matched: usize, chosen: &mut Vec<usize>) {
        if self.done() || self.stopped.is_some() {
            return;
        }
        // The next observation can no longer be produced: a dead node,
        // cut before it is frozen or charged.
        if i >= self.plan.reach[matched] {
            return;
        }
        // Expansion phase: freeze this branch for a worker. Before the tick,
        // so every spawned node is charged exactly once — by its worker.
        if i == self.spawn_depth {
            self.prefixes.push(Prefix {
                sub: self.state.clone(),
                matched,
                chosen: chosen.clone(),
            });
            return;
        }
        if let Err(reason) = self.gov.tick() {
            self.stopped = Some(reason);
            return;
        }
        let remaining_steps = self.target.steps.len() - matched;
        // Lower bound: each missing observation needs at least one event.
        if chosen.len() + remaining_steps > self.bound() {
            return;
        }
        if i == self.run.len() {
            // Every observation is matched: a branch still missing one was
            // cut at its reach, which never exceeds the run length.
            let set = EventSet::from_iter(self.run.len(), chosen.iter().copied());
            let better = match &self.best {
                Some(b) => set.len() < b.len(),
                None => true,
            };
            if better {
                self.record(set);
            }
            return;
        }
        // Branch 1: exclude event i (bias toward short scenarios).
        self.dfs(i + 1, matched, chosen);
        if self.done() || self.stopped.is_some() {
            return;
        }
        // Branch 2: include event i (if allowed and within bound).
        if let Some(allowed) = &self.plan.allowed {
            if !allowed.contains(i) {
                return;
            }
        }
        if chosen.len() + 1 > self.bound() {
            return;
        }
        if chosen.len() == i {
            // Every earlier position is included: the branch is on the
            // run's own prefix, and including `i` takes the run's own step,
            // whose observation is the target's own — event `i` is visible
            // exactly when it is the target's next step. No state moves.
            let seen = self.target.steps.get(matched).is_some_and(|s| s.index == i);
            chosen.push(i);
            self.dfs(i + 1, matched + usize::from(seen), chosen);
            chosen.pop();
            return;
        }
        // The branch has left the prefix. The state lags at most on the
        // prefix part of `chosen`: catch it up by recorded steps, which
        // are never taken back (later branches leave the prefix deeper).
        while self.state.len() < chosen.len() {
            self.state.apply_recorded(self.run);
        }
        let event = self.run.event(i);
        let Ok(undo) = self.state.apply(event) else {
            return;
        };
        if let Some(new_matched) = self.observed(event, matched) {
            chosen.push(i);
            self.dfs(i + 1, new_matched, chosen);
            chosen.pop();
        }
        self.state.undo(undo);
    }

    /// The observations matched once the state has just stepped by `event`,
    /// or `None` when that step is visible at the peer but is not the next
    /// expected observation.
    fn observed(&self, event: &Event, matched: usize) -> Option<usize> {
        let own = event.peer == self.peer;
        if !own && !self.state.changed(self.peer) {
            return Some(matched);
        }
        let expected = self.target.steps.get(matched)?;
        let event_matches = match (&expected.event, own) {
            (EventView::Own(e), true) => e == event,
            (EventView::World, false) => true,
            _ => false,
        };
        (event_matches && expected.view == *self.state.view(self.peer)).then_some(matched + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::is_minimal_exact;
    use crate::scenario::is_scenario;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    /// Theorem 3.3's reduction instance for V = {v1, v2, v3},
    /// c1 = {v1, v2}, c2 = {v2, v3}: the minimum hitting set is {v2}, so the
    /// minimum scenario has 1 + 2 + 1 = 4 events.
    fn hitting_run() -> Run {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { V1(K); V2(K); V3(K); C1(K); C2(K); OK(K); }
                peers {
                    q sees V1(*), V2(*), V3(*), C1(*), C2(*), OK(*);
                    p sees OK(*);
                }
                rules {
                    a1 @ q: +V1(0) :- ;
                    a2 @ q: +V2(0) :- ;
                    a3 @ q: +V3(0) :- ;
                    b11 @ q: +C1(0) :- V1(0);
                    b12 @ q: +C1(0) :- V2(0);
                    b22 @ q: +C2(0) :- V2(0);
                    b23 @ q: +C2(0) :- V3(0);
                    ok @ q: +OK(0) :- C1(0), C2(0);
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        // The trivial run: all (a) rules, one (b) rule per c_j, then ok.
        for n in ["a1", "a2", "a3", "b11", "b22", "ok"] {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        run
    }

    #[test]
    fn finds_the_minimum_scenario() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        let gov = Governor::unlimited();
        let res = search_min_scenario(&run, p, &SearchOptions::default(), &gov);
        assert!(res.is_done(), "unlimited governor completes: {res:?}");
        let found = res.found().cloned().expect("a scenario exists");
        // Minimum hitting set {v2} ⇒ a2 + one b-per-clause + ok = 4 events.
        // But the run's own (b) events b11/b22 depend on v1/v2: with only a2,
        // b11 (body V1) cannot fire — so the minimum within THIS run's
        // events is {a1, a2, b11, b22, ok}? No: b22 only needs V2, b11 needs
        // V1. The run only contains b11 for c1, so a1 must stay. Minimum is
        // {a1, b11, b22, ok} + a2 for b22? b22 needs V2 ⇒ a2 too. Hence 5?
        // Let's just assert the invariant: it is a scenario and no shorter
        // scenario exists.
        assert!(is_scenario(&run, p, &found));
        for shorter in 0..found.len() {
            assert_eq!(
                exists_scenario_at_most(&run, p, shorter, &Governor::unlimited()),
                Verdict::Done(false),
                "no scenario of length {shorter}"
            );
        }
        assert_eq!(found.len(), 5, "a1, a2, b11, b22, ok");
    }

    #[test]
    fn decision_variant_matches_hitting_set_structure() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        let gov = Governor::unlimited();
        assert_eq!(
            exists_scenario_at_most(&run, p, 5, &gov),
            Verdict::Done(true)
        );
        assert_eq!(
            exists_scenario_at_most(&run, p, 4, &gov),
            Verdict::Done(false)
        );
        assert_eq!(
            exists_scenario_at_most(&run, p, 6, &gov),
            Verdict::Done(true)
        );
    }

    #[test]
    fn allowed_set_restricts_the_search() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        // Restricting to events {a1, b11, ok} loses C2 ⇒ no scenario.
        let opts = SearchOptions {
            allowed: Some(EventSet::from_iter(run.len(), [0, 3, 5])),
            ..Default::default()
        };
        assert_eq!(
            search_min_scenario(&run, p, &opts, &Governor::unlimited()),
            Verdict::Done(None)
        );
    }

    #[test]
    fn budget_exhaustion_yields_greedy_anytime_answer() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        let gov = Governor::with_nodes(3);
        let res = search_min_scenario(&run, p, &SearchOptions::default(), &gov);
        // Three nodes cannot finish, but the greedy grace answer is a real
        // scenario bracketing the minimum from above.
        let Verdict::Anytime(Some(witness), bound) = res else {
            panic!("expected an anytime answer, got {res:?}");
        };
        assert_eq!(bound.reason, Reason::Nodes);
        assert!(is_scenario(&run, p, &witness));
        assert_eq!(bound.upper, Some(witness.len() as u64));
        assert!(bound.lower.unwrap() <= bound.upper.unwrap());
    }

    #[test]
    fn cross_thread_cancellation_stops_the_search() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        let gov = Governor::unlimited();
        let token = gov.cancel_token();
        // Cancel from another thread before the search starts: the entry
        // check sees the sticky flag and no search node is ever expanded.
        std::thread::spawn(move || token.cancel()).join().unwrap();
        let res = search_min_scenario(&run, p, &SearchOptions::default(), &gov);
        let Verdict::Anytime(Some(witness), bound) = res else {
            panic!("expected a greedy anytime answer, got {res:?}");
        };
        assert_eq!(bound.reason, Reason::Cancelled);
        assert!(is_scenario(&run, p, &witness));
        assert_eq!(gov.nodes_used(), 0, "cancellation preempted the search");
    }

    #[test]
    fn zero_deadline_cuts_off_without_panicking() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        let gov = Governor::with_deadline(std::time::Duration::ZERO);
        let res = exists_scenario_at_most(&run, p, 0, &gov);
        let Verdict::Anytime(false, bound) = res else {
            panic!("expected a bounded refusal, got {res:?}");
        };
        assert_eq!(bound.reason, Reason::Deadline);
        assert!(
            bound.upper.is_some(),
            "greedy upper bound survives the cutoff"
        );
    }

    #[test]
    fn restricted_budget_exhaustion_has_no_witness() {
        let run = hitting_run();
        let p = run.spec().collab().peer("p").unwrap();
        // Under an `allowed` restriction there is no greedy fallback: a
        // cut-off search is plain exhaustion.
        let opts = SearchOptions {
            allowed: Some(EventSet::full(run.len())),
            ..Default::default()
        };
        assert_eq!(
            search_min_scenario(&run, p, &opts, &Governor::with_nodes(3)),
            Verdict::Exhausted(Reason::Nodes)
        );
    }

    #[test]
    fn empty_view_needs_empty_scenario() {
        let run = hitting_run();
        // q as observer of an all-q run: the whole run is the only scenario
        // (every event is visible at q).
        let q = run.spec().collab().peer("q").unwrap();
        let res = search_min_scenario(&run, q, &SearchOptions::default(), &Governor::unlimited());
        assert_eq!(res.found().unwrap().len(), run.len());
    }

    #[test]
    fn own_events_must_match_exactly() {
        // A run where p itself acts: the scenario must reproduce p's own
        // events verbatim.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { A(K); B(K); }
                peers { p sees A(*); q sees A(*), B(*); }
                rules {
                    mine @ p: +A(0) :- ;
                    other @ q: +B(0) :- ;
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        for n in ["other", "mine"] {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        let p = spec.collab().peer("p").unwrap();
        let res = search_min_scenario(&run, p, &SearchOptions::default(), &Governor::unlimited());
        // B is invisible to p, so the minimum scenario is just p's event.
        assert_eq!(res.found().unwrap().to_vec(), vec![1]);
    }

    /// Builds a run of `spec` firing the named propositional rules in order.
    fn run_of(src: &str, names: &[&str]) -> Run {
        let spec = Arc::new(parse_workflow(src).unwrap());
        let mut run = Run::new(Arc::clone(&spec));
        for n in names {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        run
    }

    /// p's own event comes first and everything after it is invisible to
    /// p: once the search has excluded it, no later position can produce
    /// p's observation, so the exclude branch dies at its first node
    /// instead of enumerating the churn. Holds in every mode, including
    /// decision mode and with the cone and the seed off.
    #[test]
    fn an_unmatchable_observation_cuts_the_branch() {
        const CHURN: usize = 24;
        let mut names = vec!["mine"];
        names.extend((0..CHURN).map(|k| if k % 2 == 0 { "churn" } else { "wipe" }));
        let run = run_of(
            r#"
            schema { A(K); N(K); }
            peers { p sees A(*); q sees N(*); }
            rules {
                mine @ p: +A(0) :- ;
                churn @ q: +N(0) :- ;
                wipe @ q: -key N(0) :- N(0);
            }
            "#,
            &names,
        );
        let p = run.spec().collab().peer("p").unwrap();
        let modes = [
            SearchOptions::default(),
            SearchOptions {
                no_cone: true,
                ..Default::default()
            },
            SearchOptions {
                max_len: Some(run.len()),
                first_found: true,
                ..Default::default()
            },
        ];
        for opts in modes {
            let gov = Governor::unlimited();
            let res = search_min_scenario_pooled(&run, p, &opts, &gov, &Pool::sequential());
            assert_eq!(
                res,
                Verdict::Done(Some(EventSet::from_iter(run.len(), [0])))
            );
            assert!(
                gov.nodes_used() <= run.len() as u64 + 1,
                "{opts:?}: {} nodes",
                gov.nodes_used()
            );
        }
        // The exact minimality test runs on the global pool, whose workers
        // each charge their own frozen branch: still linear.
        let gov = Governor::unlimited();
        let full = EventSet::full(run.len());
        assert_eq!(is_minimal_exact(&run, p, &full, &gov), Verdict::Done(false));
        assert!(gov.nodes_used() <= 2 * run.len() as u64);
    }

    /// Two minima of length 3: `{a2, b2, ok}` comes first in exclude-first
    /// order, the minimal faithful set `{a1, b1, ok}` (the first writer of C
    /// opens its lifecycle) second. The faithful seed bounds the search at
    /// its own length but keeps equal lengths alive, so the DFS-first
    /// minimum still wins.
    #[test]
    fn the_faithful_seed_keeps_the_dfs_first_minimum() {
        let run = run_of(
            r#"
            schema { V1(K); V2(K); C(K); OK(K); }
            peers {
                q sees V1(*), V2(*), C(*), OK(*);
                p sees OK(*);
            }
            rules {
                a1 @ q: +V1(0) :- ;
                a2 @ q: +V2(0) :- ;
                b1 @ q: +C(0) :- V1(0);
                b2 @ q: +C(0) :- V2(0);
                ok @ q: +OK(0) :- C(0);
            }
            "#,
            &["a1", "a2", "b1", "b2", "ok"],
        );
        let p = run.spec().collab().peer("p").unwrap();
        let faithful = crate::tp::minimal_faithful_set(&run, facts(&run).index(), p);
        assert_eq!(faithful.to_vec(), vec![0, 2, 4]);
        for opts in [
            SearchOptions::default(),
            SearchOptions {
                no_cone: true,
                ..Default::default()
            },
        ] {
            let gov = Governor::unlimited();
            let res = search_min_scenario_pooled(&run, p, &opts, &gov, &Pool::sequential());
            assert_eq!(res, Verdict::Done(Some(EventSet::from_iter(5, [1, 3, 4]))));
            assert!(
                gov.nodes_used() <= 16,
                "{opts:?}: {} nodes",
                gov.nodes_used()
            );
        }
    }
}
