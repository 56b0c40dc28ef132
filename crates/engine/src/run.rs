//! Runs of workflow programs (Section 2) and their peer views (Section 3).
//!
//! A run is a sequence `ρ = (e_i, I_i)_{0≤i≤n}` with `∅ ⊢_{e_0} I_0` and
//! `I_{i−1} ⊢_{e_i} I_i`, where head-only variables of each rule are
//! instantiated to *globally fresh* values (not in `const(P)` nor any
//! earlier instance). [`Run::push`] enforces all of this through the step
//! of its live [`ScratchRun`] state; [`Run::replay`] rebuilds a run from a
//! bare event sequence, which is the primitive behind subruns and scenarios
//! (Section 3).

use std::any::Any;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use cwf_lang::WorkflowSpec;
use cwf_model::{
    FreshGen, Instance, InstanceDiff, Mono, PeerId, Provenance, RelId, Value, ViewInstance,
};

use crate::error::EngineError;
use crate::event::Event;
use crate::prov::ProvPlane;
use crate::scratch::ScratchRun;
use crate::simulate::Listing;
use crate::transition::Applied;
use crate::view_plane::{materialize_view, peer_delta, ViewDelta};

/// A run: spec, initial instance, events, and the instance after each event.
///
/// A run is its live admission state — a [`ScratchRun`] holding the current
/// instance, the **view plane** (one incrementally maintained
/// `ViewInstance` per peer) and the freshness avoid-set — plus history: the
/// initial instance, the events, and each event's diff. Every push decides
/// and commits through that state's step, so a `Run` and a `ScratchRun`
/// admit exactly the same events.
///
/// Only the current instance is stored whole. A past instance is rebuilt
/// from the diffs when first read and cached: the first read of a cold
/// position costs one clone of the nearest earlier cached instance (or the
/// initial one) plus the diffs since. A scan over the whole history refills
/// the cache, after which it holds every instance. Visible sets and run
/// views read no cell: they roll one instance forward through the diffs,
/// delta-driven instead of `view_of` rescans.
///
/// State derived from the recorded trace — the candidate listing behind
/// [`crate::candidates`], the provenance plane ([`Run::provenance`]) and
/// the facts a higher layer keeps ([`Run::facts`]) — has one lifecycle:
/// each part is built on first read, stepped by every [`Run::push`] from
/// the recorded diff while filled ([`StepFacts`]), and emptied by
/// [`Run::pop`] and on a clone. None of it is persisted.
#[derive(Clone)]
pub struct Run {
    initial: Instance,
    events: Vec<Event>,
    /// The spec, the instance after the last event (the initial one while
    /// empty), the view plane, the avoid-set and the last push's deltas.
    state: ScratchRun,
    /// `history[i]` caches `I_i` once read, for every position but the last
    /// one, which is the current instance (its cell stays empty).
    history: Vec<OnceLock<Instance>>,
    /// `diffs[i] = I_i − I_{i−1}` (emitted by the transition, not rescanned).
    diffs: Vec<InstanceDiff>,
    fresh: FreshGen,
    derived: Derived,
}

/// State derived from a run's recorded trace, kept in the run
/// ([`Run::facts`], [`Run::provenance`], the candidate listing): stepped
/// forward by [`Run::push`] and rebuilt, not stepped back, after
/// [`Run::pop`].
pub trait StepFacts: Any + Send + Sync {
    /// Advances the state over the event just pushed: `run` already holds
    /// it as its last event, with its diff ([`Run::diff`]).
    fn step(&mut self, run: &Run);
}

/// A run's derived state: each part built from the recorded trace on first
/// read, stepped by every push while filled, and emptied by a pop and on a
/// clone (the copy builds its own on first read).
#[derive(Default)]
struct Derived {
    /// The rule-body matches behind [`crate::candidates`].
    listing: OnceLock<Listing>,
    /// The provenance plane ([`Run::provenance`]).
    prov: OnceLock<ProvPlane>,
    /// The [`Run::facts`] slot.
    facts: OnceLock<Box<dyn StepFacts>>,
}

impl Clone for Derived {
    fn clone(&self) -> Self {
        Derived::default()
    }
}

impl Derived {
    /// Steps every filled part over the event `run` just pushed.
    fn step(&mut self, run: &Run) {
        if let Some(listing) = self.listing.get_mut() {
            listing.step(run);
        }
        if let Some(prov) = self.prov.get_mut() {
            prov.step(run);
        }
        if let Some(facts) = self.facts.get_mut() {
            facts.step(run);
        }
    }
}

impl Run {
    /// An empty run starting from the empty instance (the paper's default).
    pub fn new(spec: Arc<WorkflowSpec>) -> Self {
        let initial = Instance::empty(spec.collab().schema());
        Self::with_initial(spec, initial)
    }

    /// An empty run starting from an arbitrary initial instance.
    pub fn with_initial(spec: Arc<WorkflowSpec>, initial: Instance) -> Self {
        Run {
            fresh: observed(&spec, &initial, &[]),
            state: ScratchRun::new(spec, initial.clone()),
            initial,
            events: Vec::new(),
            history: Vec::new(),
            diffs: Vec::new(),
            derived: Derived::default(),
        }
    }

    /// The workflow spec of this run.
    pub fn spec(&self) -> &WorkflowSpec {
        self.state.spec()
    }

    /// A shared handle to the spec.
    pub fn spec_arc(&self) -> Arc<WorkflowSpec> {
        self.state.spec_arc()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the run empty (no events yet)?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The initial instance.
    pub fn initial(&self) -> &Instance {
        &self.initial
    }

    /// The `i`-th event `e_i`.
    pub fn event(&self, i: usize) -> &Event {
        &self.events[i]
    }

    /// All events `e(ρ)`.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The instance `I_i` (after event `i`). The last position is the
    /// current instance; the first read of any other position rebuilds it
    /// (one clone plus the diffs since the nearest earlier cached instance)
    /// and caches it.
    pub fn instance(&self, i: usize) -> &Instance {
        if i + 1 == self.len() {
            self.current()
        } else {
            self.past(i)
        }
    }

    /// The instance *before* event `i` (`I_{i−1}`, or the initial instance),
    /// rebuilt and cached on first read like [`Run::instance`].
    pub fn pre_instance(&self, i: usize) -> &Instance {
        if i == 0 {
            &self.initial
        } else {
            self.instance(i - 1)
        }
    }

    /// The final instance (or the initial one for an empty run).
    pub fn current(&self) -> &Instance {
        self.state.current()
    }

    /// `I_i` from the history cache, filled on first read.
    fn past(&self, i: usize) -> &Instance {
        self.history[i].get_or_init(|| self.rolled(i + 1))
    }

    /// The instance after the first `k` events (`k < len`), rolled forward
    /// through the diffs from the nearest earlier filled history cell (or
    /// `initial`). Fills no cell.
    pub(crate) fn rolled(&self, k: usize) -> Instance {
        let (start, base) = (0..k)
            .rev()
            .find_map(|j| Some((j + 1, self.history[j].get()?)))
            .unwrap_or((0, &self.initial));
        let mut inst = base.clone();
        for diff in &self.diffs[start..k] {
            diff.apply_to(&mut inst);
        }
        inst
    }

    /// The live state after the first `k` events, taken from the recorded
    /// history instead of re-running their transitions: the current
    /// instance (the state's clone) when `k` is the length, otherwise the
    /// diffs rolled forward as in [`Run::instance`]; the view plane built
    /// from that instance; the avoid-set grown from the first `k` diffs;
    /// and the deltas of event `k − 1`. It equals the state pushing the
    /// first `k` events into [`ScratchRun::restart_of`] leaves, runs no
    /// transition and fills no history cell.
    ///
    /// # Panics
    ///
    /// Panics if `k > len`.
    pub fn prefix_state(&self, k: usize) -> ScratchRun {
        assert!(
            k <= self.len(),
            "prefix of {k} events of a run of {}",
            self.len()
        );
        let state = if k == self.len() {
            self.state.clone()
        } else {
            ScratchRun::rebuilt(
                self.spec_arc(),
                &self.initial,
                &self.diffs[..k],
                self.rolled(k),
            )
        };
        match k.checked_sub(1) {
            Some(last) => state.with_last_deltas_of(&self.diffs[last]),
            None => state,
        }
    }

    /// Draws a value guaranteed globally fresh for this run.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, when the run's fresh values are
    /// exhausted: it has observed `ν18446744073709551614`, the largest value
    /// a generator draws, and drawing never wraps around
    /// ([`FreshGen::draw`]).
    pub fn draw_fresh(&mut self) -> Value {
        self.fresh.draw()
    }

    /// The values a fresh instantiation must avoid:
    /// `const(P) ∪ adom(initial) ∪ ⋃ adom(I_j)`.
    pub fn used_values(&self) -> &BTreeSet<Value> {
        self.state.used_values()
    }

    /// Steers [`Run::draw_fresh`] past `v` *without* marking it used — for
    /// replaying histories whose later events will introduce `v` themselves
    /// (e.g. expanding a view-program run back into an original-program run).
    pub fn avoid_fresh(&mut self, v: &Value) {
        self.fresh.observe(v);
    }

    /// The fresh-value watermark: the counter the next [`Run::draw_fresh`]
    /// will use. Persist it alongside instance snapshots — values drawn and
    /// later deleted are invisible in any snapshot, so rebuilding the
    /// generator from an instance's active domain alone can re-mint them.
    pub fn fresh_watermark(&self) -> u64 {
        self.fresh.peek()
    }

    /// Restores a persisted watermark (never lowers the counter): future
    /// [`Run::draw_fresh`] draws start at `next` or later.
    pub(crate) fn raise_fresh_watermark(&mut self, next: u64) {
        self.fresh.raise_to(next);
    }

    /// Decides `event` exactly as [`Run::push`] would — global freshness
    /// of its head-only values, then the transition on the acting peer's
    /// view — and returns the successor without committing it.
    pub fn check(&self, event: &Event) -> Result<Applied, EngineError> {
        self.state.step(event)
    }

    /// Appends an event, enforcing the transition semantics and the global
    /// freshness of head-only variable instantiations.
    pub fn push(&mut self, event: Event) -> Result<(), EngineError> {
        let Applied { instance, diff } = self.state.step(&event)?;
        // Every value the diff introduces occurs in the event.
        for v in event.adom(self.state.spec()) {
            self.fresh.observe(&v);
        }
        self.state.commit(instance, &diff);
        debug_assert!(
            self.current()
                .adom()
                .iter()
                .all(|v| self.used_values().contains(v)),
            "incremental avoid-set must cover the full active domain"
        );
        #[cfg(debug_assertions)]
        for p in self.spec().collab().peer_ids() {
            debug_assert_eq!(
                self.peer_view(p),
                &self.spec().collab().view_of(self.current(), p),
                "view plane must track view_of"
            );
        }
        self.events.push(event);
        self.history.push(OnceLock::new());
        self.diffs.push(diff);
        let mut derived = std::mem::take(&mut self.derived);
        derived.step(self);
        self.derived = derived;
        Ok(())
    }

    /// The facts about this run that `build` derives from it, built on the
    /// first call and returned from the slot by later ones; every
    /// [`Run::push`] steps them, and [`Run::pop`] empties the slot. The
    /// slot holds one value: every caller names the same type `T` (the
    /// explanation layer's `RunFacts`, so `engine` need not depend on it).
    ///
    /// # Panics
    ///
    /// Panics if the slot already holds a value of another type.
    pub fn facts<T: StepFacts>(&self, build: impl FnOnce(&Run) -> T) -> &T {
        let facts: &dyn Any = &**self.derived.facts.get_or_init(|| Box::new(build(self)));
        facts
            .downcast_ref()
            .expect("a run's facts slot holds one type")
    }

    /// Builds the provenance plane now rather than on its first read, so
    /// that later pushes step it.
    pub fn enable_provenance(&self) {
        self.provenance();
    }

    /// The provenance plane, built from the recorded trace on first read
    /// ([`ProvPlane::build`]) and stepped by every later push.
    pub fn provenance(&self) -> &ProvPlane {
        self.derived.prov.get_or_init(|| ProvPlane::build(self))
    }

    /// Why does `peer` see the fact with key `key` in `rel`? Answers from
    /// the provenance plane — no scenario search. `None` when the peer does
    /// not see the fact.
    pub fn explain_fact(&self, peer: PeerId, rel: RelId, key: &Value) -> Option<&Provenance> {
        self.provenance().explain(peer, rel, key)
    }

    /// The support set of a visible fact: every event index appearing in
    /// some retained derivation, sorted ascending.
    pub fn fact_support(&self, peer: PeerId, rel: RelId, key: &Value) -> Option<Vec<usize>> {
        let prov = self.explain_fact(peer, rel, key)?;
        Some(prov.support().into_iter().map(|e| e as usize).collect())
    }

    /// The provenance cone of `peer`: the union of the closed dependency
    /// monomials `D(e_i)` of the events visible at `peer` — every event
    /// whose effects the peer's observations were derived from.
    ///
    /// This is the *explanation* cone. Scenario search prunes with the
    /// slightly wider cone of `cwf_core`'s `cone` module, which must also
    /// retain events that could impersonate a visible write in a
    /// sub-replay (e.g. an insertion that was a no-op here but re-creates
    /// the fact once the original writer is dropped).
    pub fn prov_cone(&self, peer: PeerId) -> Vec<usize> {
        let pp = self.provenance();
        let mut cone = Mono::one();
        for i in self.visible_events(peer) {
            cone = cone.union(pp.dep(i));
        }
        cone.events().iter().map(|&e| e as usize).collect()
    }

    /// The rule-body matches behind [`crate::candidates`], built on first
    /// read and stepped by every later push.
    pub(crate) fn listing(&self) -> &Listing {
        self.derived.listing.get_or_init(|| Listing::build(self))
    }

    /// Peer `p`'s incrementally maintained view of [`Run::current`] — the
    /// engine's replacement for `view_of` rescans.
    pub fn peer_view(&self, p: PeerId) -> &ViewInstance {
        self.state.view(p)
    }

    /// The non-empty per-peer view deltas emitted by the most recent
    /// [`Run::push`], in peer-id order (empty for a fresh or just-popped
    /// run).
    pub fn last_deltas(&self) -> &[(PeerId, ViewDelta)] {
        self.state.last_deltas()
    }

    /// The diff `I_i − I_{i−1}` emitted by event `i`.
    pub fn diff(&self, i: usize) -> &InstanceDiff {
        &self.diffs[i]
    }

    /// Removes the last event and its instance, returning the event. Used
    /// to roll a just-pushed event back out of memory when it could not be
    /// made durable. The current instance is restored from the history
    /// cache (rebuilt first if cold), and the live state is rebuilt around
    /// it: the avoid-set from the remaining diffs, so resubmitting the same
    /// event (same fresh values) is accepted, and the view plane from the
    /// restored instance rather than by inverting deltas (popping is the
    /// rare durability-failure path). The derived state is emptied, to be
    /// rebuilt on its next read. The fresh-value *generator* is not rewound
    /// — it only over-avoids, which is harmless.
    pub fn pop(&mut self) -> Option<Event> {
        let event = self.events.pop()?;
        self.history.pop().expect("events and history in step");
        self.diffs.pop().expect("events and diffs in step");
        let current = match self.len().checked_sub(1) {
            Some(last) => {
                self.past(last);
                self.history[last].take().expect("just filled")
            }
            None => self.initial.clone(),
        };
        self.state = ScratchRun::rebuilt(self.spec_arc(), &self.initial, &self.diffs, current);
        self.derived = Derived::default();
        Some(event)
    }

    /// Rebuilds a run from an event sequence, reporting the first failing
    /// index. This realizes the paper's "a subsequence `α` of `e(ρ)` *yields
    /// a subrun* `run(α)`" check.
    pub fn replay(
        spec: Arc<WorkflowSpec>,
        initial: Instance,
        events: impl IntoIterator<Item = Event>,
    ) -> Result<Run, ReplayError> {
        let mut run = Run::with_initial(spec, initial);
        for (index, e) in events.into_iter().enumerate() {
            run.push(e).map_err(|error| ReplayError { index, error })?;
        }
        Ok(run)
    }

    /// Attempts to replay the subsequence of this run's events given by
    /// `indices` (strictly increasing positions into `e(ρ)`). The result
    /// equals [`Run::replay`] of those events from the initial instance,
    /// error index included, but the longest leading stretch `0..k` of
    /// `indices` is not replayed: the subrun resumes from this run's
    /// recorded prefix ([`Run::prefix_state`]) and pushes only the rest.
    pub fn try_subrun(&self, indices: &[usize]) -> Result<Run, ReplayError> {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        let k = indices
            .iter()
            .enumerate()
            .take_while(|&(j, &i)| i == j)
            .count();
        let mut sub = Run {
            state: self.prefix_state(k),
            initial: self.initial.clone(),
            events: self.events[..k].to_vec(),
            history: (0..k).map(|_| OnceLock::new()).collect(),
            diffs: self.diffs[..k].to_vec(),
            fresh: observed(self.spec(), &self.initial, &self.events[..k]),
            derived: Derived::default(),
        };
        for (index, &i) in indices.iter().enumerate().skip(k) {
            sub.push(self.events[i].clone())
                .map_err(|error| ReplayError { index, error })?;
        }
        Ok(sub)
    }

    /// Is event `i` visible at `peer`? (`peer(e_i) = p` or
    /// `I_{i−1}@p ≠ I_i@p`, Section 3.) Reads `I_i` through
    /// [`Run::instance`]; [`Run::visible_events`] answers for every
    /// position without the history cache.
    pub fn visible_at(&self, i: usize, peer: PeerId) -> bool {
        if self.events[i].peer == peer {
            return true;
        }
        let collab = self.spec().collab();
        !peer_delta(collab, peer, &self.diffs[i], self.instance(i)).is_empty()
    }

    /// Calls `f(i, delta)` with each event's view delta at `peer`, in run
    /// order. One instance, cloned from `initial`, is rolled forward
    /// through the recorded diffs: no history cell is read or filled, and
    /// no view instance is built.
    pub fn for_each_peer_delta(&self, peer: PeerId, mut f: impl FnMut(usize, ViewDelta)) {
        let collab = self.spec().collab();
        let mut inst = self.initial.clone();
        for (i, diff) in self.diffs.iter().enumerate() {
            diff.apply_to(&mut inst);
            f(i, peer_delta(collab, peer, diff, &inst));
        }
    }

    /// The positions of the events visible at `peer`.
    pub fn visible_events(&self, peer: PeerId) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_peer_delta(peer, |i, delta| {
            if self.events[i].peer == peer || !delta.is_empty() {
                out.push(i);
            }
        });
        out
    }

    /// The view `ρ@p` of the run at `peer` (Definition 3.1): the transitions
    /// visible at `p`, each carrying `e_i@p` (the event itself for `p`'s own
    /// events, `ω` otherwise) and the view instance `I_i@p`. Built by rolling
    /// the stored diffs through one instance and one view instance — no
    /// per-step rescan.
    pub fn view(&self, peer: PeerId) -> RunView {
        let mut steps = Vec::new();
        let mut cur = materialize_view(self.spec().collab(), peer, &self.initial);
        self.for_each_peer_delta(peer, |i, delta| {
            let changed = !delta.is_empty();
            delta.apply_to_view(&mut cur);
            let own = self.events[i].peer == peer;
            if own || changed {
                steps.push(ViewStep {
                    index: i,
                    event: if own {
                        EventView::Own(self.events[i].clone())
                    } else {
                        EventView::World
                    },
                    view: cur.clone(),
                });
            }
        });
        RunView { peer, steps }
    }
}

/// The fresh-value generator of a run over `initial` that has pushed
/// `events`: it has observed their active domains, as [`Run::push`] does.
fn observed(spec: &WorkflowSpec, initial: &Instance, events: &[Event]) -> FreshGen {
    let mut fresh = FreshGen::new();
    for v in initial.adom() {
        fresh.observe(&v);
    }
    for v in events.iter().flat_map(|e| e.adom(spec)) {
        fresh.observe(&v);
    }
    fresh
}

impl fmt::Debug for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Run[{} events]", self.len())?;
        for (i, e) in self.events.iter().enumerate() {
            writeln!(f, "  {i}: {}", e.describe(self.spec()))?;
        }
        Ok(())
    }
}

/// A replay failure: the first event that could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Position of the failing event in the input sequence.
    pub index: usize,
    /// Why it failed.
    pub error: EngineError,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replay failed at event {}: {}", self.index, self.error)
    }
}

impl std::error::Error for ReplayError {}

/// The view `e@p` of an event: the event itself for the peer's own events,
/// the symbol `ω` ("world") for events of other peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventView {
    /// The peer's own event.
    Own(Event),
    /// Another peer's event, seen only through its side effects (`ω`).
    World,
}

/// One visible transition of a run view.
#[derive(Debug, Clone)]
pub struct ViewStep {
    /// Position of the underlying event in the *original* run. Not part of
    /// observational equality.
    pub index: usize,
    /// `e_i@p`.
    pub event: EventView,
    /// `I_i@p`.
    pub view: ViewInstance,
}

/// The view `ρ@p` of a run. Two run views are equal when their sequences of
/// `(e@p, I@p)` pairs agree — the *observational equivalence* underlying
/// scenarios (Definition 3.2). Original-run indices are deliberately ignored.
#[derive(Debug, Clone)]
pub struct RunView {
    /// The observing peer.
    pub peer: PeerId,
    /// The visible transitions in order.
    pub steps: Vec<ViewStep>,
}

impl PartialEq for RunView {
    fn eq(&self, other: &Self) -> bool {
        self.peer == other.peer
            && self.steps.len() == other.steps.len()
            && self
                .steps
                .iter()
                .zip(&other.steps)
                .all(|(a, b)| a.event == b.event && a.view == b.view)
    }
}

impl Eq for RunView {}

impl RunView {
    /// Number of visible transitions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Is anything visible at all?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Bindings;
    use cwf_lang::{parse_workflow, RuleId, VarId};

    /// The Theorem 3.3 style propositional workflow: q sees everything,
    /// p sees only OK.
    fn prop_spec() -> Arc<WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { V1(K); V2(K); C1(K); OK(K); }
                peers {
                    q sees V1(*), V2(*), C1(*), OK(*);
                    p sees OK(*);
                }
                rules {
                    a1 @ q: +V1(0) :- ;
                    a2 @ q: +V2(0) :- ;
                    b1 @ q: +C1(0) :- V1(0);
                    b2 @ q: +C1(0) :- V2(0);
                    ok @ q: +OK(0) :- C1(0);
                }
                "#,
            )
            .unwrap(),
        )
    }

    fn ground(spec: &WorkflowSpec, name: &str) -> Event {
        let id = spec.program().rule_by_name(name).unwrap();
        Event::new(spec, id, Bindings::empty(0)).unwrap()
    }

    fn push_all(run: &mut Run, names: &[&str]) {
        let spec = run.spec_arc();
        for n in names {
            run.push(ground(&spec, n)).unwrap();
        }
    }

    #[test]
    fn run_builds_and_tracks_instances() {
        let spec = prop_spec();
        let mut run = Run::new(Arc::clone(&spec));
        assert!(run.is_empty());
        push_all(&mut run, &["a1", "b1", "ok"]);
        assert_eq!(run.len(), 3);
        assert!(run.initial().is_empty());
        assert_eq!(run.instance(0).total_tuples(), 1);
        assert_eq!(run.current().total_tuples(), 3);
        assert_eq!(run.pre_instance(0), run.initial());
        assert_eq!(run.pre_instance(2), run.instance(1));
    }

    /// The positions whose history cell holds a rebuilt instance.
    fn filled(run: &Run) -> Vec<usize> {
        (0..run.history.len())
            .filter(|&i| run.history[i].get().is_some())
            .collect()
    }

    #[test]
    fn history_cells_fill_on_first_read_only() {
        let spec = prop_spec();
        let mut run = Run::new(Arc::clone(&spec));
        push_all(&mut run, &["a1", "a2", "b1", "b2", "ok"]);
        assert!(filled(&run).is_empty(), "pushes read no past instance");
        assert_eq!(run.instance(4).total_tuples(), 4);
        assert!(filled(&run).is_empty(), "the last position is current");
        assert_eq!(run.instance(2).total_tuples(), 3);
        assert_eq!(filled(&run), vec![2], "instance(k) fills no cell after k");
        assert_eq!(run.pre_instance(2).total_tuples(), 2);
        assert_eq!(filled(&run), vec![1, 2]);
        assert_eq!(run.instance(3), run.instance(2), "b2 is a no-op insert");
        assert_eq!(filled(&run), vec![1, 2, 3]);
        // Pop restores current from its cell and leaves the new last cell
        // empty; the popped position's cell is gone.
        run.pop();
        assert_eq!(filled(&run), vec![1, 2]);
        assert_eq!(run.current().total_tuples(), 3);
        run.pop();
        assert_eq!(filled(&run), vec![1]);
        assert_eq!(run.current(), run.instance(2));
    }

    /// Resumed subruns and prefix states read the parent's history without
    /// filling a cell, and a subrun starts with its own cells empty, as a
    /// replay does.
    #[test]
    fn subruns_fill_no_history_cell() {
        let spec = prop_spec();
        let mut run = Run::new(Arc::clone(&spec));
        push_all(&mut run, &["a1", "a2", "b1", "b2", "ok"]);
        run.instance(1);
        for idx in [&[][..], &[0, 1, 2], &[0, 1, 2, 3, 4], &[0, 2, 4], &[1, 2]] {
            let _ = run.try_subrun(idx);
        }
        for k in 0..=run.len() {
            run.prefix_state(k);
        }
        assert_eq!(filled(&run), vec![1], "the parent's cells are untouched");
        let sub = run.try_subrun(&[0, 1, 2, 3]).unwrap();
        assert!(filled(&sub).is_empty());
        assert_eq!(sub.instance(2), run.instance(2));
    }

    /// The provenance build (first read after the pushes; `b2` is a no-op
    /// insert it must look up), visible sets, run views, provenance cones
    /// and run statistics roll one instance forward through the diffs: on a
    /// cold run they fill no history cell.
    #[test]
    fn visibility_readers_fill_no_history_cell() {
        let spec = prop_spec();
        let mut run = Run::new(Arc::clone(&spec));
        push_all(&mut run, &["a1", "a2", "b1", "b2", "ok"]);
        assert_eq!(run.provenance().len(), 5);
        assert!(
            filled(&run).is_empty(),
            "the provenance build filled a cell"
        );
        for p in spec.collab().peer_ids() {
            run.visible_events(p);
            run.view(p);
            run.prov_cone(p);
        }
        crate::stats::RunStats::of(&run);
        assert!(filled(&run).is_empty(), "no reader filled a cell");
    }

    /// Counts the events of the run and the pushes it was stepped over.
    #[derive(Debug, PartialEq)]
    struct Seen {
        len: usize,
        steps: usize,
    }

    impl StepFacts for Seen {
        fn step(&mut self, run: &Run) {
            self.len = run.len();
            self.steps += 1;
        }
    }

    fn seen(len: usize) -> Seen {
        Seen { len, steps: 0 }
    }

    /// The facts slot keeps its value across reads, is stepped by a push
    /// (an empty slot stays empty), and is empty after a pop and on a
    /// clone.
    #[test]
    fn facts_slot_steps_on_push_and_empties_on_pop_and_clone() {
        let spec = prop_spec();
        let mut run = Run::new(Arc::clone(&spec));
        push_all(&mut run, &["a1"]);
        assert_eq!(run.facts(|r| seen(r.len())), &seen(1));
        assert_eq!(
            run.facts(|_| seen(99)),
            &seen(1),
            "a filled slot is read, not rebuilt"
        );
        assert_eq!(
            run.clone().facts(|_| seen(2)),
            &seen(2),
            "a clone starts empty"
        );
        push_all(&mut run, &["b1"]);
        assert_eq!(run.facts(|_| seen(99)), &Seen { len: 2, steps: 1 });
        assert!(run.push(ground(&spec, "b2")).is_err(), "b2 needs V2");
        assert_eq!(
            run.facts(|_| seen(99)),
            &Seen { len: 2, steps: 1 },
            "a failed push steps nothing"
        );
        let mut copy = run.clone();
        push_all(&mut copy, &["a2"]);
        assert_eq!(copy.facts(|r| seen(r.len())), &seen(3));
        run.pop();
        assert_eq!(run.facts(|r| seen(r.len() + 10)), &seen(11));
    }

    #[test]
    fn body_failure_is_rejected() {
        let spec = prop_spec();
        let mut run = Run::new(Arc::clone(&spec));
        let err = run.push(ground(&spec, "ok")).unwrap_err();
        assert!(matches!(err, EngineError::BodyNotSatisfied { .. }));
    }

    #[test]
    fn visibility_splits_p_and_q() {
        let spec = prop_spec();
        let mut run = Run::new(Arc::clone(&spec));
        push_all(&mut run, &["a1", "b1", "ok"]);
        let q = spec.collab().peer("q").unwrap();
        let p = spec.collab().peer("p").unwrap();
        // q owns all events.
        assert_eq!(run.visible_events(q), vec![0, 1, 2]);
        // p sees only the OK insertion.
        assert_eq!(run.visible_events(p), vec![2]);
        assert!(!run.visible_at(0, p));
        assert!(run.visible_at(2, p));
    }

    #[test]
    fn run_view_is_observational() {
        let spec = prop_spec();
        let p = spec.collab().peer("p").unwrap();
        // Two different runs deriving OK look identical to p.
        let mut r1 = Run::new(Arc::clone(&spec));
        push_all(&mut r1, &["a1", "b1", "ok"]);
        let mut r2 = Run::new(Arc::clone(&spec));
        push_all(&mut r2, &["a2", "b2", "ok"]);
        assert_eq!(r1.view(p), r2.view(p));
        // But q distinguishes them.
        let q = spec.collab().peer("q").unwrap();
        assert_ne!(r1.view(q), r2.view(q));
        // The view is a strict filter for p.
        assert_eq!(r1.view(p).len(), 1);
        assert!(matches!(r1.view(p).steps[0].event, EventView::World));
        assert_eq!(r1.view(q).len(), 3);
        assert!(matches!(r1.view(q).steps[0].event, EventView::Own(_)));
    }

    #[test]
    fn replay_and_try_subrun() {
        let spec = prop_spec();
        let mut run = Run::new(Arc::clone(&spec));
        push_all(&mut run, &["a1", "a2", "b1", "ok"]);
        // Dropping the irrelevant a2 still replays.
        let sub = run.try_subrun(&[0, 2, 3]).unwrap();
        assert_eq!(sub.len(), 3);
        // Dropping a1 breaks b1's body.
        let err = run.try_subrun(&[2, 3]).unwrap_err();
        assert_eq!(err.index, 0);
        assert!(matches!(err.error, EngineError::BodyNotSatisfied { .. }));
    }

    #[test]
    fn freshness_enforced_on_push() {
        // A rule with a head-only variable must get a globally fresh value.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { R(K, A); }
                peers { p sees R(*); }
                rules { mint @ p: +R(k, "tag") :- ; }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        let rule = spec.program().rule_by_name("mint").unwrap();
        // Non-fresh value: the constant "tag" is in const(P).
        let mut b = Bindings::empty(1);
        b.set(VarId(0), Value::str("tag"));
        let e = Event::new(&spec, rule, b).unwrap();
        assert!(matches!(
            run.push(e),
            Err(EngineError::NotGloballyFresh { .. })
        ));
        // Fresh value from the run's generator works.
        let v = run.draw_fresh();
        let mut b = Bindings::empty(1);
        b.set(VarId(0), v);
        run.push(Event::new(&spec, rule, b).unwrap()).unwrap();
        // Re-using the same value is no longer fresh.
        let mut b = Bindings::empty(1);
        b.set(VarId(0), v);
        assert!(matches!(
            run.push(Event::new(&spec, rule, b).unwrap()),
            Err(EngineError::NotGloballyFresh { .. })
        ));
        // The generator stays ahead.
        let v2 = run.draw_fresh();
        let mut b = Bindings::empty(1);
        b.set(VarId(0), v2);
        run.push(Event::new(&spec, rule, b).unwrap()).unwrap();
        assert_eq!(run.len(), 2);
    }

    #[test]
    fn pop_rolls_back_and_reopens_freshness() {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { R(K, A); }
                peers { p sees R(*); }
                rules { mint @ p: +R(k, "tag") :- ; }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        let rule = spec.program().rule_by_name("mint").unwrap();
        let v = run.draw_fresh();
        let mut b = Bindings::empty(1);
        b.set(VarId(0), v);
        let e = Event::new(&spec, rule, b).unwrap();
        run.push(e.clone()).unwrap();
        assert_eq!(run.len(), 1);
        // Pop returns the event and restores the pre-push state.
        let popped = run.pop().expect("one event to pop");
        assert_eq!(popped, e);
        assert!(run.is_empty());
        assert!(run.current().is_empty());
        // The popped event's fresh value is usable again: resubmission of
        // the identical event succeeds.
        run.push(e).unwrap();
        assert_eq!(run.len(), 1);
        assert!(run.pop().is_some());
        assert!(run.pop().is_none(), "empty run pops nothing");
    }

    #[test]
    fn with_initial_treats_instance_as_history() {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { R(K, A); }
                peers { p sees R(*); }
                rules { mint @ p: +R(k, "tag") :- ; }
                "#,
            )
            .unwrap(),
        );
        let mut init = Instance::empty(spec.collab().schema());
        init.rel_mut(cwf_model::RelId(0))
            .insert(cwf_model::Tuple::new([Value::int(7), Value::str("x")]))
            .unwrap();
        let mut run = Run::with_initial(Arc::clone(&spec), init);
        // 7 occurs in the initial instance: not fresh.
        let mut b = Bindings::empty(1);
        b.set(VarId(0), Value::int(7));
        assert!(matches!(
            run.push(Event::new(&spec, RuleId(0), b).unwrap()),
            Err(EngineError::NotGloballyFresh { .. })
        ));
    }

    #[test]
    fn debug_format_lists_events() {
        let spec = prop_spec();
        let mut run = Run::new(Arc::clone(&spec));
        push_all(&mut run, &["a1"]);
        let s = format!("{run:?}");
        assert!(s.contains("a1@q"));
    }
}
