//! The provenance plane: incremental why-provenance for run facts.
//!
//! Alongside the view plane's per-peer `ViewInstance`s, a [`ProvPlane`]
//! maintains a [`Provenance`] polynomial for every fact of the current
//! instance — and, restricted by visibility, for every fact of every peer
//! view. Each monomial is a *witness set*: a set of event indices that
//! replays as a subrun (in original order) and re-derives the fact with its
//! exact content. `⊕` collects alternative derivations (a fact inserted
//! no-op by a second rule gains a second, independent witness), `⊗` joins
//! the requirements of a rule body.
//!
//! ## Closed witness sets
//!
//! With deletions in play, an arbitrary union of replayable sets need not
//! replay — a missing deleter can leave a stale fact that breaks a negative
//! literal. The plane therefore builds monomials from *dependency-closed*
//! sets, tracked by two per-`(rel, key)` structures:
//!
//! * `hist(rel, k)` — the **closed writer history**: the union of the
//!   dependency monomials `D(e)` of every event that created, modified, or
//!   deleted key `k`. Replaying `hist(rel, k)` (plus anything else closed)
//!   reproduces `k`'s exact state history.
//! * `D(e) = {e} ∪ ⋃_{(rel,q) ∈ K(e)} hist(rel, q)` on the pre-state — the
//!   event's own closed dependency monomial over its full key footprint
//!   `K(e)` ([`Event::key_occurrences`]).
//!
//! The fact polynomials join `D`/`hist` factors for every key an event's
//! applicability depends on (positive reads join the fact's polynomial,
//! negative reads and writes join the writer history), so every monomial is
//! closed by construction. The single controlled exception is the
//! **no-op insert**: when a second rule re-inserts a fact byte-identically
//! (the padded insert equals the stored tuple), the insert alone is an
//! alternative derivation. Its monomials are admitted only when disjoint
//! from the key's raw writer set, so at replay the key is simply absent and
//! the insert re-creates the identical fact.
//!
//! The plane is **derived state** of a [`crate::run::Run`], never
//! persisted: [`Run::provenance`] builds it from the recorded trace on
//! first read ([`ProvPlane::build`]), every push steps it from the event's
//! diff ([`StepFacts::step`]), and a pop or a clone empties it. WAL
//! recovery yields a run whose plane is built on its first read.

use std::collections::BTreeMap;

use cwf_lang::WorkflowSpec;
use cwf_model::{Instance, InstanceDiff, Mono, PeerId, ProvStore, Provenance, RelId, Value};

use crate::event::{Event, GroundUpdate};
use crate::run::{Run, StepFacts};

/// Incrementally maintained why-provenance for every fact of a run, at the
/// global instance level and restricted to each peer's view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvPlane {
    /// `D(e_i)` — the closed dependency monomial of each event.
    deps: Vec<Mono>,
    /// `hist(rel, k)` — closed writer history per key ever written.
    hist: BTreeMap<(RelId, Value), Mono>,
    /// Raw writer event indices per key (sorted ascending), gating the
    /// no-op-insert alternative.
    touch: BTreeMap<(RelId, Value), Vec<u32>>,
    /// Polynomials of the facts present in the current instance.
    global: BTreeMap<RelId, ProvStore>,
    /// Polynomials of the facts present in each peer's view — always the
    /// global polynomial, restricted by visibility.
    views: Vec<BTreeMap<RelId, ProvStore>>,
}

impl ProvPlane {
    /// Builds the plane from a run's recorded trace — the from-scratch
    /// reference that incremental stepping must agree with. An event with
    /// no-op inserts reads the instance it left: one instance, cloned from
    /// the initial one, is rolled forward through the diffs as far as such
    /// an event, so no history cell is read or filled, and a run without
    /// no-op inserts rolls nothing.
    pub fn build(run: &Run) -> ProvPlane {
        let spec = run.spec();
        let mut plane = ProvPlane {
            deps: Vec::with_capacity(run.len()),
            hist: BTreeMap::new(),
            touch: BTreeMap::new(),
            global: BTreeMap::new(),
            views: spec.collab().peer_ids().map(|_| BTreeMap::new()).collect(),
        };
        // Initial-instance facts are derivable with no events at all.
        for r in spec.collab().schema().rel_ids() {
            for k in run.initial().rel(r).keys() {
                plane
                    .global
                    .entry(r)
                    .or_default()
                    .upsert(*k, Provenance::one());
            }
        }
        let (mut inst, mut rolled) = (run.initial().clone(), 0);
        for i in 0..run.len() {
            let (event, diff) = (run.event(i), run.diff(i));
            let noops = noop_inserts(spec, event, diff, || {
                for j in rolled..=i {
                    run.diff(j).apply_to(&mut inst);
                }
                rolled = i + 1;
                &inst
            });
            plane.fold(spec, event, i as u32, diff, &noops);
        }
        // Peer stores are the global polynomials restricted to the keys the
        // maintained view plane holds for each peer.
        let ProvPlane { global, views, .. } = &mut plane;
        for p in spec.collab().peer_ids() {
            let view = run.peer_view(p);
            for r in spec.collab().schema().rel_ids() {
                let Some(rs) = view.store(r) else { continue };
                if rs.keys().len() == 0 {
                    continue;
                }
                let ps = views[p.index()].entry(r).or_default();
                for k in rs.keys() {
                    let prov = global
                        .get(&r)
                        .and_then(|s| s.get(k))
                        .cloned()
                        .unwrap_or_else(Provenance::one);
                    ps.upsert(*k, prov);
                }
            }
        }
        plane
    }

    /// Folds one event into `deps`/`hist`/`touch`/`global`, returning the
    /// keys whose polynomial changed (created, modified, or gained an
    /// alternative).
    fn fold(
        &mut self,
        spec: &WorkflowSpec,
        event: &Event,
        idx: u32,
        diff: &InstanceDiff,
        noops: &[(RelId, Value, bool)],
    ) -> Vec<(RelId, Value)> {
        // D(e): the event plus the closed writer history of every key it
        // touches, on the pre-state.
        let mut d = Mono::var(idx);
        for (rel, keys) in event.key_occurrences(spec) {
            for k in keys {
                if let Some(h) = self.hist.get(&(rel, k)) {
                    d = d.union(*h);
                }
            }
        }
        // W(e): the event joined with one factor per key its applicability
        // depends on, all read on the pre-state. Positive body reads need
        // the fact itself (its polynomial); negative reads and written keys
        // need the key's exact state, i.e. its closed writer history;
        // modified/deleted facts additionally carry their own polynomial
        // (their content had to be present and selectable).
        let (pos, neg) = event.body_key_reads(spec);
        let mut w = Provenance::from_mono(Mono::var(idx));
        for (rel, keys) in &pos {
            for k in keys {
                let f = self.fact_prov(*rel, k);
                w = w.and(&f);
            }
        }
        for (rel, keys) in &neg {
            for k in keys {
                if let Some(h) = self.hist.get(&(*rel, *k)) {
                    w = w.and_mono(*h);
                }
            }
        }
        for (rel, t) in &diff.created {
            if let Some(h) = self.hist.get(&(*rel, *t.key())) {
                w = w.and_mono(*h);
            }
        }
        for (rel, k, _) in &diff.modified {
            if let Some(h) = self.hist.get(&(*rel, *k)) {
                w = w.and_mono(*h);
            }
            let f = self.fact_prov(*rel, k);
            w = w.and(&f);
        }
        for (rel, t) in &diff.deleted {
            if let Some(h) = self.hist.get(&(*rel, *t.key())) {
                w = w.and_mono(*h);
            }
            let f = self.fact_prov(*rel, t.key());
            w = w.and(&f);
        }
        // A non-exact no-op insert relied on attributes the stored fact
        // already had: its applicability depends on that fact's derivation.
        for (rel, k, exact) in noops {
            if !*exact {
                let f = self.fact_prov(*rel, k);
                w = w.and(&f);
            }
        }
        // Commit the written keys: their fact is now derived by W(e).
        let mut changed = Vec::new();
        for (rel, t) in &diff.created {
            self.global
                .entry(*rel)
                .or_default()
                .upsert(*t.key(), w.clone());
            changed.push((*rel, *t.key()));
        }
        for (rel, k, _) in &diff.modified {
            self.global.entry(*rel).or_default().upsert(*k, w.clone());
            changed.push((*rel, *k));
        }
        for (rel, t) in &diff.deleted {
            if let Some(s) = self.global.get_mut(rel) {
                s.remove(t.key());
            }
        }
        // Exact no-op inserts are alternative derivations: the insert alone
        // re-creates the identical fact — provided the witness set contains
        // no other writer of the key (so the key is absent at replay) and
        // the rule did not itself read the key positively or negatively.
        for (rel, k, exact) in noops {
            if !*exact
                || pos.get(rel).is_some_and(|ks| ks.contains(k))
                || neg.get(rel).is_some_and(|ks| ks.contains(k))
            {
                continue;
            }
            let writers = self
                .touch
                .get(&(*rel, *k))
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let alts: Vec<Mono> = w
                .monomials()
                .iter()
                .copied()
                .filter(|m| m.is_disjoint(writers))
                .collect();
            if alts.is_empty() {
                continue;
            }
            let store = self.global.entry(*rel).or_default();
            if let Some(cur) = store.get(k) {
                let mut merged = cur.clone();
                for m in alts {
                    merged.or_mono(m);
                }
                store.upsert(*k, merged);
                changed.push((*rel, *k));
            }
        }
        // The written keys absorb the event into their closed writer
        // history and raw writer set.
        for (rel, k) in written_keys(diff) {
            let h = self.hist.entry((rel, k)).or_insert_with(Mono::one);
            *h = h.union(d);
            self.touch.entry((rel, k)).or_default().push(idx);
        }
        self.deps.push(d);
        changed
    }

    /// The polynomial of the present fact `(rel, key)`, defaulting to `1`
    /// (facts of the initial instance that predate the plane's bookkeeping).
    fn fact_prov(&self, rel: RelId, key: &Value) -> Provenance {
        self.global
            .get(&rel)
            .and_then(|s| s.get(key))
            .cloned()
            .unwrap_or_else(Provenance::one)
    }

    /// Number of events folded in.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Has no event been folded in?
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// `D(e_i)` — the closed dependency monomial of event `i`.
    pub fn dep(&self, i: usize) -> Mono {
        self.deps[i]
    }

    /// The polynomial of the fact `(rel, key)` as visible at `peer`; `None`
    /// when the peer does not see the fact.
    pub fn explain(&self, peer: PeerId, rel: RelId, key: &Value) -> Option<&Provenance> {
        self.views[peer.index()].get(&rel).and_then(|s| s.get(key))
    }

    /// Iterates `(rel, key, polynomial)` over the current instance's facts.
    pub fn global_iter(&self) -> impl Iterator<Item = (RelId, &Value, &Provenance)> {
        self.global
            .iter()
            .flat_map(|(r, s)| s.iter().map(move |(k, p)| (*r, k, p)))
    }

    /// Iterates `(rel, key, polynomial)` over the facts visible at `peer`.
    pub fn peer_iter(&self, peer: PeerId) -> impl Iterator<Item = (RelId, &Value, &Provenance)> {
        self.views[peer.index()]
            .iter()
            .flat_map(|(r, s)| s.iter().map(move |(k, p)| (*r, k, p)))
    }
}

impl StepFacts for ProvPlane {
    /// Advances the plane over the event `run` just pushed, from its diff,
    /// the current instance (for its no-op inserts) and the view plane's
    /// per-peer deltas of the same push.
    fn step(&mut self, run: &Run) {
        let spec = run.spec();
        let i = run.len() - 1;
        let (event, diff) = (run.event(i), run.diff(i));
        let noops = noop_inserts(spec, event, diff, || run.current());
        let changed = self.fold(spec, event, i as u32, diff, &noops);
        // Visibility first: removals, then upserts, mirroring
        // `ViewDelta::apply_to_view`.
        for (p, delta) in run.last_deltas() {
            let store = &mut self.views[p.index()];
            for (rel, k) in &delta.removals {
                if let Some(s) = store.get_mut(rel) {
                    s.remove(k);
                }
            }
            for (rel, t) in &delta.upserts {
                let prov = self
                    .global
                    .get(rel)
                    .and_then(|s| s.get(t.key()))
                    .cloned()
                    .unwrap_or_else(Provenance::one);
                store.entry(*rel).or_default().upsert(*t.key(), prov);
            }
            // Emptied-out relations drop their store entirely, keeping the
            // stepped map byte-identical to a from-scratch build (which
            // never materializes empty stores).
            store.retain(|_, s| !s.is_empty());
        }
        // A polynomial can change without any view delta (a no-op insert
        // adds an alternative; a modification may be invisible to a peer):
        // refresh every view store that already holds the key.
        for (rel, k) in &changed {
            let Some(prov) = self.global.get(rel).and_then(|s| s.get(k)).cloned() else {
                continue;
            };
            for store in &mut self.views {
                if let Some(s) = store.get_mut(rel) {
                    if s.get(k).is_some() {
                        s.upsert(*k, prov.clone());
                    }
                }
            }
        }
    }
}

/// The keys written by a diff: created, modified, and deleted.
fn written_keys(diff: &InstanceDiff) -> impl Iterator<Item = (RelId, Value)> + '_ {
    diff.created
        .iter()
        .map(|(r, t)| (*r, *t.key()))
        .chain(diff.modified.iter().map(|(r, k, _)| (*r, *k)))
        .chain(diff.deleted.iter().map(|(r, t)| (*r, *t.key())))
}

/// The no-op inserts of `event`, whose transition emitted `diff`: ground
/// inserts whose key appears in neither `created` nor `modified` of the
/// diff left the instance untouched. The flag records whether the padded
/// insert equals the stored tuple outright (the insert alone determines the
/// fact's full content), which gates the alternative derivation's
/// soundness; `post` yields the instance the event left, read only when
/// the event has a no-op insert.
fn noop_inserts<'a>(
    spec: &WorkflowSpec,
    event: &Event,
    diff: &InstanceDiff,
    post: impl FnOnce() -> &'a Instance,
) -> Vec<(RelId, Value, bool)> {
    let schema = spec.collab().schema();
    let unwritten: Vec<_> = event
        .ground_updates(spec)
        .into_iter()
        .filter_map(|upd| {
            let GroundUpdate::Insert { rel, view_tuple } = upd else {
                return None;
            };
            let k = *view_tuple.key();
            let written = diff.created.iter().any(|(r, t)| *r == rel && *t.key() == k)
                || diff.modified.iter().any(|(r, mk, _)| *r == rel && *mk == k);
            if written {
                return None;
            }
            let vr = spec
                .collab()
                .view(event.peer, rel)
                .expect("validated events only update visible relations");
            Some((rel, k, vr.pad(&view_tuple, schema.relation(rel).arity())))
        })
        .collect();
    if unwritten.is_empty() {
        return Vec::new();
    }
    let post = post();
    unwritten
        .into_iter()
        .map(|(rel, k, padded)| {
            let stored = post
                .rel(rel)
                .get(&k)
                .expect("no-op insert implies presence");
            (rel, k, padded == *stored)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Bindings;
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    /// q sees everything, p sees only OK; C1 is derivable two ways.
    fn spec() -> Arc<WorkflowSpec> {
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

    fn assert_same(a: &ProvPlane, b: &ProvPlane, spec: &WorkflowSpec) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.dep(i), b.dep(i), "D(e_{i})");
        }
        let ga: Vec<_> = a.global_iter().collect();
        let gb: Vec<_> = b.global_iter().collect();
        assert_eq!(ga, gb, "global polynomials");
        for p in spec.collab().peer_ids() {
            let va: Vec<_> = a.peer_iter(p).collect();
            let vb: Vec<_> = b.peer_iter(p).collect();
            assert_eq!(va, vb, "peer {p:?} polynomials");
        }
    }

    #[test]
    fn noop_insert_records_alternative_derivation() {
        let spec = spec();
        let mut run = Run::new(Arc::clone(&spec));
        for name in ["a1", "b1", "a2", "b2", "ok"] {
            run.push(ground(&spec, name)).unwrap();
        }
        let c1 = spec.collab().schema().rel("C1").unwrap();
        let ok = spec.collab().schema().rel("OK").unwrap();
        let pp = run.provenance();
        // b2 (index 3) re-derived C1(0) without touching the instance: the
        // polynomial gains the independent witness {a2, b2}.
        let c = pp.global[&c1].get(&Value::int(0)).unwrap();
        assert_eq!(
            c.monomials(),
            &[Mono::new(vec![0, 1]), Mono::new(vec![2, 3])]
        );
        // ok multiplies the alternatives through.
        let o = pp.global[&ok].get(&Value::int(0)).unwrap();
        assert_eq!(
            o.monomials(),
            &[Mono::new(vec![0, 1, 4]), Mono::new(vec![2, 3, 4])]
        );
    }

    #[test]
    fn every_monomial_replays_and_rederives_the_fact() {
        let spec = spec();
        let mut run = Run::new(Arc::clone(&spec));
        for name in ["a1", "b1", "a2", "b2", "ok"] {
            run.push(ground(&spec, name)).unwrap();
        }
        let ok = spec.collab().schema().rel("OK").unwrap();
        let prov = run.provenance().global[&ok]
            .get(&Value::int(0))
            .unwrap()
            .clone();
        let want = run.current().rel(ok).get(&Value::int(0)).unwrap().clone();
        assert!(prov.monomials().len() >= 2);
        for m in prov.monomials() {
            let idx: Vec<usize> = m.events().iter().map(|&e| e as usize).collect();
            let sub = run.try_subrun(&idx).expect("witness set must replay");
            assert_eq!(
                sub.current().rel(ok).get(&Value::int(0)),
                Some(&want),
                "witness {m} must re-derive the fact"
            );
        }
    }

    #[test]
    fn incremental_step_matches_from_scratch_build_at_every_prefix() {
        let spec = spec();
        let mut run = Run::new(Arc::clone(&spec));
        run.provenance();
        for name in ["a1", "b1", "a2", "b2", "ok"] {
            run.push(ground(&spec, name)).unwrap();
            let rebuilt = ProvPlane::build(&run);
            assert_same(run.provenance(), &rebuilt, &spec);
        }
    }

    #[test]
    fn explain_respects_visibility() {
        let spec = spec();
        let mut run = Run::new(Arc::clone(&spec));
        for name in ["a1", "b1", "ok"] {
            run.push(ground(&spec, name)).unwrap();
        }
        let p = spec.collab().peer("p").unwrap();
        let q = spec.collab().peer("q").unwrap();
        let c1 = spec.collab().schema().rel("C1").unwrap();
        let ok = spec.collab().schema().rel("OK").unwrap();
        // p does not see C1 at all, but sees (and can explain) OK.
        assert!(run.explain_fact(p, c1, &Value::int(0)).is_none());
        let o = run.explain_fact(p, ok, &Value::int(0)).unwrap();
        assert_eq!(o.monomials(), &[Mono::new(vec![0, 1, 2])]);
        assert_eq!(run.fact_support(p, ok, &Value::int(0)), Some(vec![0, 1, 2]));
        // q sees the intermediate facts too.
        assert!(run.explain_fact(q, c1, &Value::int(0)).is_some());
    }
}
