//! Per-run index of the structures faithfulness is defined on:
//! key occurrences `K(R, e)`, object lifecycles, and attribute
//! modifications (Section 4).
//!
//! The index is built once per run from the recorded diffs (and extended
//! as events are appended), so neither it nor the `T_p` fixpoint and the
//! faithfulness checks ever read an instance.

use std::collections::{BTreeMap, BTreeSet};

use cwf_engine::Run;
use cwf_model::{AttrId, RelId, Value};

/// An `R`-lifecycle of a key: the interval from the event inserting a *new*
/// tuple with that key to the event deleting it (`end = None` for an open
/// lifecycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifecycle {
    /// Position of the left boundary event (the creating insertion).
    pub start: usize,
    /// Position of the right boundary event (the deletion), if closed.
    pub end: Option<usize>,
}

impl Lifecycle {
    /// Does the interval contain position `i`?
    pub fn contains(&self, i: usize) -> bool {
        i >= self.start && self.end.is_none_or(|e| i <= e)
    }

    /// Is the lifecycle closed?
    pub fn is_closed(&self) -> bool {
        self.end.is_some()
    }
}

/// A modification record: event `at` turned the listed attributes of the
/// existing tuple `(rel, key)` from `⊥` to a value (Definition 4.4's trigger).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Modification {
    /// The position of the modifying event.
    pub at: usize,
    /// The attributes turned from `⊥` to a non-`⊥` value.
    pub attrs: BTreeSet<AttrId>,
}

/// Index of one run's faithfulness-relevant structure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunIndex {
    /// Number of indexed events.
    len: usize,
    /// Per event: `K(R, e)` as relation → keys.
    key_occs: Vec<BTreeMap<RelId, BTreeSet<Value>>>,
    /// Per `(R, k)`: lifecycles in chronological order.
    lifecycles: BTreeMap<(RelId, Value), Vec<Lifecycle>>,
    /// Per `(R, k)`: modification events in chronological order.
    mods: BTreeMap<(RelId, Value), Vec<Modification>>,
}

impl RunIndex {
    /// Builds the index of a run.
    pub fn build(run: &Run) -> Self {
        let mut idx = RunIndex::default();
        idx.extend(run);
        idx
    }

    /// Extends the index with the events of `run` beyond the already-indexed
    /// prefix, reading each event's recorded diff (never a past instance):
    /// a created tuple opens a lifecycle, a deleted one closes it, and the
    /// attributes of a surviving tuple that go from `⊥` to a value are a
    /// modification. Every update of one event targets a distinct
    /// (relation, key), so the diff holds exactly those changes.
    pub fn extend(&mut self, run: &Run) {
        let spec = run.spec();
        for i in self.len..run.len() {
            self.key_occs.push(run.event(i).key_occurrences(spec));
            let diff = run.diff(i);
            for (rel, t) in &diff.created {
                self.lifecycles
                    .entry((*rel, *t.key()))
                    .or_default()
                    .push(Lifecycle {
                        start: i,
                        end: None,
                    });
            }
            for (rel, t) in &diff.deleted {
                let last = self
                    .lifecycles
                    .get_mut(&(*rel, *t.key()))
                    .and_then(|lcs| lcs.last_mut());
                // A tuple of the initial instance has no lifecycle.
                if let Some(last) = last.filter(|lc| lc.end.is_none()) {
                    last.end = Some(i);
                }
            }
            for (rel, key, changes) in &diff.modified {
                let attrs: BTreeSet<AttrId> = changes
                    .iter()
                    .filter(|c| c.before.is_null() && !c.after.is_null())
                    .map(|c| c.attr)
                    .collect();
                if !attrs.is_empty() {
                    self.mods
                        .entry((*rel, *key))
                        .or_default()
                        .push(Modification { at: i, attrs });
                }
            }
            self.len += 1;
        }
    }

    /// Number of indexed events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `K(R, e_i)` for every `R`.
    pub fn key_occurrences(&self, i: usize) -> &BTreeMap<RelId, BTreeSet<Value>> {
        &self.key_occs[i]
    }

    /// All lifecycles of `(rel, key)`.
    pub fn lifecycles_of(&self, rel: RelId, key: &Value) -> &[Lifecycle] {
        self.lifecycles
            .get(&(rel, *key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The lifecycle of `(rel, key)` containing position `i`, if any.
    pub fn lifecycle_containing(&self, rel: RelId, key: &Value, i: usize) -> Option<Lifecycle> {
        self.lifecycles_of(rel, key)
            .iter()
            .find(|lc| lc.contains(i))
            .copied()
    }

    /// The modification events of `(rel, key)` (chronological).
    pub fn modifications_of(&self, rel: RelId, key: &Value) -> &[Modification] {
        self.mods
            .get(&(rel, *key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All `(rel, key)` pairs with at least one lifecycle.
    pub fn tracked_objects(&self) -> impl Iterator<Item = (&(RelId, Value), &Vec<Lifecycle>)> {
        self.lifecycles.iter()
    }

    /// All `(rel, key)` pairs with at least one modification.
    pub fn modified_objects(&self) -> impl Iterator<Item = (&(RelId, Value), &Vec<Modification>)> {
        self.mods.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    /// p and q split R(K, A, B): p sees (K, A), q sees (K, B). Keys and
    /// values come from pool relations seeded in the initial instance so the
    /// same key can live several lifecycles (head-only variables would be
    /// forced globally fresh).
    fn spec_and_run() -> Run {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { R(K, A, B); Pool(K); }
                peers {
                    p sees R(K, A), Pool(*);
                    q sees R(K, B), Pool(*);
                }
                rules {
                    p_ins @ p: +R(x, a) :- Pool(x), Pool(a);
                    q_ins @ q: +R(x, b) :- Pool(x), Pool(b);
                    p_del @ p: -key R(x) :- R(x, a);
                }
                "#,
            )
            .unwrap(),
        );
        let pool = spec.collab().schema().rel("Pool").unwrap();
        let mut init = cwf_model::Instance::empty(spec.collab().schema());
        for v in ["k", "a", "a2", "b"] {
            init.rel_mut(pool)
                .insert(cwf_model::Tuple::new([Value::str(v)]))
                .unwrap();
        }
        Run::with_initial(spec, init)
    }

    fn ev(run: &Run, name: &str, vals: &[Value]) -> Event {
        let spec = run.spec();
        let rid = spec.program().rule_by_name(name).unwrap();
        let mut b = Bindings::empty(vals.len());
        for (i, v) in vals.iter().enumerate() {
            b.set(cwf_lang::VarId(i as u32), *v);
        }
        Event::new(spec, rid, b).unwrap()
    }

    #[test]
    fn lifecycle_open_close_and_reopen() {
        let mut run = spec_and_run();
        let k = Value::str("k");
        let e0 = ev(&run, "p_ins", &[k, Value::str("a")]);
        run.push(e0).unwrap(); // opens
        let e1 = ev(&run, "p_del", &[k, Value::str("a")]);
        run.push(e1).unwrap(); // closes
        let e2 = ev(&run, "p_ins", &[k, Value::str("a2")]);
        run.push(e2).unwrap(); // reopens
        let idx = RunIndex::build(&run);
        let r = cwf_model::RelId(0);
        let lcs = idx.lifecycles_of(r, &k);
        assert_eq!(
            lcs,
            &[
                Lifecycle {
                    start: 0,
                    end: Some(1)
                },
                Lifecycle {
                    start: 2,
                    end: None
                }
            ]
        );
        assert_eq!(
            idx.lifecycle_containing(r, &k, 1),
            Some(Lifecycle {
                start: 0,
                end: Some(1)
            })
        );
        assert_eq!(
            idx.lifecycle_containing(r, &k, 5),
            Some(Lifecycle {
                start: 2,
                end: None
            })
        );
        assert!(lcs[0].is_closed());
        assert!(!lcs[1].is_closed());
        assert!(lcs[0].contains(0) && lcs[0].contains(1) && !lcs[0].contains(2));
    }

    #[test]
    fn modifications_record_null_to_value_flips() {
        let mut run = spec_and_run();
        let k = Value::str("k");
        run.push(ev(&run, "p_ins", &[k, Value::str("a")])).unwrap();
        // q fills B of the existing tuple: a modification of attribute B.
        run.push(ev(&run, "q_ins", &[k, Value::str("b")])).unwrap();
        let idx = RunIndex::build(&run);
        let r = cwf_model::RelId(0);
        let mods = idx.modifications_of(r, &k);
        assert_eq!(mods.len(), 1);
        assert_eq!(mods[0].at, 1);
        assert_eq!(mods[0].attrs, BTreeSet::from([AttrId(2)]), "attribute B");
        // The creating insert is not a modification.
        assert!(idx.modifications_of(r, &Value::str("zzz")).is_empty());
    }

    #[test]
    fn key_occurrences_exposed_per_event() {
        let mut run = spec_and_run();
        let k = Value::str("k");
        run.push(ev(&run, "p_ins", &[k, Value::str("a")])).unwrap();
        let idx = RunIndex::build(&run);
        let r = cwf_model::RelId(0);
        assert_eq!(idx.key_occurrences(0)[&r], BTreeSet::from([k]));
    }

    #[test]
    fn extend_is_incremental() {
        let mut run = spec_and_run();
        let k = Value::str("k");
        run.push(ev(&run, "p_ins", &[k, Value::str("a")])).unwrap();
        let mut idx = RunIndex::build(&run);
        assert_eq!(idx.len(), 1);
        run.push(ev(&run, "p_del", &[k, Value::str("a")])).unwrap();
        idx.extend(&run);
        assert_eq!(idx.len(), 2);
        let full = RunIndex::build(&run);
        let r = cwf_model::RelId(0);
        assert_eq!(idx.lifecycles_of(r, &k), full.lifecycles_of(r, &k));
        assert!(!idx.is_empty());
        assert_eq!(idx.tracked_objects().count(), 1);
    }
}
