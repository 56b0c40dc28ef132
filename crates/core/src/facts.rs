//! Read-only facts about a whole run, built once per run.
//!
//! The explanation queries are asked again and again of completed runs,
//! and each of them reads the same facts of the run: the faithfulness
//! index ([`RunIndex`]), the closed dependency sets `D(e_i)` the pruning
//! cone is a union of, the set of events visible at each peer, and the
//! relations each event's head updates. [`RunFacts`] keeps them in the
//! run's facts slot ([`Run::facts`]). Each part is built on its first read
//! and kept until the run's next push or pop, so a run queried again pays
//! for none of them, and a caller that reads one part builds only that
//! part.

use std::sync::OnceLock;

use cwf_engine::Run;
use cwf_model::{PeerId, RelId};

use crate::cone::build_closed_deps;
use crate::index::RunIndex;
use crate::set::EventSet;

/// The cached facts of one run, each part filled on first read through
/// [`facts`]. Two values are equal when the same parts are filled with the
/// same facts.
#[derive(Debug, PartialEq)]
pub struct RunFacts {
    index: OnceLock<RunIndex>,
    deps: OnceLock<Vec<EventSet>>,
    /// Per peer (by id): the positions of the events visible at it.
    visible: Vec<OnceLock<EventSet>>,
    /// Per event: the relations its head updates, sorted and distinct.
    heads: OnceLock<Vec<Vec<RelId>>>,
}

impl RunFacts {
    /// No part filled yet, sized for `run`'s peers.
    fn empty(run: &Run) -> Self {
        RunFacts {
            index: OnceLock::new(),
            deps: OnceLock::new(),
            visible: (0..run.spec().collab().peer_count())
                .map(|_| OnceLock::new())
                .collect(),
            heads: OnceLock::new(),
        }
    }

    /// Every part of the facts of `run`, built from scratch beside the
    /// run's slot (which it neither reads nor fills).
    pub fn build(run: &Run) -> Self {
        let fresh = RunFacts::empty(run);
        Facts { run, slot: &fresh }.filled();
        fresh
    }
}

/// The facts of `run`, read from (and filled into) its facts slot.
pub fn facts(run: &Run) -> Facts<'_> {
    Facts {
        run,
        slot: run.facts(RunFacts::empty),
    }
}

/// A run together with its [`RunFacts`]: each accessor returns the cached
/// part, building it on first read.
#[derive(Clone, Copy)]
pub struct Facts<'a> {
    run: &'a Run,
    slot: &'a RunFacts,
}

impl<'a> Facts<'a> {
    /// The run's faithfulness index.
    pub fn index(self) -> &'a RunIndex {
        self.slot.index.get_or_init(|| RunIndex::build(self.run))
    }

    /// The closed dependency sets `D(e_i)` of every event (see
    /// [`crate::cone::closed_deps`]).
    pub fn closed_deps(self) -> &'a [EventSet] {
        self.slot.deps.get_or_init(|| build_closed_deps(self.run))
    }

    /// The positions of the events visible at `peer`.
    pub fn visible(self, peer: PeerId) -> &'a EventSet {
        self.slot.visible[peer.index()]
            .get_or_init(|| EventSet::from_iter(self.run.len(), self.run.visible_events(peer)))
    }

    /// The relations the head of event `i` updates, sorted and distinct.
    pub fn heads(self, i: usize) -> &'a [RelId] {
        &self.all_heads()[i]
    }

    fn all_heads(self) -> &'a [Vec<RelId>] {
        self.slot.heads.get_or_init(|| {
            let spec = self.run.spec();
            let rels = |event: &cwf_engine::Event| {
                let mut rels: Vec<RelId> =
                    event.ground_updates(spec).iter().map(|u| u.rel()).collect();
                rels.sort_unstable();
                rels.dedup();
                rels
            };
            self.run.events().iter().map(rels).collect()
        })
    }

    /// Fills every part and returns the cached facts.
    pub fn filled(self) -> &'a RunFacts {
        self.index();
        self.closed_deps();
        for peer in self.run.spec().collab().peer_ids() {
            self.visible(peer);
        }
        self.all_heads();
        self.slot
    }
}
