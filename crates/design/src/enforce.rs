//! Enforcing transparency and h-boundedness (Theorem 6.7, Corollary 6.8).
//!
//! The paper rewrites a TF program `P` into `Pᵗ` by shadowing every relation
//! `R` with `Rᵗ` — per-attribute transparency bits `tA`, a transparent-
//! deletion bit `dK`, and `h` step-provenance columns — at the cost of
//! exponentially many rules. [`TransparentEngine`] realizes the *semantics*
//! of that construction as an instrumented runtime instead (the substitution
//! is documented in DESIGN.md): it tracks exactly the information the `Rᵗ`
//! relations would hold and **blocks** any event that would make a p-visible
//! update depend on non-transparent facts or on more than `h` steps of the
//! current stage. Because the shadow state lives inside the engine, the
//! projection `Π` of Theorem 6.7 is the identity here, and the accepted
//! runs are exactly the transparent, h-bounded runs of `P`
//! (`Π(Runs(Pᵗ)) = tRuns_{p,h}(P)`) — tested against the Definition 6.4
//! checkers in [`crate::runs`].
//!
//! A schema-level rendering of the paper's `Rᵗ` layout is provided by
//! [`enrich_schema`] for exposition and for tooling that wants to
//! materialize the shadow state.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cwf_engine::{peer_delta, Applied, EngineError, Event, GroundUpdate, Run};
use cwf_lang::{Literal, WorkflowSpec};
use cwf_model::{AttrId, PeerId, RelId, RelSchema, Schema, Value};

/// What the engine does when an event would violate the discipline
/// (Remark 6.9: blocking is one choice; alerting or rolling back the stage
/// are the others).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnforcementMode {
    /// Refuse the event; the run is unchanged (the paper's `Pᵗ` semantics).
    #[default]
    Block,
    /// Apply the event anyway but record an [`Alert`] — useful when the
    /// deployment wants visibility without stopping the business process.
    /// Accepted runs may then fall outside `tRuns_{p,h}`.
    Alert,
    /// Roll the run back to the beginning of the current stage (the last
    /// p-visible state) and refuse the event: the silent work that led to
    /// the violation is discarded wholesale.
    Rollback,
}

/// A recorded violation in [`EnforcementMode::Alert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Position (in the accepted run) of the offending event.
    pub at: usize,
    /// Whether the violation was a provenance overflow (h-boundedness)
    /// rather than a transparency violation.
    pub provenance_overflow: bool,
}

/// Outcome of offering an event to the enforcement engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushOutcome {
    /// The event was applied; `transparent` tells whether it was a
    /// transparent event (non-transparent events may only touch invisible
    /// relations).
    Applied {
        /// Was the event transparent?
        transparent: bool,
    },
    /// The event was *blocked*: it would perform a p-visible update based on
    /// non-transparent information (Remark 6.9: the computation may block).
    BlockedNonTransparent,
    /// The event was blocked: its step provenance would exceed `h`
    /// (h-boundedness enforcement).
    BlockedProvenance,
    /// Rollback mode: the stage's silent events were discarded and the
    /// event refused. `undone` counts the discarded events.
    RolledBack {
        /// Number of silent events removed from the run.
        undone: usize,
    },
    /// Alert mode: the event was applied despite the violation; an
    /// [`Alert`] was recorded.
    AppliedWithAlert,
}

impl PushOutcome {
    /// Was the event applied?
    pub fn applied(&self) -> bool {
        matches!(self, PushOutcome::Applied { .. })
    }
}

/// Shadow metadata of one `(R, key)` object — the contents of the paper's
/// `Rᵗ` tuple.
#[derive(Debug, Clone, Default)]
struct FactMeta {
    /// Stage in which the current incarnation was created.
    created_stage: u64,
    /// Was the creating event transparent?
    created_transparent: bool,
    /// Per attribute: (written transparently?, stage of the write) — the
    /// `tA` bits.
    attr_writes: BTreeMap<AttrId, (bool, u64)>,
    /// Step-provenance of the fact (union over attributes — a conservative
    /// coarsening of the paper's per-attribute `Aˢᵢ` columns).
    steps: BTreeSet<u64>,
    /// Deletion record: (stage, transparent?) — the `dK` bit.
    deleted: Option<(u64, bool)>,
}

/// Statistics of an enforcement session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnforceStats {
    /// Events applied transparently.
    pub transparent: usize,
    /// Events applied opaquely (invisible updates only).
    pub opaque: usize,
    /// Events blocked for transparency.
    pub blocked_transparency: usize,
    /// Events blocked for provenance overflow (h-boundedness).
    pub blocked_provenance: usize,
}

/// The instrumented engine enforcing transparency and h-boundedness for one
/// peer (the runtime realization of `Pᵗ`).
#[derive(Debug, Clone)]
pub struct TransparentEngine {
    run: Run,
    peer: PeerId,
    h: usize,
    mode: EnforcementMode,
    meta: BTreeMap<(RelId, Value), FactMeta>,
    stage: u64,
    step: u64,
    stats: EnforceStats,
    alerts: Vec<Alert>,
    /// Index of the first event of the current stage (for rollback).
    stage_start: usize,
    /// Snapshot of the shadow state at the stage start (for rollback).
    stage_meta: BTreeMap<(RelId, Value), FactMeta>,
}

impl TransparentEngine {
    /// Starts enforcement over an empty run of `spec` for `peer` with bound
    /// `h`.
    pub fn new(spec: Arc<WorkflowSpec>, peer: PeerId, h: usize) -> Self {
        Self::with_mode(spec, peer, h, EnforcementMode::Block)
    }

    /// Starts enforcement with an explicit violation-handling mode
    /// (Remark 6.9).
    pub fn with_mode(
        spec: Arc<WorkflowSpec>,
        peer: PeerId,
        h: usize,
        mode: EnforcementMode,
    ) -> Self {
        TransparentEngine {
            run: Run::new(spec),
            peer,
            h,
            mode,
            meta: BTreeMap::new(),
            stage: 0,
            step: 0,
            stats: EnforceStats::default(),
            alerts: Vec::new(),
            stage_start: 0,
            stage_meta: BTreeMap::new(),
        }
    }

    /// The alerts recorded so far (only populated in
    /// [`EnforcementMode::Alert`]).
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The accepted run so far (a plain run of the original program).
    pub fn run(&self) -> &Run {
        &self.run
    }

    /// Finishes, returning the accepted run.
    pub fn into_run(self) -> Run {
        self.run
    }

    /// Session statistics.
    pub fn stats(&self) -> EnforceStats {
        self.stats
    }

    /// The observing peer.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// Offers an event. `Err` means the event is not applicable at all (as
    /// in a plain run); `Ok(Blocked…)` means it is applicable but filtered
    /// out by the transparency/boundedness discipline — the run is left
    /// unchanged either way.
    pub fn push(&mut self, event: Event) -> Result<PushOutcome, EngineError> {
        let spec = self.run.spec_arc();
        // Decide exactly as the run will, without committing: the event is
        // visible when p owns it or p's view delta is non-empty.
        let applied = self.run.check(&event)?;
        let visible = event.peer == self.peer
            || !peer_delta(spec.collab(), self.peer, &applied.diff, &applied.instance).is_empty();
        // Classify the event. The step budget: the event itself is one more
        // step; exceeding it is a provenance overflow.
        let (facts_transparent, steps) = self.classify(&spec, &event);
        let overflow = steps.len() + 1 > self.h;
        let transparent = facts_transparent && !overflow;
        let touches_visible = event
            .ground_updates(&spec)
            .iter()
            .any(|u| spec.collab().sees(self.peer, u.rel()));
        if !transparent && (touches_visible || visible) {
            // A non-transparent event may not modify what p sees. The step
            // cap is to blame only when every body fact was transparent.
            let overflow = overflow && facts_transparent;
            match self.mode {
                EnforcementMode::Block => {
                    if overflow {
                        self.stats.blocked_provenance += 1;
                        return Ok(PushOutcome::BlockedProvenance);
                    }
                    self.stats.blocked_transparency += 1;
                    return Ok(PushOutcome::BlockedNonTransparent);
                }
                EnforcementMode::Rollback => {
                    let undone = self.rollback_stage();
                    if overflow {
                        self.stats.blocked_provenance += 1;
                    } else {
                        self.stats.blocked_transparency += 1;
                    }
                    return Ok(PushOutcome::RolledBack { undone });
                }
                EnforcementMode::Alert => {
                    self.alerts.push(Alert {
                        at: self.run.len(),
                        provenance_overflow: overflow,
                    });
                    self.apply_accepted(&spec, event, &applied, visible, transparent, steps);
                    return Ok(PushOutcome::AppliedWithAlert);
                }
            }
        }
        // Accept.
        self.apply_accepted(&spec, event, &applied, visible, transparent, steps);
        Ok(PushOutcome::Applied { transparent })
    }

    /// Applies an accepted (or alert-mode) event, whose checked successor
    /// is `applied`, and updates the shadow state. `steps` is the body
    /// provenance (without the current step).
    fn apply_accepted(
        &mut self,
        spec: &Arc<WorkflowSpec>,
        event: Event,
        applied: &Applied,
        visible: bool,
        transparent: bool,
        steps: BTreeSet<u64>,
    ) {
        self.step += 1;
        let current_steps: BTreeSet<u64> = {
            let mut s = steps;
            s.insert(self.step);
            s
        };
        for upd in event.ground_updates(spec) {
            match upd {
                GroundUpdate::Insert { rel, view_tuple } => {
                    let key = *view_tuple.key();
                    let existed = self.run.current().rel(rel).contains_key(&key);
                    let entry = self.meta.entry((rel, key));
                    let post_tuple = applied
                        .instance
                        .rel(rel)
                        .get(&key)
                        .cloned()
                        .expect("insert leaves the tuple present");
                    let m = entry.or_default();
                    if !existed || m.deleted.is_some() {
                        // (Re)creation — note (C3′) forbids re-creation of
                        // invisible keys, but visible ones may recur.
                        *m = FactMeta {
                            created_stage: self.stage,
                            created_transparent: transparent,
                            attr_writes: BTreeMap::new(),
                            steps: BTreeSet::new(),
                            deleted: None,
                        };
                    }
                    // Record attribute writes: every attribute that is
                    // non-⊥ now but had no recorded write.
                    for (a, v) in post_tuple.entries() {
                        if !v.is_null() && !m.attr_writes.contains_key(&a) {
                            m.attr_writes.insert(a, (transparent, self.stage));
                        }
                    }
                    m.steps.extend(current_steps.iter().copied());
                }
                GroundUpdate::Delete { rel, key } => {
                    let m = self.meta.entry((rel, key)).or_default();
                    m.deleted = Some((self.stage, transparent));
                    m.steps.extend(current_steps.iter().copied());
                }
            }
        }
        self.run
            .push(event)
            .expect("checked above: the event applies");
        if transparent {
            self.stats.transparent += 1;
        } else {
            self.stats.opaque += 1;
        }
        if visible {
            // A p-visible event closes the stage: everything derived so far
            // becomes stale for transparency purposes. Snapshot the shadow
            // state so Rollback mode can restore it.
            self.stage += 1;
            self.stage_start = self.run.len();
            self.stage_meta = self.meta.clone();
        }
    }

    /// Rollback mode: discards the current stage's silent events, restoring
    /// the last p-visible state (and the matching shadow state). Returns the
    /// number of discarded events.
    fn rollback_stage(&mut self) -> usize {
        let keep = self.stage_start;
        let undone = self.run.len() - keep;
        if undone == 0 {
            return 0;
        }
        let spec = self.run.spec_arc();
        let events: Vec<Event> = self.run.events()[..keep].to_vec();
        self.run = Run::replay(spec, self.run.initial().clone(), events)
            .expect("a prefix of a valid run replays");
        self.meta = self.stage_meta.clone();
        undone
    }

    /// Classifies an event: is every body fact transparently available, and
    /// what is the union of their step provenances? Returns
    /// `(transparent, steps)`; the `|H| ≤ h` cap is the caller's.
    fn classify(&self, spec: &WorkflowSpec, event: &Event) -> (bool, BTreeSet<u64>) {
        let mut steps = BTreeSet::new();
        let mut all_transparent = true;
        let rule = spec.program().rule(event.rule);
        for lit in &rule.body {
            match lit {
                Literal::Pos { rel, args } => {
                    if spec.collab().sees(self.peer, *rel) {
                        continue; // p-visible facts are transparent, no steps
                    }
                    let key = event.valuation.resolve(&args[0]).expect("valuation total");
                    match self.meta.get(&(*rel, key)) {
                        Some(m)
                            if m.deleted.is_none()
                                && m.created_stage == self.stage
                                && m.created_transparent
                                && m.attr_writes.values().all(|(t, s)| *t && *s == self.stage) =>
                        {
                            steps.extend(m.steps.iter().copied());
                        }
                        // Pre-existing (initial-instance) facts have no
                        // meta: they are stale information.
                        _ => all_transparent = false,
                    }
                }
                Literal::KeyPos { rel, key } => {
                    if spec.collab().sees(self.peer, *rel) {
                        continue;
                    }
                    let k = event.valuation.resolve(key).expect("valuation total");
                    match self.meta.get(&(*rel, k)) {
                        Some(m)
                            if m.deleted.is_none()
                                && m.created_stage == self.stage
                                && m.created_transparent =>
                        {
                            steps.extend(m.steps.iter().copied());
                        }
                        _ => all_transparent = false,
                    }
                }
                Literal::Neg { rel, args } => {
                    if spec.collab().sees(self.peer, *rel) {
                        continue;
                    }
                    let key = event.valuation.resolve(&args[0]).expect("valuation total");
                    if !self.negative_transparent(*rel, &key, &mut steps) {
                        all_transparent = false;
                    }
                }
                Literal::KeyNeg { rel, key } => {
                    if spec.collab().sees(self.peer, *rel) {
                        continue;
                    }
                    let k = event.valuation.resolve(key).expect("valuation total");
                    if !self.negative_transparent(*rel, &k, &mut steps) {
                        all_transparent = false;
                    }
                }
                Literal::Eq(..) | Literal::Neq(..) => {}
            }
        }
        (all_transparent, steps)
    }

    /// Is the *absence* of `(rel, key)` transparent? — never existed, or
    /// transparently created and deleted within the current stage.
    fn negative_transparent(&self, rel: RelId, key: &Value, steps: &mut BTreeSet<u64>) -> bool {
        match self.meta.get(&(rel, *key)) {
            None => true, // never existed: nothing hidden happened to it
            Some(m) => match m.deleted {
                Some((stage, transparent))
                    if transparent
                        && stage == self.stage
                        && m.created_transparent
                        && m.created_stage == self.stage =>
                {
                    steps.extend(m.steps.iter().copied());
                    true
                }
                _ => false,
            },
        }
    }
}

/// Renders the paper's `Rᵗ` schema layout (Section 6's program
/// construction): per relation `R`, a relation `Rt` with `tA` bits per
/// attribute, a `dK` bit, and `h` step-provenance columns per attribute.
pub fn enrich_schema(schema: &Schema, h: usize) -> Schema {
    let mut out = Schema::new();
    for r in schema.rel_ids() {
        let rs = schema.relation(r);
        out.add_relation(rs.clone()).expect("names unique");
    }
    for r in schema.rel_ids() {
        let rs = schema.relation(r);
        let mut attrs: Vec<String> = vec!["K".to_string()];
        for a in rs.attrs() {
            attrs.push(format!("t{a}"));
        }
        attrs.push("dK".to_string());
        for a in rs.attrs() {
            for i in 1..=h {
                attrs.push(format!("{a}s{i}"));
            }
        }
        out.add_relation(RelSchema::new(format!("{}t", rs.name()), attrs).expect("valid"))
            .expect("suffixed names unique");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::{in_t_runs, is_run_h_bounded, run_transparency_violation};
    use cwf_engine::Bindings;
    use cwf_lang::parse_workflow;

    fn hiring() -> Arc<WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { Cleared(K); Approved(K); Hire(K); }
                peers {
                    hr sees Cleared(*), Approved(*), Hire(*);
                    ceo sees Cleared(*), Approved(*), Hire(*);
                    sue sees Cleared(*), Hire(*);
                }
                rules {
                    clear @ hr: +Cleared(x) :- ;
                    approve @ ceo: +Approved(x) :- Cleared(x), not key Approved(x);
                    hire @ hr: +Hire(x) :- Approved(x), not key Hire(x);
                }
                "#,
            )
            .unwrap(),
        )
    }

    fn ev(spec: &WorkflowSpec, name: &str, vals: &[Value]) -> Event {
        let rid = spec.program().rule_by_name(name).unwrap();
        let mut b = Bindings::empty(vals.len());
        for (i, v) in vals.iter().enumerate() {
            b.set(cwf_lang::VarId(i as u32), *v);
        }
        Event::new(spec, rid, b).unwrap()
    }

    #[test]
    fn same_stage_chain_is_accepted() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let mut eng = TransparentEngine::new(Arc::clone(&spec), sue, 2);
        let x = Value::Fresh(100);
        assert!(eng
            .push(ev(&spec, "clear", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        assert!(eng
            .push(ev(&spec, "approve", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        assert!(eng
            .push(ev(&spec, "hire", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        assert_eq!(eng.stats().blocked_transparency, 0);
        assert_eq!(eng.run().len(), 3);
    }

    #[test]
    fn stale_approval_is_blocked() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let mut eng = TransparentEngine::new(Arc::clone(&spec), sue, 3);
        let x = Value::Fresh(100);
        let y = Value::Fresh(200);
        assert!(eng
            .push(ev(&spec, "clear", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        assert!(eng
            .push(ev(&spec, "approve", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        // A sue-visible event ends the stage: the Approved fact goes stale.
        assert!(eng
            .push(ev(&spec, "clear", std::slice::from_ref(&y)))
            .unwrap()
            .applied());
        // Hiring x now relies on a previous-stage fact: blocked.
        assert_eq!(
            eng.push(ev(&spec, "hire", std::slice::from_ref(&x)))
                .unwrap(),
            PushOutcome::BlockedNonTransparent
        );
        assert_eq!(eng.run().len(), 3, "blocked event not recorded");
        assert_eq!(eng.stats().blocked_transparency, 1);
        // Re-approving within this stage unblocks (¬Key Approved(x)? it
        // still exists — approve is guarded, so it cannot re-fire; instead
        // hire stays blocked, which is exactly the filtering semantics).
        assert_eq!(
            eng.push(ev(&spec, "hire", &[x])).unwrap(),
            PushOutcome::BlockedNonTransparent
        );
    }

    #[test]
    fn accepted_runs_are_in_t_runs() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let mut eng = TransparentEngine::new(Arc::clone(&spec), sue, 2);
        let x = Value::Fresh(100);
        let y = Value::Fresh(200);
        for (name, v) in [
            ("clear", &x),
            ("approve", &x),
            ("hire", &x),
            ("clear", &y),
            ("approve", &y),
            ("hire", &y),
        ] {
            assert!(eng
                .push(ev(&spec, name, std::slice::from_ref(v)))
                .unwrap()
                .applied());
        }
        let run = eng.into_run();
        // Definition 6.4 membership against the run's own p-fresh instances.
        let candidates = crate::runs::p_fresh_candidates(&run, sue);
        assert!(is_run_h_bounded(&run, sue, 2));
        assert!(run_transparency_violation(&run, sue, &candidates).is_none());
        assert!(in_t_runs(&run, sue, 2, &candidates));
    }

    #[test]
    fn provenance_overflow_blocks_long_chains() {
        // A chain program with h = 2 but chains of relevant length 3.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { A(K); B(K); Out(K); }
                peers { q sees A(*), B(*), Out(*); p sees Out(*); }
                rules {
                    s1 @ q: +A(0) :- ;
                    s2 @ q: +B(0) :- A(0);
                    s3 @ q: +Out(0) :- B(0);
                }
                "#,
            )
            .unwrap(),
        );
        let p = spec.collab().peer("p").unwrap();
        let mut eng = TransparentEngine::new(Arc::clone(&spec), p, 2);
        assert!(eng.push(ev(&spec, "s1", &[])).unwrap().applied());
        assert!(eng.push(ev(&spec, "s2", &[])).unwrap().applied());
        // s3 would need steps {s1, s2, s3}: 3 > 2 ⇒ blocked for provenance.
        assert_eq!(
            eng.push(ev(&spec, "s3", &[])).unwrap(),
            PushOutcome::BlockedProvenance
        );
        // With h = 3 the same chain passes.
        let mut eng3 = TransparentEngine::new(Arc::clone(&spec), p, 3);
        for n in ["s1", "s2", "s3"] {
            assert!(eng3.push(ev(&spec, n, &[])).unwrap().applied());
        }
        assert!(is_run_h_bounded(eng3.run(), p, 3));
    }

    #[test]
    fn opaque_side_computation_is_allowed() {
        // Events touching only invisible relations proceed even when
        // non-transparent (stale facts): transparency constrains only what
        // p sees.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { Sc(K); T(K); Out(K); }
                peers { q sees Sc(*), T(*), Out(*); p sees Out(*); }
                rules {
                    mk @ q: +Sc(0) :- ;
                    vis @ q: +Out(0) :- ;
                    opaque @ q: +T(0) :- Sc(0);
                }
                "#,
            )
            .unwrap(),
        );
        let p = spec.collab().peer("p").unwrap();
        let mut eng = TransparentEngine::new(Arc::clone(&spec), p, 1);
        assert!(eng.push(ev(&spec, "mk", &[])).unwrap().applied()); // stage 0
        assert!(eng.push(ev(&spec, "vis", &[])).unwrap().applied()); // stage ends
                                                                     // Sc(0) is now stale, but `opaque` only writes invisible T: allowed
                                                                     // as a non-transparent event.
        let out = eng.push(ev(&spec, "opaque", &[])).unwrap();
        assert_eq!(out, PushOutcome::Applied { transparent: false });
        assert_eq!(eng.stats().opaque, 1);
    }

    #[test]
    fn inapplicable_events_are_errors_not_blocks() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let mut eng = TransparentEngine::new(Arc::clone(&spec), sue, 2);
        let x = Value::Fresh(100);
        assert!(eng.push(ev(&spec, "hire", &[x])).is_err());
    }

    #[test]
    fn alert_mode_applies_and_records() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let mut eng =
            TransparentEngine::with_mode(Arc::clone(&spec), sue, 3, EnforcementMode::Alert);
        let x = Value::Fresh(100);
        let y = Value::Fresh(200);
        assert!(eng
            .push(ev(&spec, "clear", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        assert!(eng
            .push(ev(&spec, "approve", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        assert!(eng
            .push(ev(&spec, "clear", std::slice::from_ref(&y)))
            .unwrap()
            .applied());
        // The stale hire goes through, with an alert.
        assert_eq!(
            eng.push(ev(&spec, "hire", std::slice::from_ref(&x)))
                .unwrap(),
            PushOutcome::AppliedWithAlert
        );
        assert_eq!(eng.run().len(), 4);
        assert_eq!(eng.alerts().len(), 1);
        assert_eq!(eng.alerts()[0].at, 3);
        assert!(!eng.alerts()[0].provenance_overflow);
    }

    #[test]
    fn rollback_mode_discards_the_stage() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let mut eng =
            TransparentEngine::with_mode(Arc::clone(&spec), sue, 3, EnforcementMode::Rollback);
        let x = Value::Fresh(100);
        let y = Value::Fresh(200);
        assert!(eng
            .push(ev(&spec, "clear", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        assert!(eng
            .push(ev(&spec, "approve", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        assert!(eng
            .push(ev(&spec, "clear", std::slice::from_ref(&y)))
            .unwrap()
            .applied());
        // Silent work in the new stage, then a violating hire with the old
        // approval: the stage (the approve-for-y below) is discarded.
        assert!(eng
            .push(ev(&spec, "approve", std::slice::from_ref(&y)))
            .unwrap()
            .applied());
        let before = eng.run().len();
        assert_eq!(before, 4);
        assert_eq!(
            eng.push(ev(&spec, "hire", std::slice::from_ref(&x)))
                .unwrap(),
            PushOutcome::RolledBack { undone: 1 }
        );
        // The approve-for-y was undone; the run ends at the last visible
        // event (clear(y)).
        assert_eq!(eng.run().len(), 3);
        let approved = spec.collab().schema().rel("Approved").unwrap();
        assert!(!eng.run().current().rel(approved).contains_key(&y));
        // The engine remains usable: redo the approval and hire y cleanly.
        assert!(eng
            .push(ev(&spec, "approve", std::slice::from_ref(&y)))
            .unwrap()
            .applied());
        assert!(eng.push(ev(&spec, "hire", &[y])).unwrap().applied());
    }

    #[test]
    fn rollback_with_empty_stage_undoes_nothing() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let mut eng =
            TransparentEngine::with_mode(Arc::clone(&spec), sue, 3, EnforcementMode::Rollback);
        let x = Value::Fresh(100);
        assert!(eng
            .push(ev(&spec, "clear", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        assert!(eng
            .push(ev(&spec, "approve", std::slice::from_ref(&x)))
            .unwrap()
            .applied());
        assert!(eng
            .push(ev(&spec, "clear", &[Value::Fresh(200)]))
            .unwrap()
            .applied());
        // Immediately violating hire: the current stage has no silent events.
        assert_eq!(
            eng.push(ev(&spec, "hire", &[x])).unwrap(),
            PushOutcome::RolledBack { undone: 0 }
        );
        assert_eq!(eng.run().len(), 3);
    }

    /// Two head-only variables bound to one value are not globally fresh.
    /// The engine rejects the event in every mode with the error the run
    /// and its scratch state give, and changes nothing.
    #[test]
    fn repeated_fresh_value_is_rejected_in_every_mode() {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { A(K, B); }
                peers { p sees A(*); }
                rules { mk @ p: +A(x, y) :- ; }
                "#,
            )
            .unwrap(),
        );
        let p = spec.collab().peer("p").unwrap();
        let first = ev(&spec, "mk", &[Value::Fresh(1), Value::Fresh(2)]);
        let nu = Value::Fresh(7);
        let twice = ev(&spec, "mk", &[nu, nu]);
        let expected = Err(EngineError::NotGloballyFresh { value: nu });
        let mut run = Run::new(Arc::clone(&spec));
        run.push(first.clone()).unwrap();
        assert_eq!(run.check(&twice).map(|_| ()), expected);
        assert_eq!(
            cwf_engine::ScratchRun::restart_of(&run).try_push(&twice),
            expected
        );
        assert_eq!(run.push(twice.clone()), expected);
        for mode in [
            EnforcementMode::Block,
            EnforcementMode::Alert,
            EnforcementMode::Rollback,
        ] {
            let mut eng = TransparentEngine::with_mode(Arc::clone(&spec), p, 2, mode);
            assert!(eng.push(first.clone()).unwrap().applied());
            let stats = eng.stats();
            assert_eq!(
                eng.push(twice.clone()),
                Err(EngineError::NotGloballyFresh { value: nu })
            );
            assert_eq!(eng.run().len(), 1, "{mode:?}");
            assert_eq!(eng.stats(), stats, "{mode:?}");
            assert!(eng.alerts().is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn enriched_schema_has_shadow_relations() {
        let spec = hiring();
        let schema = spec.collab().schema();
        let enriched = enrich_schema(schema, 2);
        assert_eq!(enriched.len(), schema.len() * 2);
        let shadow = enriched.rel("Clearedt").expect("shadow relation");
        let rs = enriched.relation(shadow);
        // K, tK, dK, Ks1, Ks2 for the unary Cleared.
        assert_eq!(rs.arity(), 5);
        assert!(rs.attr("dK").is_some());
        assert!(rs.attr("Ks2").is_some());
    }
}
