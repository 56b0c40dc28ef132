//! p-stages of a run (Section 6, used by run-level transparency).
//!
//! For a run `ρ` and peer `p`, consider a maximal segment `e.α.e′` of
//! consecutive events in which only `e` and `e′` are visible at `p`; then
//! `α.e′` is a *p-stage*. The segment before the first visible event is the
//! initial stage. A trailing segment with no visible event is an *open*
//! stage (it has produced no observation yet).
//!
//! The *minimum p-faithful subrun* of a stage is the `T_p`-closure of its
//! final (visible) event within the stage, viewed as a run on the stage's
//! pre-instance — the object whose length h-boundedness restricts and whose
//! transplantability transparency requires (Definitions 5.8 and 6.4).

use cwf_core::{facts, tp_closure, EventSet};
use cwf_engine::Run;
use cwf_model::PeerId;

/// One p-stage of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Position of the first event of `α.e′` in the run.
    pub start: usize,
    /// Position of the visible closing event `e′`; `None` for a trailing
    /// open stage.
    pub visible: Option<usize>,
    /// Exclusive end: `visible + 1` or the run length for an open stage.
    pub end: usize,
}

impl Stage {
    /// Number of events in the stage.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is the stage empty (two consecutive visible events)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is this a closed stage (ends with a visible event)?
    pub fn is_closed(&self) -> bool {
        self.visible.is_some()
    }
}

/// Decomposes a run into its p-stages, in order. Every event belongs to
/// exactly one stage; closed stages end with their only visible event.
pub fn stages(run: &Run, peer: PeerId) -> Vec<Stage> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in facts(run).visible(peer).iter() {
        out.push(Stage {
            start,
            visible: Some(i),
            end: i + 1,
        });
        start = i + 1;
    }
    if start < run.len() {
        out.push(Stage {
            start,
            visible: None,
            end: run.len(),
        });
    }
    out
}

/// The minimum p-faithful subrun of a closed stage, replayed as a run on the
/// stage's pre-instance. Returns the stage-relative positions (offsets from
/// `stage.start`) and the replayed run.
pub fn minimum_faithful_of_stage(
    run: &Run,
    peer: PeerId,
    stage: &Stage,
) -> Option<(Vec<usize>, Run)> {
    let visible = stage.visible?;
    // Replay the stage as its own run on the pre-instance (always succeeds:
    // these are the original consecutive events).
    let stage_run = Run::replay(
        run.spec_arc(),
        run.pre_instance(stage.start).clone(),
        (stage.start..stage.end).map(|i| run.event(i).clone()),
    )
    .expect("consecutive events of a run replay verbatim");
    let seed = EventSet::from_iter(stage_run.len(), [visible - stage.start]);
    let closure = tp_closure(&stage_run, facts(&stage_run).index(), peer, &seed);
    let offsets: Vec<usize> = closure.iter().collect();
    let sub = stage_run
        .try_subrun(&offsets)
        .expect("Lemma 4.6: faithful closures replay");
    Some((offsets, sub))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    fn run() -> Run {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { A(K); B(K); Out(K); Junk(K); }
                peers { q sees A(*), B(*), Out(*), Junk(*); p sees Out(*); }
                rules {
                    a @ q: +A(0) :- ;
                    b @ q: +B(0) :- A(0);
                    junk @ q: +Junk(0) :- ;
                    out @ q: +Out(0) :- B(0);
                    out2 @ q: +Out(1) :- Out(0);
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        for n in ["a", "junk", "b", "out", "out2"] {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        run
    }

    #[test]
    fn stage_decomposition() {
        let run = run();
        let p = run.spec().collab().peer("p").unwrap();
        let ss = stages(&run, p);
        // Events: a(0) junk(1) b(2) silent; out(3) visible; out2(4) visible.
        assert_eq!(
            ss,
            vec![
                Stage {
                    start: 0,
                    visible: Some(3),
                    end: 4
                },
                Stage {
                    start: 4,
                    visible: Some(4),
                    end: 5
                },
            ]
        );
        assert_eq!(ss[0].len(), 4);
        assert!(!ss[0].is_empty());
        assert!(ss[0].is_closed());
    }

    #[test]
    fn open_trailing_stage() {
        let run = run();
        let p = run.spec().collab().peer("p").unwrap();
        // Truncate to the first three (silent) events via replay.
        let prefix = Run::replay(
            run.spec_arc(),
            run.initial().clone(),
            run.events()[..3].iter().cloned(),
        )
        .unwrap();
        let ss = stages(&prefix, p);
        assert_eq!(
            ss,
            vec![Stage {
                start: 0,
                visible: None,
                end: 3
            }]
        );
        assert!(!ss[0].is_closed());
        assert!(minimum_faithful_of_stage(&prefix, p, &ss[0]).is_none());
    }

    #[test]
    fn minimum_faithful_subrun_drops_junk() {
        let run = run();
        let p = run.spec().collab().peer("p").unwrap();
        let ss = stages(&run, p);
        let (offsets, sub) = minimum_faithful_of_stage(&run, p, &ss[0]).unwrap();
        // a(0), b(2), out(3) — junk(1) is irrelevant.
        assert_eq!(offsets, vec![0, 2, 3]);
        assert_eq!(sub.len(), 3);
        // The second stage is the single visible event.
        let (offsets2, _) = minimum_faithful_of_stage(&run, p, &ss[1]).unwrap();
        assert_eq!(offsets2, vec![0]);
    }

    #[test]
    fn full_observer_has_singleton_stages() {
        let run = run();
        let q = run.spec().collab().peer("q").unwrap();
        let ss = stages(&run, q);
        assert_eq!(ss.len(), run.len());
        assert!(ss.iter().all(|s| s.len() == 1 && s.is_closed()));
    }
}
