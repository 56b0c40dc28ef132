//! # collab-workflows
//!
//! A Rust implementation of *Explanations and Transparency in Collaborative
//! Workflows* (Serge Abiteboul, Pierre Bourhis, Victor Vianu; PODS 2018).
//!
//! Peers collaborate over a shared keyed database through
//! selection-projection views, updating it with datalog-style rules. This
//! crate bundles:
//!
//! * [`model`] — schemas, instances, the key chase, views (Section 2);
//! * [`lang`] — the rule language, validation, normal form, parser;
//! * [`engine`] — events, transitions, runs, run views, simulation, and
//!   the fault-tolerant deployment: one admission path, the state plane,
//!   whose shards=1 configuration is the paper's master server and whose
//!   N-shard configuration partitions the same run by key (per-shard
//!   write-ahead logs, crash recovery, unreliable-delivery retry/resync,
//!   HLC-stamped oplogs, standby failover, hand-off, resharding, fault
//!   injection, and one seeded chaos simulator);
//! * [`core`] — scenarios and the unique minimal faithful scenario
//!   (Sections 3–4): the *explanation* machinery;
//! * [`analysis`] — h-boundedness, transparency, view-program synthesis
//!   with provenance (Section 5);
//! * [`design`] — design guidelines, p-acyclicity, TF programs, and the
//!   transparency-enforcement engine (Section 6);
//! * [`workloads`] — the paper's examples, the hardness reductions, and
//!   larger realistic workflows.
//!
//! ## Quickstart
//!
//! ```
//! use collab_workflows::prelude::*;
//! use std::sync::Arc;
//!
//! let spec = Arc::new(parse_workflow(r#"
//!     schema { Task(K); Done(K); }
//!     peers { alice sees Task(*), Done(*); bob sees Task(*), Done(*); }
//!     rules {
//!         create @ alice: +Task(t) :- ;
//!         finish @ bob: +Done(d) :- Task(t);
//!     }
//! "#).unwrap());
//! let mut run = Run::new(Arc::clone(&spec));
//! let t = run.draw_fresh();
//! let create = spec.program().rule_by_name("create").unwrap();
//! let mut b = Bindings::empty(1);
//! b.set(VarId(0), t);
//! run.push(Event::new(&spec, create, b).unwrap()).unwrap();
//! let alice = spec.collab().peer("alice").unwrap();
//! let explanation = explain(&run, alice);
//! assert_eq!(explanation.events.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub use cwf_analysis as analysis;
pub use cwf_core as core;
pub use cwf_design as design;
pub use cwf_engine as engine;
pub use cwf_lang as lang;
pub use cwf_model as model;
pub use cwf_workloads as workloads;

/// One-stop imports for typical use.
pub mod prelude {
    pub use cwf_analysis::{
        check_h_bounded, check_transparent, find_bound, mirror_run, synthesize_view_program,
        Decision, Limits,
    };
    pub use cwf_core::{
        exists_scenario_at_most, explain, is_scenario, minimal_faithful_scenario,
        one_minimal_scenario, search_min_scenario, why, EventSet, Explanation, RunIndex,
        SearchOptions,
    };
    pub use cwf_design::{
        add_stage_discipline, check_guidelines, check_tf, is_p_acyclic, EnforcementMode,
        PushOutcome, TransparentEngine,
    };
    pub use cwf_engine::{
        encode_run, load_run, Bindings, CoordinatorError, DeliveryConfig, Event, FaultPlan,
        FaultyTransport, FileBackend, IoFaultBackend, MemBackend, PerfectTransport, Run, RunStats,
        ShardId, ShardPlane, ShardPlaneConfig, Simulator, SyncPolicy, Wal, WalOptions,
    };
    pub use cwf_lang::{
        lint, parse_workflow, print_workflow, Program, RuleBuilder, VarId, WorkflowSpec,
    };
    pub use cwf_model::{
        Bound, CancelToken, CollabSchema, Condition, Governor, Instance, Mono, PeerId, Provenance,
        Reason, RelId, RelSchema, Schema, Tuple, Value, Verdict, ViewRel,
    };
}
