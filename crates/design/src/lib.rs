//! # cwf-design — transparent workflow design and enforcement
//!
//! Section 6 of the paper: design guidelines (C1)–(C4) giving transparency
//! and h-boundedness by construction (Theorem 6.2), boundedness via
//! p-acyclicity with the `(ab+1)^d` bound (Theorem 6.3), transparency-form
//! (TF) programs (Definition 6.5), run-level transparency / h-boundedness
//! and run projections (Definitions 6.4/6.6), and the enforcement engine
//! realizing `Pᵗ` (Theorem 6.7, Corollary 6.8) by filtering out runs that
//! violate either property.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enforce;
pub mod guidelines;
pub mod pgraph;
pub mod runs;
pub mod stage_transform;
pub mod tf;

pub use enforce::{
    enrich_schema, Alert, EnforceStats, EnforcementMode, PushOutcome, TransparentEngine,
};
pub use guidelines::{check_guidelines, Classification, GuidelineViolation};
pub use pgraph::{acyclicity_bound, is_p_acyclic, p_graph, thm_6_3_applies, PGraph};
pub use runs::{in_t_runs, p_fresh_candidates, RunTransparencyViolation};
pub use stage_transform::{add_stage_discipline, StageTransformError, Staged};
pub use tf::{check_tf, TfViolation};
