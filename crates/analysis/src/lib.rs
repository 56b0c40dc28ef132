//! # cwf-analysis — transparency, boundedness, and view-program synthesis
//!
//! Section 5 of the paper: the bounded decision procedures for
//! h-boundedness (Theorem 5.10) and transparency (Theorem 5.11), the
//! synthesis of view programs `P@p` with provenance-carrying ω-rules
//! (Theorem 5.13), and validators for their soundness and completeness.
//! Both decision problems are PSPACE-complete, so every procedure here is an
//! explicit bounded search charged against a [`cwf_model::Governor`] (node
//! budget, wall-clock deadline, cooperative cancellation, memory cap); the
//! `*_with` entry points accept an explicit governor, the plain ones build a
//! node-budget governor from [`Limits::max_nodes`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundedness;
pub mod space;
pub mod stage;
pub mod synthesis;
pub mod transparency;
pub mod tree;
pub mod view_program;

pub use boundedness::{
    check_h_bounded, check_h_bounded_pooled, find_bound, find_bound_pooled, BoundednessWitness,
    Decision,
};
pub use space::{InstanceEnumerator, Limits};
pub use stage::{minimum_faithful_of_stage, stages, Stage};
pub use synthesis::{synthesize_view_program, OmegaMeta, Synthesis, SynthesisError};
pub use transparency::{
    chain_fails_on, check_transparent, check_transparent_pooled, sample_transparency_violation,
    TransparencyWitness,
};
pub use tree::{sample_tree_divergence, TreeMismatch, MAX_FRESH};
pub use view_program::{
    expand_view_run, mirror_run, ExpandError, MatchedStep, MirrorError, MirroredStep,
};
