//! # cwf-model — the data model of collaborative workflows
//!
//! Substrate crate implementing Section 2 of *Explanations and Transparency
//! in Collaborative Workflows* (Abiteboul, Bourhis, Vianu; PODS 2018): keyed
//! relational schemas over an infinite domain with `⊥`, valid instances, the
//! key chase `chase_K`, selection conditions with a complete satisfiability
//! solver, and collaborative schemas with selection-projection peer views and
//! the losslessness check.
//!
//! Everything downstream (rules, runs, scenarios, transparency analysis)
//! builds on these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chase;
pub mod condition;
pub mod diff;
pub mod error;
pub mod govern;
pub mod instance;
pub mod intern;
pub mod prov;
pub mod schema;
pub mod solver;
pub mod store;
pub mod tuple;
pub mod value;
pub mod views;

pub use chase::{chase, chase_with, naive_chase, ChaseFailure};
pub use condition::{Atom, Condition};
pub use diff::{AttrChange, InstanceDiff};
pub use error::ModelError;
pub use govern::{
    Bound, CancelToken, FirstHit, Governor, Pool, Reason, SharedMin, Verdict, DEFAULT_CHUNK,
};
pub use instance::{Instance, RawInstance, Relation};
pub use intern::Istr;
pub use prov::{Mono, ProvStore, Provenance, MAX_MONOMIALS};
pub use schema::{AttrId, PeerId, RelId, RelSchema, Schema, KEY};
pub use store::RelStore;
pub use tuple::Tuple;
pub use value::{FreshGen, Value};
pub use views::{CollabSchema, ViewInstance, ViewRel};
