//! # cwf-core — explanations of collaborative workflow runs
//!
//! The paper's primary contribution (Sections 3–4 of *Explanations and
//! Transparency in Collaborative Workflows*, Abiteboul–Bourhis–Vianu,
//! PODS 2018):
//!
//! * **Scenarios** (Def. 3.2): subruns observationally equivalent for a
//!   peer; exact minimum-scenario search (NP-complete, Thm 3.3), greedy
//!   1-minimal extraction, exact minimality testing (coNP-complete,
//!   Thm 3.4).
//! * **Faithfulness** (Defs. 4.3–4.5): lifecycle/boundary/modification
//!   machinery, the `T_p` operator, and the **unique minimal p-faithful
//!   scenario computable in polynomial time** (Thm 4.7), handed out as one
//!   [`Explanation`] with its visibility marks and why-chains.
//! * **Semiring structure** (Thm 4.8): closure of faithful subsequences
//!   under union and intersection.
//! * **Incremental maintenance** of each peer's minimal faithful scenario:
//!   the run's facts ([`facts`]) are stepped by every push (Lemma A.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cone;
pub mod explain;
pub mod facts;
pub mod faithful;
pub mod index;
pub mod minimal;
pub mod minimum;
pub mod scenario;
pub mod semiring;
pub mod set;
pub mod tp;

pub use cone::peer_cone;
pub use explain::{minimal_faithful_scenario, Explanation, Justification, Obligation, WhyStep};
pub use facts::{facts, Facts, Observation, RunFacts};
pub use faithful::{is_faithful, is_modification_faithful, is_tp_fixpoint, relevant_attrs};
pub use index::{Lifecycle, Modification, RunIndex};
pub use minimal::{
    all_minimal_scenarios, all_minimal_scenarios_pooled, all_minimal_scenarios_unpruned,
    is_minimal_exact, is_one_minimal, one_minimal_scenario,
};
pub use minimum::{
    exists_scenario_at_most, exists_scenario_at_most_pooled, search_min_scenario,
    search_min_scenario_pooled, SearchOptions,
};
pub use scenario::{is_scenario, is_subrun, subrun, visible_set};
pub use semiring::Faithful;
pub use set::EventSet;
pub use tp::tp_closure;
