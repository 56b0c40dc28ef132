//! # cwf-lang — the rule language of collaborative workflows
//!
//! Substrate crate implementing the workflow-program syntax of Section 2:
//! FCQ¬ bodies (positive/negative literals, `Key` views, (dis)equalities),
//! update heads (insertions/deletions), per-peer rules, validation (safety,
//! view arities, the distinct-update condition), the normal form of
//! Proposition 2.3, and a concrete syntax with parser and pretty-printer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lint;
pub mod normal_form;
pub mod parser;
pub mod spec;

pub use ast::{Literal, Program, Rule, RuleBuilder, RuleId, Term, UpdateAtom, VarId};
pub use error::{LangError, Pos};
pub use lint::{lint, Lint};
pub use normal_form::{is_normal_form, normalize, NormalForm};
pub use parser::{parse_workflow, print_workflow};
pub use spec::WorkflowSpec;
