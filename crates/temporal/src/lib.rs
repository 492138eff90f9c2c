//! # troll-temporal — temporal logic over object histories
//!
//! TROLL permissions and dynamic constraints are temporal formulas over
//! the life cycle of an object (Saake, Jungclaus, Ehrich 1991, §4):
//!
//! ```text
//! permissions
//!   { sometime(after(hire(P))) } fire(P);
//!   { for all(P: PERSON : sometime(P in employees)
//!         ⇒ sometime(after(fire(P)))) } closure;
//! ```
//!
//! A permission `{ φ } e` states that event `e` may occur only in states
//! where the (past-directed) formula `φ` holds. This crate provides:
//!
//! * [`Trace`] / [`Step`] — object histories: a sequence of steps, each
//!   recording the events that occurred and the attribute state *after*
//!   they occurred.
//! * [`Formula`] — past-time temporal logic (`sometime`, `always`,
//!   `previous`, `since`, `after(event)`), state predicates
//!   ([`troll_data::Term`]s), rigid bounded quantification, plus the
//!   future-directed operators (`eventually`, `henceforth`) used for
//!   *liveness* obligations that are checked over completed traces.
//! * [`eval_at`] / [`eval_now`] — the reference evaluator (full history
//!   scan, handles the entire logic).
//! * [`Monitor`] — an incremental evaluator for the quantifier-free,
//!   past-only fragment: O(|φ|) per step instead of O(|trace|·|φ|) per
//!   query. This is the ablation pair of DESIGN.md decision 2.
//! * [`SlicedMonitor`] — the parametric extension: one monitor for a
//!   one-variable past formula (`fire(P)`'s permission, or a quantifier
//!   like `closure`'s) at every value of the variable, by trace slicing.
//! * [`CompiledFormula`] — the reference scan with every leaf term
//!   lowered to bytecode once: handles the entire logic (quantifiers
//!   and future operators included) and is observationally identical
//!   to [`eval_at`], so the runtime's unmonitorable-formula checks can
//!   dispatch through the VM instead of tree-walking per position.
//!
//! # Example
//!
//! ```
//! use troll_data::{Term, Value, MapEnv};
//! use troll_temporal::{Formula, EventPattern, Trace, Step, eval_now};
//!
//! // sometime(after(hire(P)))
//! let phi = Formula::sometime(Formula::after(
//!     EventPattern::new("hire", vec![Some(Term::var("P"))]),
//! ));
//! let mut trace = Trace::new();
//! trace.push(Step::new(
//!     vec![("hire", vec![Value::from("ada")]).into()],
//!     [("employees".to_string(), Value::set_of(vec![Value::from("ada")]))],
//! ));
//! let mut env = MapEnv::new();
//! env.bind("P", Value::from("ada"));
//! assert!(eval_now(&phi, &trace, &env)?);
//! env.bind("P", Value::from("bob"));
//! assert!(!eval_now(&phi, &trace, &env)?);
//! # Ok::<(), troll_temporal::TemporalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod eval;
mod formula;
mod monitor;
mod obs;
mod scan;
mod sliced;
mod trace;

pub use error::TemporalError;
pub use eval::{eval_at, eval_now, eval_now_appended, holds_throughout};
pub use formula::{EventPattern, Formula};
pub use monitor::{agree_on_trace, Monitor, MonitorSnapshot};
pub use scan::CompiledFormula;
pub use sliced::SlicedMonitor;
pub use trace::{EventOccurrence, Step, Trace};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, TemporalError>;
