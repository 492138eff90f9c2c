//! # troll-runtime — the object base: executing TROLL specifications
//!
//! The paper's conceptual model is declarative; this crate makes it run.
//! An [`ObjectBase`] holds the instances of an analyzed specification
//! ([`troll_lang::SystemModel`]) and executes events with the full TROLL
//! semantics:
//!
//! * **synchronous event calling** (§4): occurrences are closed under
//!   local interaction rules, global interactions and phase/role event
//!   aliases before anything is applied — "to call an event means to
//!   force synchronous occurrence of the called event";
//! * **transaction calling** (§4, §5.2): a rule `e >> (e1; e2)` executes
//!   the called sequence atomically within the step, threading the
//!   object's state from `e1` to `e2`;
//! * **permissions**: temporal preconditions are evaluated over each
//!   object's recorded history ([`troll_temporal`]);
//! * **valuation**: attribute updates are computed from the pre-state
//!   (guarded rules supported) and applied atomically;
//! * **constraints**: static/initially/dynamic constraints are checked
//!   on the post-state; any violation rolls the entire step back;
//! * **phases and roles** (§4): a `view of` class whose birth aliases a
//!   base update event (MANAGER: `birth PERSON.become_manager`) is
//!   entered automatically when that event occurs, with its own
//!   attribute state and constraints;
//! * **life cycles**: birth events create instances, death events end
//!   them; events on dead or unborn objects are rejected;
//! * **active events**: [`ObjectBase::tick`] fires permitted
//!   self-initiated events (system-clock style objects);
//! * **interfaces** (§5.1): projection, derived, selection and join
//!   views are evaluated identity-preservingly over the current object
//!   base, and view events (including derived events like
//!   `IncreaseSalary >> ChangeSalary(Salary * 1.1)`) forward to base
//!   objects.
//!
//! # Example
//!
//! ```
//! use troll_data::Value;
//! use troll_runtime::ObjectBase;
//!
//! let spec = troll_lang::parse(r#"
//! object class DEPT
//!   identification id: string;
//!   template
//!     attributes employees: set(|PERSON|);
//!     events
//!       birth establishment;
//!       hire(|PERSON|);
//!       fire(|PERSON|);
//!       death closure;
//!     valuation
//!       variables P: |PERSON|;
//!       [establishment] employees = {};
//!       [hire(P)] employees = insert(P, employees);
//!       [fire(P)] employees = remove(P, employees);
//!     permissions
//!       variables P: |PERSON|;
//!       { sometime(after(hire(P))) } fire(P);
//! end object class DEPT;
//! "#)?;
//! let model = troll_lang::analyze(&spec)?;
//! let mut ob = ObjectBase::new(model)?;
//!
//! let toys = ob.birth("DEPT", vec![Value::from("Toys")], "establishment", vec![])?;
//! let ada = Value::Id(troll_data::ObjectId::singleton("PERSON", Value::from("ada")));
//! ob.execute(&toys, "hire", vec![ada.clone()])?;
//! assert!(ob.execute(&toys, "fire", vec![ada]).is_ok());
//! // firing someone never hired is forbidden by the permission
//! let bob = Value::Id(troll_data::ObjectId::singleton("PERSON", Value::from("bob")));
//! assert!(ob.execute(&toys, "fire", vec![bob]).is_err());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
mod compiled;
mod env;
mod error;
mod instance;
mod monitor_cache;
mod persist;
pub mod script;
mod views;

pub use base::{ObjectBase, Occurrence, SharedModel, StepReport};
pub use error::RuntimeError;
pub use instance::Instance;
pub use monitor_cache::MonitorCacheStats;
pub use persist::{InstanceDump, RoleDump, StepSink};
pub use views::{JoinStrategy, ViewRow, ViewSet};

/// The engine configuration a [`SharedModel`] is compiled with (see
/// [`SharedModel::with_lowering`]).
pub use troll_vm::Lowering;

// Observability surface (see `troll_obs`): the runtime re-exports the
// pieces callers need to attach an observer or read metrics without
// depending on `troll-obs` directly.
pub use troll_obs::{
    CheckPath, HistogramSummary, Metrics, MetricsSnapshot, NoopObserver, ObsEvent, Observer,
    Recorder, TraceWriter,
};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;
