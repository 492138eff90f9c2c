//! # troll-data — abstract data types for TROLL specifications
//!
//! This crate provides the *data dimension* of the TROLL object
//! specification language (Saake, Jungclaus, Ehrich 1991): the abstract
//! data types over which object attributes, event parameters and object
//! identities range.
//!
//! The paper treats data values as given by "an arbitrary abstract data
//! type" (Section 3, object identities; Section 4, `data types date,
//! PERSON, set(PERSON)`). This crate makes that precise and executable:
//!
//! * [`Sort`] — the type language: base sorts (`bool`, `int`, `nat`,
//!   `string`, `date`, `money`), identity sorts `|C|` for each object
//!   class `C`, and the parameterized constructors `set(_)`, `list(_)`,
//!   `map(_,_)`, `tuple(...)` and `optional(_)` used throughout the paper
//!   (e.g. `set(tuple(ename:string, ebirth:date, esalary:integer))` in the
//!   `emp_rel` example of Section 5.2).
//! * [`Value`] — the value universe, with total ordering so values can be
//!   members of sets and keys of maps.
//! * [`Op`] — the built-in operations (`insert`, `remove`, `in`,
//!   arithmetic, comparisons, …) referenced by valuation rules.
//! * [`Term`] — the core term IR that valuation rules, permissions,
//!   constraints and derivation rules are lowered to, evaluated against an
//!   [`Env`].
//! * [`algebra`] — the object query algebra of \[SJ90\] used in interface
//!   definitions and derivation rules (`select`, `project`, `join`,
//!   aggregates), operating on sets of tuples.
//!
//! # Example
//!
//! ```
//! use troll_data::{Value, Term, Op, MapEnv};
//!
//! // employees = insert(P, employees)   — the DEPT valuation rule
//! let term = Term::apply(
//!     Op::Insert,
//!     vec![Term::var("P"), Term::var("employees")],
//! );
//! let mut env = MapEnv::new();
//! env.bind("P", Value::from("alice"));
//! env.bind("employees", Value::set_of(vec![Value::from("bob")]));
//! let out = term.eval(&env)?;
//! assert_eq!(out, Value::set_of(vec![Value::from("alice"), Value::from("bob")]));
//! # Ok::<(), troll_data::DataError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
mod avl;
mod date;
mod error;
mod money;
mod ops;
mod pcoll;
mod sort;
mod statemap;
mod term;
mod value;

pub use date::Date;
pub use error::DataError;
pub use money::Money;
pub use ops::Op;
pub use pcoll::{PList, PMap, PSet};
pub use sort::{Sort, TupleField};
pub use statemap::StateMap;
pub use term::{Env, Layered, MapEnv, Quantifier, Term};
pub use value::{ObjectId, Value};

/// Convenience result alias for fallible data operations.
pub type Result<T> = std::result::Result<T, DataError>;
