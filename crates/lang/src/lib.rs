//! # troll-lang — the TROLL specification language front-end
//!
//! A lexer, parser and static analyzer for (a normalized form of) the
//! TROLL language of Saake, Jungclaus, Ehrich 1991 and \[JHSS91\],
//! covering **every construct exercised by the paper**:
//!
//! * `object class` / `object` declarations with `identification`,
//!   `data types`, `attributes`, `events` (`birth` / `death` / `active`,
//!   `derived`), `components`, `valuation`, `permissions`,
//!   `constraints`, `derivation rules`, local `interactions`
//!   (event calling `>>`, including transaction calling
//!   `e >> (e1; e2)`), `view of` (specializations and phases) and
//!   `inheriting … as …`;
//! * `interface class` declarations with `encapsulating`,
//!   `selection where`, derived attributes/events, `derivation rules`
//!   and `calling` (projection, derived, selection and join views of
//!   §5.1);
//! * `global interactions` blocks
//!   (`DEPT(D).new_manager(P) >> PERSON(P).become_manager`);
//! * `module` declarations realizing the three-level schema architecture
//!   of §6.
//!
//! Expressions parse directly into [`troll_data::Term`], temporal
//! formulas into [`troll_temporal::Formula`]; the analyzer
//! ([`analyze`]) resolves names and sorts and produces a
//! [`SystemModel`] of lowered, executable class models (with
//! [`troll_kernel::Template`]s) that `troll-runtime` animates.
//!
//! ## Syntax normalizations relative to the paper
//!
//! The paper typesets TROLL with mathematical symbols and a few
//! inconsistencies between examples; we normalize (documented in
//! DESIGN.md): `⇒` is written `=>`, `≥` is `>=`, valuation rules always
//! bracket the event (`[hire(P)] employees = insert(P, employees);`),
//! tuple construction uses named fields, and block terminators are
//! uniform (`end object class DEPT;`).
//!
//! # Example
//!
//! ```
//! let src = r#"
//! object class COUNTER
//!   identification cid: string;
//!   template
//!     attributes value: int;
//!     events
//!       birth create;
//!       step(int);
//!       death discard;
//!     valuation
//!       variables n: int;
//!       [create] value = 0;
//!       [step(n)] value = value + n;
//! end object class COUNTER;
//! "#;
//! let spec = troll_lang::parse(src)?;
//! let model = troll_lang::analyze(&spec)?;
//! assert!(model.class("COUNTER").is_some());
//! # Ok::<(), troll_lang::LangError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod graph;
mod lexer;
mod literal;
mod lower;
mod model;
mod parser;
pub mod pretty;
mod token;

pub use lexer::lex;
pub use literal::{read_literal, read_literals};
pub use lower::analyze;
pub use model::{
    CallRule, ClassModel, ComponentModel, ConstraintKind, ConstraintModel, DerivationModel,
    EventModel, EventTarget, InterfaceModel, LoweredCall, ModuleModel, ParamAttrModel,
    PermissionModel, SystemModel, ValuationModel, ViewKind,
};
pub use parser::{parse, parse_formula, parse_term};
pub use token::{Token, TokenKind};

use std::fmt;

/// Error raised by lexing, parsing or analysis, with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl LangError {
    /// Creates an error at a position.
    pub fn new(line: usize, column: usize, message: impl Into<String>) -> Self {
        LangError {
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for LangError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, LangError>;
