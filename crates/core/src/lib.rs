//! # troll — executable object-oriented specification and stepwise
//! refinement
//!
//! A complete, executable reproduction of
//!
//! > Gunter Saake, Ralf Jungclaus, Hans-Dieter Ehrich.
//! > *Object-Oriented Specification and Stepwise Refinement* (1991).
//!
//! This facade crate ties the substrates together into one pipeline:
//!
//! ```text
//! TROLL source ──parse──▶ AST ──analyze──▶ SystemModel ──▶ ObjectBase (animate)
//!                                              │                │
//!                                              ├──▶ Community / InheritanceSchema (object model)
//!                                              ├──▶ Module / GuardedBase (schema architecture)
//!                                              └──▶ check_refinement (stepwise refinement)
//! ```
//!
//! The individual layers are re-exported as modules:
//!
//! * [`data`] — abstract data types, terms, query algebra;
//! * [`temporal`] — temporal logic over object histories;
//! * [`process`] — templates as processes, simulation, event sharing;
//! * [`kernel`] — templates, aspects, morphisms, inheritance schemas,
//!   object communities;
//! * [`lang`] — the TROLL language front-end;
//! * [`runtime`] — the object base / animator;
//! * [`serve`] — the multi-world animation server (`troll serve`);
//! * [`repl`] — log-shipping replication: follower replay of a serve
//!   primary's durable log (`troll follow`);
//! * [`refine`] — refinement checking and the three-level schema
//!   architecture;
//! * [`obs`] — zero-dependency tracing & metrics (attach an observer
//!   with [`runtime::ObjectBase::set_observer`], read counters via
//!   [`runtime::ObjectBase::metrics`]).
//!
//! # Quickstart
//!
//! ```
//! use troll::System;
//! use troll::data::Value;
//!
//! let system = System::load_str(troll::specs::DEPT)?;
//! let mut ob = system.object_base()?;
//!
//! let d = troll::data::Date::new(1991, 10, 16)?;
//! let toys = ob.birth("DEPT", vec![Value::from("Toys")],
//!                     "establishment", vec![Value::Date(d)])?;
//! let ada = Value::Id(troll::data::ObjectId::new(
//!     "PERSON", vec![Value::from("ada")]));
//! ob.execute(&toys, "hire", vec![ada.clone()])?;
//! ob.execute(&toys, "fire", vec![ada])?;
//! ob.execute(&toys, "closure", vec![])?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use troll_runtime::script;

pub use troll_data as data;
pub use troll_kernel as kernel;
pub use troll_lang as lang;
pub use troll_obs as obs;
pub use troll_process as process;
pub use troll_refine as refine;
pub use troll_repl as repl;
pub use troll_runtime as runtime;
pub use troll_serve as serve;
pub use troll_store as store;
pub use troll_temporal as temporal;

use std::fmt;
use std::path::Path;

/// The specification corpus shipped with the library: every worked
/// example of the paper as a TROLL source, used by the examples and the
/// integration tests.
pub mod specs {
    /// §4 — the `DEPT` object class (quickstart; experiment E3).
    pub const DEPT: &str = include_str!("../../../specs/dept.troll");
    /// §4 — PERSON/MANAGER phase, DEPT, TheCompany, global interactions
    /// (experiments E3–E5).
    pub const COMPANY: &str = include_str!("../../../specs/company.troll");
    /// §5.2 — EMPLOYEE / emp_rel / EMPL_IMPL / EMPL (experiment E7).
    pub const EMPLOYMENT: &str = include_str!("../../../specs/employment.troll");
    /// §5.1 — the four interface classes (experiment E6).
    pub const VIEWS: &str = include_str!("../../../specs/views.troll");
    /// §6 — module declarations for the three-level architecture
    /// (experiment E8).
    pub const MODULES: &str = include_str!("../../../specs/modules.troll");
    /// An original library-domain system exercising the full feature
    /// set (permissions, phases, obligations, join views, modules).
    pub const LIBRARY: &str = include_str!("../../../specs/library.troll");
    /// §6.1 — the shared system clock with time-triggered activities.
    pub const CLOCK: &str = include_str!("../../../specs/clock.troll");

    /// Every shipped spec with its name, for corpus-wide tests (E9).
    pub const ALL: &[(&str, &str)] = &[
        ("dept", DEPT),
        ("company", COMPANY),
        ("employment", EMPLOYMENT),
        ("views", VIEWS),
        ("modules", MODULES),
        ("library", LIBRARY),
        ("clock", CLOCK),
    ];
}

/// Top-level error: any failure along the pipeline.
#[derive(Debug)]
pub enum TrollError {
    /// Lexing/parsing/analysis failure.
    Lang(lang::LangError),
    /// Execution failure.
    Runtime(runtime::RuntimeError),
    /// Refinement/module failure.
    Refine(refine::RefineError),
    /// Object-model failure.
    Kernel(kernel::KernelError),
    /// File system failure.
    Io(std::io::Error),
}

impl fmt::Display for TrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrollError::Lang(e) => write!(f, "language error: {e}"),
            TrollError::Runtime(e) => write!(f, "runtime error: {e}"),
            TrollError::Refine(e) => write!(f, "refinement error: {e}"),
            TrollError::Kernel(e) => write!(f, "object model error: {e}"),
            TrollError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for TrollError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrollError::Lang(e) => Some(e),
            TrollError::Runtime(e) => Some(e),
            TrollError::Refine(e) => Some(e),
            TrollError::Kernel(e) => Some(e),
            TrollError::Io(e) => Some(e),
        }
    }
}

impl From<lang::LangError> for TrollError {
    fn from(e: lang::LangError) -> Self {
        TrollError::Lang(e)
    }
}

impl From<runtime::RuntimeError> for TrollError {
    fn from(e: runtime::RuntimeError) -> Self {
        TrollError::Runtime(e)
    }
}

impl From<refine::RefineError> for TrollError {
    fn from(e: refine::RefineError) -> Self {
        TrollError::Refine(e)
    }
}

impl From<kernel::KernelError> for TrollError {
    fn from(e: kernel::KernelError) -> Self {
        TrollError::Kernel(e)
    }
}

impl From<std::io::Error> for TrollError {
    fn from(e: std::io::Error) -> Self {
        TrollError::Io(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, TrollError>;

/// A loaded, analyzed TROLL system: the entry point of the pipeline.
#[derive(Debug, Clone)]
pub struct System {
    model: lang::SystemModel,
}

impl System {
    /// Parses and analyzes TROLL source text.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or analysis error.
    pub fn load_str(source: &str) -> Result<Self> {
        let spec = lang::parse(source)?;
        let model = lang::analyze(&spec)?;
        Ok(System { model })
    }

    /// Reads, parses and analyzes a `.troll` file.
    ///
    /// # Errors
    ///
    /// I/O errors plus everything [`System::load_str`] reports.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self> {
        let source = std::fs::read_to_string(path)?;
        Self::load_str(&source)
    }

    /// The analyzed model.
    pub fn model(&self) -> &lang::SystemModel {
        &self.model
    }

    /// Creates a fresh object base ready to animate this system.
    ///
    /// # Errors
    ///
    /// Propagates object-base construction failures.
    pub fn object_base(&self) -> Result<runtime::ObjectBase> {
        Ok(runtime::ObjectBase::new(self.model.clone())?)
    }

    /// Builds the module system from the specification's `module`
    /// declarations.
    pub fn modules(&self) -> refine::ModuleSystem {
        let mut sys = refine::ModuleSystem::new();
        for m in self.model.modules.values() {
            sys.add(refine::Module::from_model(m));
        }
        sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_shipped_specs_load() {
        for (name, src) in specs::ALL {
            let system = System::load_str(src)
                .unwrap_or_else(|e| panic!("spec `{name}` failed to load: {e}"));
            assert!(
                !system.model().classes.is_empty(),
                "spec `{name}` has no classes"
            );
        }
    }

    #[test]
    fn load_file_round_trip() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/dept.troll");
        let system = System::load_file(dir).unwrap();
        assert!(system.model().class("DEPT").is_some());
        assert!(matches!(
            System::load_file("/nonexistent/path.troll").unwrap_err(),
            TrollError::Io(_)
        ));
    }

    #[test]
    fn error_conversions_and_display() {
        let e: TrollError = lang::LangError::new(1, 2, "boom").into();
        assert!(e.to_string().contains("language error"));
        let e: TrollError = runtime::RuntimeError::UnknownClass("X".into()).into();
        assert!(e.to_string().contains("runtime error"));
        let e: TrollError = refine::RefineError::UnknownModule("M".into()).into();
        assert!(e.to_string().contains("refinement error"));
        let e: TrollError = kernel::KernelError::UnknownTemplate("T".into()).into();
        assert!(e.to_string().contains("object model error"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn modules_from_spec() {
        let system = System::load_str(specs::MODULES).unwrap();
        let sys = system.modules();
        assert!(sys.module("PERSONNEL").is_some());
        assert!(sys.module("PAYROLL").is_some());
        assert!(sys.validate(system.model()).is_empty());
    }

    #[test]
    fn bad_source_reports_lang_error() {
        assert!(matches!(
            System::load_str("object class Broken").unwrap_err(),
            TrollError::Lang(_)
        ));
    }

    /// Adds template `child` specializing `parent` to `schema`.
    fn specialize(schema: &mut kernel::InheritanceSchema, child: String, parent: String) {
        let morphism = kernel::TemplateMorphism::identity_on(format!("m_{child}"), &child, parent);
        schema
            .add_specialization(kernel::Template::named(child), morphism)
            .unwrap();
    }

    /// A linear chain `t0 ← t1 ← … ← t9`: the deepest template's
    /// ancestor closure holds every other one.
    #[test]
    fn chain_schema_builds() {
        let mut schema = kernel::InheritanceSchema::new();
        schema.add_template(kernel::Template::named("t0")).unwrap();
        for i in 1..10 {
            specialize(&mut schema, format!("t{i}"), format!("t{}", i - 1));
        }
        assert_eq!(schema.len(), 10);
        assert_eq!(schema.ancestors("t9").len(), 9);
    }

    /// A binary specialization tree of depth 3 (Example 3.2's shape,
    /// scaled): node `n` specializes into `2n` and `2n + 1`.
    #[test]
    fn tree_schema_builds() {
        let mut schema = kernel::InheritanceSchema::new();
        schema.add_template(kernel::Template::named("n1")).unwrap();
        for child in 2..16 {
            specialize(&mut schema, format!("n{child}"), format!("n{}", child / 2));
        }
        assert_eq!(schema.len(), 1 + 2 + 4 + 8);
        assert_eq!(schema.ancestors("n15").len(), 3);
    }

    fn person(key: &str) -> data::Value {
        data::Value::Id(data::ObjectId::new("PERSON", vec![data::Value::from(key)]))
    }

    /// Three departments with five hires each.
    #[test]
    fn dept_base_builds() {
        let mut ob = System::load_str(specs::DEPT)
            .unwrap()
            .object_base()
            .unwrap();
        let date = data::Value::Date(data::Date::new(1991, 10, 16).unwrap());
        let mut depts = Vec::new();
        for d in 0..3 {
            let id = ob
                .birth(
                    "DEPT",
                    vec![data::Value::from(format!("d{d}"))],
                    "establishment",
                    vec![date.clone()],
                )
                .unwrap();
            for p in 0..5 {
                ob.execute(&id, "hire", vec![person(&format!("p{p}"))])
                    .unwrap();
            }
            depts.push(id);
        }
        assert_eq!(ob.class_card("DEPT"), 3);
        let employees = ob.attribute(&depts[0], "employees").unwrap();
        assert_eq!(employees.as_set().unwrap().len(), 5);
    }

    /// Nine persons and a department employing every third one: the
    /// `WORKS_FOR` view has one row per employment.
    #[test]
    fn views_base_builds() {
        let mut ob = System::load_str(specs::VIEWS)
            .unwrap()
            .object_base()
            .unwrap();
        for i in 0..9 {
            let dept = if i % 2 == 0 { "Research" } else { "Sales" };
            let salary = data::Value::Money(data::Money::from_major(1000 + i));
            ob.birth(
                "PERSON",
                vec![data::Value::from(format!("p{i}"))],
                "create",
                vec![salary, data::Value::from(dept)],
            )
            .unwrap();
        }
        let research = ob
            .birth(
                "DEPT",
                vec![data::Value::from("R")],
                "establishment",
                vec![],
            )
            .unwrap();
        for i in (0..9).step_by(3) {
            ob.execute(&research, "hire", vec![person(&format!("p{i}"))])
                .unwrap();
        }
        assert_eq!(ob.class_card("PERSON"), 9);
        assert_eq!(ob.view("WORKS_FOR").unwrap().len(), 3);
    }

    /// A source of four generated DEPT-like classes loads as four classes.
    #[test]
    fn synthetic_spec_parses() {
        let source: String = (0..4)
            .map(|i| {
                format!(
                    "object class DEPT{i}
  identification id: string;
  template
    attributes employees: set(|PERSON|);
    events birth establishment; hire(|PERSON|); fire(|PERSON|);
    valuation
      variables P: |PERSON|;
      [establishment] employees = {{}};
      [hire(P)] employees = insert(P, employees);
      [fire(P)] employees = remove(P, employees);
    permissions
      variables P: |PERSON|;
      {{ sometime(after(hire(P))) }} fire(P);
end object class DEPT{i};
"
                )
            })
            .collect();
        let system = System::load_str(&source).unwrap();
        assert_eq!(system.model().classes.len(), 4);
    }
}
