//! # troll-vm — flat register bytecode for TROLL data terms
//!
//! The animation semantics evaluates valuation rules, derivation rules,
//! permission/constraint state predicates and event arguments as
//! [`troll_data::Term`] trees. A tree walk re-dispatches on tags and
//! re-resolves variable names on every evaluation; for the runtime hot
//! path that constant factor dominates (ROADMAP "Compile the spec").
//!
//! This crate lowers a `Term` **once** into a flat register
//! [`Program`](struct@Compiled): a compact op sequence with an interned
//! constant pool, an interned name pool (variables resolve through a
//! per-execution slot cache instead of repeated environment walks), and
//! structured control flow for conditionals and bounded quantifiers. The
//! executor is a simple `while`-loop over the instruction array.
//!
//! ## Equivalence contract
//!
//! Compiled execution follows the *exact* evaluation order of
//! [`Term::eval`]: operation arguments left to right, only the taken
//! conditional branch, quantifier domains before bodies, strict
//! (non-short-circuit) `and`/`or`, and the same error construction sites
//! with the same context strings. A term therefore yields **identical
//! values and identical [`DataError`]s** through either path — the
//! property the differential tests in `tests/differential.rs` and the
//! runtime's in-process [`Lowering::TreeWalk`] harness check.
//!
//! ## Fallback rule
//!
//! Lowering never fails evaluation. The only terms the compiler refuses
//! are those exceeding its static resource caps (register file, pools);
//! these keep their tree and evaluate exactly as before, counted by the
//! `vm.fallback` counter with a one-shot stderr note naming the first
//! such term (mirroring `temporal.scan_fallback`). Successful lowerings
//! count as `vm.programs_compiled`; each bytecode execution counts as
//! `vm.exec`.
//!
//! ## Oracle modes
//!
//! Every constructor takes a [`Lowering`], fixed once per compiled
//! model: [`Lowering::Delta`] is the shipped engine, and
//! [`Lowering::Recompute`] and [`Lowering::TreeWalk`] are its
//! differential baselines. The choice is a plain value, so one process
//! can hold all three side by side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod exec;
mod program;

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use troll_data::{Env, Result, Term, Value};
use troll_obs::Counter;

pub(crate) use program::Program;

/// How terms are lowered: the engine configuration a compiled model is
/// built with. Each oracle variant switches off one optimisation of
/// [`Lowering::Delta`], so the shipped engine can be checked against it
/// in the same process.
///
/// Tree walk implies recompute (a term with no program has no delta
/// ops), so there is no fourth combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lowering {
    /// Register bytecode, with delta-shaped valuation rules applied
    /// incrementally — the shipped engine.
    Delta,
    /// Register bytecode, but delta-shaped valuation rules re-evaluate
    /// their full value term — the recompute oracle.
    Recompute,
    /// No bytecode: every term evaluates through [`Term::eval`] — the
    /// tree-walk oracle.
    TreeWalk,
}

impl Lowering {
    /// Every configuration, the shipped one first.
    pub const ALL: [Lowering; 3] = [Lowering::Delta, Lowering::Recompute, Lowering::TreeWalk];
}

fn compiled_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("vm.programs_compiled"))
}

fn exec_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("vm.exec"))
}

fn fallback_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("vm.fallback"))
}

fn delta_lowered_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("vm.delta_lowered"))
}

fn delta_unrecognized_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("vm.delta_unrecognized"))
}

/// Bumped by the executor each time a `Delta` op actually applies an
/// incremental update (the guarded else-branch of a delta rule does
/// not count). Op-level and process-global; the runtime separately
/// accounts rule-level `valuation.delta_applied` in its own metrics.
pub(crate) fn delta_applied_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("vm.delta_execs"))
}

/// Counts a compile-time fallback and warns once per distinct term,
/// naming it and why — so users learn which rules still tree-walk.
/// [`Lowering::TreeWalk`] is deliberate and stays silent and uncounted.
///
/// Fallbacks fire while a model *compiles* — before any per-world
/// observer exists — so the one-shot warning routes through the
/// process-global warning observer ([`troll_obs::set_warning_observer`])
/// as a structured `FallbackNoted` event, keeping the historical stderr
/// note only when no observer consumes it.
fn note_fallback(term: &Term, why: &str) {
    fallback_counter().inc();
    static SEEN: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut seen = match seen.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let rendered = term.to_string();
    if seen.insert(rendered.clone()) {
        let detail = format!("not bytecode-lowerable ({why}); evaluates by tree walk");
        if !troll_obs::note_fallback_warning("vm.fallback", &rendered, &detail) {
            eprintln!(
                "note: term `{rendered}` is not bytecode-lowerable ({why}); \
                 it evaluates by tree walk"
            );
        }
    }
}

/// A term lowered (when possible) to register bytecode, together with
/// its precomputed free-variable set.
///
/// `Compiled` is the drop-in unit the runtime stores wherever it used to
/// store a bare [`Term`] on a hot path: build once, [`eval`](Compiled::eval)
/// many times. The original term is kept for display, for the fallback
/// path, and as the self-describing source of truth.
///
/// # Example
///
/// ```
/// use troll_data::{MapEnv, Op, Term, Value};
/// use troll_vm::{Compiled, Lowering};
///
/// let term = Term::apply(Op::Add, vec![Term::var("x"), Term::constant(2i64)]);
/// let compiled = Compiled::new(term, Lowering::Delta);
/// let mut env = MapEnv::new();
/// env.bind("x", Value::from(40));
/// assert_eq!(compiled.eval(&env)?, Value::from(42));
/// assert_eq!(compiled.free_vars(), ["x".to_string()]);
/// # Ok::<(), troll_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Compiled {
    term: Term,
    prog: Option<Program>,
    free: Vec<String>,
    /// Recognized as a delta-able valuation root (set by
    /// [`Compiled::new_valuation`] under every [`Lowering`]).
    delta_shaped: bool,
    /// The program actually contains delta ops (false under the oracle
    /// lowerings and for compile-time fallbacks).
    delta_lowered: bool,
}

impl Compiled {
    /// Lowers `term` to bytecode (or records a fallback; see the crate
    /// docs) and precomputes its free variables. Under
    /// [`Lowering::TreeWalk`] no program is built.
    pub fn new(term: Term, lowering: Lowering) -> Compiled {
        let free = term.free_vars();
        let prog = if lowering == Lowering::TreeWalk {
            None
        } else {
            match compile::compile(&term) {
                Ok(p) => {
                    compiled_counter().inc();
                    Some(p)
                }
                Err(bail) => {
                    note_fallback(&term, bail.reason());
                    None
                }
            }
        };
        Compiled {
            term,
            prog,
            free,
            delta_shaped: false,
            delta_lowered: false,
        }
    }

    /// Lowers the *value term* of a valuation rule assigning `attr`.
    ///
    /// When the term's root is delta-able — `insert(x, attr)`,
    /// `remove(x, attr)`, `append(x, attr)`, or a conditional over such
    /// shapes and the identity/constant — the program applies the
    /// update incrementally: only the element subterm is evaluated and
    /// the delta is path-copied onto the shared collection handle
    /// fetched from the environment, making step cost flat in the
    /// collection's history. Any other shape compiles exactly as
    /// [`Compiled::new`] (counted by `vm.delta_unrecognized`, never an
    /// error); recognized shapes count as `vm.delta_lowered`.
    ///
    /// Oracle lowerings: [`Lowering::TreeWalk`] builds no program as
    /// usual, and [`Lowering::Recompute`] disables just the delta
    /// recognition so the rule recomputes its full value term — the
    /// differential baseline for the incremental path. Values and
    /// errors are identical under every lowering.
    pub fn new_valuation(term: Term, attr: &str, lowering: Lowering) -> Compiled {
        let shaped = compile::is_delta_root(&term, attr);
        if !shaped {
            delta_unrecognized_counter().inc();
            return Compiled::new(term, lowering);
        }
        if lowering != Lowering::Delta {
            let mut c = Compiled::new(term, lowering);
            c.delta_shaped = true;
            return c;
        }
        let free = term.free_vars();
        match compile::compile_valuation(&term, attr) {
            Ok((prog, lowered)) => {
                compiled_counter().inc();
                if lowered {
                    delta_lowered_counter().inc();
                }
                Compiled {
                    term,
                    prog: Some(prog),
                    free,
                    delta_shaped: true,
                    delta_lowered: lowered,
                }
            }
            Err(bail) => {
                note_fallback(&term, bail.reason());
                Compiled {
                    term,
                    prog: None,
                    free,
                    delta_shaped: true,
                    delta_lowered: false,
                }
            }
        }
    }

    /// Evaluates the term: bytecode when lowered, tree walk otherwise.
    /// Both paths yield identical values and errors (crate docs).
    ///
    /// # Errors
    ///
    /// Exactly those of [`Term::eval`] on the same term and environment.
    pub fn eval(&self, env: &dyn Env) -> Result<Value> {
        match &self.prog {
            Some(p) => {
                exec_counter().inc();
                p.run(env)
            }
            None => self.term.eval(env),
        }
    }

    /// The free variables of the term, sorted and deduplicated —
    /// computed once at build time (callers used to re-derive this per
    /// evaluation via `Term::free_vars`).
    pub fn free_vars(&self) -> &[String] {
        &self.free
    }

    /// The source term.
    pub fn term(&self) -> &Term {
        &self.term
    }

    /// Whether a bytecode program backs this term (false under
    /// [`Lowering::TreeWalk`] and for compile-time fallbacks).
    pub fn is_compiled(&self) -> bool {
        self.prog.is_some()
    }

    /// Whether [`Compiled::new_valuation`] recognized this term as a
    /// delta-able valuation root — true even when an oracle lowering
    /// kept it on the recompute path. The
    /// runtime uses the combination with [`Compiled::delta_lowered`] to
    /// account delta-shaped rules that execute by full recompute.
    pub fn delta_shaped(&self) -> bool {
        self.delta_shaped
    }

    /// Whether the lowered program applies this valuation incrementally
    /// (contains delta ops).
    pub fn delta_lowered(&self) -> bool {
        self.delta_lowered
    }
}

impl fmt::Display for Compiled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.term.fmt(f)
    }
}

impl PartialEq for Compiled {
    fn eq(&self, other: &Self) -> bool {
        self.term == other.term
    }
}

impl Eq for Compiled {}

#[cfg(test)]
mod tests {
    use super::*;
    use troll_data::{DataError, MapEnv, Op, Quantifier};

    fn env() -> MapEnv {
        MapEnv::from_pairs(vec![
            ("x", Value::from(10)),
            ("y", Value::from(4)),
            (
                "emps",
                Value::set_of(vec![
                    Value::tuple_of(vec![("name", Value::from("a")), ("sal", Value::from(100))]),
                    Value::tuple_of(vec![("name", Value::from("b")), ("sal", Value::from(200))]),
                ]),
            ),
        ])
    }

    /// Asserts tree walk and bytecode agree on `t` over `env` — the
    /// equivalence contract, on both the value and the error path.
    fn assert_agree(t: Term, env: &MapEnv) {
        let compiled = Compiled::new(t.clone(), Lowering::Delta);
        assert!(compiled.is_compiled(), "expected lowering for {t}");
        assert_eq!(compiled.eval(env), t.eval(env), "divergence on {t}");
        let walked = Compiled::new(t.clone(), Lowering::TreeWalk);
        assert!(!walked.is_compiled(), "tree walk lowered {t}");
        assert_eq!(walked.eval(env), t.eval(env), "tree walk diverged on {t}");
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_agree(
            Term::apply(Op::Add, vec![Term::var("x"), Term::var("y")]),
            &env(),
        );
        assert_agree(
            Term::apply(Op::Gt, vec![Term::var("x"), Term::var("y")]),
            &env(),
        );
        assert_agree(
            Term::apply(Op::Div, vec![Term::var("x"), Term::constant(0i64)]),
            &env(),
        );
    }

    #[test]
    fn strict_boolean_ops_match_tree_walk() {
        // Term::eval's And/Or are strict: the second argument errors
        // even when the first already decides. The VM must not
        // short-circuit where the tree walk does not.
        let t = Term::apply(Op::And, vec![Term::constant(false), Term::var("missing")]);
        let compiled = Compiled::new(t.clone(), Lowering::Delta);
        assert_eq!(
            compiled.eval(&env()).unwrap_err(),
            DataError::UnboundVariable("missing".into())
        );
    }

    #[test]
    fn unbound_variable_error_matches() {
        assert_agree(Term::var("zzz"), &env());
    }

    #[test]
    fn field_projection_and_errors() {
        let tup = Term::constant(Value::tuple_of(vec![("a", Value::from(1))]));
        assert_agree(Term::field(tup.clone(), "a"), &env());
        assert_agree(Term::field(tup, "b"), &env());
        assert_agree(Term::field(Term::var("x"), "b"), &env());
    }

    #[test]
    fn constructors() {
        assert_agree(
            Term::MkTuple(vec![
                ("b".into(), Term::var("x")),
                ("a".into(), Term::var("y")),
                ("b".into(), Term::constant(9i64)),
            ]),
            &env(),
        );
        assert_agree(
            Term::MkSet(vec![Term::var("x"), Term::var("y"), Term::var("x")]),
            &env(),
        );
        assert_agree(Term::MkList(vec![Term::var("y"), Term::var("x")]), &env());
    }

    #[test]
    fn conditional_only_evaluates_taken_branch() {
        assert_agree(
            Term::ite(Term::constant(true), Term::var("x"), Term::var("nope")),
            &env(),
        );
        assert_agree(
            Term::ite(Term::constant(false), Term::var("nope"), Term::var("y")),
            &env(),
        );
        assert_agree(
            Term::ite(Term::var("x"), Term::var("x"), Term::var("y")),
            &env(),
        );
    }

    #[test]
    fn quantifiers() {
        let all = Term::quant(
            Quantifier::Forall,
            "e",
            Term::var("emps"),
            Term::apply(
                Op::Ge,
                vec![Term::field(Term::var("e"), "sal"), Term::constant(100i64)],
            ),
        );
        assert_agree(all, &env());
        let some = Term::quant(
            Quantifier::Exists,
            "e",
            Term::var("emps"),
            Term::apply(
                Op::Gt,
                vec![Term::field(Term::var("e"), "sal"), Term::constant(150i64)],
            ),
        );
        assert_agree(some, &env());
        // empty domains, non-collection domain, non-bool body
        assert_agree(
            Term::quant(
                Quantifier::Forall,
                "e",
                Term::constant(Value::empty_set()),
                Term::constant(false),
            ),
            &env(),
        );
        assert_agree(
            Term::quant(
                Quantifier::Exists,
                "e",
                Term::var("x"),
                Term::constant(true),
            ),
            &env(),
        );
        assert_agree(
            Term::quant(Quantifier::Forall, "e", Term::var("emps"), Term::var("e")),
            &env(),
        );
    }

    #[test]
    fn quantifier_shadowing_and_nesting() {
        // x bound by the quantifier shadows env's x
        assert_agree(
            Term::quant(
                Quantifier::Forall,
                "x",
                Term::constant(Value::set_of(vec![Value::from(1)])),
                Term::eq(Term::var("x"), Term::constant(1i64)),
            ),
            &env(),
        );
        // nested quantifiers over the same domain
        let nested = Term::quant(
            Quantifier::Forall,
            "a",
            Term::var("emps"),
            Term::quant(
                Quantifier::Exists,
                "b",
                Term::var("emps"),
                Term::apply(
                    Op::Ge,
                    vec![
                        Term::field(Term::var("b"), "sal"),
                        Term::field(Term::var("a"), "sal"),
                    ],
                ),
            ),
        );
        assert_agree(nested, &env());
    }

    #[test]
    fn let_bindings() {
        assert_agree(
            Term::let_in(
                "z",
                Term::apply(Op::Mul, vec![Term::var("x"), Term::constant(2i64)]),
                Term::apply(Op::Add, vec![Term::var("z"), Term::var("y")]),
            ),
            &env(),
        );
        // let shadows an outer quantifier variable
        assert_agree(
            Term::quant(
                Quantifier::Exists,
                "v",
                Term::var("emps"),
                Term::let_in(
                    "v",
                    Term::constant(7i64),
                    Term::eq(Term::var("v"), Term::constant(7i64)),
                ),
            ),
            &env(),
        );
    }

    #[test]
    fn query_algebra() {
        let q = Term::the(Term::project(
            Term::select(
                Term::var("emps"),
                Term::eq(Term::var("name"), Term::constant(Value::from("a"))),
            ),
            vec!["sal"],
        ));
        assert_agree(q, &env());
        // selection predicate sees scope variables (let-bound target)
        let q2 = Term::let_in(
            "target",
            Term::constant(Value::from("b")),
            Term::the(Term::project(
                Term::select(
                    Term::var("emps"),
                    Term::eq(Term::var("name"), Term::var("target")),
                ),
                vec!["sal"],
            )),
        );
        assert_agree(q2, &env());
        // tuple fields shadow scope variables inside the predicate
        let q3 = Term::let_in(
            "name",
            Term::constant(Value::from("b")),
            Term::select(
                Term::var("emps"),
                Term::eq(Term::var("name"), Term::constant(Value::from("a"))),
            ),
        );
        assert_agree(q3, &env());
        // the() of a non-singleton errors identically
        assert_agree(Term::the(Term::var("emps")), &env());
        assert_agree(Term::project(Term::var("emps"), vec!["missing"]), &env());
    }

    /// Selection predicates compile scope-free and resolve every name
    /// per row — tuple fields first, then pinned scope registers, then
    /// the outer environment. Each case pins the expected value (not
    /// just tree-walk agreement) so a resolution bug that broke both
    /// evaluators the same way would still fail.
    #[test]
    fn select_dynamic_field_shadowing() {
        let eval = |t: &Term| {
            Compiled::new(t.clone(), Lowering::Delta)
                .eval(&env())
                .unwrap()
        };
        let row = |name: &str, sal: i64| {
            Value::tuple_of(vec![("name", Value::from(name)), ("sal", Value::from(sal))])
        };

        // a quantifier variable named like a tuple field is shadowed by
        // the field inside the predicate: `name` reads each row, never
        // the pinned register holding "zzz"
        let quant_shadowed = Term::quant(
            Quantifier::Exists,
            "name",
            Term::constant(Value::set_of(vec![Value::from("zzz")])),
            Term::eq(
                Term::select(
                    Term::var("emps"),
                    Term::eq(Term::var("name"), Term::constant(Value::from("a"))),
                ),
                Term::constant(Value::set_of(vec![row("a", 100)])),
            ),
        );
        assert_agree(quant_shadowed.clone(), &env());
        assert_eq!(eval(&quant_shadowed), Value::from(true));

        // a quantifier variable that is NOT a field reaches the
        // predicate through the scope-register bridge
        let quant_read = Term::quant(
            Quantifier::Forall,
            "threshold",
            Term::constant(Value::set_of(vec![Value::from(150)])),
            Term::eq(
                Term::select(
                    Term::var("emps"),
                    Term::apply(Op::Gt, vec![Term::var("sal"), Term::var("threshold")]),
                ),
                Term::constant(Value::set_of(vec![row("b", 200)])),
            ),
        );
        assert_agree(quant_read.clone(), &env());
        assert_eq!(eval(&quant_read), Value::from(true));

        // let-bound `sal` shadows nothing inside the predicate (the
        // field wins row by row) but is visible again outside it
        let let_shadowed = Term::let_in(
            "sal",
            Term::constant(999i64),
            Term::select(
                Term::var("emps"),
                Term::apply(Op::Ge, vec![Term::var("sal"), Term::constant(200i64)]),
            ),
        );
        assert_agree(let_shadowed.clone(), &env());
        assert_eq!(eval(&let_shadowed), Value::set_of(vec![row("b", 200)]));

        // heterogeneous rows resolve the same name differently per row:
        // the field where present, the outer environment otherwise
        // (`x` is 10 there, so the field-less row passes the predicate)
        let mixed = Value::set_of(vec![
            Value::tuple_of(vec![("x", Value::from(0))]),
            Value::tuple_of(vec![("other", Value::from(1))]),
        ]);
        let per_row = Term::select(
            Term::constant(mixed.clone()),
            Term::eq(Term::var("x"), Term::constant(10i64)),
        );
        assert_agree(per_row.clone(), &env());
        assert_eq!(
            eval(&per_row),
            Value::set_of(vec![Value::tuple_of(vec![("other", Value::from(1))])])
        );

        // a select nested inside another select's predicate: each level
        // layers its own row fields, and the inner result feeds the
        // outer comparison
        let nested = Term::select(
            Term::var("emps"),
            Term::apply(
                Op::Gt,
                vec![
                    Term::the(Term::project(
                        Term::select(
                            Term::var("emps"),
                            Term::eq(Term::var("name"), Term::constant(Value::from("b"))),
                        ),
                        vec!["sal"],
                    )),
                    Term::var("sal"),
                ],
            ),
        );
        assert_agree(nested.clone(), &env());
        assert_eq!(eval(&nested), Value::set_of(vec![row("a", 100)]));
    }

    #[test]
    fn oversized_terms_fall_back_to_tree_walk() {
        let before = fallback_counter().get();
        let wide = Term::MkList((0..300).map(|i| Term::constant(i as i64)).collect());
        let compiled = Compiled::new(wide.clone(), Lowering::Delta);
        assert!(!compiled.is_compiled());
        assert!(fallback_counter().get() > before);
        assert_eq!(compiled.eval(&env()), wide.eval(&env()));
    }

    #[test]
    fn free_vars_precomputed() {
        let t = Term::quant(
            Quantifier::Forall,
            "e",
            Term::var("emps"),
            Term::eq(Term::var("x"), Term::var("e")),
        );
        let compiled = Compiled::new(t, Lowering::Delta);
        assert_eq!(compiled.free_vars(), ["emps".to_string(), "x".to_string()]);
    }

    fn coll_env() -> MapEnv {
        MapEnv::from_pairs(vec![
            ("x", Value::from(3)),
            ("S", Value::set_of(vec![Value::from(1), Value::from(2)])),
            ("L", Value::list_of(vec![Value::from(1)])),
            ("n", Value::from(7)),
        ])
    }

    /// Asserts the valuation lowering of `t` (assigning `attr`) agrees
    /// with the tree walk on value and error under every [`Lowering`],
    /// recognizes the expected delta shape under each, and lowers to
    /// delta ops only under [`Lowering::Delta`].
    fn assert_valuation_agrees(t: Term, attr: &str, env: &MapEnv, expect_delta: bool) {
        for lowering in Lowering::ALL {
            let c = Compiled::new_valuation(t.clone(), attr, lowering);
            assert_eq!(
                c.delta_shaped(),
                expect_delta,
                "shape of {t} ({lowering:?})"
            );
            assert_eq!(
                c.delta_lowered(),
                expect_delta && lowering == Lowering::Delta,
                "lowering of {t} ({lowering:?})"
            );
            assert_eq!(c.eval(env), t.eval(env), "divergence on {t} ({lowering:?})");
        }
    }

    #[test]
    fn delta_valuation_matches_tree_walk() {
        let env = coll_env();
        for (t, attr) in [
            (
                Term::apply(Op::Insert, vec![Term::var("x"), Term::var("S")]),
                "S",
            ),
            (
                Term::apply(Op::Remove, vec![Term::constant(1i64), Term::var("S")]),
                "S",
            ),
            (
                Term::apply(
                    Op::Append,
                    vec![
                        Term::apply(Op::Add, vec![Term::var("n"), Term::constant(1i64)]),
                        Term::var("L"),
                    ],
                ),
                "L",
            ),
        ] {
            assert_valuation_agrees(t, attr, &env, true);
        }
    }

    #[test]
    fn guarded_delta_valuation() {
        let env = coll_env();
        // if n > 5 then insert(x, S) else S — guard true takes the delta
        let guarded = |cond| {
            Term::ite(
                cond,
                Term::apply(Op::Insert, vec![Term::var("x"), Term::var("S")]),
                Term::var("S"),
            )
        };
        assert_valuation_agrees(
            guarded(Term::apply(
                Op::Gt,
                vec![Term::var("n"), Term::constant(5i64)],
            )),
            "S",
            &env,
            true,
        );
        // guard false leaves the attribute unchanged through the
        // identity branch, without counting a delta application
        let before = delta_applied_counter().get();
        let c = Compiled::new_valuation(guarded(Term::constant(false)), "S", Lowering::Delta);
        assert_eq!(c.eval(&env).unwrap(), env.lookup("S").unwrap());
        if c.delta_lowered() {
            assert_eq!(delta_applied_counter().get(), before);
        }
        // nested guards and constant-reset arms stay recognized
        let nested = Term::ite(
            Term::constant(true),
            guarded(Term::constant(true)),
            Term::constant(Value::empty_set()),
        );
        assert_valuation_agrees(nested, "S", &env, true);
    }

    #[test]
    fn delta_error_paths_match_tree_walk() {
        let env = coll_env();
        // element term errors before the collection lookup
        let t = Term::apply(Op::Insert, vec![Term::var("missing"), Term::var("S")]);
        assert_valuation_agrees(t, "S", &env, true);
        // unbound attribute
        let t = Term::apply(Op::Insert, vec![Term::var("x"), Term::var("ZZZ")]);
        assert_valuation_agrees(t, "ZZZ", &env, true);
        // attribute bound to the wrong sort
        let t = Term::apply(Op::Insert, vec![Term::var("x"), Term::var("n")]);
        assert_valuation_agrees(t, "n", &env, true);
        let t = Term::apply(Op::Append, vec![Term::var("x"), Term::var("S")]);
        assert_valuation_agrees(t, "S", &env, true);
    }

    #[test]
    fn non_delta_shapes_compile_as_usual() {
        let env = coll_env();
        let before = delta_unrecognized_counter().get();
        // rooted at the attribute but not a recognized delta op
        let t = Term::apply(
            Op::Union,
            vec![Term::var("S"), Term::MkSet(vec![Term::var("x")])],
        );
        assert_valuation_agrees(t, "S", &env, false);
        // insert into a *different* attribute than the one assigned
        let t = Term::apply(Op::Insert, vec![Term::var("x"), Term::var("S")]);
        assert_valuation_agrees(t, "L", &env, false);
        // scalar rule
        let t = Term::apply(Op::Add, vec![Term::var("n"), Term::constant(1i64)]);
        assert_valuation_agrees(t, "n", &env, false);
        assert!(delta_unrecognized_counter().get() >= before + 3);
    }

    #[test]
    fn recompute_lowering_disables_delta_lowering() {
        let env = coll_env();
        let t = Term::apply(Op::Insert, vec![Term::var("x"), Term::var("S")]);
        let c = Compiled::new_valuation(t.clone(), "S", Lowering::Recompute);
        assert!(c.delta_shaped());
        assert!(!c.delta_lowered());
        assert!(c.is_compiled());
        assert_eq!(c.eval(&env), t.eval(&env));
    }

    #[test]
    fn counters_advance() {
        let execs = exec_counter().get();
        let compiles = compiled_counter().get();
        let c = Compiled::new(
            Term::apply(Op::Add, vec![Term::var("x"), Term::var("y")]),
            Lowering::Delta,
        );
        c.eval(&env()).unwrap();
        assert!(compiled_counter().get() > compiles);
        assert!(exec_counter().get() > execs);
    }
}
