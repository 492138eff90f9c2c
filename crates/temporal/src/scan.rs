//! Compiled reference scans: the full-history evaluator with every
//! state predicate, pattern argument, and quantifier domain lowered to
//! bytecode once, at construction time.
//!
//! [`crate::eval_at`] walks raw [`troll_data::Term`] trees at every
//! position it visits — fine for one-shot queries, but the runtime's
//! *unmonitorable* permission and constraint formulas fall back to that
//! scan on **every event**, re-walking the same predicate trees
//! O(|trace|) times per check. [`CompiledFormula`] removes that last
//! interpreter island: the formula skeleton is flattened once with
//! [`troll_vm::Compiled`] leaves, and the scan recursion mirrors the
//! reference evaluator *exactly* — same traversal order, same
//! short-circuiting, same position space, same errors — so the two are
//! interchangeable (`compiled_scan_agrees_with_reference` proves it
//! property-wise; the runtime's differential suites replay whole specs
//! both ways).
//!
//! Construction is infallible: the entire logic is supported, including
//! quantifiers and the future operators the [`crate::Monitor`] rejects.
//! A predicate past the VM's resource caps simply keeps its tree-walk
//! fallback inside [`Compiled`] — the formula shape still scans.

use crate::eval::{OneBinding, TraceView};
use crate::{EventPattern, Formula, Result, Step, TemporalError, Trace};
use troll_data::{Env, Layered, Quantifier, Value};
use troll_vm::{Compiled, Lowering};

/// An [`EventPattern`] with its rigid argument terms lowered to
/// bytecode. Shared between the [`crate::Monitor`] (which re-evaluates
/// pattern arguments on every step) and the compiled scan (every
/// position of every scan).
#[derive(Debug, Clone)]
pub(crate) struct CompiledPattern {
    pub(crate) name: String,
    pub(crate) args: Vec<Option<Compiled>>,
}

impl CompiledPattern {
    pub(crate) fn new(p: &EventPattern, lowering: Lowering) -> Self {
        CompiledPattern {
            name: p.name.clone(),
            args: p
                .args
                .iter()
                .map(|a| a.as_ref().map(|t| Compiled::new(t.clone(), lowering)))
                .collect(),
        }
    }
}

/// Evaluates `pattern` against the events of `step`, with the compiled
/// argument terms evaluated rigidly in `env` — the bytecode twin of the
/// reference evaluator's `matches_step`.
pub(crate) fn pattern_matches(
    pattern: &CompiledPattern,
    step: &Step,
    env: &dyn Env,
) -> Result<bool> {
    for occ in &step.events {
        if occ.name != pattern.name {
            continue;
        }
        if pattern.args.is_empty() {
            return Ok(true);
        }
        if occ.args.len() != pattern.args.len() {
            continue;
        }
        let mut all = true;
        for (pat, actual) in pattern.args.iter().zip(&occ.args) {
            if let Some(term) = pat {
                if term.eval(env)? != *actual {
                    all = false;
                    break;
                }
            }
        }
        if all {
            return Ok(true);
        }
    }
    Ok(false)
}

/// One node of the compiled formula tree. `Occurs` covers `After` too —
/// the reference evaluator gives both the same step semantics.
#[derive(Debug, Clone)]
enum CNode {
    Pred(Compiled),
    Occurs(CompiledPattern),
    Not(Box<CNode>),
    And(Box<CNode>, Box<CNode>),
    Or(Box<CNode>, Box<CNode>),
    Implies(Box<CNode>, Box<CNode>),
    Sometime(Box<CNode>),
    AlwaysPast(Box<CNode>),
    Previous(Box<CNode>),
    Since(Box<CNode>, Box<CNode>),
    Eventually(Box<CNode>),
    Henceforth(Box<CNode>),
    Quant {
        q: Quantifier,
        var: String,
        domain: Compiled,
        body: Box<CNode>,
    },
}

/// A temporal formula compiled for repeated full-history scans: the
/// connective skeleton with every leaf term — state predicates, rigid
/// pattern arguments, quantifier domains — lowered to bytecode once.
///
/// Evaluation ([`CompiledFormula::eval_at`],
/// [`CompiledFormula::eval_now_appended`]) is observationally identical
/// to the reference evaluator on the source formula: same results, same
/// errors, same evaluation order. The runtime uses this for permission
/// and constraint formulas outside the monitorable fragment, which
/// would otherwise tree-walk their predicates at every trace position
/// of every check.
#[derive(Debug, Clone)]
pub struct CompiledFormula {
    formula: Formula,
    root: CNode,
}

impl CompiledFormula {
    /// Compiles `formula`, lowering its leaf terms with `lowering`.
    /// Never fails: the whole logic is supported, and leaf terms the VM
    /// declines keep their tree-walk fallback inside [`Compiled`].
    pub fn new(formula: &Formula, lowering: Lowering) -> Self {
        CompiledFormula {
            formula: formula.clone(),
            root: compile_node(formula, lowering),
        }
    }

    /// The source formula (kept like [`Compiled::term`]).
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// Compiled twin of [`crate::eval_at`]: evaluates the formula at
    /// position `pos` of `trace` under `env`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`crate::eval_at`] on the source formula:
    /// [`TemporalError::PositionOutOfRange`] if `pos >= trace.len()`,
    /// plus data and sort errors from predicate evaluation.
    pub fn eval_at(&self, trace: &Trace, pos: usize, env: &dyn Env) -> Result<bool> {
        crate::obs::scan_evals().inc();
        crate::obs::compiled_scan_evals().inc();
        eval_node(
            &self.root,
            TraceView {
                base: trace,
                extra: None,
            },
            pos,
            env,
        )
    }

    /// Compiled twin of [`crate::eval_now_appended`]: evaluates the
    /// formula as of a virtual final step appended to the trace,
    /// without cloning the history.
    ///
    /// # Errors
    ///
    /// Data and sort errors from predicate evaluation.
    pub fn eval_now_appended(&self, trace: &Trace, appended: &Step, env: &dyn Env) -> Result<bool> {
        crate::obs::scan_evals().inc();
        crate::obs::compiled_scan_evals().inc();
        let view = TraceView {
            base: trace,
            extra: Some(appended),
        };
        eval_node(&self.root, view, view.len() - 1, env)
    }
}

fn compile_node(formula: &Formula, lowering: Lowering) -> CNode {
    match formula {
        Formula::Pred(t) => CNode::Pred(Compiled::new(t.clone(), lowering)),
        Formula::Occurs(p) | Formula::After(p) => CNode::Occurs(CompiledPattern::new(p, lowering)),
        Formula::Not(f) => CNode::Not(Box::new(compile_node(f, lowering))),
        Formula::And(a, b) => CNode::And(
            Box::new(compile_node(a, lowering)),
            Box::new(compile_node(b, lowering)),
        ),
        Formula::Or(a, b) => CNode::Or(
            Box::new(compile_node(a, lowering)),
            Box::new(compile_node(b, lowering)),
        ),
        Formula::Implies(a, b) => CNode::Implies(
            Box::new(compile_node(a, lowering)),
            Box::new(compile_node(b, lowering)),
        ),
        Formula::Sometime(f) => CNode::Sometime(Box::new(compile_node(f, lowering))),
        Formula::AlwaysPast(f) => CNode::AlwaysPast(Box::new(compile_node(f, lowering))),
        Formula::Previous(f) => CNode::Previous(Box::new(compile_node(f, lowering))),
        Formula::Since(a, b) => CNode::Since(
            Box::new(compile_node(a, lowering)),
            Box::new(compile_node(b, lowering)),
        ),
        Formula::Eventually(f) => CNode::Eventually(Box::new(compile_node(f, lowering))),
        Formula::Henceforth(f) => CNode::Henceforth(Box::new(compile_node(f, lowering))),
        Formula::Quant {
            q,
            var,
            domain,
            body,
        } => CNode::Quant {
            q: *q,
            var: var.clone(),
            domain: Compiled::new(domain.clone(), lowering),
            body: Box::new(compile_node(body, lowering)),
        },
    }
}

/// The scan recursion — a line-for-line mirror of the reference
/// evaluator's `eval_at_view` with bytecode leaves. Any divergence here
/// is a bug; keep the two in lockstep.
fn eval_node(node: &CNode, trace: TraceView<'_>, pos: usize, env: &dyn Env) -> Result<bool> {
    let step = trace.step(pos).ok_or(TemporalError::PositionOutOfRange {
        position: pos,
        len: trace.len(),
    })?;
    match node {
        CNode::Pred(t) => {
            let layered = Layered {
                top: step,
                base: env,
            };
            let v = t.eval(&layered)?;
            v.as_bool()
                .ok_or_else(|| TemporalError::NonBooleanPredicate {
                    predicate: t.to_string(),
                    value: v.to_string(),
                })
        }
        CNode::Occurs(p) => pattern_matches(p, step, env),
        CNode::Not(f) => Ok(!eval_node(f, trace, pos, env)?),
        CNode::And(a, b) => Ok(eval_node(a, trace, pos, env)? && eval_node(b, trace, pos, env)?),
        CNode::Or(a, b) => Ok(eval_node(a, trace, pos, env)? || eval_node(b, trace, pos, env)?),
        CNode::Implies(a, b) => {
            Ok(!eval_node(a, trace, pos, env)? || eval_node(b, trace, pos, env)?)
        }
        CNode::Sometime(f) => {
            for j in (0..=pos).rev() {
                if eval_node(f, trace, j, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        CNode::AlwaysPast(f) => {
            for j in 0..=pos {
                if !eval_node(f, trace, j, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        CNode::Previous(f) => {
            if pos == 0 {
                Ok(false)
            } else {
                eval_node(f, trace, pos - 1, env)
            }
        }
        CNode::Since(a, b) => {
            for j in (0..=pos).rev() {
                if eval_node(b, trace, j, env)? {
                    return Ok(true);
                }
                if !eval_node(a, trace, j, env)? {
                    return Ok(false);
                }
            }
            Ok(false)
        }
        CNode::Eventually(f) => {
            for j in pos..trace.len() {
                if eval_node(f, trace, j, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        CNode::Henceforth(f) => {
            for j in pos..trace.len() {
                if !eval_node(f, trace, j, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        CNode::Quant {
            q,
            var,
            domain,
            body,
        } => {
            let layered = Layered {
                top: step,
                base: env,
            };
            let dom = domain.eval(&layered)?;
            let elems: Vec<Value> = match dom {
                Value::Set(s) => s.into_iter().collect(),
                Value::List(l) => l.into_iter().collect(),
                other => return Err(TemporalError::NonFiniteDomain(other.to_string())),
            };
            for elem in elems {
                let bound = OneBinding {
                    name: var,
                    value: elem,
                    parent: env,
                };
                let holds = eval_node(body, trace, pos, &bound)?;
                match (q, holds) {
                    (Quantifier::Forall, false) => return Ok(false),
                    (Quantifier::Exists, true) => return Ok(true),
                    _ => {}
                }
            }
            Ok(matches!(q, Quantifier::Forall))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_at, eval_now_appended};
    use crate::EventOccurrence;
    use proptest::prelude::*;
    use troll_data::{MapEnv, Op, Term};

    fn step(events: Vec<(&str, Vec<Value>)>, x: i64) -> Step {
        Step::new(
            events
                .into_iter()
                .map(|(n, a)| EventOccurrence::new(n, a))
                .collect(),
            [("x".to_string(), Value::from(x))],
        )
    }

    fn dept_trace() -> Trace {
        let mut t = Trace::new();
        t.push(step(vec![("establishment", vec![])], 0));
        t.push(step(vec![("hire", vec![Value::from("ada")])], 1));
        t.push(step(vec![("hire", vec![Value::from("bob")])], 2));
        t.push(step(vec![("fire", vec![Value::from("ada")])], 1));
        t
    }

    /// Formulas covering every node kind — including quantifiers and
    /// future operators, which the monitor rejects but the compiled
    /// scan must handle.
    fn battery() -> Vec<Formula> {
        let hire_p = EventPattern::new("hire", vec![Some(Term::var("P"))]);
        vec![
            Formula::pred(Term::eq(Term::var("x"), Term::constant(1i64))),
            Formula::occurs(EventPattern::any("hire")),
            Formula::after(hire_p.clone()),
            Formula::not(Formula::occurs(EventPattern::any("fire"))),
            Formula::and(
                Formula::occurs(EventPattern::any("hire")),
                Formula::pred(Term::apply(
                    Op::Ge,
                    vec![Term::var("x"), Term::constant(1i64)],
                )),
            ),
            Formula::or(
                Formula::occurs(EventPattern::any("closure")),
                Formula::occurs(EventPattern::any("fire")),
            ),
            Formula::implies(
                Formula::occurs(EventPattern::any("fire")),
                Formula::sometime(Formula::after(hire_p.clone())),
            ),
            Formula::sometime(Formula::after(hire_p)),
            Formula::always_past(Formula::pred(Term::apply(
                Op::Ge,
                vec![Term::var("x"), Term::constant(0i64)],
            ))),
            Formula::previous(Formula::occurs(EventPattern::any("hire"))),
            Formula::since(
                Formula::pred(Term::apply(
                    Op::Ge,
                    vec![Term::var("x"), Term::constant(1i64)],
                )),
                Formula::occurs(EventPattern::any("establishment")),
            ),
            Formula::eventually(Formula::occurs(EventPattern::any("fire"))),
            Formula::henceforth(Formula::pred(Term::apply(
                Op::Le,
                vec![Term::var("x"), Term::constant(2i64)],
            ))),
            Formula::forall(
                "Q",
                Term::var("people"),
                Formula::sometime(Formula::occurs(EventPattern::new(
                    "hire",
                    vec![Some(Term::var("Q"))],
                ))),
            ),
            Formula::exists(
                "Q",
                Term::var("people"),
                Formula::sometime(Formula::occurs(EventPattern::new(
                    "fire",
                    vec![Some(Term::var("Q"))],
                ))),
            ),
        ]
    }

    fn env() -> MapEnv {
        let mut env = MapEnv::new();
        env.bind("P", Value::from("ada"));
        env.bind(
            "people",
            Value::set_of(vec![Value::from("ada"), Value::from("bob")]),
        );
        env
    }

    #[test]
    fn compiled_scan_matches_reference_on_battery() {
        let t = dept_trace();
        let env = env();
        let virtual_step = step(vec![("hire", vec![Value::from("zoe")])], 7);
        for f in battery() {
            for lowering in Lowering::ALL {
                let c = CompiledFormula::new(&f, lowering);
                for pos in 0..t.len() {
                    assert_eq!(
                        c.eval_at(&t, pos, &env).unwrap(),
                        eval_at(&f, &t, pos, &env).unwrap(),
                        "eval_at disagreement at {pos} on {f} ({lowering:?})"
                    );
                }
                assert_eq!(
                    c.eval_now_appended(&t, &virtual_step, &env).unwrap(),
                    eval_now_appended(&f, &t, &virtual_step, &env).unwrap(),
                    "appended disagreement on {f} ({lowering:?})"
                );
            }
        }
    }

    #[test]
    fn compiled_scan_appended_on_empty_trace() {
        let t = Trace::new();
        let env = MapEnv::new();
        let s = step(vec![("birth_ev", vec![])], 0);
        let occurs = CompiledFormula::new(
            &Formula::occurs(EventPattern::any("birth_ev")),
            Lowering::Delta,
        );
        assert!(occurs.eval_now_appended(&t, &s, &env).unwrap());
        let prev = CompiledFormula::new(&Formula::previous(Formula::truth()), Lowering::Delta);
        assert!(!prev.eval_now_appended(&t, &s, &env).unwrap());
    }

    #[test]
    fn compiled_scan_errors_match_reference() {
        let t = dept_trace();
        let env = MapEnv::new();
        // position out of range
        let truth = CompiledFormula::new(&Formula::truth(), Lowering::Delta);
        let e = truth.eval_at(&t, 99, &env).unwrap_err();
        assert!(matches!(e, TemporalError::PositionOutOfRange { .. }));
        // non-boolean predicate, same rendered predicate text
        let f = Formula::pred(Term::var("x"));
        let e_ref = eval_at(&f, &t, 0, &env).unwrap_err();
        let e_c = CompiledFormula::new(&f, Lowering::Delta)
            .eval_at(&t, 0, &env)
            .unwrap_err();
        assert_eq!(e_ref.to_string(), e_c.to_string());
        // non-finite quantifier domain
        let g = Formula::forall("Q", Term::var("x"), Formula::truth());
        let e_ref = eval_at(&g, &t, 0, &env).unwrap_err();
        let e_c = CompiledFormula::new(&g, Lowering::Delta)
            .eval_at(&t, 0, &env)
            .unwrap_err();
        assert_eq!(e_ref.to_string(), e_c.to_string());
        // unbound variable inside a predicate
        let h = Formula::pred(Term::eq(Term::var("nope"), Term::constant(1i64)));
        let e_ref = eval_at(&h, &t, 0, &env).unwrap_err();
        let e_c = CompiledFormula::new(&h, Lowering::Delta)
            .eval_at(&t, 0, &env)
            .unwrap_err();
        assert_eq!(e_ref.to_string(), e_c.to_string());
    }

    fn arb_formula() -> impl Strategy<Value = Formula> {
        let leaf = prop_oneof![
            Just(Formula::occurs(EventPattern::any("a"))),
            Just(Formula::occurs(EventPattern::any("b"))),
            Just(Formula::pred(Term::apply(
                Op::Ge,
                vec![Term::var("x"), Term::constant(1i64)]
            ))),
            Just(Formula::truth()),
        ];
        leaf.prop_recursive(4, 24, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Formula::not),
                inner.clone().prop_map(Formula::sometime),
                inner.clone().prop_map(Formula::always_past),
                inner.clone().prop_map(Formula::previous),
                inner.clone().prop_map(Formula::eventually),
                inner.clone().prop_map(Formula::henceforth),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::since(a, b)),
                inner
                    .clone()
                    .prop_map(|f| Formula::exists("Q", Term::var("dom"), f)),
                inner.prop_map(|f| Formula::forall("Q", Term::var("dom"), f)),
            ]
        })
    }

    fn arb_trace() -> impl Strategy<Value = Trace> {
        proptest::collection::vec(
            (
                proptest::collection::vec(prop_oneof![Just("a"), Just("b")], 0..3),
                0i64..3,
            ),
            1..12,
        )
        .prop_map(|steps| {
            steps
                .into_iter()
                .map(|(events, x)| step(events.into_iter().map(|n| (n, vec![])).collect(), x))
                .collect()
        })
    }

    proptest! {
        /// The compiled scan and the reference evaluator agree at every
        /// position of every trace — including the future operators and
        /// quantifiers the monitor cannot handle.
        #[test]
        fn compiled_scan_agrees_with_reference(f in arb_formula(), t in arb_trace()) {
            let mut env = MapEnv::new();
            env.bind("dom", Value::set_of(vec![Value::from(1i64), Value::from(2i64)]));
            let c = CompiledFormula::new(&f, Lowering::Delta);
            for pos in 0..t.len() {
                prop_assert_eq!(
                    c.eval_at(&t, pos, &env).unwrap(),
                    eval_at(&f, &t, pos, &env).unwrap(),
                    "disagreement at position {}", pos
                );
            }
        }

        /// The appended-step view agrees too — the exact entry point the
        /// runtime's permission/constraint scans use.
        #[test]
        fn compiled_appended_agrees_with_reference(f in arb_formula(), t in arb_trace()) {
            let mut env = MapEnv::new();
            env.bind("dom", Value::set_of(vec![Value::from(1i64), Value::from(2i64)]));
            for lowering in Lowering::ALL {
                let c = CompiledFormula::new(&f, lowering);
                let mut prefix = Trace::new();
                for s in t.iter() {
                    prop_assert_eq!(
                        c.eval_now_appended(&prefix, s, &env).unwrap(),
                        eval_now_appended(&f, &prefix, s, &env).unwrap(),
                        "{:?}", lowering
                    );
                    prefix.push(s.clone());
                }
            }
        }
    }
}
