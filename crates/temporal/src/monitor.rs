//! Incremental evaluation of past-time formulas.
//!
//! The reference evaluator ([`crate::eval_at`]) re-scans the history on
//! every query, costing O(|trace|·|φ|). For permission checking this is
//! paid on **every event**, so the runtime prefers this monitor: the
//! classic past-LTL dynamic programming scheme keeps one boolean per
//! subformula and updates all of them in O(|φ|) per step.
//!
//! The monitorable fragment is *quantifier-free, past-only* formulas with
//! **rigid** pattern arguments (the argument terms must evaluate to the
//! same values at every step — e.g. permission parameters). Formulas
//! outside the fragment are rejected at construction; callers fall back
//! to the reference evaluator. DESIGN.md decision 2 benchmarks the two
//! against each other (`bench_permission_check`). Formulas with one
//! parameter or one top-level quantifier have a monitor for every value
//! at once: [`crate::SlicedMonitor`].

use crate::eval::{eval_at, eval_now};
use crate::scan::{pattern_matches, CompiledPattern};
use crate::{Formula, Result, Step, TemporalError, Trace};
use troll_data::{Env, Layered};
use troll_vm::{Compiled, Lowering};

/// Flattened subformula node; children are indices into the node array
/// (children always precede parents, enabling a single bottom-up pass).
/// State predicates and pattern arguments are compiled once here — the
/// monitor re-evaluates them on every step/peek.
#[derive(Debug, Clone)]
enum Node {
    Pred(Compiled),
    Occurs(CompiledPattern),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Implies(usize, usize),
    Sometime(usize),
    AlwaysPast(usize),
    Previous(usize),
    Since(usize, usize),
}

/// Incremental evaluator for quantifier-free past-time formulas.
///
/// # Example
///
/// ```
/// use troll_data::{MapEnv, Term, Value};
/// use troll_temporal::{Monitor, Formula, EventPattern, Step};
/// use troll_vm::Lowering;
///
/// let phi = Formula::sometime(Formula::occurs(EventPattern::any("hire")));
/// let mut m = Monitor::new(&phi, Lowering::Delta)?;
/// let env = MapEnv::new();
/// let quiet = Step::new(vec![], []);
/// let hire = Step::new(vec![("hire", vec![]).into()], []);
/// assert!(!m.step(&quiet, &env)?);
/// assert!(m.step(&hire, &env)?);
/// assert!(m.step(&quiet, &env)?); // sometime is sticky
/// # Ok::<(), troll_temporal::TemporalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Monitor {
    nodes: Vec<Node>,
    /// Values of each subformula at the previous step.
    prev: Vec<bool>,
    /// Number of steps consumed.
    steps: usize,
}

/// The dynamic state of a [`Monitor`] — one boolean per subformula plus
/// the step count. Captured by [`Monitor::snapshot`], reinstated by
/// [`Monitor::restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorSnapshot {
    prev: Vec<bool>,
    steps: usize,
}

impl Monitor {
    /// Compiles a formula into a monitor, lowering its state predicates
    /// and pattern arguments with `lowering`.
    ///
    /// # Errors
    ///
    /// Returns [`TemporalError::UnsupportedByMonitor`] if the formula
    /// contains quantifiers or future operators.
    pub fn new(formula: &Formula, lowering: Lowering) -> Result<Self> {
        let mut nodes = Vec::new();
        flatten(formula, lowering, &mut nodes)?;
        let prev = vec![false; nodes.len()];
        Ok(Monitor {
            nodes,
            prev,
            steps: 0,
        })
    }

    /// Number of steps consumed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Computes the subformula values at `step` given the values at the
    /// previous step, without committing them.
    fn advance(&self, step: &Step, env: &dyn Env) -> Result<Vec<bool>> {
        let first = self.steps == 0;
        let mut cur = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            cur[i] = match node {
                Node::Pred(t) => {
                    let layered = Layered {
                        top: step,
                        base: env,
                    };
                    let v = t.eval(&layered)?;
                    v.as_bool()
                        .ok_or_else(|| TemporalError::NonBooleanPredicate {
                            predicate: t.to_string(),
                            value: v.to_string(),
                        })?
                }
                Node::Occurs(p) => pattern_matches(p, step, env)?,
                Node::Not(a) => !cur[*a],
                Node::And(a, b) => cur[*a] && cur[*b],
                Node::Or(a, b) => cur[*a] || cur[*b],
                Node::Implies(a, b) => !cur[*a] || cur[*b],
                Node::Sometime(a) => cur[*a] || (!first && self.prev[i]),
                Node::AlwaysPast(a) => cur[*a] && (first || self.prev[i]),
                Node::Previous(a) => !first && self.prev[*a],
                Node::Since(a, b) => cur[*b] || (cur[*a] && !first && self.prev[i]),
            };
        }
        Ok(cur)
    }

    /// Feeds the next step of the history; returns the formula's truth
    /// value at that step.
    ///
    /// # Errors
    ///
    /// Propagates predicate-evaluation errors.
    pub fn step(&mut self, step: &Step, env: &dyn Env) -> Result<bool> {
        crate::obs::monitor_steps().inc();
        self.prev = self.advance(step, env)?;
        self.steps += 1;
        Ok(*self.prev.last().expect("monitor has at least one node"))
    }

    /// Evaluates the formula as if `step` were appended to the consumed
    /// history, without advancing the monitor. This is the hot-path
    /// query for permission/constraint checks: the runtime peeks at the
    /// hypothetical step of the current transaction and only [`step`]s
    /// the monitor once the transaction commits.
    ///
    /// # Errors
    ///
    /// Propagates predicate-evaluation errors.
    ///
    /// [`step`]: Monitor::step
    pub fn peek(&self, step: &Step, env: &dyn Env) -> Result<bool> {
        crate::obs::monitor_peeks().inc();
        let cur = self.advance(step, env)?;
        Ok(*cur.last().expect("monitor has at least one node"))
    }

    /// Captures the monitor's dynamic state — O(|φ|) booleans, cheap to
    /// take before a speculative [`Monitor::step`] and restore after.
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            prev: self.prev.clone(),
            steps: self.steps,
        }
    }

    /// Restores state captured by [`Monitor::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a monitor compiled for a
    /// different formula (subformula counts differ).
    pub fn restore(&mut self, snapshot: MonitorSnapshot) {
        assert_eq!(
            snapshot.prev.len(),
            self.nodes.len(),
            "monitor snapshot belongs to a different formula"
        );
        self.prev = snapshot.prev;
        self.steps = snapshot.steps;
    }

    /// Current truth value (of the last consumed step); `false` before
    /// the first step, mirroring [`crate::eval_now`] on empty traces for
    /// the positive fragment.
    pub fn current(&self) -> bool {
        self.steps > 0 && *self.prev.last().expect("monitor has at least one node")
    }

    /// Replays an entire trace through a fresh copy of this monitor and
    /// returns the final value — a convenience for equivalence tests
    /// against the reference evaluator.
    ///
    /// # Errors
    ///
    /// Propagates predicate-evaluation errors.
    pub fn run(&self, trace: &Trace, env: &dyn Env) -> Result<bool> {
        let mut m = Monitor {
            nodes: self.nodes.clone(),
            prev: vec![false; self.nodes.len()],
            steps: 0,
        };
        let mut last = false;
        for step in trace {
            last = m.step(step, env)?;
        }
        Ok(last)
    }
}

/// Flattens `formula` into `nodes` (postorder) and returns the root index.
fn flatten(formula: &Formula, lowering: Lowering, nodes: &mut Vec<Node>) -> Result<usize> {
    let node = match formula {
        Formula::Pred(t) => Node::Pred(Compiled::new(t.clone(), lowering)),
        Formula::Occurs(p) | Formula::After(p) => Node::Occurs(CompiledPattern::new(p, lowering)),
        Formula::Not(f) => Node::Not(flatten(f, lowering, nodes)?),
        Formula::And(a, b) => {
            let (a, b) = (flatten(a, lowering, nodes)?, flatten(b, lowering, nodes)?);
            Node::And(a, b)
        }
        Formula::Or(a, b) => {
            let (a, b) = (flatten(a, lowering, nodes)?, flatten(b, lowering, nodes)?);
            Node::Or(a, b)
        }
        Formula::Implies(a, b) => {
            let (a, b) = (flatten(a, lowering, nodes)?, flatten(b, lowering, nodes)?);
            Node::Implies(a, b)
        }
        Formula::Sometime(f) => Node::Sometime(flatten(f, lowering, nodes)?),
        Formula::AlwaysPast(f) => Node::AlwaysPast(flatten(f, lowering, nodes)?),
        Formula::Previous(f) => Node::Previous(flatten(f, lowering, nodes)?),
        Formula::Since(a, b) => {
            let (a, b) = (flatten(a, lowering, nodes)?, flatten(b, lowering, nodes)?);
            Node::Since(a, b)
        }
        Formula::Eventually(_) | Formula::Henceforth(_) => {
            return Err(TemporalError::UnsupportedByMonitor(
                "future operator".into(),
            ))
        }
        Formula::Quant { .. } => {
            return Err(TemporalError::UnsupportedByMonitor("quantifier".into()))
        }
    };
    nodes.push(node);
    Ok(nodes.len() - 1)
}

/// Checks monitor/evaluator agreement on a trace, with the monitor
/// built under `lowering` (test helper, exposed for the property-test
/// suites of downstream crates).
///
/// # Errors
///
/// Propagates errors from either evaluator.
pub fn agree_on_trace(
    formula: &Formula,
    lowering: Lowering,
    trace: &Trace,
    env: &dyn Env,
) -> Result<bool> {
    let monitor = Monitor::new(formula, lowering)?;
    let m = monitor.run(trace, env)?;
    let e = if trace.is_empty() {
        eval_now(formula, trace, env)?
    } else {
        eval_at(formula, trace, trace.len() - 1, env)?
    };
    Ok(m == e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventOccurrence, EventPattern};
    use proptest::prelude::*;
    use troll_data::{MapEnv, Op, Term, Value};

    fn mkstep(events: Vec<&str>, x: i64) -> Step {
        Step::new(
            events
                .into_iter()
                .map(|n| EventOccurrence::new(n, vec![]))
                .collect(),
            [("x".to_string(), Value::from(x))],
        )
    }

    #[test]
    fn rejects_unsupported() {
        assert!(Monitor::new(&Formula::eventually(Formula::truth()), Lowering::Delta).is_err());
        let quant = Formula::forall("P", Term::var("d"), Formula::truth());
        assert!(Monitor::new(&quant, Lowering::Delta).is_err());
    }

    #[test]
    fn sometime_is_sticky() {
        let phi = Formula::sometime(Formula::occurs(EventPattern::any("e")));
        let mut m = Monitor::new(&phi, Lowering::Delta).unwrap();
        let env = MapEnv::new();
        assert!(!m.current());
        assert!(!m.step(&mkstep(vec![], 0), &env).unwrap());
        assert!(m.step(&mkstep(vec!["e"], 0), &env).unwrap());
        assert!(m.step(&mkstep(vec![], 0), &env).unwrap());
        assert!(m.current());
        assert_eq!(m.steps(), 3);
    }

    #[test]
    fn previous_lags_one_step() {
        let phi = Formula::previous(Formula::occurs(EventPattern::any("e")));
        let mut m = Monitor::new(&phi, Lowering::Delta).unwrap();
        let env = MapEnv::new();
        assert!(!m.step(&mkstep(vec!["e"], 0), &env).unwrap());
        assert!(m.step(&mkstep(vec![], 0), &env).unwrap());
        assert!(!m.step(&mkstep(vec![], 0), &env).unwrap());
    }

    #[test]
    fn since_operator() {
        // x >= 1 since e
        let phi = Formula::since(
            Formula::pred(Term::apply(
                Op::Ge,
                vec![Term::var("x"), Term::constant(1i64)],
            )),
            Formula::occurs(EventPattern::any("e")),
        );
        let mut m = Monitor::new(&phi, Lowering::Delta).unwrap();
        let env = MapEnv::new();
        assert!(!m.step(&mkstep(vec![], 5), &env).unwrap()); // no e yet
        assert!(m.step(&mkstep(vec!["e"], 5), &env).unwrap());
        assert!(m.step(&mkstep(vec![], 2), &env).unwrap()); // x stays >= 1
        assert!(!m.step(&mkstep(vec![], 0), &env).unwrap()); // x drops below
        assert!(!m.step(&mkstep(vec![], 5), &env).unwrap()); // does not recover
        assert!(m.step(&mkstep(vec!["e"], 0), &env).unwrap()); // fresh e
    }

    #[test]
    fn peek_does_not_advance() {
        let phi = Formula::sometime(Formula::occurs(EventPattern::any("e")));
        let mut m = Monitor::new(&phi, Lowering::Delta).unwrap();
        let env = MapEnv::new();
        assert!(m.peek(&mkstep(vec!["e"], 0), &env).unwrap());
        // Nothing was remembered: a quiet step still evaluates false.
        assert!(!m.peek(&mkstep(vec![], 0), &env).unwrap());
        assert_eq!(m.steps(), 0);
        assert!(m.step(&mkstep(vec!["e"], 0), &env).unwrap());
        // Now `sometime` is sticky even through a quiet peek.
        assert!(m.peek(&mkstep(vec![], 0), &env).unwrap());
        assert_eq!(m.steps(), 1);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let phi = Formula::sometime(Formula::occurs(EventPattern::any("e")));
        let mut m = Monitor::new(&phi, Lowering::Delta).unwrap();
        let env = MapEnv::new();
        m.step(&mkstep(vec![], 0), &env).unwrap();
        let snap = m.snapshot();
        assert!(m.step(&mkstep(vec!["e"], 0), &env).unwrap());
        assert!(m.current());
        m.restore(snap);
        assert!(!m.current());
        assert_eq!(m.steps(), 1);
        assert!(!m.step(&mkstep(vec![], 0), &env).unwrap());
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
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
                (inner.clone(), inner).prop_map(|(a, b)| Formula::since(a, b)),
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
                .map(|(events, x)| mkstep(events, x))
                .collect()
        })
    }

    proptest! {
        /// The monitor and the reference evaluator agree on every
        /// formula of the monitorable fragment and every trace.
        #[test]
        fn monitor_agrees_with_reference(f in arb_formula(), t in arb_trace()) {
            let env = MapEnv::new();
            for lowering in Lowering::ALL {
                prop_assert!(agree_on_trace(&f, lowering, &t, &env).unwrap());
            }
        }

        /// Agreement holds at every prefix, not just the end.
        #[test]
        fn monitor_agrees_on_all_prefixes(f in arb_formula(), t in arb_trace()) {
            let env = MapEnv::new();
            let mut m = Monitor::new(&f, Lowering::Delta).unwrap();
            for (pos, step) in t.iter().enumerate() {
                let mv = m.step(step, &env).unwrap();
                let ev = eval_at(&f, &t, pos, &env).unwrap();
                prop_assert_eq!(mv, ev, "disagreement at position {}", pos);
            }
        }

        /// `peek` on a monitor synced to a prefix equals the reference
        /// evaluation of the prefix with the step appended — the exact
        /// contract the runtime's permission path relies on.
        #[test]
        fn peek_matches_appended_eval(f in arb_formula(), t in arb_trace()) {
            let env = MapEnv::new();
            let mut m = Monitor::new(&f, Lowering::Delta).unwrap();
            let mut prefix = Trace::new();
            for step in t.iter() {
                let peeked = m.peek(step, &env).unwrap();
                let reference =
                    crate::eval::eval_now_appended(&f, &prefix, step, &env).unwrap();
                prop_assert_eq!(peeked, reference);
                m.step(step, &env).unwrap();
                prefix.push(step.clone());
            }
        }
    }
}
