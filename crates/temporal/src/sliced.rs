//! Sliced parametric monitors: one incremental monitor for a past
//! formula ψ(x) at *every* value of its slice variable x at once.
//!
//! TROLL permissions are past formulas parameterised by event
//! arguments — `{ sometime(after(hire(P))) } fire(P)` — or quantified
//! over a recorded collection — `{ for all(P in hired_ever :
//! sometime(after(fire(P)))) } closure`. Grounding x per value gives
//! one [`crate::Monitor`] per value, each replaying the history on its
//! first use; a quantifier needs one per element, at every check.
//! Following the trace slicing of Chen & Roşu ("Parametric Trace
//! Slicing and Monitoring", TACAS 2009), a [`SlicedMonitor`] instead
//! keeps:
//!
//! * **the default slice** — the monitor state of every value no
//!   committed event has mentioned: for such a value each pattern at
//!   x's position is false at every step, so they all share one state;
//! * **forks** — a value gets its own entry the first time a committed
//!   occurrence carries it at a slice position of a pattern (same event
//!   name and arity). Up to that step its state *was* the default's;
//! * **shared states** — entries whose monitor states are equal are
//!   one class (a union-find root). A commit advances every distinct
//!   class state once, then recomputes only the values the step
//!   mentions, so its cost does not grow with the number of values.
//!
//! The fragment is past-only and quantifier-free below the binder; x
//! may occur only as a whole event-pattern argument (never inside a
//! state predicate), and every other pattern argument must be closed.
//! The slice variable is either bound by a top-level `for all` /
//! `exists (x in D : ψ)` — D is evaluated on the peeked step, and the
//! quantifier folds over D's elements in the scan's order with the
//! scan's short-circuit — or it is the formula's only pattern variable,
//! read from the check-time environment exactly as the scan reads it.

use crate::{EventPattern, Formula, Result, Step, TemporalError};
use std::collections::HashMap;
use troll_data::{DataError, Env, Layered, MapEnv, Quantifier, Term, Value};
use troll_vm::{Compiled, Lowering};

/// A slice state is one bit per flattened node.
const MAX_NODES: usize = 64;

/// One argument slot of a pattern, resolved once at construction.
#[derive(Debug, Clone)]
enum Arg {
    /// Wildcard `_`.
    Any,
    /// A closed argument term, evaluated once.
    Is(Value),
    /// The slice variable.
    Slice,
}

#[derive(Debug, Clone)]
struct Pattern {
    name: String,
    args: Vec<Arg>,
}

impl Pattern {
    /// Whether any occurrence of `step` matches, with the slice
    /// variable bound to `value` — the semantics of the scan's
    /// `pattern_matches`.
    fn matches(&self, step: &Step, value: Option<&Value>) -> bool {
        step.events.iter().any(|occ| {
            occ.name == self.name
                && (self.args.is_empty()
                    || (occ.args.len() == self.args.len()
                        && self.args.iter().zip(&occ.args).all(|(a, actual)| match a {
                            Arg::Any => true,
                            Arg::Is(v) => v == actual,
                            Arg::Slice => value == Some(actual),
                        })))
        })
    }

    fn slices(&self) -> bool {
        self.args.iter().any(|a| matches!(a, Arg::Slice))
    }
}

/// Flattened subformula node, children before parents.
#[derive(Debug, Clone)]
enum Node {
    Pred(Compiled),
    Occurs(Pattern),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Implies(usize, usize),
    Sometime(usize),
    AlwaysPast(usize),
    Previous(usize),
    Since(usize, usize),
}

/// Where the slice variable gets its value at peek time.
#[derive(Debug, Clone)]
enum Binder {
    /// A rigid variable of the check-time environment (a permission
    /// parameter): one slice is peeked.
    Param,
    /// `for all` / `exists (x in domain : ψ)`: the quantifier folds over
    /// the domain's elements, peeking each one's slice.
    Quant { q: Quantifier, domain: Compiled },
}

/// One incremental monitor for a one-variable past formula at every
/// value of the variable. See the module docs for the fragment.
///
/// # Example
///
/// ```
/// use troll_data::{MapEnv, Term, Value};
/// use troll_temporal::{EventPattern, Formula, SlicedMonitor, Step};
/// use troll_vm::Lowering;
///
/// // for all(P in staff : sometime(after(fire(P))))
/// let phi = Formula::forall(
///     "P",
///     Term::var("staff"),
///     Formula::sometime(Formula::after(EventPattern::new(
///         "fire",
///         vec![Some(Term::var("P"))],
///     ))),
/// );
/// let mut m = SlicedMonitor::new(&phi, Lowering::Delta)?;
/// let env = MapEnv::new();
/// let staff = |names: &[&str]| {
///     Step::new(vec![], [(
///         "staff".to_string(),
///         Value::set_of(names.iter().map(|n| Value::from(*n))),
///     )])
/// };
/// let fire = |n: &str| Step::new(vec![("fire", vec![Value::from(n)]).into()], []);
/// m.step(&fire("ada"), &env)?;
/// assert!(m.peek(&staff(&["ada"]), &env)?);
/// assert!(!m.peek(&staff(&["ada", "bob"]), &env)?);
/// # Ok::<(), troll_temporal::TemporalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SlicedMonitor {
    var: String,
    binder: Binder,
    nodes: Vec<Node>,
    /// Indices of the `Occurs` nodes with a slice argument.
    slot_nodes: Vec<usize>,
    /// Bits of the node values the next step reads back (`sometime`,
    /// `always`, `since` and the operand of `previous`); a state keeps
    /// only these, so slices that differ elsewhere still share.
    memory: u64,
    steps: usize,
    /// Union-find parent of each class; a root is its own parent.
    parent: Vec<u32>,
    /// Masked monitor state of each class (meaningful for roots).
    state: Vec<u64>,
    /// The live classes, one per distinct state.
    roots: Vec<u32>,
    /// The class of every value no committed event has mentioned.
    default: u32,
    /// The class of every forked value. Identity values are shared
    /// handles, so a fork's key costs a reference count, not a copy.
    /// Hashed, not ordered: a probe hashes the value once, where an
    /// ordered search compares it with ~log2(n) keys, each compare
    /// chasing pointers through both identities.
    forks: HashMap<Value, u32>,
}

impl SlicedMonitor {
    /// Compiles `formula` into a sliced monitor.
    ///
    /// # Errors
    ///
    /// Returns [`TemporalError::UnsupportedByMonitor`] if the formula is
    /// outside the sliced fragment: future operators, nested
    /// quantifiers, the slice variable inside a state predicate or a
    /// compound pattern argument, a second pattern variable, a closed
    /// argument that fails to evaluate, more than 64 nodes — or, without
    /// a top-level quantifier, no pattern variable at all (use a plain
    /// [`crate::Monitor`]).
    pub fn new(formula: &Formula, lowering: Lowering) -> Result<Self> {
        let (var, binder, body) = match formula {
            Formula::Quant {
                q,
                var,
                domain,
                body,
            } => (
                var.clone(),
                Binder::Quant {
                    q: *q,
                    domain: Compiled::new(domain.clone(), lowering),
                },
                body.as_ref(),
            ),
            _ => {
                let mut vars = Vec::new();
                pattern_vars(formula, &mut vars);
                match vars.as_slice() {
                    [var] => (var.clone(), Binder::Param, formula),
                    [] => return Err(unsupported("no slice variable")),
                    _ => return Err(unsupported("more than one pattern variable")),
                }
            }
        };
        let mut nodes = Vec::new();
        flatten(body, &var, lowering, &mut nodes)?;
        if nodes.len() > MAX_NODES {
            return Err(unsupported("formula too large to slice"));
        }
        let mut memory = 0u64;
        let mut slot_nodes = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            match node {
                Node::Sometime(_) | Node::AlwaysPast(_) | Node::Since(..) => memory |= 1 << i,
                Node::Previous(a) => memory |= 1 << a,
                Node::Occurs(p) if p.slices() => slot_nodes.push(i),
                _ => {}
            }
        }
        Ok(SlicedMonitor {
            var,
            binder,
            nodes,
            slot_nodes,
            memory,
            steps: 0,
            parent: vec![0],
            state: vec![0],
            roots: vec![0],
            default: 0,
            forks: HashMap::new(),
        })
    }

    /// Number of steps consumed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of distinct slice states (the default's included) — the
    /// per-commit work, independent of how many values were forked.
    pub fn slice_states(&self) -> usize {
        self.roots.len()
    }

    /// Number of values forked from the default slice.
    pub fn forked(&self) -> usize {
        self.forks.len()
    }

    /// Feeds the next committed step to every slice.
    ///
    /// # Errors
    ///
    /// Propagates state-predicate evaluation errors; the monitor must
    /// then be discarded.
    pub fn step(&mut self, step: &Step, env: &dyn Env) -> Result<()> {
        crate::obs::monitor_steps().inc();
        let first = self.steps == 0;
        let leaves = self.leaves(step, env)?;
        let touched = self.touched(step);
        let before: Vec<u64> = touched
            .iter()
            .map(|&(v, _)| {
                let class = self.class_of(v);
                self.state[class as usize]
            })
            .collect();
        // every distinct state advances once, as an untouched value's;
        // roots reaching a state an earlier root reached merge into it
        let mut kept = 0;
        for j in 0..self.roots.len() {
            let r = self.roots[j];
            let next = self.advance(self.state[r as usize], leaves, first) & self.memory;
            match self.root_with(&self.roots[..kept], next) {
                Some(k) => self.parent[r as usize] = k,
                None => {
                    self.state[r as usize] = next;
                    self.roots[kept] = r;
                    kept += 1;
                }
            }
        }
        self.roots.truncate(kept);
        // then each mentioned value takes the state its own slice reaches
        for ((value, slots), before) in touched.into_iter().zip(before) {
            let next = self.advance(before, leaves | slots, first) & self.memory;
            let class = self.root_with(&self.roots, next).unwrap_or_else(|| {
                let k = self.parent.len() as u32;
                self.parent.push(k);
                self.state.push(next);
                self.roots.push(k);
                k
            });
            self.forks.insert(value.clone(), class);
        }
        self.steps += 1;
        Ok(())
    }

    /// Evaluates the formula as if `step` were appended to the consumed
    /// history, without advancing any slice: the slice of the
    /// environment's value of the slice variable, or the quantifier
    /// folded over its domain.
    ///
    /// Takes `&mut self` only to shorten union-find paths.
    ///
    /// # Errors
    ///
    /// Predicate-evaluation errors, an unbound slice variable, or a
    /// quantifier domain that is not a set or list.
    pub fn peek(&mut self, step: &Step, env: &dyn Env) -> Result<bool> {
        crate::obs::monitor_peeks().inc();
        let first = self.steps == 0;
        let leaves = self.leaves(step, env)?;
        let touched = self.touched(step);
        let Binder::Quant { q, domain } = &self.binder else {
            let value = env
                .lookup(&self.var)
                .ok_or_else(|| DataError::UnboundVariable(self.var.clone()))?;
            return Ok(self.holds(&value, &touched, leaves, first));
        };
        let q = *q;
        let dom = domain.eval(&Layered {
            top: step,
            base: env,
        })?;
        let elems: Box<dyn Iterator<Item = &Value>> = match &dom {
            Value::Set(s) => Box::new(s.iter()),
            Value::List(l) => Box::new(l.iter()),
            other => return Err(TemporalError::NonFiniteDomain(other.to_string())),
        };
        // an element the peeked step does not mention answers as its
        // class does: compute that once per class
        let mut by_class: Vec<(u32, bool)> = Vec::new();
        for elem in elems {
            let holds = if touched.iter().any(|&(v, _)| v == elem) {
                self.holds(elem, &touched, leaves, first)
            } else {
                let class = self.class_of(elem);
                match by_class.iter().find(|(c, _)| *c == class) {
                    Some(&(_, holds)) => holds,
                    None => {
                        let holds =
                            self.root_bit(self.advance(self.state[class as usize], leaves, first));
                        by_class.push((class, holds));
                        holds
                    }
                }
            };
            match (q, holds) {
                (Quantifier::Forall, false) => return Ok(false),
                (Quantifier::Exists, true) => return Ok(true),
                _ => {}
            }
        }
        Ok(matches!(q, Quantifier::Forall))
    }

    /// The root among `roots` whose state is `state`.
    fn root_with(&self, roots: &[u32], state: u64) -> Option<u32> {
        roots
            .iter()
            .copied()
            .find(|&k| self.state[k as usize] == state)
    }

    /// The truth value at the peeked step of `value`'s slice.
    fn holds(
        &mut self,
        value: &Value,
        touched: &[(&Value, u64)],
        leaves: u64,
        first: bool,
    ) -> bool {
        let slots = touched
            .iter()
            .find(|&&(v, _)| v == value)
            .map_or(0, |&(_, slots)| slots);
        let class = self.class_of(value);
        self.root_bit(self.advance(self.state[class as usize], leaves | slots, first))
    }

    fn root_bit(&self, cur: u64) -> bool {
        cur >> (self.nodes.len() - 1) & 1 == 1
    }

    /// The root class of `value` (the default's for an unforked value).
    fn class_of(&mut self, value: &Value) -> u32 {
        let class = self.forks.get_mut(value).unwrap_or(&mut self.default);
        *class = find(&mut self.parent, *class);
        *class
    }

    /// Bits of the leaves that do not depend on the slice variable.
    fn leaves(&self, step: &Step, env: &dyn Env) -> Result<u64> {
        let mut bits = 0u64;
        for (i, node) in self.nodes.iter().enumerate() {
            let holds = match node {
                Node::Pred(t) => {
                    let v = t.eval(&Layered {
                        top: step,
                        base: env,
                    })?;
                    v.as_bool()
                        .ok_or_else(|| TemporalError::NonBooleanPredicate {
                            predicate: t.to_string(),
                            value: v.to_string(),
                        })?
                }
                Node::Occurs(p) if !p.slices() => p.matches(step, None),
                _ => false,
            };
            if holds {
                bits |= 1 << i;
            }
        }
        Ok(bits)
    }

    /// The values `step` carries at a slice position of a pattern of
    /// matching name and arity, each with its slot-leaf bits. Every
    /// other value's slot leaves are false at this step.
    fn touched<'s>(&self, step: &'s Step) -> Vec<(&'s Value, u64)> {
        let mut touched: Vec<(&Value, u64)> = Vec::new();
        for occ in &step.events {
            for &i in &self.slot_nodes {
                let Node::Occurs(p) = &self.nodes[i] else {
                    continue;
                };
                if p.name != occ.name || p.args.len() != occ.args.len() {
                    continue;
                }
                for (a, actual) in p.args.iter().zip(&occ.args) {
                    if matches!(a, Arg::Slice) && !touched.iter().any(|&(v, _)| v == actual) {
                        touched.push((actual, 0));
                    }
                }
            }
        }
        for (value, slots) in &mut touched {
            for &i in &self.slot_nodes {
                if let Node::Occurs(p) = &self.nodes[i] {
                    if p.matches(step, Some(value)) {
                        *slots |= 1 << i;
                    }
                }
            }
        }
        touched
    }

    /// One bottom-up pass: every node's value at this step, given the
    /// leaf bits and the previous state — the [`crate::Monitor`]
    /// recurrence on bits.
    fn advance(&self, prev: u64, leaves: u64, first: bool) -> u64 {
        let bit = |bits: u64, i: usize| bits >> i & 1 == 1;
        let mut cur = 0u64;
        for (i, node) in self.nodes.iter().enumerate() {
            let holds = match node {
                Node::Pred(_) | Node::Occurs(_) => bit(leaves, i),
                Node::Not(a) => !bit(cur, *a),
                Node::And(a, b) => bit(cur, *a) && bit(cur, *b),
                Node::Or(a, b) => bit(cur, *a) || bit(cur, *b),
                Node::Implies(a, b) => !bit(cur, *a) || bit(cur, *b),
                Node::Sometime(a) => bit(cur, *a) || (!first && bit(prev, i)),
                Node::AlwaysPast(a) => bit(cur, *a) && (first || bit(prev, i)),
                Node::Previous(a) => !first && bit(prev, *a),
                Node::Since(a, b) => bit(cur, *b) || (bit(cur, *a) && !first && bit(prev, i)),
            };
            if holds {
                cur |= 1 << i;
            }
        }
        cur
    }
}

/// The root of `start`'s class, halving the path on the way.
fn find(parent: &mut [u32], start: u32) -> u32 {
    let mut i = start as usize;
    while parent[i] as usize != i {
        let grand = parent[parent[i] as usize];
        parent[i] = grand;
        i = grand as usize;
    }
    i as u32
}

fn unsupported(why: &str) -> TemporalError {
    TemporalError::UnsupportedByMonitor(why.into())
}

/// Distinct variables occurring as a whole pattern argument.
fn pattern_vars(f: &Formula, out: &mut Vec<String>) {
    match f {
        Formula::Occurs(p) | Formula::After(p) => {
            for arg in p.args.iter().flatten() {
                if let Term::Var(v) = arg {
                    if !out.contains(v) {
                        out.push(v.clone());
                    }
                }
            }
        }
        Formula::Pred(_) => {}
        Formula::Not(a)
        | Formula::Sometime(a)
        | Formula::AlwaysPast(a)
        | Formula::Previous(a)
        | Formula::Eventually(a)
        | Formula::Henceforth(a) => pattern_vars(a, out),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Since(a, b) => {
            pattern_vars(a, out);
            pattern_vars(b, out);
        }
        Formula::Quant { body, .. } => pattern_vars(body, out),
    }
}

fn pattern(p: &EventPattern, var: &str, lowering: Lowering) -> Result<Pattern> {
    let args = p
        .args
        .iter()
        .map(|a| match a {
            None => Ok(Arg::Any),
            Some(Term::Var(v)) if v == var => Ok(Arg::Slice),
            Some(t) if t.free_vars().is_empty() => {
                // closed: its value is the same at every step and in
                // every environment, so evaluate it once
                Compiled::new(t.clone(), lowering)
                    .eval(&MapEnv::new())
                    .map(Arg::Is)
                    .map_err(|_| unsupported("pattern argument fails to evaluate"))
            }
            Some(_) => Err(unsupported("open pattern argument")),
        })
        .collect::<Result<_>>()?;
    Ok(Pattern {
        name: p.name.clone(),
        args,
    })
}

/// Flattens `formula` into `nodes` (postorder) and returns the root index.
fn flatten(
    formula: &Formula,
    var: &str,
    lowering: Lowering,
    nodes: &mut Vec<Node>,
) -> Result<usize> {
    let node = match formula {
        Formula::Pred(t) => {
            if t.free_vars().iter().any(|v| v == var) {
                return Err(unsupported("slice variable inside a state predicate"));
            }
            Node::Pred(Compiled::new(t.clone(), lowering))
        }
        Formula::Occurs(p) | Formula::After(p) => Node::Occurs(pattern(p, var, lowering)?),
        Formula::Not(f) => Node::Not(flatten(f, var, lowering, nodes)?),
        Formula::And(a, b) => {
            let (a, b) = (
                flatten(a, var, lowering, nodes)?,
                flatten(b, var, lowering, nodes)?,
            );
            Node::And(a, b)
        }
        Formula::Or(a, b) => {
            let (a, b) = (
                flatten(a, var, lowering, nodes)?,
                flatten(b, var, lowering, nodes)?,
            );
            Node::Or(a, b)
        }
        Formula::Implies(a, b) => {
            let (a, b) = (
                flatten(a, var, lowering, nodes)?,
                flatten(b, var, lowering, nodes)?,
            );
            Node::Implies(a, b)
        }
        Formula::Sometime(f) => Node::Sometime(flatten(f, var, lowering, nodes)?),
        Formula::AlwaysPast(f) => Node::AlwaysPast(flatten(f, var, lowering, nodes)?),
        Formula::Previous(f) => Node::Previous(flatten(f, var, lowering, nodes)?),
        Formula::Since(a, b) => {
            let (a, b) = (
                flatten(a, var, lowering, nodes)?,
                flatten(b, var, lowering, nodes)?,
            );
            Node::Since(a, b)
        }
        Formula::Eventually(_) | Formula::Henceforth(_) => {
            return Err(unsupported("future operator"))
        }
        Formula::Quant { .. } => return Err(unsupported("nested quantifier")),
    };
    nodes.push(node);
    Ok(nodes.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledFormula, EventOccurrence, Trace};
    use proptest::prelude::*;
    use troll_data::Op;

    fn pat(name: &str, args: Vec<Option<Term>>) -> Formula {
        Formula::after(EventPattern::new(name, args))
    }

    fn v() -> Option<Term> {
        Some(Term::var("V"))
    }

    fn step(events: Vec<(&str, Vec<i64>)>, x: i64) -> Step {
        Step::new(
            events
                .into_iter()
                .map(|(n, a)| EventOccurrence::new(n, a.into_iter().map(Value::from).collect()))
                .collect(),
            [("x".to_string(), Value::from(x))],
        )
    }

    fn bound(value: i64) -> MapEnv {
        let mut env = MapEnv::new();
        env.bind("V", Value::from(value));
        env
    }

    #[test]
    fn fragment_gate() {
        let hired = Formula::sometime(pat("hire", vec![v()]));
        assert!(SlicedMonitor::new(&hired, Lowering::Delta).is_ok());
        let closure = Formula::forall("Q", Term::var("d"), pat("fire", vec![Some(Term::var("Q"))]));
        assert!(SlicedMonitor::new(&closure, Lowering::Delta).is_ok());
        // closed formulas belong to the plain monitor
        assert!(
            SlicedMonitor::new(&Formula::sometime(pat("hire", vec![None])), Lowering::Delta)
                .is_err()
        );
        // two pattern variables
        let two = Formula::sometime(pat("pair", vec![v(), Some(Term::var("W"))]));
        assert!(SlicedMonitor::new(&two, Lowering::Delta).is_err());
        // the slice variable inside a predicate
        let pred = Formula::and(
            hired.clone(),
            Formula::pred(Term::eq(Term::var("V"), Term::constant(1i64))),
        );
        assert!(SlicedMonitor::new(&pred, Lowering::Delta).is_err());
        // compound argument, future operator, nested quantifier
        let compound = pat(
            "hire",
            vec![Some(Term::apply(
                Op::Add,
                vec![Term::var("V"), Term::constant(1i64)],
            ))],
        );
        assert!(SlicedMonitor::new(&compound, Lowering::Delta).is_err());
        assert!(SlicedMonitor::new(&Formula::eventually(hired.clone()), Lowering::Delta).is_err());
        let nested = Formula::forall("Q", Term::var("d"), closure.clone());
        assert!(SlicedMonitor::new(&nested, Lowering::Delta).is_err());
        // a closed argument beside the slice variable is fine
        let mixed = pat("pair", vec![v(), Some(Term::constant(2i64))]);
        assert!(SlicedMonitor::new(&mixed, Lowering::Delta).is_ok());
    }

    #[test]
    fn forks_keep_slice_states_bounded() {
        let phi = Formula::sometime(pat("hire", vec![v()]));
        let mut m = SlicedMonitor::new(&phi, Lowering::Delta).unwrap();
        let env = MapEnv::new();
        for i in 0..1000 {
            m.step(&step(vec![("hire", vec![i])], 0), &env).unwrap();
            assert!(m.slice_states() <= 2, "{} states", m.slice_states());
        }
        assert_eq!(m.forked(), 1000);
        let quiet = step(vec![], 0);
        assert!(m.peek(&quiet, &bound(999)).unwrap());
        assert!(m.peek(&quiet, &bound(0)).unwrap());
        assert!(!m.peek(&quiet, &bound(1000)).unwrap());

        // `previous` forks a fresh state per hire that rejoins the
        // default one step later
        let prev = Formula::previous(pat("hire", vec![v()]));
        let mut m = SlicedMonitor::new(&prev, Lowering::Delta).unwrap();
        for i in 0..1000 {
            m.step(&step(vec![("hire", vec![i])], 0), &env).unwrap();
            assert!(m.slice_states() <= 2);
        }
        assert!(m.peek(&quiet, &bound(999)).unwrap());
        assert!(!m.peek(&quiet, &bound(998)).unwrap());
    }

    #[test]
    fn quantifier_errors_surface() {
        let phi = Formula::forall("Q", Term::var("x"), pat("fire", vec![Some(Term::var("Q"))]));
        let mut m = SlicedMonitor::new(&phi, Lowering::Delta).unwrap();
        let e = m.peek(&step(vec![], 3), &MapEnv::new()).unwrap_err();
        assert!(matches!(e, TemporalError::NonFiniteDomain(_)));
        let param = SlicedMonitor::new(&Formula::sometime(pat("hire", vec![v()])), Lowering::Delta);
        assert!(param
            .unwrap()
            .peek(&step(vec![], 0), &MapEnv::new())
            .is_err());
    }

    /// Leaves of one-variable past formulas: slice patterns at several
    /// positions and arities, closed and wildcard patterns, a state
    /// predicate.
    fn arb_formula() -> impl Strategy<Value = Formula> {
        let leaf = prop_oneof![
            Just(pat("a", vec![v()])),
            Just(pat("b", vec![v()])),
            Just(pat("two", vec![v(), Some(Term::constant(1i64))])),
            Just(pat("two", vec![None, v()])),
            Just(pat("two", vec![v(), v()])),
            Just(pat("a", vec![])),
            Just(pat("b", vec![Some(Term::constant(2i64))])),
            Just(Formula::pred(Term::apply(
                Op::Ge,
                vec![Term::var("x"), Term::constant(1i64)]
            ))),
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

    /// Traces over values 0..4; the checks also ask about 4..7, which
    /// no trace mentions.
    fn arb_trace() -> impl Strategy<Value = Trace> {
        let event = prop_oneof![
            (0i64..4).prop_map(|a| ("a", vec![a])),
            (0i64..4).prop_map(|a| ("b", vec![a])),
            (0i64..4, 0i64..3).prop_map(|(a, b)| ("two", vec![a, b])),
            Just(("c", vec![])),
        ];
        proptest::collection::vec((proptest::collection::vec(event, 0..3), 0i64..3), 1..14)
            .prop_map(|steps| steps.into_iter().map(|(e, x)| step(e, x)).collect())
    }

    fn contains_slice(f: &Formula) -> bool {
        let mut vars = Vec::new();
        pattern_vars(f, &mut vars);
        !vars.is_empty()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Peeking the slice of every value — forked, default-shared or
        /// never mentioned — equals the compiled scan of the formula with
        /// the value bound, at every prefix of the trace.
        #[test]
        fn sliced_param_matches_scan(f in arb_formula(), t in arb_trace()) {
            // a formula without the variable is not parametric: give it one
            let f = if contains_slice(&f) { f } else { Formula::or(f, pat("a", vec![v()])) };
            let mut m = SlicedMonitor::new(&f, Lowering::Delta).unwrap();
            let scan = CompiledFormula::new(&f, Lowering::Delta);
            let mut prefix = Trace::new();
            for s in t.iter() {
                for value in 0..7 {
                    let env = bound(value);
                    prop_assert_eq!(
                        m.peek(s, &env).unwrap(),
                        scan.eval_now_appended(&prefix, s, &env).unwrap(),
                        "value {} at position {}", value, prefix.len()
                    );
                }
                m.step(s, &MapEnv::new()).unwrap();
                prefix.push(s.clone());
            }
        }

        /// `for all` / `exists` over a domain that includes values the
        /// trace never mentions fold exactly like the scan.
        #[test]
        fn sliced_quantifier_matches_scan(
            f in arb_formula(),
            t in arb_trace(),
            dom in proptest::collection::vec(0i64..7, 0..6),
            forall in any::<bool>(),
        ) {
            let domain = Term::constant(Value::set_of(dom.into_iter().map(Value::from)));
            let q = if forall {
                Formula::forall("V", domain, f)
            } else {
                Formula::exists("V", domain, f)
            };
            let mut m = SlicedMonitor::new(&q, Lowering::Delta).unwrap();
            let scan = CompiledFormula::new(&q, Lowering::Delta);
            let env = MapEnv::new();
            let mut prefix = Trace::new();
            for s in t.iter() {
                prop_assert_eq!(
                    m.peek(s, &env).unwrap(),
                    scan.eval_now_appended(&prefix, s, &env).unwrap(),
                    "position {}", prefix.len()
                );
                m.step(s, &env).unwrap();
                prefix.push(s.clone());
            }
        }
    }
}
