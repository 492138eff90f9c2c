//! Evaluation environments over the object base.
//!
//! TROLL terms inside rules reference, besides rule parameters:
//! attribute names (`employees`), `self` (a tuple of the object's
//! attributes plus its identity under the field `surrogate`),
//! incorporation/component aliases (`employees.Emps` reads the
//! incorporated `emp_rel`'s attribute), and class populations
//! (`population(PERSON)` from quantified permissions). This module
//! materializes exactly the bindings a term needs.

use crate::{Result, RuntimeError};
use std::collections::{BTreeMap, BTreeSet};
use troll_data::{Env, MapEnv, ObjectId, StateMap, Value};
use troll_lang::{ClassModel, SystemModel};

/// Maximum recursion depth when materializing instance tuples (an
/// incorporated object's derived attributes may read further objects).
const MAX_TUPLE_DEPTH: usize = 8;

/// A read view of the world during evaluation: committed instances,
/// possibly overlaid with in-step working states.
pub(crate) trait World {
    /// The analyzed model.
    fn model(&self) -> &SystemModel;
    /// The (possibly in-step) attribute state of an instance — a shared
    /// handle onto the stored snapshot, not a copy.
    fn state_of(&self, id: &ObjectId) -> Option<StateMap>;
    /// Identities of alive members of a class (creation class or active
    /// role).
    fn population(&self, class: &str) -> Vec<ObjectId>;
    /// The identity of a singleton object class.
    fn singleton_id(&self, class: &str) -> Option<ObjectId>;
    /// The compiled rules of a model class.
    fn compiled_class(&self, class: &str) -> &crate::compiled::CompiledClass;
}

/// Builds the value of an instance as a tuple: stored attributes,
/// derived attributes (computed), and the identity under `surrogate`.
pub(crate) fn instance_tuple(world: &dyn World, id: &ObjectId, depth: usize) -> Result<Value> {
    if depth > MAX_TUPLE_DEPTH {
        return Err(RuntimeError::ViewError(format!(
            "derivation recursion deeper than {MAX_TUPLE_DEPTH} at {id}"
        )));
    }
    let state = world
        .state_of(id)
        .ok_or_else(|| RuntimeError::UnknownInstance(id.to_string()))?;
    let class = world
        .model()
        .class(id.class())
        .ok_or_else(|| RuntimeError::UnknownClass(id.class().to_string()))?;
    let mut fields: Vec<(String, Value)> = Vec::with_capacity(state.len() + 2);
    for (k, v) in &state {
        fields.push((k.to_string(), v.clone()));
    }
    fields.push(("surrogate".to_string(), Value::Id(id.clone())));
    // derived attributes, computed against an env of the stored state
    if !class.derivation.is_empty() {
        let env = env_for_instance(world, id, class, &state, &BTreeMap::new(), depth)?;
        let compiled = &world.compiled_class(&class.name).derivations;
        for (rule, value) in class.derivation.iter().zip(compiled) {
            match value.eval(&env) {
                Ok(v) => fields.push((rule.attribute.clone(), v)),
                // a derived attribute may be undefined (e.g. key not yet
                // present in the base relation); observe it as undefined
                Err(troll_data::DataError::Undefined(_)) => {
                    fields.push((rule.attribute.clone(), Value::Undefined))
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(Value::tuple_of(fields))
}

/// The environment rule terms evaluate against: a small [`MapEnv`] of
/// overrides (alias tuples, parameters, on-demand bindings) layered over
/// a shared handle onto the instance's [`StateMap`]. Building one costs
/// O(overrides), not O(|state|) — the state is never copied into it.
#[derive(Debug)]
pub(crate) struct RuleEnv {
    /// Bindings that shadow the state: aliases, then parameters.
    over: MapEnv,
    /// The instance's attribute state (shared snapshot).
    state: StateMap,
}

impl RuleEnv {
    /// Binds an override (shadows any state attribute of that name).
    pub(crate) fn bind(&mut self, name: impl Into<String>, value: Value) {
        self.over.bind(name, value);
    }
}

impl Env for RuleEnv {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.over
            .lookup(name)
            .or_else(|| self.state.get(name).cloned())
    }
}

/// Materializes the environment for evaluating rule terms of an
/// occurrence on `id` in context class `class`, with `params` bound.
///
/// The state rides along as a shared snapshot underneath the override
/// layer (role attributes shadowing base attributes, or a threaded
/// working state, are merged into `state` by the caller).
pub(crate) fn build_env(
    world: &dyn World,
    id: &ObjectId,
    class: &ClassModel,
    state: &StateMap,
    params: &BTreeMap<String, Value>,
    needed: &BTreeSet<String>,
) -> Result<RuleEnv> {
    let mut env = env_for_instance(world, id, class, state, params, 0)?;
    // populations on demand
    for var in needed {
        if let Some(class_name) = var
            .strip_prefix("population(")
            .and_then(|s| s.strip_suffix(')'))
        {
            let ids = world.population(class_name);
            env.bind(var.clone(), Value::set_of(ids.into_iter().map(Value::Id)));
        }
    }
    // self tuple (stored + derived + surrogate) on demand
    if needed.contains("self") {
        env.bind("self", self_tuple(world, id, class, state)?);
    }
    Ok(env)
}

/// Core environment: the shared state underneath, with alias tuples for
/// incorporated objects / single components and then parameters layered
/// on top (parameters shadow aliases shadow attributes).
fn env_for_instance(
    world: &dyn World,
    id: &ObjectId,
    class: &ClassModel,
    state: &StateMap,
    params: &BTreeMap<String, Value>,
    depth: usize,
) -> Result<RuleEnv> {
    let mut over = MapEnv::new();
    // aliases shadow their raw Id values with the target's tuple
    for (object, alias) in &class.inheriting {
        if let Some(target) = resolve_alias(world, state, alias, object) {
            if world.state_of(&target).is_some() {
                over.bind(alias.clone(), instance_tuple(world, &target, depth + 1)?);
            }
        }
    }
    for comp in &class.components {
        if comp.kind == troll_lang::ast::ComponentKind::Single {
            if let Some(target) = resolve_alias(world, state, &comp.name, &comp.class) {
                if world.state_of(&target).is_some() {
                    over.bind(
                        comp.name.clone(),
                        instance_tuple(world, &target, depth + 1)?,
                    );
                }
            }
        }
    }
    // parameters bind last: they shadow attributes and aliases
    for (k, v) in params {
        over.bind(k.clone(), v.clone());
    }
    let _ = id;
    Ok(RuleEnv {
        over,
        state: state.clone(),
    })
}

/// Returns a version of `state` in which incorporation aliases and
/// single components are replaced by their target instance's tuple
/// (shares all untouched structure with `state`; for a class with no
/// aliases it is the same snapshot) — needed
/// wherever a state map is evaluated as a temporal `Step` (step state
/// shadows the ambient environment, so the raw Id/undefined entry would
/// otherwise hide the materialized binding).
pub(crate) fn materialize_aliases(
    world: &dyn World,
    class: &ClassModel,
    state: &StateMap,
) -> Result<StateMap> {
    let mut out = state.clone();
    for (object, alias) in &class.inheriting {
        if let Some(target) = resolve_alias(world, state, alias, object) {
            if world.state_of(&target).is_some() {
                out.insert(alias.clone(), instance_tuple(world, &target, 1)?);
            }
        }
    }
    for comp in &class.components {
        if comp.kind == troll_lang::ast::ComponentKind::Single {
            if let Some(target) = resolve_alias(world, state, &comp.name, &comp.class) {
                if world.state_of(&target).is_some() {
                    out.insert(comp.name.clone(), instance_tuple(world, &target, 1)?);
                }
            }
        }
    }
    Ok(out)
}

/// Resolves an alias to a target identity: the stored Id value if set,
/// else the singleton instance of the target class.
pub(crate) fn resolve_alias(
    world: &dyn World,
    state: &StateMap,
    alias: &str,
    target_class: &str,
) -> Option<ObjectId> {
    match state.get(alias) {
        Some(Value::Id(id)) => Some(id.clone()),
        _ => world.singleton_id(target_class),
    }
}

/// The `self` tuple: stored attributes + derived attributes + surrogate.
pub(crate) fn self_tuple(
    world: &dyn World,
    id: &ObjectId,
    class: &ClassModel,
    state: &StateMap,
) -> Result<Value> {
    let mut fields: Vec<(String, Value)> = state
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    fields.push(("surrogate".to_string(), Value::Id(id.clone())));
    if !class.derivation.is_empty() {
        let env = env_for_instance(world, id, class, state, &BTreeMap::new(), 0)?;
        let compiled = &world.compiled_class(&class.name).derivations;
        for (rule, value) in class.derivation.iter().zip(compiled) {
            match value.eval(&env) {
                Ok(v) => fields.push((rule.attribute.clone(), v)),
                Err(troll_data::DataError::Undefined(_)) => {
                    fields.push((rule.attribute.clone(), Value::Undefined))
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(Value::tuple_of(fields))
}

/// Collects the variable names a term may need (free variables,
/// over-approximated — selection predicates contribute their variables
/// too, which is harmless for provisioning).
pub(crate) fn needed_vars(terms: &[&troll_data::Term]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for t in terms {
        out.extend(t.free_vars());
    }
    out
}

/// Collects variables needed by a formula (predicates, pattern
/// arguments, quantifier domains).
pub(crate) fn formula_needed_vars(f: &troll_temporal::Formula, out: &mut BTreeSet<String>) {
    use troll_temporal::Formula::*;
    match f {
        Pred(t) => out.extend(t.free_vars()),
        Occurs(p) | After(p) => {
            for a in p.args.iter().flatten() {
                out.extend(a.free_vars());
            }
        }
        Not(g) | Sometime(g) | AlwaysPast(g) | Previous(g) | Eventually(g) | Henceforth(g) => {
            formula_needed_vars(g, out)
        }
        And(a, b) | Or(a, b) | Implies(a, b) | Since(a, b) => {
            formula_needed_vars(a, out);
            formula_needed_vars(b, out);
        }
        Quant { domain, body, .. } => {
            out.extend(domain.free_vars());
            formula_needed_vars(body, out);
        }
    }
}
