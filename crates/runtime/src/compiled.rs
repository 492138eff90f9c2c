//! The compiled form of an analyzed model: every rule term the step
//! engine evaluates on its hot path, lowered to bytecode **once** at
//! `ObjectBase` build time, together with each rule's precomputed
//! needed-variable set (callers used to re-derive a `BTreeSet<String>`
//! per evaluation via `env::needed_vars`/`formula_needed_vars`).
//!
//! Indices mirror the model exactly: valuation and permission programs
//! are grouped per event by replaying the same `valuation_for` /
//! `permissions_for` filters the evaluation sites use, so position `i`
//! of a group corresponds to the `i`-th rule those iterators yield
//! (permission `CheckKey`s depend on that index staying stable).
//! Constraints, derivations, parameterized attributes and calling
//! rules are parallel vectors over their model counterparts.
//!
//! Every object base builds one, under the [`Lowering`] its model was
//! compiled with: the oracle lowerings change how each term evaluates,
//! never which rules exist or where they sit.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use troll_lang::{ClassModel, EventTarget, LoweredCall, SystemModel};
use troll_temporal::CompiledFormula;
use troll_vm::{Compiled, Lowering};

use crate::env;

/// A valuation rule's compiled guard and value.
#[derive(Debug)]
pub(crate) struct CompiledValuation {
    /// The attribute the rule sets, as the shared key handle a state
    /// update takes, so a step clones a pointer rather than the name.
    pub(crate) attribute: Arc<str>,
    pub(crate) guard: Option<Compiled>,
    pub(crate) value: Compiled,
    /// Union of guard and value free variables.
    pub(crate) needed: BTreeSet<String>,
}

/// A permission formula's compiled scan form plus its precomputed
/// needed-variable set. Monitorable formulas on base histories are
/// answered by the monitor cache (whose state predicates are compiled
/// inside `troll_temporal::Monitor`); everything else — role-context
/// checks and unmonitorable formulas — scans through `scan`, the
/// bytecode twin of the reference evaluator.
#[derive(Debug)]
pub(crate) struct CompiledPermission {
    pub(crate) scan: CompiledFormula,
    pub(crate) needed: BTreeSet<String>,
}

/// A constraint formula's compiled scan form plus its precomputed
/// needed-variable set.
#[derive(Debug)]
pub(crate) struct CompiledConstraint {
    pub(crate) scan: CompiledFormula,
    pub(crate) needed: BTreeSet<String>,
}

/// One called event of a calling rule: compiled argument terms plus
/// the compiled instance-designator term for `EventTarget::Instance`.
#[derive(Debug)]
pub(crate) struct CompiledCall {
    pub(crate) args: Vec<Compiled>,
    pub(crate) target_id: Option<Compiled>,
    /// Union of argument and designator free variables.
    pub(crate) needed: BTreeSet<String>,
}

/// A parameterized attribute family's compiled derivation.
#[derive(Debug)]
pub(crate) struct CompiledParamAttr {
    pub(crate) value: Compiled,
    pub(crate) needed: BTreeSet<String>,
}

/// Everything compiled for one class.
#[derive(Debug)]
pub(crate) struct CompiledClass {
    /// Valuation rules grouped by event (same order as `valuation_for`).
    valuations: BTreeMap<String, Vec<CompiledValuation>>,
    /// Permissions grouped by event (same order as `permissions_for`).
    permissions: BTreeMap<String, Vec<CompiledPermission>>,
    /// Parallel to `ClassModel::constraints`.
    pub(crate) constraints: Vec<CompiledConstraint>,
    /// Parallel to `ClassModel::derivation`.
    pub(crate) derivations: Vec<Compiled>,
    /// Parallel to `ClassModel::param_attributes`.
    pub(crate) param_attrs: Vec<CompiledParamAttr>,
    /// `interactions[i][j]` compiles `ClassModel::interactions[i].calls[j]`.
    pub(crate) interactions: Vec<Vec<CompiledCall>>,
}

impl CompiledClass {
    fn new(class: &ClassModel, lowering: Lowering) -> CompiledClass {
        let mut valuations: BTreeMap<String, Vec<CompiledValuation>> = BTreeMap::new();
        for rule in &class.valuation {
            let mut needed = env::needed_vars(&[&rule.value]);
            if let Some(g) = &rule.guard {
                needed.extend(env::needed_vars(&[g]));
            }
            valuations
                .entry(rule.event.clone())
                .or_default()
                .push(CompiledValuation {
                    attribute: Arc::from(rule.attribute.as_str()),
                    guard: rule.guard.clone().map(|g| Compiled::new(g, lowering)),
                    // delta-aware: `attr := insert(x, attr)`-shaped
                    // value terms lower to incremental collection
                    // updates (see `troll_vm::Compiled::new_valuation`)
                    value: Compiled::new_valuation(rule.value.clone(), &rule.attribute, lowering),
                    needed,
                });
        }
        let mut permissions: BTreeMap<String, Vec<CompiledPermission>> = BTreeMap::new();
        for perm in &class.permissions {
            let mut needed = BTreeSet::new();
            env::formula_needed_vars(&perm.formula, &mut needed);
            permissions
                .entry(perm.event.clone())
                .or_default()
                .push(CompiledPermission {
                    scan: CompiledFormula::new(&perm.formula, lowering),
                    needed,
                });
        }
        let constraints = class
            .constraints
            .iter()
            .map(|c| {
                let mut needed = BTreeSet::new();
                env::formula_needed_vars(&c.formula, &mut needed);
                CompiledConstraint {
                    scan: CompiledFormula::new(&c.formula, lowering),
                    needed,
                }
            })
            .collect();
        let derivations = class
            .derivation
            .iter()
            .map(|d| Compiled::new(d.value.clone(), lowering))
            .collect();
        let param_attrs = class
            .param_attributes
            .iter()
            .map(|p| CompiledParamAttr {
                needed: env::needed_vars(&[&p.value]),
                value: Compiled::new(p.value.clone(), lowering),
            })
            .collect();
        let interactions = class
            .interactions
            .iter()
            .map(|rule| compile_calls(&rule.calls, lowering))
            .collect();
        CompiledClass {
            valuations,
            permissions,
            constraints,
            derivations,
            param_attrs,
            interactions,
        }
    }

    /// The compiled valuation rule that `valuation_for(event)` yields at
    /// position `index`.
    pub(crate) fn valuation(&self, event: &str, index: usize) -> &CompiledValuation {
        &self.valuations[event][index]
    }

    /// The compiled permission that `permissions_for(event)` yields at
    /// position `index`.
    pub(crate) fn permission(&self, event: &str, index: usize) -> &CompiledPermission {
        &self.permissions[event][index]
    }
}

fn compile_calls(calls: &[LoweredCall], lowering: Lowering) -> Vec<CompiledCall> {
    calls
        .iter()
        .map(|call| CompiledCall::new(call, lowering))
        .collect()
}

impl CompiledCall {
    fn new(call: &LoweredCall, lowering: Lowering) -> CompiledCall {
        let mut needed = env::needed_vars(&call.args.iter().collect::<Vec<_>>());
        let target_id = match &call.target {
            EventTarget::Instance { id, .. } => {
                needed.extend(id.free_vars());
                Some(Compiled::new(id.clone(), lowering))
            }
            _ => None,
        };
        CompiledCall {
            args: call
                .args
                .iter()
                .map(|a| Compiled::new(a.clone(), lowering))
                .collect(),
            target_id,
            needed,
        }
    }
}

/// The whole model, compiled. Built once per [`crate::SharedModel`] or
/// `ObjectBase::new` and shared (behind an `Arc`) with every world
/// spawned from it.
#[derive(Debug)]
pub(crate) struct CompiledModel {
    lowering: Lowering,
    classes: BTreeMap<String, CompiledClass>,
    /// `globals[i][j]` compiles `SystemModel::global_interactions[i].calls[j]`.
    pub(crate) globals: Vec<Vec<CompiledCall>>,
}

impl CompiledModel {
    pub(crate) fn new(model: &SystemModel, lowering: Lowering) -> CompiledModel {
        CompiledModel {
            lowering,
            classes: model
                .classes
                .iter()
                .map(|(name, class)| (name.clone(), CompiledClass::new(class, lowering)))
                .collect(),
            globals: model
                .global_interactions
                .iter()
                .map(|rule| compile_calls(&rule.calls, lowering))
                .collect(),
        }
    }

    /// The lowering every term of this model was built with.
    pub(crate) fn lowering(&self) -> Lowering {
        self.lowering
    }

    /// The compiled rules of a model class.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a class of the model this was built from.
    pub(crate) fn class(&self, name: &str) -> &CompiledClass {
        &self.classes[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use troll_lang::CallRule;

    /// Every `specs/*.troll`, analyzed.
    fn shipped_models() -> Vec<(String, SystemModel)> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut models = Vec::new();
        for entry in std::fs::read_dir(dir).expect("specs directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "troll") {
                let source = std::fs::read_to_string(&path).expect("spec reads");
                let spec = troll_lang::parse(&source).expect("spec parses");
                let model = troll_lang::analyze(&spec).expect("spec analyzes");
                models.push((path.display().to_string(), model));
            }
        }
        assert_eq!(models.len(), 7, "expected the 7 shipped specs");
        models
    }

    fn terms(compiled: &[Compiled]) -> Vec<&troll_data::Term> {
        compiled.iter().map(Compiled::term).collect()
    }

    /// Asserts `compiled[i][j]` compiles `rules[i].calls[j]`; returns
    /// how many calls were compared.
    fn assert_calls(compiled: &[Vec<CompiledCall>], rules: &[CallRule], at: &str) -> usize {
        assert_eq!(compiled.len(), rules.len(), "{at}: rule count");
        let mut n = 0;
        for (c_rule, rule) in compiled.iter().zip(rules) {
            assert_eq!(c_rule.len(), rule.calls.len(), "{at}: call count");
            for (c, call) in c_rule.iter().zip(&rule.calls) {
                assert_eq!(terms(&c.args), call.args.iter().collect::<Vec<_>>(), "{at}");
                let designator = match &call.target {
                    EventTarget::Instance { id, .. } => Some(id),
                    _ => None,
                };
                assert_eq!(c.target_id.as_ref().map(Compiled::term), designator, "{at}");
                n += 1;
            }
        }
        n
    }

    /// Position `i` of every compiled group holds the `i`-th rule the
    /// model's iterators yield, under every lowering: the evaluation
    /// sites index the compiled model by that position.
    #[test]
    fn compiled_groups_mirror_the_model() {
        // per kind, how many compiled rules were compared
        let mut seen = BTreeMap::<&str, usize>::new();
        for (spec, model) in shipped_models() {
            for lowering in Lowering::ALL {
                let compiled = CompiledModel::new(&model, lowering);
                assert_eq!(compiled.classes.len(), model.classes.len(), "{spec}");
                for (name, class) in &model.classes {
                    let at = format!("{spec} {name} {lowering:?}");
                    let cc = compiled.class(name);

                    let events: BTreeSet<&str> =
                        class.valuation.iter().map(|v| v.event.as_str()).collect();
                    assert!(cc.valuations.keys().map(String::as_str).eq(events.clone()));
                    for event in events {
                        let rules: Vec<_> = class.valuation_for(event).collect();
                        assert_eq!(cc.valuations[event].len(), rules.len(), "{at} {event}");
                        for (i, rule) in rules.into_iter().enumerate() {
                            let c = cc.valuation(event, i);
                            assert_eq!(c.value.term(), &rule.value, "{at} {event}");
                            assert_eq!(c.guard.as_ref().map(Compiled::term), rule.guard.as_ref());
                            *seen.entry("valuation").or_default() += 1;
                        }
                    }

                    let events: BTreeSet<&str> =
                        class.permissions.iter().map(|p| p.event.as_str()).collect();
                    assert!(cc.permissions.keys().map(String::as_str).eq(events.clone()));
                    for event in events {
                        let perms: Vec<_> = class.permissions_for(event).collect();
                        assert_eq!(cc.permissions[event].len(), perms.len(), "{at} {event}");
                        for (i, perm) in perms.into_iter().enumerate() {
                            let p = cc.permission(event, i);
                            assert_eq!(p.scan.formula(), &perm.formula, "{at} {event}");
                            *seen.entry("permission").or_default() += 1;
                        }
                    }

                    assert_eq!(cc.constraints.len(), class.constraints.len(), "{at}");
                    for (c, con) in cc.constraints.iter().zip(&class.constraints) {
                        assert_eq!(c.scan.formula(), &con.formula, "{at}");
                        *seen.entry("constraint").or_default() += 1;
                    }

                    let derived: Vec<_> = class.derivation.iter().map(|d| &d.value).collect();
                    assert_eq!(terms(&cc.derivations), derived, "{at}");
                    *seen.entry("derivation").or_default() += derived.len();

                    assert_eq!(cc.param_attrs.len(), class.param_attributes.len(), "{at}");
                    for (c, attr) in cc.param_attrs.iter().zip(&class.param_attributes) {
                        assert_eq!(c.value.term(), &attr.value, "{at}");
                        *seen.entry("parameterized attribute").or_default() += 1;
                    }

                    *seen.entry("interaction call").or_default() +=
                        assert_calls(&cc.interactions, &class.interactions, &at);
                }
                *seen.entry("global call").or_default() +=
                    assert_calls(&compiled.globals, &model.global_interactions, &spec);
            }
        }
        for kind in [
            "valuation",
            "permission",
            "constraint",
            "derivation",
            "parameterized attribute",
            "interaction call",
            "global call",
        ] {
            assert!(seen.get(kind).is_some_and(|&n| n > 0), "no {kind} compared");
        }
    }
}
