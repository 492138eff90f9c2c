//! Interface (view) evaluation — §5.1 of the paper.
//!
//! Interfaces "are only a restricted view on existing objects": they
//! never copy objects, and "the internal object identity is preserved
//! … even derived updates can be offered in the view definition without
//! semantical difficulties". Accordingly a [`ViewRow`] carries the
//! identities of the underlying base instances, and
//! [`ObjectBase::view_call`] forwards view events to them.

use crate::base::Committed;
use crate::env::{self, World};
use crate::{ObjectBase, Result, RuntimeError, StepReport};
use std::collections::BTreeMap;
use troll_data::{Env, MapEnv, ObjectId, StateMap, Value};
use troll_lang::{EventTarget, InterfaceModel};

/// One row of an evaluated view: the underlying base instance(s) and the
/// visible attribute observations.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewRow {
    /// Base variable → underlying instance identity (one entry per
    /// encapsulated base; identity preservation).
    pub bindings: BTreeMap<String, ObjectId>,
    /// Visible attributes (projected and derived) — same shared
    /// representation as object state, so rows clone in O(1).
    pub attributes: StateMap,
}

impl ViewRow {
    /// Reads a visible attribute.
    pub fn attribute(&self, name: &str) -> Option<&Value> {
        self.attributes.get(name)
    }

    /// The underlying instance for a base variable.
    pub fn base(&self, var: &str) -> Option<&ObjectId> {
        self.bindings.get(var)
    }
}

/// The evaluation of an interface over the current object base.
#[derive(Debug, Clone)]
pub struct ViewSet {
    /// Interface name.
    pub interface: String,
    /// The rows.
    pub rows: Vec<ViewRow>,
}

impl ViewSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Finds the row whose base binding for `var` is `id`.
    pub fn row_for(&self, var: &str, id: &ObjectId) -> Option<&ViewRow> {
        self.rows.iter().find(|r| r.base(var) == Some(id))
    }
}

/// How multi-base (join) views enumerate candidate rows
/// (DESIGN.md decision 3's ablation pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Nested loop over the full population product, filtering by the
    /// selection predicate — the reference semantics.
    Naive,
    /// Use the membership index when the selection has the shape
    /// `A.surrogate in B.attr` (the paper's `WORKS_FOR` and the library
    /// `BORROWERS`): enumerate B's populations and walk the member sets
    /// directly, skipping non-members without evaluating the predicate.
    /// Falls back to [`JoinStrategy::Naive`] for any other selection.
    #[default]
    Indexed,
}

impl ObjectBase {
    /// Evaluates an interface class over the current population:
    /// projection of attributes, computation of derived attributes,
    /// selection filtering, and (for multi-base interfaces) the join.
    /// Join views use [`JoinStrategy::Indexed`] when applicable.
    ///
    /// # Errors
    ///
    /// Fails on unknown interfaces or failing selection/derivation
    /// evaluation.
    pub fn view(&self, interface: &str) -> Result<ViewSet> {
        self.view_with_strategy(interface, JoinStrategy::Indexed)
    }

    /// Evaluates an interface with an explicit join strategy. Both
    /// strategies produce identical rows; `Naive` is the reference
    /// semantics (and the baseline of DESIGN.md decision 3's ablation).
    ///
    /// # Errors
    ///
    /// Fails on unknown interfaces or failing selection/derivation
    /// evaluation.
    pub fn view_with_strategy(&self, interface: &str, strategy: JoinStrategy) -> Result<ViewSet> {
        let iface = self
            .model()
            .interface(interface)
            .ok_or_else(|| RuntimeError::UnknownInterface(interface.to_string()))?;

        let world = Committed(self);
        // candidate combos: indexed fast path when the selection is a
        // surrogate-membership join, else the full population product
        let (combos, selection_prechecked) = match strategy {
            JoinStrategy::Indexed => match self.indexed_join_combos(iface)? {
                Some(combos) => (combos, true),
                None => (self.product_combos(iface), false),
            },
            JoinStrategy::Naive => (self.product_combos(iface), false),
        };

        let mut rows = Vec::new();
        for combo in combos {
            let env = self.interface_env(iface, &combo, &world)?;
            let sel_to_check = if selection_prechecked {
                None
            } else {
                iface.selection.as_ref()
            };
            if let Some(sel) = sel_to_check {
                match sel.eval(&env) {
                    Ok(Value::Bool(true)) => {}
                    Ok(Value::Bool(false)) => continue,
                    Ok(other) => {
                        return Err(RuntimeError::ViewError(format!(
                            "selection predicate evaluated to non-boolean {other}"
                        )))
                    }
                    // a selection over an undefined attribute simply
                    // excludes the row (three-valued reading)
                    Err(troll_data::DataError::Undefined(_)) => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            let mut attributes = StateMap::new();
            for (name, _sort, derived) in &iface.attributes {
                let value = if *derived {
                    let rule = iface
                        .derivation
                        .iter()
                        .find(|d| &d.attribute == name)
                        .ok_or_else(|| {
                            RuntimeError::ViewError(format!(
                                "derived attribute `{name}` has no rule"
                            ))
                        })?;
                    rule.value.eval(&env)?
                } else {
                    env.lookup(name).unwrap_or(Value::Undefined)
                };
                attributes.insert(name.clone(), value);
            }
            let bindings = iface
                .bases
                .iter()
                .zip(&combo)
                .map(|((_, var), id)| (var.clone(), id.clone()))
                .collect();
            rows.push(ViewRow {
                bindings,
                attributes,
            });
        }
        Ok(ViewSet {
            interface: interface.to_string(),
            rows,
        })
    }

    /// The full population product of the interface's bases.
    fn product_combos(&self, iface: &InterfaceModel) -> Vec<Vec<ObjectId>> {
        let mut combos: Vec<Vec<ObjectId>> = vec![vec![]];
        for (class, _) in &iface.bases {
            let pop = self.population(class);
            let mut next = Vec::with_capacity(combos.len() * pop.len());
            for combo in &combos {
                for id in &pop {
                    let mut c = combo.clone();
                    c.push(id.clone());
                    next.push(c);
                }
            }
            combos = next;
        }
        combos
    }

    /// Fast path for two-base joins whose selection is
    /// `X.surrogate in Y.attr`: returns the matching combos directly
    /// (selection already applied), or `None` when the shape doesn't
    /// match and the naive product must be used.
    fn indexed_join_combos(&self, iface: &InterfaceModel) -> Result<Option<Vec<Vec<ObjectId>>>> {
        use troll_data::{Op, Term};
        if iface.bases.len() != 2 {
            return Ok(None);
        }
        let Some(Term::Apply(Op::In, args)) = &iface.selection else {
            return Ok(None);
        };
        let [Term::Field(member_base, member_field), Term::Field(owner_base, owner_attr)] =
            args.as_slice()
        else {
            return Ok(None);
        };
        if member_field != "surrogate" {
            return Ok(None);
        }
        let (Term::Var(member_var), Term::Var(owner_var)) =
            (member_base.as_ref(), owner_base.as_ref())
        else {
            return Ok(None);
        };
        let member_idx = iface.bases.iter().position(|(_, v)| v == member_var);
        let owner_idx = iface.bases.iter().position(|(_, v)| v == owner_var);
        let (Some(member_idx), Some(owner_idx)) = (member_idx, owner_idx) else {
            return Ok(None);
        };
        if member_idx == owner_idx {
            return Ok(None);
        }

        // enumerate owners; for each, walk the member set
        let owner_class = &iface.bases[owner_idx].0;
        let member_class = &iface.bases[member_idx].0;
        let mut combos = Vec::new();
        for owner in self.population(owner_class) {
            let members = self.attribute(&owner, owner_attr)?;
            let Some(set) = members.as_set() else {
                // attribute undefined or not a set: no rows from this owner
                continue;
            };
            for m in set {
                let Some(member_id) = m.as_id() else {
                    continue;
                };
                if member_id.class() != member_class {
                    continue;
                }
                if !self
                    .instance(member_id)
                    .is_some_and(crate::Instance::is_alive)
                {
                    continue;
                }
                let mut combo = vec![ObjectId::new("", vec![]); 2];
                combo[member_idx] = member_id.clone();
                combo[owner_idx] = owner.clone();
                combos.push(combo);
            }
        }
        Ok(Some(combos))
    }

    /// Executes a view event on a row identified by its base bindings:
    /// non-derived events forward to the owning base instance; derived
    /// events expand through their calling rule (e.g. `IncreaseSalary >>
    /// ChangeSalary(Salary * 1.1)`), evaluating argument terms against
    /// the row's environment.
    ///
    /// # Errors
    ///
    /// Fails if the event is not part of the interface (access control:
    /// hidden events cannot be reached through the view), or if the
    /// underlying execution fails.
    pub fn view_call(
        &mut self,
        interface: &str,
        bindings: &BTreeMap<String, ObjectId>,
        event: &str,
        args: Vec<Value>,
    ) -> Result<StepReport> {
        self.counters().view_calls.inc();
        let iface = self
            .model()
            .interface(interface)
            .ok_or_else(|| RuntimeError::UnknownInterface(interface.to_string()))?
            .clone();
        let ev = iface
            .events
            .iter()
            .find(|e| e.name == event)
            .ok_or_else(|| RuntimeError::UnknownEvent {
                class: interface.to_string(),
                event: event.to_string(),
            })?;

        // assemble the combo in base order
        let mut combo = Vec::with_capacity(iface.bases.len());
        for (_, var) in &iface.bases {
            let id = bindings.get(var).ok_or_else(|| {
                RuntimeError::ViewError(format!("missing base binding for `{var}`"))
            })?;
            combo.push(id.clone());
        }

        if !ev.derived {
            // forward to the base owning the event
            let (owner_class, idx) =
                self.owning_base(&iface, event)
                    .ok_or_else(|| RuntimeError::UnknownEvent {
                        class: interface.to_string(),
                        event: event.to_string(),
                    })?;
            let _ = owner_class;
            let target = combo[idx].clone();
            return self.execute(&target, event, args);
        }

        // derived event: expand the calling rule. The Views phase spans
        // the whole expansion; the inner steps open their own Envelope
        // phases as children, so Views self-time is exactly the
        // expansion overhead (row env assembly, argument evaluation).
        let _views = self.phase(troll_obs::Phase::Views);
        self.counters().view_derived_calls.inc();
        self.emit(|| troll_obs::ObsEvent::EventCalled {
            instance: combo.first().map(ToString::to_string).unwrap_or_default(),
            ctx_class: interface.to_string(),
            event: event.to_string(),
        });
        let rule = iface
            .calling
            .iter()
            .find(|c| c.trigger_event == event)
            .ok_or_else(|| {
                RuntimeError::ViewError(format!("derived event `{event}` has no calling rule"))
            })?;
        let world = Committed(self);
        let mut env = self.interface_env(&iface, &combo, &world)?;
        for (p, a) in rule.trigger_params.iter().zip(&args) {
            env.bind(p.clone(), a.clone());
        }
        let mut reports = StepReport::default();
        for call in &rule.calls {
            let mut call_args = Vec::with_capacity(call.args.len());
            for t in &call.args {
                call_args.push(t.eval(&env)?);
            }
            let (target, evname) = match &call.target {
                EventTarget::Local => {
                    let (_, idx) = self.owning_base(&iface, &call.event).ok_or_else(|| {
                        RuntimeError::UnknownEvent {
                            class: interface.to_string(),
                            event: call.event.clone(),
                        }
                    })?;
                    (combo[idx].clone(), call.event.clone())
                }
                EventTarget::Component(var) => {
                    let idx = iface
                        .bases
                        .iter()
                        .position(|(_, v)| v == var)
                        .ok_or_else(|| {
                            RuntimeError::ViewError(format!("unknown base variable `{var}`"))
                        })?;
                    (combo[idx].clone(), call.event.clone())
                }
                EventTarget::Instance { class, id } => {
                    let v = id.eval(&env)?;
                    match v {
                        Value::Id(oid) => (oid.retag(class.clone()), call.event.clone()),
                        other => {
                            return Err(RuntimeError::ViewError(format!(
                                "instance designator evaluated to {other}"
                            )))
                        }
                    }
                }
            };
            let r = self.execute(&target, &evname, call_args)?;
            reports.occurrences.extend(r.occurrences);
        }
        Ok(reports)
    }

    /// The base (class, index) owning a non-derived interface event.
    fn owning_base(&self, iface: &InterfaceModel, event: &str) -> Option<(String, usize)> {
        for (idx, (class, _)) in iface.bases.iter().enumerate() {
            if let Some(c) = self.model().class(class) {
                if c.template.signature().has_event(event) {
                    return Some((class.clone(), idx));
                }
            }
        }
        None
    }

    /// Builds the evaluation environment of a view row: every base's
    /// attributes merged unqualified (earlier bases win), each base
    /// variable bound to its instance tuple, and `self` bound to the
    /// first base's tuple.
    fn interface_env(
        &self,
        iface: &InterfaceModel,
        combo: &[ObjectId],
        world: &dyn World,
    ) -> Result<MapEnv> {
        let mut env = MapEnv::new();
        // merge base attributes, later bases do not override earlier
        for (idx, id) in combo.iter().enumerate().rev() {
            let tuple = env::instance_tuple(world, id, 0)?;
            if let Value::Tuple(fields) = &tuple {
                for (k, v) in fields {
                    env.bind(k.clone(), v.clone());
                }
            }
            let (_, var) = &iface.bases[idx];
            env.bind(var.clone(), tuple.clone());
            if idx == 0 {
                env.bind("self", tuple);
            }
        }
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use troll_data::Money;

    fn setup() -> ObjectBase {
        let src = r#"
object class PERSON
  identification name: string;
  template
    attributes
      Salary: money;
      Dept: string;
    events
      birth create(money, string);
      ChangeSalary(money);
      ChangeDept(string);
      death die;
    valuation
      variables m: money; d: string;
      [create(m, d)] Salary = m;
      [create(m, d)] Dept = d;
      [ChangeSalary(m)] Salary = m;
      [ChangeDept(d)] Dept = d;
end object class PERSON;

interface class SAL_EMPLOYEE
  encapsulating PERSON
  attributes
    name: string;
    Salary: money;
  events
    ChangeSalary(money);
end interface class SAL_EMPLOYEE;

interface class SAL_EMPLOYEE2
  encapsulating PERSON
  attributes
    name: string;
    derived CurrentIncomePerYear: money;
    Salary: money;
  events
    derived IncreaseSalary;
  derivation rules
    CurrentIncomePerYear = Salary * 13.5;
  calling
    IncreaseSalary >> ChangeSalary(Salary * 1.1);
end interface class SAL_EMPLOYEE2;

interface class RESEARCH_EMPLOYEE
  encapsulating PERSON
  selection where Dept = 'Research';
  attributes
    name: string;
    Salary: money;
  events
    ChangeSalary(money);
end interface class RESEARCH_EMPLOYEE;
"#;
        let model = troll_lang::analyze(&troll_lang::parse(src).unwrap()).unwrap();
        let mut ob = ObjectBase::new(model).unwrap();
        for (name, sal, dept) in [
            ("ada", 4_000, "Research"),
            ("bob", 3_000, "Sales"),
            ("eve", 5_000, "Research"),
        ] {
            ob.birth(
                "PERSON",
                vec![Value::from(name)],
                "create",
                vec![Value::Money(Money::from_major(sal)), Value::from(dept)],
            )
            .unwrap();
        }
        ob
    }

    fn pid(name: &str) -> ObjectId {
        ObjectId::singleton("PERSON", Value::from(name))
    }

    #[test]
    fn projection_view_shows_all_instances() {
        let ob = setup();
        let v = ob.view("SAL_EMPLOYEE").unwrap();
        assert_eq!(v.len(), 3);
        let ada = v.row_for("PERSON", &pid("ada")).unwrap();
        assert_eq!(
            ada.attribute("Salary"),
            Some(&Value::Money(Money::from_major(4_000)))
        );
        assert_eq!(ada.attribute("name"), Some(&Value::from("ada")));
        // hidden attribute not visible
        assert_eq!(ada.attribute("Dept"), None);
    }

    #[test]
    fn derived_attribute_computed_per_row() {
        let ob = setup();
        let v = ob.view("SAL_EMPLOYEE2").unwrap();
        let ada = v.row_for("PERSON", &pid("ada")).unwrap();
        // 4000 * 13.5 = 54000
        assert_eq!(
            ada.attribute("CurrentIncomePerYear"),
            Some(&Value::Money(Money::from_major(54_000)))
        );
    }

    #[test]
    fn selection_view_filters() {
        let ob = setup();
        let v = ob.view("RESEARCH_EMPLOYEE").unwrap();
        assert_eq!(v.len(), 2);
        assert!(v.row_for("PERSON", &pid("ada")).is_some());
        assert!(v.row_for("PERSON", &pid("bob")).is_none());
    }

    #[test]
    fn view_event_forwards_to_base() {
        let mut ob = setup();
        let bindings: BTreeMap<String, ObjectId> = [("PERSON".to_string(), pid("ada"))].into();
        ob.view_call(
            "SAL_EMPLOYEE",
            &bindings,
            "ChangeSalary",
            vec![Value::Money(Money::from_major(9_000))],
        )
        .unwrap();
        assert_eq!(
            ob.attribute(&pid("ada"), "Salary").unwrap(),
            Value::Money(Money::from_major(9_000))
        );
    }

    #[test]
    fn derived_view_event_expands_calling_rule() {
        let mut ob = setup();
        let bindings: BTreeMap<String, ObjectId> = [("PERSON".to_string(), pid("ada"))].into();
        // IncreaseSalary >> ChangeSalary(Salary * 1.1): 4000 → 4400
        ob.view_call("SAL_EMPLOYEE2", &bindings, "IncreaseSalary", vec![])
            .unwrap();
        assert_eq!(
            ob.attribute(&pid("ada"), "Salary").unwrap(),
            Value::Money(Money::from_major(4_400))
        );
    }

    #[test]
    fn hidden_events_not_callable_through_view() {
        let mut ob = setup();
        let bindings: BTreeMap<String, ObjectId> = [("PERSON".to_string(), pid("ada"))].into();
        // ChangeDept exists on PERSON but is not in the interface
        let err = ob
            .view_call(
                "SAL_EMPLOYEE",
                &bindings,
                "ChangeDept",
                vec![Value::from("Ops")],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownEvent { .. }));
    }

    #[test]
    fn views_are_dynamic() {
        let mut ob = setup();
        // bob moves to Research: selection view gains a row
        ob.execute(&pid("bob"), "ChangeDept", vec![Value::from("Research")])
            .unwrap();
        assert_eq!(ob.view("RESEARCH_EMPLOYEE").unwrap().len(), 3);
        // eve dies: all views lose her
        ob.execute(&pid("eve"), "die", vec![]).unwrap();
        assert_eq!(ob.view("SAL_EMPLOYEE").unwrap().len(), 2);
        assert_eq!(ob.view("RESEARCH_EMPLOYEE").unwrap().len(), 2);
    }

    #[test]
    fn unknown_interface_rejected() {
        let ob = setup();
        assert!(matches!(
            ob.view("GHOST").unwrap_err(),
            RuntimeError::UnknownInterface(_)
        ));
    }
}

#[cfg(test)]
mod join_strategy_tests {
    use super::*;
    use troll_data::Value;

    const SRC: &str = r#"
object class PERSON
  identification name: string;
  template
    attributes nick: string;
    events
      birth create(string);
      death die;
    valuation
      variables n: string;
      [create(n)] nick = n;
end object class PERSON;

object class DEPT
  identification id: string;
  template
    attributes employees: set(|PERSON|);
    events
      birth establishment;
      hire(|PERSON|);
      fire(|PERSON|);
      death closure;
    valuation
      variables P: |PERSON|;
      [establishment] employees = {};
      [hire(P)] employees = insert(P, employees);
      [fire(P)] employees = remove(P, employees);
end object class DEPT;

interface class WORKS_FOR
  encapsulating PERSON P, DEPT D
  selection where P.surrogate in D.employees;
  attributes
    derived who: string;
    derived where_: string;
  derivation rules
    who = P.name;
    where_ = D.id;
end interface class WORKS_FOR;

interface class SAME_NICK
  encapsulating PERSON P, DEPT D
  selection where P.nick = D.id;
  attributes
    derived who: string;
  derivation rules
    who = P.name;
end interface class SAME_NICK;
"#;

    fn setup(n_persons: usize, n_depts: usize) -> ObjectBase {
        let model = troll_lang::analyze(&troll_lang::parse(SRC).unwrap()).unwrap();
        let mut ob = ObjectBase::new(model).unwrap();
        for i in 0..n_persons {
            ob.birth(
                "PERSON",
                vec![Value::from(format!("p{i}"))],
                "create",
                vec![Value::from(format!("d{}", i % 2))],
            )
            .unwrap();
        }
        for d in 0..n_depts {
            let dept = ob
                .birth(
                    "DEPT",
                    vec![Value::from(format!("d{d}"))],
                    "establishment",
                    vec![],
                )
                .unwrap();
            // every (i % n_depts == d)-th person works here
            for i in (d..n_persons).step_by(n_depts.max(1)) {
                ob.execute(
                    &dept,
                    "hire",
                    vec![Value::Id(ObjectId::new(
                        "PERSON",
                        vec![Value::from(format!("p{i}"))],
                    ))],
                )
                .unwrap();
            }
        }
        ob
    }

    type CanonicalRow = (Vec<(String, ObjectId)>, Vec<(String, Value)>);

    fn canonical(v: &ViewSet) -> Vec<CanonicalRow> {
        let mut rows: Vec<_> = v
            .rows
            .iter()
            .map(|r| {
                (
                    r.bindings
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect::<Vec<_>>(),
                    r.attributes
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn indexed_and_naive_agree() {
        for (p, d) in [(0, 0), (1, 1), (5, 2), (12, 3)] {
            let ob = setup(p, d);
            let indexed = ob
                .view_with_strategy("WORKS_FOR", JoinStrategy::Indexed)
                .unwrap();
            let naive = ob
                .view_with_strategy("WORKS_FOR", JoinStrategy::Naive)
                .unwrap();
            assert_eq!(
                canonical(&indexed),
                canonical(&naive),
                "strategy divergence at {p} persons, {d} depts"
            );
        }
    }

    #[test]
    fn indexed_path_skips_dead_members() {
        let mut ob = setup(4, 1);
        let p0 = ObjectId::new("PERSON", vec![Value::from("p0")]);
        ob.execute(&p0, "die", vec![]).unwrap();
        let indexed = ob
            .view_with_strategy("WORKS_FOR", JoinStrategy::Indexed)
            .unwrap();
        let naive = ob
            .view_with_strategy("WORKS_FOR", JoinStrategy::Naive)
            .unwrap();
        assert_eq!(canonical(&indexed), canonical(&naive));
        assert!(indexed.row_for("P", &p0).is_none(), "dead members hidden");
    }

    #[test]
    fn non_membership_joins_fall_back_to_naive() {
        // SAME_NICK's selection is field equality, not membership: the
        // indexed strategy must silently fall back and still be correct
        let ob = setup(6, 2);
        let indexed = ob
            .view_with_strategy("SAME_NICK", JoinStrategy::Indexed)
            .unwrap();
        let naive = ob
            .view_with_strategy("SAME_NICK", JoinStrategy::Naive)
            .unwrap();
        assert_eq!(canonical(&indexed), canonical(&naive));
        assert!(!indexed.is_empty());
    }

    #[test]
    fn default_strategy_is_indexed() {
        let ob = setup(4, 2);
        assert_eq!(
            canonical(&ob.view("WORKS_FOR").unwrap()),
            canonical(
                &ob.view_with_strategy("WORKS_FOR", JoinStrategy::Indexed)
                    .unwrap()
            )
        );
        assert_eq!(JoinStrategy::default(), JoinStrategy::Indexed);
    }
}

#[cfg(test)]
mod singleton_view_tests {
    use super::*;
    use troll_data::Value;

    /// Interfaces over singleton objects (the paper encapsulates the
    /// relation object emp_rel behind EMPL_IMPL; a direct view over a
    /// singleton must work too).
    #[test]
    fn views_over_singletons() {
        let src = r#"
object config
  template
    attributes
      limit: int;
      secret: string;
    events
      birth boot(int, string);
      raise_limit(int);
    valuation
      variables n: int; s: string;
      [boot(n, s)] limit = n;
      [boot(n, s)] secret = s;
      [raise_limit(n)] limit = limit + n;
end object config;

interface class LIMITS
  encapsulating config
  attributes
    limit: int;
  events
    raise_limit(int);
end interface class LIMITS;
"#;
        let model = troll_lang::analyze(&troll_lang::parse(src).unwrap()).unwrap();
        let mut ob = ObjectBase::new(model).unwrap();
        let cfg = ob.singleton("config").unwrap();
        // unborn singleton: view is empty
        assert!(ob.view("LIMITS").unwrap().is_empty());
        ob.execute(&cfg, "boot", vec![Value::from(10), Value::from("hunter2")])
            .unwrap();
        let v = ob.view("LIMITS").unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.rows[0].attribute("limit"), Some(&Value::from(10)));
        // the secret is hidden
        assert_eq!(v.rows[0].attribute("secret"), None);
        // view event forwards to the singleton
        let bindings: std::collections::BTreeMap<String, ObjectId> =
            [("config".to_string(), cfg.clone())].into();
        ob.view_call("LIMITS", &bindings, "raise_limit", vec![Value::from(5)])
            .unwrap();
        assert_eq!(ob.attribute(&cfg, "limit").unwrap(), Value::from(15));
    }
}
