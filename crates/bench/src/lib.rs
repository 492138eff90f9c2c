//! Shared workload generators for the troll-rs benchmark harness.
//!
//! Every generator is deterministic so criterion runs are comparable
//! across machines; EXPERIMENTS.md records the measured shapes.

use troll::data::{Date, ObjectId, Value};
use troll::kernel::{InheritanceSchema, Template, TemplateMorphism};
use troll::runtime::{Lowering, ObjectBase, SharedModel};
use troll::System;

/// Builds a linear inheritance chain `t0 ← t1 ← … ← t(n-1)` (each
/// specializing its predecessor) — the worst case for ancestor closure.
pub fn chain_schema(n: usize) -> InheritanceSchema {
    let mut schema = InheritanceSchema::new();
    schema
        .add_template(Template::named("t0"))
        .expect("fresh schema");
    for i in 1..n {
        schema
            .add_specialization(
                Template::named(format!("t{i}")),
                TemplateMorphism::identity_on(
                    format!("m{i}"),
                    format!("t{i}"),
                    format!("t{}", i - 1),
                ),
            )
            .expect("chain is acyclic");
    }
    schema
}

/// Builds a binary-tree inheritance schema of the given depth (Example
/// 3.2 shape, scaled).
pub fn tree_schema(depth: usize) -> InheritanceSchema {
    let mut schema = InheritanceSchema::new();
    schema.add_template(Template::named("n1")).expect("fresh");
    let mut next = 2usize;
    let mut frontier = vec![1usize];
    for _ in 0..depth {
        let mut new_frontier = Vec::new();
        for parent in frontier {
            for _ in 0..2 {
                let id = next;
                next += 1;
                schema
                    .add_specialization(
                        Template::named(format!("n{id}")),
                        TemplateMorphism::identity_on(
                            format!("m{id}"),
                            format!("n{id}"),
                            format!("n{parent}"),
                        ),
                    )
                    .expect("tree is acyclic");
                new_frontier.push(id);
            }
        }
        frontier = new_frontier;
    }
    schema
}

/// Loads the DEPT spec and births `n` departments, each with
/// `history_len` hire events already executed — the standing population
/// for throughput and permission benchmarks.
pub fn dept_base_with(n: usize, history_len: usize) -> (ObjectBase, Vec<ObjectId>) {
    let system = System::load_str(troll::specs::DEPT).expect("shipped spec loads");
    let mut ob = system.object_base().expect("object base");
    let date = Value::Date(Date::new(1991, 10, 16).expect("valid date"));
    let mut depts = Vec::with_capacity(n);
    for i in 0..n {
        let id = ob
            .birth(
                "DEPT",
                vec![Value::from(format!("d{i}"))],
                "establishment",
                vec![date.clone()],
            )
            .expect("birth succeeds");
        for j in 0..history_len {
            ob.execute(&id, "hire", vec![person(j)])
                .expect("hire succeeds");
        }
        depts.push(id);
    }
    (ob, depts)
}

/// Like [`dept_base_with`], but the history is **deep, not wide**: one
/// department alternately hires and fires the *same* person, so the
/// trace grows to `history_len` steps while the attribute state stays
/// bounded (at most one employee). This isolates history-depth costs
/// (temporal scans over the trace) from state-size costs (snapshot and
/// working-state clones), which `dept_base_with` deliberately conflates
/// by hiring `history_len` distinct persons.
pub fn dept_base_deep(history_len: usize) -> (ObjectBase, ObjectId) {
    let system = System::load_str(troll::specs::DEPT).expect("shipped spec loads");
    let mut ob = system.object_base().expect("object base");
    let date = Value::Date(Date::new(1991, 10, 16).expect("valid date"));
    let id = ob
        .birth(
            "DEPT",
            vec![Value::from("deep")],
            "establishment",
            vec![date],
        )
        .expect("birth succeeds");
    for j in 0..history_len {
        if j % 2 == 0 {
            ob.execute(&id, "hire", vec![person(0)])
                .expect("hire succeeds");
        } else {
            ob.execute(&id, "fire", vec![person(0)])
                .expect("fire permitted");
        }
    }
    (ob, id)
}

/// One department with `n` *distinct* standing members: the history is
/// `n` hire steps and the `employees`/`hired_ever` sets hold `n`
/// elements. This is the delta-valuation scaling shape (E16): each
/// further hire/fire updates an `n`-element collection, so a
/// full-recompute valuation pays O(n) per step while the incremental
/// path stays O(log n) — unlike [`dept_base_deep`], whose deep trace
/// keeps the collections tiny.
pub fn dept_base_members(n: usize) -> (ObjectBase, ObjectId) {
    dept_base_members_lowered(n, Lowering::Delta)
}

/// [`dept_base_members`] with the model compiled under `lowering` —
/// E16 measures the shipped engine against [`Lowering::Recompute`].
pub fn dept_base_members_lowered(n: usize, lowering: Lowering) -> (ObjectBase, ObjectId) {
    let system = System::load_str(troll::specs::DEPT).expect("shipped spec loads");
    let mut ob = SharedModel::with_lowering(system.model().clone(), lowering)
        .spawn()
        .expect("object base");
    let date = Value::Date(Date::new(1991, 10, 16).expect("valid date"));
    let id = ob
        .birth(
            "DEPT",
            vec![Value::from("members")],
            "establishment",
            vec![date],
        )
        .expect("birth succeeds");
    for i in 0..n {
        ob.execute(&id, "hire", vec![person(i)])
            .expect("hire succeeds");
    }
    (ob, id)
}

/// A PERSON identity value for workloads.
pub fn person(i: usize) -> Value {
    Value::Id(ObjectId::new("PERSON", vec![Value::from(format!("p{i}"))]))
}

/// Loads the views spec with `n` persons (half in Research) and one
/// department employing every third person.
pub fn views_base_with(n: usize) -> ObjectBase {
    let system = System::load_str(troll::specs::VIEWS).expect("shipped spec loads");
    let mut ob = system.object_base().expect("object base");
    for i in 0..n {
        let dept = if i % 2 == 0 { "Research" } else { "Sales" };
        ob.birth(
            "PERSON",
            vec![Value::from(format!("p{i}"))],
            "create",
            vec![
                Value::Money(troll::data::Money::from_major(1000 + i as i64)),
                Value::from(dept),
            ],
        )
        .expect("birth succeeds");
    }
    let research = ob
        .birth("DEPT", vec![Value::from("R")], "establishment", vec![])
        .expect("dept birth");
    for i in (0..n).step_by(3) {
        ob.execute(
            &research,
            "hire",
            vec![Value::Id(ObjectId::new(
                "PERSON",
                vec![Value::from(format!("p{i}"))],
            ))],
        )
        .expect("hire succeeds");
    }
    ob
}

/// Synthesizes a TROLL source with `n` DEPT-like classes (for the parser
/// throughput benchmark E9).
pub fn synthetic_spec(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        out.push_str(&format!(
            r#"
object class DEPT{i}
  identification id: string;
  template
    attributes
      est_date: date;
      employees: set(|PERSON|);
    events
      birth establishment(date);
      death closure;
      hire(|PERSON|);
      fire(|PERSON|);
    valuation
      variables P: |PERSON|; d: date;
      [establishment(d)] est_date = d;
      [establishment(d)] employees = {{}};
      [hire(P)] employees = insert(P, employees);
      [fire(P)] employees = remove(P, employees);
    permissions
      variables P: |PERSON|;
      {{ sometime(after(hire(P))) }} fire(P);
end object class DEPT{i};
"#
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_schema_builds() {
        let s = chain_schema(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.ancestors("t9").len(), 9);
    }

    #[test]
    fn tree_schema_builds() {
        let s = tree_schema(3);
        assert_eq!(s.len(), 1 + 2 + 4 + 8);
    }

    #[test]
    fn dept_base_builds() {
        let (ob, depts) = dept_base_with(3, 5);
        assert_eq!(depts.len(), 3);
        assert_eq!(ob.class_card("DEPT"), 3);
        assert_eq!(
            ob.attribute(&depts[0], "employees")
                .unwrap()
                .as_set()
                .unwrap()
                .len(),
            5
        );
    }

    #[test]
    fn views_base_builds() {
        let ob = views_base_with(9);
        assert_eq!(ob.class_card("PERSON"), 9);
        assert_eq!(ob.view("WORKS_FOR").unwrap().len(), 3);
    }

    #[test]
    fn synthetic_spec_parses() {
        let system = System::load_str(&synthetic_spec(4)).unwrap();
        assert_eq!(system.model().classes.len(), 4);
    }
}
