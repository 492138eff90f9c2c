//! Cross-crate integration: the layers working together — runtime traces
//! fed to the temporal monitor, class templates checked as processes,
//! the kernel's class objects, and metaclasses.

use troll::data::{Date, ObjectId, Term, Value};
use troll::process::simulate;
use troll::runtime::Lowering;
use troll::temporal::{eval_now, EventPattern, Formula, Monitor};
use troll::System;

fn dept_base() -> (troll::runtime::ObjectBase, ObjectId) {
    let system = System::load_str(troll::specs::DEPT).unwrap();
    let mut ob = system.object_base().unwrap();
    let toys = ob
        .birth(
            "DEPT",
            vec![Value::from("Toys")],
            "establishment",
            vec![Value::Date(Date::new(1991, 10, 16).unwrap())],
        )
        .unwrap();
    (ob, toys)
}

fn person(name: &str) -> Value {
    Value::Id(ObjectId::new("PERSON", vec![Value::from(name)]))
}

/// The incremental monitor and the reference evaluator agree on the
/// history produced by the real animator.
#[test]
fn monitor_agrees_with_evaluator_on_runtime_traces() {
    let (mut ob, toys) = dept_base();
    for name in ["ada", "bob", "eve"] {
        ob.execute(&toys, "hire", vec![person(name)]).unwrap();
    }
    ob.execute(&toys, "fire", vec![person("bob")]).unwrap();

    let trace = ob.instance(&toys).unwrap().trace().clone();
    let env = troll::data::MapEnv::from_pairs(vec![("P".to_string(), person("bob"))]);
    let formulas = vec![
        Formula::sometime(Formula::after(EventPattern::new(
            "hire",
            vec![Some(Term::var("P"))],
        ))),
        Formula::sometime(Formula::occurs(EventPattern::any("fire"))),
        Formula::always_past(Formula::not(Formula::occurs(EventPattern::any("closure")))),
        Formula::since(
            Formula::truth(),
            Formula::occurs(EventPattern::any("establishment")),
        ),
        Formula::previous(Formula::occurs(EventPattern::any("fire"))),
    ];
    for f in formulas {
        let reference = eval_now(&f, &trace, &env).unwrap();
        for lowering in Lowering::ALL {
            let monitored = Monitor::new(&f, lowering)
                .unwrap()
                .run(&trace, &env)
                .unwrap();
            assert_eq!(reference, monitored, "disagreement on {f} ({lowering:?})");
        }
    }
}

/// The animator only produces traces the class template's behaviour
/// process accepts (life-cycle conformance across crates).
#[test]
fn runtime_traces_are_accepted_by_the_template_process() {
    let (mut ob, toys) = dept_base();
    ob.execute(&toys, "hire", vec![person("ada")]).unwrap();
    ob.execute(&toys, "new_manager", vec![person("ada")])
        .unwrap();
    ob.execute(&toys, "fire", vec![person("ada")]).unwrap();
    ob.execute(&toys, "closure", vec![]).unwrap();

    let model = ob.model().clone();
    let template = &model.classes["DEPT"].template;
    let labels: Vec<String> = ob
        .instance(&toys)
        .unwrap()
        .trace()
        .iter()
        .flat_map(|step| step.events.iter().map(|e| e.name.clone()))
        .collect();
    assert!(template
        .behavior()
        .accepts(labels.iter().map(String::as_str)));
    // and the free behaviour passes its own life-cycle validation
    assert!(template
        .behavior()
        .life_cycle_violations(template.signature().events())
        .is_empty());
}

/// A restricted class (fewer permissions via an explicit LTS) is
/// simulated by the free template behaviour.
#[test]
fn template_behaviors_form_a_simulation_hierarchy() {
    let system = System::load_str(troll::specs::DEPT).unwrap();
    let template = &system.model().classes["DEPT"].template;
    // strict protocol: exactly one hire then closure
    let mut strict = troll::process::Lts::new(4, 0);
    strict.add_transition(0, "establishment", 1);
    strict.add_transition(1, "hire", 2);
    strict.add_transition(2, "closure", 3);
    assert!(simulate::simulates(template.behavior(), &strict));
    assert!(!simulate::simulates(&strict, template.behavior()));
}

/// Class templates from the kernel provide implicit class objects and
/// metaclasses (§3: "classes of classes").
#[test]
fn class_objects_and_metaclasses() {
    let system = System::load_str(troll::specs::DEPT).unwrap();
    let dept = &system.model().classes["DEPT"].template;
    let class_obj = dept.class_template();
    assert!(class_obj.signature().has_event("insert"));
    assert!(class_obj.signature().has_attribute("members"));
    let meta = class_obj.class_template();
    assert_eq!(meta.name(), "class(class(DEPT))");
    // and the runtime's population/card realize the class object's
    // observations
    let (mut ob, _toys) = dept_base();
    assert_eq!(ob.class_card("DEPT"), 1);
    ob.birth(
        "DEPT",
        vec![Value::from("Sales")],
        "establishment",
        vec![Value::Date(Date::new(1992, 1, 1).unwrap())],
    )
    .unwrap();
    assert_eq!(ob.class_card("DEPT"), 2);
    assert_eq!(ob.population("DEPT").len(), 2);
}

/// Permissions quantifying over class populations observe the runtime
/// population binding.
#[test]
fn population_binding_reaches_formulas() {
    let src = r#"
object class GUARD
  identification gid: string;
  template
    attributes dummy: int;
    events
      birth arm;
      fire_alarm;
    valuation
      [arm] dummy = 0;
    permissions
      { for all(P: WATCHER : sometime(P in {})) } fire_alarm;
end object class GUARD;

object class WATCHER
  identification wid: string;
  template
    events birth watch;
end object class WATCHER;
"#;
    let system = System::load_str(src).unwrap();
    let mut ob = system.object_base().unwrap();
    let g = ob
        .birth("GUARD", vec![Value::from("g1")], "arm", vec![])
        .unwrap();
    // no watchers: the forall is vacuous, alarm permitted
    assert!(ob.execute(&g, "fire_alarm", vec![]).is_ok());
    // with a watcher, `P in {}` is never sometime-true: refused
    ob.birth("WATCHER", vec![Value::from("w1")], "watch", vec![])
        .unwrap();
    assert!(ob.execute(&g, "fire_alarm", vec![]).is_err());
}

/// The lang → runtime pipeline agrees with a hand-built kernel template
/// on the signature.
#[test]
fn lowered_templates_match_hand_built_signatures() {
    let system = System::load_str(troll::specs::DEPT).unwrap();
    let template = &system.model().classes["DEPT"].template;
    assert!(template.signature().has_attribute("est_date"));
    assert!(template.signature().has_attribute("id")); // identification
    assert_eq!(template.signature().events().len(), 6);
    assert_eq!(
        template.signature().events().kind_of("establishment"),
        Some(troll::process::EventKind::Birth)
    );
    assert_eq!(
        template.signature().events().kind_of("closure"),
        Some(troll::process::EventKind::Death)
    );
}

/// §6.1's shared clock: active events drive time-dependent behaviour
/// across objects, and reminders discharge their ring obligation.
#[test]
fn shared_clock_triggers_time_dependent_activities() {
    let system = System::load_str(troll::specs::CLOCK).unwrap();
    let mut ob = system.object_base().unwrap();
    let clock = ob.singleton("clock").unwrap();
    ob.execute(&clock, "start", vec![]).unwrap();

    let soon = ob
        .birth(
            "REMINDER",
            vec![Value::from("soon")],
            "set_for",
            vec![Value::from(2)],
        )
        .unwrap();
    let later = ob
        .birth(
            "REMINDER",
            vec![Value::from("later")],
            "set_for",
            vec![Value::from(5)],
        )
        .unwrap();
    assert_eq!(ob.view("PENDING").unwrap().len(), 2);

    // tick rounds: the clock advances; reminders ring exactly when due
    let mut rings = Vec::new();
    for _ in 0..6 {
        let reports = ob.tick().unwrap();
        for r in reports {
            for occ in r.occurrences {
                if occ.event == "ring" {
                    rings.push((occ.id.clone(), ob.attribute(&clock, "now").unwrap()));
                }
            }
        }
    }
    assert_eq!(
        rings.len(),
        2,
        "each reminder rings exactly once: {rings:?}"
    );
    assert_eq!(rings[0].0, soon);
    assert_eq!(rings[1].0, later);
    // `soon` rang strictly before `later`
    assert!(rings[0].1 < rings[1].1, "{rings:?}");
    assert_eq!(ob.view("PENDING").unwrap().len(), 0);
    // obligations: both discharged
    assert!(ob.obligations_discharged(&soon).unwrap());
    assert!(ob.obligations_discharged(&later).unwrap());
}
