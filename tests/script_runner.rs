//! Session-level tests of the animation script runner (`troll::script`,
//! hosted in `troll-runtime`): full sessions against compiled specs
//! and the shipped demo walkthrough.

use troll::data::{Money, ObjectId, Value};
use troll::runtime::ObjectBase;
use troll::script::{run_command, run_script, Outcome};
use troll::System;

fn base() -> ObjectBase {
    System::load_str(troll::specs::DEPT)
        .unwrap()
        .object_base()
        .unwrap()
}

#[test]
fn full_script_session() {
    let mut ob = base();
    let outcomes = run_script(
        &mut ob,
        r#"
-- establish and staff a department
birth DEPT ("Toys") establishment (date(1991,10,16))
exec |DEPT|("Toys") hire (|PERSON|("ada"))
exec |DEPT|("Toys") hire (|PERSON|("bob"))
show |DEPT|("Toys") employees
exec |DEPT|("Toys") fire (|PERSON|("ada"))
exec |DEPT|("Toys") fire (|PERSON|("bob"))
exec |DEPT|("Toys") closure ()
tick
"#,
    )
    .unwrap();
    assert_eq!(outcomes.len(), 8);
    assert!(matches!(outcomes[0], Outcome::Born(_)));
    match &outcomes[3] {
        Outcome::Observation { value, .. } => {
            assert_eq!(value.as_set().unwrap().len(), 2)
        }
        other => panic!("expected observation, got {other:?}"),
    }
    assert_eq!(outcomes[7], Outcome::Ticked(0));
}

#[test]
fn errors_carry_line_numbers() {
    let mut ob = base();
    let err = run_script(
        &mut ob,
        "birth DEPT (\"Toys\") establishment (date(1991,10,16))\nexec |DEPT|(\"Toys\") explode ()",
    )
    .unwrap_err();
    assert!(err.starts_with("line 2:"), "{err}");
    // permission refusal is an error too
    let err = run_script(&mut ob, "exec |DEPT|(\"Toys\") fire (|PERSON|(\"never\"))").unwrap_err();
    assert!(err.contains("not permitted"), "{err}");
}

#[test]
fn malformed_commands_rejected() {
    let mut ob = base();
    assert!(run_command(&mut ob, "frobnicate").is_err());
    assert!(run_command(&mut ob, "exec DEPT hire").is_err());
    assert!(run_command(&mut ob, "show 42 x").is_err());
    assert!(run_command(&mut ob, "birth DEPT Toys establishment ()").is_err());
}

#[test]
fn view_and_call_commands() {
    let system = System::load_str(troll::specs::VIEWS).unwrap();
    let mut ob = system.object_base().unwrap();
    run_script(
        &mut ob,
        r#"
birth PERSON ("ada") create (4000.00, "Research")
view SAL_EMPLOYEE
call SAL_EMPLOYEE2 |PERSON|("ada") IncreaseSalary ()
show |PERSON|("ada") Salary
"#,
    )
    .unwrap();
    assert_eq!(
        ob.attribute(&ObjectId::new("PERSON", vec![Value::from("ada")]), "Salary")
            .unwrap(),
        Value::Money(Money::from_major(4400))
    );
}

/// The demo session shipped in docs/ runs cleanly against the DEPT
/// spec — keeps the documented CLI walkthrough honest.
#[test]
fn shipped_demo_session_runs() {
    let script = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/demo_session.txt"),
    )
    .expect("demo session exists");
    let mut ob = base();
    let outcomes = run_script(&mut ob, &script).expect("demo session runs");
    assert!(outcomes.len() >= 8);
}

/// `--` starts a comment only outside quoted literals: a key holding
/// `--` is read whole, and a trailing `-- note` is still stripped.
#[test]
fn dashes_inside_quotes_are_not_comments() {
    let mut ob = base();
    let outcomes = run_script(
        &mut ob,
        r#"
birth DEPT ("R--D") establishment (date(1991,10,16)) -- the lab
exec |DEPT|("R--D") hire (|PERSON|("a--b"))   -- first hire
show |DEPT|("R--D") employees--no space before this comment
"#,
    )
    .unwrap();
    assert_eq!(outcomes.len(), 3);
    assert_eq!(outcomes[0].to_string(), r#"born DEPT("R--D")"#);
    assert_eq!(outcomes[1], Outcome::Executed(1));
    assert_eq!(
        outcomes[2].to_string(),
        r#"DEPT("R--D").employees = {PERSON("a--b")}"#
    );
}

#[test]
fn literal_arguments_skip_the_parser_and_others_are_counted() {
    let fallbacks = |ob: &ObjectBase| {
        ob.metrics()
            .snapshot()
            .counters
            .get("script.literal_fallbacks")
            .copied()
    };
    let mut ob = base();
    run_script(
        &mut ob,
        r#"
birth DEPT ('Toys') establishment (date(1991, 10, 16))
exec |DEPT|( "Toys" ) hire ( |PERSON|('ada') )
show |DEPT|("Toys") employees
obligations |DEPT|("Toys")
"#,
    )
    .unwrap();
    assert_eq!(fallbacks(&ob), None, "every argument above is a literal");

    // a computed key goes to the parser and names the same identity
    run_command(
        &mut ob,
        r#"exec |DEPT|("Toys") hire (|PERSON|(if true then "bob" else "x"))"#,
    )
    .unwrap();
    assert_eq!(fallbacks(&ob), Some(1));
    let err = run_command(&mut ob, r#"exec |DEPT|("Toys") hire (|PERSON|("cyd") +)"#).unwrap_err();
    assert!(err.contains("expected an expression"), "{err}");
    assert_eq!(fallbacks(&ob), Some(2));
    match run_command(&mut ob, r#"show |DEPT|("Toys") employees"#).unwrap() {
        Outcome::Observation { value, .. } => {
            assert_eq!(value.to_string(), r#"{PERSON("ada"), PERSON("bob")}"#)
        }
        other => panic!("expected observation, got {other:?}"),
    }
}
