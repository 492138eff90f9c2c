//! E14 — the bytecode VM against the tree-walk evaluator.
//!
//! Two layers, both steady-state:
//!
//! * `e14_term_eval` — rule-shaped terms (valuation update, guarded
//!   parameterized attribute, §5.2 query-algebra derivation, quantified
//!   permission predicate) evaluated against a fixed environment:
//!   `Term::eval` vs a precompiled `troll_vm::Compiled`. This isolates
//!   the evaluator itself — the layer the VM replaces.
//! * `e14_runtime` — the full engine on e3-shaped workloads that leave
//!   the base unchanged (a refused event rolls back; a parameterized
//!   attribute read mutates nothing), with the model compiled under
//!   `Lowering::Delta` (the shipped engine) vs `Lowering::TreeWalk`,
//!   which routes every rule back through the tree walk. End-to-end
//!   deltas are diluted by the non-evaluation step machinery (env
//!   setup, monitor advance, snapshots, rollback) — EXPERIMENTS.md
//!   records both layers honestly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use troll::data::{Date, MapEnv, Op, Quantifier, Term, Value};
use troll::runtime::{Lowering, ObjectBase, SharedModel};
use troll::System;
use troll_vm::Compiled;

/// The shared environment: a 64-tuple relation, a 64-id set, and the
/// scalars the rule terms read.
fn rule_env() -> MapEnv {
    let emps = Value::set_of((0..64).map(|i| {
        Value::tuple_of(vec![
            ("ename".to_string(), Value::from(format!("p{i}"))),
            (
                "bdate".to_string(),
                Value::Date(Date::new(1960, 1, 1).expect("date")),
            ),
            ("esalary".to_string(), Value::Int(1000 + i)),
            ("edept".to_string(), Value::from("Research")),
        ])
    }));
    let employees = Value::set_of((0..64).map(|i| {
        Value::Id(troll::data::ObjectId::new(
            "PERSON",
            vec![Value::from(format!("p{i}"))],
        ))
    }));
    MapEnv::from_pairs(vec![
        ("Emps".to_string(), emps),
        ("employees".to_string(), employees),
        (
            "P".to_string(),
            Value::Id(troll::data::ObjectId::new(
                "PERSON",
                vec![Value::from("p99")],
            )),
        ),
        ("n".to_string(), Value::from("p32")),
        ("Salary".to_string(), Value::Int(4000)),
        ("y".to_string(), Value::Int(2026)),
    ])
}

/// Rule-shaped terms, from trivial to evaluation-heavy.
fn rule_terms() -> Vec<(&'static str, Term)> {
    let var = |n: &str| Term::Var(n.to_string());
    // [hire(P)] employees = insert(P, employees)
    let valuation = Term::Apply(Op::Insert, vec![var("P"), var("employees")]);
    // IncomeInYear(y) = if y >= 2020 then Salary * 13 else Salary * 12
    let param_attr = Term::ite(
        Term::Apply(Op::Ge, vec![var("y"), Term::Const(Value::Int(2020))]),
        Term::Apply(Op::Mul, vec![var("Salary"), Term::Const(Value::Int(13))]),
        Term::Apply(Op::Mul, vec![var("Salary"), Term::Const(Value::Int(12))]),
    );
    // §5.2: Salary = the(project|esalary|(select|ename = n|(Emps)))
    let derivation = Term::the(Term::project(
        Term::select(
            var("Emps"),
            Term::Apply(Op::Eq, vec![var("ename"), var("n")]),
        ),
        vec!["esalary".to_string()],
    ));
    // permission predicate: for all(e in Emps : e.esalary >= 0)
    let quantified = Term::quant(
        Quantifier::Forall,
        "e",
        var("Emps"),
        Term::Apply(
            Op::Ge,
            vec![Term::field(var("e"), "esalary"), Term::Const(Value::Int(0))],
        ),
    );
    // constraint formula reading several fields of the bound tuple:
    // for all(e in Emps : e.esalary >= 0 and e.ename != "" and e.edept = "Research")
    let multifield = Term::quant(
        Quantifier::Forall,
        "e",
        var("Emps"),
        Term::Apply(
            Op::And,
            vec![
                Term::Apply(
                    Op::And,
                    vec![
                        Term::Apply(
                            Op::Ge,
                            vec![Term::field(var("e"), "esalary"), Term::Const(Value::Int(0))],
                        ),
                        Term::Apply(
                            Op::Neq,
                            vec![Term::field(var("e"), "ename"), Term::Const(Value::from(""))],
                        ),
                    ],
                ),
                Term::Apply(
                    Op::Eq,
                    vec![
                        Term::field(var("e"), "edept"),
                        Term::Const(Value::from("Research")),
                    ],
                ),
            ],
        ),
    );
    vec![
        ("valuation_insert", valuation),
        ("param_attr_ite", param_attr),
        ("derivation_query", derivation),
        ("quantified_pred", quantified),
        ("constraint_multifield", multifield),
    ]
}

fn bench_term_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_term_eval");
    let env = rule_env();
    for (name, term) in rule_terms() {
        term.eval(&env).expect("term evaluates");
        let compiled = Compiled::new(term.clone(), Lowering::Delta);
        assert!(compiled.is_compiled(), "{name} should lower to bytecode");
        group.bench_with_input(BenchmarkId::new("tree", name), &term, |b, t| {
            b.iter(|| black_box(t.eval(&env).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("bytecode", name), &compiled, |b, p| {
            b.iter(|| black_box(p.eval(&env).unwrap()))
        });
    }
    group.finish();
}

/// emp_rel with 64 stored employees; `UpdateSalary` for an unknown name
/// evaluates the `exists` permission over the whole relation and is
/// refused — the step rolls back, so sampling is unbatched steady-state.
fn emp_rel_base(lowering: Lowering) -> (ObjectBase, troll::data::ObjectId) {
    let mut ob = base(troll::specs::EMPLOYMENT, lowering);
    let rel = ob.singleton("emp_rel").expect("singleton");
    ob.execute(&rel, "CreateEmpRel", vec![]).expect("create");
    let bday = Value::Date(Date::new(1960, 1, 1).expect("date"));
    for i in 0..64 {
        ob.execute(
            &rel,
            "InsertEmp",
            vec![
                Value::from(format!("p{i}")),
                bday.clone(),
                Value::Int(1000 + i),
            ],
        )
        .expect("insert");
    }
    (ob, rel)
}

/// The views spec with one person; `IncomeInYear` is a parameterized
/// attribute whose derivation runs on every read, mutating nothing.
fn views_base(lowering: Lowering) -> (ObjectBase, troll::data::ObjectId) {
    let mut ob = base(troll::specs::VIEWS, lowering);
    let ada = ob
        .birth(
            "PERSON",
            vec![Value::from("ada")],
            "create",
            vec![
                Value::Money(troll::data::Money::from_major(4_000)),
                Value::from("Research"),
            ],
        )
        .expect("birth");
    (ob, ada)
}

/// A fresh world of `spec`, compiled under `lowering`.
fn base(spec: &str, lowering: Lowering) -> ObjectBase {
    let system = System::load_str(spec).expect("spec loads");
    SharedModel::with_lowering(system.model().clone(), lowering)
        .spawn()
        .expect("object base")
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_runtime");
    group.sample_size(20);
    for (mode, lowering) in [
        ("bytecode", Lowering::Delta),
        ("treewalk", Lowering::TreeWalk),
    ] {
        let (mut ob, rel) = emp_rel_base(lowering);
        let bday = Value::Date(Date::new(1960, 1, 1).expect("date"));
        group.bench_function(BenchmarkId::new("refused_update", mode), |b| {
            b.iter(|| {
                let err = ob.execute(
                    &rel,
                    "UpdateSalary",
                    vec![Value::from("nobody"), bday.clone(), Value::Int(1)],
                );
                black_box(err.expect_err("permission refuses unknown name"));
            })
        });

        group.bench_function(BenchmarkId::new("change_salary", mode), |b| {
            let mut s = 0i64;
            b.iter(|| {
                // interaction: ChangeSalary >> (DeleteEmp; InsertEmp) —
                // two valuations over the 64-tuple relation per step,
                // relation size invariant
                s += 1;
                black_box(
                    ob.execute(
                        &rel,
                        "ChangeSalary",
                        vec![Value::from("p32"), bday.clone(), Value::Int(s)],
                    )
                    .expect("salary change commits"),
                )
            })
        });

        let (pob, ada) = views_base(lowering);
        group.bench_function(BenchmarkId::new("param_attr_read", mode), |b| {
            b.iter(|| {
                black_box(
                    pob.attribute_with_args(&ada, "IncomeInYear", vec![Value::Int(2026)])
                        .expect("derivation runs"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_term_eval, bench_runtime);
criterion_main!(benches);
