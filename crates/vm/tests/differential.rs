//! Differential oracle: for random terms over random environments,
//! `Compiled::new(t, Lowering::Delta).eval(env)` must equal
//! `t.eval(env)` **exactly** — the same value on success and the same
//! `DataError` on failure (the crate's equivalence contract).
//! Argument-arity mistakes, unbound variables, sort mismatches and
//! partial operations are all generated on purpose so the error paths
//! are compared too.

use proptest::prelude::*;
use troll_data::{MapEnv, Op, Quantifier, Term, Value};
use troll_vm::{Compiled, Lowering};

const VARS: [&str; 6] = ["x", "y", "s", "l", "t", "u"];

const OPS: [Op; 18] = [
    Op::And,
    Op::Or,
    Op::Not,
    Op::Eq,
    Op::Neq,
    Op::Lt,
    Op::Ge,
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Div,
    Op::Neg,
    Op::Insert,
    Op::Remove,
    Op::In,
    Op::Union,
    Op::Card,
    Op::Head,
];

fn arb_leaf_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Undefined),
        any::<bool>().prop_map(Value::Bool),
        (-20i64..20).prop_map(Value::Int),
        "[a-c]{0,2}".prop_map(Value::Str),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_leaf_value().prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::list_of),
            proptest::collection::btree_set(inner.clone(), 0..3).prop_map(Value::set_of),
            proptest::collection::vec(("[a-c]{1,2}", inner), 0..3).prop_map(Value::tuple_of),
        ]
    })
}

fn arb_var() -> impl Strategy<Value = String> {
    (0usize..VARS.len()).prop_map(|i| VARS[i].to_string())
}

fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        arb_value().prop_map(Term::Const),
        arb_var().prop_map(Term::Var),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (
                (0usize..OPS.len()),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(op, args)| Term::Apply(OPS[op], args)),
            (inner.clone(), "[a-c]{1,2}").prop_map(|(b, f)| Term::field(b, f)),
            proptest::collection::vec(("[a-c]{1,2}", inner.clone()), 0..3).prop_map(Term::MkTuple),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Term::MkSet),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Term::MkList),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, a, b)| Term::ite(c, a, b)),
            (any::<bool>(), arb_var(), inner.clone(), inner.clone()).prop_map(|(all, v, d, b)| {
                let q = if all {
                    Quantifier::Forall
                } else {
                    Quantifier::Exists
                };
                Term::quant(q, v, d, b)
            }),
            (arb_var(), inner.clone(), inner.clone())
                .prop_map(|(v, val, b)| Term::let_in(v, val, b)),
            (inner.clone(), inner.clone()).prop_map(|(r, p)| Term::select(r, p)),
            (inner.clone(), proptest::collection::vec("[a-c]{1,2}", 1..3))
                .prop_map(|(r, fs)| Term::project(r, fs)),
            inner.prop_map(Term::the),
        ]
    })
}

/// A random environment binding a random subset of the variable
/// alphabet (unbound remainders exercise `UnboundVariable`).
fn arb_env() -> impl Strategy<Value = MapEnv> {
    proptest::collection::vec((arb_var(), arb_value()), 0..VARS.len()).prop_map(MapEnv::from_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn compiled_eval_equals_tree_walk(t in arb_term(), env in arb_env()) {
        let compiled = Compiled::new(t.clone(), Lowering::Delta);
        prop_assert_eq!(compiled.eval(&env), t.eval(&env), "term: {}", t);
    }

    #[test]
    fn free_vars_match_tree_walk(t in arb_term()) {
        let compiled = Compiled::new(t.clone(), Lowering::Delta);
        prop_assert_eq!(compiled.free_vars().to_vec(), t.free_vars());
    }
}
