//! Differential oracle: [`StateMap`] against `BTreeMap<String, Value>`
//! over random scripts of every entry point the rest of the workspace
//! calls: inserts, removes, gets, `contains_key`, `Env::lookup`,
//! `union`, `Extend`/`FromIterator` (with duplicate keys), `==` against
//! an independently built map, and full iterations.
//!
//! The persistent map must be observationally identical to the standard
//! ordered map it replaced — same lookup results, same removal results,
//! same key-ordered iteration — regardless of operation interleaving.
//! The scripts also interleave snapshot points to check that persistence
//! holds: a snapshot taken mid-script must keep observing the state at
//! snapshot time no matter what the live map does afterwards.
//!
//! These scripts are the whole oracle: `StateMap` has one
//! representation, and its unit tests check the tree's balance and
//! stored sizes after every operation.

use proptest::prelude::*;
use std::collections::BTreeMap;
use troll_data::{Env, PMap, StateMap, Value};

/// One scripted operation over both maps.
#[derive(Debug, Clone)]
enum Op {
    Insert(String, i64),
    Remove(String),
    Get(String),
    ContainsKey(String),
    Lookup(String),
    /// `union` with a map built from these entries (later wins).
    Union(Vec<(String, i64)>),
    /// `Extend` with these entries, duplicates included.
    Extend(Vec<(String, i64)>),
    /// Replace the map by one collected from these entries.
    FromIter(Vec<(String, i64)>),
    /// `==` against a map built independently from the oracle's
    /// entries (in reverse order), and against one with a key changed.
    EqFresh(String),
    /// Compare full key-ordered iteration.
    IterCheck,
    /// Clone the StateMap and remember the oracle state; verified at the
    /// end of the script (persistence).
    Snapshot,
}

/// Keys are drawn from a small pool so scripts actually hit existing
/// entries with removes/overwrites instead of always missing.
fn arb_key() -> impl Strategy<Value = String> {
    (0u64..24).prop_map(|i| format!("k{i:02}"))
}

/// A few entries, small values so duplicate keys often repeat values.
fn arb_entries() -> impl Strategy<Value = Vec<(String, i64)>> {
    proptest::collection::vec((arb_key(), 0i64..4), 0..8)
}

fn entries(pairs: &[(String, i64)]) -> impl Iterator<Item = (String, Value)> + '_ {
    pairs.iter().map(|(k, v)| (k.clone(), Value::from(*v)))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), any::<i64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        arb_key().prop_map(Op::Remove),
        arb_key().prop_map(Op::Get),
        arb_key().prop_map(Op::ContainsKey),
        arb_key().prop_map(Op::Lookup),
        arb_entries().prop_map(Op::Union),
        arb_entries().prop_map(Op::Extend),
        arb_entries().prop_map(Op::FromIter),
        arb_key().prop_map(Op::EqFresh),
        Just(Op::IterCheck),
        Just(Op::Snapshot),
    ]
}

fn run_script(script: &[Op]) -> Result<(), TestCaseError> {
    let mut subject = StateMap::new();
    let mut oracle: BTreeMap<String, Value> = BTreeMap::new();
    let mut snapshots: Vec<(StateMap, BTreeMap<String, Value>)> = Vec::new();
    for op in script {
        match op {
            Op::Insert(k, v) => {
                subject.insert(k.clone(), Value::from(*v));
                oracle.insert(k.clone(), Value::from(*v));
            }
            Op::Remove(k) => {
                prop_assert_eq!(subject.remove(k), oracle.remove(k));
            }
            Op::Get(k) => {
                prop_assert_eq!(subject.get(k), oracle.get(k.as_str()));
            }
            Op::ContainsKey(k) => {
                prop_assert_eq!(subject.contains_key(k), oracle.contains_key(k));
            }
            Op::Lookup(k) => {
                prop_assert_eq!(subject.lookup(k), oracle.get(k).cloned());
            }
            Op::Union(pairs) => {
                let over: StateMap = entries(pairs).collect();
                subject = subject.union(&over);
                oracle.extend(entries(pairs));
            }
            Op::Extend(pairs) => {
                subject.extend(entries(pairs));
                oracle.extend(entries(pairs));
            }
            Op::FromIter(pairs) => {
                subject = entries(pairs).collect();
                oracle = entries(pairs).collect();
            }
            Op::EqFresh(k) => {
                let fresh: StateMap = oracle
                    .iter()
                    .rev()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert!(subject == fresh);
                let mut changed = fresh.clone();
                let mut changed_oracle = oracle.clone();
                changed.insert(k.clone(), Value::from(0));
                changed_oracle.insert(k.clone(), Value::from(0));
                prop_assert_eq!(subject == changed, oracle == changed_oracle);
                prop_assert_eq!(changed == subject, oracle == changed_oracle);
            }
            Op::IterCheck => {
                let got: Vec<(String, Value)> = subject
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect();
                let want: Vec<(String, Value)> =
                    oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                prop_assert_eq!(got, want);
            }
            Op::Snapshot => {
                snapshots.push((subject.clone(), oracle.clone()));
            }
        }
        prop_assert_eq!(subject.len(), oracle.len());
        prop_assert_eq!(subject.is_empty(), oracle.is_empty());
    }
    // final full comparison…
    prop_assert_eq!(subject.to_btree(), oracle);
    // …and every mid-script snapshot still observes its own past state
    for (snap, at_time) in snapshots {
        prop_assert_eq!(snap.to_btree(), at_time);
    }
    Ok(())
}

proptest! {
    #[test]
    fn statemap_matches_btreemap_oracle(script in proptest::collection::vec(arb_op(), 0..120)) {
        run_script(&script)?;
    }

    #[test]
    fn union_matches_oracle_extend(
        base in proptest::collection::vec((arb_key(), any::<i64>()), 0..30),
        over in proptest::collection::vec((arb_key(), any::<i64>()), 0..30),
    ) {
        let base_map: StateMap = base
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect();
        let over_map: StateMap = over
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect();
        let mut oracle: BTreeMap<String, Value> = base
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect();
        for (k, v) in &over {
            oracle.insert(k.clone(), Value::from(*v));
        }
        let merged = base_map.union(&over_map);
        prop_assert_eq!(merged.to_btree(), oracle);
        // union is non-destructive
        prop_assert_eq!(
            base_map.to_btree(),
            base.iter()
                .map(|(k, v)| (k.clone(), Value::from(*v)))
                .collect::<BTreeMap<_, _>>()
        );
    }

    #[test]
    fn equality_agrees_with_oracle(
        a in proptest::collection::vec((arb_key(), 0i64..4), 0..12),
        b in proptest::collection::vec((arb_key(), 0i64..4), 0..12),
    ) {
        let am: StateMap = a.iter().map(|(k, v)| (k.clone(), Value::from(*v))).collect();
        let bm: StateMap = b.iter().map(|(k, v)| (k.clone(), Value::from(*v))).collect();
        prop_assert_eq!(am == bm, am.to_btree() == bm.to_btree());
    }
}

/// `PMap::remove` searches by the borrowed key: a missing key leaves
/// the map as it was, a present one removes exactly that entry.
#[test]
fn pmap_remove_matches_btreemap() {
    let pairs = [
        (3, 30),
        (1, 10),
        (4, 40),
        (1, 11),
        (5, 50),
        (9, 90),
        (2, 20),
    ];
    let mut subject: PMap = pairs
        .iter()
        .map(|&(k, v)| (Value::from(k), Value::from(v)))
        .collect();
    let mut oracle: BTreeMap<Value, Value> = pairs
        .iter()
        .map(|&(k, v)| (Value::from(k), Value::from(v)))
        .collect();
    let before = subject.clone();
    assert_eq!(
        subject.remove(&Value::from(7)),
        oracle.remove(&Value::from(7))
    );
    assert!(
        subject.ptr_eq(&before),
        "a missing key must not copy a path"
    );
    for k in [1, 9, 3, 1, 2, 4, 5, 6] {
        let key = Value::from(k);
        assert_eq!(subject.remove(&key), oracle.remove(&key), "remove {k}");
        assert!(subject.iter().eq(oracle.iter()), "after remove {k}");
        assert_eq!(subject.len(), oracle.len());
    }
    assert!(subject.is_empty());
    assert_eq!(before.len(), 6, "removes leave earlier versions intact");
}
