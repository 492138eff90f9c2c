//! Persistent, structurally-shared attribute-state maps.
//!
//! The paper's observation semantics make every step of an object's
//! life carry the attribute state the object exhibited at that point
//! (`obs(b·t)`, §3), so the runtime snapshots the state map on every
//! committed event — and keeps every historical snapshot alive in the
//! trace. [`StateMap`] makes those snapshots cheap: it is a typed
//! wrapper over the crate's one path-copying AVL core (`avl.rs`, shared
//! with [`PSet`](crate::PSet), [`PList`](crate::PList) and
//! [`PMap`](crate::PMap)), so
//!
//! * `clone` is O(1) — a reference-count bump on the root;
//! * `insert`/`remove` are O(log n) — only the root-to-leaf path is
//!   copied, everything else is shared with the previous version;
//! * `get` is O(log n), iteration is in key order (matching the
//!   `BTreeMap` it replaced), and `len` is O(1) from the root's size;
//! * [`StateMap::ptr_eq`] answers "same snapshot?" in O(1).
//!
//! Keys are `Arc<str>` and values `Arc<Value>`, so path copies share
//! both with the old version instead of deep-cloning (a department's
//! `employees` set is never copied because an unrelated attribute
//! changed).
//!
//! Two process-wide counters in [`troll_obs::global`] make the sharing
//! rate observable (`troll animate --stats`):
//!
//! * `state.clone_shared` — O(1) shared-root clones taken;
//! * `state.path_copy` — insert/remove operations that copied a path.
//!
//! There is one representation and no oracle build: the differential
//! proptests in `tests/statemap_differential.rs` compare every entry
//! point with `BTreeMap`, and the unit tests check the tree's balance
//! and sizes after every operation.

use crate::avl::{get_ord, ins_ord, link_ptr_eq, rem_ord, size, Link, TreeIter};
use crate::value::Value;
use crate::Env;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use troll_obs::Counter;

/// Counter of O(1) shared-root clones (`state.clone_shared`).
fn clone_shared() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("state.clone_shared"))
}

/// Counter of path-copying updates (`state.path_copy`).
fn path_copy() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("state.path_copy"))
}

/// One entry: `Arc`s, so a path copy shares the key and value with the
/// previous version of the map.
type Entry = (Arc<str>, Arc<Value>);

fn key_cmp(a: &Entry, b: &Entry) -> Ordering {
    a.0.cmp(&b.0)
}

fn probe_cmp(key: &str, e: &Entry) -> Ordering {
    key.cmp(&e.0)
}

/// A persistent ordered map from attribute names to [`Value`]s with
/// O(1) structurally-shared clones (see the module docs).
#[derive(Debug, Default)]
pub struct StateMap {
    root: Link<Entry>,
}

impl StateMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        StateMap { root: None }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Looks up a key — O(log n), no allocation.
    pub fn get(&self, key: &str) -> Option<&Value> {
        get_ord(&self.root, key, &probe_cmp).map(|e| e.1.as_ref())
    }

    /// Whether a key is present — O(log n).
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or replaces — O(log n): copies the root-to-leaf path,
    /// shares every untouched subtree, key and value with the
    /// previous version.
    pub fn insert(&mut self, key: impl Into<Arc<str>>, value: Value) {
        self.insert_entry((key.into(), Arc::new(value)));
    }

    /// Insert taking an already-shared entry (used by
    /// [`StateMap::union`] so merged entries share allocations).
    fn insert_entry(&mut self, entry: Entry) {
        path_copy().inc();
        // a replaced entry keeps its key handle, so every version of the
        // map (each a trace step's observation) shares one key allocation
        let (root, _) = ins_ord(&self.root, entry, &key_cmp, |(key, _), (_, value)| {
            Some((key.clone(), value))
        })
        .expect("a replacing insert always changes the tree");
        self.root = Some(root);
    }

    /// Removes a key, returning its value if it was present — O(log n).
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let (root, (_, value)) = rem_ord(&self.root, key, &probe_cmp)?;
        path_copy().inc();
        self.root = root;
        Some(Arc::unwrap_or_clone(value))
    }

    /// Whether both maps share the same root — O(1). `true` implies
    /// equality; `false` implies nothing.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        link_ptr_eq(&self.root, &other.root)
    }

    /// Iterates in ascending key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(TreeIter::new(&self.root))
    }

    /// The union of two maps: `self`'s entries with `over`'s inserted
    /// on top (later wins), sharing `over`'s key/value allocations. Used
    /// for role-attribute overlays — O(|over|·log n), independent of
    /// |self|.
    pub fn union(&self, over: &StateMap) -> StateMap {
        let mut out = self.clone();
        for entry in TreeIter::new(&over.root) {
            out.insert_entry(entry.clone());
        }
        out
    }

    /// Deep-copies into the `BTreeMap` representation (tests/oracles).
    pub fn to_btree(&self) -> BTreeMap<String, Value> {
        self.iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }
}

impl Clone for StateMap {
    fn clone(&self) -> Self {
        clone_shared().inc();
        StateMap {
            root: self.root.clone(),
        }
    }
}

/// In-order iterator over a [`StateMap`].
pub struct Iter<'a>(TreeIter<'a, Entry>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k.as_ref(), v.as_ref()))
    }
}

impl PartialEq for StateMap {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl Eq for StateMap {}

impl Extend<(String, Value)> for StateMap {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl FromIterator<(String, Value)> for StateMap {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut out = StateMap::new();
        out.extend(iter);
        out
    }
}

impl From<BTreeMap<String, Value>> for StateMap {
    fn from(map: BTreeMap<String, Value>) -> Self {
        map.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a StateMap {
    type Item = (&'a str, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Env for StateMap {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.get(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avl::check_avl;
    use proptest::prelude::*;

    fn v(i: i64) -> Value {
        Value::from(i)
    }

    #[test]
    fn insert_get_remove_len() {
        let mut m = StateMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get("a"), None);
        m.insert("b", v(2));
        m.insert("a", v(1));
        m.insert("c", v(3));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get("a"), Some(&v(1)));
        assert_eq!(m.get("b"), Some(&v(2)));
        assert_eq!(m.get("c"), Some(&v(3)));
        // replace keeps the length
        m.insert("b", v(20));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get("b"), Some(&v(20)));
        assert_eq!(m.remove("b"), Some(v(20)));
        assert_eq!(m.remove("b"), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("b"), None);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut m = StateMap::new();
        for k in ["delta", "alpha", "echo", "bravo", "charlie"] {
            m.insert(k, Value::from(k));
        }
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "bravo", "charlie", "delta", "echo"]);
    }

    #[test]
    fn clone_shares_and_updates_do_not_leak_between_versions() {
        let mut m = StateMap::new();
        for i in 0..64 {
            m.insert(format!("k{i:02}"), v(i));
        }
        let snapshot = m.clone();
        assert!(snapshot.ptr_eq(&m));
        m.insert("k07", v(700));
        m.remove("k40");
        assert!(!snapshot.ptr_eq(&m));
        // the old version observes the old values
        assert_eq!(snapshot.get("k07"), Some(&v(7)));
        assert_eq!(snapshot.get("k40"), Some(&v(40)));
        assert_eq!(snapshot.len(), 64);
        // the new one the new
        assert_eq!(m.get("k07"), Some(&v(700)));
        assert_eq!(m.get("k40"), None);
        assert_eq!(m.len(), 63);
    }

    #[test]
    fn equality_is_structural_with_ptr_fast_path() {
        let a: StateMap = [("x".to_string(), v(1)), ("y".to_string(), v(2))]
            .into_iter()
            .collect();
        let b: StateMap = [("y".to_string(), v(2)), ("x".to_string(), v(1))]
            .into_iter()
            .collect();
        assert_eq!(a, b);
        let c = a.clone();
        assert!(c.ptr_eq(&a));
        assert_eq!(c, a);
        let mut d = a.clone();
        d.insert("x", v(9));
        assert_ne!(d, a);
    }

    #[test]
    fn union_overlays_and_keeps_base() {
        let base: StateMap = [
            ("salary".to_string(), v(1000)),
            ("name".to_string(), Value::from("ada")),
        ]
        .into_iter()
        .collect();
        let over: StateMap = [
            ("car".to_string(), Value::from("tesla")),
            ("salary".to_string(), v(2000)),
        ]
        .into_iter()
        .collect();
        let merged = base.union(&over);
        assert_eq!(merged.get("salary"), Some(&v(2000)));
        assert_eq!(merged.get("car"), Some(&Value::from("tesla")));
        assert_eq!(merged.get("name"), Some(&Value::from("ada")));
        assert_eq!(merged.len(), 3);
        // inputs untouched
        assert_eq!(base.get("salary"), Some(&v(1000)));
        assert!(!base.contains_key("car"));
    }

    #[test]
    fn env_lookup_reads_entries() {
        let mut m = StateMap::new();
        m.insert("x", v(42));
        assert_eq!(m.lookup("x"), Some(v(42)));
        assert_eq!(m.lookup("y"), None);
    }

    #[test]
    fn to_btree_round_trips() {
        let mut m = StateMap::new();
        for i in (0..40).rev() {
            m.insert(format!("k{i:02}"), v(i));
        }
        let bt = m.to_btree();
        assert_eq!(bt.len(), 40);
        let back: StateMap = bt.clone().into();
        assert_eq!(back, m);
        assert_eq!(back.to_btree(), bt);
    }

    #[test]
    fn large_random_order_stays_balanced_enough_to_terminate() {
        // deterministic pseudo-shuffle: stride walk over 1 000 keys
        let mut m = StateMap::new();
        let n = 1000usize;
        let mut k = 0usize;
        for _ in 0..n {
            k = (k + 617) % n;
            m.insert(format!("key{k:04}"), v(k as i64));
        }
        assert_eq!(m.len(), n);
        for i in 0..n {
            assert_eq!(m.get(&format!("key{i:04}")), Some(&v(i as i64)));
        }
        let keys: Vec<&str> = m.iter().map(|(kk, _)| kk).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        // removal of every other key keeps order and content
        for i in (0..n).step_by(2) {
            assert!(m.remove(&format!("key{i:04}")).is_some());
        }
        assert_eq!(m.len(), n / 2);
        for i in 0..n {
            assert_eq!(m.get(&format!("key{i:04}")).is_some(), i % 2 == 1);
        }
    }

    /// One mutating entry point, over keys from a small pool so removes
    /// and overwrites hit.
    #[derive(Debug, Clone)]
    enum Step {
        Insert(u8, i64),
        Remove(u8),
        Union(Vec<(u8, i64)>),
        Extend(Vec<(u8, i64)>),
    }

    fn entries(pairs: &[(u8, i64)]) -> Vec<(String, Value)> {
        pairs
            .iter()
            .map(|(k, x)| (format!("k{k:02}"), v(*x)))
            .collect()
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let pairs = || proptest::collection::vec((0u8..24, any::<i64>()), 0..8);
        prop_oneof![
            (0u8..24, any::<i64>()).prop_map(|(k, x)| Step::Insert(k, x)),
            (0u8..24).prop_map(Step::Remove),
            pairs().prop_map(Step::Union),
            pairs().prop_map(Step::Extend),
        ]
    }

    proptest! {
        /// After every operation the tree is AVL-balanced and each
        /// node's stored height and size are right; `len` reads the
        /// root's size, so it must equal the number of entries iterated.
        #[test]
        fn every_operation_keeps_the_tree_balanced(script in proptest::collection::vec(arb_step(), 0..80)) {
            let mut m = StateMap::new();
            for step in script {
                match step {
                    Step::Insert(k, x) => m.insert(format!("k{k:02}"), v(x)),
                    Step::Remove(k) => {
                        m.remove(&format!("k{k:02}"));
                    }
                    Step::Union(pairs) => {
                        let over: StateMap = entries(&pairs).into_iter().collect();
                        check_avl(&over.root);
                        m = m.union(&over);
                    }
                    Step::Extend(pairs) => m.extend(entries(&pairs)),
                }
                check_avl(&m.root);
                prop_assert_eq!(m.len(), m.iter().count());
            }
        }
    }
}
