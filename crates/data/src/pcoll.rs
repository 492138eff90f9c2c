//! Persistent, structurally shared collection values.
//!
//! [`PSet`], [`PList`] and [`PMap`] are the payloads of `Value::Set`,
//! `Value::List` and `Value::Map`. Like [`StateMap`](crate::StateMap)
//! they are typed wrappers over the crate's one path-copying AVL core
//! (`avl.rs`), so cloning a collection is O(1) and producing "old
//! collection ± one element" is O(log n) — only the spine from the root
//! to the touched position is reallocated, everything else is shared
//! with the previous version.
//!
//! This is what makes delta-shaped valuation rules
//! (`employees := insert(P, employees)`) flat in history: historical
//! snapshots keep old versions alive, which with `Arc::make_mut`-style
//! copy-on-write would force a full O(n) clone on every step. Here the
//! old and new versions share all untouched subtrees by construction.
//!
//! Ordering, equality and hashing are **content-based** and coincide
//! with the previous `BTreeSet`/`Vec`/`BTreeMap` payloads: sets and maps
//! iterate in key order, lists in positional order, and comparisons are
//! lexicographic over that iteration. Canonical encodings and the total
//! order on `Value` are therefore unchanged.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::avl::{
    build, get_at, get_ord, ins_at, ins_ord, link_ptr_eq, rem_at, rem_ord, size, Link, TreeIter,
};
use crate::Value;

// ---------------------------------------------------------------------------
// PSet
// ---------------------------------------------------------------------------

/// A persistent finite set of [`Value`]s, iterated in ascending order.
///
/// Clone is O(1); [`insert`](PSet::insert) and [`remove`](PSet::remove)
/// are O(log n) path copies that share all untouched subtrees with the
/// previous version. Inserting an element already present (or removing
/// an absent one) returns the structure unchanged — not even the spine
/// is reallocated.
#[derive(Clone, Default)]
pub struct PSet {
    root: Link<Value>,
}

impl PSet {
    /// The empty set.
    pub fn new() -> Self {
        PSet { root: None }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Membership test, O(log n).
    pub fn contains(&self, v: &Value) -> bool {
        get_ord(&self.root, v, &|k: &Value, e: &Value| k.cmp(e)).is_some()
    }

    /// Inserts `v`; returns `true` if it was not already present.
    pub fn insert(&mut self, v: Value) -> bool {
        match ins_ord(&self.root, v, &|a: &Value, b: &Value| a.cmp(b), |_, _| None) {
            Some((root, _)) => {
                self.root = Some(root);
                true
            }
            None => false,
        }
    }

    /// Removes `v`; returns `true` if it was present.
    pub fn remove(&mut self, v: &Value) -> bool {
        match rem_ord(&self.root, v, &|a: &Value, b: &Value| a.cmp(b)) {
            Some((root, _)) => {
                self.root = root;
                true
            }
            None => false,
        }
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<&Value> {
        let mut cur = self.root.as_ref()?;
        while let Some(l) = &cur.left {
            cur = l;
        }
        Some(&cur.elem)
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &PSet) -> bool {
        if self.ptr_eq(other) {
            return true;
        }
        self.len() <= other.len() && self.iter().all(|e| other.contains(e))
    }

    /// In-order iterator over the elements.
    pub fn iter(&self) -> TreeIter<'_, Value> {
        TreeIter::new(&self.root)
    }

    /// Whether two handles share the same root node (O(1) certain-equal).
    pub fn ptr_eq(&self, other: &PSet) -> bool {
        link_ptr_eq(&self.root, &other.root)
    }
}

impl PartialEq for PSet {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl Eq for PSet {}

impl PartialOrd for PSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PSet {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.ptr_eq(other) {
            return Ordering::Equal;
        }
        self.iter().cmp(other.iter())
    }
}

impl Hash for PSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for e in self.iter() {
            e.hash(state);
        }
    }
}

impl fmt::Debug for PSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Value> for PSet {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut elems: Vec<Value> = iter.into_iter().collect();
        elems.sort();
        elems.dedup();
        PSet {
            root: build(&elems),
        }
    }
}

impl Extend<Value> for PSet {
    fn extend<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a PSet {
    type Item = &'a Value;
    type IntoIter = TreeIter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for PSet {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter().cloned().collect::<Vec<_>>().into_iter()
    }
}

// ---------------------------------------------------------------------------
// PList
// ---------------------------------------------------------------------------

/// A persistent finite list of [`Value`]s (size-indexed AVL tree).
///
/// Clone is O(1); [`push_back`](PList::push_back), positional
/// [`get`](PList::get) and [`remove_at`](PList::remove_at) are
/// O(log n), sharing untouched subtrees with the previous version.
#[derive(Clone, Default)]
pub struct PList {
    root: Link<Value>,
}

impl PList {
    /// The empty list.
    pub fn new() -> Self {
        PList { root: None }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The element at position `idx`, if in bounds.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        get_at(&self.root, idx)
    }

    /// The first element, if any.
    pub fn first(&self) -> Option<&Value> {
        self.get(0)
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&Value> {
        let n = self.len();
        if n == 0 {
            None
        } else {
            self.get(n - 1)
        }
    }

    /// Appends an element, O(log n).
    pub fn push_back(&mut self, v: Value) {
        let idx = self.len();
        self.root = Some(ins_at(&self.root, idx, v));
    }

    /// Inserts an element at `idx` (≤ len), shifting the suffix.
    pub fn insert_at(&mut self, idx: usize, v: Value) {
        assert!(idx <= self.len(), "PList::insert_at out of bounds");
        self.root = Some(ins_at(&self.root, idx, v));
    }

    /// Removes and returns the element at `idx`, if in bounds.
    pub fn remove_at(&mut self, idx: usize) -> Option<Value> {
        if idx >= self.len() {
            return None;
        }
        let root = self.root.as_ref().expect("non-empty");
        let (rest, removed) = rem_at(root, idx);
        self.root = rest;
        Some(removed)
    }

    /// The list without its first element (shares the untouched suffix
    /// structure with `self`).
    pub fn tail(&self) -> Option<PList> {
        let root = self.root.as_ref()?;
        let (rest, _) = rem_at(root, 0);
        Some(PList { root: rest })
    }

    /// Linear membership test.
    pub fn contains(&self, v: &Value) -> bool {
        self.iter().any(|e| e == v)
    }

    /// In-order iterator over the elements.
    pub fn iter(&self) -> TreeIter<'_, Value> {
        TreeIter::new(&self.root)
    }

    /// Whether two handles share the same root node (O(1) certain-equal).
    pub fn ptr_eq(&self, other: &PList) -> bool {
        link_ptr_eq(&self.root, &other.root)
    }
}

impl PartialEq for PList {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl Eq for PList {}

impl PartialOrd for PList {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PList {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.ptr_eq(other) {
            return Ordering::Equal;
        }
        self.iter().cmp(other.iter())
    }
}

impl Hash for PList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for e in self.iter() {
            e.hash(state);
        }
    }
}

impl fmt::Debug for PList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<Value> for PList {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let elems: Vec<Value> = iter.into_iter().collect();
        PList {
            root: build(&elems),
        }
    }
}

impl Extend<Value> for PList {
    fn extend<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        for v in iter {
            self.push_back(v);
        }
    }
}

impl<'a> IntoIterator for &'a PList {
    type Item = &'a Value;
    type IntoIter = TreeIter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for PList {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter().cloned().collect::<Vec<_>>().into_iter()
    }
}

// ---------------------------------------------------------------------------
// PMap
// ---------------------------------------------------------------------------

/// A persistent finite map from [`Value`] keys to [`Value`]s, iterated
/// in ascending key order.
///
/// Clone is O(1); [`insert`](PMap::insert) and [`remove`](PMap::remove)
/// are O(log n) path copies sharing untouched subtrees.
#[derive(Clone, Default)]
pub struct PMap {
    root: Link<(Value, Value)>,
}

fn key_cmp(a: &(Value, Value), b: &(Value, Value)) -> Ordering {
    a.0.cmp(&b.0)
}

fn probe_cmp(key: &Value, e: &(Value, Value)) -> Ordering {
    key.cmp(&e.0)
}

impl PMap {
    /// The empty map.
    pub fn new() -> Self {
        PMap { root: None }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Looks up the value for `key`, O(log n).
    pub fn get(&self, key: &Value) -> Option<&Value> {
        get_ord(&self.root, key, &probe_cmp).map(|e| &e.1)
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &Value) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or replaces the entry for `key`; returns the previous
    /// value, if any.
    pub fn insert(&mut self, key: Value, value: Value) -> Option<Value> {
        let (root, old) = ins_ord(&self.root, (key, value), &key_cmp, |_, new| Some(new))
            .expect("replace-mode insert always changes the tree");
        self.root = Some(root);
        old.map(|(_, v)| v)
    }

    /// Removes the entry for `key`; returns its value, if any.
    pub fn remove(&mut self, key: &Value) -> Option<Value> {
        match rem_ord(&self.root, key, &probe_cmp) {
            Some((root, (_, v))) => {
                self.root = root;
                Some(v)
            }
            None => None,
        }
    }

    /// In-order iterator over `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &Value)> {
        TreeIter::new(&self.root).map(|e| (&e.0, &e.1))
    }

    /// Iterator over keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &Value> {
        TreeIter::new(&self.root).map(|e| &e.0)
    }

    /// Iterator over values in key order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        TreeIter::new(&self.root).map(|e| &e.1)
    }

    /// Whether two handles share the same root node (O(1) certain-equal).
    pub fn ptr_eq(&self, other: &PMap) -> bool {
        link_ptr_eq(&self.root, &other.root)
    }
}

impl PartialEq for PMap {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other)
            || (self.len() == other.len()
                && TreeIter::new(&self.root).eq(TreeIter::new(&other.root)))
    }
}

impl Eq for PMap {}

impl PartialOrd for PMap {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PMap {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.ptr_eq(other) {
            return Ordering::Equal;
        }
        TreeIter::new(&self.root).cmp(TreeIter::new(&other.root))
    }
}

impl Hash for PMap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for e in TreeIter::new(&self.root) {
            e.hash(state);
        }
    }
}

impl fmt::Debug for PMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(Value, Value)> for PMap {
    fn from_iter<I: IntoIterator<Item = (Value, Value)>>(iter: I) -> Self {
        // later duplicates of a key override earlier ones, as for BTreeMap
        let dedup: std::collections::BTreeMap<Value, Value> = iter.into_iter().collect();
        let elems: Vec<(Value, Value)> = dedup.into_iter().collect();
        PMap {
            root: build(&elems),
        }
    }
}

impl Extend<(Value, Value)> for PMap {
    fn extend<I: IntoIterator<Item = (Value, Value)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl IntoIterator for PMap {
    type Item = (Value, Value);
    type IntoIter = std::vec::IntoIter<(Value, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        TreeIter::new(&self.root)
            .cloned()
            .collect::<Vec<_>>()
            .into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avl::check_avl;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn vi(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn set_basic_ops_match_btreeset() {
        let mut p = PSet::new();
        let mut b = BTreeSet::new();
        for i in [5, 3, 8, 1, 9, 3, 7, 2, 6, 4, 0] {
            assert_eq!(p.insert(vi(i)), b.insert(vi(i)));
        }
        assert_eq!(p.len(), b.len());
        assert!(p.iter().eq(b.iter()));
        for i in [3, 11, 0, 9] {
            assert_eq!(p.remove(&vi(i)), b.remove(&vi(i)));
        }
        assert!(p.iter().eq(b.iter()));
        assert_eq!(p.first(), b.first());
    }

    #[test]
    fn set_noop_insert_shares_root() {
        let mut p: PSet = (0..10).map(vi).collect();
        let before = p.clone();
        assert!(!p.insert(vi(5)));
        assert!(p.ptr_eq(&before));
        assert!(!p.remove(&vi(42)));
        assert!(p.ptr_eq(&before));
    }

    #[test]
    fn set_insert_shares_untouched_structure() {
        let old: PSet = (0..64).map(vi).collect();
        let mut new = old.clone();
        assert!(new.insert(vi(1000)));
        assert_eq!(old.len(), 64);
        assert_eq!(new.len(), 65);
        assert!(old.iter().eq((0..64).map(vi).collect::<Vec<_>>().iter()));
    }

    #[test]
    fn list_push_get_tail() {
        let mut p = PList::new();
        for i in 0..100 {
            p.push_back(vi(i));
        }
        assert_eq!(p.len(), 100);
        assert_eq!(p.get(0), Some(&vi(0)));
        assert_eq!(p.get(99), Some(&vi(99)));
        assert_eq!(p.get(100), None);
        let t = p.tail().unwrap();
        assert_eq!(t.len(), 99);
        assert_eq!(t.first(), Some(&vi(1)));
        // original unchanged
        assert_eq!(p.first(), Some(&vi(0)));
    }

    #[test]
    fn list_ordering_matches_vec() {
        let a: PList = [1, 2, 3].into_iter().map(vi).collect();
        let b: PList = [1, 2, 4].into_iter().map(vi).collect();
        let c: PList = [1, 2].into_iter().map(vi).collect();
        assert!(a < b);
        assert!(c < a);
        let va = vec![vi(1), vi(2), vi(3)];
        let vb = vec![vi(1), vi(2), vi(4)];
        assert_eq!(va.cmp(&vb), a.cmp(&b));
    }

    #[test]
    fn map_basic_ops_match_btreemap() {
        let mut p = PMap::new();
        let mut b = BTreeMap::new();
        for (k, v) in [(3, 30), (1, 10), (2, 20), (3, 31), (5, 50)] {
            assert_eq!(p.insert(vi(k), vi(v)), b.insert(vi(k), vi(v)));
        }
        assert_eq!(p.len(), b.len());
        assert!(p.iter().eq(b.iter()));
        assert_eq!(p.get(&vi(3)), b.get(&vi(3)));
        assert_eq!(p.remove(&vi(1)), b.remove(&vi(1)));
        assert_eq!(p.remove(&vi(9)), b.remove(&vi(9)));
        assert!(p.iter().eq(b.iter()));
    }

    proptest! {
        #[test]
        fn set_differential_vs_btreeset(ops in proptest::collection::vec((any::<bool>(), -20i64..20), 0..200)) {
            let mut p = PSet::new();
            let mut b = BTreeSet::new();
            for (is_insert, x) in ops {
                if is_insert {
                    prop_assert_eq!(p.insert(vi(x)), b.insert(vi(x)));
                } else {
                    prop_assert_eq!(p.remove(&vi(x)), b.remove(&vi(x)));
                }
                prop_assert_eq!(p.len(), b.len());
                check_avl(&p.root);
            }
            prop_assert!(p.iter().eq(b.iter()));
        }

        #[test]
        fn list_differential_vs_vec(ops in proptest::collection::vec((0u8..3, -20i64..20), 0..200)) {
            let mut p = PList::new();
            let mut v: Vec<Value> = Vec::new();
            for (kind, x) in ops {
                match kind {
                    0 => { p.push_back(vi(x)); v.push(vi(x)); }
                    1 => {
                        let idx = (x.unsigned_abs() as usize) % (v.len() + 1);
                        p.insert_at(idx, vi(x));
                        v.insert(idx, vi(x));
                    }
                    _ => {
                        if !v.is_empty() {
                            let idx = (x.unsigned_abs() as usize) % v.len();
                            prop_assert_eq!(p.remove_at(idx), Some(v.remove(idx)));
                        }
                    }
                }
                prop_assert_eq!(p.len(), v.len());
                check_avl(&p.root);
            }
            prop_assert!(p.iter().eq(v.iter()));
        }

        #[test]
        fn map_differential_vs_btreemap(ops in proptest::collection::vec((any::<bool>(), -20i64..20, -50i64..50), 0..200)) {
            let mut p = PMap::new();
            let mut b = BTreeMap::new();
            for (is_insert, k, v) in ops {
                if is_insert {
                    prop_assert_eq!(p.insert(vi(k), vi(v)), b.insert(vi(k), vi(v)));
                } else {
                    prop_assert_eq!(p.remove(&vi(k)), b.remove(&vi(k)));
                }
            }
            prop_assert!(p.iter().eq(b.iter()));
        }

        #[test]
        fn from_iter_matches_incremental(elems in proptest::collection::vec(-50i64..50, 0..100)) {
            let built: PSet = elems.iter().map(|&i| vi(i)).collect();
            let mut incr = PSet::new();
            for &i in &elems {
                incr.insert(vi(i));
            }
            prop_assert_eq!(&built, &incr);
            check_avl(&built.root);
            let lbuilt: PList = elems.iter().map(|&i| vi(i)).collect();
            prop_assert!(lbuilt.iter().eq(elems.iter().map(|&i| vi(i)).collect::<Vec<_>>().iter()));
            check_avl(&lbuilt.root);
        }
    }
}
