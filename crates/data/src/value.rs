//! The value universe of TROLL data terms.

use crate::{Date, Money, PList, PMap, PSet, Sort, TupleField};
use std::fmt;
use std::sync::Arc;

/// An object identity value.
///
/// The paper (Section 3) requires of identities only that "we should know
/// which of them are equal and which are not, and we should have enough of
/// them around". In TROLL, identities are declared per class under the
/// `identification` keyword as a tuple of data values "analogously to
/// database keys" (e.g. `PERSON` is identified by `name: string` and
/// `birthdate: date`). An [`ObjectId`] is therefore a class name plus a
/// key tuple.
///
/// An identity is a shared handle: cloning one (into a set, an event
/// argument, a history step or a binding) bumps a reference count and
/// copies no string or key. Equality, order, hashing, `Debug`,
/// `Display` and the encoding are those of the `(class, key)` pair
/// (the `Arc` delegates to its contents).
///
/// # Example
///
/// ```
/// use troll_data::{ObjectId, Value, Date};
/// let p = ObjectId::new("PERSON", vec![
///     Value::from("E. Codd"),
///     Value::Date(Date::new(1923, 8, 19)?),
/// ]);
/// assert_eq!(p.class(), "PERSON");
/// assert_eq!(p.to_string(), "PERSON(\"E. Codd\", 1923-08-19)");
/// # Ok::<(), troll_data::DataError>(())
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(Arc<IdRepr>);

/// The shared contents of an [`ObjectId`].
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash)]
struct IdRepr {
    class: String,
    key: Vec<Value>,
}

impl ObjectId {
    /// Creates an identity in class `class` with the given key values.
    pub fn new(class: impl Into<String>, key: Vec<Value>) -> Self {
        ObjectId(Arc::new(IdRepr {
            class: class.into(),
            key,
        }))
    }

    /// Creates an identity with a single key value.
    pub fn singleton(class: impl Into<String>, key: Value) -> Self {
        ObjectId::new(class, vec![key])
    }

    /// The class this identity belongs to.
    pub fn class(&self) -> &str {
        &self.0.class
    }

    /// The key values identifying the object within its class.
    pub fn key(&self) -> &[Value] {
        &self.0.key
    }

    /// Re-tags this identity with a different class name, keeping the key.
    ///
    /// Used when an object appears under another *aspect*: `SUN·computer`
    /// and `SUN·el_device` share the identity key but are addressed
    /// through different templates (paper Example 3.1). Inheritance
    /// morphisms preserve the identity, so retagging is only sound along
    /// such morphisms — the kernel crate enforces that.
    pub fn retag(&self, class: impl Into<String>) -> ObjectId {
        ObjectId::new(class, self.0.key.clone())
    }

    /// Appends the identity's binary encoding to `out`: the class name,
    /// then the key values (see [`Value::encode_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_str(out, &self.0.class);
        put_len(out, self.0.key.len());
        for v in &self.0.key {
            v.encode_into(out);
        }
    }
}

impl fmt::Debug for ObjectId {
    /// The form a derived impl on `{ class, key }` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectId")
            .field("class", &self.0.class)
            .field("key", &self.0.key)
            .finish()
    }
}

/// A `u32` length prefix, little-endian.
fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

/// A length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.class)?;
        f.write_str("(")?;
        write_separated(f, &self.0.key, ", ", |f, v| fmt::Display::fmt(v, f))?;
        f.write_str(")")
    }
}

/// Writes `items` with `sep` between them.
fn write_separated<T>(
    f: &mut fmt::Formatter<'_>,
    items: impl IntoIterator<Item = T>,
    sep: &str,
    mut item: impl FnMut(&mut fmt::Formatter<'_>, T) -> fmt::Result,
) -> fmt::Result {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        item(f, x)?;
    }
    Ok(())
}

/// Writes `s` exactly as `{s:?}` does. A string of printable ASCII
/// without `"` or `\` needs no escape, so it is written between quotes
/// directly; any other string goes through the `Debug` escaper.
fn write_quoted(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    if s.bytes()
        .all(|b| (b' '..=b'~').contains(&b) && b != b'"' && b != b'\\')
    {
        f.write_str("\"")?;
        f.write_str(s)?;
        f.write_str("\"")
    } else {
        fmt::Debug::fmt(s, f)
    }
}

/// A TROLL data value.
///
/// Values are totally ordered (structurally) so that any value may be a
/// set member or map key, as the paper's data signatures require
/// (`set(PERSON)`, `set(tuple(...))`). Note the deliberate absence of
/// floating point: `money` covers the paper's fractional arithmetic
/// exactly.
///
/// `Undefined` is the value of an attribute that has not yet been
/// assigned by any valuation rule (observable only between birth and the
/// first valuation that touches the attribute).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// The undefined observation.
    #[default]
    Undefined,
    /// Truth value.
    Bool(bool),
    /// Integer (also used for `nat`; sort checking enforces sign).
    Int(i64),
    /// Character string.
    Str(String),
    /// Calendar date.
    Date(Date),
    /// Monetary amount.
    Money(Money),
    /// Object identity.
    Id(ObjectId),
    /// Finite set (persistent, structurally shared — see [`PSet`]).
    Set(PSet),
    /// Finite list (persistent, structurally shared — see [`PList`]).
    List(PList),
    /// Finite map (persistent, structurally shared — see [`PMap`]).
    Map(PMap),
    /// Tuple with named fields, kept sorted by field name so equality is
    /// independent of field order in the source text.
    Tuple(Vec<(String, Value)>),
}

impl Value {
    /// Builds a set value from an iterator of elements (duplicates are
    /// collapsed, as for mathematical sets).
    pub fn set_of(elems: impl IntoIterator<Item = Value>) -> Value {
        Value::Set(elems.into_iter().collect())
    }

    /// Builds a list value.
    pub fn list_of(elems: impl IntoIterator<Item = Value>) -> Value {
        Value::List(elems.into_iter().collect())
    }

    /// Builds a map value from key/value pairs (later duplicates of a key
    /// override earlier ones).
    pub fn map_of(pairs: impl IntoIterator<Item = (Value, Value)>) -> Value {
        Value::Map(pairs.into_iter().collect())
    }

    /// Builds a tuple value; fields are sorted by name.
    pub fn tuple_of(fields: impl IntoIterator<Item = (impl Into<String>, Value)>) -> Value {
        let mut fields: Vec<(String, Value)> =
            fields.into_iter().map(|(n, v)| (n.into(), v)).collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        fields.dedup_by(|a, b| a.0 == b.0);
        Value::Tuple(fields)
    }

    /// The empty set.
    pub fn empty_set() -> Value {
        Value::Set(PSet::new())
    }

    /// The empty list.
    pub fn empty_list() -> Value {
        Value::List(PList::new())
    }

    /// Whether this is the undefined observation.
    pub fn is_undefined(&self) -> bool {
        matches!(self, Value::Undefined)
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the identity payload, if this is an `Id`.
    pub fn as_id(&self) -> Option<&ObjectId> {
        match self {
            Value::Id(id) => Some(id),
            _ => None,
        }
    }

    /// Returns the set payload, if this is a `Set`.
    pub fn as_set(&self) -> Option<&PSet> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the list payload, if this is a `List`.
    pub fn as_list(&self) -> Option<&PList> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the map payload, if this is a `Map`.
    pub fn as_map(&self) -> Option<&PMap> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up a tuple field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Tuple(fields) => fields
                .binary_search_by(|(n, _)| n.as_str().cmp(name))
                .ok()
                .map(|i| &fields[i].1),
            _ => None,
        }
    }

    /// Checks whether this value conforms to (is a member of) `sort`.
    ///
    /// `Undefined` conforms only to `optional(_)` sorts, capturing the
    /// paper's convention that attributes are observations that may be
    /// temporarily undefined.
    pub fn conforms_to(&self, sort: &Sort) -> bool {
        match (self, sort) {
            (Value::Undefined, Sort::Optional(_)) => true,
            (v, Sort::Optional(inner)) => v.conforms_to(inner),
            (Value::Bool(_), Sort::Bool) => true,
            (Value::Int(_), Sort::Int) => true,
            (Value::Int(i), Sort::Nat) => *i >= 0,
            (Value::Str(_), Sort::String) => true,
            (Value::Date(_), Sort::Date) => true,
            (Value::Money(_), Sort::Money) => true,
            (Value::Id(id), Sort::Id(class)) => id.class() == class,
            (Value::Set(elems), Sort::Set(elem_sort)) => {
                elems.iter().all(|e| e.conforms_to(elem_sort))
            }
            (Value::List(elems), Sort::List(elem_sort)) => {
                elems.iter().all(|e| e.conforms_to(elem_sort))
            }
            (Value::Map(pairs), Sort::Map(k_sort, v_sort)) => pairs
                .iter()
                .all(|(k, v)| k.conforms_to(k_sort) && v.conforms_to(v_sort)),
            (Value::Tuple(fields), Sort::Tuple(field_sorts)) => {
                fields.len() == field_sorts.len() && {
                    // Tuple values are sorted by name; sort declarations may
                    // list fields in any order.
                    let mut sorted: Vec<&TupleField> = field_sorts.iter().collect();
                    sorted.sort_by(|a, b| a.name.cmp(&b.name));
                    fields
                        .iter()
                        .zip(sorted)
                        .all(|((n, v), f)| *n == f.name && v.conforms_to(&f.sort))
                }
            }
            _ => false,
        }
    }

    /// Infers the most specific sort of this value, when one exists.
    ///
    /// Heterogeneous collections and empty collections have no unique
    /// most-specific element sort; for empty collections we default the
    /// element sort to `int` (any use site that cares should check
    /// conformance against the declared sort instead).
    pub fn infer_sort(&self) -> Option<Sort> {
        match self {
            Value::Undefined => None,
            Value::Bool(_) => Some(Sort::Bool),
            Value::Int(i) => Some(if *i >= 0 { Sort::Nat } else { Sort::Int }),
            Value::Str(_) => Some(Sort::String),
            Value::Date(_) => Some(Sort::Date),
            Value::Money(_) => Some(Sort::Money),
            Value::Id(id) => Some(Sort::Id(id.class().to_string())),
            Value::Set(elems) => {
                let elem = Self::common_sort(elems.iter())?;
                Some(Sort::set(elem))
            }
            Value::List(elems) => {
                let elem = Self::common_sort(elems.iter())?;
                Some(Sort::list(elem))
            }
            Value::Map(pairs) => {
                let k = Self::common_sort(pairs.keys())?;
                let v = Self::common_sort(pairs.values())?;
                Some(Sort::map(k, v))
            }
            Value::Tuple(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (n, v) in fields {
                    out.push(TupleField::new(n.clone(), v.infer_sort()?));
                }
                Some(Sort::Tuple(out))
            }
        }
    }

    fn common_sort<'a>(mut values: impl Iterator<Item = &'a Value>) -> Option<Sort> {
        let first = match values.next() {
            None => return Some(Sort::Int),
            Some(v) => v.infer_sort()?,
        };
        values.try_fold(first, |acc, v| {
            let s = v.infer_sort()?;
            if s.is_subsort_of(&acc) {
                Some(acc)
            } else if acc.is_subsort_of(&s) {
                Some(s)
            } else {
                None
            }
        })
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Date> for Value {
    fn from(d: Date) -> Self {
        Value::Date(d)
    }
}

impl From<Money> for Value {
    fn from(m: Money) -> Self {
        Value::Money(m)
    }
}

impl From<ObjectId> for Value {
    fn from(id: ObjectId) -> Self {
        Value::Id(id)
    }
}

impl FromIterator<Value> for Value {
    /// Collecting an iterator of values yields a list value.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::list_of(iter)
    }
}

impl Value {
    /// Appends the value's binary encoding to `out`: a tag byte per
    /// node, little-endian fixed-width numbers, and `u32` length
    /// prefixes on strings and collections. Two values encode to the
    /// same bytes exactly when they are equal, so the bytes serve as a
    /// compact owned key; `troll-store` writes values to disk this way.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Undefined => out.push(0),
            Value::Bool(b) => out.extend_from_slice(&[1, u8::from(*b)]),
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                put_str(out, s);
            }
            Value::Date(d) => {
                out.push(4);
                out.extend_from_slice(&d.year().to_le_bytes());
                out.extend_from_slice(&[d.month(), d.day()]);
            }
            Value::Money(m) => {
                out.push(5);
                out.extend_from_slice(&m.cents().to_le_bytes());
            }
            Value::Id(id) => {
                out.push(6);
                id.encode_into(out);
            }
            Value::Set(xs) => {
                out.push(7);
                put_len(out, xs.len());
                for x in xs {
                    x.encode_into(out);
                }
            }
            Value::List(xs) => {
                out.push(8);
                put_len(out, xs.len());
                for x in xs {
                    x.encode_into(out);
                }
            }
            Value::Map(m) => {
                out.push(9);
                put_len(out, m.len());
                for (k, x) in m.iter() {
                    k.encode_into(out);
                    x.encode_into(out);
                }
            }
            Value::Tuple(fields) => {
                out.push(10);
                put_len(out, fields.len());
                for (name, x) in fields {
                    put_str(out, name);
                    x.encode_into(out);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |f: &mut fmt::Formatter<'_>, v: &Value| fmt::Display::fmt(v, f);
        match self {
            Value::Undefined => f.write_str("undefined"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Int(i) => fmt::Display::fmt(i, f),
            Value::Str(s) => write_quoted(f, s),
            Value::Date(d) => fmt::Display::fmt(d, f),
            Value::Money(m) => fmt::Display::fmt(m, f),
            Value::Id(id) => fmt::Display::fmt(id, f),
            Value::Set(elems) => {
                f.write_str("{")?;
                write_separated(f, elems.iter(), ", ", show)?;
                f.write_str("}")
            }
            Value::List(elems) => {
                f.write_str("[")?;
                write_separated(f, elems.iter(), ", ", show)?;
                f.write_str("]")
            }
            Value::Map(pairs) => {
                f.write_str("map(")?;
                write_separated(f, pairs.iter(), ", ", |f, (k, v)| {
                    fmt::Display::fmt(k, f)?;
                    f.write_str(" -> ")?;
                    fmt::Display::fmt(v, f)
                })?;
                f.write_str(")")
            }
            Value::Tuple(fields) => {
                f.write_str("tuple(")?;
                write_separated(f, fields, ", ", |f, (n, v)| {
                    f.write_str(n)?;
                    f.write_str(":")?;
                    fmt::Display::fmt(v, f)
                })?;
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn person(name: &str) -> ObjectId {
        ObjectId::singleton("PERSON", Value::from(name))
    }

    #[test]
    fn tuple_fields_are_order_insensitive() {
        let a = Value::tuple_of(vec![("x", Value::from(1)), ("y", Value::from(2))]);
        let b = Value::tuple_of(vec![("y", Value::from(2)), ("x", Value::from(1))]);
        assert_eq!(a, b);
        assert_eq!(a.field("x"), Some(&Value::from(1)));
        assert_eq!(a.field("z"), None);
    }

    #[test]
    fn set_collapses_duplicates() {
        let s = Value::set_of(vec![Value::from(1), Value::from(1), Value::from(2)]);
        assert_eq!(s.as_set().unwrap().len(), 2);
    }

    #[test]
    fn conformance_base_sorts() {
        assert!(Value::from(true).conforms_to(&Sort::Bool));
        assert!(Value::from(-1).conforms_to(&Sort::Int));
        assert!(!Value::from(-1).conforms_to(&Sort::Nat));
        assert!(Value::from(0).conforms_to(&Sort::Nat));
        assert!(Value::from("x").conforms_to(&Sort::String));
        assert!(!Value::from("x").conforms_to(&Sort::Int));
        assert!(Value::Undefined.conforms_to(&Sort::optional(Sort::Int)));
        assert!(!Value::Undefined.conforms_to(&Sort::Int));
        assert!(Value::from(3).conforms_to(&Sort::optional(Sort::Int)));
    }

    #[test]
    fn conformance_identities() {
        let id = Value::Id(person("alice"));
        assert!(id.conforms_to(&Sort::id("PERSON")));
        assert!(!id.conforms_to(&Sort::id("DEPT")));
    }

    #[test]
    fn conformance_collections() {
        let emps = Value::set_of(vec![Value::Id(person("a")), Value::Id(person("b"))]);
        assert!(emps.conforms_to(&Sort::set(Sort::id("PERSON"))));
        assert!(!emps.conforms_to(&Sort::set(Sort::id("DEPT"))));
        assert!(Value::empty_set().conforms_to(&Sort::set(Sort::id("DEPT"))));

        let t = Value::tuple_of(vec![
            ("ename", Value::from("a")),
            ("esalary", Value::from(100)),
        ]);
        let sort = Sort::tuple(vec![
            TupleField::new("esalary", Sort::Int),
            TupleField::new("ename", Sort::String),
        ]);
        assert!(t.conforms_to(&sort), "field order in sort must not matter");
    }

    #[test]
    fn sort_inference() {
        assert_eq!(Value::from(5).infer_sort(), Some(Sort::Nat));
        assert_eq!(Value::from(-5).infer_sort(), Some(Sort::Int));
        let mixed = Value::set_of(vec![Value::from(-1), Value::from(1)]);
        assert_eq!(mixed.infer_sort(), Some(Sort::set(Sort::Int)));
        let hetero = Value::set_of(vec![Value::from(1), Value::from("x")]);
        assert_eq!(hetero.infer_sort(), None);
        assert_eq!(Value::Undefined.infer_sort(), None);
    }

    #[test]
    fn retag_preserves_key() {
        let sun = ObjectId::singleton("computer", Value::from("SUN"));
        let dev = sun.retag("el_device");
        assert_eq!(dev.class(), "el_device");
        assert_eq!(dev.key(), sun.key());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(Value::empty_set().to_string(), "{}");
        assert_eq!(
            Value::list_of(vec![Value::from(1), Value::from(2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(Value::Undefined.to_string(), "undefined");
        assert_eq!(Value::Id(person("alice")).to_string(), "PERSON(\"alice\")");
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn encoded(v: &Value) -> String {
        let mut out = Vec::new();
        v.encode_into(&mut out);
        hex(&out)
    }

    /// WAL records and snapshots store values in this encoding, so these
    /// bytes may only change together with the on-disk format.
    #[test]
    fn encoding_bytes_are_pinned() {
        // class "PERSON", one key value: the string "q1"
        const Q1: &str = concat!("06000000504552534f4e", "01000000", "03", "020000007131");
        let mut id = Vec::new();
        person("q1").encode_into(&mut id);
        assert_eq!(hex(&id), Q1);
        assert_eq!(encoded(&Value::Id(person("q1"))), format!("06{Q1}"));
        assert_eq!(encoded(&Value::from("a\"b")), "0303000000612262");
        assert_eq!(
            encoded(&Value::set_of(vec![
                Value::Id(person("b")),
                Value::Id(person("a")),
            ])),
            concat!(
                "0702000000",
                "0606000000504552534f4e01000000030100000061",
                "0606000000504552534f4e01000000030100000062",
            )
        );
        assert_eq!(
            encoded(&Value::tuple_of(vec![
                ("esalary", Value::from(100)),
                ("ename", Value::from("a")),
            ])),
            concat!(
                "0a02000000",
                "05000000656e616d65",
                "030100000061",
                "070000006573616c617279",
                "026400000000000000",
            )
        );
    }

    #[test]
    fn identity_is_one_pointer() {
        assert_eq!(
            std::mem::size_of::<ObjectId>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn identity_debug_names_its_fields() {
        assert_eq!(
            format!("{:?}", person("a")),
            "ObjectId { class: \"PERSON\", key: [Str(\"a\")] }"
        );
        assert_eq!(
            format!("{:#?}", person("a")),
            "ObjectId {\n    class: \"PERSON\",\n    key: [\n        Str(\n            \"a\",\n        ),\n    ],\n}"
        );
    }

    #[test]
    fn shared_and_rebuilt_identities_agree() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |id: &ObjectId| {
            let mut h = DefaultHasher::new();
            id.hash(&mut h);
            h.finish()
        };
        let a = person("a");
        let shared = a.clone();
        let rebuilt = person("a");
        assert_eq!(a, shared);
        assert_eq!(a, rebuilt);
        assert_eq!(a.cmp(&rebuilt), std::cmp::Ordering::Equal);
        assert_eq!(hash(&a), hash(&rebuilt));
        assert!(a < person("b"));
        assert!(person("b") > shared);
    }

    fn arb_char() -> impl Strategy<Value = char> {
        let code = |c: u32| char::from_u32(c).unwrap_or('\u{fffd}');
        prop_oneof![
            (0x20u32..0x7f).prop_map(code),
            (0u32..0x20).prop_map(code),
            Just('"'),
            Just('\\'),
            Just('\u{7f}'),
            (0x80u32..0x11_0000).prop_map(code),
        ]
    }

    fn arb_scalar() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<bool>().prop_map(Value::from),
            any::<i64>().prop_map(Value::from),
            "[a-z]{0,8}".prop_map(Value::from),
        ]
    }

    proptest! {
        #[test]
        fn ordering_is_total_and_consistent(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
            use std::cmp::Ordering;
            // antisymmetry
            if a.cmp(&b) == Ordering::Equal {
                prop_assert_eq!(&a, &b);
            }
            // transitivity spot check
            if a <= b && b <= c {
                prop_assert!(a <= c);
            }
        }

        #[test]
        fn sets_ignore_insertion_order(mut elems in proptest::collection::vec(arb_scalar(), 0..8)) {
            let s1 = Value::set_of(elems.clone());
            elems.reverse();
            let s2 = Value::set_of(elems);
            prop_assert_eq!(s1, s2);
        }

        #[test]
        fn strings_display_as_debug(s in prop_oneof![
            "[ -~]{0,12}",
            proptest::collection::vec(arb_char(), 0..12).prop_map(String::from_iter),
        ]) {
            prop_assert_eq!(Value::Str(s.clone()).to_string(), format!("{s:?}"));
        }

        #[test]
        fn inferred_sort_admits_value(v in arb_scalar()) {
            let s = v.infer_sort().unwrap();
            prop_assert!(v.conforms_to(&s));
        }
    }
}
