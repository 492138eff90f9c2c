//! Property test: the binary codec round-trips every [`Value`] shape —
//! including `Undefined`, `Date`, `Money`, `Id` and nested sets — and
//! whole occurrence records, bit-for-bit.
//!
//! Also checks that encoding is *canonical*: re-encoding a decoded
//! value reproduces the original bytes (equal worlds ⇒ equal logs, the
//! property the byte-identical log guarantee rests on).

use proptest::prelude::*;
use troll_data::{Date, Money, ObjectId, Value};
use troll_runtime::Occurrence;
use troll_store::codec::{Dec, Enc};

fn arb_leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Undefined),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        "[a-z0-9 ]{0,12}".prop_map(Value::Str),
        (1800i32..2200, 1u8..=12, 1u8..=28)
            .prop_map(|(y, m, d)| Value::Date(Date::new(y, m, d).expect("valid date"))),
        any::<i64>().prop_map(|c| Value::Money(Money::from_cents(c))),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_leaf().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::list_of),
            proptest::collection::btree_set(inner.clone(), 0..4).prop_map(Value::set_of),
            proptest::collection::vec((inner.clone(), inner.clone()), 0..3).prop_map(Value::map_of),
            proptest::collection::vec(("[a-z]{1,6}", inner.clone()), 0..3).prop_map(|fields| {
                let mut fields: Vec<(String, Value)> = fields;
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                fields.dedup_by(|a, b| a.0 == b.0);
                Value::Tuple(fields)
            }),
            ("[A-Z]{1,6}", proptest::collection::vec(inner, 0..3))
                .prop_map(|(class, key)| Value::Id(ObjectId::new(class, key))),
        ]
    })
}

fn arb_occurrence() -> impl Strategy<Value = Occurrence> {
    (
        "[A-Z]{1,8}",
        proptest::collection::vec(arb_leaf(), 0..3),
        "[A-Z_]{1,8}",
        "[a-z_]{1,10}",
        proptest::collection::vec(arb_value(), 0..4),
    )
        .prop_map(|(class, key, ctx_class, event, args)| Occurrence {
            id: ObjectId::new(class, key),
            ctx_class,
            event,
            args,
        })
}

proptest! {
    #[test]
    fn value_round_trips_and_is_canonical(v in arb_value()) {
        let mut enc = Enc::new();
        enc.value(&v);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let decoded = dec.value().expect("decode");
        dec.finish().expect("no trailing bytes");
        prop_assert_eq!(&decoded, &v);
        // canonical: re-encoding reproduces the bytes
        let mut enc2 = Enc::new();
        enc2.value(&decoded);
        prop_assert_eq!(enc2.into_bytes(), bytes);
    }

    #[test]
    fn occurrence_records_round_trip(occs in proptest::collection::vec(arb_occurrence(), 0..4)) {
        let mut enc = Enc::new();
        enc.u32(occs.len() as u32);
        for occ in &occs {
            enc.occurrence(occ);
        }
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let n = dec.u32().expect("count");
        let decoded: Vec<Occurrence> = (0..n)
            .map(|_| dec.occurrence().expect("decode"))
            .collect();
        dec.finish().expect("no trailing bytes");
        prop_assert_eq!(decoded, occs);
    }

    #[test]
    fn truncated_value_encodings_never_panic(v in arb_value(), cut in 0usize..64) {
        let mut enc = Enc::new();
        enc.value(&v);
        let bytes = enc.into_bytes();
        if cut < bytes.len() {
            // decoding any strict prefix fails cleanly (typed error)
            let mut dec = Dec::new(&bytes[..cut]);
            if dec.value().is_ok() {
                prop_assert!(dec.finish().is_err(), "prefix decoded exactly");
            }
        }
    }
}
