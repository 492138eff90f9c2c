//! Property tests of the wire codec: every request/response the client
//! half can emit parses back to the same value (round-trip), a response
//! line is the bytes the generic JSON writer gives its fields, the JSON
//! layer round-trips arbitrary strings (escaping, non-ASCII), and
//! arbitrary garbage never panics the parser — it errors or, when it
//! happens to be valid JSON, parses without crashing.

use proptest::prelude::*;
use troll_serve::json::{parse, Json};
use troll_serve::proto::{valid_world_id, Request, Response};

fn arb_world() -> impl Strategy<Value = String> {
    "[A-Za-z0-9_-]{1,64}"
}

/// Any printable-ish text: the `\PC` class covers ASCII space..`~`
/// (including quotes and backslashes, which exercise JSON escaping)
/// plus a handful of multibyte characters.
fn arb_text() -> impl Strategy<Value = String> {
    "\\PC{0,40}"
}

/// Characters `\PC` leaves out that JSON must escape.
const CONTROL: &[char] = &['\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{0}'];

fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![
        arb_world().prop_map(|world| Request::Open { world }),
        (arb_world(), arb_text()).prop_map(|(world, line)| Request::SubmitEvent { world, line }),
        (arb_world(), arb_text(), arb_text()).prop_map(|(world, id, attr)| Request::QueryAttr {
            world,
            id,
            attr
        }),
        (arb_world(), arb_text())
            .prop_map(|(world, interface)| Request::QueryView { world, interface }),
        Just(Request::Stats { world: None }),
        arb_world().prop_map(|world| Request::Stats { world: Some(world) }),
        Just(Request::Metrics),
        Just(Request::Shutdown),
    ]
    .prop_boxed()
}

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![
        arb_text().prop_map(Response::Ok),
        arb_text().prop_map(Response::Err),
    ]
    .prop_boxed()
}

proptest! {
    #[test]
    fn requests_round_trip(req in arb_request()) {
        let line = req.to_json();
        prop_assert!(!line.contains('\n'), "one request per line: {line:?}");
        prop_assert_eq!(Request::parse(&line).expect("round-trip"), req);
    }

    #[test]
    fn responses_round_trip(resp in arb_response()) {
        let line = resp.to_json();
        prop_assert!(!line.contains('\n'), "one response per line: {line:?}");
        prop_assert_eq!(Response::parse(&line).expect("round-trip"), resp);
    }

    /// A response line is byte-for-byte the generic `Json` object
    /// rendering of the same fields.
    #[test]
    fn responses_write_the_generic_object_bytes(
        (text, special, ok) in (arb_text(), proptest::collection::vec(0..CONTROL.len(), 0..6), any::<bool>())
    ) {
        let text: String = text.chars().chain(special.into_iter().map(|i| CONTROL[i])).collect();
        let resp = if ok { Response::Ok(text) } else { Response::Err(text) };
        let fields = match &resp {
            Response::Ok(text) => vec![
                ("ok".to_string(), Json::Bool(true)),
                ("text".to_string(), Json::Str(text.clone())),
            ],
            Response::Err(error) => vec![
                ("ok".to_string(), Json::Bool(false)),
                ("error".to_string(), Json::Str(error.clone())),
            ],
        };
        prop_assert_eq!(resp.to_json(), Json::Obj(fields).to_json());
    }

    /// The JSON string codec survives every character shape the
    /// generator can produce, and serialization re-parses to the same
    /// string.
    #[test]
    fn json_strings_round_trip(text in "\\PC{0,60}") {
        let v = Json::Str(text.clone());
        let encoded = v.to_json();
        let decoded = parse(&encoded).expect("parse what we printed");
        prop_assert_eq!(decoded.as_str(), Some(text.as_str()));
    }

    /// Arbitrary text never panics any of the parsers.
    #[test]
    fn garbage_never_panics(line in "\\PC{0,80}") {
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
        let _ = parse(&line);
    }

    /// Mutating one byte of a valid request leaves the parser total:
    /// either a clean error or a (different) valid parse — no panics.
    #[test]
    fn mutated_requests_never_panic(req in arb_request(), idx in any::<u64>(), byte in any::<u8>()) {
        let mut bytes = req.to_json().into_bytes();
        let i = (idx as usize) % bytes.len();
        bytes[i] = byte;
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let _ = Request::parse(&line);
    }

    #[test]
    fn world_id_validation_matches_charset(id in "\\PC{0,70}") {
        let ok = valid_world_id(&id);
        let manual = !id.is_empty()
            && id.len() <= 64
            && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
        prop_assert_eq!(ok, manual);
    }
}
