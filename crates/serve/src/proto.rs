//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, answered in
//! request order per connection:
//!
//! ```text
//! → {"op":"open","world":"w1"}
//! ← {"ok":true,"text":"opened w1"}
//! → {"op":"submit-event","world":"w1","line":"birth DEPT (\"Toys\") establishment (date(1991,10,16))"}
//! ← {"ok":true,"text":"born |DEPT|(\"Toys\")"}
//! → {"op":"query-attr","world":"w1","id":"|DEPT|(\"Toys\")","attr":"employees"}
//! ← {"ok":true,"text":"|DEPT|(\"Toys\").employees = {}"}
//! → {"op":"query-view","world":"w1","interface":"SAL_EMPLOYEE"}
//! → {"op":"stats"}            -- server-wide counters
//! → {"op":"stats","world":"w1"} -- steps, attempts, monitor cache, store
//! → {"op":"metrics"}          -- the server registry, Prometheus text
//! → {"op":"shutdown"}
//! ```
//!
//! `metrics` answers `{"ok":true,"text":…}` whose text is the server's
//! metrics registry (`serve.*`, and `repl.*` on a follower) in the
//! Prometheus text exposition format, names prefixed `troll_`.
//!
//! `submit-event` lines use the animation script grammar
//! (`troll_runtime::script`), and the `text` of a successful response
//! is byte-for-byte the [`Outcome`](troll_runtime::script::Outcome)
//! rendering `troll animate` prints for the same line — the server is
//! observationally a remote `animate`.

use crate::json::{parse, Json};
use troll_obs::write_json_str;

/// Maximum accepted request line length (bytes, excluding newline).
pub const MAX_LINE: usize = 1 << 20;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Create (or idempotently reopen) a world.
    Open {
        /// World id, `[A-Za-z0-9_-]{1,64}`.
        world: String,
    },
    /// Run one animation-script line against a world.
    SubmitEvent {
        /// Target world.
        world: String,
        /// Script line (`birth …`, `exec …`, `show …`, `view …`, …).
        line: String,
    },
    /// Observe one attribute (`show` sugar).
    QueryAttr {
        /// Target world.
        world: String,
        /// Identity literal, e.g. `|DEPT|("Toys")`.
        id: String,
        /// Attribute name.
        attr: String,
    },
    /// Materialize a view interface (`view` sugar).
    QueryView {
        /// Target world.
        world: String,
        /// Interface name.
        interface: String,
    },
    /// Server-wide (`world` absent) or per-world counters.
    Stats {
        /// Restrict to one world.
        world: Option<String>,
    },
    /// The server's metrics registry in the Prometheus text format.
    Metrics,
    /// Replication: fetch the TROLL spec source the server runs, so a
    /// follower can build identical worlds.
    ReplSpec,
    /// Replication: list the ids of every world built so far.
    ReplWorlds,
    /// Replication: pull durable WAL records of one world starting at
    /// sequence `from`. The response ships raw hex-encoded frames (or
    /// a snapshot, when `from` fell behind the pruned log).
    ReplPoll {
        /// Target world.
        world: String,
        /// First sequence number wanted.
        from: u64,
    },
    /// Flush and close every world, then exit cleanly.
    Shutdown,
}

/// A world id usable as a filesystem directory name under `--durable`.
pub fn valid_world_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A message suitable for an error response: bad JSON, unknown op,
    /// missing or ill-typed fields, invalid world id.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = parse(line)?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field `op`")?;
        let world = |v: &Json| -> Result<String, String> {
            let w = v
                .get("world")
                .and_then(Json::as_str)
                .ok_or("missing string field `world`")?;
            if !valid_world_id(w) {
                return Err(format!(
                    "invalid world id `{w}` (want [A-Za-z0-9_-]{{1,64}})"
                ));
            }
            Ok(w.to_string())
        };
        let field = |v: &Json, name: &str| -> Result<String, String> {
            Ok(v.get(name)
                .and_then(Json::as_str)
                .ok_or(format!("missing string field `{name}`"))?
                .to_string())
        };
        match op {
            "open" => Ok(Request::Open { world: world(&v)? }),
            "submit-event" => Ok(Request::SubmitEvent {
                world: world(&v)?,
                line: field(&v, "line")?,
            }),
            "query-attr" => Ok(Request::QueryAttr {
                world: world(&v)?,
                id: field(&v, "id")?,
                attr: field(&v, "attr")?,
            }),
            "query-view" => Ok(Request::QueryView {
                world: world(&v)?,
                interface: field(&v, "interface")?,
            }),
            "stats" => Ok(Request::Stats {
                world: match v.get("world") {
                    None | Some(Json::Null) => None,
                    Some(_) => Some(world(&v)?),
                },
            }),
            "metrics" => Ok(Request::Metrics),
            "repl-spec" => Ok(Request::ReplSpec),
            "repl-worlds" => Ok(Request::ReplWorlds),
            "repl-poll" => Ok(Request::ReplPoll {
                world: world(&v)?,
                from: v
                    .get("from")
                    .and_then(Json::as_i64)
                    .filter(|&n| n >= 0)
                    .ok_or("missing non-negative number field `from`")?
                    as u64,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Serializes the request as one JSON line (no trailing newline) —
    /// the client half of the codec, used by the load driver and tests.
    pub fn to_json(&self) -> String {
        let obj = match self {
            Request::Open { world } => vec![
                ("op".to_string(), Json::Str("open".to_string())),
                ("world".to_string(), Json::Str(world.clone())),
            ],
            Request::SubmitEvent { world, line } => vec![
                ("op".to_string(), Json::Str("submit-event".to_string())),
                ("world".to_string(), Json::Str(world.clone())),
                ("line".to_string(), Json::Str(line.clone())),
            ],
            Request::QueryAttr { world, id, attr } => vec![
                ("op".to_string(), Json::Str("query-attr".to_string())),
                ("world".to_string(), Json::Str(world.clone())),
                ("id".to_string(), Json::Str(id.clone())),
                ("attr".to_string(), Json::Str(attr.clone())),
            ],
            Request::QueryView { world, interface } => vec![
                ("op".to_string(), Json::Str("query-view".to_string())),
                ("world".to_string(), Json::Str(world.clone())),
                ("interface".to_string(), Json::Str(interface.clone())),
            ],
            Request::Stats { world } => {
                let mut fields = vec![("op".to_string(), Json::Str("stats".to_string()))];
                if let Some(w) = world {
                    fields.push(("world".to_string(), Json::Str(w.clone())));
                }
                fields
            }
            Request::Metrics => vec![("op".to_string(), Json::Str("metrics".to_string()))],
            Request::ReplSpec => vec![("op".to_string(), Json::Str("repl-spec".to_string()))],
            Request::ReplWorlds => vec![("op".to_string(), Json::Str("repl-worlds".to_string()))],
            Request::ReplPoll { world, from } => vec![
                ("op".to_string(), Json::Str("repl-poll".to_string())),
                ("world".to_string(), Json::Str(world.clone())),
                ("from".to_string(), Json::Num(*from as i64)),
            ],
            Request::Shutdown => vec![("op".to_string(), Json::Str("shutdown".to_string()))],
        };
        Json::Obj(obj).to_json()
    }
}

/// Lower-case hex encoding for shipping raw WAL/snapshot bytes inside
/// a JSON string (the protocol stays printable newline-JSON).
pub fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

/// Inverse of [`hex_encode`]. `None` on odd length or a non-hex digit.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Some(out)
}

/// A protocol response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; `text` is the rendered outcome.
    Ok(String),
    /// Failure; a human-readable reason (refusals, parse errors, …).
    Err(String),
}

impl Response {
    /// Serializes as one JSON line (no trailing newline):
    /// `{"ok":true,"text":…}` or `{"ok":false,"error":…}`, written
    /// straight into one string.
    pub fn to_json(&self) -> String {
        let (head, body) = match self {
            Response::Ok(text) => ("{\"ok\":true,\"text\":", text),
            Response::Err(error) => ("{\"ok\":false,\"error\":", error),
        };
        let mut out = String::with_capacity(head.len() + body.len() + 3);
        out.push_str(head);
        write_json_str(&mut out, body);
        out.push('}');
        out
    }

    /// Parses a response line (the client half).
    ///
    /// # Errors
    ///
    /// Malformed JSON or a shape that is neither success nor failure.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = parse(line)?;
        match v.get("ok") {
            Some(Json::Bool(true)) => Ok(Response::Ok(
                v.get("text")
                    .and_then(Json::as_str)
                    .ok_or("missing `text`")?
                    .to_string(),
            )),
            Some(Json::Bool(false)) => Ok(Response::Err(
                v.get("error")
                    .and_then(Json::as_str)
                    .ok_or("missing `error`")?
                    .to_string(),
            )),
            _ => Err("missing boolean field `ok`".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Open {
                world: "w-1".to_string(),
            },
            Request::SubmitEvent {
                world: "w_2".to_string(),
                line: "birth DEPT (\"Toys\") establishment (date(1991,10,16))".to_string(),
            },
            Request::QueryAttr {
                world: "a".to_string(),
                id: "|DEPT|(\"Toys\")".to_string(),
                attr: "employees".to_string(),
            },
            Request::QueryView {
                world: "a".to_string(),
                interface: "SAL_EMPLOYEE".to_string(),
            },
            Request::Stats { world: None },
            Request::Stats {
                world: Some("a".to_string()),
            },
            Request::Metrics,
            Request::ReplSpec,
            Request::ReplWorlds,
            Request::ReplPoll {
                world: "w-1".to_string(),
                from: 42,
            },
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(Request::parse(&req.to_json()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Ok("born |DEPT|(\"Toys\")".to_string()),
            Response::Err("line 1: not permitted".to_string()),
        ] {
            assert_eq!(Response::parse(&resp.to_json()).unwrap(), resp);
        }
    }

    #[test]
    fn bad_requests_rejected() {
        for bad in [
            "",
            "{}",
            "{\"op\":\"fly\"}",
            "{\"op\":\"open\"}",
            "{\"op\":\"open\",\"world\":\"\"}",
            "{\"op\":\"open\",\"world\":\"a/b\"}",
            "{\"op\":\"open\",\"world\":\"../etc\"}",
            "{\"op\":\"submit-event\",\"world\":\"w\"}",
            "{\"op\":\"open\",\"world\":17}",
            "not json at all",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
        let long = format!("{{\"op\":\"open\",\"world\":\"{}\"}}", "a".repeat(65));
        assert!(Request::parse(&long).is_err(), "65-char world id");
        for bad in [
            "{\"op\":\"repl-poll\",\"world\":\"w\"}",
            "{\"op\":\"repl-poll\",\"world\":\"w\",\"from\":-1}",
            "{\"op\":\"repl-poll\",\"world\":\"w\",\"from\":\"0\"}",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn hex_round_trips() {
        for bytes in [&[][..], &[0u8][..], &[0xde, 0xad, 0xbe, 0xef][..]] {
            let hex = hex_encode(bytes);
            assert_eq!(hex_decode(&hex).unwrap(), bytes);
        }
        assert_eq!(
            hex_decode("DEADbeef").unwrap(),
            vec![0xde, 0xad, 0xbe, 0xef]
        );
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
    }
}
