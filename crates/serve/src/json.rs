//! A minimal hand-rolled JSON codec for the wire protocol.
//!
//! The workspace already writes JSON by hand (trace lines and stats
//! snapshots in `troll-obs`); this module adds the missing half — a
//! strict parser — for the server's request lines. The value model is
//! deliberately small: the protocol needs objects, arrays, strings,
//! 64-bit integers, booleans and `null`. Serialization reuses
//! [`troll_obs::write_json_str`] so every JSON writer in the workspace
//! shares one escaping rule.
//!
//! The parser is strict where it matters for a network frontend: no
//! trailing garbage, no unterminated strings, no bare control
//! characters inside strings, a bounded nesting depth (no stack
//! overflow from `[[[[…`), and floats are rejected outright (the
//! protocol never uses them, and silently truncating one would corrupt
//! a request).

use troll_obs::write_json_str;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value (protocol subset: integers only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A 64-bit signed integer (floats are rejected).
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved, keys should be unique.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                use std::fmt::Write;
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the defect.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte `{}` at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "floats are not part of the protocol (byte {})",
                self.pos
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<i64>()
            .map(Json::Num)
            .map_err(|_| format!("integer out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // scan a run of plain UTF-8 up to the next quote/escape
            let run_start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[run_start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {run_start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(format!("control character in string at byte {}", self.pos)),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor on the first digit),
    /// including surrogate pairs; leaves the cursor past the escape.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // high surrogate: require `\uXXXX` low surrogate
            if self.peek() != Some(b'\\') {
                return Err(format!("lone surrogate at byte {}", self.pos));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(format!("lone surrogate at byte {}", self.pos));
            }
            self.pos += 1;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("bad low surrogate at byte {}", self.pos));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| format!("bad code point at byte {}", self.pos))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(format!("lone low surrogate at byte {}", self.pos))
        } else {
            char::from_u32(hi).ok_or_else(|| format!("bad code point at byte {}", self.pos))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(format!("bad \\u escape at byte {}", self.pos)),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(r#"{"op":"open","world":"w-1","n":-42,"flag":true,"x":null}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("open"));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(-42));
        assert_eq!(v.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_escapes() {
        let original = Json::Obj(vec![(
            "line".to_string(),
            Json::Str("a \"b\"\n\tc \\ d \u{1F980} e".to_string()),
        )]);
        let text = original.to_json();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse(r#""A🦀""#).unwrap(),
            Json::Str("A\u{1F980}".to_string())
        );
        // the same text via \u escapes, including a surrogate pair
        assert_eq!(
            parse(r#""\u0041\ud83e\udd80""#).unwrap(),
            Json::Str("A\u{1F980}".to_string())
        );
        assert!(parse(r#""\ud83e""#).is_err(), "lone surrogate");
        assert!(parse(r#""\udd80""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "}",
            "nul",
            "truth",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "1.5",
            "1e3",
            "\"unterminated",
            "{\"a\":1} trailing",
            "\u{7}",
            "--1",
            "99999999999999999999999999",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }
}
