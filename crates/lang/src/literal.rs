//! The ground-literal reader: data values written as literals, read in
//! one pass over the text.
//!
//! An animation step's arguments are data values (paper §3–§4), and in
//! a script they are almost always written as literals:
//!
//! * identities `|CLASS|(k1, …)` with literal keys;
//! * strings `"…"` and `'…'` (verbatim up to the closing quote, as the
//!   lexer reads them);
//! * integers, negative integers (`-7`), money (`12.5`, `-3.25`);
//! * `true` / `false`;
//! * `date(y, m, d)` with integer literals naming a valid date;
//! * lists `[…]` and sets `{…}` of these.
//!
//! [`read_literal`] and [`read_literals`] turn such text straight into
//! [`Value`]s: no token vector, no [`troll_data::Term`], no evaluation.
//! On anything else — a variable, an operator, another function, an
//! invalid or out-of-range date, a comment, malformed text — they
//! *decline* by returning `None`, with no error of their own; the
//! caller then hands the text to [`crate::parse_term`] and evaluates the
//! term, which gives the answer or the error. Whatever the reader
//! accepts, `parse_term` + `eval` accepts too and yields an equal value.

use troll_data::{Date, Money, ObjectId, Value};

/// Reads `text` as one ground literal (surrounding whitespace allowed).
///
/// Returns `None` — declines — on anything that is not a ground literal
/// of the forms listed in the module docs.
///
/// # Example
///
/// ```
/// use troll_data::{ObjectId, Value};
/// let id = troll_lang::read_literal(r#"|PERSON|("ada")"#);
/// assert_eq!(id, Some(Value::Id(ObjectId::singleton("PERSON", Value::from("ada")))));
/// assert_eq!(troll_lang::read_literal("1 + 2"), None);
/// ```
pub fn read_literal(text: &str) -> Option<Value> {
    let mut r = Reader { text, pos: 0 };
    let v = r.value()?;
    r.closes(None).then_some(v)
}

/// Reads `text` as a comma-separated sequence of ground literals — the
/// inside of a list literal without its brackets. Whitespace alone reads
/// as the empty sequence.
///
/// Returns `None` — declines — as [`read_literal`] does, and also on a
/// missing or trailing comma.
pub fn read_literals(text: &str) -> Option<Vec<Value>> {
    Reader { text, pos: 0 }.seq(None)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips the whitespace the lexer skips (and nothing else).
    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes `close`, or checks for the end of the text when `None`.
    fn closes(&mut self, close: Option<u8>) -> bool {
        match close {
            Some(byte) => self.eat(byte),
            None => {
                self.ws();
                self.pos == self.text.len()
            }
        }
    }

    /// `v, v, …` up to `close`; possibly empty. A one-element sequence
    /// is allocated at its exact size.
    fn seq(&mut self, close: Option<u8>) -> Option<Vec<Value>> {
        if self.closes(close) {
            return Some(Vec::new());
        }
        let first = self.value()?;
        if self.closes(close) {
            return Some(vec![first]);
        }
        let mut out = vec![first];
        while self.eat(b',') {
            out.push(self.value()?);
            if self.closes(close) {
                return Some(out);
            }
        }
        None
    }

    fn value(&mut self) -> Option<Value> {
        self.ws();
        let start = self.pos;
        match self.peek()? {
            quote @ (b'"' | b'\'') => {
                let body = &self.text[start + 1..];
                let len = body.find(char::from(quote))?;
                let s = &body[..len];
                if s.contains('\n') {
                    return None;
                }
                self.pos = start + len + 2;
                Some(Value::Str(s.to_owned()))
            }
            b'|' => {
                self.pos += 1;
                self.ws();
                let class = self.ident()?;
                if !self.eat(b'|') || !self.eat(b'(') {
                    return None;
                }
                let mut key = self.seq(Some(b')'))?;
                key.shrink_to_fit();
                Some(Value::Id(ObjectId::new(class, key)))
            }
            b'[' => {
                self.pos += 1;
                Some(Value::List(self.seq(Some(b']'))?.into_iter().collect()))
            }
            b'{' => {
                self.pos += 1;
                Some(Value::Set(self.seq(Some(b'}'))?.into_iter().collect()))
            }
            b'-' => {
                self.pos += 1;
                self.number(true)
            }
            b'0'..=b'9' => self.number(false),
            _ => match self.ident()? {
                "true" => Some(Value::Bool(true)),
                "false" => Some(Value::Bool(false)),
                "date" => self.date(),
                _ => None,
            },
        }
    }

    /// An ASCII identifier (letter first); `None` if there is none here.
    fn ident(&mut self) -> Option<&'a str> {
        let start = self.pos;
        if !self.peek()?.is_ascii_alphabetic() {
            return None;
        }
        while let Some(b) = self.peek() {
            if !(b.is_ascii_alphanumeric() || b == b'_') {
                break;
            }
            self.pos += 1;
        }
        // a non-ASCII letter would continue the lexer's identifier
        if self.peek().is_some_and(|b| !b.is_ascii()) {
            return None;
        }
        Some(&self.text[start..self.pos])
    }

    fn digits(&mut self) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// An integer, or money when a `.` and digits follow; `negative`
    /// when a `-` came directly before.
    fn number(&mut self, negative: bool) -> Option<Value> {
        let whole = self.digits();
        if whole.is_empty() {
            return None;
        }
        let whole: i64 = whole.parse().ok()?;
        let sign = if negative { -1 } else { 1 };
        let fraction_follows = self.peek() == Some(b'.')
            && self
                .text
                .as_bytes()
                .get(self.pos + 1)
                .is_some_and(u8::is_ascii_digit);
        if !fraction_follows {
            return Some(Value::Int(sign * whole));
        }
        self.pos += 1;
        let cents = match self.digits().as_bytes() {
            [d] => i64::from(d - b'0') * 10,
            [d1, d2] => i64::from(d1 - b'0') * 10 + i64::from(d2 - b'0'),
            _ => return None,
        };
        let cents = whole.checked_mul(100)?.checked_add(cents)?;
        Some(Value::Money(Money::from_cents(sign * cents)))
    }

    /// The rest of `date(y, m, d)` after the word `date`.
    fn date(&mut self) -> Option<Value> {
        let mut parts = [0i64; 3];
        for (i, part) in parts.iter_mut().enumerate() {
            let open = if i == 0 { b'(' } else { b',' };
            if !self.eat(open) {
                return None;
            }
            self.ws();
            *part = self.digits().parse().ok()?;
        }
        if !self.eat(b')') {
            return None;
        }
        let [y, m, d] = parts;
        let date = Date::new(
            i32::try_from(y).ok()?,
            u8::try_from(m).ok()?,
            u8::try_from(d).ok()?,
        )
        .ok()?;
        Some(Value::Date(date))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_each_literal_form() {
        let ada = Value::Id(ObjectId::singleton("PERSON", Value::from("ada")));
        assert_eq!(read_literal(r#"|PERSON|("ada")"#), Some(ada.clone()));
        assert_eq!(read_literal(r#" | PERSON | ( 'ada' ) "#), Some(ada.clone()));
        assert_eq!(read_literal("-42"), Some(Value::Int(-42)));
        assert_eq!(
            read_literal("-3.5"),
            Some(Value::Money(Money::from_cents(-350)))
        );
        assert_eq!(read_literal("true"), Some(Value::Bool(true)));
        assert_eq!(
            read_literal("date(1991, 10, 16)"),
            Some(Value::Date(Date::new(1991, 10, 16).unwrap()))
        );
        assert_eq!(
            read_literals(r#"|PERSON|("ada"), [1, 2], {}"#),
            Some(vec![
                ada,
                Value::list_of([Value::Int(1), Value::Int(2)]),
                Value::set_of([]),
            ])
        );
        assert_eq!(read_literals("  "), Some(vec![]));
    }

    #[test]
    fn declines_what_is_not_a_ground_literal() {
        for text in [
            "x",
            "1 + 2",
            "- 1",
            "1.234",
            "1.x",
            "date(1991, 2, 30)",
            "date(-1, 1, 1)",
            "|C|",
            "|C|(1",
            "\"open",
            "[1,]",
            "(1)",
            "size({1})",
            "1 -- note",
            "9223372036854775808",
            "Cä",
        ] {
            assert_eq!(read_literal(text), None, "{text}");
        }
        assert_eq!(read_literals("1 2"), None);
        assert_eq!(read_literals("1,"), None);
    }
}
