//! Hand-rolled length-prefixed binary codec — no serde, matching the
//! repo's zero-dependency style.
//!
//! Every multi-byte integer is little-endian and fixed-width. Strings
//! are `u32` byte length + UTF-8 bytes; collections are `u32` element
//! count + elements. [`Value`]s carry a one-byte tag:
//!
//! | tag | variant     | encoding                                    |
//! |-----|-------------|---------------------------------------------|
//! | 0   | `Undefined` | —                                           |
//! | 1   | `Bool`      | `u8` (0/1)                                  |
//! | 2   | `Int`       | `i64`                                       |
//! | 3   | `Str`       | string                                      |
//! | 4   | `Date`      | `i32` year, `u8` month, `u8` day            |
//! | 5   | `Money`     | `i64` cents                                 |
//! | 6   | `Id`        | string class, `u32` n, n values             |
//! | 7   | `Set`       | `u32` n, n values (sorted)                  |
//! | 8   | `List`      | `u32` n, n values                           |
//! | 9   | `Map`       | `u32` n, n (key, value) pairs (key-sorted)  |
//! | 10  | `Tuple`     | `u32` n, n (string, value) pairs            |
//!
//! Decoding is total: every failure is a typed [`CodecError`], never a
//! panic, because decode input arrives from disk and may be arbitrary
//! bytes (the fault-injection tests feed bit-flipped frames here).
//! Encoding is canonical — equal values encode to identical bytes (sets
//! and maps iterate in their stored order, which is sorted) — which is
//! what makes "runs of the same script produce byte-identical logs" a
//! meaningful guarantee.

use std::fmt;

use troll_data::{Date, Money, ObjectId, StateMap, Value};
use troll_runtime::{InstanceDump, Occurrence, RoleDump};
use troll_temporal::{EventOccurrence, Step, Trace};

/// A decode failure: offset where it was detected plus the cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset in the record being decoded.
    pub at: usize,
    /// What went wrong.
    pub kind: CodecErrorKind,
}

/// The cause of a [`CodecError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecErrorKind {
    /// Input ended before the encoding was complete.
    UnexpectedEof,
    /// An unknown tag byte.
    BadTag(u8),
    /// String bytes were not valid UTF-8.
    BadUtf8,
    /// A date that no calendar contains (e.g. month 13).
    BadDate,
    /// A boolean byte other than 0 or 1.
    BadBool(u8),
    /// A declared length larger than the remaining input.
    LengthOverrun(u64),
    /// Input bytes left over after the record's encoding ended.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            CodecErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecErrorKind::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecErrorKind::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecErrorKind::BadDate => write!(f, "invalid calendar date"),
            CodecErrorKind::BadBool(b) => write!(f, "invalid boolean byte {b}"),
            CodecErrorKind::LengthOverrun(n) => write!(f, "declared length {n} overruns input"),
            CodecErrorKind::TrailingBytes(n) => write!(f, "{n} trailing bytes after record"),
        }?;
        write!(f, " at offset {}", self.at)
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ----- encoding ------------------------------------------------------

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Consumes the encoder into its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`, little-endian.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a tagged [`Value`] ([`Value::encode_into`]).
    pub fn value(&mut self, v: &Value) {
        v.encode_into(&mut self.buf);
    }

    /// Appends an [`ObjectId`] (class + key values).
    pub fn id(&mut self, id: &ObjectId) {
        id.encode_into(&mut self.buf);
    }

    /// Appends one runtime [`Occurrence`].
    pub fn occurrence(&mut self, occ: &Occurrence) {
        self.id(&occ.id);
        self.str(&occ.ctx_class);
        self.str(&occ.event);
        self.u32(occ.args.len() as u32);
        for a in &occ.args {
            self.value(a);
        }
    }

    /// Appends a [`StateMap`] as sorted (key, value) pairs.
    pub fn state_map(&mut self, state: &StateMap) {
        self.u32(state.len() as u32);
        for (k, v) in state.iter() {
            self.str(k);
            self.value(v);
        }
    }

    /// Appends one trace [`Step`] (events + post-state).
    pub fn step(&mut self, step: &Step) {
        self.u32(step.events.len() as u32);
        for ev in &step.events {
            self.str(&ev.name);
            self.u32(ev.args.len() as u32);
            for a in &ev.args {
                self.value(a);
            }
        }
        self.state_map(&step.state);
    }

    /// Appends a whole [`Trace`].
    pub fn trace(&mut self, trace: &Trace) {
        self.u32(trace.len() as u32);
        for step in trace.iter() {
            self.step(step);
        }
    }

    /// Appends a whole-instance dump (the snapshot unit).
    pub fn instance(&mut self, inst: &InstanceDump) {
        self.id(&inst.id);
        self.str(&inst.class);
        self.u8(u8::from(inst.alive));
        self.u8(u8::from(inst.born));
        self.state_map(&inst.state);
        self.trace(&inst.trace);
        self.u32(inst.roles.len() as u32);
        for role in &inst.roles {
            self.str(&role.name);
            self.u8(u8::from(role.active));
            self.state_map(&role.attrs);
            self.trace(&role.trace);
        }
    }
}

// ----- decoding ------------------------------------------------------

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a decoder at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn err<T>(&self, kind: CodecErrorKind) -> Result<T> {
        Err(CodecError { at: self.pos, kind })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match self.buf.get(self.pos..self.pos + n) {
            Some(bytes) => {
                self.pos += n;
                Ok(bytes)
            }
            None => self.err(CodecErrorKind::UnexpectedEof),
        }
    }

    /// Whether the cursor consumed every input byte.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails with [`CodecErrorKind::TrailingBytes`] unless the record
    /// ended exactly at the input's end.
    pub fn finish(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(CodecError {
                at: self.pos,
                kind: CodecErrorKind::TrailingBytes(self.buf.len() - self.pos),
            })
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a declared element count, bounding it by the bytes that
    /// remain (each element needs at least one byte), so corrupt counts
    /// fail fast instead of looping — or, worse, pre-allocating
    /// gigabytes for a count the input could never deliver.
    pub fn count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return self.err(CodecErrorKind::LengthOverrun(n as u64));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        if len > self.buf.len().saturating_sub(self.pos) {
            return self.err(CodecErrorKind::LengthOverrun(len as u64));
        }
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => self.err(CodecErrorKind::BadUtf8),
        }
    }

    /// Reads a tagged [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        let tag = self.u8()?;
        match tag {
            0 => Ok(Value::Undefined),
            1 => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => self.err(CodecErrorKind::BadBool(b)),
            },
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Str(self.str()?)),
            4 => {
                let year = self.i32()?;
                let month = self.u8()?;
                let day = self.u8()?;
                match Date::new(year, month, day) {
                    Ok(d) => Ok(Value::Date(d)),
                    Err(_) => self.err(CodecErrorKind::BadDate),
                }
            }
            5 => Ok(Value::Money(Money::from_cents(self.i64()?))),
            6 => Ok(Value::Id(self.id()?)),
            7 => {
                let n = self.count()?;
                let mut set = troll_data::PSet::new();
                for _ in 0..n {
                    set.insert(self.value()?);
                }
                Ok(Value::Set(set))
            }
            8 => {
                let n = self.count()?;
                let mut list = troll_data::PList::new();
                for _ in 0..n {
                    list.push_back(self.value()?);
                }
                Ok(Value::List(list))
            }
            9 => {
                let n = self.count()?;
                let mut map = troll_data::PMap::new();
                for _ in 0..n {
                    let k = self.value()?;
                    let v = self.value()?;
                    map.insert(k, v);
                }
                Ok(Value::Map(map))
            }
            10 => {
                let n = self.count()?;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = self.str()?;
                    let v = self.value()?;
                    fields.push((name, v));
                }
                Ok(Value::Tuple(fields))
            }
            t => self.err(CodecErrorKind::BadTag(t)),
        }
    }

    /// Reads an [`ObjectId`].
    pub fn id(&mut self) -> Result<ObjectId> {
        let class = self.str()?;
        let n = self.count()?;
        let mut key = Vec::with_capacity(n);
        for _ in 0..n {
            key.push(self.value()?);
        }
        Ok(ObjectId::new(class, key))
    }

    /// Reads one runtime [`Occurrence`].
    pub fn occurrence(&mut self) -> Result<Occurrence> {
        let id = self.id()?;
        let ctx_class = self.str()?;
        let event = self.str()?;
        let n = self.count()?;
        let mut args = Vec::with_capacity(n);
        for _ in 0..n {
            args.push(self.value()?);
        }
        Ok(Occurrence {
            id,
            ctx_class,
            event,
            args,
        })
    }

    /// Reads a [`StateMap`].
    pub fn state_map(&mut self) -> Result<StateMap> {
        let n = self.count()?;
        let mut state = StateMap::new();
        for _ in 0..n {
            let k = self.str()?;
            let v = self.value()?;
            state.insert(k, v);
        }
        Ok(state)
    }

    /// Reads one trace [`Step`].
    pub fn step(&mut self) -> Result<Step> {
        let n = self.count()?;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.str()?;
            let argc = self.count()?;
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                args.push(self.value()?);
            }
            events.push(EventOccurrence::new(name, args));
        }
        let state = self.state_map()?;
        Ok(Step::with_state(events, state))
    }

    /// Reads a whole [`Trace`].
    pub fn trace(&mut self) -> Result<Trace> {
        let n = self.count()?;
        let mut trace = Trace::new();
        for _ in 0..n {
            trace.push(self.step()?);
        }
        Ok(trace)
    }

    /// Reads a whole-instance dump.
    pub fn instance(&mut self) -> Result<InstanceDump> {
        let id = self.id()?;
        let class = self.str()?;
        let alive = self.u8()? != 0;
        let born = self.u8()? != 0;
        let state = self.state_map()?;
        let trace = self.trace()?;
        let n = self.count()?;
        let mut roles = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.str()?;
            let active = self.u8()? != 0;
            let attrs = self.state_map()?;
            let trace = self.trace()?;
            roles.push(RoleDump {
                name,
                active,
                attrs,
                trace,
            });
        }
        Ok(InstanceDump {
            id,
            class,
            state,
            trace,
            alive,
            born,
            roles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut enc = Enc::new();
        enc.value(v);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let out = dec.value().expect("decode");
        dec.finish().expect("no trailing bytes");
        out
    }

    #[test]
    fn value_round_trips() {
        let samples = vec![
            Value::Undefined,
            Value::Bool(true),
            Value::Int(-42),
            Value::Str("hello, wörld".into()),
            Value::Date(Date::new(1991, 10, 16).unwrap()),
            Value::Money(Money::from_cents(-12_345)),
            Value::Id(ObjectId::new(
                "DEPT",
                vec![Value::from("Toys"), Value::Int(7)],
            )),
            Value::set_of([Value::Int(1), Value::Int(2), Value::Undefined]),
            Value::list_of(vec![Value::Bool(false), Value::Str(String::new())]),
            Value::map_of([(Value::Int(1), Value::Str("one".into()))]),
            Value::Tuple(vec![
                ("name".into(), Value::Str("ada".into())),
                ("salary".into(), Value::Money(Money::from_cents(600_000))),
            ]),
        ];
        for v in &samples {
            assert_eq!(&round_trip(v), v);
        }
        // nesting
        let nested = Value::set_of(samples);
        assert_eq!(round_trip(&nested), nested);
    }

    #[test]
    fn decode_failures_are_typed() {
        // bad tag
        let mut dec = Dec::new(&[99]);
        assert_eq!(dec.value().unwrap_err().kind, CodecErrorKind::BadTag(99));
        // truncated int
        let mut dec = Dec::new(&[2, 1, 2, 3]);
        assert_eq!(dec.value().unwrap_err().kind, CodecErrorKind::UnexpectedEof);
        // invalid date (month 13)
        let mut enc = Enc::new();
        enc.u8(4);
        enc.i32(2024);
        enc.u8(13);
        enc.u8(1);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.value().unwrap_err().kind, CodecErrorKind::BadDate);
        // overrunning string length never allocates or loops
        let mut enc = Enc::new();
        enc.u8(3);
        enc.u32(u32::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert!(matches!(
            dec.value().unwrap_err().kind,
            CodecErrorKind::LengthOverrun(_)
        ));
        // trailing bytes are an error when finish() is demanded
        let mut enc = Enc::new();
        enc.value(&Value::Int(5));
        enc.u8(0xFF);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        dec.value().unwrap();
        assert!(matches!(
            dec.finish().unwrap_err().kind,
            CodecErrorKind::TrailingBytes(1)
        ));
    }

    #[test]
    fn occurrence_round_trips() {
        let occ = Occurrence {
            id: ObjectId::new("PERSON", vec![Value::from("ada")]),
            ctx_class: "MANAGER".into(),
            event: "assign_official_car".into(),
            args: vec![Value::from("tesla"), Value::Undefined],
        };
        let mut enc = Enc::new();
        enc.occurrence(&occ);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.occurrence().expect("decode"), occ);
        dec.finish().unwrap();
    }
}
