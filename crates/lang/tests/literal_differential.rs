//! The ground-literal reader against the parser: over generated ground
//! terms, near-misses and argument lists, whenever the reader returns a
//! value, `parse_term` + `eval` returns an equal value that prints the
//! same; the reader never returns a value where the parser errs. Terms
//! inside the reader's grammar must also be read, not declined.

use proptest::prelude::*;
use troll_data::{Date, MapEnv, Value};
use troll_lang::{parse_term, read_literal, read_literals};

/// A generated term: the literal forms the reader takes, plus leaves
/// outside them (verbatim text the reader must decline or match).
#[derive(Debug, Clone)]
enum Lit {
    Str(String, char),
    Int(i64),
    Money {
        negative: bool,
        whole: i64,
        digits: usize,
        fraction: u32,
    },
    Bool(bool),
    Date(i64, i64, i64),
    Id(&'static str, Vec<Lit>),
    List(Vec<Lit>),
    Set(Vec<Lit>),
    Other(&'static str),
}

/// String contents: quotes, backslashes (the lexer has no escapes),
/// the splitter's grouping characters, tabs, newlines (which end no
/// string the lexer accepts) and a non-ASCII letter.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '\\', '\'', '"', '|', '(', ')', ',', '[', ']', '{', '}', '-', 'ä', '\t',
    '\n',
];

/// Near-misses and forms the reader leaves to the parser.
const OTHERS: &[&str] = &[
    "x",
    "1 + 2",
    "|C|",
    "|C|(1",
    "- 1",
    "-x",
    "size({1})",
    "1.234",
    "1.x",
    "2.",
    "date(1991, 10)",
    "date(1991.5, 1, 1)",
    "(1)",
    "((\"a\"))",
    "undefined",
    "if true then 1 else 2",
    "\"open",
    ")",
    "1 2",
    "[1,]",
    "true1",
    "trueä",
    "|Cä|(1)",
    "tuple(a: 1)",
    "9223372036854775808",
];

/// Whitespace variants used between tokens (the lexer's set and more).
const PADS: &[&str] = &["", " ", "  ", "\t", "\n", "\r\n", "\u{a0}"];

/// Text appended to a whole term: trailing junk and comments.
const JUNK: &[&str] = &["", "", "", ")", " x", ",", " -- c", "]", "}", "."];

impl Lit {
    /// Inside the reader's grammar, so it must be read.
    fn readable(&self) -> bool {
        match self {
            Lit::Str(s, q) => !s.contains([*q, '\n']),
            Lit::Int(i) => *i != i64::MIN,
            Lit::Money { digits, .. } => *digits <= 2,
            Lit::Bool(_) => true,
            Lit::Date(y, m, d) => valid_date(*y, *m, *d),
            Lit::Id(_, items) | Lit::List(items) | Lit::Set(items) => {
                items.iter().all(Lit::readable)
            }
            Lit::Other(_) => false,
        }
    }
}

fn valid_date(y: i64, m: i64, d: i64) -> bool {
    match (i32::try_from(y), u8::try_from(m), u8::try_from(d)) {
        (Ok(y), Ok(m), Ok(d)) => Date::new(y, m, d).is_ok(),
        _ => false,
    }
}

/// Renders terms, drawing the whitespace of each slot from `pads` in
/// turn. `\u{a0}` is whitespace to the splitter, not to the lexer.
struct Render<'a> {
    pads: &'a [usize],
    next: usize,
    out: String,
}

impl Render<'_> {
    fn pad(&mut self) {
        let i = self.pads[self.next % self.pads.len()];
        self.next += 1;
        self.out.push_str(PADS[i]);
    }

    fn seq(&mut self, open: &str, items: &[Lit], close: &str) {
        self.out.push_str(open);
        for (i, item) in items.iter().enumerate() {
            self.pad();
            if i > 0 {
                self.out.push(',');
                self.pad();
            }
            self.lit(item);
        }
        self.pad();
        self.out.push_str(close);
    }

    fn lit(&mut self, lit: &Lit) {
        match lit {
            Lit::Str(s, q) => {
                self.out.push(*q);
                self.out.push_str(s);
                self.out.push(*q);
            }
            Lit::Int(i) => self.out.push_str(&i.to_string()),
            Lit::Money {
                negative,
                whole,
                digits,
                fraction,
            } => {
                let sign = if *negative { "-" } else { "" };
                let fraction = format!("{fraction:0digits$}");
                self.out.push_str(&format!("{sign}{whole}.{fraction}"));
            }
            Lit::Bool(b) => self.out.push_str(&b.to_string()),
            Lit::Date(y, m, d) => {
                self.out.push_str("date");
                self.pad();
                self.out.push('(');
                for (i, part) in [y, m, d].into_iter().enumerate() {
                    self.pad();
                    if i > 0 {
                        self.out.push(',');
                        self.pad();
                    }
                    self.out.push_str(&part.to_string());
                }
                self.pad();
                self.out.push(')');
            }
            Lit::Id(class, keys) => {
                self.out.push('|');
                self.pad();
                self.out.push_str(class);
                self.pad();
                self.out.push('|');
                self.pad();
                self.seq("(", keys, ")");
            }
            Lit::List(items) => self.seq("[", items, "]"),
            Lit::Set(items) => self.seq("{", items, "}"),
            Lit::Other(text) => self.out.push_str(text),
        }
    }
}

/// Renders `items` as the inside of an argument list.
fn render(items: &[Lit], pads: &[usize]) -> String {
    let mut r = Render {
        pads,
        next: 0,
        out: String::new(),
    };
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            r.pad();
            r.out.push(',');
        }
        r.pad();
        r.lit(item);
    }
    r.pad();
    r.out
}

fn arb_leaf() -> BoxedStrategy<Lit> {
    prop_oneof![
        (
            proptest::collection::vec(0..ALPHABET.len(), 0..6),
            any::<bool>()
        )
            .prop_map(|(chars, single)| Lit::Str(
                chars.into_iter().map(|i| ALPHABET[i]).collect(),
                if single { '\'' } else { '"' }
            )),
        (-1000i64..1000).prop_map(Lit::Int),
        any::<i64>().prop_map(Lit::Int),
        (any::<bool>(), 0i64..100_000, 1usize..4, 0u32..1000).prop_map(
            |(negative, whole, digits, fraction)| Lit::Money {
                negative,
                whole,
                digits,
                fraction: fraction % 10u32.pow(digits as u32),
            }
        ),
        any::<bool>().prop_map(Lit::Bool),
        (1900i64..2100, 0i64..14, 0i64..33).prop_map(|(y, m, d)| Lit::Date(y, m, d)),
        (0usize..OTHERS.len()).prop_map(|i| Lit::Other(OTHERS[i])),
    ]
    .prop_boxed()
}

fn arb_lit() -> BoxedStrategy<Lit> {
    arb_leaf()
        .prop_recursive(3, 24, 3, |inner| {
            let items = proptest::collection::vec(inner, 0..4);
            prop_oneof![
                (0usize..3, items.clone())
                    .prop_map(|(c, keys)| Lit::Id(["C", "PERSON", "DEPT_2"][c], keys)),
                items.clone().prop_map(Lit::List),
                items.prop_map(Lit::Set),
            ]
        })
        .prop_boxed()
}

/// Pad choices; mostly lexer whitespace, sometimes a no-break space.
fn arb_pads() -> BoxedStrategy<Vec<usize>> {
    proptest::collection::vec(0..PADS.len(), 1..8).prop_boxed()
}

/// What `parse_term` + `eval` make of `text`.
fn parsed(text: &str) -> Result<Value, String> {
    let term = parse_term(text).map_err(|e| e.to_string())?;
    term.eval(&MapEnv::new()).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// One term, as `parse_identity` reads it.
    #[test]
    fn reader_agrees_with_the_parser_on_terms(
        lit in arb_lit(),
        pads in arb_pads(),
        junk in 0..JUNK.len(),
    ) {
        let mut text = render(std::slice::from_ref(&lit), &pads);
        text.push_str(JUNK[junk]);
        let read = read_literal(&text);
        if let Some(v) = &read {
            let p = parsed(&text);
            prop_assert!(p.is_ok(), "reader read {v} from {text:?}, parser erred: {p:?}");
            let p = p.unwrap();
            prop_assert_eq!(v, &p, "{:?}", text);
            prop_assert_eq!(v.to_string(), p.to_string());
        }
        let lexer_pads = pads.iter().all(|&i| i < PADS.len() - 1);
        if lit.readable() && lexer_pads && JUNK[junk].is_empty() {
            prop_assert!(read.is_some(), "reader declined {text:?}");
        }
    }

    /// An argument list, as `parse_term_list` reads it: the reader takes
    /// the inside, the parser the inside wrapped in `[…]`.
    #[test]
    fn reader_agrees_with_the_parser_on_argument_lists(
        items in proptest::collection::vec(arb_lit(), 0..4),
        pads in arb_pads(),
    ) {
        let inner = render(&items, &pads);
        let read = read_literals(&inner);
        if let Some(values) = &read {
            let p = parsed(&format!("[{inner}]"));
            prop_assert!(p.is_ok(), "reader read {values:?} from {inner:?}, parser erred: {p:?}");
            let list = Value::list_of(values.iter().cloned());
            let p = p.unwrap();
            prop_assert_eq!(&list, &p, "{:?}", inner);
            prop_assert_eq!(list.to_string(), p.to_string());
        }
        let lexer_pads = pads.iter().all(|&i| i < PADS.len() - 1);
        if items.iter().all(Lit::readable) && lexer_pads {
            prop_assert!(read.is_some(), "reader declined {inner:?}");
        }
    }
}
