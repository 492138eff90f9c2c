//! Line-oriented animation scripts: a tiny command language for driving
//! an [`ObjectBase`] — used by `troll animate` and handy in tests.
//!
//! Commands (`--` starts a comment; terms use TROLL expression syntax,
//! identities the `|CLASS|(key…)` literal form):
//!
//! ```text
//! birth CLASS (key…) birth_event (args…)
//! exec  |CLASS|(key…) event (args…)
//! show  |CLASS|(key…) attribute
//! view  INTERFACE
//! call  INTERFACE |CLASS|(key…) event (args…)
//! obligations |CLASS|(key…)
//! tick
//! ```
//!
//! Identities and arguments are first offered to the ground-literal
//! reader ([`troll_lang::read_literal`]), which turns these forms into
//! values in one pass over the text:
//!
//! * identities `|CLASS|(k…)` with literal keys;
//! * strings `"…"` / `'…'`;
//! * integers (`-7` too) and money (`12.5`, `-3.25`);
//! * `true` / `false` and `date(y, m, d)`;
//! * lists `[…]` and sets `{…}` of these.
//!
//! Anything else — a variable, an operator, another function, an
//! invalid date — the reader declines, and the text goes through
//! [`troll_lang::parse_term`] and evaluation, which answer it or name
//! the error. Each such argument adds one to the object base's
//! `script.literal_fallbacks` counter.

use crate::ObjectBase;
use std::collections::BTreeMap;
use troll_data::{MapEnv, ObjectId, Value};

/// The outcome of one script command, for display or assertion.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// `birth` — the new identity.
    Born(ObjectId),
    /// `exec`/`call` — number of synchronous events committed.
    Executed(usize),
    /// `show` — the attribute observation.
    Observation {
        /// The instance read.
        id: ObjectId,
        /// Attribute name.
        attribute: String,
        /// Observed value.
        value: Value,
    },
    /// `view` — interface name and its rows rendered as strings.
    View {
        /// Interface name.
        interface: String,
        /// One rendered line per row.
        rows: Vec<String>,
    },
    /// `obligations` — (formula, discharged) pairs.
    Obligations(Vec<(String, bool)>),
    /// `tick` — number of active steps fired.
    Ticked(usize),
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Born(id) => write!(f, "born {id}"),
            Outcome::Executed(n) => write!(f, "executed {n} event(s)"),
            Outcome::Observation {
                id,
                attribute,
                value,
            } => write!(f, "{id}.{attribute} = {value}"),
            Outcome::View { interface, rows } => {
                writeln!(f, "{interface} ({} rows)", rows.len())?;
                for r in rows {
                    writeln!(f, "  {r}")?;
                }
                Ok(())
            }
            Outcome::Obligations(status) => {
                for (formula, discharged) in status {
                    let s = if *discharged { "discharged" } else { "OPEN" };
                    writeln!(f, "  [{s}] {formula}")?;
                }
                Ok(())
            }
            Outcome::Ticked(n) => write!(f, "tick: {n} active step(s)"),
        }
    }
}

/// Runs a whole script; stops at the first failing line.
///
/// # Errors
///
/// Returns `line-number: message` for the offending line.
pub fn run_script(ob: &mut ObjectBase, script: &str) -> Result<Vec<Outcome>, String> {
    let mut outcomes = Vec::new();
    for (lineno, raw) in script.lines().enumerate() {
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let outcome = run_command(ob, line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Runs a single script command.
///
/// # Errors
///
/// Returns a human-readable message on parse or execution failure.
pub fn run_command(ob: &mut ObjectBase, line: &str) -> Result<Outcome, String> {
    let tokens = split_top_level(line);
    match tokens.first().copied() {
        Some("birth") if tokens.len() == 5 => {
            let key = parse_term_list(ob, tokens[2])?;
            let args = parse_term_list(ob, tokens[4])?;
            let id = ob
                .birth(tokens[1], key, tokens[3], args)
                .map_err(|e| e.to_string())?;
            Ok(Outcome::Born(id))
        }
        Some("exec") if tokens.len() == 4 => {
            let id = parse_identity(ob, tokens[1])?;
            let args = parse_term_list(ob, tokens[3])?;
            let report = ob
                .execute(&id, tokens[2], args)
                .map_err(|e| e.to_string())?;
            Ok(Outcome::Executed(report.occurrences.len()))
        }
        Some("show") if tokens.len() == 3 => query(
            ob,
            Query::Attr {
                id: tokens[1],
                attribute: tokens[2],
            },
        ),
        Some("view") if tokens.len() == 2 => query(
            ob,
            Query::View {
                interface: tokens[1],
            },
        ),
        Some("call") if tokens.len() == 5 => {
            let interface = tokens[1];
            let id = parse_identity(ob, tokens[2])?;
            let args = parse_term_list(ob, tokens[4])?;
            let iface = ob
                .model()
                .interface(interface)
                .ok_or_else(|| format!("unknown interface `{interface}`"))?;
            let var = iface
                .bases
                .first()
                .map(|(_, v)| v.clone())
                .ok_or("interface has no base")?;
            let bindings: BTreeMap<String, ObjectId> = [(var, id)].into();
            let report = ob
                .view_call(interface, &bindings, tokens[3], args)
                .map_err(|e| e.to_string())?;
            Ok(Outcome::Executed(report.occurrences.len()))
        }
        Some("obligations") if tokens.len() == 2 => {
            let id = parse_identity(ob, tokens[1])?;
            let status = ob.check_obligations(&id).map_err(|e| e.to_string())?;
            Ok(Outcome::Obligations(status))
        }
        Some("tick") if tokens.len() == 1 => {
            let reports = ob.tick().map_err(|e| e.to_string())?;
            Ok(Outcome::Ticked(reports.len()))
        }
        _ => Err(format!("unrecognized command `{line}`")),
    }
}

/// A read of a world: the `show`/`view` half of the command language.
/// Reads are views in the paper's sense (§5.1) — they observe and never
/// step the world, so they need only `&ObjectBase`.
#[derive(Debug, Clone, Copy)]
pub enum Query<'a> {
    /// `show` — one attribute of one instance.
    Attr {
        /// Identity literal, e.g. `|DEPT|("Toys")`.
        id: &'a str,
        /// Attribute name.
        attribute: &'a str,
    },
    /// `view` — the rows of one interface.
    View {
        /// Interface name.
        interface: &'a str,
    },
}

/// Answers a [`Query`] against a shared world: the one read path behind
/// [`run_command`]'s `show`/`view` and the server's `query-attr` /
/// `query-view`, on primaries and followers alike.
///
/// # Errors
///
/// Returns a human-readable message on parse or lookup failure.
pub fn query(ob: &ObjectBase, query: Query<'_>) -> Result<Outcome, String> {
    match query {
        Query::Attr { id, attribute } => {
            let id = parse_identity(ob, id)?;
            let value = ob.attribute(&id, attribute).map_err(|e| e.to_string())?;
            Ok(Outcome::Observation {
                id,
                attribute: attribute.to_string(),
                value,
            })
        }
        Query::View { interface } => {
            let v = ob.view(interface).map_err(|e| e.to_string())?;
            let rows = v
                .rows
                .iter()
                .map(|row| {
                    row.attributes
                        .iter()
                        .map(|(k, val)| format!("{k} = {val}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .collect();
            Ok(Outcome::View {
                interface: interface.to_string(),
                rows,
            })
        }
    }
}

/// Splits a line into top-level tokens: whitespace separates, but
/// parentheses/brackets/braces/quotes group. Tokens are slices of `line`.
fn split_top_level(line: &str) -> Vec<&str> {
    let mut tokens = Vec::new();
    let mut start: Option<usize> = None;
    let mut depth = 0usize;
    let mut quote: Option<char> = None;
    for (i, c) in line.char_indices() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                '"' | '\'' => quote = Some(c),
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth = depth.saturating_sub(1),
                c if c.is_whitespace() && depth == 0 => {
                    if let Some(s) = start.take() {
                        tokens.push(&line[s..i]);
                    }
                    continue;
                }
                _ => {}
            },
        }
        start.get_or_insert(i);
    }
    if let Some(s) = start {
        tokens.push(&line[s..]);
    }
    tokens
}

/// Counts one argument the literal reader declined, which then went to
/// the parser and evaluator. Registered on first use, so a run whose
/// arguments are all literals shows no such counter.
fn literal_fallback(ob: &ObjectBase) {
    ob.metrics().counter("script.literal_fallbacks").inc();
}

/// Reads `(t1, t2, …)` into values; `()` is empty. Ground literals are
/// read directly; anything else is parsed and evaluated.
fn parse_term_list(ob: &ObjectBase, group: &str) -> Result<Vec<Value>, String> {
    let inner = group
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| format!("expected a parenthesized argument list, found `{group}`"))?;
    if inner.trim().is_empty() {
        return Ok(vec![]);
    }
    if let Some(values) = troll_lang::read_literals(inner) {
        return Ok(values);
    }
    literal_fallback(ob);
    let term = troll_lang::parse_term(&format!("[{inner}]")).map_err(|e| e.to_string())?;
    match term.eval(&MapEnv::new()).map_err(|e| e.to_string())? {
        Value::List(items) => Ok(items.into_iter().collect()),
        other => Err(format!("argument list evaluated to non-list {other}")),
    }
}

/// Reads an identity literal `|CLASS|(key…)`: directly when its keys
/// are ground literals, else by parsing and evaluating it.
fn parse_identity(ob: &ObjectBase, text: &str) -> Result<ObjectId, String> {
    if let Some(Value::Id(id)) = troll_lang::read_literal(text) {
        return Ok(id);
    }
    literal_fallback(ob);
    let term = troll_lang::parse_term(text).map_err(|e| e.to_string())?;
    match term.eval(&MapEnv::new()).map_err(|e| e.to_string())? {
        Value::Id(id) => Ok(id),
        other => Err(format!("expected an identity literal, found {other}")),
    }
}

/// The command text of a raw script line: everything before the first
/// `--` outside a quoted literal (the same quote rule as the token
/// splitter), trimmed. Empty for blank and comment-only lines.
pub fn strip_comment(raw: &str) -> &str {
    let mut quote: Option<char> = None;
    let mut prev_dash = false;
    for (i, c) in raw.char_indices() {
        match quote {
            Some(q) if c == q => quote = None,
            Some(_) => {}
            None if c == '"' || c == '\'' => quote = Some(c),
            None if c == '-' && prev_dash => return raw[..i - 1].trim(),
            None => {}
        }
        prev_dash = quote.is_none() && c == '-';
    }
    raw.trim()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_respects_nesting_and_quotes() {
        assert_eq!(
            split_top_level(r#"exec |DEPT|("a b") hire (|P|("x", [1, 2]))"#),
            vec!["exec", r#"|DEPT|("a b")"#, "hire", r#"(|P|("x", [1, 2]))"#,]
        );
        assert!(split_top_level("").is_empty());
        assert_eq!(split_top_level("  tick \t"), vec!["tick"]);
    }

    #[test]
    fn comments_end_outside_quotes_only() {
        assert_eq!(
            strip_comment(r#"  birth D ("R--D") e () -- note"#),
            r#"birth D ("R--D") e ()"#
        );
        assert_eq!(strip_comment("show |P|('a--b') x--y"), "show |P|('a--b') x");
        assert_eq!(strip_comment("-- only a comment"), "");
        assert_eq!(strip_comment("tick -"), "tick -");
        assert_eq!(strip_comment("a - - b"), "a - - b");
    }
}
