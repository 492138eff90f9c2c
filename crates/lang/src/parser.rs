//! Recursive-descent parser for TROLL.

use crate::ast::*;
use crate::{lex, LangError, Result, Token, TokenKind};
use troll_data::{Date, Money, Op, Quantifier, Sort, Term, TupleField, Value};
use troll_temporal::{EventPattern, Formula};

/// Parses a complete TROLL specification.
///
/// # Errors
///
/// Returns a [`LangError`] with source position on the first syntax
/// error.
///
/// # Example
///
/// ```
/// let spec = troll_lang::parse(
///     "object class C identification k: string; template events birth b; end object class C;",
/// )?;
/// assert_eq!(spec.items.len(), 1);
/// # Ok::<(), troll_lang::LangError>(())
/// ```
pub fn parse(source: &str) -> Result<Spec> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        libraries: std::collections::BTreeMap::new(),
    };
    p.spec()
}

/// Parses a standalone expression (used by tests and the runtime REPL
/// helpers).
///
/// # Errors
///
/// Returns a [`LangError`] on syntax errors or trailing input.
pub fn parse_term(source: &str) -> Result<Term> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        libraries: std::collections::BTreeMap::new(),
    };
    let t = p.expr()?;
    p.expect_eof()?;
    Ok(t)
}

/// Parses a standalone temporal formula.
///
/// # Errors
///
/// Returns a [`LangError`] on syntax errors or trailing input.
pub fn parse_formula(source: &str) -> Result<Formula> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        libraries: std::collections::BTreeMap::new(),
    };
    let f = p.formula()?;
    p.expect_eof()?;
    Ok(f)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// `library class` bodies (token runs between the header and the
    /// terminator), for syntactic reuse — the paper's \[SRGS91\]
    /// "syntactical reuse of specification text".
    libraries: std::collections::BTreeMap<String, Vec<Token>>,
}

/// Section-introducing keywords inside class bodies; an identifier that
/// matches one of these ends the previous section.
const SECTION_KEYWORDS: &[&str] = &[
    "identification",
    "data",
    "template",
    "attributes",
    "components",
    "events",
    "constraints",
    "valuation",
    "derivation",
    "permissions",
    "obligations",
    "interaction",
    "interactions",
    "calling",
    "inheriting",
    "view",
    "selection",
    "encapsulating",
    "end",
];

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_at(&self, offset: usize) -> &Token {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)]
    }

    /// Steps past the current token (never past the final `Eof`).
    fn advance(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        let t = self.peek();
        Err(LangError::new(t.line, t.column, message))
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if &self.peek().kind == kind {
            self.advance();
            Ok(())
        } else {
            self.err(format!("expected {kind}, found {}", self.peek().kind))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.peek().is_kw(kw) {
            self.advance();
            Ok(())
        } else {
            self.err(format!(
                "expected keyword `{kw}`, found {}",
                self.peek().kind
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            self.err(format!("unexpected trailing input {}", self.peek().kind))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn at_section_boundary(&self) -> bool {
        match self.peek().ident() {
            Some(word) => SECTION_KEYWORDS.contains(&word),
            None => self.peek().kind == TokenKind::Eof,
        }
    }

    // ----- top level -------------------------------------------------

    fn spec(&mut self) -> Result<Spec> {
        let mut items = Vec::new();
        while self.peek().kind != TokenKind::Eof {
            if self.peek().is_kw("library") {
                self.library_decl()?;
            } else if self.peek().is_kw("object") {
                items.push(self.object_decl()?);
            } else if self.peek().is_kw("interface") {
                items.push(Item::InterfaceClass(self.interface_class()?));
            } else if self.peek().is_kw("global") {
                items.push(Item::GlobalInteractions(self.global_interactions()?));
            } else if self.peek().is_kw("module") {
                items.push(Item::Module(self.module_decl()?));
            } else {
                return self.err(format!(
                    "expected `object`, `interface`, `global` or `module`, found {}",
                    self.peek().kind
                ));
            }
        }
        Ok(Spec { items })
    }

    fn object_decl(&mut self) -> Result<Item> {
        self.expect_kw("object")?;
        let singleton = !self.eat_kw("class");
        let name = self.expect_ident()?;

        // syntactic reuse: `object class NAME = LIB with A = B, …;`
        if self.peek().kind == TokenKind::Eq {
            return self.instantiate_library(&name, singleton);
        }

        let mut decl = ObjectClassDecl {
            name: name.clone(),
            singleton,
            identification: Vec::new(),
            data_types: Vec::new(),
            view_of: None,
            inheriting: Vec::new(),
            body: TemplateBody::default(),
        };

        loop {
            if self.peek().is_kw("end") {
                break;
            } else if self.eat_kw("identification") {
                // a run of `name: sort;` declarations, also accepting
                // `data types …;` interleaved (the paper puts it inside)
                while let Some(word) = self.peek().ident() {
                    if word == "data" {
                        self.advance();
                        self.expect_kw("types")?;
                        decl.data_types = self.sort_list()?;
                        self.expect(&TokenKind::Semi)?;
                        continue;
                    }
                    if SECTION_KEYWORDS.contains(&word) {
                        break;
                    }
                    let pname = self.expect_ident()?;
                    self.expect(&TokenKind::Colon)?;
                    let sort = self.sort_expr()?;
                    self.expect(&TokenKind::Semi)?;
                    decl.identification.push(Param::new(pname, sort));
                }
            } else if self.eat_kw("data") {
                self.expect_kw("types")?;
                decl.data_types = self.sort_list()?;
                self.expect(&TokenKind::Semi)?;
            } else if self.eat_kw("view") {
                self.expect_kw("of")?;
                decl.view_of = Some(self.expect_ident()?);
                self.expect(&TokenKind::Semi)?;
            } else if self.eat_kw("template") {
                // body sections follow
            } else if self.eat_kw("inheriting") {
                let object = self.expect_ident()?;
                self.expect_kw("as")?;
                let alias = self.expect_ident()?;
                self.expect(&TokenKind::Semi)?;
                decl.inheriting.push(InheritDecl { object, alias });
            } else if self.peek().is_kw("attributes")
                || self.peek().is_kw("components")
                || self.peek().is_kw("events")
                || self.peek().is_kw("constraints")
                || self.peek().is_kw("valuation")
                || self.peek().is_kw("derivation")
                || self.peek().is_kw("permissions")
                || self.peek().is_kw("obligations")
                || self.peek().is_kw("interaction")
                || self.peek().is_kw("interactions")
                || self.peek().is_kw("calling")
            {
                self.template_section(&mut decl.body)?;
            } else {
                return self.err(format!(
                    "unexpected {} in object declaration",
                    self.peek().kind
                ));
            }
        }

        self.expect_kw("end")?;
        self.expect_kw("object")?;
        if !singleton {
            self.expect_kw("class")?;
        }
        let closing = self.expect_ident()?;
        if closing != name {
            return self.err(format!(
                "mismatched block: `object {name}` closed by `{closing}`"
            ));
        }
        self.expect(&TokenKind::Semi)?;
        Ok(Item::ObjectClass(decl))
    }

    /// `library class NAME <body tokens> end library class NAME;` — the
    /// body is recorded verbatim for later instantiation.
    fn library_decl(&mut self) -> Result<()> {
        self.expect_kw("library")?;
        self.expect_kw("class")?;
        let name = self.expect_ident()?;
        let start = self.pos;
        // scan for `end library class NAME ;`
        loop {
            if self.peek().kind == TokenKind::Eof {
                return self.err(format!("library class `{name}` is not terminated"));
            }
            if self.peek().is_kw("end")
                && self.peek_at(1).is_kw("library")
                && self.peek_at(2).is_kw("class")
            {
                break;
            }
            self.advance();
        }
        let body: Vec<Token> = self.tokens[start..self.pos].to_vec();
        self.expect_kw("end")?;
        self.expect_kw("library")?;
        self.expect_kw("class")?;
        let closing = self.expect_ident()?;
        if closing != name {
            return self.err(format!(
                "mismatched block: `library class {name}` closed by `{closing}`"
            ));
        }
        self.expect(&TokenKind::Semi)?;
        self.libraries.insert(name, body);
        Ok(())
    }

    /// `object class NAME = LIB with A = <tokens>, B = <tokens>;` —
    /// splices the library body with identifier substitution and parses
    /// the result as an ordinary object class.
    fn instantiate_library(&mut self, name: &str, singleton: bool) -> Result<Item> {
        self.expect(&TokenKind::Eq)?;
        let lib_name = self.expect_ident()?;
        let body = self.libraries.get(&lib_name).cloned().ok_or_else(|| {
            LangError::new(
                self.peek().line,
                self.peek().column,
                format!("unknown library class `{lib_name}`"),
            )
        })?;
        let mut substitutions: Vec<(String, Vec<Token>)> = Vec::new();
        if self.eat_kw("with") {
            loop {
                let key = self.expect_ident()?;
                self.expect(&TokenKind::Eq)?;
                // the replacement is a raw token run up to `,` or `;` at
                // bracket depth 0
                let mut depth = 0usize;
                let mut replacement = Vec::new();
                loop {
                    match &self.peek().kind {
                        TokenKind::Eof => {
                            return self.err("unterminated instantiation");
                        }
                        TokenKind::Comma | TokenKind::Semi if depth == 0 => break,
                        TokenKind::LParen | TokenKind::LBracket | TokenKind::LBrace => depth += 1,
                        TokenKind::RParen | TokenKind::RBracket | TokenKind::RBrace => {
                            depth = depth.saturating_sub(1);
                        }
                        _ => {}
                    }
                    replacement.push(self.peek().clone());
                    self.advance();
                }
                substitutions.push((key, replacement));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::Semi)?;

        // splice: object [class] NAME <substituted body> end object [class] NAME ;
        let line = self.peek().line;
        let mk = |kind: TokenKind| Token::new(kind, line, 0);
        let mut spliced: Vec<Token> = vec![mk(TokenKind::Ident("object".into()))];
        if !singleton {
            spliced.push(mk(TokenKind::Ident("class".into())));
        }
        spliced.push(mk(TokenKind::Ident(name.to_string())));
        for tok in body {
            match &tok.kind {
                TokenKind::Ident(word) => {
                    if let Some((_, replacement)) = substitutions.iter().find(|(k, _)| k == word) {
                        spliced.extend(replacement.iter().cloned());
                    } else {
                        spliced.push(tok);
                    }
                }
                _ => spliced.push(tok),
            }
        }
        spliced.push(mk(TokenKind::Ident("end".into())));
        spliced.push(mk(TokenKind::Ident("object".into())));
        if !singleton {
            spliced.push(mk(TokenKind::Ident("class".into())));
        }
        spliced.push(mk(TokenKind::Ident(name.to_string())));
        spliced.push(mk(TokenKind::Semi));
        spliced.push(mk(TokenKind::Eof));

        let mut sub_parser = Parser {
            tokens: spliced,
            pos: 0,
            libraries: std::collections::BTreeMap::new(),
        };
        sub_parser.object_decl().map_err(|e| {
            LangError::new(
                e.line,
                e.column,
                format!(
                    "in instantiation of library `{lib_name}` as `{name}`: {}",
                    e.message
                ),
            )
        })
    }

    fn template_section(&mut self, body: &mut TemplateBody) -> Result<()> {
        if self.eat_kw("attributes") {
            while !self.at_section_boundary() {
                body.attributes.push(self.attr_decl()?);
            }
        } else if self.eat_kw("components") {
            while !self.at_section_boundary() {
                body.components.push(self.component_decl()?);
            }
        } else if self.eat_kw("events") {
            while !self.at_section_boundary() {
                body.events.push(self.event_decl()?);
            }
        } else if self.eat_kw("constraints") {
            while !self.at_section_boundary() {
                body.constraints.push(self.constraint_decl()?);
            }
        } else if self.eat_kw("valuation") {
            self.skip_variables_decl()?;
            while !self.at_section_boundary() {
                body.valuation.push(self.valuation_rule()?);
            }
        } else if self.eat_kw("derivation") {
            self.eat_kw("rules");
            while !self.at_section_boundary() {
                body.derivation_rules.push(self.derivation_rule()?);
            }
        } else if self.eat_kw("permissions") {
            self.skip_variables_decl()?;
            while !self.at_section_boundary() {
                body.permissions.push(self.permission_rule()?);
            }
        } else if self.eat_kw("obligations") {
            while !self.at_section_boundary() {
                let f = self.formula()?;
                self.expect(&TokenKind::Semi)?;
                body.obligations.push(f);
            }
        } else if self.eat_kw("interaction")
            || self.eat_kw("interactions")
            || self.eat_kw("calling")
        {
            self.skip_variables_decl()?;
            while !self.at_section_boundary() {
                body.interactions.push(self.calling_rule()?);
            }
        } else {
            return self.err("expected a template section");
        }
        Ok(())
    }

    /// `variables P: PERSON; d: date;` — declarations are documentation
    /// for the rule variables; sorts are re-checked by the analyzer, so
    /// the parser records nothing.
    fn skip_variables_decl(&mut self) -> Result<()> {
        if !self.eat_kw("variables") {
            return Ok(());
        }
        loop {
            // name (, name)* : sort ;
            self.expect_ident()?;
            while self.eat(&TokenKind::Comma) {
                self.expect_ident()?;
            }
            self.expect(&TokenKind::Colon)?;
            self.sort_expr()?;
            self.expect(&TokenKind::Semi)?;
            // another declaration follows if we see `ident (,ident)* :`
            let mut is_decl =
                matches!(self.peek().kind, TokenKind::Ident(_)) && !self.at_section_boundary();
            if is_decl {
                // lookahead for `:` after the name list
                let mut k = 1;
                while self.peek_at(k).kind == TokenKind::Comma {
                    k += 2;
                }
                // the sort after `:` may be a named sort or a class
                // sort `|C|`
                is_decl = self.peek_at(k).kind == TokenKind::Colon
                    && (self.peek_at(k + 1).ident().is_some()
                        || self.peek_at(k + 1).kind == TokenKind::Pipe);
            }
            if !is_decl {
                return Ok(());
            }
        }
    }

    fn attr_decl(&mut self) -> Result<AttrDecl> {
        let derived = self.eat_kw("derived");
        let name = self.expect_ident()?;
        // parameterized attribute: IncomeInYear(integer): money
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if self.peek().kind != TokenKind::RParen {
                params.push(self.sort_expr()?);
                while self.eat(&TokenKind::Comma) {
                    params.push(self.sort_expr()?);
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let sort = if self.eat(&TokenKind::Colon) {
            self.sort_expr()?
        } else {
            // the paper omits the sort of some derived attributes
            // (`derived Salary;` in EMPL_IMPL); default to int
            Sort::Int
        };
        self.expect(&TokenKind::Semi)?;
        if !params.is_empty() && !derived {
            return self.err(format!(
                "parameterized attribute `{name}` must be declared `derived`"
            ));
        }
        Ok(AttrDecl {
            name,
            params,
            sort,
            derived,
        })
    }

    fn component_decl(&mut self) -> Result<ComponentDecl> {
        let name = self.expect_ident()?;
        self.expect(&TokenKind::Colon)?;
        let head = self.expect_ident()?;
        let (kind, class) = if head.eq_ignore_ascii_case("list") && self.eat(&TokenKind::LParen) {
            let c = self.expect_ident()?;
            self.expect(&TokenKind::RParen)?;
            (ComponentKind::List, c)
        } else if head.eq_ignore_ascii_case("set") && self.eat(&TokenKind::LParen) {
            let c = self.expect_ident()?;
            self.expect(&TokenKind::RParen)?;
            (ComponentKind::Set, c)
        } else {
            (ComponentKind::Single, head)
        };
        self.expect(&TokenKind::Semi)?;
        Ok(ComponentDecl { name, kind, class })
    }

    fn event_decl(&mut self) -> Result<EventDecl> {
        let mut marker = EventMarker::Update;
        if self.eat_kw("birth") {
            marker = EventMarker::Birth;
        } else if self.eat_kw("death") {
            marker = EventMarker::Death;
        } else if self.eat_kw("active") {
            marker = EventMarker::Active;
        }
        let derived = self.eat_kw("derived");
        let first = self.expect_ident()?;
        // `birth PERSON.become_manager;` — alias of a base event
        let (name, alias_of) = if self.eat(&TokenKind::Dot) {
            let event = self.expect_ident()?;
            (event.clone(), Some((first, event)))
        } else {
            (first, None)
        };
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if self.peek().kind != TokenKind::RParen {
                params.push(self.sort_expr()?);
                while self.eat(&TokenKind::Comma) {
                    params.push(self.sort_expr()?);
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect(&TokenKind::Semi)?;
        Ok(EventDecl {
            name,
            params,
            marker,
            derived,
            alias_of,
        })
    }

    fn constraint_decl(&mut self) -> Result<ConstraintDecl> {
        let kind = if self.eat_kw("static") {
            ConstraintKindAst::Static
        } else if self.eat_kw("dynamic") {
            ConstraintKindAst::Dynamic
        } else if self.eat_kw("initially") {
            ConstraintKindAst::Initially
        } else {
            ConstraintKindAst::Static
        };
        let formula = self.formula()?;
        self.expect(&TokenKind::Semi)?;
        Ok(ConstraintDecl { kind, formula })
    }

    fn valuation_rule(&mut self) -> Result<ValuationRule> {
        let guard = if self.peek().kind == TokenKind::LBrace {
            self.advance();
            let g = self.expr()?;
            self.expect(&TokenKind::RBrace)?;
            self.eat(&TokenKind::Implies); // optional ⇒
            Some(g)
        } else {
            None
        };
        self.expect(&TokenKind::LBracket)?;
        let event = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if self.peek().kind != TokenKind::RParen {
                params.push(self.binder()?);
                while self.eat(&TokenKind::Comma) {
                    params.push(self.binder()?);
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect(&TokenKind::RBracket)?;
        let attribute = self.expect_ident()?;
        self.expect(&TokenKind::Eq)?;
        let value = self.expr()?;
        self.expect(&TokenKind::Semi)?;
        Ok(ValuationRule {
            guard,
            event,
            params,
            attribute,
            value,
        })
    }

    fn binder(&mut self) -> Result<String> {
        if self.eat(&TokenKind::Underscore) {
            Ok(format!("_w{}", self.pos))
        } else {
            self.expect_ident()
        }
    }

    fn derivation_rule(&mut self) -> Result<DerivationRule> {
        let attribute = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if self.peek().kind != TokenKind::RParen {
                params.push(self.binder()?);
                while self.eat(&TokenKind::Comma) {
                    params.push(self.binder()?);
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect(&TokenKind::Eq)?;
        let value = self.expr()?;
        self.expect(&TokenKind::Semi)?;
        Ok(DerivationRule {
            attribute,
            params,
            value,
        })
    }

    fn permission_rule(&mut self) -> Result<PermissionRule> {
        self.expect(&TokenKind::LBrace)?;
        let formula = self.formula()?;
        self.expect(&TokenKind::RBrace)?;
        let event = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if self.peek().kind != TokenKind::RParen {
                params.push(self.binder()?);
                while self.eat(&TokenKind::Comma) {
                    params.push(self.binder()?);
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect(&TokenKind::Semi)?;
        Ok(PermissionRule {
            formula,
            event,
            params,
        })
    }

    fn calling_rule(&mut self) -> Result<CallingRule> {
        let trigger = self.event_ref()?;
        self.expect(&TokenKind::Calls)?;
        let mut calls = Vec::new();
        if self.eat(&TokenKind::LParen) {
            calls.push(self.event_ref()?);
            while self.eat(&TokenKind::Semi) {
                calls.push(self.event_ref()?);
            }
            self.expect(&TokenKind::RParen)?;
        } else {
            calls.push(self.event_ref()?);
        }
        self.expect(&TokenKind::Semi)?;
        Ok(CallingRule { trigger, calls })
    }

    fn event_ref(&mut self) -> Result<EventRef> {
        if self.eat_kw("self") {
            self.expect(&TokenKind::Dot)?;
            let event = self.expect_ident()?;
            let args = self.call_args()?;
            return Ok(EventRef {
                target: TargetRef::Local,
                event,
                args,
            });
        }
        let first = self.expect_ident()?;
        if self.eat(&TokenKind::Dot) {
            // component-qualified: alias.event(args)
            let event = self.expect_ident()?;
            let args = self.call_args()?;
            return Ok(EventRef {
                target: TargetRef::Component(first),
                event,
                args,
            });
        }
        if self.peek().kind == TokenKind::LParen {
            // could be `CLASS(id).event(args)` or a local event with args
            let save = self.pos;
            self.advance(); // (
            let id = self.expr();
            if let Ok(id) = id {
                if self.peek().kind == TokenKind::RParen && self.peek_at(1).kind == TokenKind::Dot {
                    self.advance(); // )
                    self.advance(); // .
                    let event = self.expect_ident()?;
                    let args = self.call_args()?;
                    return Ok(EventRef {
                        target: TargetRef::Instance { class: first, id },
                        event,
                        args,
                    });
                }
            }
            self.pos = save;
            let args = self.call_args()?;
            return Ok(EventRef {
                target: TargetRef::Local,
                event: first,
                args,
            });
        }
        Ok(EventRef {
            target: TargetRef::Local,
            event: first,
            args: Vec::new(),
        })
    }

    fn call_args(&mut self) -> Result<Vec<Term>> {
        let mut args = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if self.peek().kind != TokenKind::RParen {
                args.push(self.expr()?);
                while self.eat(&TokenKind::Comma) {
                    args.push(self.expr()?);
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(args)
    }

    fn global_interactions(&mut self) -> Result<GlobalInteractionsDecl> {
        self.expect_kw("global")?;
        self.expect_kw("interactions")?;
        let mut decl = GlobalInteractionsDecl::default();
        if self.eat_kw("variables") {
            loop {
                let mut names = vec![self.expect_ident()?];
                while self.eat(&TokenKind::Comma) {
                    names.push(self.expect_ident()?);
                }
                self.expect(&TokenKind::Colon)?;
                let sort = self.sort_expr()?;
                self.expect(&TokenKind::Semi)?;
                for n in names {
                    decl.variables.push(Param::new(n, sort.clone()));
                }
                // another declaration follows if `ident (, ident)* :`
                if self.peek().is_kw("end") || self.peek().ident().is_none() {
                    break;
                }
                let mut k = 1;
                while self.peek_at(k).kind == TokenKind::Comma {
                    k += 2;
                }
                if self.peek_at(k).kind != TokenKind::Colon {
                    break;
                }
            }
        }
        while !self.peek().is_kw("end") {
            decl.rules.push(self.calling_rule()?);
        }
        self.expect_kw("end")?;
        self.expect_kw("global")?;
        self.expect_kw("interactions")?;
        self.expect(&TokenKind::Semi)?;
        Ok(decl)
    }

    fn interface_class(&mut self) -> Result<InterfaceClassDecl> {
        self.expect_kw("interface")?;
        self.expect_kw("class")?;
        let name = self.expect_ident()?;
        self.expect_kw("encapsulating")?;
        let mut encapsulating = Vec::new();
        loop {
            let class = self.expect_ident()?;
            let var = match self.peek().ident() {
                Some(v)
                    if !SECTION_KEYWORDS.contains(&v)
                        && self.peek_at(1).kind != TokenKind::Colon =>
                {
                    self.expect_ident()?
                }
                _ => class.clone(),
            };
            encapsulating.push(EncapsulatedBase { class, var });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.eat(&TokenKind::Semi);

        let mut decl = InterfaceClassDecl {
            name: name.clone(),
            encapsulating,
            selection: None,
            attributes: Vec::new(),
            events: Vec::new(),
            derivation_rules: Vec::new(),
            calling: Vec::new(),
        };

        loop {
            if self.peek().is_kw("end") {
                break;
            } else if self.eat_kw("selection") {
                self.expect_kw("where")?;
                decl.selection = Some(self.expr()?);
                self.expect(&TokenKind::Semi)?;
            } else if self.eat_kw("attributes") {
                while !self.at_section_boundary() {
                    decl.attributes.push(self.attr_decl()?);
                }
            } else if self.eat_kw("events") {
                while !self.at_section_boundary() {
                    decl.events.push(self.event_decl()?);
                }
            } else if self.eat_kw("derivation") {
                self.eat_kw("rules");
                while !self.at_section_boundary() {
                    decl.derivation_rules.push(self.derivation_rule()?);
                }
            } else if self.eat_kw("calling") {
                while !self.at_section_boundary() {
                    decl.calling.push(self.calling_rule()?);
                }
            } else {
                return self.err(format!(
                    "unexpected {} in interface class",
                    self.peek().kind
                ));
            }
        }
        self.expect_kw("end")?;
        self.expect_kw("interface")?;
        self.expect_kw("class")?;
        let closing = self.expect_ident()?;
        if closing != name {
            return self.err(format!(
                "mismatched block: `interface class {name}` closed by `{closing}`"
            ));
        }
        self.expect(&TokenKind::Semi)?;
        Ok(decl)
    }

    fn module_decl(&mut self) -> Result<ModuleDecl> {
        self.expect_kw("module")?;
        let name = self.expect_ident()?;
        let mut decl = ModuleDecl {
            name: name.clone(),
            ..ModuleDecl::default()
        };
        loop {
            if self.peek().is_kw("end") {
                break;
            } else if self.eat_kw("conceptual") {
                self.expect_kw("schema")?;
                decl.conceptual = self.ident_list_semi()?;
            } else if self.eat_kw("internal") {
                self.expect_kw("schema")?;
                decl.internal = self.ident_list_semi()?;
            } else if self.eat_kw("external") {
                self.expect_kw("schema")?;
                let schema_name = self.expect_ident()?;
                self.expect(&TokenKind::Eq)?;
                let members = self.ident_list_semi()?;
                decl.external.push((schema_name, members));
            } else if self.eat_kw("import") {
                let module = self.expect_ident()?;
                self.expect(&TokenKind::Dot)?;
                let schema = self.expect_ident()?;
                self.expect(&TokenKind::Semi)?;
                decl.imports.push((module, schema));
            } else {
                return self.err(format!("unexpected {} in module", self.peek().kind));
            }
        }
        self.expect_kw("end")?;
        self.expect_kw("module")?;
        let closing = self.expect_ident()?;
        if closing != name {
            return self.err(format!(
                "mismatched block: `module {name}` closed by `{closing}`"
            ));
        }
        self.expect(&TokenKind::Semi)?;
        Ok(decl)
    }

    fn ident_list_semi(&mut self) -> Result<Vec<String>> {
        let mut out = vec![self.expect_ident()?];
        while self.eat(&TokenKind::Comma) {
            out.push(self.expect_ident()?);
        }
        self.expect(&TokenKind::Semi)?;
        Ok(out)
    }

    // ----- sorts -----------------------------------------------------

    fn sort_list(&mut self) -> Result<Vec<Sort>> {
        let mut out = vec![self.sort_expr()?];
        while self.eat(&TokenKind::Comma) {
            out.push(self.sort_expr()?);
        }
        Ok(out)
    }

    fn sort_expr(&mut self) -> Result<Sort> {
        if self.eat(&TokenKind::Pipe) {
            let class = self.expect_ident()?;
            self.expect(&TokenKind::Pipe)?;
            return Ok(Sort::id(class));
        }
        let name = self.expect_ident()?;
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "bool" | "boolean" => Ok(Sort::Bool),
            "int" | "integer" => Ok(Sort::Int),
            "nat" => Ok(Sort::Nat),
            "string" => Ok(Sort::String),
            "date" => Ok(Sort::Date),
            "money" => Ok(Sort::Money),
            "set" | "list" | "map" | "optional" if self.peek().kind == TokenKind::LParen => {
                self.expect(&TokenKind::LParen)?;
                let first = self.sort_expr()?;
                let sort = match lower.as_str() {
                    "set" => Sort::set(first),
                    "list" => Sort::list(first),
                    "optional" => Sort::optional(first),
                    "map" => {
                        self.expect(&TokenKind::Comma)?;
                        let v = self.sort_expr()?;
                        Sort::map(first, v)
                    }
                    _ => unreachable!(),
                };
                self.expect(&TokenKind::RParen)?;
                Ok(sort)
            }
            "tuple" if self.peek().kind == TokenKind::LParen => {
                self.expect(&TokenKind::LParen)?;
                let mut fields = Vec::new();
                loop {
                    let fname = self.expect_ident()?;
                    self.expect(&TokenKind::Colon)?;
                    let fsort = self.sort_expr()?;
                    fields.push(TupleField::new(fname, fsort));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
                Ok(Sort::tuple(fields))
            }
            // class name used as a sort denotes the identity sort |C|
            _ => Ok(Sort::id(name)),
        }
    }

    // ----- formulas --------------------------------------------------

    /// `formula := or_f ( "=>" formula )?` (right associative)
    pub(crate) fn formula(&mut self) -> Result<Formula> {
        let lhs = self.or_formula()?;
        if self.eat(&TokenKind::Implies) {
            let rhs = self.formula()?;
            Ok(Formula::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn or_formula(&mut self) -> Result<Formula> {
        let mut f = self.and_formula()?;
        while self.peek().is_kw("or") {
            self.advance();
            let rhs = self.and_formula()?;
            f = Formula::or(f, rhs);
        }
        Ok(f)
    }

    fn and_formula(&mut self) -> Result<Formula> {
        let mut f = self.since_formula()?;
        while self.peek().is_kw("and") {
            self.advance();
            let rhs = self.since_formula()?;
            f = Formula::and(f, rhs);
        }
        Ok(f)
    }

    fn since_formula(&mut self) -> Result<Formula> {
        let lhs = self.formula_atom()?;
        if self.peek().is_kw("since") {
            self.advance();
            let rhs = self.formula_atom()?;
            Ok(Formula::since(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn formula_atom(&mut self) -> Result<Formula> {
        let t = self.peek().clone();
        if let Some(word) = t.ident() {
            match word {
                "not" => {
                    self.advance();
                    return Ok(Formula::not(self.formula_atom()?));
                }
                "sometime" | "always" | "previous" | "eventually" | "henceforth"
                    // temporal unary — only when followed by `(`
                    if self.peek_at(1).kind == TokenKind::LParen => {
                        self.advance();
                        self.expect(&TokenKind::LParen)?;
                        let inner = self.formula()?;
                        self.expect(&TokenKind::RParen)?;
                        return Ok(match word {
                            "sometime" => Formula::sometime(inner),
                            "always" => Formula::always_past(inner),
                            "previous" => Formula::previous(inner),
                            "eventually" => Formula::eventually(inner),
                            _ => Formula::henceforth(inner),
                        });
                    }
                "after" | "occurs"
                    if self.peek_at(1).kind == TokenKind::LParen => {
                        self.advance();
                        self.expect(&TokenKind::LParen)?;
                        let pattern = self.event_pattern()?;
                        self.expect(&TokenKind::RParen)?;
                        return Ok(if word == "after" {
                            Formula::after(pattern)
                        } else {
                            Formula::occurs(pattern)
                        });
                    }
                "for" | "exists" => {
                    let is_forall = word == "for";
                    let lookahead = if is_forall { 1 } else { 0 };
                    let paren_ok = if is_forall {
                        self.peek_at(1).is_kw("all") && self.peek_at(2).kind == TokenKind::LParen
                    } else {
                        self.peek_at(1).kind == TokenKind::LParen
                    };
                    if paren_ok {
                        self.advance();
                        if is_forall {
                            self.expect_kw("all")?;
                        }
                        let _ = lookahead;
                        self.expect(&TokenKind::LParen)?;
                        let var = self.expect_ident()?;
                        let domain = if self.eat(&TokenKind::Colon) {
                            // `P: PERSON` — quantify over the class
                            // population, provided by the runtime under
                            // the reserved name `population(C)`.
                            let class = self.expect_ident()?;
                            Term::var(format!("population({class})"))
                        } else {
                            self.expect_kw("in")?;
                            self.expr()?
                        };
                        self.expect(&TokenKind::Colon)?;
                        let body = self.formula()?;
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Formula::Quant {
                            q: if is_forall {
                                Quantifier::Forall
                            } else {
                                Quantifier::Exists
                            },
                            var,
                            domain,
                            body: Box::new(body),
                        });
                    }
                }
                _ => {}
            }
        }
        // `( formula )` vs expression: try expression first (it handles
        // its own parentheses); backtrack to a parenthesized formula.
        let save = self.pos;
        match self.expr() {
            Ok(e) => Ok(Formula::pred(e)),
            Err(expr_err) => {
                self.pos = save;
                if self.eat(&TokenKind::LParen) {
                    let f = self.formula()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(f)
                } else {
                    Err(expr_err)
                }
            }
        }
    }

    fn event_pattern(&mut self) -> Result<EventPattern> {
        let name = self.expect_ident()?;
        let mut args = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if self.peek().kind != TokenKind::RParen {
                args.push(self.pattern_arg()?);
                while self.eat(&TokenKind::Comma) {
                    args.push(self.pattern_arg()?);
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(EventPattern::new(name, args))
    }

    fn pattern_arg(&mut self) -> Result<Option<Term>> {
        if self.eat(&TokenKind::Underscore) {
            Ok(None)
        } else {
            Ok(Some(self.expr()?))
        }
    }

    // ----- expressions ------------------------------------------------

    pub(crate) fn expr(&mut self) -> Result<Term> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Term> {
        let mut t = self.and_expr()?;
        while self.peek().is_kw("or") {
            self.advance();
            let rhs = self.and_expr()?;
            t = Term::apply(Op::Or, vec![t, rhs]);
        }
        Ok(t)
    }

    fn and_expr(&mut self) -> Result<Term> {
        let mut t = self.cmp_expr()?;
        while self.peek().is_kw("and") {
            self.advance();
            let rhs = self.cmp_expr()?;
            t = Term::apply(Op::And, vec![t, rhs]);
        }
        Ok(t)
    }

    fn cmp_expr(&mut self) -> Result<Term> {
        let lhs = self.add_expr()?;
        let op = match &self.peek().kind {
            TokenKind::Eq => Some(Op::Eq),
            TokenKind::Neq => Some(Op::Neq),
            TokenKind::Lt => Some(Op::Lt),
            TokenKind::Le => Some(Op::Le),
            TokenKind::Gt => Some(Op::Gt),
            TokenKind::Ge => Some(Op::Ge),
            TokenKind::Ident(w) if w == "in" => Some(Op::In),
            TokenKind::Ident(w) if w == "subset" => Some(Op::Subset),
            _ => None,
        };
        match op {
            Some(op) => {
                self.advance();
                let rhs = self.add_expr()?;
                Ok(Term::apply(op, vec![lhs, rhs]))
            }
            None => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<Term> {
        let mut t = self.mul_expr()?;
        loop {
            let op = match &self.peek().kind {
                TokenKind::Plus => Op::Add,
                TokenKind::Minus => Op::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.mul_expr()?;
            t = Term::apply(op, vec![t, rhs]);
        }
        Ok(t)
    }

    fn mul_expr(&mut self) -> Result<Term> {
        let mut t = self.unary_expr()?;
        loop {
            let op = match &self.peek().kind {
                TokenKind::Star => Op::Mul,
                TokenKind::Slash => Op::Div,
                TokenKind::Ident(w) if w == "div" => Op::Div,
                TokenKind::Ident(w) if w == "mod" => Op::Mod,
                _ => break,
            };
            self.advance();
            let rhs = self.unary_expr()?;
            // `money * 1.1` — scale by tenths, exactly
            if op == Op::Mul {
                if let Term::Const(Value::Money(m)) = &rhs {
                    let cents = m.cents();
                    if cents % 10 == 0 {
                        t = Term::apply(Op::ScaleTenths, vec![t, Term::constant(cents / 10)]);
                        continue;
                    }
                }
            }
            t = Term::apply(op, vec![t, rhs]);
        }
        Ok(t)
    }

    fn unary_expr(&mut self) -> Result<Term> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.unary_expr()?;
            return Ok(match inner {
                Term::Const(Value::Int(i)) => Term::constant(-i),
                other => Term::apply(Op::Neg, vec![other]),
            });
        }
        if self.peek().is_kw("not") {
            self.advance();
            let inner = self.unary_expr()?;
            return Ok(Term::apply(Op::Not, vec![inner]));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Term> {
        let mut t = self.primary_expr()?;
        while self.eat(&TokenKind::Dot) {
            let field = self.expect_ident()?;
            t = Term::field(t, field);
        }
        Ok(t)
    }

    fn primary_expr(&mut self) -> Result<Term> {
        let t = self.peek().clone();
        match &t.kind {
            TokenKind::Int(i) => {
                self.advance();
                Ok(Term::constant(*i))
            }
            TokenKind::Money(c) => {
                self.advance();
                Ok(Term::constant(Value::Money(Money::from_cents(*c))))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Term::constant(Value::from(s.clone())))
            }
            TokenKind::LParen => {
                self.advance();
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            // identity literal: |CLASS|(k1, …) — sugar for
            // mkid("CLASS", [k1, …])
            TokenKind::Pipe => {
                self.advance();
                let class = self.expect_ident()?;
                self.expect(&TokenKind::Pipe)?;
                let mut keys = Vec::new();
                if self.eat(&TokenKind::LParen) {
                    if self.peek().kind != TokenKind::RParen {
                        keys.push(self.expr()?);
                        while self.eat(&TokenKind::Comma) {
                            keys.push(self.expr()?);
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                }
                Ok(Term::apply(
                    Op::MkId,
                    vec![Term::constant(Value::from(class)), Term::MkList(keys)],
                ))
            }
            TokenKind::LBrace => {
                self.advance();
                let mut elems = Vec::new();
                if self.peek().kind != TokenKind::RBrace {
                    elems.push(self.expr()?);
                    while self.eat(&TokenKind::Comma) {
                        elems.push(self.expr()?);
                    }
                }
                self.expect(&TokenKind::RBrace)?;
                Ok(Term::MkSet(elems))
            }
            TokenKind::LBracket => {
                self.advance();
                let mut elems = Vec::new();
                if self.peek().kind != TokenKind::RBracket {
                    elems.push(self.expr()?);
                    while self.eat(&TokenKind::Comma) {
                        elems.push(self.expr()?);
                    }
                }
                self.expect(&TokenKind::RBracket)?;
                Ok(Term::MkList(elems))
            }
            TokenKind::Ident(word) => match word.as_str() {
                "true" => {
                    self.advance();
                    Ok(Term::constant(true))
                }
                "false" => {
                    self.advance();
                    Ok(Term::constant(false))
                }
                "undefined" => {
                    self.advance();
                    Ok(Term::Const(Value::Undefined))
                }
                "self" | "SELF" => {
                    self.advance();
                    Ok(Term::var("self"))
                }
                "if" => {
                    self.advance();
                    let c = self.expr()?;
                    self.expect_kw("then")?;
                    let a = self.expr()?;
                    self.expect_kw("else")?;
                    let b = self.expr()?;
                    Ok(Term::ite(c, a, b))
                }
                "tuple" if self.peek_at(1).kind == TokenKind::LParen => {
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    let mut fields = Vec::new();
                    loop {
                        let fname = self.expect_ident()?;
                        self.expect(&TokenKind::Colon)?;
                        let fval = self.expr()?;
                        fields.push((fname, fval));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    Ok(Term::MkTuple(fields))
                }
                "select" if self.peek_at(1).kind == TokenKind::Pipe => {
                    self.advance();
                    self.expect(&TokenKind::Pipe)?;
                    let pred = self.expr()?;
                    self.expect(&TokenKind::Pipe)?;
                    self.expect(&TokenKind::LParen)?;
                    let rel = self.expr()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Term::select(rel, pred))
                }
                "project" if self.peek_at(1).kind == TokenKind::Pipe => {
                    self.advance();
                    self.expect(&TokenKind::Pipe)?;
                    let mut fields = vec![self.expect_ident()?];
                    while self.eat(&TokenKind::Comma) {
                        fields.push(self.expect_ident()?);
                    }
                    self.expect(&TokenKind::Pipe)?;
                    self.expect(&TokenKind::LParen)?;
                    let rel = self.expr()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Term::project(rel, fields))
                }
                "the" if self.peek_at(1).kind == TokenKind::LParen => {
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    let rel = self.expr()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Term::the(rel))
                }
                // data-level bounded quantification over finite
                // collections: `exists(x in S : pred)` / `for all(…)`
                "exists" if self.peek_at(1).kind == TokenKind::LParen => {
                    self.advance();
                    self.quantified_term(Quantifier::Exists)
                }
                "for"
                    if self.peek_at(1).is_kw("all")
                        && self.peek_at(2).kind == TokenKind::LParen =>
                {
                    self.advance();
                    self.expect_kw("all")?;
                    self.quantified_term(Quantifier::Forall)
                }
                "date" if self.peek_at(1).kind == TokenKind::LParen => {
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    let (l, c) = (self.peek().line, self.peek().column);
                    let y = self.date_part("year")?;
                    self.expect(&TokenKind::Comma)?;
                    let m = self.date_part("month")?;
                    self.expect(&TokenKind::Comma)?;
                    let d = self.date_part("day")?;
                    self.expect(&TokenKind::RParen)?;
                    let date =
                        Date::new(y, m, d).map_err(|e| LangError::new(l, c, e.to_string()))?;
                    Ok(Term::constant(Value::Date(date)))
                }
                _ => {
                    // function call or plain variable
                    if self.peek_at(1).kind == TokenKind::LParen {
                        let name = self.expect_ident()?;
                        if let Some(op) = Op::by_name(&name) {
                            self.expect(&TokenKind::LParen)?;
                            let mut args = Vec::new();
                            if self.peek().kind != TokenKind::RParen {
                                args.push(self.expr()?);
                                while self.eat(&TokenKind::Comma) {
                                    args.push(self.expr()?);
                                }
                            }
                            self.expect(&TokenKind::RParen)?;
                            if args.len() != op.arity() {
                                return self.err(format!(
                                    "operation `{name}` expects {} argument(s), got {}",
                                    op.arity(),
                                    args.len()
                                ));
                            }
                            Ok(Term::Apply(op, args))
                        } else {
                            self.err(format!("unknown function `{name}`"))
                        }
                    } else {
                        let name = self.expect_ident()?;
                        Ok(Term::var(name))
                    }
                }
            },
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    fn quantified_term(&mut self, q: Quantifier) -> Result<Term> {
        self.expect(&TokenKind::LParen)?;
        let var = self.expect_ident()?;
        self.expect_kw("in")?;
        let domain = self.expr()?;
        self.expect(&TokenKind::Colon)?;
        let body = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Term::quant(q, var, domain, body))
    }

    fn int_literal(&mut self) -> Result<i64> {
        match self.peek().kind {
            TokenKind::Int(i) => {
                self.advance();
                Ok(i)
            }
            _ => self.err("expected an integer literal"),
        }
    }

    /// One integer part of `date(y, m, d)`, which must fit `T`; the
    /// error names the part instead of truncating it into range.
    fn date_part<T: TryFrom<i64>>(&mut self, part: &str) -> Result<T> {
        let (l, c) = (self.peek().line, self.peek().column);
        let n = self.int_literal()?;
        T::try_from(n).map_err(|_| LangError::new(l, c, format!("date {part} {n} is out of range")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_terms() {
        assert_eq!(
            parse_term("insert(P, employees)").unwrap(),
            Term::apply(Op::Insert, vec![Term::var("P"), Term::var("employees")])
        );
        assert_eq!(
            parse_term("a + b * 2").unwrap(),
            Term::apply(
                Op::Add,
                vec![
                    Term::var("a"),
                    Term::apply(Op::Mul, vec![Term::var("b"), Term::constant(2i64)])
                ]
            )
        );
        assert_eq!(
            parse_term("(a + b) * 2").unwrap(),
            Term::apply(
                Op::Mul,
                vec![
                    Term::apply(Op::Add, vec![Term::var("a"), Term::var("b")]),
                    Term::constant(2i64)
                ]
            )
        );
        assert_eq!(parse_term("-3").unwrap(), Term::constant(-3i64));
        assert_eq!(
            parse_term("P in employees").unwrap(),
            Term::apply(Op::In, vec![Term::var("P"), Term::var("employees")])
        );
        assert_eq!(parse_term("{}").unwrap(), Term::MkSet(vec![]));
        assert_eq!(
            parse_term("{1, 2}").unwrap(),
            Term::MkSet(vec![Term::constant(1i64), Term::constant(2i64)])
        );
        assert_eq!(
            parse_term("self.EmpName").unwrap(),
            Term::field(Term::var("self"), "EmpName")
        );
        assert!(parse_term("frobnicate(1)").is_err());
        assert!(parse_term("1 +").is_err());
    }

    #[test]
    fn money_scaling_lowered_exactly() {
        // Salary * 1.1 → scale_tenths(Salary, 11)
        assert_eq!(
            parse_term("Salary * 1.1").unwrap(),
            Term::apply(
                Op::ScaleTenths,
                vec![Term::var("Salary"), Term::constant(11i64)]
            )
        );
        // Salary * 13.5 → scale_tenths(Salary, 135)
        assert_eq!(
            parse_term("Salary * 13.5").unwrap(),
            Term::apply(
                Op::ScaleTenths,
                vec![Term::var("Salary"), Term::constant(135i64)]
            )
        );
        // non-tenth money stays a money constant multiplication
        assert_eq!(
            parse_term("Salary * 1.25").unwrap(),
            Term::apply(
                Op::Mul,
                vec![
                    Term::var("Salary"),
                    Term::constant(Value::Money(Money::from_cents(125)))
                ]
            )
        );
    }

    #[test]
    fn date_literals_fold() {
        assert_eq!(
            parse_term("date(1991, 10, 16)").unwrap(),
            Term::constant(Value::Date(Date::new(1991, 10, 16).unwrap()))
        );
        assert!(parse_term("date(1991, 13, 1)").is_err());
    }

    #[test]
    fn date_parts_out_of_range_are_errors_not_truncated() {
        // 266 and 272 would truncate to the valid 10 and 16 as bytes
        for (text, part) in [
            ("date(1991, 266, 16)", "month 266"),
            ("date(1991, 10, 272)", "day 272"),
            ("date(4294969287, 10, 16)", "year 4294969287"),
        ] {
            let err = parse_term(text).unwrap_err().to_string();
            assert!(
                err.contains(&format!("date {part} is out of range")),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn algebra_syntax() {
        let t = parse_term(
            "the(project|esalary|(select|ename = EmpName and ebirth = EmpBirth|(Emps)))",
        )
        .unwrap();
        match t {
            Term::The(_) => {}
            other => panic!("expected The node, got {other:?}"),
        }
        let p = parse_term("project|a, b|(rel)").unwrap();
        assert_eq!(p, Term::project(Term::var("rel"), vec!["a", "b"]));
    }

    #[test]
    fn parse_formulas() {
        let f = parse_formula("sometime(after(hire(P)))").unwrap();
        assert_eq!(
            f,
            Formula::sometime(Formula::after(EventPattern::new(
                "hire",
                vec![Some(Term::var("P"))]
            )))
        );
        let f = parse_formula("a = 1 => b = 2").unwrap();
        assert!(matches!(f, Formula::Implies(_, _)));
        let f = parse_formula("not occurs(closure)").unwrap();
        assert!(matches!(f, Formula::Not(_)));
        let f = parse_formula("x >= 1 since occurs(reset)").unwrap();
        assert!(matches!(f, Formula::Since(_, _)));
        let f = parse_formula("(occurs(a) or x = 1) and always(y >= 0)").unwrap();
        assert!(matches!(f, Formula::And(_, _)));
        let f = parse_formula("after(hire(_))").unwrap();
        assert_eq!(f, Formula::after(EventPattern::new("hire", vec![None])));
    }

    #[test]
    fn paper_closure_permission_parses() {
        let f = parse_formula(
            "for all(P: PERSON : sometime(P in employees) => sometime(after(fire(P))))",
        )
        .unwrap();
        match f {
            Formula::Quant { var, domain, .. } => {
                assert_eq!(var, "P");
                assert_eq!(domain, Term::var("population(PERSON)"));
            }
            other => panic!("expected quantifier, got {other:?}"),
        }
        let f = parse_formula("exists(x in employees : x = P)").unwrap();
        assert!(matches!(f, Formula::Quant { .. }));
    }

    #[test]
    fn parse_dept_class() {
        let src = r#"
object class DEPT
  identification id: string;
  data types date, PERSON, set(PERSON);
  template
    attributes
      est_date: date;
      manager: PERSON;
      employees: set(PERSON);
    events
      birth establishment(date);
      death closure;
      new_manager(PERSON);
      hire(PERSON);
      fire(PERSON);
    valuation
      variables P: PERSON; d: date;
      [establishment(d)] est_date = d;
      [new_manager(P)] manager = P;
      [hire(P)] employees = insert(P, employees);
      [fire(P)] employees = remove(P, employees);
    permissions
      variables P: PERSON;
      { sometime(after(hire(P))) } fire(P);
      { for all(P: PERSON : sometime(P in employees) => sometime(after(fire(P)))) } closure;
end object class DEPT;
"#;
        let spec = parse(src).unwrap();
        let dept = spec.object_class("DEPT").unwrap();
        assert!(!dept.singleton);
        assert_eq!(dept.identification.len(), 1);
        assert_eq!(dept.data_types.len(), 3);
        assert_eq!(dept.body.attributes.len(), 3);
        assert_eq!(dept.body.events.len(), 5);
        assert_eq!(dept.body.valuation.len(), 4);
        assert_eq!(dept.body.permissions.len(), 2);
        let hire_rule = &dept.body.valuation[2];
        assert_eq!(hire_rule.event, "hire");
        assert_eq!(hire_rule.params, vec!["P".to_string()]);
        assert_eq!(hire_rule.attribute, "employees");
        // sorts: manager is an identity sort since PERSON is a class name
        assert_eq!(dept.body.attributes[1].sort, Sort::id("PERSON"),);
    }

    #[test]
    fn variables_decl_continues_after_class_sort() {
        // regression: the decl-continuation lookahead must recognize a
        // class sort `|C|` after the colon, not just named sorts
        let src = r#"
object class DEPT
  identification id: string;
  template
    attributes employees: set(|PERSON|);
    events
      birth establishment;
      hire(|PERSON|);
      fire(|PERSON|);
      swap(|PERSON|, |PERSON|);
    interaction
      variables P: |PERSON|; Q: |PERSON|;
      swap(P, Q) >> (fire(P); hire(Q));
end object class DEPT;
"#;
        let spec = parse(src).unwrap();
        let dept = spec.object_class("DEPT").unwrap();
        assert_eq!(dept.body.interactions.len(), 1);
    }

    #[test]
    fn variables_decl_continues_after_class_sort_in_all_sections() {
        // regression (PR 1 lookahead fix): `variables P: |C|; Q: |C|;`
        // must parse as two declarations — in the valuation and
        // permissions sections too, not just interaction
        let src = r#"
object class DEPT
  identification id: string;
  template
    attributes
      employees: set(|PERSON|);
      backups: set(|PERSON|);
    events
      birth establishment;
      pair(|PERSON|, |PERSON|);
      fire(|PERSON|);
    valuation
      variables P: |PERSON|; Q: |PERSON|;
      [pair(P, Q)] employees = insert(P, employees);
      [pair(P, Q)] backups = insert(Q, backups);
    permissions
      variables P: |PERSON|; Q: |PERSON|;
      { not(sometime(after(pair(P, Q)))) } pair(P, Q);
end object class DEPT;
"#;
        let spec = parse(src).unwrap();
        let dept = spec.object_class("DEPT").unwrap();
        assert_eq!(dept.body.valuation.len(), 2);
        assert_eq!(dept.body.permissions.len(), 1);
        // both binders survived into the rules (Q was not swallowed by
        // the first declaration's sort)
        let analyzed = crate::analyze(&spec).unwrap();
        let class = analyzed.class("DEPT").unwrap();
        assert!(class
            .valuation_for("pair")
            .all(|r| r.params == vec!["P".to_string(), "Q".to_string()]));
        let perm = class.permissions_for("pair").next().unwrap();
        assert_eq!(perm.params, vec!["P".to_string(), "Q".to_string()]);
    }

    #[test]
    fn parse_person_manager_phase() {
        let src = r#"
object class PERSON
  identification
    name: string;
    birthdate: date;
  template
    attributes Salary: money;
    events
      birth create;
      become_manager;
      death die;
end object class PERSON;

object class MANAGER
  view of PERSON;
  template
    attributes OfficialCar: |CAR|;
    events
      birth PERSON.become_manager;
    constraints
      static Salary >= 5000;
end object class MANAGER;
"#;
        let spec = parse(src).unwrap();
        let mgr = spec.object_class("MANAGER").unwrap();
        assert_eq!(mgr.view_of.as_deref(), Some("PERSON"));
        assert_eq!(mgr.body.attributes[0].sort, Sort::id("CAR"));
        let ev = &mgr.body.events[0];
        assert_eq!(ev.name, "become_manager");
        assert_eq!(
            ev.alias_of,
            Some(("PERSON".to_string(), "become_manager".to_string()))
        );
        assert_eq!(ev.marker, EventMarker::Birth);
        assert_eq!(mgr.body.constraints.len(), 1);
    }

    #[test]
    fn parse_company_components_and_globals() {
        let src = r#"
object TheCompany
  template
    components
      depts: LIST(DEPT);
      hq: BUILDING;
      teams: SET(TEAM);
end object TheCompany;

global interactions
  variables P: PERSON; D: DEPT;
  DEPT(D).new_manager(P) >> PERSON(P).become_manager;
end global interactions;
"#;
        let spec = parse(src).unwrap();
        let company = spec.object_class("TheCompany").unwrap();
        assert!(company.singleton);
        assert_eq!(company.body.components.len(), 3);
        assert_eq!(company.body.components[0].kind, ComponentKind::List);
        assert_eq!(company.body.components[1].kind, ComponentKind::Single);
        assert_eq!(company.body.components[2].kind, ComponentKind::Set);
        match &spec.items[1] {
            Item::GlobalInteractions(g) => {
                assert_eq!(g.variables.len(), 2);
                assert_eq!(g.rules.len(), 1);
                let rule = &g.rules[0];
                match &rule.trigger.target {
                    TargetRef::Instance { class, id } => {
                        assert_eq!(class, "DEPT");
                        assert_eq!(id, &Term::var("D"));
                    }
                    other => panic!("expected instance target, got {other:?}"),
                }
                assert_eq!(rule.calls.len(), 1);
                assert_eq!(rule.calls[0].event, "become_manager");
            }
            other => panic!("expected global interactions, got {other:?}"),
        }
    }

    #[test]
    fn parse_emp_rel_with_guard_and_transaction() {
        let src = r#"
object emp_rel
  template
    data types string, date, integer;
    attributes
      Emps: set(tuple(ename: string, ebirth: date, esalary: integer));
    events
      birth CreateEmpRel;
      UpdateSalary(string, date, integer);
      InsertEmp(string, date, integer);
      DeleteEmp(string, date);
      ChangeSalary(string, date, integer);
      death CloseEmpRel;
    valuation
      variables n: string; b: date; s: integer;
      [CreateEmpRel] Emps = {};
      [InsertEmp(n, b, s)] Emps = insert(tuple(ename: n, ebirth: b, esalary: s), Emps);
      { tuple(ename: n, ebirth: b, esalary: s) in Emps } =>
        [DeleteEmp(n, b)] Emps = remove(tuple(ename: n, ebirth: b, esalary: s), Emps);
    permissions
      variables n: string; b: date; s: integer;
      { exists(e in Emps : e.ename = n and e.ebirth = b) } UpdateSalary(n, b, s);
      { Emps = {} } CloseEmpRel;
    interaction
      variables n: string; b: date; s: integer;
      ChangeSalary(n, b, s) >> (DeleteEmp(n, b); InsertEmp(n, b, s));
end object emp_rel;
"#;
        let spec = parse(src).unwrap();
        let rel = spec.object_class("emp_rel").unwrap();
        assert!(rel.singleton);
        assert_eq!(rel.body.valuation.len(), 3);
        assert!(rel.body.valuation[2].guard.is_some());
        assert_eq!(rel.body.permissions.len(), 2);
        assert_eq!(rel.body.interactions.len(), 1);
        let tx = &rel.body.interactions[0];
        assert_eq!(tx.trigger.event, "ChangeSalary");
        assert_eq!(tx.calls.len(), 2);
        assert_eq!(tx.calls[0].event, "DeleteEmp");
        assert_eq!(tx.calls[1].event, "InsertEmp");
    }

    #[test]
    fn parse_empl_impl_inheriting() {
        let src = r#"
object class EMPL_IMPL
  identification
    EmpName: string;
    EmpBirth: date;
  template
    inheriting emp_rel as employees;
    attributes
      derived Salary: int;
    events
      birth HireEmployee;
      derived IncreaseSalary(integer);
      death FireEmployee;
    derivation rules
      Salary = the(project|esalary|(select|ename = EmpName and ebirth = EmpBirth|(Emps)));
    interaction
      variables n: integer;
      HireEmployee >> employees.InsertEmp(self.EmpName, self.EmpBirth, 0);
      FireEmployee >> employees.DeleteEmp(self.EmpName, self.EmpBirth);
      IncreaseSalary(n) >> employees.UpdateSalary(self.EmpName, self.EmpBirth, self.Salary + n);
end object class EMPL_IMPL;
"#;
        let spec = parse(src).unwrap();
        let c = spec.object_class("EMPL_IMPL").unwrap();
        assert_eq!(c.inheriting.len(), 1);
        assert_eq!(c.inheriting[0].alias, "employees");
        assert_eq!(c.body.derivation_rules.len(), 1);
        assert_eq!(c.body.interactions.len(), 3);
        match &c.body.interactions[0].calls[0].target {
            TargetRef::Component(alias) => assert_eq!(alias, "employees"),
            other => panic!("expected component target, got {other:?}"),
        }
        assert!(c.body.attributes[0].derived);
        assert!(c.body.events[1].derived);
    }

    #[test]
    fn parse_interface_classes() {
        let src = r#"
interface class SAL_EMPLOYEE2
  encapsulating PERSON
  attributes
    Name: string;
    derived CurrentIncomePerYear: money;
    Salary: money;
  events
    derived IncreaseSalary;
  derivation rules
    CurrentIncomePerYear = Salary * 13.5;
  calling
    IncreaseSalary >> ChangeSalary(Salary * 1.1);
end interface class SAL_EMPLOYEE2;

interface class RESEARCH_EMPLOYEE
  encapsulating PERSON
  selection where self.Dept = 'Research';
  attributes
    Name: string;
    Salary: money;
  events
    ChangeSalary(money);
end interface class RESEARCH_EMPLOYEE;

interface class WORKS_FOR
  encapsulating PERSON P, DEPT D
  selection where P.surrogate in D.employees;
  attributes
    DeptName: string;
    PersonName: string;
  derivation rules
    DeptName = D.id;
    PersonName = P.name;
end interface class WORKS_FOR;
"#;
        let spec = parse(src).unwrap();
        let sal2 = spec.interface_class("SAL_EMPLOYEE2").unwrap();
        assert_eq!(sal2.encapsulating.len(), 1);
        assert_eq!(sal2.attributes.len(), 3);
        assert!(sal2.attributes[1].derived);
        assert_eq!(sal2.derivation_rules.len(), 1);
        assert_eq!(sal2.calling.len(), 1);

        let research = spec.interface_class("RESEARCH_EMPLOYEE").unwrap();
        assert!(research.selection.is_some());

        let works = spec.interface_class("WORKS_FOR").unwrap();
        assert_eq!(works.encapsulating.len(), 2);
        assert_eq!(works.encapsulating[0].var, "P");
        assert_eq!(works.encapsulating[1].var, "D");
        assert_eq!(works.derivation_rules.len(), 2);
    }

    #[test]
    fn parse_module() {
        let src = r#"
module COMPANY_MGMT
  conceptual schema PERSON, DEPT;
  internal schema emp_rel, EMPL_IMPL;
  external schema SALARY = SAL_EMPLOYEE, SAL_EMPLOYEE2;
  external schema RESEARCH = RESEARCH_EMPLOYEE;
  import CLOCK_MODULE.TIME;
end module COMPANY_MGMT;
"#;
        let spec = parse(src).unwrap();
        match &spec.items[0] {
            Item::Module(m) => {
                assert_eq!(m.name, "COMPANY_MGMT");
                assert_eq!(m.conceptual, vec!["PERSON", "DEPT"]);
                assert_eq!(m.internal, vec!["emp_rel", "EMPL_IMPL"]);
                assert_eq!(m.external.len(), 2);
                assert_eq!(m.external[0].0, "SALARY");
                assert_eq!(m.imports, vec![("CLOCK_MODULE".into(), "TIME".into())]);
            }
            other => panic!("expected module, got {other:?}"),
        }
    }

    #[test]
    fn error_messages_have_positions() {
        let err = parse("object class X\nevents birth b\nend object class X;").unwrap_err();
        assert!(err.line >= 2, "{err}");
        let err = parse("object class A end object class B;").unwrap_err();
        assert!(err.to_string().contains("mismatched block"), "{err}");
    }

    #[test]
    fn unexpected_top_level_item() {
        let err = parse("banana").unwrap_err();
        assert!(err.to_string().contains("expected `object`"));
    }
}

#[cfg(test)]
mod identity_literal_tests {
    use super::*;
    use troll_data::{MapEnv, ObjectId};

    #[test]
    fn identity_literals_parse_and_evaluate() {
        let t = parse_term(r#"|PERSON|("ada")"#).unwrap();
        let v = t.eval(&MapEnv::new()).unwrap();
        assert_eq!(
            v,
            Value::Id(ObjectId::new("PERSON", vec![Value::from("ada")]))
        );
        // compound keys
        let t = parse_term(r#"|PERSON|("ada", date(1960, 1, 1))"#).unwrap();
        match t.eval(&MapEnv::new()).unwrap() {
            Value::Id(id) => assert_eq!(id.key().len(), 2),
            other => panic!("expected identity, got {other}"),
        }
        // no-key singleton address
        let t = parse_term("|TheCompany|()").unwrap();
        assert_eq!(
            t.eval(&MapEnv::new()).unwrap(),
            Value::Id(ObjectId::new("TheCompany", vec![]))
        );
    }

    #[test]
    fn identity_literal_with_variable_key() {
        let t = parse_term("|PERSON|(n)").unwrap();
        let mut env = MapEnv::new();
        env.bind("n", Value::from("bob"));
        assert_eq!(
            t.eval(&env).unwrap(),
            Value::Id(ObjectId::new("PERSON", vec![Value::from("bob")]))
        );
    }

    #[test]
    fn identity_literals_round_trip_through_printer() {
        for src in [r#"|PERSON|("ada")"#, "|TheCompany|()", "|DEPT|(d, 3)"] {
            let t1 = parse_term(src).unwrap();
            let printed = crate::pretty::print_term(&t1);
            let t2 = parse_term(&printed).unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
            assert_eq!(t1, t2);
        }
    }
}

#[cfg(test)]
mod library_reuse_tests {
    use super::*;

    const LIB: &str = r#"
library class COUNTER_LIKE
  identification key: string;
  template
    attributes total: int;
    events
      birth start;
      step(STEP_SORT);
    valuation
      variables n: STEP_SORT;
      [start] total = 0;
      [step(n)] total = total + WEIGHT * n;
end library class COUNTER_LIKE;
"#;

    #[test]
    fn library_instantiation_produces_object_classes() {
        let src = format!(
            "{LIB}
object class APPLES = COUNTER_LIKE with STEP_SORT = int, WEIGHT = 1;
object class CRATES = COUNTER_LIKE with STEP_SORT = nat, WEIGHT = 12;
"
        );
        let spec = parse(&src).unwrap();
        assert_eq!(spec.items.len(), 2, "library itself is not an item");
        let apples = spec.object_class("APPLES").unwrap();
        assert_eq!(apples.body.events.len(), 2);
        assert_eq!(apples.body.valuation.len(), 2);
        let crates = spec.object_class("CRATES").unwrap();
        // WEIGHT substituted into the valuation term
        let rule = &crates.body.valuation[1];
        assert!(rule.value.to_string().contains("12"), "{}", rule.value);
        // and the instantiated classes analyze + run
        let model = crate::analyze(&spec).unwrap();
        assert!(model.class("APPLES").is_some());
        assert!(model.class("CRATES").is_some());
    }

    #[test]
    fn multi_token_replacements() {
        let src = format!(
            "{LIB}
object class TOTES = COUNTER_LIKE with STEP_SORT = set(|ITEM|), WEIGHT = (2 + 3);
"
        );
        let spec = parse(&src).unwrap();
        let totes = spec.object_class("TOTES").unwrap();
        assert_eq!(totes.body.events[1].params[0], Sort::set(Sort::id("ITEM")));
    }

    #[test]
    fn unknown_library_and_unterminated_reported() {
        let err = parse("object class X = GHOST with A = 1;").unwrap_err();
        assert!(err.to_string().contains("unknown library class"), "{err}");
        let err = parse("library class L template events birth b;").unwrap_err();
        assert!(err.to_string().contains("not terminated"), "{err}");
        let err = parse("library class L events birth b; end library class M;").unwrap_err();
        assert!(err.to_string().contains("mismatched block"), "{err}");
    }

    #[test]
    fn instantiation_errors_cite_the_library() {
        // WEIGHT unsubstituted → unknown variable at analysis...
        // but a syntax-level breakage reports the instantiation context:
        let src = format!("{LIB}\nobject class BAD = COUNTER_LIKE with step = 5;\n");
        let err = parse(&src).unwrap_err();
        assert!(
            err.to_string().contains("in instantiation of library"),
            "{err}"
        );
    }

    #[test]
    fn singleton_instantiation() {
        let src = format!("{LIB}\nobject tally = COUNTER_LIKE with STEP_SORT = int, WEIGHT = 1;\n");
        let spec = parse(&src).unwrap();
        let tally = spec.object_class("tally").unwrap();
        assert!(tally.singleton);
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The front end never panics: arbitrary input produces either a
        /// Spec or a positioned error.
        #[test]
        fn parser_total_on_arbitrary_strings(s in "\\PC{0,200}") {
            let _ = parse(&s);
            let _ = parse_term(&s);
            let _ = parse_formula(&s);
        }

        /// Token-soup built from the language's own vocabulary — much
        /// likelier to reach deep parser states than raw unicode.
        #[test]
        fn parser_total_on_token_soup(words in proptest::collection::vec(
            prop_oneof![
                Just("object"), Just("class"), Just("end"), Just("template"),
                Just("events"), Just("attributes"), Just("valuation"),
                Just("permissions"), Just("interaction"), Just("derived"),
                Just("birth"), Just("death"), Just("view"), Just("of"),
                Just("module"), Just("interface"), Just("encapsulating"),
                Just("("), Just(")"), Just("["), Just("]"), Just("{"), Just("}"),
                Just(";"), Just(":"), Just(","), Just("."), Just("|"),
                Just("="), Just(">>"), Just("=>"), Just("+"), Just("-"),
                Just("x"), Just("DEPT"), Just("42"), Just("3.50"),
                Just("\"str\""), Just("sometime"), Just("after"),
                Just("for"), Just("all"), Just("exists"), Just("in"),
                Just("library"), Just("with"), Just("select"), Just("project"),
            ],
            0..60,
        )) {
            let s = words.join(" ");
            let _ = parse(&s);
            let _ = parse_term(&s);
            let _ = parse_formula(&s);
        }

        /// Lexer totality separately (positions never panic).
        #[test]
        fn lexer_total(s in "\\PC{0,300}") {
            let _ = crate::lex(&s);
        }
    }
}
