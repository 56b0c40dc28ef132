//! A concrete syntax for workflow specifications.
//!
//! ```text
//! schema {
//!   Assign(K, Proj);
//!   Replace(K, New);
//! }
//! peers {
//!   hr sees Assign(*), Replace(*);
//!   sue sees Assign(K) where Proj = "apollo";
//! }
//! rules {
//!   replace @ hr:
//!     -key Assign(x), +Assign(x2, y)
//!     :- Assign(x, y), Replace(x, x2), x != x2;
//! }
//! ```
//!
//! * Relation arguments in rule bodies/heads are positional **in view
//!   order** (schema attribute order restricted to the visible attributes,
//!   key first).
//! * `R(*)` in a `sees` clause grants a full view; `R(K, A)` projects; an
//!   optional `where <condition>` adds a selection over the *full* attribute
//!   set of `R`.
//! * Constants: `"strings"`, integers, `null` (⊥), `true`, `false`.
//!   Identifiers in term position are variables.
//! * Body literals: `R(t, u)`, `not R(t, u)`, `key R(t)`, `not key R(t)`,
//!   `t = u`, `t != u`. Head atoms: `+R(t, u)`, `-key R(t)`.
//! * Comments run from `//` or `#` to end of line.

use cwf_model::{CollabSchema, Condition, PeerId, RelId, RelSchema, Schema, Value, ViewRel};

use crate::ast::{Literal, Program, Rule, RuleBuilder, Term, UpdateAtom};
use crate::error::{LangError, Pos};
use crate::spec::WorkflowSpec;

/// Parses a complete workflow specification and validates it.
///
/// ```
/// use cwf_lang::parse_workflow;
/// let spec = parse_workflow(r#"
///     schema { Task(K); Done(K); }
///     peers { a sees Task(*), Done(*); b sees Task(*), Done(*); }
///     rules {
///         mk  @ a: +Task(t) :- ;
///         fin @ b: +Done(d) :- Task(d), not key Done(d);
///     }
/// "#).unwrap();
/// assert_eq!(spec.program().rules().len(), 2);
/// assert!(spec.collab().peer("a").is_some());
/// ```
pub fn parse_workflow(input: &str) -> Result<WorkflowSpec, LangError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        at: 0,
        depth: 0,
    };
    let spec = p.workflow()?;
    spec.validate()?;
    Ok(spec)
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Semi,
    Colon,
    At,
    Plus,
    Minus,
    Star,
    Eq,
    Neq,
    Turnstile,
    Eof,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    pos: Pos,
}

fn lex(input: &str) -> Result<Vec<Spanned>, LangError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut chars = input.chars().peekable();
    macro_rules! bump {
        () => {{
            let c = chars.next();
            if c == Some('\n') {
                line += 1;
                col = 1;
            } else if c.is_some() {
                col += 1;
            }
            c
        }};
    }
    loop {
        let pos = Pos { line, col };
        let Some(&c) = chars.peek() else {
            out.push(Spanned { tok: Tok::Eof, pos });
            return Ok(out);
        };
        match c {
            c if c.is_whitespace() => {
                bump!();
            }
            '/' => {
                bump!();
                if chars.peek() == Some(&'/') {
                    while let Some(&n) = chars.peek() {
                        if n == '\n' {
                            break;
                        }
                        bump!();
                    }
                } else {
                    return Err(LangError::Parse {
                        pos,
                        message: "unexpected `/` (use `//` for comments)".into(),
                    });
                }
            }
            '#' => {
                while let Some(&n) = chars.peek() {
                    if n == '\n' {
                        break;
                    }
                    bump!();
                }
            }
            '{' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::LBrace,
                    pos,
                });
            }
            '}' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::RBrace,
                    pos,
                });
            }
            '(' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::LParen,
                    pos,
                });
            }
            ')' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::RParen,
                    pos,
                });
            }
            ',' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Comma,
                    pos,
                });
            }
            ';' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Semi,
                    pos,
                });
            }
            '@' => {
                bump!();
                out.push(Spanned { tok: Tok::At, pos });
            }
            '+' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Plus,
                    pos,
                });
            }
            '*' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Star,
                    pos,
                });
            }
            '=' => {
                bump!();
                out.push(Spanned { tok: Tok::Eq, pos });
            }
            '!' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Spanned { tok: Tok::Neq, pos });
                } else {
                    return Err(LangError::Parse {
                        pos,
                        message: "expected `!=`".into(),
                    });
                }
            }
            ':' => {
                bump!();
                if chars.peek() == Some(&'-') {
                    bump!();
                    out.push(Spanned {
                        tok: Tok::Turnstile,
                        pos,
                    });
                } else {
                    out.push(Spanned {
                        tok: Tok::Colon,
                        pos,
                    });
                }
            }
            '-' => {
                bump!();
                if chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                    let mut n = String::from("-");
                    while let Some(&d) = chars.peek() {
                        if d.is_ascii_digit() {
                            n.push(d);
                            bump!();
                        } else {
                            break;
                        }
                    }
                    let v = n.parse::<i64>().map_err(|_| LangError::Parse {
                        pos,
                        message: format!("invalid integer {n}"),
                    })?;
                    out.push(Spanned {
                        tok: Tok::Int(v),
                        pos,
                    });
                } else {
                    out.push(Spanned {
                        tok: Tok::Minus,
                        pos,
                    });
                }
            }
            '"' => {
                bump!();
                let mut s = String::new();
                loop {
                    match bump!() {
                        Some('"') => break,
                        Some('\\') => match bump!() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            other => {
                                return Err(LangError::Parse {
                                    pos,
                                    message: format!("invalid escape {other:?}"),
                                })
                            }
                        },
                        Some(ch) => s.push(ch),
                        None => {
                            return Err(LangError::Parse {
                                pos,
                                message: "unterminated string".into(),
                            })
                        }
                    }
                }
                out.push(Spanned {
                    tok: Tok::Str(s),
                    pos,
                });
            }
            c if c.is_ascii_digit() => {
                let mut n = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        n.push(d);
                        bump!();
                    } else {
                        break;
                    }
                }
                let v = n.parse::<i64>().map_err(|_| LangError::Parse {
                    pos,
                    message: format!("invalid integer {n}"),
                })?;
                out.push(Spanned {
                    tok: Tok::Int(v),
                    pos,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '\'' {
                        s.push(d);
                        bump!();
                    } else {
                        break;
                    }
                }
                out.push(Spanned {
                    tok: Tok::Ident(s),
                    pos,
                });
            }
            other => {
                return Err(LangError::Parse {
                    pos,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
}

// --------------------------------------------------------------- parser --

/// The deepest nesting of `not` and parentheses a condition may have.
/// Deeper input is refused with a parse error rather than recursed into,
/// which would exhaust the stack.
const MAX_NESTING: usize = 256;

struct Parser {
    tokens: Vec<Spanned>,
    at: usize,
    /// The current condition nesting depth.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.at].tok
    }

    fn pos(&self) -> Pos {
        self.tokens[self.at].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.at].tok.clone();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), LangError> {
        if self.peek() == &tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn err(&self, message: String) -> LangError {
        LangError::Parse {
            pos: self.pos(),
            message,
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, LangError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), LangError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    /// Runs `f` one condition nesting level deeper, refusing input nested
    /// beyond [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("condition nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn workflow(&mut self) -> Result<WorkflowSpec, LangError> {
        // schema { ... }
        self.keyword("schema")?;
        self.expect(Tok::LBrace, "`{`")?;
        let mut schema = Schema::new();
        while self.peek() != &Tok::RBrace {
            let pos = self.pos();
            let name = self.ident("relation name")?;
            self.expect(Tok::LParen, "`(`")?;
            let mut attrs = Vec::new();
            loop {
                attrs.push(self.ident("attribute name")?);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(Tok::RParen, "`)`")?;
            self.expect(Tok::Semi, "`;`")?;
            let rel = RelSchema::new(name, attrs).map_err(LangError::Model)?;
            schema.add_relation(rel).map_err(|e| match e {
                e @ cwf_model::ModelError::DuplicateRelation { .. } => LangError::Model(e),
                e => LangError::Parse {
                    pos,
                    message: e.to_string(),
                },
            })?;
        }
        self.bump(); // }

        // peers { ... }
        self.keyword("peers")?;
        self.expect(Tok::LBrace, "`{`")?;
        let mut collab = CollabSchema::new(schema);
        while self.peek() != &Tok::RBrace {
            let peer_name = self.ident("peer name")?;
            let peer = collab.add_peer(peer_name).map_err(LangError::Model)?;
            self.keyword("sees")?;
            // `sees ;` declares a peer with an empty view schema.
            if self.peek() != &Tok::Semi {
                loop {
                    self.view_decl(&mut collab, peer)?;
                    if self.peek() == &Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::Semi, "`;`")?;
        }
        self.bump(); // }

        // rules { ... }
        self.keyword("rules")?;
        self.expect(Tok::LBrace, "`{`")?;
        let mut program = Program::new();
        while self.peek() != &Tok::RBrace {
            let rule = self.rule_decl(&collab)?;
            program.add_rule(rule);
        }
        self.bump(); // }
        if self.peek() != &Tok::Eof {
            return Err(self.err("trailing input after `rules` block".into()));
        }
        Ok(WorkflowSpec::new_unchecked(collab, program))
    }

    fn resolve_rel(&self, collab: &CollabSchema, name: &str, pos: Pos) -> Result<RelId, LangError> {
        collab.schema().rel(name).ok_or(LangError::Unresolved {
            pos,
            kind: "relation",
            name: name.to_string(),
        })
    }

    fn view_decl(&mut self, collab: &mut CollabSchema, peer: PeerId) -> Result<(), LangError> {
        let pos = self.pos();
        let rel_name = self.ident("relation name")?;
        let rel = self.resolve_rel(collab, &rel_name, pos)?;
        self.expect(Tok::LParen, "`(`")?;
        let attrs: Vec<cwf_model::AttrId> = if self.peek() == &Tok::Star {
            self.bump();
            collab.schema().relation(rel).attr_ids().collect()
        } else {
            let mut out = Vec::new();
            loop {
                let pos = self.pos();
                let a = self.ident("attribute name")?;
                let id = collab
                    .schema()
                    .relation(rel)
                    .attr(&a)
                    .ok_or(LangError::Unresolved {
                        pos,
                        kind: "attribute",
                        name: a,
                    })?;
                out.push(id);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            out
        };
        self.expect(Tok::RParen, "`)`")?;
        let selection = if self.at_keyword("where") {
            self.bump();
            self.condition(collab, rel)?
        } else {
            Condition::True
        };
        collab
            .set_view(peer, ViewRel::new(rel, attrs, selection))
            .map_err(LangError::Model)
    }

    /// condition := and_cond ("or" and_cond)*
    fn condition(&mut self, collab: &CollabSchema, rel: RelId) -> Result<Condition, LangError> {
        let mut parts = vec![self.and_cond(collab, rel)?];
        while self.at_keyword("or") {
            self.bump();
            parts.push(self.and_cond(collab, rel)?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            Condition::Or(parts)
        })
    }

    fn and_cond(&mut self, collab: &CollabSchema, rel: RelId) -> Result<Condition, LangError> {
        let mut parts = vec![self.not_cond(collab, rel)?];
        while self.at_keyword("and") {
            self.bump();
            parts.push(self.not_cond(collab, rel)?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            Condition::And(parts)
        })
    }

    fn not_cond(&mut self, collab: &CollabSchema, rel: RelId) -> Result<Condition, LangError> {
        if self.at_keyword("not") {
            self.bump();
            return Ok(self.nested(|p| p.not_cond(collab, rel))?.not());
        }
        if self.peek() == &Tok::LParen {
            self.bump();
            let c = self.nested(|p| p.condition(collab, rel))?;
            self.expect(Tok::RParen, "`)`")?;
            return Ok(c);
        }
        if self.at_keyword("true") {
            self.bump();
            return Ok(Condition::True);
        }
        if self.at_keyword("false") {
            self.bump();
            return Ok(Condition::False);
        }
        // attr = (const | attr)
        let pos = self.pos();
        let lhs = self.ident("attribute name")?;
        let a = collab
            .schema()
            .relation(rel)
            .attr(&lhs)
            .ok_or(LangError::Unresolved {
                pos,
                kind: "attribute",
                name: lhs,
            })?;
        self.expect(Tok::Eq, "`=`")?;
        match self.peek().clone() {
            Tok::Str(s) => {
                self.bump();
                Ok(Condition::EqConst(a, Value::str(s)))
            }
            Tok::Int(i) => {
                self.bump();
                Ok(Condition::EqConst(a, Value::Int(i)))
            }
            Tok::Ident(name) => {
                self.bump();
                match name.as_str() {
                    "null" => Ok(Condition::EqConst(a, Value::Null)),
                    "true" => Ok(Condition::EqConst(a, Value::Bool(true))),
                    "false" => Ok(Condition::EqConst(a, Value::Bool(false))),
                    other => {
                        let pos = self.pos();
                        let b = collab.schema().relation(rel).attr(other).ok_or(
                            LangError::Unresolved {
                                pos,
                                kind: "attribute",
                                name: other.to_string(),
                            },
                        )?;
                        Ok(Condition::EqAttr(a, b))
                    }
                }
            }
            other => Err(self.err(format!("expected constant or attribute, found {other:?}"))),
        }
    }

    fn rule_decl(&mut self, collab: &CollabSchema) -> Result<Rule, LangError> {
        let rule_name = self.ident("rule name")?;
        self.expect(Tok::At, "`@`")?;
        let pos = self.pos();
        let peer_name = self.ident("peer name")?;
        let peer = collab.peer(&peer_name).ok_or(LangError::Unresolved {
            pos,
            kind: "peer",
            name: peer_name,
        })?;
        self.expect(Tok::Colon, "`:`")?;
        let mut builder = RuleBuilder::new(peer, rule_name);
        // head
        loop {
            match self.peek().clone() {
                Tok::Plus => {
                    self.bump();
                    let pos = self.pos();
                    let rel_name = self.ident("relation name")?;
                    let rel = self.resolve_rel(collab, &rel_name, pos)?;
                    let args = self.term_list(&mut builder)?;
                    builder = builder.insert(rel, args);
                }
                Tok::Minus => {
                    self.bump();
                    self.keyword("key")?;
                    let pos = self.pos();
                    let rel_name = self.ident("relation name")?;
                    let rel = self.resolve_rel(collab, &rel_name, pos)?;
                    self.expect(Tok::LParen, "`(`")?;
                    let key = self.term(&mut builder)?;
                    self.expect(Tok::RParen, "`)`")?;
                    builder = builder.delete(rel, key);
                }
                other => return Err(self.err(format!("expected `+` or `-key`, found {other:?}"))),
            }
            if self.peek() == &Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::Turnstile, "`:-`")?;
        // body (possibly empty, terminated by `;`)
        if self.peek() != &Tok::Semi {
            loop {
                builder = self.body_literal(collab, builder)?;
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::Semi, "`;`")?;
        Ok(builder.build())
    }

    fn body_literal(
        &mut self,
        collab: &CollabSchema,
        mut builder: RuleBuilder,
    ) -> Result<RuleBuilder, LangError> {
        // not R(...) | not key R(t) | key R(t) | R(...) | t (=|!=) t
        if self.at_keyword("not") {
            self.bump();
            if self.at_keyword("key") {
                self.bump();
                let pos = self.pos();
                let rel_name = self.ident("relation name")?;
                let rel = self.resolve_rel(collab, &rel_name, pos)?;
                self.expect(Tok::LParen, "`(`")?;
                let key = self.term(&mut builder)?;
                self.expect(Tok::RParen, "`)`")?;
                return Ok(builder.key_neg(rel, key));
            }
            let pos = self.pos();
            let rel_name = self.ident("relation name")?;
            let rel = self.resolve_rel(collab, &rel_name, pos)?;
            let args = self.term_list(&mut builder)?;
            return Ok(builder.neg(rel, args));
        }
        if self.at_keyword("key") {
            self.bump();
            let pos = self.pos();
            let rel_name = self.ident("relation name")?;
            let rel = self.resolve_rel(collab, &rel_name, pos)?;
            self.expect(Tok::LParen, "`(`")?;
            let key = self.term(&mut builder)?;
            self.expect(Tok::RParen, "`)`")?;
            return Ok(builder.key_pos(rel, key));
        }
        // Either a relational literal `R(...)` (ident followed by `(`) or a
        // comparison `t (=|!=) t`.
        if let Tok::Ident(name) = self.peek().clone() {
            if self.tokens[self.at + 1].tok == Tok::LParen && collab.schema().rel(&name).is_some() {
                let pos = self.pos();
                self.bump();
                let rel = self.resolve_rel(collab, &name, pos)?;
                let args = self.term_list(&mut builder)?;
                return Ok(builder.pos(rel, args));
            }
        }
        let lhs = self.term(&mut builder)?;
        match self.bump() {
            Tok::Eq => {
                let rhs = self.term(&mut builder)?;
                Ok(builder.eq(lhs, rhs))
            }
            Tok::Neq => {
                let rhs = self.term(&mut builder)?;
                Ok(builder.neq(lhs, rhs))
            }
            other => Err(self.err(format!("expected `=` or `!=`, found {other:?}"))),
        }
    }

    fn term_list(&mut self, builder: &mut RuleBuilder) -> Result<Vec<Term>, LangError> {
        self.expect(Tok::LParen, "`(`")?;
        let mut out = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                out.push(self.term(builder)?);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        Ok(out)
    }

    fn term(&mut self, builder: &mut RuleBuilder) -> Result<Term, LangError> {
        match self.peek().clone() {
            Tok::Str(s) => {
                self.bump();
                Ok(Term::Const(Value::str(s)))
            }
            Tok::Int(i) => {
                self.bump();
                Ok(Term::Const(Value::Int(i)))
            }
            Tok::Ident(name) => {
                self.bump();
                match name.as_str() {
                    "null" => Ok(Term::Const(Value::Null)),
                    "true" => Ok(Term::Const(Value::Bool(true))),
                    "false" => Ok(Term::Const(Value::Bool(false))),
                    _ => Ok(builder.var(name)),
                }
            }
            other => Err(self.err(format!("expected term, found {other:?}"))),
        }
    }
}

// ------------------------------------------------------ pretty printing --

/// Renders a workflow spec back into the concrete syntax accepted by
/// [`parse_workflow`] (`parse ∘ print` is the identity up to variable ids —
/// property-tested).
pub fn print_workflow(spec: &WorkflowSpec) -> String {
    let collab = spec.collab();
    let schema = collab.schema();
    let mut out = String::new();
    out.push_str("schema {\n");
    for r in schema.rel_ids() {
        let rs = schema.relation(r);
        out.push_str(&format!("  {}({});\n", rs.name(), rs.attrs().join(", ")));
    }
    out.push_str("}\n\npeers {\n");
    for p in collab.peer_ids() {
        let views: Vec<String> = collab
            .visible_rels(p)
            .map(|r| {
                let v = collab.view(p, r).expect("visible rel has view");
                let rs = schema.relation(r);
                let attrs = if v.attrs().len() == rs.arity() {
                    "*".to_string()
                } else {
                    v.attrs()
                        .iter()
                        .map(|a| rs.attr_name(*a).to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                let mut s = format!("{}({})", rs.name(), attrs);
                if v.selection() != &Condition::True {
                    s.push_str(&format!(" where {}", print_condition(v.selection(), rs)));
                }
                s
            })
            .collect();
        out.push_str(&format!(
            "  {} sees {};\n",
            collab.peer_name(p),
            views.join(", ")
        ));
    }
    out.push_str("}\n\nrules {\n");
    for rule in spec.program().rules() {
        out.push_str(&format!("  {}\n", print_rule(rule, spec)));
    }
    out.push_str("}\n");
    out
}

fn print_condition(c: &Condition, rs: &RelSchema) -> String {
    fn value(v: &Value) -> String {
        match v {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Str(s) => format!("{:?}", s.as_ref()),
            Value::Fresh(n) => format!("\"ν{n}\""),
        }
    }
    match c {
        Condition::True => "true".into(),
        Condition::False => "false".into(),
        Condition::EqConst(a, v) => format!("{} = {}", rs.attr_name(*a), value(v)),
        Condition::EqAttr(a, b) => format!("{} = {}", rs.attr_name(*a), rs.attr_name(*b)),
        Condition::Not(inner) => format!("not ({})", print_condition(inner, rs)),
        Condition::And(cs) => {
            if cs.is_empty() {
                "true".into()
            } else {
                format!(
                    "({})",
                    cs.iter()
                        .map(|c| print_condition(c, rs))
                        .collect::<Vec<_>>()
                        .join(" and ")
                )
            }
        }
        Condition::Or(cs) => {
            if cs.is_empty() {
                "false".into()
            } else {
                format!(
                    "({})",
                    cs.iter()
                        .map(|c| print_condition(c, rs))
                        .collect::<Vec<_>>()
                        .join(" or ")
                )
            }
        }
    }
}

/// Renders one rule in concrete syntax.
pub(crate) fn print_rule(rule: &Rule, spec: &WorkflowSpec) -> String {
    let collab = spec.collab();
    let schema = collab.schema();
    let term = |t: &Term| -> String {
        match t {
            Term::Var(v) => rule.vars[v.index()].clone(),
            Term::Const(Value::Null) => "null".into(),
            Term::Const(Value::Bool(b)) => b.to_string(),
            Term::Const(Value::Int(i)) => i.to_string(),
            Term::Const(Value::Str(s)) => format!("{:?}", s.as_ref()),
            Term::Const(Value::Fresh(n)) => format!("\"ν{n}\""),
        }
    };
    let terms = |ts: &[Term]| ts.iter().map(&term).collect::<Vec<_>>().join(", ");
    let head: Vec<String> = rule
        .head
        .iter()
        .map(|u| match u {
            UpdateAtom::Insert { rel, args } => {
                format!("+{}({})", schema.relation(*rel).name(), terms(args))
            }
            UpdateAtom::Delete { rel, key } => {
                format!("-key {}({})", schema.relation(*rel).name(), term(key))
            }
        })
        .collect();
    let body: Vec<String> = rule
        .body
        .iter()
        .map(|l| match l {
            Literal::Pos { rel, args } => {
                format!("{}({})", schema.relation(*rel).name(), terms(args))
            }
            Literal::Neg { rel, args } => {
                format!("not {}({})", schema.relation(*rel).name(), terms(args))
            }
            Literal::KeyPos { rel, key } => {
                format!("key {}({})", schema.relation(*rel).name(), term(key))
            }
            Literal::KeyNeg { rel, key } => {
                format!("not key {}({})", schema.relation(*rel).name(), term(key))
            }
            Literal::Eq(a, b) => format!("{} = {}", term(a), term(b)),
            Literal::Neq(a, b) => format!("{} != {}", term(a), term(b)),
        })
        .collect();
    format!(
        "{} @ {}: {} :- {};",
        rule.name,
        collab.peer_name(rule.peer),
        head.join(", "),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const HR: &str = r#"
        schema {
            Assign(K, Proj);
            Replace(K, New);
        }
        peers {
            hr sees Assign(*), Replace(*);
            sue sees Assign(K) where Proj = "apollo";
        }
        rules {
            replace @ hr:
                -key Assign(x), +Assign(x2, y)
                :- Assign(x, y), Replace(x, x2), x != x2;
        }
    "#;

    #[test]
    fn parses_hr_example() {
        let spec = parse_workflow(HR).unwrap();
        assert_eq!(spec.collab().peer_count(), 2);
        assert_eq!(spec.program().rules().len(), 1);
        let rule = &spec.program().rules()[0];
        assert_eq!(rule.name, "replace");
        assert_eq!(rule.head.len(), 2);
        assert_eq!(rule.body.len(), 3);
        assert_eq!(rule.vars, vec!["x", "x2", "y"]);
    }

    #[test]
    fn parses_projected_view_and_selection() {
        let spec = parse_workflow(HR).unwrap();
        let sue = spec.collab().peer("sue").unwrap();
        let assign = spec.collab().schema().rel("Assign").unwrap();
        let v = spec.collab().view(sue, assign).unwrap();
        assert_eq!(v.attrs().len(), 1, "key-only view");
        assert!(matches!(v.selection(), Condition::EqConst(..)));
    }

    #[test]
    fn parses_propositional_program_with_empty_bodies() {
        let src = r#"
            schema { V1(K); OK(K); }
            peers { q sees V1(*), OK(*); p sees OK(*); }
            rules {
                a1 @ q: +V1(0) :- ;
                c  @ q: +OK(0) :- V1(0);
            }
        "#;
        let spec = parse_workflow(src).unwrap();
        assert_eq!(spec.program().rules().len(), 2);
        assert!(spec.program().rules()[0].body.is_empty());
    }

    #[test]
    fn parses_all_literal_forms() {
        let src = r#"
            schema { R(K, A); S(K); }
            peers { p sees R(*), S(*); }
            rules {
                r @ p: +R(x, y), -key S(z)
                  :- R(x, y), not R(x, "a"), key R(x), not key R(z),
                     S(z), x = y, x != z, y != null;
            }
        "#;
        let spec = parse_workflow(src).unwrap();
        let rule = &spec.program().rules()[0];
        assert_eq!(rule.body.len(), 8);
        assert!(matches!(rule.body[1], Literal::Neg { .. }));
        assert!(matches!(rule.body[2], Literal::KeyPos { .. }));
        assert!(matches!(rule.body[3], Literal::KeyNeg { .. }));
        assert!(matches!(
            rule.body[7],
            Literal::Neq(_, Term::Const(Value::Null))
        ));
    }

    #[test]
    fn where_conditions_support_boolean_structure() {
        let src = r#"
            schema { R(K, A, B); }
            peers {
                p sees R(K) where (A = "x" and not (B = null)) or A = B;
                q sees R(*);
            }
            rules { }
        "#;
        let spec = parse_workflow(src).unwrap();
        let p = spec.collab().peer("p").unwrap();
        let r = spec.collab().schema().rel("R").unwrap();
        let sel = spec.collab().view(p, r).unwrap().selection().clone();
        assert!(matches!(sel, Condition::Or(_)));
    }

    #[test]
    fn unresolved_names_are_reported() {
        let bad_rel = "schema { R(K); } peers { p sees Q(*); } rules { }";
        assert!(matches!(
            parse_workflow(bad_rel),
            Err(LangError::Unresolved {
                kind: "relation",
                ..
            })
        ));
        let bad_peer = "schema { R(K); } peers { p sees R(*); } rules { r @ z: +R(0) :- ; }";
        assert!(matches!(
            parse_workflow(bad_peer),
            Err(LangError::Unresolved { kind: "peer", .. })
        ));
        let bad_attr = "schema { R(K); } peers { p sees R(Z); } rules { }";
        assert!(matches!(
            parse_workflow(bad_attr),
            Err(LangError::Unresolved {
                kind: "attribute",
                ..
            })
        ));
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse_workflow("schema { R(K) }").unwrap_err();
        match err {
            LangError::Parse { pos, .. } => assert_eq!(pos.line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_negative_ints() {
        let src = r#"
            schema { R(K); }   // relations
            peers { p sees R(*); }  # peers
            rules { r @ p: +R(-5) :- ; }
        "#;
        let spec = parse_workflow(src).unwrap();
        let rule = &spec.program().rules()[0];
        assert!(matches!(
            &rule.head[0],
            UpdateAtom::Insert { args, .. } if args[0] == Term::Const(Value::Int(-5))
        ));
    }

    #[test]
    fn validation_runs_after_parse() {
        // Unsafe variable: y only in head of a *body-less* rule is fine
        // (fresh), but y in a disequality only is rejected.
        let src = r#"
            schema { R(K); }
            peers { p sees R(*); }
            rules { r @ p: +R(x) :- x != y; }
        "#;
        assert!(matches!(
            parse_workflow(src),
            Err(LangError::UnsafeVariable { .. })
        ));
    }

    #[test]
    fn print_parse_round_trip() {
        let spec = parse_workflow(HR).unwrap();
        let printed = print_workflow(&spec);
        let back = parse_workflow(&printed).unwrap();
        assert_eq!(&spec, &back);
    }

    #[test]
    fn round_trip_with_rich_conditions_and_literals() {
        let src = r#"
            schema { R(K, A); S(K); }
            peers {
                p sees R(K) where A = null or A = "x";
                q sees R(*), S(*);
            }
            rules {
                r @ q: +R(x, y), -key S(z)
                  :- R(x, y), not key S(z), S(z), x != z;
            }
        "#;
        let spec = parse_workflow(src).unwrap();
        let back = parse_workflow(&print_workflow(&spec)).unwrap();
        assert_eq!(spec, back);
    }
}
