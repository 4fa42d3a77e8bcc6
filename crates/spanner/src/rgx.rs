//! Regex formulas (paper §4.1).
//!
//! A regex formula is a regular expression extended with capture
//! variables `x{…}`. Grammar implemented by [`Rgx::parse`]:
//!
//! ```text
//! alt    := concat ('|' concat)*
//! concat := repeat*
//! repeat := atom ('*' | '+' | '?')*
//! atom   := '(' alt ')' | ident '{' alt '}' | class | '.' | escape | byte
//! class  := '[' '^'? (byte | byte '-' byte)+ ']'
//! escape := '\' ('d'|'w'|'s'|'n'|'t'|'r'|'0'| punctuation)
//! ```
//!
//! `ident` is `[A-Za-z_][A-Za-z0-9_]*` immediately followed by `{`; a
//! literal `{` must be escaped as `\{`. `.` denotes Σ (any byte). The
//! empty formula denotes ε; `∅` has no surface syntax (build via
//! [`Ast::Empty`]).
//!
//! Following the paper (and Fagin et al.), regex formulas are required to
//! be **functional**: every generated ref-word is valid. [`Rgx::to_vsa`]
//! checks functionality syntactically ([`Rgx::is_functional`]) with the
//! classic rules: variables must appear on every branch of an
//! alternation, at most once on a concatenation path, and not under
//! `*`/`+`/`?`.

use crate::byteset::ByteSet;
use crate::vars::{VarOp, VarTable};
use crate::vsa::{Label, Vsa};
use std::collections::BTreeSet;
use std::fmt;

/// Abstract syntax of regex formulas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// `∅`: the empty language.
    Empty,
    /// `ε`: the empty string.
    Epsilon,
    /// A byte-set atom (literal byte, class, or `.`).
    Bytes(ByteSet),
    /// Concatenation.
    Concat(Vec<Ast>),
    /// Alternation.
    Alt(Vec<Ast>),
    /// Kleene star.
    Star(Box<Ast>),
    /// One-or-more.
    Plus(Box<Ast>),
    /// Zero-or-one.
    Opt(Box<Ast>),
    /// Capture `x{α}`.
    Var(String, Box<Ast>),
}

/// A parsed regex formula together with its variable table.
#[derive(Debug, Clone)]
pub struct Rgx {
    ast: Ast,
    vars: VarTable,
    source: Option<String>,
}

/// Parse or validation error with byte offset into the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgxError {
    /// Offset into the pattern where the error occurred (pattern length
    /// for end-of-input errors; 0 for semantic errors).
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for RgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex formula error at offset {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for RgxError {}

impl Rgx {
    /// Parses a regex formula.
    pub fn parse(pattern: &str) -> Result<Rgx, RgxError> {
        let mut p = Parser {
            input: pattern.as_bytes(),
            pos: 0,
        };
        let ast = p.parse_alt()?;
        if p.pos != p.input.len() {
            return Err(p.err("unexpected character"));
        }
        let mut names = BTreeSet::new();
        collect_vars(&ast, &mut names);
        let vars = VarTable::new(names).map_err(|m| RgxError {
            offset: 0,
            message: m,
        })?;
        Ok(Rgx {
            ast,
            vars,
            source: Some(pattern.to_string()),
        })
    }

    /// Builds a formula from an AST (for programmatic construction, e.g.
    /// the hardness families in the bench crate).
    pub fn from_ast(ast: Ast) -> Result<Rgx, RgxError> {
        let mut names = BTreeSet::new();
        collect_vars(&ast, &mut names);
        let vars = VarTable::new(names).map_err(|m| RgxError {
            offset: 0,
            message: m,
        })?;
        Ok(Rgx {
            ast,
            vars,
            source: None,
        })
    }

    /// The AST.
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// The variables (`SVars(α)`).
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// The original pattern, when parsed from text.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Size `|α|`: number of AST atoms and operators (the paper's symbol
    /// count up to constant factors).
    pub fn size(&self) -> usize {
        fn sz(a: &Ast) -> usize {
            match a {
                Ast::Empty | Ast::Epsilon | Ast::Bytes(_) => 1,
                Ast::Concat(xs) | Ast::Alt(xs) => 1 + xs.iter().map(sz).sum::<usize>(),
                Ast::Star(x) | Ast::Plus(x) | Ast::Opt(x) => 1 + sz(x),
                Ast::Var(_, x) => 1 + sz(x),
            }
        }
        sz(&self.ast)
    }

    /// Syntactic functionality check: `R(α) = Ref(α)`.
    pub fn is_functional(&self) -> bool {
        check_functional(&self.ast).is_ok()
    }

    /// Compiles to a VSet-automaton (Thompson construction with variable
    /// operations). Errors if the formula is not functional.
    pub fn to_vsa(&self) -> Result<Vsa, RgxError> {
        check_functional(&self.ast).map_err(|message| RgxError { offset: 0, message })?;
        let mut vsa = Vsa::new(self.vars.clone());
        let accept = vsa.add_state();
        vsa.set_final(accept, true);
        let start = vsa.start();
        compile(&self.ast, &mut vsa, &self.vars, start, accept);
        Ok(vsa)
    }

    /// Compiles a **variable-free** formula to a plain regular language
    /// automaton (used for filters and preconditions, §7.2).
    pub fn to_lang_vsa(&self) -> Result<Vsa, RgxError> {
        if !self.vars.is_empty() {
            return Err(RgxError {
                offset: 0,
                message: "expected a variable-free regular expression".into(),
            });
        }
        self.to_vsa()
    }
}

fn collect_vars(ast: &Ast, out: &mut BTreeSet<String>) {
    match ast {
        Ast::Empty | Ast::Epsilon | Ast::Bytes(_) => {}
        Ast::Concat(xs) | Ast::Alt(xs) => xs.iter().for_each(|x| collect_vars(x, out)),
        Ast::Star(x) | Ast::Plus(x) | Ast::Opt(x) => collect_vars(x, out),
        Ast::Var(name, x) => {
            out.insert(name.clone());
            collect_vars(x, out);
        }
    }
}

/// Returns the variable set of the subformula if functional, or an error.
fn check_functional(ast: &Ast) -> Result<BTreeSet<String>, String> {
    match ast {
        Ast::Empty | Ast::Epsilon | Ast::Bytes(_) => Ok(BTreeSet::new()),
        Ast::Concat(xs) => {
            let mut all = BTreeSet::new();
            for x in xs {
                let v = check_functional(x)?;
                for name in v {
                    if !all.insert(name.clone()) {
                        return Err(format!("variable {name} bound twice on a path"));
                    }
                }
            }
            Ok(all)
        }
        Ast::Alt(xs) => {
            let mut sets = xs
                .iter()
                .map(check_functional)
                .collect::<Result<Vec<_>, _>>()?;
            let first = sets.pop().unwrap_or_default();
            for s in sets {
                if s != first {
                    return Err("alternation branches bind different variables".to_string());
                }
            }
            Ok(first)
        }
        Ast::Star(x) | Ast::Plus(x) | Ast::Opt(x) => {
            let v = check_functional(x)?;
            if !v.is_empty() {
                return Err(format!(
                    "variables {:?} under repetition/optional are not functional",
                    v
                ));
            }
            Ok(v)
        }
        Ast::Var(name, x) => {
            let mut v = check_functional(x)?;
            if !v.insert(name.clone()) {
                return Err(format!("variable {name} nested within itself"));
            }
            Ok(v)
        }
    }
}

/// Thompson-style compilation of `ast` between `from` and `to`.
fn compile(ast: &Ast, vsa: &mut Vsa, vars: &VarTable, from: u32, to: u32) {
    match ast {
        Ast::Empty => {}
        Ast::Epsilon => vsa.add_transition(from, Label::Eps, to),
        Ast::Bytes(m) => vsa.add_transition(from, Label::Bytes(*m), to),
        Ast::Concat(xs) => {
            if xs.is_empty() {
                vsa.add_transition(from, Label::Eps, to);
                return;
            }
            let mut cur = from;
            for (i, x) in xs.iter().enumerate() {
                let next = if i + 1 == xs.len() {
                    to
                } else {
                    vsa.add_state()
                };
                compile(x, vsa, vars, cur, next);
                cur = next;
            }
        }
        Ast::Alt(xs) => {
            for x in xs {
                compile(x, vsa, vars, from, to);
            }
        }
        Ast::Star(x) => {
            let hub = vsa.add_state();
            vsa.add_transition(from, Label::Eps, hub);
            vsa.add_transition(hub, Label::Eps, to);
            let back = vsa.add_state();
            compile(x, vsa, vars, hub, back);
            vsa.add_transition(back, Label::Eps, hub);
        }
        Ast::Plus(x) => {
            // α+ = α · α*
            let mid = vsa.add_state();
            compile(x, vsa, vars, from, mid);
            compile(&Ast::Star(x.clone()), vsa, vars, mid, to);
        }
        Ast::Opt(x) => {
            vsa.add_transition(from, Label::Eps, to);
            compile(x, vsa, vars, from, to);
        }
        Ast::Var(name, x) => {
            let v = vars.lookup(name).expect("collected variable");
            let inner_start = vsa.add_state();
            let inner_end = vsa.add_state();
            vsa.add_transition(from, Label::Op(VarOp::Open(v)), inner_start);
            compile(x, vsa, vars, inner_start, inner_end);
            vsa.add_transition(inner_end, Label::Op(VarOp::Close(v)), to);
        }
    }
}

impl fmt::Display for Ast {
    /// Renders the formula back to parseable pattern syntax (an inverse
    /// of [`Rgx::parse`] up to grouping).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn byte_atom(f: &mut fmt::Formatter<'_>, set: &ByteSet) -> fmt::Result {
            if *set == ByteSet::FULL {
                return write!(f, ".");
            }
            if set.len() == 1 {
                let b = set.first().unwrap();
                return write_escaped(f, b);
            }
            // Render as a class; prefer the complement when smaller.
            if set.len() > 128 {
                write!(f, "[^")?;
                for b in set.complement().iter() {
                    write_escaped(f, b)?;
                }
                return write!(f, "]");
            }
            write!(f, "[")?;
            for b in set.iter() {
                write_escaped(f, b)?;
            }
            write!(f, "]")
        }
        fn write_escaped(f: &mut fmt::Formatter<'_>, b: u8) -> fmt::Result {
            match b {
                b'\n' => write!(f, "\\n"),
                b'\t' => write!(f, "\\t"),
                b'\r' => write!(f, "\\r"),
                0 => write!(f, "\\0"),
                b if b.is_ascii_alphanumeric() || b == b' ' || b == b'_' => {
                    write!(f, "{}", b as char)
                }
                b if b.is_ascii_graphic() => write!(f, "\\{}", b as char),
                b => write!(f, "\\x{b:02x}"), // note: not re-parseable; rare
            }
        }
        fn grouped(f: &mut fmt::Formatter<'_>, a: &Ast) -> fmt::Result {
            match a {
                Ast::Alt(_) | Ast::Concat(_) => write!(f, "({a})"),
                _ => write!(f, "{a}"),
            }
        }
        match self {
            Ast::Empty => write!(f, "[^\\0-\\xff]"), // unsatisfiable atom
            Ast::Epsilon => Ok(()),
            Ast::Bytes(set) => byte_atom(f, set),
            Ast::Concat(xs) => {
                for x in xs {
                    // Captures are parenthesized so a preceding literal
                    // letter cannot be absorbed into the variable name
                    // on re-parse (maximal-ident rule).
                    if matches!(x, Ast::Alt(_) | Ast::Var(..)) {
                        write!(f, "({x})")?;
                    } else {
                        write!(f, "{x}")?;
                    }
                }
                Ok(())
            }
            Ast::Alt(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{x}")?;
                }
                Ok(())
            }
            Ast::Star(x) => {
                grouped(f, x)?;
                write!(f, "*")
            }
            Ast::Plus(x) => {
                grouped(f, x)?;
                write!(f, "+")
            }
            Ast::Opt(x) => {
                grouped(f, x)?;
                write!(f, "?")
            }
            Ast::Var(name, x) => write!(f, "{name}{{{x}}}"),
        }
    }
}

impl fmt::Display for Rgx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ast)
    }
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> RgxError {
        RgxError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn parse_alt(&mut self) -> Result<Ast, RgxError> {
        let mut branches = vec![self.parse_concat()?];
        while self.peek() == Some(b'|') {
            self.pos += 1;
            branches.push(self.parse_concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            Ast::Alt(branches)
        })
    }

    fn parse_concat(&mut self) -> Result<Ast, RgxError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == b'|' || c == b')' || c == b'}' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        Ok(match items.len() {
            0 => Ast::Epsilon,
            1 => items.pop().unwrap(),
            _ => Ast::Concat(items),
        })
    }

    fn parse_repeat(&mut self) -> Result<Ast, RgxError> {
        let mut atom = self.parse_atom()?;
        while let Some(c) = self.peek() {
            match c {
                b'*' => {
                    self.pos += 1;
                    atom = Ast::Star(Box::new(atom));
                }
                b'+' => {
                    self.pos += 1;
                    atom = Ast::Plus(Box::new(atom));
                }
                b'?' => {
                    self.pos += 1;
                    atom = Ast::Opt(Box::new(atom));
                }
                _ => break,
            }
        }
        Ok(atom)
    }

    fn parse_atom(&mut self) -> Result<Ast, RgxError> {
        let Some(c) = self.peek() else {
            return Err(self.err("unexpected end of pattern"));
        };
        match c {
            b'(' => {
                self.pos += 1;
                let inner = self.parse_alt()?;
                if self.peek() != Some(b')') {
                    return Err(self.err("expected ')'"));
                }
                self.pos += 1;
                Ok(inner)
            }
            b'[' => self.parse_class(),
            b'.' => {
                self.pos += 1;
                Ok(Ast::Bytes(ByteSet::FULL))
            }
            b'\\' => {
                self.pos += 1;
                let m = self.parse_escape()?;
                Ok(Ast::Bytes(m))
            }
            b'*' | b'+' | b'?' => Err(self.err("repetition with nothing to repeat")),
            b'{' | b'}' | b')' | b'|' => Err(self.err("unexpected metacharacter")),
            _ if is_ident_start(c) && self.lookahead_capture() => {
                let name = self.parse_ident();
                self.pos += 1; // consume '{'
                let inner = self.parse_alt()?;
                if self.peek() != Some(b'}') {
                    return Err(self.err("expected '}' closing capture"));
                }
                self.pos += 1;
                Ok(Ast::Var(name, Box::new(inner)))
            }
            _ => {
                self.pos += 1;
                Ok(Ast::Bytes(ByteSet::single(c)))
            }
        }
    }

    /// Whether an identifier followed directly by `{` starts here.
    fn lookahead_capture(&self) -> bool {
        let mut i = self.pos;
        if !self.input.get(i).copied().is_some_and(is_ident_start) {
            return false;
        }
        while self.input.get(i).copied().is_some_and(is_ident_char) {
            i += 1;
        }
        self.input.get(i) == Some(&b'{')
    }

    fn parse_ident(&mut self) -> String {
        let start = self.pos;
        while self.peek().is_some_and(is_ident_char) {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.input[start..self.pos]).into_owned()
    }

    fn parse_escape(&mut self) -> Result<ByteSet, RgxError> {
        let Some(c) = self.peek() else {
            return Err(self.err("dangling escape"));
        };
        self.pos += 1;
        Ok(match c {
            b'd' => ByteSet::range(b'0', b'9'),
            b'w' => {
                let mut m = ByteSet::range(b'a', b'z')
                    .or(&ByteSet::range(b'A', b'Z'))
                    .or(&ByteSet::range(b'0', b'9'));
                m.insert(b'_');
                m
            }
            b's' => ByteSet::from_bytes(b" \t\r\n\x0c"),
            b'n' => ByteSet::single(b'\n'),
            b't' => ByteSet::single(b'\t'),
            b'r' => ByteSet::single(b'\r'),
            b'0' => ByteSet::single(0),
            _ => ByteSet::single(c),
        })
    }

    fn parse_class(&mut self) -> Result<Ast, RgxError> {
        debug_assert_eq!(self.peek(), Some(b'['));
        self.pos += 1;
        let negate = self.peek() == Some(b'^');
        if negate {
            self.pos += 1;
        }
        let mut set = ByteSet::EMPTY;
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated character class"));
            };
            if c == b']' {
                self.pos += 1;
                break;
            }
            let lo = if c == b'\\' {
                self.pos += 1;
                let m = self.parse_escape()?;
                if m.len() != 1 {
                    // Multi-byte escape inside class: union it in.
                    set = set.or(&m);
                    continue;
                }
                m.first().unwrap()
            } else {
                self.pos += 1;
                c
            };
            if self.peek() == Some(b'-') && self.input.get(self.pos + 1) != Some(&b']') {
                self.pos += 1;
                let Some(hi) = self.peek() else {
                    return Err(self.err("unterminated range"));
                };
                let hi = if hi == b'\\' {
                    self.pos += 1;
                    let m = self.parse_escape()?;
                    m.first().ok_or_else(|| self.err("bad range bound"))?
                } else {
                    self.pos += 1;
                    hi
                };
                if lo > hi {
                    return Err(self.err("reversed range"));
                }
                set = set.or(&ByteSet::range(lo, hi));
            } else {
                set.insert(lo);
            }
        }
        if set.is_empty() && !negate {
            return Err(self.err("empty character class"));
        }
        Ok(Ast::Bytes(if negate { set.complement() } else { set }))
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::span::Span;
    use crate::vars::VarId;

    #[test]
    fn parse_literals_and_captures() {
        let r = Rgx::parse("a(x{b+})c").unwrap();
        assert_eq!(r.vars().names(), &["x"]);
        assert!(r.is_functional());
        let rel = eval(&r.to_vsa().unwrap(), b"abbc");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(1, 3));
    }

    #[test]
    fn parse_classes_escapes_dot() {
        let r = Rgx::parse(r"[a-c]\d.\n").unwrap();
        let v = r.to_vsa().unwrap();
        assert_eq!(eval(&v, b"b7Z\n").len(), 1);
        assert!(eval(&v, b"d7Z\n").is_empty());
        assert!(eval(&v, b"b7Z.").is_empty());
    }

    #[test]
    fn negated_class() {
        let r = Rgx::parse("[^.]+").unwrap();
        let v = r.to_vsa().unwrap();
        assert_eq!(eval(&v, b"ab c").len(), 1);
        assert!(eval(&v, b"a.c").is_empty());
    }

    #[test]
    fn alternation_and_repetition() {
        let r = Rgx::parse("(ab|cd)*e?").unwrap();
        let v = r.to_vsa().unwrap();
        for doc in [b"".as_slice(), b"ab", b"cdab", b"abe", b"e"] {
            assert_eq!(eval(&v, doc).len(), 1, "doc {doc:?}");
        }
        assert!(eval(&v, b"a").is_empty());
    }

    #[test]
    fn ident_without_brace_is_literal() {
        // "xy" with no '{' is just two literal bytes.
        let r = Rgx::parse("xy").unwrap();
        assert!(r.vars().is_empty());
        assert_eq!(eval(&r.to_vsa().unwrap(), b"xy").len(), 1);
    }

    #[test]
    fn multichar_identifiers() {
        let r = Rgx::parse("name{a}_tail{b}").unwrap();
        assert_eq!(r.vars().names(), &["_tail", "name"]);
    }

    #[test]
    fn escaped_brace_is_literal() {
        let r = Rgx::parse(r"a\{b\}").unwrap();
        assert!(r.vars().is_empty());
        assert_eq!(eval(&r.to_vsa().unwrap(), b"a{b}").len(), 1);
    }

    #[test]
    fn functionality_violations() {
        // Variable under star (paper footnote 5).
        let r = Rgx::parse("(x{a})*").unwrap();
        assert!(!r.is_functional());
        assert!(r.to_vsa().is_err());
        // Branches binding different variables.
        let r = Rgx::parse("x{a}|y{a}").unwrap();
        assert!(!r.is_functional());
        // Variable twice on a path.
        let r = Rgx::parse("x{a}x{b}").unwrap();
        assert!(!r.is_functional());
        // Same variable on both branches is fine.
        let r = Rgx::parse("x{a}|x{b}").unwrap();
        assert!(r.is_functional());
    }

    #[test]
    fn parse_errors_have_offsets() {
        let e = Rgx::parse("a(b").unwrap_err();
        assert_eq!(e.offset, 3);
        let e = Rgx::parse("*a").unwrap_err();
        assert_eq!(e.offset, 0);
        assert!(Rgx::parse("x{a").is_err());
        assert!(Rgx::parse("[z-a]").is_err());
        assert!(Rgx::parse("[]").is_err());
    }

    #[test]
    fn nested_captures() {
        let r = Rgx::parse("outer{a inner{b} c}").unwrap();
        assert!(r.is_functional());
        let v = r.to_vsa().unwrap();
        let rel = eval(&v, b"a b c");
        assert_eq!(rel.len(), 1);
        let t = rel.tuple(0);
        let outer = v.vars().lookup("outer").unwrap();
        let inner = v.vars().lookup("inner").unwrap();
        assert_eq!(t.get(outer), Span::new(0, 5));
        assert_eq!(t.get(inner), Span::new(2, 3));
    }

    #[test]
    fn empty_pattern_is_epsilon() {
        let r = Rgx::parse("").unwrap();
        assert_eq!(r.ast(), &Ast::Epsilon);
        let v = r.to_vsa().unwrap();
        assert_eq!(eval(&v, b"").len(), 1);
        assert!(eval(&v, b"a").is_empty());
    }

    #[test]
    fn paper_example_email_phone_proximity() {
        // Paper §3.1: email/phone mentions with at most three tokens in
        // between — simplified shape compiles and runs.
        let r = Rgx::parse(".*e{[a-z]+}( [a-z]+)?( [a-z]+)?( [a-z]+)? p{[0-9]+}.*").unwrap();
        let v = r.to_vsa().unwrap();
        assert!(!eval(&v, b"ab cd 12").is_empty());
        // Too many tokens strictly between the captured pair is rejected
        // when the prefix is anchored away (no leading Σ*).
        let anchored = Rgx::parse("e{[a-z]+}( [a-z]+)?( [a-z]+)?( [a-z]+)? p{[0-9]+}")
            .unwrap()
            .to_vsa()
            .unwrap();
        assert!(!eval(&anchored, b"ab b c d 12").is_empty());
        assert!(eval(&anchored, b"ab b c d e 12").is_empty());
    }

    #[test]
    fn to_lang_vsa_rejects_variables() {
        assert!(Rgx::parse("x{a}").unwrap().to_lang_vsa().is_err());
        assert!(Rgx::parse("a*").unwrap().to_lang_vsa().is_ok());
    }

    #[test]
    fn display_roundtrip() {
        for pat in [
            "a(x{b+})c",
            ".*y{[ab]+}.*",
            "(ab|cd)*e?",
            "x{a}|x{[^c]+}",
            "a\\.b\\nc",
        ] {
            let r = Rgx::parse(pat).unwrap();
            let printed = r.to_string();
            let reparsed = Rgx::parse(&printed)
                .unwrap_or_else(|e| panic!("reprint of {pat:?} -> {printed:?}: {e}"));
            // Semantic roundtrip: the spanners are equivalent.
            let a = r.to_vsa().unwrap();
            let b = reparsed.to_vsa().unwrap();
            assert!(
                crate::equiv::spanner_equivalent(&a, &b).unwrap().holds(),
                "pattern {pat:?} reprinted as {printed:?}"
            );
        }
    }

    #[test]
    fn from_ast_roundtrip() {
        let ast = Ast::Var("v".into(), Box::new(Ast::Bytes(ByteSet::single(b'a'))));
        let r = Rgx::from_ast(ast).unwrap();
        assert_eq!(r.vars().names(), &["v"]);
        assert!(r.source().is_none());
        assert!(r.size() >= 2);
    }
}
