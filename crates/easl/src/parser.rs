//! Parser for Easl specifications.
//!
//! Parsing runs in two internal phases: a syntactic phase building raw
//! statements, and a resolution phase that uses the declared field kinds to
//! classify assignments (boolean vs. reference vs. set) and to type-check
//! paths. The public entry point is [`parse_spec`].

use std::collections::HashMap;
use std::fmt;

use crate::ast::{
    BoolRhs, EaslClass, EaslCond, EaslMethod, EaslStmt, FieldKind, Path, RefRhs, RetKind,
    ReturnValue, Spec,
};

/// Deepest nesting the parser accepts, counting every open block and every
/// `!` and `&&` operand of a condition along one path of the syntax tree.
///
/// Hand-written specifications nest a handful of levels; the limit keeps the
/// recursive descent, and every recursive pass over the tree after it, far
/// away from the end of the stack on hostile input.
pub const MAX_NESTING: usize = 100;

/// A parse or resolution error with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    /// Explanation.
    pub message: String,
    /// 1-based line.
    pub line: u32,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "easl error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecParseError {}

// ---------------------------------------------------------------- tokens --

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Lt,
    Gt,
    Semi,
    Comma,
    Dot,
    Assign,
    PlusAssign,
    EqEq,
    NotEq,
    Bang,
    Question,
    AndAnd,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Assign => write!(f, "`=`"),
            Tok::PlusAssign => write!(f, "`+=`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::NotEq => write!(f, "`!=`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Question => write!(f, "`?`"),
            Tok::AndAnd => write!(f, "`&&`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, u32)>, SpecParseError> {
    let mut out = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push((Tok::Ident(chars[start..i].iter().collect()), line));
            }
            '=' if chars.get(i + 1) == Some(&'=') => {
                out.push((Tok::EqEq, line));
                i += 2;
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                out.push((Tok::NotEq, line));
                i += 2;
            }
            '+' if chars.get(i + 1) == Some(&'=') => {
                out.push((Tok::PlusAssign, line));
                i += 2;
            }
            '&' if chars.get(i + 1) == Some(&'&') => {
                out.push((Tok::AndAnd, line));
                i += 2;
            }
            _ => {
                let tok = match c {
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    '{' => Tok::LBrace,
                    '}' => Tok::RBrace,
                    '<' => Tok::Lt,
                    '>' => Tok::Gt,
                    ';' => Tok::Semi,
                    ',' => Tok::Comma,
                    '.' => Tok::Dot,
                    '=' => Tok::Assign,
                    '!' => Tok::Bang,
                    '?' => Tok::Question,
                    other => {
                        return Err(SpecParseError {
                            message: format!("unexpected character {other:?}"),
                            line,
                        })
                    }
                };
                out.push((tok, line));
                i += 1;
            }
        }
    }
    out.push((Tok::Eof, line));
    Ok(out)
}

// ------------------------------------------------------------- raw parse --

#[derive(Debug, Clone)]
enum RawRhs {
    True,
    False,
    Nondet,
    Null,
    EmptySet,
    Path(Path),
}

#[derive(Debug, Clone)]
enum RawStmt {
    Requires(EaslCond, u32),
    Assign { target: Path, value: RawRhs, line: u32 },
    SetAdd { target: Path, elem: Path, line: u32 },
    Alloc { var: String, class: String, args: Vec<Path>, line: u32 },
    If { cond: EaslCond, then_branch: Vec<RawStmt>, else_branch: Vec<RawStmt>, line: u32 },
    Foreach { var: String, target: Path, body: Vec<RawStmt>, line: u32 },
    Return(Option<RawRhs>, u32),
}

struct RawMethod {
    name: String,
    params: Vec<(String, String)>,
    ret_type: String, // "void" | "boolean" | class name
    body: Vec<RawStmt>,
    line: u32,
}

struct RawClass {
    name: String,
    fields: Vec<(String, FieldKind)>,
    ctor: Option<RawMethod>,
    methods: Vec<RawMethod>,
    line: u32,
}

struct P {
    toks: Vec<(Tok, u32)>,
    pos: usize,
    /// Open nesting levels (see [`MAX_NESTING`]). An error aborts the whole
    /// parse, so a level is only left again on success.
    depth: usize,
}

impl P {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, m: impl Into<String>) -> Result<T, SpecParseError> {
        Err(SpecParseError {
            message: m.into(),
            line: self.line(),
        })
    }

    /// Opens one nesting level, failing past [`MAX_NESTING`].
    fn enter(&mut self) -> Result<(), SpecParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!(
                "nesting too deep: more than {MAX_NESTING} nested blocks and condition operators"
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn expect(&mut self, t: Tok) -> Result<(), SpecParseError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {t}, found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, SpecParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn kw(&mut self, word: &str) -> Result<(), SpecParseError> {
        match self.peek().clone() {
            Tok::Ident(s) if s == word => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{word}`, found {other}")),
        }
    }

    fn spec(&mut self) -> Result<(String, Vec<RawClass>), SpecParseError> {
        self.kw("spec")?;
        let name = self.ident()?;
        self.expect(Tok::Semi)?;
        let mut classes = Vec::new();
        while *self.peek() != Tok::Eof {
            classes.push(self.class()?);
        }
        Ok((name, classes))
    }

    fn class(&mut self) -> Result<RawClass, SpecParseError> {
        let line = self.line();
        self.kw("class")?;
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut ctor = None;
        let mut methods = Vec::new();
        while *self.peek() != Tok::RBrace {
            let mline = self.line();
            let first = self.ident()?;
            match (first.as_str(), self.peek().clone()) {
                ("set", Tok::Lt) => {
                    self.bump();
                    let elem = self.ident()?;
                    self.expect(Tok::Gt)?;
                    let fname = self.ident()?;
                    self.expect(Tok::Semi)?;
                    fields.push((fname, FieldKind::Set(elem)));
                }
                (_, Tok::Ident(second)) => {
                    self.bump();
                    match self.peek().clone() {
                        Tok::Semi => {
                            self.bump();
                            let kind = if first == "boolean" {
                                FieldKind::Bool
                            } else {
                                FieldKind::Ref(first)
                            };
                            fields.push((second, kind));
                        }
                        Tok::LParen => {
                            let m = self.method_rest(second, first, mline)?;
                            methods.push(m);
                        }
                        other => {
                            return self.err(format!("expected `;` or `(`, found {other}"))
                        }
                    }
                }
                (_, Tok::LParen) if first == name => {
                    let m = self.method_rest(first.clone(), "void".into(), mline)?;
                    ctor = Some(m);
                }
                (_, other) => {
                    return self.err(format!("unexpected {other} in class body"));
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(RawClass {
            name,
            fields,
            ctor,
            methods,
            line,
        })
    }

    fn method_rest(
        &mut self,
        name: String,
        ret_type: String,
        line: u32,
    ) -> Result<RawMethod, SpecParseError> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let ty = self.ident()?;
                let pname = self.ident()?;
                params.push((pname, ty));
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        Ok(RawMethod {
            name,
            params,
            ret_type,
            body,
            line,
        })
    }

    /// Statements recurse only through blocks, so this is where their
    /// nesting is counted.
    fn block(&mut self) -> Result<Vec<RawStmt>, SpecParseError> {
        self.enter()?;
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            stmts.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        self.depth -= 1;
        Ok(stmts)
    }

    fn path_from(&mut self, root: String) -> Result<Path, SpecParseError> {
        let mut fields = Vec::new();
        while *self.peek() == Tok::Dot {
            self.bump();
            fields.push(self.ident()?);
        }
        Ok(Path { root, fields })
    }

    fn stmt(&mut self) -> Result<RawStmt, SpecParseError> {
        let line = self.line();
        let first = self.ident()?;
        match first.as_str() {
            "requires" => {
                let cond = self.cond()?;
                self.expect(Tok::Semi)?;
                Ok(RawStmt::Requires(cond, line))
            }
            "return" => {
                if *self.peek() == Tok::Semi {
                    self.bump();
                    return Ok(RawStmt::Return(None, line));
                }
                let value = self.rhs()?;
                self.expect(Tok::Semi)?;
                Ok(RawStmt::Return(Some(value), line))
            }
            "if" => {
                self.expect(Tok::LParen)?;
                let cond = self.cond()?;
                self.expect(Tok::RParen)?;
                let then_branch = self.block()?;
                let else_branch = if matches!(self.peek(), Tok::Ident(s) if s == "else") {
                    self.bump();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(RawStmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    line,
                })
            }
            "foreach" => {
                self.expect(Tok::LParen)?;
                let var = self.ident()?;
                self.kw("in")?;
                let root = self.ident()?;
                let target = self.path_from(root)?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                Ok(RawStmt::Foreach {
                    var,
                    target,
                    body,
                    line,
                })
            }
            _ => {
                // Either `Class var = new Class(...)` or a path statement.
                if let Tok::Ident(var) = self.peek().clone() {
                    // Allocation declaration.
                    self.bump();
                    self.expect(Tok::Assign)?;
                    self.kw("new")?;
                    let class = self.ident()?;
                    if class != first {
                        return self.err(format!(
                            "allocation type mismatch: declared `{first}`, allocated `{class}`"
                        ));
                    }
                    self.expect(Tok::LParen)?;
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            let root = self.ident()?;
                            args.push(self.path_from(root)?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    self.expect(Tok::Semi)?;
                    return Ok(RawStmt::Alloc {
                        var,
                        class,
                        args,
                        line,
                    });
                }
                let target = self.path_from(first)?;
                match self.peek().clone() {
                    Tok::Assign => {
                        self.bump();
                        let value = self.rhs()?;
                        self.expect(Tok::Semi)?;
                        Ok(RawStmt::Assign {
                            target,
                            value,
                            line,
                        })
                    }
                    Tok::PlusAssign => {
                        self.bump();
                        let root = self.ident()?;
                        let elem = self.path_from(root)?;
                        self.expect(Tok::Semi)?;
                        Ok(RawStmt::SetAdd {
                            target,
                            elem,
                            line,
                        })
                    }
                    other => self.err(format!("expected `=` or `+=`, found {other}")),
                }
            }
        }
    }

    fn rhs(&mut self) -> Result<RawRhs, SpecParseError> {
        match self.peek().clone() {
            Tok::Question => {
                self.bump();
                Ok(RawRhs::Nondet)
            }
            Tok::LBrace => {
                self.bump();
                self.expect(Tok::RBrace)?;
                Ok(RawRhs::EmptySet)
            }
            Tok::Ident(s) => match s.as_str() {
                "true" => {
                    self.bump();
                    Ok(RawRhs::True)
                }
                "false" => {
                    self.bump();
                    Ok(RawRhs::False)
                }
                "null" => {
                    self.bump();
                    Ok(RawRhs::Null)
                }
                _ => {
                    self.bump();
                    Ok(RawRhs::Path(self.path_from(s)?))
                }
            },
            other => self.err(format!("expected value, found {other}")),
        }
    }

    fn cond(&mut self) -> Result<EaslCond, SpecParseError> {
        let first = self.cond_atom()?;
        if *self.peek() == Tok::AndAnd {
            self.bump();
            self.enter()?;
            let rest = self.cond()?;
            self.depth -= 1;
            Ok(EaslCond::And(Box::new(first), Box::new(rest)))
        } else {
            Ok(first)
        }
    }

    fn cond_atom(&mut self) -> Result<EaslCond, SpecParseError> {
        match self.peek().clone() {
            Tok::Bang => {
                self.bump();
                self.enter()?;
                let inner = self.cond_atom()?;
                self.depth -= 1;
                Ok(EaslCond::Not(Box::new(inner)))
            }
            Tok::Ident(root) => {
                self.bump();
                let path = self.path_from(root)?;
                match self.peek().clone() {
                    Tok::EqEq => {
                        self.bump();
                        self.kw("null")?;
                        Ok(EaslCond::IsNull(path))
                    }
                    Tok::NotEq => {
                        self.bump();
                        self.kw("null")?;
                        Ok(EaslCond::NotNull(path))
                    }
                    _ => Ok(EaslCond::Read(path)),
                }
            }
            other => self.err(format!("expected condition, found {other}")),
        }
    }
}

// ------------------------------------------------------------ resolution --

struct Resolver<'a> {
    classes: &'a HashMap<String, Vec<(String, FieldKind)>>,
}

type Env = HashMap<String, String>; // variable -> class name

impl<'a> Resolver<'a> {
    fn field_kind(&self, class: &str, field: &str, line: u32) -> Result<&FieldKind, SpecParseError> {
        self.classes
            .get(class)
            .and_then(|fs| fs.iter().find(|(f, _)| f == field))
            .map(|(_, k)| k)
            .ok_or_else(|| SpecParseError {
                message: format!("class `{class}` has no field `{field}`"),
                line,
            })
    }

    /// Resolves the class of the object denoted by `path` (all fields must be
    /// reference fields).
    fn path_class(&self, env: &Env, path: &Path, line: u32) -> Result<String, SpecParseError> {
        let mut cur = env.get(&path.root).cloned().ok_or_else(|| SpecParseError {
            message: format!("unknown variable `{}`", path.root),
            line,
        })?;
        for f in &path.fields {
            match self.field_kind(&cur, f, line)? {
                FieldKind::Ref(c) => cur = c.clone(),
                FieldKind::Bool => {
                    return Err(SpecParseError {
                        message: format!("`{f}` is a boolean field, not a reference"),
                        line,
                    })
                }
                FieldKind::Set(_) => {
                    return Err(SpecParseError {
                        message: format!("`{f}` is a set field; sets cannot be dereferenced"),
                        line,
                    })
                }
            }
        }
        Ok(cur)
    }

    /// Checks that `path` ends in a boolean field and returns the owning
    /// object path plus the field name.
    fn split_bool_path(
        &self,
        env: &Env,
        path: &Path,
        line: u32,
    ) -> Result<(Path, String), SpecParseError> {
        let Some((last, init)) = path.fields.split_last() else {
            return Err(SpecParseError {
                message: format!("`{path}` is not a field access"),
                line,
            });
        };
        let owner = Path {
            root: path.root.clone(),
            fields: init.to_vec(),
        };
        let owner_class = self.path_class(env, &owner, line)?;
        match self.field_kind(&owner_class, last, line)? {
            FieldKind::Bool => Ok((owner, last.clone())),
            _ => Err(SpecParseError {
                message: format!("`{last}` is not a boolean field"),
                line,
            }),
        }
    }

    fn resolve_cond(&self, env: &Env, cond: &EaslCond, line: u32) -> Result<(), SpecParseError> {
        match cond {
            EaslCond::Read(p) => {
                self.split_bool_path(env, p, line)?;
                Ok(())
            }
            EaslCond::Not(c) => self.resolve_cond(env, c, line),
            EaslCond::And(a, b) => {
                self.resolve_cond(env, a, line)?;
                self.resolve_cond(env, b, line)
            }
            EaslCond::IsNull(p) | EaslCond::NotNull(p) => {
                self.path_class(env, p, line)?;
                Ok(())
            }
        }
    }

    fn resolve_stmts(
        &self,
        env: &mut Env,
        stmts: &[RawStmt],
        ret_type: &str,
    ) -> Result<Vec<EaslStmt>, SpecParseError> {
        let mut out = Vec::new();
        for s in stmts {
            out.push(self.resolve_stmt(env, s, ret_type)?);
        }
        Ok(out)
    }

    fn resolve_stmt(
        &self,
        env: &mut Env,
        stmt: &RawStmt,
        ret_type: &str,
    ) -> Result<EaslStmt, SpecParseError> {
        match stmt {
            RawStmt::Requires(c, line) => {
                self.resolve_cond(env, c, *line)?;
                Ok(EaslStmt::Requires(c.clone()))
            }
            RawStmt::Assign { target, value, line } => {
                let Some((last, init)) = target.fields.split_last() else {
                    return Err(SpecParseError {
                        message: format!("cannot assign to bare variable `{}`", target.root),
                        line: *line,
                    });
                };
                let owner = Path {
                    root: target.root.clone(),
                    fields: init.to_vec(),
                };
                let owner_class = self.path_class(env, &owner, *line)?;
                let kind = self.field_kind(&owner_class, last, *line)?.clone();
                match (&kind, value) {
                    (FieldKind::Bool, RawRhs::True) => Ok(EaslStmt::AssignBool {
                        target: owner,
                        field: last.clone(),
                        value: BoolRhs::Const(true),
                    }),
                    (FieldKind::Bool, RawRhs::False) => Ok(EaslStmt::AssignBool {
                        target: owner,
                        field: last.clone(),
                        value: BoolRhs::Const(false),
                    }),
                    (FieldKind::Bool, RawRhs::Nondet) => Ok(EaslStmt::AssignBool {
                        target: owner,
                        field: last.clone(),
                        value: BoolRhs::Nondet,
                    }),
                    (FieldKind::Bool, RawRhs::Path(p)) => {
                        self.split_bool_path(env, p, *line)?;
                        Ok(EaslStmt::AssignBool {
                            target: owner,
                            field: last.clone(),
                            value: BoolRhs::Read(p.clone()),
                        })
                    }
                    (FieldKind::Ref(_), RawRhs::Null) => Ok(EaslStmt::AssignRef {
                        target: owner,
                        field: last.clone(),
                        value: RefRhs::Null,
                    }),
                    (FieldKind::Ref(target_class), RawRhs::Path(p)) => {
                        let actual = self.path_class(env, p, *line)?;
                        if &actual != target_class {
                            return Err(SpecParseError {
                                message: format!(
                                    "type mismatch: field `{last}` holds `{target_class}`, got `{actual}`"
                                ),
                                line: *line,
                            });
                        }
                        Ok(EaslStmt::AssignRef {
                            target: owner,
                            field: last.clone(),
                            value: RefRhs::Path(p.clone()),
                        })
                    }
                    (FieldKind::Set(_), RawRhs::EmptySet) => Ok(EaslStmt::SetClear {
                        target: owner,
                        field: last.clone(),
                    }),
                    _ => Err(SpecParseError {
                        message: format!("invalid assignment to field `{last}`"),
                        line: *line,
                    }),
                }
            }
            RawStmt::SetAdd { target, elem, line } => {
                let Some((last, init)) = target.fields.split_last() else {
                    return Err(SpecParseError {
                        message: "`+=` requires a set field".into(),
                        line: *line,
                    });
                };
                let owner = Path {
                    root: target.root.clone(),
                    fields: init.to_vec(),
                };
                let owner_class = self.path_class(env, &owner, *line)?;
                match self.field_kind(&owner_class, last, *line)? {
                    FieldKind::Set(elem_class) => {
                        let actual = self.path_class(env, elem, *line)?;
                        if &actual != elem_class {
                            return Err(SpecParseError {
                                message: format!(
                                    "set `{last}` holds `{elem_class}`, got `{actual}`"
                                ),
                                line: *line,
                            });
                        }
                        Ok(EaslStmt::SetAdd {
                            target: owner,
                            field: last.clone(),
                            elem: elem.clone(),
                        })
                    }
                    _ => Err(SpecParseError {
                        message: format!("`{last}` is not a set field"),
                        line: *line,
                    }),
                }
            }
            RawStmt::Alloc { var, class, args, line } => {
                if !self.classes.contains_key(class) {
                    return Err(SpecParseError {
                        message: format!("allocation of unknown class `{class}`"),
                        line: *line,
                    });
                }
                for a in args {
                    self.path_class(env, a, *line)?;
                }
                env.insert(var.clone(), class.clone());
                Ok(EaslStmt::Alloc {
                    var: var.clone(),
                    class: class.clone(),
                    args: args.clone(),
                })
            }
            RawStmt::If {
                cond,
                then_branch,
                else_branch,
                line,
            } => {
                self.resolve_cond(env, cond, *line)?;
                let mut e1 = env.clone();
                let t = self.resolve_stmts(&mut e1, then_branch, ret_type)?;
                let mut e2 = env.clone();
                let e = self.resolve_stmts(&mut e2, else_branch, ret_type)?;
                Ok(EaslStmt::If {
                    cond: cond.clone(),
                    then_branch: t,
                    else_branch: e,
                })
            }
            RawStmt::Foreach {
                var,
                target,
                body,
                line,
            } => {
                let Some((last, init)) = target.fields.split_last() else {
                    return Err(SpecParseError {
                        message: "`foreach` requires a set field".into(),
                        line: *line,
                    });
                };
                let owner = Path {
                    root: target.root.clone(),
                    fields: init.to_vec(),
                };
                let owner_class = self.path_class(env, &owner, *line)?;
                let elem_class = match self.field_kind(&owner_class, last, *line)? {
                    FieldKind::Set(c) => c.clone(),
                    _ => {
                        return Err(SpecParseError {
                            message: format!("`{last}` is not a set field"),
                            line: *line,
                        })
                    }
                };
                let mut inner = env.clone();
                inner.insert(var.clone(), elem_class);
                let body = self.resolve_stmts(&mut inner, body, ret_type)?;
                Ok(EaslStmt::Foreach {
                    var: var.clone(),
                    target: owner,
                    field: last.clone(),
                    body,
                })
            }
            RawStmt::Return(v, line) => match (v, ret_type) {
                (None, "void") => Ok(EaslStmt::Return(None)),
                (Some(RawRhs::True | RawRhs::False | RawRhs::Nondet), "boolean") => {
                    Ok(EaslStmt::Return(Some(ReturnValue::Bool)))
                }
                (Some(RawRhs::Path(p)), ret) if ret != "void" && ret != "boolean" => {
                    let actual = self.path_class(env, p, *line)?;
                    if actual != ret {
                        return Err(SpecParseError {
                            message: format!("return type mismatch: expected `{ret}`, got `{actual}`"),
                            line: *line,
                        });
                    }
                    Ok(EaslStmt::Return(Some(ReturnValue::Path(p.clone()))))
                }
                _ => Err(SpecParseError {
                    message: "return value does not match declared return type".into(),
                    line: *line,
                }),
            },
        }
    }
}

/// Parses and type-checks an Easl specification.
///
/// # Errors
///
/// Returns the first syntactic or type error encountered.
///
/// # Example
///
/// ```
/// let spec = hetsep_easl::parse_spec(
///     "spec S; class F { boolean closed; F() { this.closed = false; } \
///      void close() { this.closed = true; } }",
/// )
/// .unwrap();
/// assert_eq!(spec.name, "S");
/// assert!(spec.class("F").is_some());
/// ```
pub fn parse_spec(src: &str) -> Result<Spec, SpecParseError> {
    let toks = lex(src)?;
    let (name, raw_classes) = P { toks, pos: 0, depth: 0 }.spec()?;

    let mut field_table: HashMap<String, Vec<(String, FieldKind)>> = HashMap::new();
    for c in &raw_classes {
        if field_table
            .insert(c.name.clone(), c.fields.clone())
            .is_some()
        {
            return Err(SpecParseError {
                message: format!("duplicate class `{}`", c.name),
                line: c.line,
            });
        }
    }
    // Validate field target classes exist.
    for c in &raw_classes {
        for (fname, kind) in &c.fields {
            let target = match kind {
                FieldKind::Bool => None,
                FieldKind::Ref(t) | FieldKind::Set(t) => Some(t),
            };
            if let Some(t) = target {
                if !field_table.contains_key(t) {
                    return Err(SpecParseError {
                        message: format!(
                            "field `{fname}` of class `{}` references unknown class `{t}`",
                            c.name
                        ),
                        line: c.line,
                    });
                }
            }
        }
    }
    let resolver = Resolver {
        classes: &field_table,
    };
    let mut classes = Vec::new();
    for rc in &raw_classes {
        let resolve_method = |m: &RawMethod, is_ctor: bool| -> Result<EaslMethod, SpecParseError> {
            let mut env: Env = HashMap::new();
            env.insert("this".into(), rc.name.clone());
            let mut params = Vec::new();
            for (pname, pty) in &m.params {
                if pty != "String" {
                    if !field_table.contains_key(pty) {
                        return Err(SpecParseError {
                            message: format!("parameter `{pname}` has unknown class `{pty}`"),
                            line: m.line,
                        });
                    }
                    env.insert(pname.clone(), pty.clone());
                }
                params.push((pname.clone(), pty.clone()));
            }
            let ret = match m.ret_type.as_str() {
                "void" => RetKind::Void,
                "boolean" => RetKind::Bool,
                cls => {
                    if !field_table.contains_key(cls) {
                        return Err(SpecParseError {
                            message: format!("unknown return class `{cls}`"),
                            line: m.line,
                        });
                    }
                    RetKind::Ref(cls.to_owned())
                }
            };
            let body = resolver.resolve_stmts(&mut env, &m.body, &m.ret_type)?;
            if is_ctor && body.iter().any(|s| matches!(s, EaslStmt::Alloc { .. })) {
                return Err(SpecParseError {
                    message: "constructors must not allocate".into(),
                    line: m.line,
                });
            }
            Ok(EaslMethod {
                name: m.name.clone(),
                params,
                ret,
                body,
            })
        };
        let ctor = match &rc.ctor {
            Some(m) => resolve_method(m, true)?,
            None => EaslMethod {
                name: rc.name.clone(),
                params: vec![],
                ret: RetKind::Void,
                body: vec![],
            },
        };
        let mut methods = Vec::new();
        for m in &rc.methods {
            methods.push(resolve_method(m, false)?);
        }
        classes.push(EaslClass {
            name: rc.name.clone(),
            fields: rc.fields.clone(),
            ctor,
            methods,
        });
    }
    Ok(Spec { name, classes })
}

#[cfg(test)]
mod tests {
    use super::*;

    const JDBC_MINI: &str = r#"
spec JDBC;

class Connection {
    boolean closed;
    set<Statement> statements;

    Connection() {
        this.closed = false;
        this.statements = {};
    }

    Statement createStatement() {
        requires !this.closed;
        Statement st = new Statement(this);
        this.statements += st;
        return st;
    }

    void close() {
        this.closed = true;
        foreach (st in this.statements) {
            st.closed = true;
            if (st.myResultSet != null) {
                st.myResultSet.closed = true;
            }
        }
    }
}

class Statement {
    boolean closed;
    ResultSet myResultSet;
    Connection myConnection;

    Statement(Connection c) {
        this.closed = false;
        this.myConnection = c;
        this.myResultSet = null;
    }

    ResultSet executeQuery(String qry) {
        requires !this.closed;
        if (this.myResultSet != null) {
            this.myResultSet.closed = true;
        }
        ResultSet r = new ResultSet(this);
        this.myResultSet = r;
        return r;
    }

    void close() {
        this.closed = true;
        if (this.myResultSet != null) {
            this.myResultSet.closed = true;
        }
    }
}

class ResultSet {
    boolean closed;
    Statement ownerStmt;

    ResultSet(Statement s) {
        this.closed = false;
        this.ownerStmt = s;
    }

    boolean next() {
        requires !this.closed;
        return ?;
    }

    void close() {
        this.closed = true;
    }
}
"#;

    #[test]
    fn parses_fig4_style_jdbc_spec() {
        let spec = parse_spec(JDBC_MINI).unwrap();
        assert_eq!(spec.name, "JDBC");
        assert_eq!(spec.classes.len(), 3);
        let conn = spec.class("Connection").unwrap();
        assert_eq!(
            conn.field("statements"),
            Some(&FieldKind::Set("Statement".into()))
        );
        let close = conn.method("close").unwrap();
        assert!(matches!(&close.body[1], EaslStmt::Foreach { .. }));
        let stmt = spec.class("Statement").unwrap();
        let eq = stmt.method("executeQuery").unwrap();
        assert_eq!(eq.ret, RetKind::Ref("ResultSet".into()));
        // String params are kept but inert.
        assert_eq!(eq.params[0].1, "String");
        assert!(matches!(
            eq.body.last(),
            Some(EaslStmt::Return(Some(ReturnValue::Path(_))))
        ));
    }

    #[test]
    fn nested_bool_path_in_foreach_resolves() {
        let spec = parse_spec(JDBC_MINI).unwrap();
        let close = spec.class("Connection").unwrap().method("close").unwrap();
        let EaslStmt::Foreach { body, .. } = &close.body[1] else {
            panic!("expected foreach");
        };
        assert!(matches!(
            &body[1],
            EaslStmt::If { then_branch, .. }
                if matches!(&then_branch[0], EaslStmt::AssignBool { target, field, .. }
                    if target.to_string() == "st.myResultSet" && field == "closed")
        ));
    }

    #[test]
    fn rejects_unknown_field() {
        let err = parse_spec(
            "spec S; class C { C() { this.bogus = true; } }",
        )
        .unwrap_err();
        assert!(err.message.contains("no field `bogus`"), "{}", err.message);
    }

    #[test]
    fn rejects_type_mismatch_in_ref_assignment() {
        let err2 = parse_spec(
            r#"
spec S;
class A { B f; A() { } void m(A a) { this.f = a; } }
class B { B() { } }
"#,
        )
        .unwrap_err();
        assert!(err2.message.contains("type mismatch"), "{}", err2.message);
    }

    #[test]
    fn rejects_set_misuse() {
        let err = parse_spec(
            r#"
spec S;
class A { boolean b; A() { } void m() { this.b += this; } }
"#,
        )
        .unwrap_err();
        assert!(err.message.contains("not a set field"), "{}", err.message);
    }

    #[test]
    fn rejects_allocating_constructor() {
        let err = parse_spec(
            r#"
spec S;
class A { A() { A x = new A(); } }
"#,
        )
        .unwrap_err();
        assert!(err.message.contains("must not allocate"), "{}", err.message);
    }

    #[test]
    fn rejects_return_type_mismatch() {
        let err = parse_spec(
            r#"
spec S;
class A { A() { } boolean m() { return this; } }
"#,
        )
        .unwrap_err();
        assert!(
            err.message.contains("return value does not match"),
            "{}",
            err.message
        );
    }

    #[test]
    fn rejects_unknown_param_class() {
        let err = parse_spec("spec S; class A { A(Zed z) { } }").unwrap_err();
        assert!(err.message.contains("unknown class `Zed`"), "{}", err.message);
    }

    #[test]
    fn default_ctor_when_missing() {
        let spec = parse_spec("spec S; class A { boolean b; void m() { this.b = true; } }").unwrap();
        let a = spec.class("A").unwrap();
        assert!(a.ctor.body.is_empty());
        assert_eq!(a.ctor.name, "A");
    }

    #[test]
    fn conjunction_conditions_parse() {
        let spec = parse_spec(
            r#"
spec S;
class A {
    boolean x;
    boolean y;
    A() { }
    void m() { requires this.x && !this.y; }
}
"#,
        )
        .unwrap();
        let m = spec.class("A").unwrap().method("m").unwrap();
        assert!(matches!(&m.body[0], EaslStmt::Requires(EaslCond::And(..))));
    }

    /// A one-method spec whose body is `body`.
    fn spec_with(body: &str) -> String {
        format!("spec S;\nclass A {{\n    A b;\n    boolean x;\n    A() {{ }}\n    void m() {{\n{body}\n    }}\n}}\n")
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        // The method body is one level; blocks, `!`s and `&&`s fill the rest.
        let ifs = MAX_NESTING - 1;
        let src = spec_with(&format!(
            "{}{}",
            "if (this.b != null) {\n".repeat(ifs),
            "}\n".repeat(ifs)
        ));
        parse_spec(&src).unwrap();
        let bangs = "!".repeat(MAX_NESTING - 1);
        parse_spec(&spec_with(&format!("requires {bangs}this.x;"))).unwrap();
        let conj = vec!["this.x"; MAX_NESTING].join(" && ");
        parse_spec(&spec_with(&format!("requires {conj};"))).unwrap();
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let deep = [
            format!("{}{}", "if (this.b != null) {\n".repeat(20_000), "}\n".repeat(20_000)),
            format!("requires {}this.x;", "!".repeat(100_000)),
            format!("requires {};", vec!["this.b"; 50_000].join(" && ")),
            format!("requires {}this.x;", "!".repeat(MAX_NESTING)),
        ];
        for body in deep {
            let err = parse_spec(&spec_with(&body)).unwrap_err();
            assert!(err.message.contains("nesting too deep"), "{err}");
        }
    }
}
