//! Recursive-descent parser for the client-program language.

use std::fmt;

use crate::ast::{Arg, Block, ClassDecl, Cond, Expr, MethodDecl, Place, Program, Stmt};
use crate::lexer::{lex, LexError};
use crate::token::{Token, TokenKind};

/// Deepest block nesting the parser accepts (a method body is one level).
/// Hand-written programs nest a handful of levels; the limit keeps the
/// recursive descent, and every recursive pass over the tree after it, far
/// away from the end of the stack on hostile input.
pub const MAX_NESTING: usize = 100;

/// A parse (or lex) error with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Stable diagnostic code: `E000` for a syntax error, `E023` for
    /// nesting deeper than [`MAX_NESTING`].
    pub code: &'static str,
    /// Explanation of the error.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error[{}] at line {}: {}",
            self.code, self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            code: "E000",
            message: e.message,
            line: e.line,
        }
    }
}

/// Parses a complete program.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error encountered.
///
/// # Example
///
/// ```
/// let p = hetsep_ir::parse_program(
///     "program P uses IOStreams; void main() { InputStream f = new InputStream(); }",
/// )
/// .unwrap();
/// assert_eq!(p.name, "P");
/// assert_eq!(p.uses, "IOStreams");
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Blocks currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            code: "E000",
            message: message.into(),
            line: self.line(),
        })
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {kind}, found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn type_name(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            TokenKind::KwBoolean => {
                self.bump();
                Ok("boolean".to_owned())
            }
            other => self.err(format!("expected type name, found {other}")),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        self.expect(TokenKind::KwProgram)?;
        let name = self.ident()?;
        self.expect(TokenKind::KwUses)?;
        let uses = self.ident()?;
        self.expect(TokenKind::Semi)?;
        let mut classes = Vec::new();
        let mut methods = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::KwClass => classes.push(self.class_decl()?),
                _ => methods.push(self.method_decl()?),
            }
        }
        Ok(Program {
            name,
            uses,
            classes,
            methods,
        })
    }

    fn class_decl(&mut self) -> Result<ClassDecl, ParseError> {
        let line = self.line();
        self.expect(TokenKind::KwClass)?;
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            let ty = self.type_name()?;
            let fname = self.ident()?;
            self.expect(TokenKind::Semi)?;
            fields.push((fname, ty));
        }
        self.expect(TokenKind::RBrace)?;
        Ok(ClassDecl { name, fields, line })
    }

    fn method_decl(&mut self) -> Result<MethodDecl, ParseError> {
        let line = self.line();
        let ret = match self.peek() {
            TokenKind::KwVoid => {
                self.bump();
                None
            }
            _ => Some(self.type_name()?),
        };
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                let ty = self.type_name()?;
                let pname = self.ident()?;
                params.push((pname, ty));
                if *self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(MethodDecl {
            name,
            ret,
            params,
            body,
            line,
        })
    }

    /// Parses a `{ … }` block. Statements recurse only through blocks, so
    /// this is where nesting is counted; an error aborts the whole parse, so
    /// the counter is only unwound on success.
    fn block(&mut self) -> Result<Block, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError {
                code: "E023",
                message: format!("nesting too deep: more than {MAX_NESTING} nested blocks"),
                line: self.line(),
            });
        }
        self.expect(TokenKind::LBrace)?;
        self.depth += 1;
        let mut stmts = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        self.depth -= 1;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::KwIf => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.cond()?;
                self.expect(TokenKind::RParen)?;
                let then_branch = self.block()?;
                let else_branch = if *self.peek() == TokenKind::KwElse {
                    self.bump();
                    self.block()?
                } else {
                    Block::default()
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    line,
                })
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.cond()?;
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, line })
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if *self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.ident()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            TokenKind::KwBoolean => {
                // boolean b; / boolean b = <expr>;
                self.bump();
                let name = self.ident()?;
                let init = self.opt_initializer()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::VarDecl {
                    ty: "boolean".into(),
                    name,
                    init,
                    line,
                })
            }
            TokenKind::Ident(first) => {
                // Disambiguate: `T x ...` (decl) vs `x = ...` / `x.f ...` / `x(...)`.
                if matches!(self.peek2(), TokenKind::Ident(_)) {
                    self.bump(); // type
                    let name = self.ident()?;
                    let init = self.opt_initializer()?;
                    self.expect(TokenKind::Semi)?;
                    return Ok(Stmt::VarDecl {
                        ty: first,
                        name,
                        init,
                        line,
                    });
                }
                self.bump(); // the identifier
                match self.peek().clone() {
                    TokenKind::Assign => {
                        self.bump();
                        let value = self.expr()?;
                        self.expect(TokenKind::Semi)?;
                        Ok(Stmt::Assign {
                            target: Place::Var(first),
                            value,
                            line,
                        })
                    }
                    TokenKind::Dot => {
                        self.bump();
                        let member = self.ident()?;
                        match self.peek().clone() {
                            TokenKind::Assign => {
                                self.bump();
                                let value = self.expr()?;
                                self.expect(TokenKind::Semi)?;
                                Ok(Stmt::Assign {
                                    target: Place::Field(first, member),
                                    value,
                                    line,
                                })
                            }
                            TokenKind::LParen => {
                                let args = self.call_args()?;
                                self.expect(TokenKind::Semi)?;
                                Ok(Stmt::ExprStmt {
                                    expr: Expr::Call {
                                        recv: Some(first),
                                        method: member,
                                        args,
                                    },
                                    line,
                                })
                            }
                            other => self.err(format!("expected `=` or `(`, found {other}")),
                        }
                    }
                    TokenKind::LParen => {
                        let args = self.call_args()?;
                        self.expect(TokenKind::Semi)?;
                        Ok(Stmt::ExprStmt {
                            expr: Expr::Call {
                                recv: None,
                                method: first,
                                args,
                            },
                            line,
                        })
                    }
                    other => self.err(format!("unexpected {other} after identifier")),
                }
            }
            other => self.err(format!("expected statement, found {other}")),
        }
    }

    fn opt_initializer(&mut self) -> Result<Option<Expr>, ParseError> {
        if *self.peek() == TokenKind::Assign {
            self.bump();
            Ok(Some(self.expr()?))
        } else {
            Ok(None)
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::KwNull => {
                self.bump();
                Ok(Expr::Null)
            }
            TokenKind::KwTrue => {
                self.bump();
                Ok(Expr::True)
            }
            TokenKind::KwFalse => {
                self.bump();
                Ok(Expr::False)
            }
            TokenKind::Question => {
                self.bump();
                Ok(Expr::Nondet)
            }
            TokenKind::KwNew => {
                self.bump();
                let class = self.ident()?;
                let args = self.call_args()?;
                Ok(Expr::New { class, args })
            }
            TokenKind::Ident(name) => {
                self.bump();
                match self.peek().clone() {
                    TokenKind::Dot => {
                        self.bump();
                        let member = self.ident()?;
                        if *self.peek() == TokenKind::LParen {
                            let args = self.call_args()?;
                            Ok(Expr::Call {
                                recv: Some(name),
                                method: member,
                                args,
                            })
                        } else {
                            Ok(Expr::FieldAccess(name, member))
                        }
                    }
                    TokenKind::LParen => {
                        let args = self.call_args()?;
                        Ok(Expr::Call {
                            recv: None,
                            method: name,
                            args,
                        })
                    }
                    _ => Ok(Expr::Var(name)),
                }
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }

    fn call_args(&mut self) -> Result<Vec<Arg>, ParseError> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                let arg = match self.peek().clone() {
                    TokenKind::KwNull => {
                        self.bump();
                        Arg::Null
                    }
                    TokenKind::Str(s) => {
                        self.bump();
                        Arg::Str(s)
                    }
                    TokenKind::Ident(v) => {
                        self.bump();
                        Arg::Var(v)
                    }
                    other => return self.err(format!("expected argument, found {other}")),
                };
                args.push(arg);
                if *self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(args)
    }

    fn cond(&mut self) -> Result<Cond, ParseError> {
        match self.peek().clone() {
            TokenKind::Question => {
                self.bump();
                Ok(Cond::Nondet)
            }
            TokenKind::Bang => {
                self.bump();
                let name = self.ident()?;
                if *self.peek() == TokenKind::Dot {
                    self.bump();
                    let method = self.ident()?;
                    let args = self.call_args()?;
                    Ok(Cond::CallBool {
                        recv: name,
                        method,
                        args,
                        negated: true,
                    })
                } else {
                    Ok(Cond::BoolVar {
                        var: name,
                        negated: true,
                    })
                }
            }
            TokenKind::Ident(name) => {
                self.bump();
                match self.peek().clone() {
                    TokenKind::EqEq | TokenKind::NotEq => {
                        let negated = *self.peek() == TokenKind::NotEq;
                        self.bump();
                        match self.peek().clone() {
                            TokenKind::KwNull => {
                                self.bump();
                                Ok(Cond::NullCheck { var: name, negated })
                            }
                            TokenKind::Ident(rhs) => {
                                self.bump();
                                Ok(Cond::RefEq {
                                    lhs: name,
                                    rhs,
                                    negated,
                                })
                            }
                            other => {
                                self.err(format!("expected `null` or identifier, found {other}"))
                            }
                        }
                    }
                    TokenKind::Dot => {
                        self.bump();
                        let method = self.ident()?;
                        let args = self.call_args()?;
                        Ok(Cond::CallBool {
                            recv: name,
                            method,
                            args,
                            negated: false,
                        })
                    }
                    _ => Ok(Cond::BoolVar {
                        var: name,
                        negated: false,
                    }),
                }
            }
            other => self.err(format!("expected condition, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JDBC_SNIPPET: &str = r#"
program JdbcExample uses JDBC;

void main() {
    ConnectionManager cm = new ConnectionManager();
    Connection con1 = cm.getConnection();
    Statement stmt1 = cm.createStatement(con1);
    ResultSet maxRs = stmt1.executeQuery("maxQry");
    if (maxRs.next()) {
        ResultSet rs1 = stmt1.executeQuery("balancesQry");
        boolean closed1 = false;
        if (?) {
            stmt1.close();
            closed1 = true;
        }
        while (rs1.next()) {
        }
    }
}
"#;

    #[test]
    fn parses_jdbc_snippet() {
        let p = parse_program(JDBC_SNIPPET).unwrap();
        assert_eq!(p.name, "JdbcExample");
        assert_eq!(p.uses, "JDBC");
        assert_eq!(p.methods.len(), 1);
        let main = p.method("main").unwrap();
        assert!(main.body.stmts.len() >= 4);
    }

    #[test]
    fn parses_class_declarations() {
        let p = parse_program(
            r#"
program Holders uses IOStreams;
class Holder {
    InputStream stream;
    Holder next;
    boolean full;
}
void main() { }
"#,
        )
        .unwrap();
        let c = p.class("Holder").unwrap();
        assert_eq!(c.fields.len(), 3);
        assert_eq!(c.fields[2], ("full".into(), "boolean".into()));
    }

    #[test]
    fn parses_field_assignment_and_access() {
        let p = parse_program(
            r#"
program P uses IOStreams;
void main() {
    Holder h = new Holder();
    h.stream = null;
    InputStream s = h.stream;
    h.next = h;
}
"#,
        )
        .unwrap();
        let main = p.method("main").unwrap();
        assert!(matches!(
            &main.body.stmts[1],
            Stmt::Assign { target: Place::Field(v, f), value: Expr::Null, .. }
                if v == "h" && f == "stream"
        ));
        assert!(matches!(
            &main.body.stmts[2],
            Stmt::VarDecl { init: Some(Expr::FieldAccess(v, f)), .. }
                if v == "h" && f == "stream"
        ));
    }

    #[test]
    fn parses_conditions() {
        let p = parse_program(
            r#"
program P uses IOStreams;
void main() {
    InputStream a = new InputStream();
    InputStream b = a;
    boolean flag = ?;
    if (a == b) { }
    if (a != null) { }
    if (flag) { }
    if (!flag) { }
    if (a.ready()) { }
    while (?) { }
}
"#,
        )
        .unwrap();
        let main = p.method("main").unwrap();
        let conds: Vec<&Cond> = main
            .body
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::If { cond, .. } | Stmt::While { cond, .. } => Some(cond),
                _ => None,
            })
            .collect();
        assert_eq!(conds.len(), 6);
        assert!(matches!(conds[0], Cond::RefEq { negated: false, .. }));
        assert!(matches!(conds[1], Cond::NullCheck { negated: true, .. }));
        assert!(matches!(conds[2], Cond::BoolVar { negated: false, .. }));
        assert!(matches!(conds[3], Cond::BoolVar { negated: true, .. }));
        assert!(matches!(conds[4], Cond::CallBool { negated: false, .. }));
        assert!(matches!(conds[5], Cond::Nondet));
    }

    #[test]
    fn parses_procedures_with_params_and_return() {
        let p = parse_program(
            r#"
program P uses IOStreams;
InputStream open() {
    InputStream s = new InputStream();
    return s;
}
void use(InputStream s) {
    s.read();
}
void main() {
    InputStream s = open();
    use(s);
}
"#,
        )
        .unwrap();
        assert_eq!(p.methods.len(), 3);
        let open = p.method("open").unwrap();
        assert_eq!(open.ret.as_deref(), Some("InputStream"));
        let use_m = p.method("use").unwrap();
        assert_eq!(use_m.params, vec![("s".into(), "InputStream".into())]);
    }

    #[test]
    fn string_args_are_kept() {
        let p = parse_program(
            r#"
program P uses JDBC;
void main() {
    Statement st = new Statement(st);
    ResultSet rs = st.executeQuery("SELECT 1");
}
"#,
        )
        .unwrap();
        let main = p.method("main").unwrap();
        assert!(matches!(
            &main.body.stmts[1],
            Stmt::VarDecl { init: Some(Expr::Call { args, .. }), .. }
                if args == &[Arg::Str("SELECT 1".into())]
        ));
    }

    #[test]
    fn error_reports_line() {
        let err = parse_program("program P uses X;\nvoid main() {\n  } }").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn error_on_missing_semi() {
        let err = parse_program("program P uses X; void main() { a = b }").unwrap_err();
        assert!(err.message.contains("expected `;`"), "{}", err.message);
        assert_eq!(err.code, "E000");
    }

    /// `main` holding `depth - 1` nested `if (?) { … }` blocks, one per line.
    fn nested(depth: usize) -> String {
        let mut src = String::from("program P uses IOStreams;\nvoid main() {\n");
        src.push_str(&"if (?) {\n".repeat(depth - 1));
        src.push_str(&"}\n".repeat(depth));
        src
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let p = parse_program(&nested(MAX_NESTING)).unwrap();
        assert_eq!(p.methods[0].body.stmts.len(), 1);
    }

    #[test]
    fn nesting_past_the_limit_is_e023() {
        let err = parse_program(&nested(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err.code, "E023");
        assert!(err.message.contains("nesting too deep"), "{}", err.message);
        // The block that opens one level too deep, on line 2 + MAX_NESTING.
        assert_eq!(err.line, 2 + MAX_NESTING as u32);
        assert!(err.to_string().contains("E023"), "{err}");
        // Hostile depth fails the same way instead of exhausting the stack.
        let err = parse_program(&nested(20_000)).unwrap_err();
        assert_eq!(err.code, "E023");
    }
}
