//! Control-flow graphs on flat arena storage.
//!
//! [`Cfg::build`] lowers a program to a graph whose edges carry primitive
//! operations ([`CfgOp`]): reference/boolean moves, field loads and stores,
//! allocations, library calls, and branch assumptions. Program-level
//! procedure calls are *spliced*: each call site expands the callee body
//! in place (recursion is rejected), so the translated analysis instance
//! stays intraprocedural — mirroring the paper's treatment, which delegates
//! interprocedural structure to [Rinetzky & Sagiv] and notes it does not
//! interact with separation.
//!
//! Unlike the historical inliner, splices are *stable* and *addressable*:
//!
//! * Callee-local names are prefixed `{proc}::` (not per-splice counters),
//!   and compiler temporaries restart per splice (`{proc}::tmp$N`), so the
//!   spliced body of a procedure is byte-identical at every call site.
//! * Every splice is recorded as a [`CallRegion`] — a single-entry,
//!   single-exit subgraph addressed by its entry and exit [`NodeId`]s.
//! * Node lines, edges, and the adjacency lists live in flat pools (the
//!   adjacency is CSR: one shared index pool plus per-node offsets).

use std::collections::HashMap;
use std::fmt;

use crate::ast::{Arg, Block, Cond, Expr, MethodDecl, Place, Program, Stmt};
use crate::diag::Diagnostic;

/// Maximum procedure-splicing depth (guards against nested-call blowup).
const MAX_CALL_DEPTH: usize = 64;

/// A typed index of a CFG node in the flat node pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

macro_rules! index_newtype {
    ($name:ident) => {
        impl $name {
            /// Wraps a pool index.
            pub fn from_index(ix: usize) -> Self {
                $name(u32::try_from(ix).expect("pool index fits in u32"))
            }

            /// The underlying pool index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

index_newtype!(NodeId);

/// An error produced during CFG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgError {
    /// Stable diagnostic code (`E014`–`E022`).
    pub code: &'static str,
    /// Explanation of the error.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
    /// Offending source token, when one exists (drives caret spans).
    pub snippet: Option<String>,
}

impl CfgError {
    /// Renders the error as a [`Diagnostic`] with its stable code and,
    /// when a snippet is known, a caret span locatable in the source.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let d = Diagnostic::error(self.code, self.message.clone(), self.line);
        match &self.snippet {
            Some(s) => d.with_snippet(s.clone()),
            None => d,
        }
    }
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cfg error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CfgError {}

/// Right-hand side of a boolean assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoolRhs {
    /// A constant.
    Const(bool),
    /// Non-deterministic value (`?`).
    Nondet,
    /// Copy of another boolean variable.
    Var(String),
}

/// A primitive operation labelling a CFG edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgOp {
    /// No effect.
    Nop,
    /// `dst = null;`
    AssignNull {
        /// Destination variable.
        dst: String,
    },
    /// `dst = src;` (reference copy)
    AssignVar {
        /// Destination variable.
        dst: String,
        /// Source variable.
        src: String,
    },
    /// `dst = src.field;` (reference load)
    LoadField {
        /// Destination variable.
        dst: String,
        /// Base variable.
        src: String,
        /// Field name.
        field: String,
    },
    /// `dst.field = src;` (reference store; `None` stores null)
    StoreField {
        /// Base variable.
        dst: String,
        /// Field name.
        field: String,
        /// Stored variable, or `None` for null.
        src: Option<String>,
    },
    /// `dst = src.field;` where the field is boolean.
    LoadBoolField {
        /// Destination variable.
        dst: String,
        /// Base variable.
        src: String,
        /// Field name.
        field: String,
    },
    /// `dst.field = <bool>;` where the field is boolean.
    StoreBoolField {
        /// Base variable.
        dst: String,
        /// Field name.
        field: String,
        /// Stored value.
        value: BoolRhs,
    },
    /// `dst = new class(args);` (or a bare `new` for effect).
    New {
        /// Destination variable, if the result is used.
        dst: Option<String>,
        /// Class name (program-local or library).
        class: String,
        /// Constructor arguments.
        args: Vec<Arg>,
    },
    /// A call to a library method `recv.method(args)`.
    CallLib {
        /// Variable receiving the result, if used.
        result: Option<String>,
        /// Receiver variable.
        recv: String,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Arg>,
    },
    /// `dst = <bool>;`
    AssignBool {
        /// Destination variable.
        dst: String,
        /// Value.
        value: BoolRhs,
    },
    /// Branch assumption: the edge is taken when `cond` evaluates to
    /// `polarity`.
    Assume {
        /// The branch condition (with CFG-level variable names).
        cond: Cond,
        /// Polarity of this edge.
        polarity: bool,
    },
}

/// A CFG edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgEdge {
    /// Source node index.
    pub from: usize,
    /// Target node index.
    pub to: usize,
    /// The operation.
    pub op: CfgOp,
    /// Source line of the operation (for error reports).
    pub line: u32,
}

/// One splice of a procedure body: a single-entry, single-exit subgraph
/// occupying a contiguous range of the node and edge pools.
///
/// The entry node's only interior role is to start the region; the exit
/// node is the unique join all `return`s and the fall-through path reach.
/// Parameter binding and result copy-out happen *outside* the region, so
/// two regions of the same procedure have byte-identical interiors (same
/// variable names, same relative topology, same source lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRegion {
    /// Region entry node (first node of the range).
    pub entry: NodeId,
    /// Region exit node (unique successor-facing node of the range).
    pub exit: NodeId,
}

/// A control-flow graph with typed variables on flat arena pools.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    lines: Vec<u32>,
    edges: Vec<CfgEdge>,
    /// CSR adjacency: `out_pool[out_starts[n]..out_starts[n + 1]]` are the
    /// indices of edges leaving node `n`, in edge-creation order.
    out_pool: Vec<usize>,
    out_starts: Vec<u32>,
    entry: usize,
    exit: usize,
    var_types: HashMap<String, String>,
    regions: Vec<CallRegion>,
}

impl Cfg {
    /// Lowers `program`, starting at procedure `entry` (normally `"main"`).
    ///
    /// # Errors
    ///
    /// Fails on recursion, unknown procedures, or unsupported argument forms.
    pub fn build(program: &Program, entry: &str) -> Result<Cfg, CfgError> {
        let main = program.method(entry).ok_or_else(|| CfgError {
            code: "E014",
            message: format!("no procedure named `{entry}`"),
            line: 0,
            snippet: Some(entry.to_owned()),
        })?;
        let mut b = Builder {
            program,
            lines: Vec::new(),
            edges: Vec::new(),
            var_types: HashMap::new(),
            regions: Vec::new(),
            tmp_counters: HashMap::new(),
            call_stack: vec![entry.to_owned()],
        };
        let n_entry = b.node(main.line);
        let n_exit = b.node(main.line);
        let mut frame = Frame {
            subst: HashMap::new(),
            prefix: String::new(),
            return_node: n_exit,
            result_var: None,
        };
        let end = b.lower_block(&main.body, &mut frame, n_entry)?;
        if let Some(end) = end {
            b.edge(end, n_exit, CfgOp::Nop, main.line);
        }
        Ok(b.seal(n_entry, n_exit))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.lines.len()
    }

    /// Entry node index.
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// Exit node index.
    pub fn exit(&self) -> usize {
        self.exit
    }

    /// All edges.
    pub fn edges(&self) -> &[CfgEdge] {
        &self.edges
    }

    /// Indices of edges leaving `node`.
    pub fn out_edges(&self, node: usize) -> &[usize] {
        let lo = self.out_starts[node] as usize;
        let hi = self.out_starts[node + 1] as usize;
        &self.out_pool[lo..hi]
    }

    /// Source line associated with a node.
    pub fn line(&self, node: usize) -> u32 {
        self.lines[node]
    }

    /// Declared type of a CFG variable, if known (`"boolean"` or a class
    /// name; spliced callee variables are prefixed with their procedure,
    /// e.g. `open::s`).
    pub fn var_type(&self, var: &str) -> Option<&str> {
        self.var_types.get(var).map(String::as_str)
    }

    /// All CFG variables with their types, sorted by name.
    pub fn variables(&self) -> Vec<(&str, &str)> {
        let mut v: Vec<(&str, &str)> = self
            .var_types
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        v.sort();
        v
    }

    /// Every call-site splice, in completion order (inner regions of nested
    /// calls precede the region that contains them).
    pub fn regions(&self) -> &[CallRegion] {
        &self.regions
    }
}

struct Frame {
    /// Source name → CFG variable name within this splice frame.
    subst: HashMap<String, String>,
    /// Prefix applied to variables declared in this frame.
    prefix: String,
    /// Node to jump to on `return`.
    return_node: usize,
    /// CFG variable receiving the returned value, if any.
    result_var: Option<String>,
}

impl Frame {
    fn lookup(&self, name: &str) -> String {
        self.subst
            .get(name)
            .cloned()
            .unwrap_or_else(|| format!("{}{}", self.prefix, name))
    }

    fn declare(&mut self, name: &str) -> String {
        let unique = format!("{}{}", self.prefix, name);
        self.subst.insert(name.to_owned(), unique.clone());
        unique
    }
}

struct Builder<'p> {
    program: &'p Program,
    lines: Vec<u32>,
    edges: Vec<CfgEdge>,
    var_types: HashMap<String, String>,
    regions: Vec<CallRegion>,
    /// Per-frame-prefix temporary counters; reset at each splice so the
    /// temporaries of a procedure body are named identically at every
    /// call site (`{proc}::tmp$N`).
    tmp_counters: HashMap<String, u32>,
    call_stack: Vec<String>,
}

impl<'p> Builder<'p> {
    fn node(&mut self, line: u32) -> usize {
        self.lines.push(line);
        self.lines.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, op: CfgOp, line: u32) {
        self.edges.push(CfgEdge { from, to, op, line });
    }

    fn fresh_tmp(&mut self, prefix: &str, ty: &str) -> String {
        let n = self.tmp_counters.entry(prefix.to_owned()).or_insert(0);
        *n += 1;
        let name = format!("{prefix}tmp${n}");
        self.var_types.insert(name.clone(), ty.to_owned());
        name
    }

    fn err<T>(
        &self,
        code: &'static str,
        message: impl Into<String>,
        line: u32,
        snippet: Option<String>,
    ) -> Result<T, CfgError> {
        Err(CfgError {
            code,
            message: message.into(),
            line,
            snippet,
        })
    }

    /// Builds the CSR adjacency and assembles the final [`Cfg`].
    fn seal(self, entry: usize, exit: usize) -> Cfg {
        let n = self.lines.len();
        let mut out_starts = vec![0u32; n + 1];
        for e in &self.edges {
            out_starts[e.from + 1] += 1;
        }
        for i in 0..n {
            out_starts[i + 1] += out_starts[i];
        }
        let mut cursor: Vec<u32> = out_starts[..n].to_vec();
        let mut out_pool = vec![0usize; self.edges.len()];
        for (ix, e) in self.edges.iter().enumerate() {
            out_pool[cursor[e.from] as usize] = ix;
            cursor[e.from] += 1;
        }
        Cfg {
            lines: self.lines,
            edges: self.edges,
            out_pool,
            out_starts,
            entry,
            exit,
            var_types: self.var_types,
            regions: self.regions,
        }
    }

    /// Lowers a block starting at `cur`; returns the block's fall-through
    /// node, or `None` if the block ends in `return` on all paths through its
    /// last statement.
    fn lower_block(
        &mut self,
        block: &Block,
        frame: &mut Frame,
        mut cur: usize,
    ) -> Result<Option<usize>, CfgError> {
        for (ix, stmt) in block.stmts.iter().enumerate() {
            match self.lower_stmt(stmt, frame, cur)? {
                Some(next) => cur = next,
                None => {
                    // `return` reached: remaining statements are unreachable.
                    let _ = &block.stmts[ix..];
                    return Ok(None);
                }
            }
        }
        Ok(Some(cur))
    }

    fn lower_stmt(
        &mut self,
        stmt: &Stmt,
        frame: &mut Frame,
        cur: usize,
    ) -> Result<Option<usize>, CfgError> {
        match stmt {
            Stmt::VarDecl { ty, name, init, line } => {
                let unique = frame.declare(name);
                self.var_types.insert(unique.clone(), ty.clone());
                let is_bool = ty == "boolean";
                match init {
                    Some(expr) => {
                        let next = self.lower_assign(&unique, is_bool, expr, frame, cur, *line)?;
                        Ok(Some(next))
                    }
                    None => {
                        let next = self.node(*line);
                        let op = if is_bool {
                            CfgOp::AssignBool {
                                dst: unique,
                                value: BoolRhs::Const(false),
                            }
                        } else {
                            CfgOp::AssignNull { dst: unique }
                        };
                        self.edge(cur, next, op, *line);
                        Ok(Some(next))
                    }
                }
            }
            Stmt::Assign { target, value, line } => match target {
                Place::Var(v) => {
                    let unique = frame.lookup(v);
                    let is_bool = self.var_types.get(&unique).map(String::as_str)
                        == Some("boolean");
                    let next = self.lower_assign(&unique, is_bool, value, frame, cur, *line)?;
                    Ok(Some(next))
                }
                Place::Field(v, f) => {
                    let base = frame.lookup(v);
                    let next = self.lower_store_field(&base, f, value, frame, cur, *line)?;
                    Ok(Some(next))
                }
            },
            Stmt::ExprStmt { expr, line } => match expr {
                Expr::Call {
                    recv: Some(r),
                    method,
                    args,
                } => {
                    let next = self.node(*line);
                    let op = CfgOp::CallLib {
                        result: None,
                        recv: frame.lookup(r),
                        method: method.clone(),
                        args: self.subst_args(args, frame),
                    };
                    self.edge(cur, next, op, *line);
                    Ok(Some(next))
                }
                Expr::Call {
                    recv: None,
                    method,
                    args,
                } => {
                    let next = self.splice_call(method, args, None, frame, cur, *line)?;
                    Ok(Some(next))
                }
                Expr::New { class, args } => {
                    let next = self.node(*line);
                    let op = CfgOp::New {
                        dst: None,
                        class: class.clone(),
                        args: self.subst_args(args, frame),
                    };
                    self.edge(cur, next, op, *line);
                    Ok(Some(next))
                }
                other => self.err(
                    "E020",
                    format!("expression {other:?} has no effect"),
                    *line,
                    None,
                ),
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                line,
            } => {
                let (true_start, false_start) = self.lower_cond(cond, frame, cur, *line)?;
                let join = self.node(*line);
                let mut tf = Frame {
                    subst: frame.subst.clone(),
                    prefix: frame.prefix.clone(),
                    return_node: frame.return_node,
                    result_var: frame.result_var.clone(),
                };
                if let Some(t_end) = self.lower_block(then_branch, &mut tf, true_start)? {
                    self.edge(t_end, join, CfgOp::Nop, *line);
                }
                let mut ef = Frame {
                    subst: frame.subst.clone(),
                    prefix: frame.prefix.clone(),
                    return_node: frame.return_node,
                    result_var: frame.result_var.clone(),
                };
                if let Some(e_end) = self.lower_block(else_branch, &mut ef, false_start)? {
                    self.edge(e_end, join, CfgOp::Nop, *line);
                }
                Ok(Some(join))
            }
            Stmt::While { cond, body, line } => {
                let head = self.node(*line);
                self.edge(cur, head, CfgOp::Nop, *line);
                let (body_start, exit_node) = self.lower_cond(cond, frame, head, *line)?;
                let mut bf = Frame {
                    subst: frame.subst.clone(),
                    prefix: frame.prefix.clone(),
                    return_node: frame.return_node,
                    result_var: frame.result_var.clone(),
                };
                if let Some(b_end) = self.lower_block(body, &mut bf, body_start)? {
                    self.edge(b_end, head, CfgOp::Nop, *line);
                }
                Ok(Some(exit_node))
            }
            Stmt::Return { value, line } => {
                let op = match (value, &frame.result_var) {
                    (Some(v), Some(res)) => CfgOp::AssignVar {
                        dst: res.clone(),
                        src: frame.lookup(v),
                    },
                    (None, None) => CfgOp::Nop,
                    (Some(_), None) => CfgOp::Nop, // checked earlier; be lenient
                    (None, Some(_)) => {
                        return self.err("E022", "missing return value", *line, None);
                    }
                };
                self.edge(cur, frame.return_node, op, *line);
                Ok(None)
            }
        }
    }

    fn lower_assign(
        &mut self,
        dst: &str,
        is_bool: bool,
        value: &Expr,
        frame: &mut Frame,
        cur: usize,
        line: u32,
    ) -> Result<usize, CfgError> {
        let op = match value {
            Expr::Null => CfgOp::AssignNull { dst: dst.to_owned() },
            Expr::True => CfgOp::AssignBool {
                dst: dst.to_owned(),
                value: BoolRhs::Const(true),
            },
            Expr::False => CfgOp::AssignBool {
                dst: dst.to_owned(),
                value: BoolRhs::Const(false),
            },
            Expr::Nondet => CfgOp::AssignBool {
                dst: dst.to_owned(),
                value: BoolRhs::Nondet,
            },
            Expr::Var(v) => {
                let src = frame.lookup(v);
                if is_bool {
                    CfgOp::AssignBool {
                        dst: dst.to_owned(),
                        value: BoolRhs::Var(src),
                    }
                } else {
                    CfgOp::AssignVar {
                        dst: dst.to_owned(),
                        src,
                    }
                }
            }
            Expr::FieldAccess(v, f) => {
                let src = frame.lookup(v);
                if is_bool {
                    CfgOp::LoadBoolField {
                        dst: dst.to_owned(),
                        src,
                        field: f.clone(),
                    }
                } else {
                    CfgOp::LoadField {
                        dst: dst.to_owned(),
                        src,
                        field: f.clone(),
                    }
                }
            }
            Expr::New { class, args } => CfgOp::New {
                dst: Some(dst.to_owned()),
                class: class.clone(),
                args: self.subst_args(args, frame),
            },
            Expr::Call {
                recv: Some(r),
                method,
                args,
            } => CfgOp::CallLib {
                result: Some(dst.to_owned()),
                recv: frame.lookup(r),
                method: method.clone(),
                args: self.subst_args(args, frame),
            },
            Expr::Call {
                recv: None,
                method,
                args,
            } => {
                // Splice the procedure; its return is assigned to dst.
                return self.splice_call(method, args, Some(dst.to_owned()), frame, cur, line);
            }
        };
        let next = self.node(line);
        self.edge(cur, next, op, line);
        Ok(next)
    }

    fn lower_store_field(
        &mut self,
        base: &str,
        field: &str,
        value: &Expr,
        frame: &mut Frame,
        cur: usize,
        line: u32,
    ) -> Result<usize, CfgError> {
        // Determine boolean-ness from a program-local class declaration.
        let is_bool_field = self
            .var_types
            .get(base)
            .and_then(|ty| self.program.class(ty))
            .and_then(|c| c.fields.iter().find(|(f, _)| f == field))
            .map(|(_, fty)| fty == "boolean")
            .unwrap_or(false);
        match value {
            Expr::Null => {
                let next = self.node(line);
                self.edge(
                    cur,
                    next,
                    CfgOp::StoreField {
                        dst: base.to_owned(),
                        field: field.to_owned(),
                        src: None,
                    },
                    line,
                );
                Ok(next)
            }
            Expr::Var(v) if !is_bool_field => {
                let next = self.node(line);
                self.edge(
                    cur,
                    next,
                    CfgOp::StoreField {
                        dst: base.to_owned(),
                        field: field.to_owned(),
                        src: Some(frame.lookup(v)),
                    },
                    line,
                );
                Ok(next)
            }
            Expr::True | Expr::False | Expr::Nondet | Expr::Var(_) if is_bool_field => {
                let rhs = match value {
                    Expr::True => BoolRhs::Const(true),
                    Expr::False => BoolRhs::Const(false),
                    Expr::Nondet => BoolRhs::Nondet,
                    Expr::Var(v) => BoolRhs::Var(frame.lookup(v)),
                    _ => unreachable!(),
                };
                let next = self.node(line);
                self.edge(
                    cur,
                    next,
                    CfgOp::StoreBoolField {
                        dst: base.to_owned(),
                        field: field.to_owned(),
                        value: rhs,
                    },
                    line,
                );
                Ok(next)
            }
            Expr::New { class, .. } => {
                // Desugar: tmp = new C(...); base.field = tmp;
                let tmp = self.fresh_tmp(&frame.prefix, class);
                let mid = self.lower_assign(&tmp, false, value, frame, cur, line)?;
                let next = self.node(line);
                self.edge(
                    mid,
                    next,
                    CfgOp::StoreField {
                        dst: base.to_owned(),
                        field: field.to_owned(),
                        src: Some(tmp),
                    },
                    line,
                );
                Ok(next)
            }
            Expr::Call { .. } | Expr::FieldAccess(..) => {
                let tmp = self.fresh_tmp(&frame.prefix, "unknown");
                let mid = self.lower_assign(&tmp, false, value, frame, cur, line)?;
                let next = self.node(line);
                self.edge(
                    mid,
                    next,
                    CfgOp::StoreField {
                        dst: base.to_owned(),
                        field: field.to_owned(),
                        src: Some(tmp),
                    },
                    line,
                );
                Ok(next)
            }
            other => self.err(
                "E021",
                format!("unsupported field store of {other:?}"),
                line,
                Some(field.to_owned()),
            ),
        }
    }

    /// Lowers a condition at `cur`, returning the start nodes for the true
    /// and false branches respectively.
    fn lower_cond(
        &mut self,
        cond: &Cond,
        frame: &mut Frame,
        cur: usize,
        line: u32,
    ) -> Result<(usize, usize), CfgError> {
        let cond = match cond {
            Cond::CallBool {
                recv,
                method,
                args,
                negated,
            } => {
                // Evaluate the call (effects + checks), then branch
                // non-deterministically on the unknown return value.
                let mid = self.node(line);
                self.edge(
                    cur,
                    mid,
                    CfgOp::CallLib {
                        result: None,
                        recv: frame.lookup(recv),
                        method: method.clone(),
                        args: self.subst_args(args, frame),
                    },
                    line,
                );
                let t = self.node(line);
                let f = self.node(line);
                self.edge(
                    mid,
                    t,
                    CfgOp::Assume {
                        cond: Cond::Nondet,
                        polarity: true,
                    },
                    line,
                );
                self.edge(
                    mid,
                    f,
                    CfgOp::Assume {
                        cond: Cond::Nondet,
                        polarity: false,
                    },
                    line,
                );
                let _ = negated; // the return value is nondet either way
                return Ok((t, f));
            }
            Cond::Nondet => Cond::Nondet,
            Cond::RefEq { lhs, rhs, negated } => Cond::RefEq {
                lhs: frame.lookup(lhs),
                rhs: frame.lookup(rhs),
                negated: *negated,
            },
            Cond::NullCheck { var, negated } => Cond::NullCheck {
                var: frame.lookup(var),
                negated: *negated,
            },
            Cond::BoolVar { var, negated } => Cond::BoolVar {
                var: frame.lookup(var),
                negated: *negated,
            },
        };
        let t = self.node(line);
        let f = self.node(line);
        self.edge(
            cur,
            t,
            CfgOp::Assume {
                cond: cond.clone(),
                polarity: true,
            },
            line,
        );
        self.edge(
            cur,
            f,
            CfgOp::Assume {
                cond,
                polarity: false,
            },
            line,
        );
        Ok((t, f))
    }

    /// Splices a procedure body at a call site, recording it as a
    /// [`CallRegion`].
    ///
    /// Layout discipline (what makes regions reusable):
    ///
    /// * parameter binding runs *before* the region on caller-visible
    ///   names, so argument identities never leak into the interior;
    /// * the region interior references only `{method}::`-prefixed
    ///   variables (including the `$ret` slot and restarted `tmp$N`
    ///   temporaries), all carrying callee source lines;
    /// * the result is copied out of `{method}::$ret` *after* the region.
    fn splice_call(
        &mut self,
        method: &str,
        args: &[Arg],
        result: Option<String>,
        frame: &mut Frame,
        cur: usize,
        line: u32,
    ) -> Result<usize, CfgError> {
        let decl: &MethodDecl = self.program.method(method).ok_or_else(|| CfgError {
            code: "E015",
            message: format!("call to undefined procedure `{method}`"),
            line,
            snippet: Some(method.to_owned()),
        })?;
        if self.call_stack.iter().any(|m| m == method) {
            return self.err(
                "E016",
                format!(
                    "recursive call to `{method}` is not supported (procedure bodies are spliced \
                     per call site)"
                ),
                line,
                Some(method.to_owned()),
            );
        }
        if self.call_stack.len() >= MAX_CALL_DEPTH {
            return self.err(
                "E017",
                format!("call nesting depth limit ({MAX_CALL_DEPTH}) exceeded"),
                line,
                Some(method.to_owned()),
            );
        }
        if args.len() != decl.params.len() {
            return self.err(
                "E018",
                format!(
                    "`{method}` expects {} arguments, got {}",
                    decl.params.len(),
                    args.len()
                ),
                line,
                Some(method.to_owned()),
            );
        }
        let prefix = format!("{method}::");
        let mut callee = Frame {
            subst: HashMap::new(),
            prefix: prefix.clone(),
            return_node: usize::MAX, // patched below, before the body lowers
            result_var: None,
        };
        // Bind parameters (outside the region: argument names are the
        // caller's business).
        let mut pcur = cur;
        for ((pname, pty), arg) in decl.params.iter().zip(args) {
            let unique = callee.declare(pname);
            self.var_types.insert(unique.clone(), pty.clone());
            let op = match arg {
                Arg::Var(v) => {
                    let src = frame.lookup(v);
                    if pty == "boolean" {
                        CfgOp::AssignBool {
                            dst: unique,
                            value: BoolRhs::Var(src),
                        }
                    } else {
                        CfgOp::AssignVar { dst: unique, src }
                    }
                }
                Arg::Null => CfgOp::AssignNull { dst: unique },
                Arg::Str(_) => {
                    return self.err(
                        "E019",
                        "string arguments to procedures are not supported",
                        line,
                        Some(method.to_owned()),
                    )
                }
            };
            let next = self.node(line);
            self.edge(pcur, next, op, line);
            pcur = next;
        }
        // Open the region: a dedicated entry node, then a dedicated exit
        // node, so the interior ranges are contiguous.
        let entry = self.node(line);
        self.edge(pcur, entry, CfgOp::Nop, line);
        let exit = self.node(line);
        callee.return_node = exit;
        let ret_var = result.as_ref().map(|_| format!("{prefix}$ret"));
        callee.result_var = ret_var.clone();
        let mut bcur = entry;
        if let Some(rv) = &ret_var {
            let rty = decl.ret.clone().unwrap_or_else(|| "unknown".to_owned());
            self.var_types.insert(rv.clone(), rty);
            // Default-initialize the result slot in case the callee falls
            // off the end without returning (checked elsewhere; keeps the
            // CFG total). Carries the callee's line: part of the region.
            let next = self.node(decl.line);
            self.edge(bcur, next, CfgOp::AssignNull { dst: rv.clone() }, decl.line);
            bcur = next;
        }
        let saved_tmps = self.tmp_counters.insert(prefix.clone(), 0);
        self.call_stack.push(method.to_owned());
        let body_end = self.lower_block(&decl.body, &mut callee, bcur);
        self.call_stack.pop();
        match saved_tmps {
            Some(n) => {
                self.tmp_counters.insert(prefix.clone(), n);
            }
            None => {
                self.tmp_counters.remove(&prefix);
            }
        }
        if let Some(end) = body_end? {
            self.edge(end, exit, CfgOp::Nop, decl.line);
        }
        self.regions.push(CallRegion {
            entry: NodeId::from_index(entry),
            exit: NodeId::from_index(exit),
        });
        // Copy the result out (outside the region).
        if let (Some(res), Some(rv)) = (result, ret_var) {
            let next = self.node(line);
            self.edge(exit, next, CfgOp::AssignVar { dst: res, src: rv }, line);
            Ok(next)
        } else {
            Ok(exit)
        }
    }

    fn subst_args(&self, args: &[Arg], frame: &Frame) -> Vec<Arg> {
        args.iter()
            .map(|a| match a {
                Arg::Var(v) => Arg::Var(frame.lookup(v)),
                other => other.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn build(src: &str) -> Cfg {
        let p = parse_program(src).unwrap();
        Cfg::build(&p, "main").unwrap()
    }

    fn ops(cfg: &Cfg) -> Vec<&CfgOp> {
        cfg.edges().iter().map(|e| &e.op).collect()
    }

    #[test]
    fn straightline_lowering() {
        let cfg = build(
            r#"
program P uses IOStreams;
void main() {
    InputStream f = new InputStream();
    f.read();
    f.close();
}
"#,
        );
        let ops = ops(&cfg);
        assert!(matches!(ops[0], CfgOp::New { dst: Some(d), class, .. } if d == "f" && class == "InputStream"));
        assert!(matches!(&ops[1], CfgOp::CallLib { recv, method, .. } if recv == "f" && method == "read"));
        assert!(matches!(&ops[2], CfgOp::CallLib { method, .. } if method == "close"));
    }

    #[test]
    fn if_produces_two_assume_edges() {
        let cfg = build(
            r#"
program P uses IOStreams;
void main() {
    InputStream a = new InputStream();
    if (a == null) { } else { a.read(); }
}
"#,
        );
        let assumes: Vec<bool> = cfg
            .edges()
            .iter()
            .filter_map(|e| match &e.op {
                CfgOp::Assume { polarity, .. } => Some(*polarity),
                _ => None,
            })
            .collect();
        assert_eq!(assumes.len(), 2);
        assert!(assumes.contains(&true) && assumes.contains(&false));
    }

    #[test]
    fn while_loops_back() {
        let cfg = build(
            r#"
program P uses IOStreams;
void main() {
    while (?) {
        InputStream f = new InputStream();
        f.read();
        f.close();
    }
}
"#,
        );
        // There must be a cycle: some edge goes to an earlier node.
        assert!(cfg.edges().iter().any(|e| e.to <= e.from));
    }

    #[test]
    fn out_edges_match_edge_pool() {
        let cfg = build(
            r#"
program P uses IOStreams;
void main() {
    InputStream a = new InputStream();
    if (a == null) { } else { a.read(); }
    a.close();
}
"#,
        );
        // CSR adjacency agrees with the flat edge pool, edge by edge.
        let mut seen = 0usize;
        for node in 0..cfg.node_count() {
            for &ix in cfg.out_edges(node) {
                assert_eq!(cfg.edges()[ix].from, node);
                seen += 1;
            }
        }
        assert_eq!(seen, cfg.edges().len());
    }

    #[test]
    fn call_bool_condition_emits_call_then_nondet() {
        let cfg = build(
            r#"
program P uses JDBC;
void main() {
    Statement st = new Statement(st);
    ResultSet rs = st.executeQuery("q");
    if (rs.next()) { }
}
"#,
        );
        let ops = ops(&cfg);
        let call_pos = ops
            .iter()
            .position(|o| matches!(o, CfgOp::CallLib { method, .. } if method == "next"))
            .expect("next() call lowered");
        assert!(ops[call_pos + 1..]
            .iter()
            .any(|o| matches!(o, CfgOp::Assume { cond: Cond::Nondet, .. })));
    }

    #[test]
    fn procedures_are_spliced_with_renaming() {
        let cfg = build(
            r#"
program P uses IOStreams;
InputStream open() {
    InputStream s = new InputStream();
    return s;
}
void main() {
    InputStream a = open();
    a.read();
}
"#,
        );
        // The spliced `s` has a stable procedure-prefixed name and type
        // InputStream; the `$ret` slot carries the declared return type.
        let spliced: Vec<_> = cfg
            .variables()
            .into_iter()
            .filter(|(n, _)| n.starts_with("open::"))
            .collect();
        assert_eq!(spliced, vec![("open::$ret", "InputStream"), ("open::s", "InputStream")]);
        // The return became an assignment to `$ret`, copied out to `a`.
        assert!(cfg.edges().iter().any(
            |e| matches!(&e.op, CfgOp::AssignVar { dst, src } if dst == "open::$ret" && src == "open::s")
        ));
        assert!(cfg.edges().iter().any(
            |e| matches!(&e.op, CfgOp::AssignVar { dst, src } if dst == "a" && src == "open::$ret")
        ));
    }

    /// A region's interior: the edges reachable from its entry without
    /// leaving through its exit, in depth-first order.
    fn interior<'c>(cfg: &'c Cfg, r: &CallRegion) -> Vec<&'c CfgEdge> {
        let mut seen = vec![false; cfg.node_count()];
        let mut stack = vec![r.entry.index()];
        let mut edges = Vec::new();
        while let Some(n) = stack.pop() {
            if n == r.exit.index() || std::mem::replace(&mut seen[n], true) {
                continue;
            }
            for &e in cfg.out_edges(n) {
                edges.push(&cfg.edges()[e]);
                stack.push(cfg.edges()[e].to);
            }
        }
        edges
    }

    #[test]
    fn call_regions_are_recorded_with_identical_interiors() {
        let cfg = build(
            r#"
program P uses IOStreams;
void use(InputStream s) {
    s.read();
}
void main() {
    InputStream a = new InputStream();
    use(a);
    use(a);
    a.close();
}
"#,
        );
        let regions = cfg.regions();
        assert_eq!(regions.len(), 2);
        let (i1, i2) = (interior(&cfg, &regions[0]), interior(&cfg, &regions[1]));
        assert!(!i1.is_empty());
        assert!(i1.iter().any(|e| e.to == regions[0].exit.index()), "the exit is reached");
        // Single entry: nothing outside the region targets an interior node.
        for e in cfg.edges() {
            if i1.iter().any(|x| x.to == e.to) && !i1.iter().any(|x| std::ptr::eq(*x, e)) {
                assert!(e.to == regions[0].entry.index() || e.to == regions[0].exit.index());
            }
        }
        // The two regions' interiors are byte-identical.
        assert_eq!(i1.len(), i2.len());
        for (a, b) in i1.iter().zip(&i2) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.line, b.line);
        }
    }

    #[test]
    fn recursion_is_rejected() {
        let p = parse_program(
            r#"
program P uses IOStreams;
void loop() { loop(); }
void main() { loop(); }
"#,
        )
        .unwrap();
        let err = Cfg::build(&p, "main").unwrap_err();
        assert!(err.message.contains("recursive"), "{}", err.message);
        assert_eq!(err.code, "E016");
        let d = err.to_diagnostic();
        assert_eq!(d.code, "E016");
        assert_eq!(d.snippet.as_deref(), Some("loop"));
    }

    #[test]
    fn undefined_procedure_has_stable_code() {
        let p = parse_program(
            r#"
program P uses IOStreams;
void main() { missing(); }
"#,
        )
        .unwrap();
        let err = Cfg::build(&p, "main").unwrap_err();
        assert_eq!(err.code, "E015");
        assert_eq!(err.snippet.as_deref(), Some("missing"));
    }

    #[test]
    fn arity_mismatch_has_stable_code() {
        let p = parse_program(
            r#"
program P uses IOStreams;
void use(InputStream s) { s.read(); }
void main() { use(); }
"#,
        )
        .unwrap();
        let err = Cfg::build(&p, "main").unwrap_err();
        assert_eq!(err.code, "E018");
        assert!(err.message.contains("expects 1 arguments, got 0"), "{}", err.message);
    }

    #[test]
    fn field_store_of_new_is_desugared() {
        let cfg = build(
            r#"
program P uses IOStreams;
class Holder { InputStream s; }
void main() {
    Holder h = new Holder();
    h.s = new InputStream();
}
"#,
        );
        let ops = ops(&cfg);
        assert!(ops.iter().any(
            |o| matches!(o, CfgOp::New { dst: Some(d), .. } if d.starts_with("tmp$"))
        ));
        assert!(ops.iter().any(
            |o| matches!(o, CfgOp::StoreField { src: Some(s), .. } if s.starts_with("tmp$"))
        ));
    }

    #[test]
    fn spliced_temporaries_restart_per_call_site() {
        let cfg = build(
            r#"
program P uses IOStreams;
class Holder { InputStream s; }
void fill(Holder h) {
    h.s = new InputStream();
}
void main() {
    Holder h = new Holder();
    fill(h);
    fill(h);
}
"#,
        );
        // Both splices name the temporary identically, so the regions'
        // operations are identical (the whole point of stable naming).
        assert_eq!(cfg.var_type("fill::tmp$1"), Some("InputStream"));
        assert_eq!(cfg.var_type("fill::tmp$2"), None);
        let regions = cfg.regions();
        assert_eq!(regions.len(), 2);
        let ops = |r: &CallRegion| -> Vec<&CfgOp> {
            interior(&cfg, r).into_iter().map(|e| &e.op).collect()
        };
        assert_eq!(ops(&regions[0]), ops(&regions[1]));
    }

    #[test]
    fn bool_field_store_detected() {
        let cfg = build(
            r#"
program P uses IOStreams;
class Holder { boolean full; }
void main() {
    Holder h = new Holder();
    h.full = true;
}
"#,
        );
        assert!(ops(&cfg).iter().any(|o| matches!(
            o,
            CfgOp::StoreBoolField {
                value: BoolRhs::Const(true),
                ..
            }
        )));
    }

    #[test]
    fn var_types_recorded() {
        let cfg = build(
            r#"
program P uses IOStreams;
void main() {
    InputStream f = new InputStream();
    boolean b = true;
}
"#,
        );
        assert_eq!(cfg.var_type("f"), Some("InputStream"));
        assert_eq!(cfg.var_type("b"), Some("boolean"));
        assert_eq!(cfg.var_type("zzz"), None);
    }

    #[test]
    fn lines_preserved_on_edges() {
        let cfg = build(
            "program P uses X;\nvoid main() {\n    InputStream f = new InputStream();\n    f.read();\n}\n",
        );
        let read_edge = cfg
            .edges()
            .iter()
            .find(|e| matches!(&e.op, CfgOp::CallLib { method, .. } if method == "read"))
            .unwrap();
        assert_eq!(read_edge.line, 4);
    }

    #[test]
    fn return_makes_rest_unreachable() {
        let cfg = build(
            r#"
program P uses X;
void main() {
    InputStream f = new InputStream();
    return;
}
"#,
        );
        // No edge after the return-Nop should originate from a reachable
        // chain; just check the CFG builds and terminates at exit.
        assert!(cfg.node_count() >= 2);
    }
}
