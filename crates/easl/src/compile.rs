//! Symbolic compilation of Easl bodies into first-order update formulas.
//!
//! A constructor or method body is compiled *per call site*: the caller
//! supplies [`Denotation`]s for the receiver and the reference arguments
//! (normally the unary predicates of the client's program variables), and a
//! [`PredResolver`] mapping library fields to predicates. The compiler
//! symbolically executes the body, tracking for every object-valued
//! expression a *denotation* — a formula with one designated free variable
//! characterizing the denoted individual(s) — and accumulates:
//!
//! * `requires` conditions as closed formulas (checked on the pre-state),
//! * sequential field assignments, folded into one simultaneous update
//!   formula per predicate (later assignments win; reads always refer to the
//!   pre-state, and read-after-write within a body is rejected),
//! * at most one allocation, whose constructor is inlined with `this` bound
//!   to the built-in `isnew` predicate,
//! * the return value.
//!
//! `foreach (x in s.f)` binds `x` to the denotation
//! `λv. ∃u. d_s(u) ∧ f(u, v)`, so the body's effects apply to *all* elements
//! simultaneously — exactly the relational semantics the paper's Fig. 4
//! specification relies on. Conditions whose root is a `foreach` variable
//! refine that variable's denotation (preserving per-element correlation);
//! conditions rooted at unique variables (`this`, parameters, locals) become
//! closed path conditions.

use std::collections::{HashMap, HashSet};
use std::fmt;

use hetsep_tvl::formula::{Formula, Var};
use hetsep_tvl::kleene::Kleene;
use hetsep_tvl::pred::PredId;
use hetsep_tvl::action::PredUpdate;

use crate::ast::{
    BoolRhs, EaslCond, EaslMethod, EaslStmt, FieldKind, Path, RefRhs, RetKind, ReturnValue, Spec,
};

/// Formal parameter conventions for emitted update formulas: unary updates
/// use `Var(0)`; binary updates use `Var(0)` (source) and `Var(1)` (target).
pub const ARG0: Var = Var(0);
/// Second formal parameter of binary update formulas.
pub const ARG1: Var = Var(1);
/// First variable index used for internally generated quantifiers; all
/// quantifiers get distinct indices at or above this, so embedding
/// denotations never captures.
const FRESH_BASE: u16 = 100;

/// Maps library classes and fields to predicates of the analysis vocabulary.
pub trait PredResolver {
    /// The unary instance-of predicate of a class.
    fn type_pred(&self, class: &str) -> PredId;
    /// The unary predicate of a boolean field.
    fn bool_field(&self, class: &str, field: &str) -> PredId;
    /// The binary (functional) predicate of a reference field.
    fn ref_field(&self, class: &str, field: &str) -> PredId;
    /// The binary (non-functional) predicate of a set field.
    fn set_field(&self, class: &str, field: &str) -> PredId;
    /// The built-in allocation marker (`PredTable::isnew`).
    fn isnew_pred(&self) -> PredId;
}

/// How a call site denotes the receiver or an argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Denotation {
    /// The object pointed to by a program variable, i.e. the individuals on
    /// which this unary predicate holds.
    Var(PredId),
    /// `null` — denotes no individual.
    Null,
}

/// Which callable of a class is being compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callable<'a> {
    /// The constructor (a `new` expression in the client).
    Ctor,
    /// The named method.
    Method(&'a str),
}

/// The effect of a call on the client's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetEffect {
    /// `void` or an ignored result.
    None,
    /// A boolean result, non-deterministic from the client's point of view.
    Bool,
    /// A reference result: the formula (free variable [`ARG0`]) denotes the
    /// returned individual, evaluated over the update pre-state (which
    /// already contains the `isnew`-marked fresh node for allocating calls).
    Ref(Formula),
}

/// Information about the allocation a call performs.
///
/// Separation strategies watch *constructor entry* (paper §3): a choice
/// operation `choose … x : T(w1, …) / wi == zj` needs the denotations of the
/// constructor's arguments at the moment of allocation — which, for library
/// methods like `executeQuery`, are Easl-level expressions (e.g. `this`), not
/// client-level ones. [`AllocInfo::arg_denos`] exposes them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocInfo {
    /// The allocated class.
    pub class: String,
    /// Denotation of each constructor parameter (free variable [`ARG0`]), in
    /// declaration order. Inert `String` parameters denote nothing
    /// (`Formula::ff()`).
    pub arg_denos: Vec<Formula>,
}

/// Compiled semantics of one call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSemantics {
    /// `requires` conditions as closed formulas, with human-readable labels.
    pub requires: Vec<(Formula, String)>,
    /// Simultaneous predicate updates over the pre-state.
    pub updates: Vec<PredUpdate>,
    /// Allocation performed by this call, if any.
    pub allocates: Option<AllocInfo>,
    /// The call's result.
    pub ret: RetEffect,
}

/// An error produced during compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "easl compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

#[derive(Debug, Clone)]
struct Deno {
    /// Formula with free variable [`ARG0`] denoting the object(s).
    formula: Formula,
    /// Static class of the denoted object(s).
    class: String,
    /// Whether the denotation names at most one individual (true for `this`,
    /// parameters, and locals; false for `foreach` variables).
    unique: bool,
}

/// One sequential write to a predicate, later folded into an update formula.
#[derive(Debug, Clone)]
enum Write {
    /// Unary: when `target(v)` holds, the new value is `value` (closed).
    BoolSet { target: Formula, value: Formula },
    /// Binary strong update: when `src(v)` holds, the edge set becomes
    /// exactly `{w | dst(w)}` (empty when `dst` is `ff`).
    RefSet { src: Formula, dst: Formula },
    /// Binary weak addition: add edges from `src(v)` to `elem(w)`.
    SetInsert { src: Formula, elem: Formula },
}

struct Compiler<'a> {
    spec: &'a Spec,
    resolver: &'a dyn PredResolver,
    fresh: u16,
    env: HashMap<String, Deno>,
    /// Closed path conditions currently in scope (from `if` on unique roots).
    path_cond: Vec<Formula>,
    requires: Vec<(Formula, String)>,
    /// Per-predicate sequential writes, in program order.
    writes: Vec<(PredId, Write)>,
    written: HashSet<PredId>,
    allocates: Option<AllocInfo>,
    ret: RetEffect,
    label_prefix: String,
}

impl<'a> Compiler<'a> {
    fn fresh_var(&mut self) -> Var {
        let v = Var(self.fresh);
        self.fresh += 1;
        v
    }

    fn err<T>(&self, m: impl Into<String>) -> Result<T, CompileError> {
        Err(CompileError { message: m.into() })
    }

    fn field_kind(&self, class: &str, field: &str) -> Result<&FieldKind, CompileError> {
        self.spec
            .class(class)
            .and_then(|c| c.field(field))
            .ok_or_else(|| CompileError {
                message: format!("class `{class}` has no field `{field}`"),
            })
    }

    /// Guards against reading a predicate that an earlier statement of this
    /// body wrote (update formulas are evaluated simultaneously over the
    /// pre-state, so such a read would observe a stale value).
    fn check_reads(&self, f: &Formula) -> Result<(), CompileError> {
        for p in f.preds() {
            if self.written.contains(&p) {
                return self.err(
                    "method body reads a field after writing it; \
                     this sequential pattern is not expressible as a simultaneous update",
                );
            }
        }
        Ok(())
    }

    /// Denotation of the object reached by following `path.fields` from the
    /// environment entry of `path.root`. The result has free variable
    /// [`ARG0`].
    fn denote(&mut self, path: &Path) -> Result<Deno, CompileError> {
        let entry = self
            .env
            .get(&path.root)
            .cloned()
            .ok_or_else(|| CompileError {
                message: format!("unknown variable `{}`", path.root),
            })?;
        let mut formula = entry.formula;
        let mut class = entry.class;
        let unique = entry.unique;
        for field in &path.fields {
            let (pred, next_class) = match self.field_kind(&class, field)?.clone() {
                FieldKind::Ref(c) => (self.resolver.ref_field(&class, field), c),
                FieldKind::Bool => {
                    return self.err(format!("`{field}` is a boolean field, not a reference"))
                }
                FieldKind::Set(_) => {
                    return self.err(format!("set field `{field}` cannot be dereferenced"))
                }
            };
            let u = self.fresh_var();
            formula = Formula::exists(
                u,
                formula
                    .rename_free(ARG0, u)
                    .and(Formula::binary(pred, u, ARG0)),
            );
            class = next_class;
            // Following a (functional) field preserves at-most-one-ness, so
            // `unique` carries over unchanged.
        }
        self.check_reads(&formula)?;
        Ok(Deno {
            formula,
            class,
            unique,
        })
    }

    /// A closed formula stating that some individual satisfies `deno`.
    fn exists_closed(&mut self, deno: &Deno) -> Formula {
        let u = self.fresh_var();
        Formula::exists(u, deno.formula.rename_free(ARG0, u))
    }

    /// Compiles a boolean-field read `path.field` (owner path + field) into a
    /// closed formula: `∃u. d_owner(u) ∧ bf(u)`.
    fn bool_read_closed(&mut self, owner: &Path, field: &str) -> Result<Formula, CompileError> {
        let deno = self.denote(owner)?;
        let pred = self.resolver.bool_field(&deno.class, field);
        self.check_reads(&Formula::Unary(pred, ARG0))?;
        let u = self.fresh_var();
        Ok(Formula::exists(
            u,
            deno.formula.rename_free(ARG0, u).and(Formula::unary(pred, u)),
        ))
    }

    /// Splits a path known to end in a boolean field.
    fn split_bool(&self, path: &Path) -> Result<(Path, String), CompileError> {
        match path.fields.split_last() {
            Some((last, init)) => Ok((
                Path {
                    root: path.root.clone(),
                    fields: init.to_vec(),
                },
                last.clone(),
            )),
            None => self.err(format!("`{path}` does not name a boolean field")),
        }
    }

    /// Compiles a condition into a closed formula. Fails when the condition's
    /// root is a non-unique (`foreach`) variable — those are handled by
    /// [`Compiler::refine_env`] instead.
    fn cond_closed(&mut self, cond: &EaslCond) -> Result<Formula, CompileError> {
        match cond {
            EaslCond::Read(p) => {
                let (owner, field) = self.split_bool(p)?;
                self.require_unique_root(&owner)?;
                self.bool_read_closed(&owner, &field)
            }
            EaslCond::Not(c) => Ok(self.cond_closed(c)?.not()),
            EaslCond::And(a, b) => Ok(self.cond_closed(a)?.and(self.cond_closed(b)?)),
            EaslCond::IsNull(p) => {
                self.require_unique_root(p)?;
                let deno = self.denote(p)?;
                Ok(self.exists_closed(&deno).not())
            }
            EaslCond::NotNull(p) => {
                self.require_unique_root(p)?;
                let deno = self.denote(p)?;
                Ok(self.exists_closed(&deno))
            }
        }
    }

    fn require_unique_root(&self, p: &Path) -> Result<(), CompileError> {
        match self.env.get(&p.root) {
            Some(d) if d.unique => Ok(()),
            Some(_) => self.err(format!(
                "condition rooted at iterated variable `{}` must only test that variable's own \
                 fields via implicit refinement; use a unique root instead",
                p.root
            )),
            None => self.err(format!("unknown variable `{}`", p.root)),
        }
    }

    /// Whether the condition's leading root variable is a `foreach` variable.
    fn cond_root_nonunique(&self, cond: &EaslCond) -> Option<String> {
        let root = match cond {
            EaslCond::Read(p) | EaslCond::IsNull(p) | EaslCond::NotNull(p) => &p.root,
            EaslCond::Not(c) => return self.cond_root_nonunique(c),
            EaslCond::And(a, _) => return self.cond_root_nonunique(a),
        };
        match self.env.get(root) {
            Some(d) if !d.unique => Some(root.clone()),
            _ => None,
        }
    }

    /// Refines the denotation of a `foreach` variable with a per-element
    /// condition (preserving correlation between the condition and the
    /// effects applied to the element).
    fn refine_env(&mut self, cond: &EaslCond, polarity: bool) -> Result<(), CompileError> {
        match cond {
            EaslCond::Not(c) => self.refine_env(c, !polarity),
            EaslCond::And(a, b) if polarity => {
                self.refine_env(a, true)?;
                self.refine_env(b, true)
            }
            EaslCond::And(..) => {
                self.err("negated conjunction conditions on iterated variables are unsupported")
            }
            EaslCond::Read(p) => {
                let (owner, field) = self.split_bool(p)?;
                let unary = self.rel_unary(&owner, |this, compiler, class| {
                    let pred = compiler.resolver.bool_field(class, &field);
                    Formula::unary(pred, this)
                })?;
                self.conjoin_root(&p.root, if polarity { unary } else { unary.not() })
            }
            EaslCond::IsNull(p) | EaslCond::NotNull(p) => {
                let wants_some = matches!(cond, EaslCond::NotNull(_));
                let effective = wants_some == polarity;
                let unary = self.rel_unary(p, |this, _compiler, _class| {
                    // `this` here is the final object of the path; its mere
                    // existence is what the test asks about.
                    let _ = this;
                    Formula::tt()
                })?;
                // unary(v) = ∃chain from v — truth means the path is non-null.
                self.conjoin_root(&p.root, if effective { unary } else { unary.not() })
            }
        }
    }

    /// Builds a formula with free variable [`ARG0`] expressing a property of
    /// the object reached from an element `v` by following `path.fields`
    /// (where `path.root` is the foreach variable denoting `v`).
    fn rel_unary(
        &mut self,
        path: &Path,
        leaf: impl FnOnce(Var, &mut Compiler<'a>, &str) -> Formula,
    ) -> Result<Formula, CompileError> {
        let root_entry = self
            .env
            .get(&path.root)
            .cloned()
            .ok_or_else(|| CompileError {
                message: format!("unknown variable `{}`", path.root),
            })?;
        let mut class = root_entry.class.clone();
        // Walk the chain building ∃w1..wk. f1(v,w1) ∧ ... ∧ leaf(wk).
        let mut vars = vec![ARG0];
        let mut preds = Vec::new();
        for field in &path.fields {
            match self.field_kind(&class, field)?.clone() {
                FieldKind::Ref(c) => {
                    let pred = self.resolver.ref_field(&class, field);
                    self.check_reads(&Formula::Binary(pred, ARG0, ARG0))?;
                    preds.push(pred);
                    vars.push(self.fresh_var());
                    class = c;
                }
                _ => return self.err(format!("`{field}` is not a reference field")),
            }
        }
        let last = *vars.last().expect("vars nonempty");
        let mut body = leaf(last, self, &class);
        self.check_reads(&body)?;
        for i in (1..vars.len()).rev() {
            body = Formula::exists(
                vars[i],
                Formula::binary(preds[i - 1], vars[i - 1], vars[i]).and(body),
            );
        }
        Ok(body)
    }

    fn conjoin_root(&mut self, root: &str, refinement: Formula) -> Result<(), CompileError> {
        let entry = self.env.get_mut(root).ok_or_else(|| CompileError {
            message: format!("unknown variable `{root}`"),
        })?;
        entry.formula = entry.formula.clone().and(refinement);
        Ok(())
    }

    /// Conjoins the current closed path condition into a target formula.
    fn guard(&self, target: Formula) -> Formula {
        let mut out = target;
        for pc in &self.path_cond {
            out = out.and(pc.clone());
        }
        out
    }

    fn compile_stmts(&mut self, stmts: &[EaslStmt]) -> Result<(), CompileError> {
        for s in stmts {
            self.compile_stmt(s)?;
        }
        Ok(())
    }

    fn compile_stmt(&mut self, stmt: &EaslStmt) -> Result<(), CompileError> {
        match stmt {
            EaslStmt::Requires(cond) => {
                let c = self.cond_closed(cond)?;
                // Inside `if (P)`, the obligation is P → c.
                let mut formula = c;
                for pc in &self.path_cond {
                    formula = pc.clone().implies(formula);
                }
                let label = format!("{}: requires violated", self.label_prefix);
                self.requires.push((formula, label));
                Ok(())
            }
            EaslStmt::AssignBool { target, field, value } => {
                let deno = self.denote(target)?;
                let pred = self.resolver.bool_field(&deno.class, field);
                let value_formula = match value {
                    BoolRhs::Const(true) => Formula::tt(),
                    BoolRhs::Const(false) => Formula::ff(),
                    BoolRhs::Nondet => Formula::Const(Kleene::Unknown),
                    BoolRhs::Read(p) => {
                        let (owner, f) = self.split_bool(p)?;
                        self.require_unique_root(&owner)?;
                        self.bool_read_closed(&owner, &f)?
                    }
                };
                let target_formula = self.guard(deno.formula);
                self.writes.push((
                    pred,
                    Write::BoolSet {
                        target: target_formula,
                        value: value_formula,
                    },
                ));
                self.written.insert(pred);
                Ok(())
            }
            EaslStmt::AssignRef { target, field, value } => {
                let deno = self.denote(target)?;
                let pred = self.resolver.ref_field(&deno.class, field);
                let dst = match value {
                    RefRhs::Null => Formula::ff(),
                    RefRhs::Path(p) => {
                        let d = self.denote(p)?;
                        if !d.unique {
                            return self.err(
                                "assigning an iterated variable into a reference field is unsupported",
                            );
                        }
                        d.formula.rename_free(ARG0, ARG1)
                    }
                };
                let src = self.guard(deno.formula);
                self.writes.push((pred, Write::RefSet { src, dst }));
                self.written.insert(pred);
                Ok(())
            }
            EaslStmt::SetClear { target, field } => {
                let deno = self.denote(target)?;
                let pred = self.resolver.set_field(&deno.class, field);
                let src = self.guard(deno.formula);
                self.writes.push((
                    pred,
                    Write::RefSet {
                        src,
                        dst: Formula::ff(),
                    },
                ));
                self.written.insert(pred);
                Ok(())
            }
            EaslStmt::SetAdd { target, field, elem } => {
                let deno = self.denote(target)?;
                let pred = self.resolver.set_field(&deno.class, field);
                let elem_deno = self.denote(elem)?;
                let src = self.guard(deno.formula);
                self.writes.push((
                    pred,
                    Write::SetInsert {
                        src,
                        elem: elem_deno.formula.rename_free(ARG0, ARG1),
                    },
                ));
                self.written.insert(pred);
                Ok(())
            }
            EaslStmt::Alloc { var, class, args } => {
                if self.allocates.is_some() {
                    return self.err("at most one allocation per method body is supported");
                }
                if !self.path_cond.is_empty() {
                    return self.err("conditional allocation is not supported");
                }
                let isnew = self.resolver.isnew_pred();
                self.env.insert(
                    var.clone(),
                    Deno {
                        formula: Formula::unary(isnew, ARG0),
                        class: class.clone(),
                        unique: true,
                    },
                );
                // Set the type predicate of the fresh node.
                let type_pred = self.resolver.type_pred(class);
                self.writes.push((
                    type_pred,
                    Write::BoolSet {
                        target: Formula::unary(isnew, ARG0),
                        value: Formula::tt(),
                    },
                ));
                self.written.insert(type_pred);
                // Inline the constructor with `this` bound to the fresh node.
                let ctor_class = self.spec.class(class).ok_or_else(|| CompileError {
                    message: format!("unknown class `{class}`"),
                })?;
                let ctor = ctor_class.ctor.clone();
                let real_params: Vec<&(String, String)> =
                    ctor.params.iter().filter(|(_, t)| t != "String").collect();
                let real_args: Vec<&Path> = args.iter().collect();
                if real_params.len() != real_args.len() {
                    return self.err(format!(
                        "constructor `{class}` expects {} reference arguments, got {}",
                        real_params.len(),
                        real_args.len()
                    ));
                }
                let saved_env = self.env.clone();
                let mut ctor_env: HashMap<String, Deno> = HashMap::new();
                ctor_env.insert(
                    "this".into(),
                    Deno {
                        formula: Formula::unary(isnew, ARG0),
                        class: class.clone(),
                        unique: true,
                    },
                );
                let mut ctor_arg_denos: Vec<Formula> = Vec::new();
                {
                    let mut real_iter = real_params.iter().zip(real_args);
                    for (pname, pclass) in &ctor.params {
                        if pclass == "String" {
                            ctor_arg_denos.push(Formula::ff());
                            continue;
                        }
                        let (_, apath) = real_iter.next().expect("arity checked above");
                        let deno = self.denote(apath)?;
                        if &deno.class != pclass {
                            return self.err(format!(
                                "constructor `{class}` parameter `{pname}` expects `{pclass}`, got `{}`",
                                deno.class
                            ));
                        }
                        ctor_arg_denos.push(deno.formula.clone());
                        ctor_env.insert(pname.clone(), deno);
                    }
                }
                self.allocates = Some(AllocInfo {
                    class: class.clone(),
                    arg_denos: ctor_arg_denos,
                });
                self.env = ctor_env;
                self.compile_stmts(&ctor.body)?;
                self.env = saved_env;
                Ok(())
            }
            EaslStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if let Some(_root) = self.cond_root_nonunique(cond) {
                    // Per-element condition: refine the foreach variable's
                    // denotation in each branch.
                    let saved = self.env.clone();
                    self.refine_env(cond, true)?;
                    self.compile_stmts(then_branch)?;
                    self.env = saved.clone();
                    if !else_branch.is_empty() {
                        self.refine_env(cond, false)?;
                        self.compile_stmts(else_branch)?;
                    }
                    self.env = saved;
                    Ok(())
                } else {
                    let c = self.cond_closed(cond)?;
                    self.path_cond.push(c.clone());
                    self.compile_stmts(then_branch)?;
                    self.path_cond.pop();
                    if !else_branch.is_empty() {
                        self.path_cond.push(c.not());
                        self.compile_stmts(else_branch)?;
                        self.path_cond.pop();
                    }
                    Ok(())
                }
            }
            EaslStmt::Foreach {
                var,
                target,
                field,
                body,
            } => {
                let deno = self.denote(target)?;
                let pred = self.resolver.set_field(&deno.class, field);
                self.check_reads(&Formula::Binary(pred, ARG0, ARG0))?;
                let elem_class = match self.field_kind(&deno.class, field)? {
                    FieldKind::Set(c) => c.clone(),
                    _ => return self.err(format!("`{field}` is not a set field")),
                };
                let u = self.fresh_var();
                let elem_formula = Formula::exists(
                    u,
                    deno.formula
                        .rename_free(ARG0, u)
                        .and(Formula::binary(pred, u, ARG0)),
                );
                let saved = self.env.insert(
                    var.clone(),
                    Deno {
                        formula: elem_formula,
                        class: elem_class,
                        unique: false,
                    },
                );
                self.compile_stmts(body)?;
                match saved {
                    Some(d) => {
                        self.env.insert(var.clone(), d);
                    }
                    None => {
                        self.env.remove(var);
                    }
                }
                Ok(())
            }
            EaslStmt::Return(value) => {
                if !matches!(self.ret, RetEffect::None) {
                    return self.err("multiple return statements are not supported");
                }
                self.ret = match value {
                    None => RetEffect::None,
                    Some(ReturnValue::Bool) => RetEffect::Bool,
                    Some(ReturnValue::Path(p)) => {
                        let d = self.denote(p)?;
                        if !d.unique {
                            return self.err("returning an iterated variable is unsupported");
                        }
                        RetEffect::Ref(d.formula)
                    }
                };
                Ok(())
            }
        }
    }

    /// Folds the accumulated sequential writes into one simultaneous update
    /// formula per predicate.
    fn emit_updates(&self) -> Vec<PredUpdate> {
        // Group writes by predicate, preserving order.
        let mut order: Vec<PredId> = Vec::new();
        let mut grouped: HashMap<PredId, Vec<&Write>> = HashMap::new();
        for (pred, w) in &self.writes {
            if !grouped.contains_key(pred) {
                order.push(*pred);
            }
            grouped.entry(*pred).or_default().push(w);
        }
        let mut out = Vec::new();
        for pred in order {
            let writes = &grouped[&pred];
            let is_unary = matches!(writes[0], Write::BoolSet { .. });
            if is_unary {
                let mut cur = Formula::unary(pred, ARG0);
                for w in writes {
                    let Write::BoolSet { target, value } = w else {
                        unreachable!("mixed arities for one predicate");
                    };
                    cur = Formula::ite(target.clone(), value.clone(), cur);
                }
                out.push(PredUpdate::unary(pred, ARG0, cur));
            } else {
                let mut cur = Formula::binary(pred, ARG0, ARG1);
                for w in writes {
                    match w {
                        Write::RefSet { src, dst } => {
                            cur = Formula::ite(src.clone(), dst.clone(), cur);
                        }
                        Write::SetInsert { src, elem } => {
                            cur = cur.or(src.clone().and(elem.clone()));
                        }
                        Write::BoolSet { .. } => unreachable!("mixed arities for one predicate"),
                    }
                }
                out.push(PredUpdate::binary(pred, ARG0, ARG1, cur));
            }
        }
        out
    }
}

/// Compiles one call site.
///
/// For [`Callable::Ctor`], `recv` must be `None` (the new object is the
/// receiver); the result always allocates. For methods, `recv` must denote
/// the receiver variable.
///
/// # Errors
///
/// Fails when the body uses an unsupported sequential pattern
/// (read-after-write, conditional or multiple allocation, multiple returns),
/// when argument counts mismatch, or on unknown names.
pub fn compile_call(
    spec: &Spec,
    class: &str,
    callable: Callable<'_>,
    recv: Option<&Denotation>,
    args: &[Denotation],
    resolver: &dyn PredResolver,
) -> Result<CallSemantics, CompileError> {
    let cls = spec.class(class).ok_or_else(|| CompileError {
        message: format!("unknown library class `{class}`"),
    })?;
    let (method, is_ctor): (&EaslMethod, bool) = match callable {
        Callable::Ctor => (&cls.ctor, true),
        Callable::Method(name) => (
            cls.method(name).ok_or_else(|| CompileError {
                message: format!("class `{class}` has no method `{name}`"),
            })?,
            false,
        ),
    };
    let mut compiler = Compiler {
        spec,
        resolver,
        fresh: FRESH_BASE,
        env: HashMap::new(),
        path_cond: Vec::new(),
        requires: Vec::new(),
        writes: Vec::new(),
        written: HashSet::new(),
        allocates: None,
        ret: RetEffect::None,
        label_prefix: format!("{class}.{}", method.name),
    };
    let deno_formula = |d: &Denotation| match d {
        Denotation::Var(p) => Formula::unary(*p, ARG0),
        Denotation::Null => Formula::ff(),
    };
    if is_ctor {
        if recv.is_some() {
            return Err(CompileError {
                message: "constructors take no receiver".into(),
            });
        }
        compiler.allocates = Some(AllocInfo {
            class: class.to_owned(),
            arg_denos: method
                .params
                .iter()
                .zip(args)
                .map(|((_, pclass), arg)| {
                    if pclass == "String" {
                        Formula::ff()
                    } else {
                        deno_formula(arg)
                    }
                })
                .collect(),
        });
        let isnew = resolver.isnew_pred();
        compiler.env.insert(
            "this".into(),
            Deno {
                formula: Formula::unary(isnew, ARG0),
                class: class.to_owned(),
                unique: true,
            },
        );
        // Type predicate for the fresh node.
        let type_pred = resolver.type_pred(class);
        compiler.writes.push((
            type_pred,
            Write::BoolSet {
                target: Formula::unary(isnew, ARG0),
                value: Formula::tt(),
            },
        ));
        compiler.written.insert(type_pred);
        compiler.ret = RetEffect::Ref(Formula::unary(isnew, ARG0));
    } else {
        let recv = recv.ok_or_else(|| CompileError {
            message: format!("method `{class}.{}` needs a receiver", method.name),
        })?;
        compiler.env.insert(
            "this".into(),
            Deno {
                formula: deno_formula(recv),
                class: class.to_owned(),
                unique: true,
            },
        );
    }
    // Bind reference parameters (String parameters consume an argument slot
    // but bind nothing).
    let mut arg_iter = args.iter();
    for (pname, pclass) in &method.params {
        let Some(arg) = arg_iter.next() else {
            return Err(CompileError {
                message: format!(
                    "`{class}.{}` expects {} arguments, got {}",
                    method.name,
                    method.params.len(),
                    args.len()
                ),
            });
        };
        if pclass == "String" {
            continue;
        }
        compiler.env.insert(
            pname.clone(),
            Deno {
                formula: deno_formula(arg),
                class: pclass.clone(),
                unique: true,
            },
        );
    }
    if arg_iter.next().is_some() {
        return Err(CompileError {
            message: format!(
                "`{class}.{}` expects {} arguments, got {}",
                method.name,
                method.params.len(),
                args.len()
            ),
        });
    }
    compiler.compile_stmts(&method.body)?;
    // Methods that allocate and return the allocation keep their explicit
    // Return; constructors return the fresh node (set above) unless the body
    // overrode it (constructors cannot return values, so it cannot).
    let ret = if is_ctor {
        RetEffect::Ref(Formula::unary(resolver.isnew_pred(), ARG0))
    } else {
        match (&compiler.ret, &method.ret) {
            (RetEffect::None, RetKind::Bool) => RetEffect::Bool,
            (r, _) => r.clone(),
        }
    };
    Ok(CallSemantics {
        requires: compiler.requires.clone(),
        updates: compiler.emit_updates(),
        allocates: compiler.allocates.clone(),
        ret,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_spec;
    use hetsep_tvl::action::{apply, Action, NewNodeSpec};
    use hetsep_tvl::focus::DEFAULT_FOCUS_LIMIT;
    use hetsep_tvl::pred::{PredFlags, PredTable};
    use hetsep_tvl::structure::Structure;

    /// A straightforward resolver backed by a PredTable, registering
    /// predicates on demand through interior mutability in tests via
    /// pre-registration.
    struct MapResolver {
        map: HashMap<String, PredId>,
        isnew: PredId,
    }

    impl PredResolver for MapResolver {
        fn type_pred(&self, class: &str) -> PredId {
            self.map[&format!("type:{class}")]
        }
        fn bool_field(&self, class: &str, field: &str) -> PredId {
            self.map[&format!("bool:{class}.{field}")]
        }
        fn ref_field(&self, class: &str, field: &str) -> PredId {
            self.map[&format!("ref:{class}.{field}")]
        }
        fn set_field(&self, class: &str, field: &str) -> PredId {
            self.map[&format!("set:{class}.{field}")]
        }
        fn isnew_pred(&self) -> PredId {
            self.isnew
        }
    }

    /// Registers predicates for every class/field of the spec plus the
    /// given program variables, returning table + resolver + var preds.
    fn setup(spec: &Spec, vars: &[&str]) -> (PredTable, MapResolver, HashMap<String, PredId>) {
        let mut t = PredTable::new();
        let mut map = HashMap::new();
        for c in &spec.classes {
            map.insert(
                format!("type:{}", c.name),
                t.add_unary(&format!("type${}", c.name), PredFlags::site()),
            );
            for (f, k) in &c.fields {
                match k {
                    FieldKind::Bool => {
                        map.insert(
                            format!("bool:{}.{f}", c.name),
                            t.add_unary(&format!("{}${f}", c.name), PredFlags::boolean_field()),
                        );
                    }
                    FieldKind::Ref(_) => {
                        map.insert(
                            format!("ref:{}.{f}", c.name),
                            t.add_binary(&format!("{}${f}", c.name), PredFlags::reference_field()),
                        );
                    }
                    FieldKind::Set(_) => {
                        map.insert(
                            format!("set:{}.{f}", c.name),
                            t.add_binary(&format!("{}${f}", c.name), PredFlags::default()),
                        );
                    }
                }
            }
        }
        let mut var_preds = HashMap::new();
        for v in vars {
            var_preds.insert(
                v.to_string(),
                t.add_unary(v, PredFlags::reference_variable()),
            );
        }
        let isnew = t.isnew();
        (t, MapResolver { map, isnew }, var_preds)
    }

    fn to_action(sem: &CallSemantics, result_var: Option<PredId>) -> Action {
        let mut action = Action::named("call");
        action.new_node = sem.allocates.as_ref().map(|_| NewNodeSpec::default());
        let _ = &sem.allocates;
        action.updates = sem.updates.clone();
        if let (Some(rv), RetEffect::Ref(d)) = (result_var, &sem.ret) {
            action.updates.push(PredUpdate::unary(rv, ARG0, d.clone()));
        }
        action
    }

    const SPEC: &str = r#"
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
}
"#;

    #[test]
    fn ctor_allocates_and_sets_type() {
        let spec = parse_spec(SPEC).unwrap();
        let (t, r, vars) = setup(&spec, &["con"]);
        let sem = compile_call(&spec, "Connection", Callable::Ctor, None, &[], &r).unwrap();
        assert_eq!(
            sem.allocates.as_ref().map(|a| a.class.as_str()),
            Some("Connection")
        );
        assert!(matches!(sem.ret, RetEffect::Ref(_)));
        // Apply as an action: one node appears, typed Connection, open.
        let action = to_action(&sem, Some(vars["con"]));
        let s = Structure::new(&t);
        let out = apply(&action, &s, &t, DEFAULT_FOCUS_LIMIT);
        assert_eq!(out.results.len(), 1);
        let post = &out.results[0];
        assert_eq!(post.node_count(), 1);
        let u = hetsep_tvl::structure::NodeId::from_index(0);
        assert_eq!(post.unary(&t, r.type_pred("Connection"), u), Kleene::True);
        assert_eq!(post.unary(&t, vars["con"], u), Kleene::True);
        assert_eq!(
            post.unary(&t, r.bool_field("Connection", "closed"), u),
            Kleene::False
        );
    }

    /// Builds the three-object JDBC chain: con → stmt → rs.
    fn jdbc_chain() -> (
        PredTable,
        MapResolver,
        HashMap<String, PredId>,
        Spec,
        Structure,
    ) {
        let spec = parse_spec(SPEC).unwrap();
        let (t, r, vars) = setup(&spec, &["con", "stmt", "rs"]);
        let mut s = Structure::new(&t);
        let sem = compile_call(&spec, "Connection", Callable::Ctor, None, &[], &r).unwrap();
        let a = to_action(&sem, Some(vars["con"]));
        let s1 = apply(&a, &s, &t, DEFAULT_FOCUS_LIMIT).results.remove(0);
        let sem = compile_call(
            &spec,
            "Connection",
            Callable::Method("createStatement"),
            Some(&Denotation::Var(vars["con"])),
            &[],
            &r,
        )
        .unwrap();
        assert_eq!(sem.requires.len(), 1);
        let a = to_action(&sem, Some(vars["stmt"]));
        let s2 = apply(&a, &s1, &t, DEFAULT_FOCUS_LIMIT).results.remove(0);
        let sem = compile_call(
            &spec,
            "Statement",
            Callable::Method("executeQuery"),
            Some(&Denotation::Var(vars["stmt"])),
            &[Denotation::Null], // the String argument slot
            &r,
        )
        .unwrap();
        let a = to_action(&sem, Some(vars["rs"]));
        let s3 = apply(&a, &s2, &t, DEFAULT_FOCUS_LIMIT).results.remove(0);
        s = s3;
        (t, r, vars, spec, s)
    }

    #[test]
    fn create_statement_links_connection() {
        let (t, r, vars, _spec, s) = jdbc_chain();
        assert_eq!(s.node_count(), 3);
        let con = s.definite_node(&t, vars["con"]).unwrap();
        let st = s.definite_node(&t, vars["stmt"]).unwrap();
        let rs = s.definite_node(&t, vars["rs"]).unwrap();
        assert_eq!(
            s.binary(&t, r.set_field("Connection", "statements"), con, st),
            Kleene::True
        );
        assert_eq!(
            s.binary(&t, r.ref_field("Statement", "myConnection"), st, con),
            Kleene::True
        );
        assert_eq!(
            s.binary(&t, r.ref_field("Statement", "myResultSet"), st, rs),
            Kleene::True
        );
        assert_eq!(
            s.binary(&t, r.ref_field("ResultSet", "ownerStmt"), rs, st),
            Kleene::True
        );
        assert_eq!(
            s.unary(&t, r.bool_field("ResultSet", "closed"), rs),
            Kleene::False
        );
    }

    #[test]
    fn execute_query_closes_previous_result_set() {
        let (t, r, vars, spec, s) = jdbc_chain();
        let rs_old = s.definite_node(&t, vars["rs"]).unwrap();
        // Run a second executeQuery on the same statement.
        let sem = compile_call(
            &spec,
            "Statement",
            Callable::Method("executeQuery"),
            Some(&Denotation::Var(vars["stmt"])),
            &[Denotation::Null],
            &r,
        )
        .unwrap();
        let a = to_action(&sem, None);
        let post = apply(&a, &s, &t, DEFAULT_FOCUS_LIMIT).results.remove(0);
        // The old ResultSet is now closed (implicit close — the paper's bug).
        assert_eq!(
            post.unary(&t, r.bool_field("ResultSet", "closed"), rs_old),
            Kleene::True,
            "executeQuery must implicitly close the previous ResultSet"
        );
        // And the statement's myResultSet points to the new node only.
        let st = post.definite_node(&t, vars["stmt"]).unwrap();
        let mrs = r.ref_field("Statement", "myResultSet");
        assert_eq!(post.binary(&t, mrs, st, rs_old), Kleene::False);
        let new_rs = post
            .nodes()
            .find(|&v| post.binary(&t, mrs, st, v) == Kleene::True)
            .expect("new ResultSet linked");
        assert_ne!(new_rs, rs_old);
    }

    #[test]
    fn connection_close_cascades_via_foreach() {
        let (t, r, vars, spec, s) = jdbc_chain();
        let sem = compile_call(
            &spec,
            "Connection",
            Callable::Method("close"),
            Some(&Denotation::Var(vars["con"])),
            &[],
            &r,
        )
        .unwrap();
        let a = to_action(&sem, None);
        let post = apply(&a, &s, &t, DEFAULT_FOCUS_LIMIT).results.remove(0);
        let con = post.definite_node(&t, vars["con"]).unwrap();
        let st = post.definite_node(&t, vars["stmt"]).unwrap();
        let rs = post.definite_node(&t, vars["rs"]).unwrap();
        assert_eq!(
            post.unary(&t, r.bool_field("Connection", "closed"), con),
            Kleene::True
        );
        assert_eq!(
            post.unary(&t, r.bool_field("Statement", "closed"), st),
            Kleene::True,
            "foreach must close every statement of the connection"
        );
        assert_eq!(
            post.unary(&t, r.bool_field("ResultSet", "closed"), rs),
            Kleene::True,
            "nested if in foreach must close the statement's result set"
        );
    }

    #[test]
    fn requires_violation_detected_after_close() {
        let (t, r, vars, spec, s) = jdbc_chain();
        // Close the connection, then call next() on the (now closed) rs.
        let close = compile_call(
            &spec,
            "Connection",
            Callable::Method("close"),
            Some(&Denotation::Var(vars["con"])),
            &[],
            &r,
        )
        .unwrap();
        let post = apply(&to_action(&close, None), &s, &t, DEFAULT_FOCUS_LIMIT)
            .results
            .remove(0);
        let next = compile_call(
            &spec,
            "ResultSet",
            Callable::Method("next"),
            Some(&Denotation::Var(vars["rs"])),
            &[],
            &r,
        )
        .unwrap();
        assert_eq!(next.ret, RetEffect::Bool);
        let mut a = to_action(&next, None);
        a.checks = next
            .requires
            .iter()
            .map(|(f, label)| hetsep_tvl::action::Check {
                cond: f.clone(),
                guard: None,
                label: label.clone(),
            })
            .collect();
        let out = apply(&a, &post, &t, DEFAULT_FOCUS_LIMIT);
        assert_eq!(out.violations.len(), 1, "next() on closed rs must violate");
        assert_eq!(out.violations[0].value, Kleene::False);
    }

    #[test]
    fn requires_passes_on_open_object() {
        let (t, r, vars, spec, s) = jdbc_chain();
        let next = compile_call(
            &spec,
            "ResultSet",
            Callable::Method("next"),
            Some(&Denotation::Var(vars["rs"])),
            &[],
            &r,
        )
        .unwrap();
        let mut a = to_action(&next, None);
        a.checks = next
            .requires
            .iter()
            .map(|(f, label)| hetsep_tvl::action::Check {
                cond: f.clone(),
                guard: None,
                label: label.clone(),
            })
            .collect();
        let out = apply(&a, &s, &t, DEFAULT_FOCUS_LIMIT);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn read_after_write_rejected() {
        let spec = parse_spec(
            r#"
spec S;
class A {
    boolean x;
    boolean y;
    A() { }
    void bad() {
        this.x = true;
        this.y = this.x;
    }
}
"#,
        )
        .unwrap();
        let (_t, r, vars) = setup(&spec, &["a"]);
        let err = compile_call(
            &spec,
            "A",
            Callable::Method("bad"),
            Some(&Denotation::Var(vars["a"])),
            &[],
            &r,
        )
        .unwrap_err();
        assert!(err.message.contains("reads a field after writing"), "{}", err.message);
    }

    #[test]
    fn argument_count_mismatch_rejected() {
        let spec = parse_spec(SPEC).unwrap();
        let (_t, r, vars) = setup(&spec, &["stmt"]);
        let err = compile_call(
            &spec,
            "Statement",
            Callable::Method("executeQuery"),
            Some(&Denotation::Var(vars["stmt"])),
            &[],
            &r,
        )
        .unwrap_err();
        assert!(err.message.contains("expects 1 arguments"), "{}", err.message);
    }

    #[test]
    fn null_argument_makes_field_empty() {
        let spec = parse_spec(SPEC).unwrap();
        let (t, r, vars) = setup(&spec, &["st"]);
        // new Statement(null): myConnection stays empty.
        let sem = compile_call(
            &spec,
            "Statement",
            Callable::Ctor,
            None,
            &[Denotation::Null],
            &r,
        )
        .unwrap();
        let a = to_action(&sem, Some(vars["st"]));
        let s = Structure::new(&t);
        let post = apply(&a, &s, &t, DEFAULT_FOCUS_LIMIT).results.remove(0);
        let st = post.definite_node(&t, vars["st"]).unwrap();
        assert_eq!(
            post.binary(&t, r.ref_field("Statement", "myConnection"), st, st),
            Kleene::False
        );
    }
}
