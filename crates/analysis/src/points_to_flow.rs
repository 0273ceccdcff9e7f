//! Flow- and field-sensitive points-to × typestate product analysis.
//!
//! This is preanalysis **v2**: where the `hetsep-baseline` comparator couples a
//! *flow-insensitive* Andersen-style points-to closure with a flow-sensitive
//! typestate pass (the ESP configuration the paper compares against), this
//! module runs one product analysis on the [`crate::dataflow`] framework
//! whose facts carry, per CFG node,
//!
//! * a points-to map from CFG variables to allocation sites,
//! * a may-points-to heap graph `(site, field) → sites`, and
//! * a typestate map `(site, boolean field) → [`FieldVal`]`.
//!
//! Because the variable and heap components are flow-sensitive, the analysis
//! can perform **strong updates**: an assignment through a variable that
//! points to exactly one *singleton* allocation site (a site not on a CFG
//! cycle, hence representing at most one concrete object) replaces the old
//! field value instead of joining with it. This is precisely the precision
//! the baseline loses by merging all flows per variable — e.g. a handle that
//! is re-`new`ed mid-procedure keeps its two lifetimes separate here, while
//! the baseline conflates them and flags both sites suspect.
//!
//! Findings (possibly-failing `requires` checks, their suspect allocation
//! sites, and *definitely*-failing checks for lint `W105`) are collected in a
//! second pass over all edges after the fixpoint converges: the converged
//! fact at an edge's source over-approximates every concrete state reaching
//! that edge, so evaluating each check once against it covers every concrete
//! execution — and avoids reporting from the transient facts of early
//! fixpoint iterations.
//!
//! Soundness of the suspect set follows the same argument as the baseline
//! pre-pass (DESIGN.md §10, §15): every concrete execution state at an edge
//! is abstracted by the converged fact, a concrete check failure therefore
//! makes the abstract check evaluation "may fail", and the failing
//! environment's sites (closed over may-share heap components by the
//! caller, see [`crate::heap_components`]) are marked suspect. A site
//! outside that closure can never be blamed for a reported error.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use hetsep_easl::ast::{
    BoolRhs as EaslBoolRhs, EaslCond, EaslMethod, EaslStmt, FieldKind, Path, RefRhs, ReturnValue,
    Spec,
};
use hetsep_ir::ast::Cond;
use hetsep_ir::cfg::{BoolRhs, Cfg, CfgEdge, CfgOp};
use hetsep_ir::Arg;

use crate::dataflow::{solve, DataflowProblem, Direction};

/// An allocation site: the index of the CFG edge that allocates (a `new` in
/// the program, or a library call whose Easl body allocates). Identical to
/// the baseline's and the engine's site numbering, since all three build the
/// same `Cfg::build(program, "main")` graph.
pub type Site = usize;

/// Four-valued abstraction of a boolean field: the standard flat lattice
/// `Bot ⊑ {False, True} ⊑ Top`, ordered by information loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum FieldVal {
    /// No value observed yet (unreached / object not allocated here).
    #[default]
    Bot,
    /// Definitely `false` on every path.
    False,
    /// Definitely `true` on every path.
    True,
    /// May be either.
    Top,
}

impl FieldVal {
    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: FieldVal) -> FieldVal {
        use FieldVal::{Bot, Top};
        match (self, other) {
            (Bot, v) | (v, Bot) => v,
            (a, b) if a == b => a,
            _ => Top,
        }
    }

    /// Whether the concrete value may be `true`.
    #[must_use]
    pub fn maybe_true(self) -> bool {
        matches!(self, FieldVal::True | FieldVal::Top)
    }
}

/// The product fact at a CFG node. Ordered maps keep joins, iteration, and
/// therefore the whole analysis deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowFact {
    /// May-points-to sets of reference variables. An absent entry and an
    /// empty set both mean "points to no site" (definitely null or unset).
    vars: BTreeMap<String, BTreeSet<Site>>,
    /// May-points-to heap graph over reference/set fields.
    heap: BTreeMap<(Site, String), BTreeSet<Site>>,
    /// Typestate of boolean fields per site.
    state: BTreeMap<(Site, String), FieldVal>,
    /// Values of program-level boolean variables (refined at branches).
    bools: BTreeMap<String, FieldVal>,
}

impl FlowFact {
    fn of_var(&self, var: &str) -> BTreeSet<Site> {
        self.vars.get(var).cloned().unwrap_or_default()
    }

    fn of_field(&self, owners: &BTreeSet<Site>, field: &str) -> BTreeSet<Site> {
        let mut out = BTreeSet::new();
        for &o in owners {
            if let Some(ts) = self.heap.get(&(o, field.to_owned())) {
                out.extend(ts.iter().copied());
            }
        }
        out
    }

    /// Resolves an Easl path against an environment of root bindings.
    fn resolve_path(&self, env: &BTreeMap<String, BTreeSet<Site>>, path: &Path) -> BTreeSet<Site> {
        let mut acc = env.get(&path.root).cloned().unwrap_or_default();
        for field in &path.fields {
            acc = self.of_field(&acc, field);
        }
        acc
    }

    /// Reads a boolean field through a path: the join over all sites the
    /// owner prefix may denote. An allocated-but-never-written field reads
    /// `False` (allocation initializes every boolean field to `False`); an
    /// empty owner set reads `Bot`.
    fn read_bool(&self, env: &BTreeMap<String, BTreeSet<Site>>, path: &Path) -> FieldVal {
        let Some((field, init)) = path.fields.split_last() else {
            return FieldVal::Top;
        };
        let owner = Path {
            root: path.root.clone(),
            fields: init.to_vec(),
        };
        let mut acc = FieldVal::Bot;
        for s in self.resolve_path(env, &owner) {
            let v = self
                .state
                .get(&(s, field.clone()))
                .copied()
                .unwrap_or(FieldVal::False);
            acc = acc.join(v);
        }
        acc
    }
}

/// A `requires` clause that fails on *every* concrete execution reaching its
/// call, per the converged facts — the substrate of lint `W105`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DefiniteFailure {
    /// Source line of the call.
    pub line: u32,
    /// CFG name of the receiver variable (`new`-bound variable for
    /// constructor checks).
    pub recv: String,
    /// Library class owning the method.
    pub class: String,
    /// Method (or constructor) whose `requires` fails.
    pub method: String,
}

/// Result of [`analyze_flow`]: per-site verdicts plus the raw material the
/// heap-component analysis and the v2 lints consume.
#[derive(Debug, Clone, Default)]
pub struct FlowVerdicts {
    /// Class of every allocation site.
    pub site_class: BTreeMap<Site, String>,
    /// Sites not on any CFG cycle: at most one concrete object each.
    pub singleton: BTreeSet<Site>,
    /// Sites implicated in a possibly-failing or undecidable check — the
    /// raw seeds, *before* closure over may-share heap components.
    pub suspects: BTreeSet<Site>,
    /// Undirected may-point edges of the heap graph, unioned over all
    /// reachable nodes' converged facts.
    pub heap_edges: BTreeSet<(Site, Site)>,
    /// Possibly-failing checks `(line, message)` (diagnostic aid only; the
    /// engine remains the authority on reported errors).
    pub may_errors: BTreeSet<(u32, String)>,
    /// Checks that fail on every execution (lint `W105`).
    pub definite_failures: BTreeSet<DefiniteFailure>,
}

impl FlowVerdicts {
    /// Whether the analysis proved every check involving `site` safe,
    /// before heap-component closure.
    #[must_use]
    pub fn proved_safe(&self, site: Site) -> bool {
        !self.suspects.contains(&site)
    }
}

/// The flow analysis could not interpret the program (e.g. a call to a
/// method the spec does not declare). Callers fall back to not pruning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow preanalysis: {}", self.message)
    }
}

impl std::error::Error for FlowError {}

/// Runs the product analysis to its fixpoint and evaluates every check
/// against the converged facts.
///
/// # Errors
///
/// Fails when a library call cannot be resolved against the spec (unknown
/// receiver type or missing method) — mirroring the baseline, so the caller
/// treats the program as unprunable rather than silently skipping effects.
pub fn analyze_flow(cfg: &Cfg, spec: &Spec) -> Result<FlowVerdicts, FlowError> {
    let sites = discover_sites(cfg, spec)?;
    let analysis = FlowAnalysis { cfg, spec, sites };
    let solution = solve(cfg, &analysis);

    // Post-fixpoint findings pass: re-apply every edge's interpretation on
    // the converged fact at its source, collecting checks this time.
    let mut findings = Findings::default();
    for (ix, edge) in cfg.edges().iter().enumerate() {
        if let Some(fact) = solution.at(edge.from) {
            let mut scratch = fact.clone();
            analysis.apply_edge(ix, edge, &mut scratch, Some(&mut findings));
        }
    }

    let mut heap_edges = BTreeSet::new();
    for node in 0..cfg.node_count() {
        if let Some(fact) = solution.at(node) {
            for ((owner, _), targets) in &fact.heap {
                for &t in targets {
                    heap_edges.insert((*owner, t));
                }
            }
        }
    }

    Ok(FlowVerdicts {
        site_class: analysis
            .sites
            .iter()
            .map(|(&s, d)| (s, d.class.clone()))
            .collect(),
        singleton: analysis
            .sites
            .iter()
            .filter(|(_, d)| d.singleton)
            .map(|(&s, _)| s)
            .collect(),
        suspects: findings.suspects,
        heap_edges,
        may_errors: findings.may_errors,
        definite_failures: findings.definite_failures,
    })
}

/// Static description of one allocation site.
struct SiteDesc {
    class: String,
    singleton: bool,
}

/// Checks collected by the post-fixpoint pass.
#[derive(Default)]
struct Findings {
    suspects: BTreeSet<Site>,
    may_errors: BTreeSet<(u32, String)>,
    definite_failures: BTreeSet<DefiniteFailure>,
}

impl Findings {
    /// Marks every site bound anywhere in `env` suspect.
    fn suspect_env(&mut self, env: &BTreeMap<String, BTreeSet<Site>>) {
        for sites in env.values() {
            self.suspects.extend(sites.iter().copied());
        }
    }
}

/// Context of the library call being interpreted (for findings).
struct CallCtx {
    line: u32,
    recv: String,
    class: String,
    method: String,
    /// Site allocated by this call's body, if any.
    alloc_site: Option<Site>,
}

struct FlowAnalysis<'a> {
    cfg: &'a Cfg,
    spec: &'a Spec,
    sites: BTreeMap<Site, SiteDesc>,
}

impl DataflowProblem for FlowAnalysis<'_> {
    type Fact = FlowFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> FlowFact {
        FlowFact::default()
    }

    fn transfer(&self, edge: &CfgEdge, fact: &FlowFact) -> FlowFact {
        let mut out = fact.clone();
        self.apply_edge(self.edge_index(edge), edge, &mut out, None);
        out
    }

    fn join(&self, into: &mut FlowFact, from: &FlowFact) -> bool {
        let mut changed = false;
        for (k, v) in &from.vars {
            if v.is_empty() && !into.vars.contains_key(k) {
                continue; // empty set ≡ absent: skip the no-op insert
            }
            let slot = into.vars.entry(k.clone()).or_default();
            let before = slot.len();
            slot.extend(v.iter().copied());
            changed |= slot.len() != before;
        }
        for (k, v) in &from.heap {
            if v.is_empty() && !into.heap.contains_key(k) {
                continue;
            }
            let slot = into.heap.entry(k.clone()).or_default();
            let before = slot.len();
            slot.extend(v.iter().copied());
            changed |= slot.len() != before;
        }
        for (k, &v) in &from.state {
            if v == FieldVal::Bot && !into.state.contains_key(k) {
                continue;
            }
            let slot = into.state.entry(k.clone()).or_default();
            let joined = slot.join(v);
            changed |= joined != *slot;
            *slot = joined;
        }
        for (k, &v) in &from.bools {
            if v == FieldVal::Bot && !into.bools.contains_key(k) {
                continue;
            }
            let slot = into.bools.entry(k.clone()).or_default();
            let joined = slot.join(v);
            changed |= joined != *slot;
            *slot = joined;
        }
        changed
    }
}

impl FlowAnalysis<'_> {
    /// Index of `edge` within the CFG's edge array. The solver and the
    /// findings pass both hand out references into that array, so the index
    /// is recovered from the reference's offset.
    fn edge_index(&self, edge: &CfgEdge) -> Site {
        let base = self.cfg.edges().as_ptr() as usize;
        let addr = std::ptr::from_ref(edge) as usize;
        let ix = (addr - base) / std::mem::size_of::<CfgEdge>();
        debug_assert!(ix < self.cfg.edges().len());
        ix
    }

    fn is_singleton(&self, site: Site) -> bool {
        self.sites.get(&site).is_some_and(|d| d.singleton)
    }

    /// Applies one CFG edge to `fact` in place. With `findings`, checks are
    /// evaluated and recorded (the post-fixpoint pass); without, only the
    /// lattice effects run (the transfer function).
    fn apply_edge(
        &self,
        ix: Site,
        edge: &CfgEdge,
        fact: &mut FlowFact,
        mut findings: Option<&mut Findings>,
    ) {
        match &edge.op {
            CfgOp::Nop => {}
            CfgOp::AssignNull { dst } => {
                fact.vars.insert(dst.clone(), BTreeSet::new());
            }
            CfgOp::AssignVar { dst, src } => {
                let v = fact.of_var(src);
                fact.vars.insert(dst.clone(), v);
            }
            CfgOp::LoadField { dst, src, field } => {
                let owners = fact.of_var(src);
                let v = fact.of_field(&owners, field);
                fact.vars.insert(dst.clone(), v);
            }
            CfgOp::StoreField { dst, field, src } => {
                let owners = fact.of_var(dst);
                let values = src.as_ref().map(|s| fact.of_var(s)).unwrap_or_default();
                self.store_heap(fact, &owners, field, values);
            }
            CfgOp::LoadBoolField { dst, src, field } => {
                let owners = fact.of_var(src);
                let mut acc = FieldVal::Bot;
                for &s in &owners {
                    let v = fact
                        .state
                        .get(&(s, field.clone()))
                        .copied()
                        .unwrap_or(FieldVal::False);
                    acc = acc.join(v);
                }
                fact.bools.insert(dst.clone(), acc);
            }
            CfgOp::StoreBoolField { dst, field, value } => {
                let owners = fact.of_var(dst);
                let val = self.eval_bool_rhs(fact, value);
                self.store_state(fact, &owners, field, val);
            }
            CfgOp::New { dst, class, args } => {
                if let Some(cls) = self.spec.class(class) {
                    let mut env = BTreeMap::new();
                    env.insert("this".to_owned(), BTreeSet::from([ix]));
                    bind_params(&mut env, &cls.ctor, args, fact);
                    self.apply_allocation(fact, ix);
                    let ctx = CallCtx {
                        line: edge.line,
                        recv: dst.clone().unwrap_or_else(|| class.clone()),
                        class: class.clone(),
                        method: class.clone(),
                        alloc_site: None,
                    };
                    let mut returned = BTreeSet::new();
                    self.interpret(
                        &cls.ctor.body,
                        &mut env,
                        &ctx,
                        fact,
                        &mut returned,
                        findings.as_deref_mut(),
                    );
                }
                if let Some(dst) = dst {
                    fact.vars.insert(dst.clone(), BTreeSet::from([ix]));
                }
            }
            CfgOp::CallLib {
                result,
                recv,
                method,
                args,
            } => {
                let receivers = fact.of_var(recv);
                let mut returned = BTreeSet::new();
                let mut any_body = false;
                for &site in &receivers {
                    let Some(desc) = self.sites.get(&site) else {
                        continue;
                    };
                    let Some(cls) = self.spec.class(&desc.class) else {
                        continue;
                    };
                    let Some(m) = cls.method(method) else {
                        continue; // validated against the static type already
                    };
                    any_body = true;
                    let mut env = BTreeMap::new();
                    env.insert("this".to_owned(), BTreeSet::from([site]));
                    bind_params(&mut env, m, args, fact);
                    let alloc_site = m
                        .body
                        .iter()
                        .any(|s| matches!(s, EaslStmt::Alloc { .. }))
                        .then_some(ix);
                    if alloc_site.is_some() {
                        self.apply_allocation(fact, ix);
                    }
                    let ctx = CallCtx {
                        line: edge.line,
                        recv: recv.clone(),
                        class: desc.class.clone(),
                        method: method.clone(),
                        alloc_site,
                    };
                    self.interpret(
                        &m.body,
                        &mut env,
                        &ctx,
                        fact,
                        &mut returned,
                        findings.as_deref_mut(),
                    );
                }
                if let Some(result) = result {
                    if any_body {
                        fact.vars.insert(result.clone(), returned);
                    }
                }
            }
            CfgOp::AssignBool { dst, value } => {
                let v = self.eval_bool_rhs(fact, value);
                fact.bools.insert(dst.clone(), v);
            }
            CfgOp::Assume { cond, polarity } => match cond {
                Cond::NullCheck { var, negated } => {
                    // The branch where `var == null` holds: it aliases no
                    // site, so its points-to set is empty there.
                    if *polarity != *negated {
                        fact.vars.insert(var.clone(), BTreeSet::new());
                    }
                }
                Cond::BoolVar { var, negated } => {
                    let value = *polarity != *negated;
                    fact.bools.insert(
                        var.clone(),
                        if value { FieldVal::True } else { FieldVal::False },
                    );
                }
                Cond::Nondet | Cond::RefEq { .. } | Cond::CallBool { .. } => {}
            },
        }
    }

    fn eval_bool_rhs(&self, fact: &FlowFact, value: &BoolRhs) -> FieldVal {
        match value {
            BoolRhs::Const(true) => FieldVal::True,
            BoolRhs::Const(false) => FieldVal::False,
            BoolRhs::Nondet => FieldVal::Top,
            BoolRhs::Var(v) => fact.bools.get(v).copied().unwrap_or(FieldVal::Top),
        }
    }

    /// Allocation effect: every boolean field of the site's class starts
    /// `False` — strongly at singleton sites, weakly (join) otherwise.
    fn apply_allocation(&self, fact: &mut FlowFact, site: Site) {
        let Some(desc) = self.sites.get(&site) else {
            return;
        };
        let Some(cls) = self.spec.class(&desc.class) else {
            return;
        };
        let strong = desc.singleton;
        for (field, kind) in &cls.fields {
            if matches!(kind, FieldKind::Bool) {
                let slot = fact.state.entry((site, field.clone())).or_default();
                *slot = if strong {
                    FieldVal::False
                } else {
                    slot.join(FieldVal::False)
                };
            }
        }
    }

    /// Stores `values` into `field` of `owners`: strong replacement when the
    /// owner is a unique singleton object, weak extension otherwise.
    fn store_heap(
        &self,
        fact: &mut FlowFact,
        owners: &BTreeSet<Site>,
        field: &str,
        values: BTreeSet<Site>,
    ) {
        let strong = owners.len() == 1 && owners.iter().all(|&o| self.is_singleton(o));
        for &o in owners {
            let slot = fact.heap.entry((o, field.to_owned())).or_default();
            if strong {
                *slot = values.clone();
            } else {
                slot.extend(values.iter().copied());
            }
        }
    }

    /// Stores `val` into boolean `field` of `owners` under the same
    /// strong/weak discipline.
    fn store_state(
        &self,
        fact: &mut FlowFact,
        owners: &BTreeSet<Site>,
        field: &str,
        val: FieldVal,
    ) {
        let strong = owners.len() == 1 && owners.iter().all(|&o| self.is_singleton(o));
        for &o in owners {
            let slot = fact.state.entry((o, field.to_owned())).or_default();
            *slot = if strong { val } else { slot.join(val) };
        }
    }

    /// Interprets an Easl method body sequentially against `fact`.
    #[allow(clippy::too_many_lines)]
    fn interpret(
        &self,
        stmts: &[EaslStmt],
        env: &mut BTreeMap<String, BTreeSet<Site>>,
        ctx: &CallCtx,
        fact: &mut FlowFact,
        returned: &mut BTreeSet<Site>,
        mut findings: Option<&mut Findings>,
    ) {
        for stmt in stmts {
            match stmt {
                EaslStmt::Requires(cond) => {
                    if let Some(f) = findings.as_deref_mut() {
                        let may = self.cond_may_fail(env, cond, fact);
                        if may {
                            f.may_errors
                                .insert((ctx.line, "requires violated (preanalysis)".into()));
                        }
                        if may || cond_undecidable(cond) {
                            f.suspect_env(env);
                        }
                        if self.cond_must_fail(env, cond, fact) {
                            f.definite_failures.insert(DefiniteFailure {
                                line: ctx.line,
                                recv: ctx.recv.clone(),
                                class: ctx.class.clone(),
                                method: ctx.method.clone(),
                            });
                        }
                    }
                }
                EaslStmt::AssignBool {
                    target,
                    field,
                    value,
                } => {
                    let owners = fact.resolve_path(env, target);
                    let val = match value {
                        EaslBoolRhs::Const(true) => FieldVal::True,
                        EaslBoolRhs::Const(false) => FieldVal::False,
                        EaslBoolRhs::Nondet => FieldVal::Top,
                        EaslBoolRhs::Read(p) => fact.read_bool(env, p),
                    };
                    // Direct (non-path) targets of a unique singleton object
                    // admit a strong update, exactly as in the baseline.
                    let strong = target.fields.is_empty()
                        && owners.len() == 1
                        && owners.iter().all(|&o| self.is_singleton(o));
                    for &o in &owners {
                        let slot = fact.state.entry((o, field.clone())).or_default();
                        *slot = if strong { val } else { slot.join(val) };
                    }
                }
                EaslStmt::AssignRef {
                    target,
                    field,
                    value,
                } => {
                    let owners = fact.resolve_path(env, target);
                    let values = match value {
                        RefRhs::Null => BTreeSet::new(),
                        RefRhs::Path(p) => fact.resolve_path(env, p),
                    };
                    self.store_heap(fact, &owners, field, values);
                }
                EaslStmt::SetClear { target, field } => {
                    let owners = fact.resolve_path(env, target);
                    if owners.len() == 1 && owners.iter().all(|&o| self.is_singleton(o)) {
                        for &o in &owners {
                            fact.heap.insert((o, field.clone()), BTreeSet::new());
                        }
                    }
                    // Weakly clearing is a no-op: the set may keep anything.
                }
                EaslStmt::SetAdd {
                    target,
                    field,
                    elem,
                } => {
                    let owners = fact.resolve_path(env, target);
                    let values = fact.resolve_path(env, elem);
                    for &o in &owners {
                        fact.heap
                            .entry((o, field.clone()))
                            .or_default()
                            .extend(values.iter().copied());
                    }
                }
                EaslStmt::Alloc { var, class, args } => {
                    let Some(site) = ctx.alloc_site else {
                        continue;
                    };
                    env.insert(var.clone(), BTreeSet::from([site]));
                    if let Some(cls) = self.spec.class(class) {
                        let mut ctor_env = BTreeMap::new();
                        ctor_env.insert("this".to_owned(), BTreeSet::from([site]));
                        for ((pname, pclass), arg) in cls.ctor.params.iter().zip(args) {
                            if pclass == "String" {
                                continue;
                            }
                            ctor_env.insert(pname.clone(), fact.resolve_path(env, arg));
                        }
                        self.interpret(
                            &cls.ctor.body,
                            &mut ctor_env,
                            ctx,
                            fact,
                            returned,
                            findings.as_deref_mut(),
                        );
                    }
                }
                EaslStmt::If {
                    cond: _,
                    then_branch,
                    else_branch,
                } => {
                    let mut t_fact = fact.clone();
                    let mut t_env = env.clone();
                    self.interpret(
                        then_branch,
                        &mut t_env,
                        ctx,
                        &mut t_fact,
                        returned,
                        findings.as_deref_mut(),
                    );
                    let mut e_env = env.clone();
                    self.interpret(
                        else_branch,
                        &mut e_env,
                        ctx,
                        fact,
                        returned,
                        findings.as_deref_mut(),
                    );
                    self.join(fact, &t_fact);
                }
                EaslStmt::Foreach {
                    var,
                    target,
                    field,
                    body,
                } => {
                    let owners = fact.resolve_path(env, target);
                    let elems = fact.of_field(&owners, field);
                    let saved = env.insert(var.clone(), elems);
                    self.interpret(body, env, ctx, fact, returned, findings.as_deref_mut());
                    match saved {
                        Some(v) => {
                            env.insert(var.clone(), v);
                        }
                        None => {
                            env.remove(var);
                        }
                    }
                }
                EaslStmt::Return(Some(ReturnValue::Path(p))) => {
                    returned.extend(fact.resolve_path(env, p));
                }
                EaslStmt::Return(_) => {}
            }
        }
    }

    /// Whether the condition may evaluate to `false` (the check may fail)
    /// under the abstract fact.
    fn cond_may_fail(
        &self,
        env: &BTreeMap<String, BTreeSet<Site>>,
        cond: &EaslCond,
        fact: &FlowFact,
    ) -> bool {
        match cond {
            EaslCond::Read(p) => !matches!(fact.read_bool(env, p), FieldVal::True),
            EaslCond::Not(inner) => match inner.as_ref() {
                EaslCond::Read(p) => fact.read_bool(env, p).maybe_true(),
                _ => false, // undecidable shapes handled separately
            },
            EaslCond::And(a, b) => {
                self.cond_may_fail(env, a, fact) || self.cond_may_fail(env, b, fact)
            }
            EaslCond::IsNull(_) | EaslCond::NotNull(_) => false,
        }
    }

    /// Whether the condition evaluates to `false` on *every* concrete
    /// execution: the receiver reads a definite value that contradicts the
    /// check. `Bot` (no object flows here) never fires.
    fn cond_must_fail(
        &self,
        env: &BTreeMap<String, BTreeSet<Site>>,
        cond: &EaslCond,
        fact: &FlowFact,
    ) -> bool {
        match cond {
            EaslCond::Read(p) => fact.read_bool(env, p) == FieldVal::False,
            EaslCond::Not(inner) => match inner.as_ref() {
                EaslCond::Read(p) => fact.read_bool(env, p) == FieldVal::True,
                _ => false,
            },
            EaslCond::And(a, b) => {
                self.cond_must_fail(env, a, fact) || self.cond_must_fail(env, b, fact)
            }
            EaslCond::IsNull(_) | EaslCond::NotNull(_) => false,
        }
    }
}

/// Whether a condition's truth cannot be decided by the boolean-field
/// abstraction at all (null/shape tests): its sites stay suspect.
fn cond_undecidable(cond: &EaslCond) -> bool {
    match cond {
        EaslCond::IsNull(_) | EaslCond::NotNull(_) => true,
        EaslCond::Not(inner) => !matches!(inner.as_ref(), EaslCond::Read(_)),
        EaslCond::And(a, b) => cond_undecidable(a) || cond_undecidable(b),
        EaslCond::Read(_) => false,
    }
}

/// Binds a method's parameters from call arguments (inert `String`
/// parameters skipped, mirroring Easl compilation).
fn bind_params(
    env: &mut BTreeMap<String, BTreeSet<Site>>,
    method: &EaslMethod,
    args: &[Arg],
    fact: &FlowFact,
) {
    for ((pname, pclass), arg) in method.params.iter().zip(args) {
        if pclass == "String" {
            continue;
        }
        let sites = match arg {
            Arg::Var(v) => fact.of_var(v),
            Arg::Null | Arg::Str(_) => BTreeSet::new(),
        };
        env.insert(pname.clone(), sites);
    }
}

/// Discovers every allocation site and validates library calls against the
/// spec using static receiver types (exact — the language has no
/// subtyping), so the transfer function never meets an unresolvable call.
fn discover_sites(cfg: &Cfg, spec: &Spec) -> Result<BTreeMap<Site, SiteDesc>, FlowError> {
    let mut sites = BTreeMap::new();
    for (ix, edge) in cfg.edges().iter().enumerate() {
        match &edge.op {
            CfgOp::New { class, .. } => {
                sites.insert(
                    ix,
                    SiteDesc {
                        class: class.clone(),
                        singleton: !on_cycle(cfg, ix),
                    },
                );
            }
            CfgOp::CallLib { recv, method, .. } => {
                let Some(rtype) = cfg.var_type(recv) else {
                    return Err(FlowError {
                        message: format!(
                            "line {}: receiver `{recv}` has no declared type",
                            edge.line
                        ),
                    });
                };
                let Some(cls) = spec.class(rtype) else {
                    continue; // call on a program-local class: no spec effects
                };
                let Some(m) = cls.method(method) else {
                    return Err(FlowError {
                        message: format!(
                            "line {}: class `{rtype}` has no method `{method}`",
                            edge.line
                        ),
                    });
                };
                if let Some(EaslStmt::Alloc { class, .. }) =
                    m.body.iter().find(|s| matches!(s, EaslStmt::Alloc { .. }))
                {
                    sites.insert(
                        ix,
                        SiteDesc {
                            class: class.clone(),
                            singleton: !on_cycle(cfg, ix),
                        },
                    );
                }
            }
            _ => {}
        }
    }
    Ok(sites)
}

/// Whether the edge lies on a CFG cycle (its target reaches back to its
/// source) — if so, the allocation may execute more than once and the site
/// abstracts multiple concrete objects.
fn on_cycle(cfg: &Cfg, edge_ix: usize) -> bool {
    let edge = &cfg.edges()[edge_ix];
    let mut seen = vec![false; cfg.node_count()];
    let mut queue = VecDeque::from([edge.to]);
    seen[edge.to] = true;
    while let Some(n) = queue.pop_front() {
        if n == edge.from {
            return true;
        }
        for &out_ix in cfg.out_edges(n) {
            let t = cfg.edges()[out_ix].to;
            if !seen[t] {
                seen[t] = true;
                queue.push_back(t);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsep_easl::builtin;
    use hetsep_ir::parse_program;

    fn run(src: &str, spec: &Spec) -> FlowVerdicts {
        let program = parse_program(src).unwrap();
        let cfg = Cfg::build(&program, "main").unwrap();
        analyze_flow(&cfg, spec).unwrap()
    }

    #[test]
    fn clean_straightline_program_has_no_suspects() {
        let v = run(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n\
             }",
            &builtin::iostreams(),
        );
        assert!(v.suspects.is_empty(), "{v:?}");
        assert!(v.definite_failures.is_empty());
        assert_eq!(v.site_class.len(), 1);
        assert_eq!(v.singleton.len(), 1);
    }

    #[test]
    fn read_after_close_is_suspect_and_definite() {
        let v = run(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.close();\n\
             f.read();\n\
             }",
            &builtin::iostreams(),
        );
        assert!(!v.suspects.is_empty(), "{v:?}");
        let fail = v.definite_failures.iter().next().expect("definite failure");
        assert_eq!(fail.line, 4);
        assert_eq!(fail.recv, "f");
        assert_eq!(fail.method, "read");
    }

    #[test]
    fn loop_allocation_is_not_singleton_and_stays_suspect() {
        // Fig. 3-style loop: the site abstracts many objects, so `close`
        // weak-updates and the later `read` may see a closed stream.
        let v = run(
            "program P uses IOStreams; void main() {\n\
             while (?) {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             if (?) { f.close(); }\n\
             f.read();\n\
             }\n\
             }",
            &builtin::iostreams(),
        );
        assert!(v.singleton.is_empty(), "loop site must not be singleton");
        assert!(!v.suspects.is_empty(), "{v:?}");
    }

    #[test]
    fn reassigned_handle_keeps_lifetimes_separate() {
        // The baseline's flow-insensitive points-to conflates both sites
        // through `f` and flags both; flow-sensitivity keeps them apart.
        let v = run(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.read();\n\
             f.close();\n\
             f = new InputStream();\n\
             f.read();\n\
             f.close();\n\
             }",
            &builtin::iostreams(),
        );
        assert_eq!(v.site_class.len(), 2);
        assert!(v.suspects.is_empty(), "{v:?}");
        assert!(v.definite_failures.is_empty());
    }

    #[test]
    fn branch_dependent_state_is_not_definite() {
        // May fail (suspect) but not on every path: no W105 substrate.
        let v = run(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             if (?) { f.close(); }\n\
             f.read();\n\
             }",
            &builtin::iostreams(),
        );
        assert!(!v.suspects.is_empty(), "{v:?}");
        assert!(v.definite_failures.is_empty(), "{v:?}");
    }

    #[test]
    fn heap_edges_cover_component_links() {
        let v = run(
            "program P uses JDBC; void main() {\n\
             ConnectionManager cm = new ConnectionManager();\n\
             Connection con = cm.getConnection();\n\
             Statement st = cm.createStatement(con);\n\
             ResultSet rs = st.executeQuery(\"q\");\n\
             rs.close();\n\
             }",
            &builtin::jdbc(),
        );
        assert!(
            !v.heap_edges.is_empty(),
            "JDBC spec links statements to connections: {v:?}"
        );
    }

    #[test]
    fn unknown_method_is_an_error() {
        let program = parse_program(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.frobnicate();\n\
             }",
        )
        .unwrap();
        let cfg = Cfg::build(&program, "main").unwrap();
        let err = analyze_flow(&cfg, &builtin::iostreams()).unwrap_err();
        assert!(err.message.contains("frobnicate"), "{err}");
    }

    #[test]
    fn null_branch_refinement_empties_points_to() {
        // On the `f == null` branch the call has no receivers and must not
        // produce a suspect; the non-null branch is clean.
        let v = run(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.close();\n\
             if (f == null) { f.read(); }\n\
             }",
            &builtin::iostreams(),
        );
        assert!(v.suspects.is_empty(), "{v:?}");
        assert!(v.definite_failures.is_empty(), "{v:?}");
    }
}
