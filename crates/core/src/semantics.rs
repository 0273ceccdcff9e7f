//! Lowering of CFG operations to actions of the transition system.
//!
//! Each CFG edge becomes one or more [`Action`] variants (more than one when
//! a `choose some` operation watches an allocating edge: the "take" and
//! "skip" variants realize the non-deterministic selection of paper §4.2).

use std::collections::{HashMap, HashSet};

use hetsep_easl::ast::{FieldKind, Spec};
use hetsep_easl::compile::{compile_call, Callable, Denotation, RetEffect, ARG0, ARG1};
use hetsep_ir::cfg::{BoolRhs, CfgEdge, CfgOp};
use hetsep_ir::{Arg, Cond, Program};
use hetsep_strategy::ast::ChoiceMode;
use hetsep_strategy::instrument::InstrumentPlan;
use hetsep_tvl::action::{Action, Check, NewNodeSpec, PredUpdate};
use hetsep_tvl::focus::FocusSpec;
use hetsep_tvl::formula::{Formula, Var};
use hetsep_tvl::pred::PredId;

use crate::report::VerifyError;
use crate::vocab::{SiteId, Vocabulary};

/// One constructor-entry choice variant: an extra branch condition and the
/// `chosen`/`wasChosen` updates realizing the selection.
type ChoiceVariant = (Option<Formula>, Vec<PredUpdate>);

/// Context for lowering one analysis instance.
pub struct LowerCtx<'a> {
    /// The vocabulary.
    pub vocab: &'a Vocabulary,
    /// The library specification.
    pub spec: &'a Spec,
    /// The client program (for program-local classes).
    pub program: &'a Program,
    /// CFG variable types (including inferred temporaries).
    pub var_types: &'a HashMap<String, String>,
    /// Strategy instrumentation, if a separation mode is active.
    pub plan: Option<&'a InstrumentPlan>,
    /// Per choice index: restrict eligibility to these allocation sites
    /// (used by the non-simultaneous subproblem scheduler).
    pub site_constraints: &'a HashMap<usize, HashSet<SiteId>>,
    /// Sites that failed the previous incremental stage (for `failing`
    /// choices).
    pub failing_sites: &'a HashSet<SiteId>,
    /// Whether `requires` checks are guarded by `chosen` (separation modes).
    pub guard_checks: bool,
}

impl LowerCtx<'_> {
    fn err<T>(&self, line: u32, m: impl Into<String>) -> Result<T, VerifyError> {
        Err(VerifyError::Translate(format!("line {line}: {}", m.into())))
    }

    fn class_of(&self, var: &str, line: u32) -> Result<&str, VerifyError> {
        match self.var_types.get(var) {
            Some(t) if t != "boolean" && t != "unknown" => Ok(t),
            Some(t) => self.err(line, format!("variable `{var}` has non-reference type `{t}`")),
            None => self.err(line, format!("variable `{var}` has unknown type")),
        }
    }

    fn is_library_class(&self, class: &str) -> bool {
        self.spec.class(class).is_some()
    }

    /// Focus specs for making a variable's target and (optionally) its
    /// outgoing reference-field edges definite.
    fn focus_var(&self, var: &str) -> FocusSpec {
        FocusSpec::Unary(self.vocab.var_pred(var))
    }

    fn focus_fields_of(&self, var: &str, class: &str) -> Vec<FocusSpec> {
        let src = self.vocab.var_pred(var);
        let mut out = Vec::new();
        if let Some(c) = self.spec.class(class) {
            for (fname, kind) in &c.fields {
                if matches!(kind, FieldKind::Ref(_)) {
                    out.push(FocusSpec::EdgeFrom {
                        src,
                        field: self.vocab.ref_fields[&(class.to_owned(), fname.clone())],
                    });
                }
            }
        }
        out
    }

    /// The `chosen`-guard for a check involving the given participants.
    fn check_guard(&self, participants: &[PredId]) -> Option<Formula> {
        if !self.guard_checks {
            return None;
        }
        let chosen = self.vocab.chosen?;
        let u = Var(0);
        let any = Formula::or_all(
            participants
                .iter()
                .map(|&p| Formula::unary(p, u).and(Formula::unary(chosen, u))),
        );
        Some(Formula::exists(u, any))
    }

    /// Appends the derived instrumentation updates and the forget mask when
    /// the action mutates core state.
    fn finish(&self, mut action: Action) -> Action {
        if self.plan.is_some() && (!action.updates.is_empty() || action.new_node.is_some()) {
            self.vocab.add_derived(&mut action);
        }
        action
    }

    /// Builds the choice-instrumentation variants for an action allocating
    /// `class` with the given constructor-argument denotations (formulas with
    /// free variable [`ARG0`]).
    ///
    /// Returns a list of `(extra assume, extra updates)` variants whose
    /// cartesian structure realizes every combination of `choose some`
    /// selections (paper §4.2). Always non-empty.
    fn choice_variants(
        &self,
        edge_ix: SiteId,
        class: &str,
        ctor_arg_denos: &[Formula],
        line: u32,
    ) -> Result<Vec<ChoiceVariant>, VerifyError> {
        let mut variants: Vec<ChoiceVariant> = vec![(None, Vec::new())];
        let Some(plan) = self.plan else {
            return Ok(variants);
        };
        let isnew = self.vocab.table.isnew();
        for (choice_ix, choice) in plan.choices.iter().enumerate() {
            if choice.op.class != class {
                continue;
            }
            // Eligibility: conjunction of the condition's equations.
            let mut eligible = Formula::tt();
            for &(param_ix, z_ix) in &choice.resolved_equations {
                let Some(arg) = ctor_arg_denos.get(param_ix) else {
                    return self.err(
                        line,
                        format!(
                            "choice `{}` references constructor parameter {} of `{class}`, \
                             which has only {} parameters",
                            choice.op.var,
                            param_ix,
                            ctor_arg_denos.len()
                        ),
                    );
                };
                let z_pred = self.vocab.chosen_preds[z_ix];
                let o = Var(80 + param_ix as u16);
                eligible = eligible.and(Formula::exists(
                    o,
                    arg.rename_free(ARG0, o).and(Formula::unary(z_pred, o)),
                ));
            }
            // Site restrictions (non-simultaneous scheduling / `failing`).
            if let Some(allowed) = self.site_constraints.get(&choice_ix) {
                if !allowed.contains(&edge_ix) {
                    eligible = Formula::ff();
                }
            }
            if choice.op.failing && !self.failing_sites.contains(&edge_ix) {
                eligible = Formula::ff();
            }
            let chosen_pred = self.vocab.chosen_preds[choice_ix];
            match choice.op.mode {
                ChoiceMode::All => {
                    // chosen[x]'(v) = chosen[x](v) ∨ (isnew(v) ∧ eligible)
                    let upd = PredUpdate::unary(
                        chosen_pred,
                        ARG0,
                        Formula::unary(chosen_pred, ARG0)
                            .or(Formula::unary(isnew, ARG0).and(eligible)),
                    );
                    for v in &mut variants {
                        v.1.push(upd.clone());
                    }
                }
                ChoiceMode::Some => {
                    let was = self.vocab.was_chosen_preds[choice_ix]
                        .expect("some-choices have a wasChosen predicate");
                    let take_assume = eligible.and(Formula::nullary(was).not());
                    let take_updates = [PredUpdate::unary(
                            chosen_pred,
                            ARG0,
                            Formula::unary(chosen_pred, ARG0).or(Formula::unary(isnew, ARG0)),
                        ),
                        PredUpdate::nullary(was, Formula::tt())];
                    let mut next = Vec::with_capacity(variants.len() * 2);
                    for (assume, updates) in variants {
                        // Skip variant: the object is not selected.
                        next.push((assume.clone(), updates.clone()));
                        // Take variant.
                        let combined_assume = match &assume {
                            Some(a) => a.clone().and(take_assume.clone()),
                            None => take_assume.clone(),
                        };
                        let mut combined_updates = updates;
                        combined_updates.extend(take_updates.iter().cloned());
                        next.push((Some(combined_assume), combined_updates));
                    }
                    variants = next;
                }
            }
        }
        Ok(variants)
    }

    /// Lowers one CFG edge into its action variants.
    pub fn lower_edge(&self, edge_ix: usize, edge: &CfgEdge) -> Result<Vec<Action>, VerifyError> {
        let line = edge.line;
        match &edge.op {
            CfgOp::Nop => Ok(vec![Action::named("nop")]),
            CfgOp::AssignNull { dst } => {
                let p = self.vocab.var_pred(dst);
                let mut a = Action::named(format!("{dst} = null"));
                a.updates.push(PredUpdate::unary(p, ARG0, Formula::ff()));
                Ok(vec![self.finish(a)])
            }
            CfgOp::AssignVar { dst, src } => {
                let pd = self.vocab.var_pred(dst);
                let ps = self.vocab.var_pred(src);
                let mut a = Action::named(format!("{dst} = {src}"));
                a.updates
                    .push(PredUpdate::unary(pd, ARG0, Formula::unary(ps, ARG0)));
                Ok(vec![self.finish(a)])
            }
            CfgOp::LoadField { dst, src, field } => {
                let class = self.class_of(src, line)?.to_owned();
                let fpred = self.field_ref_pred(&class, field, line)?;
                let pd = self.vocab.var_pred(dst);
                let ps = self.vocab.var_pred(src);
                let mut a = Action::named(format!("{dst} = {src}.{field}"));
                a.focus.push(self.focus_var(src));
                a.focus.push(FocusSpec::EdgeFrom { src: ps, field: fpred });
                let u = Var(10);
                a.updates.push(PredUpdate::unary(
                    pd,
                    ARG0,
                    Formula::exists(u, Formula::unary(ps, u).and(Formula::binary(fpred, u, ARG0))),
                ));
                Ok(vec![self.finish(a)])
            }
            CfgOp::StoreField { dst, field, src } => {
                let class = self.class_of(dst, line)?.to_owned();
                let fpred = self.field_ref_pred(&class, field, line)?;
                let pd = self.vocab.var_pred(dst);
                let mut a = Action::named(format!("{dst}.{field} = …"));
                a.focus.push(self.focus_var(dst));
                let dst_formula = Formula::unary(pd, ARG0);
                let rhs = match src {
                    Some(s) => {
                        let ps = self.vocab.var_pred(s);
                        a.focus.push(self.focus_var(s));
                        Formula::binary(fpred, ARG0, ARG1)
                            .and(dst_formula.clone().not())
                            .or(dst_formula.and(Formula::unary(ps, ARG1)))
                    }
                    None => Formula::binary(fpred, ARG0, ARG1).and(dst_formula.not()),
                };
                a.updates.push(PredUpdate::binary(fpred, ARG0, ARG1, rhs));
                Ok(vec![self.finish(a)])
            }
            CfgOp::LoadBoolField { dst, src, field } => {
                let class = self.class_of(src, line)?.to_owned();
                let fpred = self.field_bool_pred(&class, field, line)?;
                let pb = self.vocab.bool_var_pred(dst);
                let ps = self.vocab.var_pred(src);
                let mut a = Action::named(format!("{dst} = {src}.{field}"));
                a.focus.push(self.focus_var(src));
                let u = Var(10);
                a.updates.push(PredUpdate::nullary(
                    pb,
                    Formula::exists(u, Formula::unary(ps, u).and(Formula::unary(fpred, u))),
                ));
                Ok(vec![self.finish(a)])
            }
            CfgOp::StoreBoolField { dst, field, value } => {
                let class = self.class_of(dst, line)?.to_owned();
                let fpred = self.field_bool_pred(&class, field, line)?;
                let pd = self.vocab.var_pred(dst);
                let mut a = Action::named(format!("{dst}.{field} = …"));
                a.focus.push(self.focus_var(dst));
                let value_formula = self.bool_rhs_formula(value);
                a.updates.push(PredUpdate::unary(
                    fpred,
                    ARG0,
                    Formula::ite(
                        Formula::unary(pd, ARG0),
                        value_formula,
                        Formula::unary(fpred, ARG0),
                    ),
                ));
                Ok(vec![self.finish(a)])
            }
            CfgOp::AssignBool { dst, value } => {
                let pb = self.vocab.bool_var_pred(dst);
                let mut a = Action::named(format!("{dst} = …"));
                a.updates
                    .push(PredUpdate::nullary(pb, self.bool_rhs_formula(value)));
                Ok(vec![self.finish(a)])
            }
            CfgOp::New { dst, class, args } => self.lower_new(edge_ix, dst, class, args, line),
            CfgOp::CallLib {
                result,
                recv,
                method,
                args,
            } => self.lower_call(edge_ix, result, recv, method, args, line),
            CfgOp::Assume { cond, polarity } => self.lower_assume(cond, *polarity, line),
        }
    }

    fn bool_rhs_formula(&self, value: &BoolRhs) -> Formula {
        match value {
            BoolRhs::Const(true) => Formula::tt(),
            BoolRhs::Const(false) => Formula::ff(),
            BoolRhs::Nondet => Formula::Const(hetsep_tvl::Kleene::Unknown),
            BoolRhs::Var(v) => Formula::nullary(self.vocab.bool_var_pred(v)),
        }
    }

    fn field_ref_pred(&self, class: &str, field: &str, line: u32) -> Result<PredId, VerifyError> {
        self.vocab
            .ref_fields
            .get(&(class.to_owned(), field.to_owned()))
            .copied()
            .ok_or_else(|| {
                VerifyError::Translate(format!(
                    "line {line}: class `{class}` has no reference field `{field}`"
                ))
            })
    }

    fn field_bool_pred(&self, class: &str, field: &str, line: u32) -> Result<PredId, VerifyError> {
        self.vocab
            .bool_fields
            .get(&(class.to_owned(), field.to_owned()))
            .copied()
            .ok_or_else(|| {
                VerifyError::Translate(format!(
                    "line {line}: class `{class}` has no boolean field `{field}`"
                ))
            })
    }

    fn arg_denotation(&self, arg: &Arg, line: u32) -> Result<Denotation, VerifyError> {
        match arg {
            Arg::Var(v) => {
                let ty = self.var_types.get(v).map(String::as_str);
                if ty == Some("boolean") {
                    self.err(line, format!("boolean variable `{v}` passed as reference argument"))
                } else {
                    Ok(Denotation::Var(self.vocab.var_pred(v)))
                }
            }
            Arg::Null => Ok(Denotation::Null),
            // Inert string literal: consumes a String parameter slot.
            Arg::Str(_) => Ok(Denotation::Null),
        }
    }

    fn lower_new(
        &self,
        edge_ix: usize,
        dst: &Option<String>,
        class: &str,
        args: &[Arg],
        line: u32,
    ) -> Result<Vec<Action>, VerifyError> {
        let isnew = self.vocab.table.isnew();
        let site_pred = self.vocab.site_preds.get(&edge_ix).copied();
        let mut base = Action::named(format!("new {class} (line {line})"));
        base.new_node = Some(NewNodeSpec::default());
        let ctor_arg_denos: Vec<Formula>;
        if self.is_library_class(class) {
            let denos: Vec<Denotation> = args
                .iter()
                .map(|a| self.arg_denotation(a, line))
                .collect::<Result<_, _>>()?;
            // Focus argument variables so the constructor sees definite
            // targets.
            for a in args {
                if let Arg::Var(v) = a {
                    base.focus.push(self.focus_var(v));
                }
            }
            let sem = compile_call(self.spec, class, Callable::Ctor, None, &denos, self.vocab)
                .map_err(|e| VerifyError::Translate(format!("line {line}: {e}")))?;
            let participants: Vec<PredId> = denos
                .iter()
                .filter_map(|d| match d {
                    Denotation::Var(p) => Some(*p),
                    Denotation::Null => None,
                })
                .collect();
            for (cond, label) in &sem.requires {
                base.checks.push(Check {
                    cond: cond.clone(),
                    guard: self.check_guard(&participants),
                    label: label.clone(),
                });
            }
            base.updates.extend(sem.updates.clone());
            ctor_arg_denos = sem
                .allocates
                .as_ref()
                .map(|a| a.arg_denos.clone())
                .unwrap_or_default();
        } else if self.program.class(class).is_some() {
            // Program-local record: fields default to null/false; just set
            // the type predicate.
            let type_pred = self.vocab.type_pred_of(class).ok_or_else(|| {
                VerifyError::Translate(format!("line {line}: unregistered class `{class}`"))
            })?;
            base.updates.push(PredUpdate::unary(
                type_pred,
                ARG0,
                Formula::unary(type_pred, ARG0).or(Formula::unary(isnew, ARG0)),
            ));
            ctor_arg_denos = Vec::new();
            if !args.is_empty() {
                return self.err(line, format!("program class `{class}` has no constructor arguments"));
            }
        } else {
            return self.err(line, format!("unknown class `{class}`"));
        }
        if let Some(sp) = site_pred {
            base.updates.push(PredUpdate::unary(
                sp,
                ARG0,
                Formula::unary(sp, ARG0).or(Formula::unary(isnew, ARG0)),
            ));
        }
        if let Some(d) = dst {
            let pd = self.vocab.var_pred(d);
            base.updates
                .push(PredUpdate::unary(pd, ARG0, Formula::unary(isnew, ARG0)));
        }
        self.expand_choice_variants(base, edge_ix, class, &ctor_arg_denos, line)
    }

    fn lower_call(
        &self,
        edge_ix: usize,
        result: &Option<String>,
        recv: &str,
        method: &str,
        args: &[Arg],
        line: u32,
    ) -> Result<Vec<Action>, VerifyError> {
        let class = self.class_of(recv, line)?.to_owned();
        if !self.is_library_class(&class) {
            return self.err(
                line,
                format!("method call on `{recv}` of non-library class `{class}`"),
            );
        }
        let recv_pred = self.vocab.var_pred(recv);
        let denos: Vec<Denotation> = args
            .iter()
            .map(|a| self.arg_denotation(a, line))
            .collect::<Result<_, _>>()?;
        let sem = compile_call(
            self.spec,
            &class,
            Callable::Method(method),
            Some(&Denotation::Var(recv_pred)),
            &denos,
            self.vocab,
        )
        .map_err(|e| VerifyError::Translate(format!("line {line}: {e}")))?;

        let mut base = Action::named(format!("{recv}.{method}() (line {line})"));
        base.focus.push(self.focus_var(recv));
        for a in args {
            if let Arg::Var(v) = a {
                if self.var_types.get(v).map(String::as_str) != Some("boolean") {
                    base.focus.push(self.focus_var(v));
                }
            }
        }
        base.focus.extend(self.focus_fields_of(recv, &class));

        let mut participants: Vec<PredId> = vec![recv_pred];
        for d in &denos {
            if let Denotation::Var(p) = d {
                participants.push(*p);
            }
        }
        for (cond, label) in &sem.requires {
            base.checks.push(Check {
                cond: cond.clone(),
                guard: self.check_guard(&participants),
                label: label.clone(),
            });
        }
        base.updates.extend(sem.updates.clone());
        if sem.allocates.is_some() {
            base.new_node = Some(NewNodeSpec::default());
            if let Some(sp) = self.vocab.site_preds.get(&edge_ix) {
                let isnew = self.vocab.table.isnew();
                base.updates.push(PredUpdate::unary(
                    *sp,
                    ARG0,
                    Formula::unary(*sp, ARG0).or(Formula::unary(isnew, ARG0)),
                ));
            }
        }
        if let Some(res) = result {
            match (&sem.ret, self.var_types.get(res).map(String::as_str)) {
                (RetEffect::Ref(d), ty) if ty != Some("boolean") => {
                    let pr = self.vocab.var_pred(res);
                    base.updates.push(PredUpdate::unary(pr, ARG0, d.clone()));
                }
                (RetEffect::Bool, Some("boolean")) => {
                    let pb = self.vocab.bool_var_pred(res);
                    base.updates.push(PredUpdate::nullary(
                        pb,
                        Formula::Const(hetsep_tvl::Kleene::Unknown),
                    ));
                }
                (RetEffect::None, _) => {
                    return self.err(
                        line,
                        format!("`{class}.{method}` returns no value but one is used"),
                    )
                }
                (r, ty) => {
                    return self.err(
                        line,
                        format!(
                            "result type mismatch for `{class}.{method}`: effect {r:?}, variable type {ty:?}"
                        ),
                    )
                }
            }
        }
        let (alloc_class, ctor_arg_denos) = match &sem.allocates {
            Some(info) => (Some(info.class.clone()), info.arg_denos.clone()),
            None => (None, Vec::new()),
        };
        match alloc_class {
            Some(ac) => self.expand_choice_variants(base, edge_ix, &ac, &ctor_arg_denos, line),
            None => Ok(vec![self.finish(base)]),
        }
    }

    fn expand_choice_variants(
        &self,
        base: Action,
        edge_ix: usize,
        class: &str,
        ctor_arg_denos: &[Formula],
        line: u32,
    ) -> Result<Vec<Action>, VerifyError> {
        let variants = self.choice_variants(edge_ix, class, ctor_arg_denos, line)?;
        let mut out = Vec::with_capacity(variants.len());
        for (ix, (assume, updates)) in variants.into_iter().enumerate() {
            let mut a = base.clone();
            if ix > 0 {
                a.name = format!("{} [choice variant {ix}]", a.name);
            }
            match (a.assume.take(), assume) {
                (None, add) => a.assume = add,
                (Some(orig), Some(add)) => a.assume = Some(orig.and(add)),
                (Some(orig), None) => a.assume = Some(orig),
            }
            a.updates.extend(updates);
            out.push(self.finish(a));
        }
        Ok(out)
    }

    fn lower_assume(
        &self,
        cond: &Cond,
        polarity: bool,
        _line: u32,
    ) -> Result<Vec<Action>, VerifyError> {
        let mut a = Action::named(format!("assume {cond:?} = {polarity}"));
        let u = Var(10);
        match cond {
            Cond::Nondet => {}
            Cond::RefEq { lhs, rhs, negated } => {
                let pl = self.vocab.var_pred(lhs);
                let pr = self.vocab.var_pred(rhs);
                a.focus.push(self.focus_var(lhs));
                a.focus.push(self.focus_var(rhs));
                let both = Formula::exists(u, Formula::unary(pl, u).and(Formula::unary(pr, u)));
                let lhs_some = Formula::exists(u, Formula::unary(pl, u));
                let rhs_some = Formula::exists(u, Formula::unary(pr, u));
                let eq = both.or(lhs_some.not().and(rhs_some.not()));
                let want_eq = polarity != *negated;
                a.assume = Some(if want_eq { eq } else { eq.not() });
            }
            Cond::NullCheck { var, negated } => {
                let p = self.vocab.var_pred(var);
                a.focus.push(self.focus_var(var));
                let nonnull = Formula::exists(u, Formula::unary(p, u));
                let want_null = polarity != *negated;
                a.assume = Some(if want_null { nonnull.not() } else { nonnull });
            }
            Cond::BoolVar { var, negated } => {
                let p = self.vocab.bool_var_pred(var);
                let want_true = polarity != *negated;
                let f = Formula::nullary(p);
                a.assume = Some(if want_true { f } else { f.not() });
            }
            Cond::CallBool { .. } => {
                // CFG lowering rewrote CallBool into CallLib + nondet assume.
                unreachable!("CallBool conditions are lowered by the CFG builder");
            }
        }
        Ok(vec![a])
    }
}

impl Vocabulary {
    /// The type predicate of a class, if registered.
    pub fn type_pred_of(&self, class: &str) -> Option<PredId> {
        self.type_preds.get(class).copied()
    }
}

