//! Translation of a verification problem instance into a transition system.
//!
//! `(program, spec [, strategy stage])` → [`AnalysisInstance`]: the CFG, the
//! vocabulary, and one or more [`Action`] variants per CFG edge, ready for
//! the abstract-interpretation [`crate::engine`]. This realizes the paper's
//! §4: the strategy is *instrumentation* of the standard translation, not a
//! separate analysis.

use std::collections::{HashMap, HashSet};

use hetsep_easl::ast::{RetKind, Spec};
use hetsep_ir::cfg::{Cfg, CfgOp};
use hetsep_ir::check::check_program;
use hetsep_ir::Program;
use hetsep_strategy::ast::AtomicStrategy;
use hetsep_strategy::instrument::InstrumentPlan;
use hetsep_tvl::action::Action;

use crate::report::VerifyError;
use crate::semantics::LowerCtx;
use crate::vocab::{SiteId, Vocabulary};

/// Options controlling translation.
#[derive(Debug, Clone, Default)]
pub struct TranslateOptions {
    /// The strategy stage to instrument for, if any.
    pub stage: Option<AtomicStrategy>,
    /// Use heterogeneous abstraction (the vocabulary's relevance mask). Only
    /// meaningful with a stage.
    pub heterogeneous: bool,
    /// Per choice index: restrict that choice to these allocation sites.
    pub site_constraints: HashMap<usize, HashSet<SiteId>>,
    /// Allocation sites that failed the previous incremental stage.
    pub failing_sites: HashSet<SiteId>,
    /// Disable the paper's transitive relevance (§4.3) — ablation only;
    /// `Default` enables it.
    pub no_transitive_relevance: bool,
}

/// A translated analysis instance.
#[derive(Debug, Clone)]
pub struct AnalysisInstance {
    /// The predicate vocabulary.
    pub vocab: Vocabulary,
    /// The client program's CFG.
    pub cfg: Cfg,
    /// Action variants per CFG edge index.
    pub actions: Vec<Vec<Action>>,
    /// The instrumentation plan, if a strategy stage is active.
    pub plan: Option<InstrumentPlan>,
    /// Allocation sites per class name.
    pub sites_by_class: HashMap<String, Vec<SiteId>>,
}

impl AnalysisInstance {
    /// All allocation sites of a class (empty if never allocated).
    pub fn sites_of(&self, class: &str) -> &[SiteId] {
        self.sites_by_class
            .get(class)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Infers types of compiler-introduced temporaries (`tmp$N`, typed
/// `"unknown"` by the CFG builder) from their defining operations.
fn infer_var_types(cfg: &Cfg, spec: &Spec, program: &Program) -> HashMap<String, String> {
    let mut types: HashMap<String, String> = cfg
        .variables()
        .into_iter()
        .map(|(a, b)| (a.to_owned(), b.to_owned()))
        .collect();
    // Two passes handle forward chains introduced by desugaring.
    for _ in 0..2 {
        for edge in cfg.edges() {
            match &edge.op {
                CfgOp::New { dst: Some(d), class, .. } => {
                    types.insert(d.clone(), class.clone());
                }
                CfgOp::CallLib {
                    result: Some(r),
                    recv,
                    method,
                    ..
                }
                    if types.get(r).map(String::as_str) == Some("unknown") => {
                        if let Some(recv_class) = types.get(recv).cloned() {
                            if let Some(m) =
                                spec.class(&recv_class).and_then(|c| c.method(method))
                            {
                                match &m.ret {
                                    RetKind::Ref(c) => {
                                        types.insert(r.clone(), c.clone());
                                    }
                                    RetKind::Bool => {
                                        types.insert(r.clone(), "boolean".into());
                                    }
                                    RetKind::Void => {}
                                }
                            }
                        }
                    }
                CfgOp::LoadField { dst, src, field }
                    if types.get(dst).map(String::as_str) == Some("unknown") => {
                        if let Some(src_class) = types.get(src).cloned() {
                            let target = spec
                                .class(&src_class)
                                .and_then(|c| c.field(field))
                                .and_then(|k| match k {
                                    hetsep_easl::ast::FieldKind::Ref(t) => Some(t.clone()),
                                    _ => None,
                                })
                                .or_else(|| {
                                    program.class(&src_class).and_then(|c| {
                                        c.fields
                                            .iter()
                                            .find(|(f, _)| f == field)
                                            .map(|(_, t)| t.clone())
                                    })
                                });
                            if let Some(t) = target {
                                types.insert(dst.clone(), t);
                            }
                        }
                    }
                CfgOp::AssignVar { dst, src }
                    if types.get(dst).map(String::as_str) == Some("unknown") => {
                        if let Some(t) = types.get(src).cloned() {
                            types.insert(dst.clone(), t);
                        }
                    }
                _ => {}
            }
        }
    }
    types
}

/// Translates a program/spec pair into an analysis instance.
///
/// # Errors
///
/// Fails when the program does not check, the CFG cannot be built, or an
/// operation cannot be lowered against the specification.
pub fn translate(
    program: &Program,
    spec: &Spec,
    options: &TranslateOptions,
) -> Result<AnalysisInstance, VerifyError> {
    let check_errors = check_program(program);
    if let Some(e) = check_errors.first() {
        return Err(VerifyError::Check(e.to_string()));
    }
    let cfg = Cfg::build(program, "main").map_err(|e| VerifyError::Cfg(e.to_string()))?;
    let var_types = infer_var_types(&cfg, spec, program);
    let plan = options.stage.as_ref().map(InstrumentPlan::for_stage);
    // Validate strategy classes against the spec/program.
    if let Some(plan) = &plan {
        for c in &plan.choices {
            if spec.class(&c.op.class).is_none() && program.class(&c.op.class).is_none() {
                return Err(VerifyError::Strategy(format!(
                    "choice `{}` watches unknown class `{}`",
                    c.op.var, c.op.class
                )));
            }
        }
    }
    let vocab = Vocabulary::build_with(
        program,
        spec,
        &cfg,
        &var_types,
        plan.as_ref(),
        options.heterogeneous,
        !options.no_transitive_relevance,
    );
    let ctx = LowerCtx {
        vocab: &vocab,
        spec,
        program,
        var_types: &var_types,
        plan: plan.as_ref(),
        site_constraints: &options.site_constraints,
        failing_sites: &options.failing_sites,
        guard_checks: plan.is_some(),
    };
    let mut actions = Vec::with_capacity(cfg.edges().len());
    for (ix, edge) in cfg.edges().iter().enumerate() {
        actions.push(ctx.lower_edge(ix, edge)?);
    }
    // Liveness-based nullification: kill variables that are dead after each
    // edge, so stale variable predicates don't fragment the abstraction.
    let live = crate::liveness::live_in(&cfg);
    for (ix, _) in cfg.edges().iter().enumerate() {
        let kills = crate::liveness::kills(&cfg, &live, ix);
        if kills.is_empty() {
            continue;
        }
        for action in &mut actions[ix] {
            for var in &kills {
                if let Some(&p) = vocab.var_preds.get(var) {
                    action.updates.push(hetsep_tvl::action::PredUpdate::unary(
                        p,
                        hetsep_easl::compile::ARG0,
                        hetsep_tvl::Formula::ff(),
                    ));
                } else if let Some(&p) = vocab.bool_var_preds.get(var) {
                    action.updates.push(hetsep_tvl::action::PredUpdate::nullary(
                        p,
                        hetsep_tvl::Formula::ff(),
                    ));
                }
            }
            // Killing a variable can change the derived predicates, which
            // are re-evaluated on the post-state (and the forget mask
            // follows `relevant`): ensure derived updates and the mask run
            // even on edges that previously had no core updates.
            if plan.is_some() && action.derived.is_empty() {
                vocab.add_derived(action);
            }
        }
    }
    // Classify allocation sites by class.
    let mut sites_by_class: HashMap<String, Vec<SiteId>> = HashMap::new();
    for &site in vocab.site_preds.keys() {
        let class = match &cfg.edges()[site].op {
            CfgOp::New { class, .. } => Some(class.clone()),
            CfgOp::CallLib { recv, method, .. } => var_types
                .get(recv)
                .and_then(|c| spec.class(c))
                .and_then(|c| c.method(method))
                .and_then(|m| {
                    m.body.iter().find_map(|s| match s {
                        hetsep_easl::ast::EaslStmt::Alloc { class, .. } => Some(class.clone()),
                        _ => None,
                    })
                }),
            _ => None,
        };
        if let Some(c) = class {
            sites_by_class.entry(c).or_default().push(site);
        }
    }
    for v in sites_by_class.values_mut() {
        v.sort_unstable();
    }
    Ok(AnalysisInstance {
        vocab,
        cfg,
        actions,
        plan,
        sites_by_class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsep_strategy::builtin::{parse_builtin, JDBC_SINGLE};

    const PROGRAM: &str = r#"
program P uses JDBC;
void main() {
    ConnectionManager cm = new ConnectionManager();
    Connection con = cm.getConnection();
    Statement st = cm.createStatement(con);
    ResultSet rs = st.executeQuery("q");
    if (rs.next()) {
    }
}
"#;

    fn program() -> Program {
        hetsep_ir::parse_program(PROGRAM).unwrap()
    }

    #[test]
    fn vanilla_translation_succeeds() {
        let inst = translate(&program(), &hetsep_easl::builtin::jdbc(), &TranslateOptions::default())
            .unwrap();
        assert_eq!(inst.actions.len(), inst.cfg.edges().len());
        assert!(inst.plan.is_none());
        // Every edge lowered to exactly one variant without a strategy.
        assert!(inst.actions.iter().all(|v| v.len() == 1));
    }

    #[test]
    fn temporaries_get_inferred_types() {
        let inst = translate(&program(), &hetsep_easl::builtin::jdbc(), &TranslateOptions::default())
            .unwrap();
        // rs is declared; its type flows from executeQuery's return.
        let _ = inst;
        let cfg = Cfg::build(&program(), "main").unwrap();
        let types = infer_var_types(&cfg, &hetsep_easl::builtin::jdbc(), &program());
        assert_eq!(types.get("rs").map(String::as_str), Some("ResultSet"));
        assert_eq!(types.get("st").map(String::as_str), Some("Statement"));
    }

    #[test]
    fn allocation_sites_classified_by_class() {
        let inst = translate(&program(), &hetsep_easl::builtin::jdbc(), &TranslateOptions::default())
            .unwrap();
        assert_eq!(inst.sites_of("ConnectionManager").len(), 1);
        assert_eq!(inst.sites_of("Connection").len(), 1, "via getConnection");
        assert_eq!(inst.sites_of("Statement").len(), 1, "via createStatement");
        assert_eq!(inst.sites_of("ResultSet").len(), 1, "via executeQuery");
        assert!(inst.sites_of("Frob").is_empty());
    }

    #[test]
    fn strategy_translation_adds_choice_variants() {
        let strategy = parse_builtin(JDBC_SINGLE);
        let options = TranslateOptions {
            stage: Some(strategy.stages[0].clone()),
            heterogeneous: true,
            ..TranslateOptions::default()
        };
        let inst = translate(&program(), &hetsep_easl::builtin::jdbc(), &options).unwrap();
        // The getConnection edge allocates a Connection, watched by
        // `choose some c : Connection()` → two variants (skip/take).
        let conn_site = inst.sites_of("Connection")[0];
        assert_eq!(inst.actions[conn_site].len(), 2);
        // ResultSet edges are watched by a `choose all` → one variant.
        let rs_site = inst.sites_of("ResultSet")[0];
        assert_eq!(inst.actions[rs_site].len(), 1);
        // Checks are guarded in separation mode.
        let rs_action = &inst.actions[rs_site][0];
        assert!(rs_action.checks.iter().all(|c| c.guard.is_some()));
    }

    #[test]
    fn unknown_strategy_class_rejected() {
        let strategy =
            hetsep_strategy::parse_strategy("strategy S { choose some x : Bogus(); }").unwrap();
        let options = TranslateOptions {
            stage: Some(strategy.stages[0].clone()),
            ..TranslateOptions::default()
        };
        let err = translate(&program(), &hetsep_easl::builtin::jdbc(), &options).unwrap_err();
        assert!(matches!(err, VerifyError::Strategy(_)));
    }

    #[test]
    fn bad_program_rejected() {
        let p = hetsep_ir::parse_program("program P uses JDBC; void main() { a = null; }").unwrap();
        let err = translate(&p, &hetsep_easl::builtin::jdbc(), &TranslateOptions::default())
            .unwrap_err();
        assert!(matches!(err, VerifyError::Check(_)));
    }
}
