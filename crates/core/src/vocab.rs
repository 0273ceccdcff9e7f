//! Vocabulary construction: the predicate table of an analysis instance.
//!
//! Registers (paper Tables 1 and 2):
//!
//! * a unary `x(v)` predicate per reference program variable (unique,
//!   abstraction),
//! * a nullary `bool$b()` predicate per boolean program variable,
//! * a unary `type$C(v)` predicate per class,
//! * a unary `site$k(v)` predicate per allocation site,
//! * unary `C.f(v)` predicates for boolean fields, binary functional
//!   `C.f(v1,v2)` predicates for reference fields, binary non-functional
//!   predicates for Easl set fields,
//! * with a separation strategy: `chosen[x]`, `wasChosen[x]`, the aggregate
//!   `chosen`, and the abstraction-directing `relevant`,
//! * under heterogeneous abstraction, no further predicates: the fine
//!   abstraction predicates are demoted and set as the table's relevance
//!   mask `(relevant, P)`, so canonical abstraction keys them only through
//!   `p ∧ relevant` (paper §5; the paper's prototype stored those
//!   conjunctions as extra predicates `p_r`).
//!
//! Every mutating action gets the derived updates
//! ([`Vocabulary::derived_updates`]) and, under heterogeneous abstraction,
//! the forget mask `(relevant, F)` ([`Vocabulary::forget_mask`]), which
//! blurs the typestate and site values of irrelevant individuals to `1/2`
//! after the derived updates.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use hetsep_easl::ast::{FieldKind, Spec};
use hetsep_easl::compile::PredResolver;
use hetsep_ir::cfg::Cfg;
use hetsep_ir::Program;
use hetsep_strategy::instrument::InstrumentPlan;
use hetsep_tvl::action::{Action, ForgetMask, PredUpdate};
use hetsep_tvl::formula::{Formula, Var};
use hetsep_tvl::pred::{PredFlags, PredId, PredTable};

use crate::relevance;

/// An allocation site: the index of the CFG edge performing the allocation
/// (a `new` or a call to an allocating library method).
pub type SiteId = usize;

/// Whether a library method's body allocates.
pub fn call_allocates(spec: &Spec, class: &str, method: &str) -> bool {
    use hetsep_easl::ast::EaslStmt;
    spec.class(class)
        .and_then(|c| c.method(method))
        .map(|m| m.body.iter().any(|s| matches!(s, EaslStmt::Alloc { .. })))
        .unwrap_or(false)
}

/// The predicate vocabulary of one analysis instance, with lookup maps.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    /// The predicate table (shared with every structure of the run).
    pub table: PredTable,
    /// Reference program variable → unary predicate.
    pub var_preds: HashMap<String, PredId>,
    /// Boolean program variable → nullary predicate.
    pub bool_var_preds: HashMap<String, PredId>,
    /// Class name → instance-of predicate.
    pub type_preds: HashMap<String, PredId>,
    /// Allocation site → site predicate.
    pub site_preds: HashMap<SiteId, PredId>,
    /// (class, field) → unary predicate for boolean fields.
    pub bool_fields: HashMap<(String, String), PredId>,
    /// (class, field) → binary predicate for reference fields.
    pub ref_fields: HashMap<(String, String), PredId>,
    /// (class, field) → binary predicate for set fields.
    pub set_fields: HashMap<(String, String), PredId>,
    /// Per choice operation: `chosen[x]` predicate.
    pub chosen_preds: Vec<PredId>,
    /// Per choice operation: `wasChosen[x]` predicate (for `choose some`).
    pub was_chosen_preds: Vec<Option<PredId>>,
    /// The aggregate `chosen` predicate (separation modes only).
    pub chosen: Option<PredId>,
    /// `nearChosen(v) = ∃w. field(v,w) ∧ chosen(w)` — holds for the direct
    /// holders of chosen objects, keeping them from merging with other
    /// relevant individuals (separation modes only).
    pub near_chosen: Option<PredId>,
    /// The `relevant` predicate (separation modes only).
    pub relevant: Option<PredId>,
    /// Whether heterogeneous abstraction is active (the fine abstraction
    /// predicates are demoted into the table's relevance mask).
    pub heterogeneous: bool,
    /// Whether relevance propagates transitively through the heap (paper
    /// §4.3). `false` restricts `relevant` to the chosen objects themselves
    /// (an ablation that re-introduces the InputStream5 false alarm).
    pub transitive_relevance: bool,
    /// [`Vocabulary::derived_updates`] and [`Vocabulary::forget_mask`],
    /// built on the first [`Vocabulary::add_derived`] and shared by every
    /// action it is given to.
    shared_derived: OnceLock<SharedDerived>,
}

/// The derived updates and forget mask every mutating action of one
/// vocabulary shares.
type SharedDerived = (Arc<[PredUpdate]>, Option<Arc<ForgetMask>>);

impl Vocabulary {
    /// Builds the vocabulary for a program/spec pair, optionally instrumented
    /// for a strategy stage.
    ///
    /// `heterogeneous` only has effect when a plan is present.
    pub fn build(
        program: &Program,
        spec: &Spec,
        cfg: &Cfg,
        var_types: &HashMap<String, String>,
        plan: Option<&InstrumentPlan>,
        heterogeneous: bool,
    ) -> Vocabulary {
        Vocabulary::build_with(
            program,
            spec,
            cfg,
            var_types,
            plan,
            heterogeneous,
            true,
        )
    }

    /// Like [`Vocabulary::build`] with control over transitive relevance.
    pub fn build_with(
        program: &Program,
        spec: &Spec,
        cfg: &Cfg,
        var_types: &HashMap<String, String>,
        plan: Option<&InstrumentPlan>,
        heterogeneous: bool,
        transitive_relevance: bool,
    ) -> Vocabulary {
        let mut table = PredTable::new();
        let mut v = VocabularyBuilder {
            table: &mut table,
            var_preds: HashMap::new(),
            bool_var_preds: HashMap::new(),
            type_preds: HashMap::new(),
            site_preds: HashMap::new(),
            bool_fields: HashMap::new(),
            ref_fields: HashMap::new(),
            set_fields: HashMap::new(),
        };

        // Program variables, in name order: registration order fixes the
        // `PredId` numbering, which flows into every formula the lowering
        // emits — sorting makes the whole vocabulary (and hence the
        // cross-job cache's content keys, see `hetsep_core::jobcache`) a
        // pure function of the program text instead of `HashMap` iteration
        // order.
        let mut vars: Vec<(&String, &String)> = var_types.iter().collect();
        vars.sort_unstable();
        for (name, ty) in vars {
            if ty == "boolean" {
                v.bool_var_preds.insert(
                    name.clone(),
                    v.table.add_nullary(&format!("bool${name}"), PredFlags::default()),
                );
            } else {
                v.var_preds.insert(
                    name.clone(),
                    v.table.add_unary(name, PredFlags::reference_variable()),
                );
            }
        }
        // Library classes and fields.
        for class in &spec.classes {
            v.type_pred_mut(&class.name);
            for (field, kind) in &class.fields {
                match kind {
                    FieldKind::Bool => {
                        v.bool_field_mut(&class.name, field);
                    }
                    FieldKind::Ref(_) => {
                        v.ref_field_mut(&class.name, field);
                    }
                    FieldKind::Set(_) => {
                        v.set_field_mut(&class.name, field);
                    }
                }
            }
        }
        // Program-local classes and fields.
        for class in &program.classes {
            v.type_pred_mut(&class.name);
            for (field, ty) in &class.fields {
                if ty == "boolean" {
                    v.bool_field_mut(&class.name, field);
                } else {
                    v.ref_field_mut(&class.name, field);
                }
            }
        }
        // Allocation sites: `new` edges and calls to allocating library
        // methods (e.g. `executeQuery`, which allocates the ResultSet).
        for (ix, edge) in cfg.edges().iter().enumerate() {
            let allocates = match &edge.op {
                hetsep_ir::CfgOp::New { .. } => true,
                hetsep_ir::CfgOp::CallLib { recv, method, .. } => var_types
                    .get(recv)
                    .is_some_and(|class| call_allocates(spec, class, method)),
                _ => false,
            };
            if allocates {
                let p = v
                    .table
                    .add_unary(&format!("site${ix}@L{}", edge.line), PredFlags::site());
                v.site_preds.insert(ix, p);
            }
        }

        let VocabularyBuilder {
            var_preds,
            bool_var_preds,
            type_preds,
            site_preds,
            bool_fields,
            ref_fields,
            set_fields,
            ..
        } = v;

        let mut vocab = Vocabulary {
            table,
            var_preds,
            bool_var_preds,
            type_preds,
            site_preds,
            bool_fields,
            ref_fields,
            set_fields,
            chosen_preds: Vec::new(),
            was_chosen_preds: Vec::new(),
            chosen: None,
            near_chosen: None,
            relevant: None,
            heterogeneous: false,
            transitive_relevance,
            shared_derived: OnceLock::new(),
        };

        if let Some(plan) = plan {
            vocab.instrument(plan, heterogeneous);
        }
        vocab
    }

    /// Adds the separation instrumentation predicates of paper Table 2 and,
    /// when `heterogeneous`, demotes the fine abstraction predicates into the
    /// table's relevance mask `(relevant, P)`.
    fn instrument(&mut self, plan: &InstrumentPlan, heterogeneous: bool) {
        for choice in &plan.choices {
            let chosen = self
                .table
                .add_unary(&choice.chosen_pred, PredFlags::boolean_field());
            self.chosen_preds.push(chosen);
            let was = choice
                .was_chosen_pred
                .as_ref()
                .map(|name| self.table.add_nullary(name, PredFlags::default()));
            self.was_chosen_preds.push(was);
        }
        // chosen(v) = chosen[z1](v) ∨ … ∨ chosen[zn](v)
        let u = Var(0);
        let chosen_defn = Formula::or_all(
            self.chosen_preds
                .iter()
                .map(|&p| Formula::unary(p, u)),
        );
        let chosen = self.table.add_unary(
            "chosen",
            PredFlags {
                abstraction: true,
                defining: Some(chosen_defn),
                ..PredFlags::default()
            },
        );
        self.chosen = Some(chosen);
        // nearChosen(v): v directly holds a chosen object. An
        // abstraction-directing predicate maintained like `relevant` (below):
        // it keeps the immediate holder of the chosen object materialized,
        // which is what lets list-shaped benchmarks (InputStream5) verify —
        // merging that holder into a summary would manufacture spurious
        // cyclic revisits of the already-closed chosen object.
        let near_chosen = self.table.add_unary(
            "nearChosen",
            PredFlags {
                abstraction: true,
                ..PredFlags::default()
            },
        );
        self.near_chosen = Some(near_chosen);
        // relevant(v): v is chosen or reaches a chosen object. Registered
        // *without* a defining formula: its maintenance uses a refining
        // derived update (see [`Vocabulary::derived_updates`]) that keeps
        // the stored value when re-evaluation on a blurred structure is
        // inconclusive — the re-evaluated TC degrades to 1/2 through summary
        // edges, and coerce must not treat that as an inconsistency.
        //
        // It *is* an abstraction predicate: the paper's heterogeneous
        // equivalence ⟨c, A1, A0, A1/2⟩ keys on the value of c = relevant
        // first, keeping relevant individuals apart from the coarse summary.
        let relevant = self.table.add_unary(
            "relevant",
            PredFlags {
                abstraction: true,
                ..PredFlags::default()
            },
        );
        self.relevant = Some(relevant);

        if heterogeneous {
            self.heterogeneous = true;
            // Key every abstraction predicate p on p ∧ relevant only —
            // except the type and allocation-site predicates, which remain in
            // the coarse set A0: the paper's "less expensive allocation-site
            // based merging for unchosen individuals" (§5). Keeping them
            // prevents the irrelevant summary from mixing object types,
            // which would otherwise poison every node later materialized out
            // of it with indefinite type information.
            // The coarse merging criterion A0 for unchosen individuals is
            // *type-based*: irrelevant objects of the same class collapse
            // into one summary. Allocation-site distinctions survive for
            // relevant objects through the masked site columns — keeping raw
            // site predicates in A0 would prevent any collapse in
            // straight-line code (every object has a unique site),
            // reinstating the very state-space product separation exists to
            // avoid.
            let mut coarse: std::collections::HashSet<PredId> =
                self.type_preds.values().copied().collect();
            // relevant is the c-predicate of the heterogeneous equivalence
            // itself; it and its one-step refinement stay in the key
            // untransformed.
            coarse.insert(relevant);
            coarse.insert(near_chosen);
            // Program-variable predicates also stay in A0: merging a
            // variable's target into the coarse summary smears the variable
            // to 1/2 there, and a later focus can then materialize spurious
            // aliases (e.g. `head == h` on a freshly allocated node). The
            // liveness kills keep this cheap — dead variables are nulled, so
            // their former targets still collapse into the summary.
            coarse.extend(self.var_preds.values().copied());
            let fine: Vec<PredId> = self
                .table
                .abstraction_preds()
                .into_iter()
                .filter(|p| !coarse.contains(p))
                .collect();
            for &p in &fine {
                let mut flags = self.table.flags(p).clone();
                flags.abstraction = false;
                self.table.set_flags(p, flags);
            }
            self.table.set_relevance_mask(relevant, fine);
        }
    }

    /// The unary predicate of a reference program variable.
    ///
    /// # Panics
    ///
    /// Panics when the variable is unknown — translation registers every CFG
    /// variable up front.
    pub fn var_pred(&self, var: &str) -> PredId {
        *self
            .var_preds
            .get(var)
            .unwrap_or_else(|| panic!("unregistered reference variable `{var}`"))
    }

    /// The nullary predicate of a boolean program variable.
    ///
    /// # Panics
    ///
    /// Panics when the variable is unknown.
    pub fn bool_var_pred(&self, var: &str) -> PredId {
        *self
            .bool_var_preds
            .get(var)
            .unwrap_or_else(|| panic!("unregistered boolean variable `{var}`"))
    }

    /// All reference/set field predicates (used for reachability).
    pub fn all_edge_preds(&self) -> Vec<PredId> {
        let mut out: Vec<PredId> = self.ref_fields.values().copied().collect();
        out.extend(self.set_fields.values().copied());
        out.sort();
        out.dedup();
        out
    }

    /// Gives a mutating `action` its derived updates and forget mask (the
    /// vocabulary's shared copies, not new ones).
    pub fn add_derived(&self, action: &mut Action) {
        let (derived, forget) = self
            .shared_derived
            .get_or_init(|| (self.derived_updates().into(), self.forget_mask().map(Arc::new)));
        action.derived = Arc::clone(derived);
        action.forget = forget.clone();
    }

    /// Derived (instrumentation) predicate updates to append to every action:
    /// re-evaluation of `chosen` and *refining* updates of `relevant` and
    /// `nearChosen`, over the evolving post-state in dependency order
    /// (registration order interleaves them correctly: `chosen` <
    /// `nearChosen` < `relevant`).
    pub fn derived_updates(&self) -> Vec<PredUpdate> {
        let mut out = Vec::new();
        let u = Var(0);
        for p in self.table.iter() {
            if Some(p) == self.relevant {
                let chosen = self.chosen.expect("relevant implies chosen");
                let update = if self.transitive_relevance {
                    PredUpdate::unary_closure(
                        p,
                        u,
                        relevance::relevant_step_formula(self, chosen, p),
                    )
                } else {
                    PredUpdate::unary_refine(p, u, Formula::unary(chosen, u))
                };
                out.push(update);
            } else if Some(p) == self.near_chosen {
                let chosen = self.chosen.expect("nearChosen implies chosen");
                out.push(PredUpdate::unary_refine(
                    p,
                    u,
                    relevance::near_chosen_formula(self, chosen),
                ));
            } else if let Some(defn) = self.table.flags(p).defining.clone() {
                out.push(PredUpdate::unary(p, u, defn));
            }
        }
        out
    }

    /// The forget mask of heterogeneous abstraction (the paper's third
    /// adaptation, §5: "adapting predicate values retained"): after the
    /// derived updates, every boolean-field (typestate) and allocation-site
    /// value on an individual that is not definitely `relevant` is blurred
    /// to `1/2`. This collapses the cross product of irrelevant component
    /// states — the state-space term separation exists to remove — while
    /// relevant individuals keep full precision (and the masked canon
    /// columns key on them there). `None` without heterogeneous abstraction.
    ///
    /// The predicates are sorted: the mask is part of the action's content
    /// key in the cross-job transfer cache, so it must be a function of the
    /// vocabulary, not of `HashMap` iteration order.
    pub fn forget_mask(&self) -> Option<ForgetMask> {
        let c = self.relevant.filter(|_| self.heterogeneous)?;
        let mut preds: Vec<PredId> = self
            .bool_fields
            .values()
            .chain(self.site_preds.values())
            .copied()
            .collect();
        preds.sort_unstable();
        Some(ForgetMask { c, preds })
    }
}

struct VocabularyBuilder<'a> {
    table: &'a mut PredTable,
    var_preds: HashMap<String, PredId>,
    bool_var_preds: HashMap<String, PredId>,
    type_preds: HashMap<String, PredId>,
    site_preds: HashMap<SiteId, PredId>,
    bool_fields: HashMap<(String, String), PredId>,
    ref_fields: HashMap<(String, String), PredId>,
    set_fields: HashMap<(String, String), PredId>,
}

impl VocabularyBuilder<'_> {
    fn type_pred_mut(&mut self, class: &str) -> PredId {
        if let Some(&p) = self.type_preds.get(class) {
            return p;
        }
        let p = self
            .table
            .add_unary(&format!("type${class}"), PredFlags::site());
        self.type_preds.insert(class.to_owned(), p);
        p
    }

    fn bool_field_mut(&mut self, class: &str, field: &str) -> PredId {
        let key = (class.to_owned(), field.to_owned());
        if let Some(&p) = self.bool_fields.get(&key) {
            return p;
        }
        let p = self
            .table
            .add_unary(&format!("{class}.{field}"), PredFlags::boolean_field());
        self.bool_fields.insert(key, p);
        p
    }

    fn ref_field_mut(&mut self, class: &str, field: &str) -> PredId {
        let key = (class.to_owned(), field.to_owned());
        if let Some(&p) = self.ref_fields.get(&key) {
            return p;
        }
        let p = self
            .table
            .add_binary(&format!("{class}.{field}"), PredFlags::reference_field());
        self.ref_fields.insert(key, p);
        p
    }

    fn set_field_mut(&mut self, class: &str, field: &str) -> PredId {
        let key = (class.to_owned(), field.to_owned());
        if let Some(&p) = self.set_fields.get(&key) {
            return p;
        }
        let p = self
            .table
            .add_binary(&format!("{class}.{field}"), PredFlags::default());
        self.set_fields.insert(key, p);
        p
    }
}

impl PredResolver for Vocabulary {
    fn type_pred(&self, class: &str) -> PredId {
        *self
            .type_preds
            .get(class)
            .unwrap_or_else(|| panic!("unregistered class `{class}`"))
    }

    fn bool_field(&self, class: &str, field: &str) -> PredId {
        *self
            .bool_fields
            .get(&(class.to_owned(), field.to_owned()))
            .unwrap_or_else(|| panic!("unregistered boolean field `{class}.{field}`"))
    }

    fn ref_field(&self, class: &str, field: &str) -> PredId {
        *self
            .ref_fields
            .get(&(class.to_owned(), field.to_owned()))
            .unwrap_or_else(|| panic!("unregistered reference field `{class}.{field}`"))
    }

    fn set_field(&self, class: &str, field: &str) -> PredId {
        *self
            .set_fields
            .get(&(class.to_owned(), field.to_owned()))
            .unwrap_or_else(|| panic!("unregistered set field `{class}.{field}`"))
    }

    fn isnew_pred(&self) -> PredId {
        self.table.isnew()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsep_strategy::builtin::{parse_builtin, JDBC_SINGLE};

    fn setup(hetero: bool) -> Vocabulary {
        let program = hetsep_ir::parse_program(
            r#"
program P uses JDBC;
void main() {
    ConnectionManager cm = new ConnectionManager();
    Connection con = cm.getConnection();
    boolean done = false;
}
"#,
        )
        .unwrap();
        let spec = hetsep_easl::builtin::jdbc();
        let cfg = Cfg::build(&program, "main").unwrap();
        let var_types: HashMap<String, String> = cfg
            .variables()
            .into_iter()
            .map(|(a, b)| (a.to_owned(), b.to_owned()))
            .collect();
        let strategy = parse_builtin(JDBC_SINGLE);
        let plan = InstrumentPlan::for_stage(&strategy.stages[0]);
        Vocabulary::build(&program, &spec, &cfg, &var_types, Some(&plan), hetero)
    }

    #[test]
    fn registers_program_variables() {
        let v = setup(false);
        assert!(v.var_preds.contains_key("cm"));
        assert!(v.var_preds.contains_key("con"));
        assert!(v.bool_var_preds.contains_key("done"));
        assert!(!v.var_preds.contains_key("done"));
    }

    #[test]
    fn registers_spec_classes_and_fields() {
        let v = setup(false);
        assert!(v.type_preds.contains_key("Connection"));
        assert!(v.bool_fields.contains_key(&("Connection".into(), "closed".into())));
        assert!(v.set_fields.contains_key(&("Connection".into(), "statements".into())));
        assert!(v.ref_fields.contains_key(&("Statement".into(), "myResultSet".into())));
    }

    #[test]
    fn registers_sites_for_new_and_allocating_calls() {
        let v = setup(false);
        // Two allocations: `new ConnectionManager()` and the library call
        // `cm.getConnection()` (which allocates the Connection).
        assert_eq!(v.site_preds.len(), 2);
    }

    #[test]
    fn strategy_instrumentation_predicates() {
        let v = setup(false);
        assert_eq!(v.chosen_preds.len(), 3);
        assert!(v.was_chosen_preds[0].is_some(), "choose some c");
        assert!(v.was_chosen_preds[1].is_none(), "choose all s");
        assert!(v.chosen.is_some());
        assert!(v.relevant.is_some());
        assert!(!v.heterogeneous);
        // chosen and relevant are abstraction predicates.
        assert!(v.table.flags(v.chosen.unwrap()).abstraction);
        assert!(v.table.flags(v.relevant.unwrap()).abstraction);
    }

    #[test]
    fn heterogeneous_mode_replaces_abstraction_set() {
        let v = setup(true);
        assert!(v.heterogeneous);
        // Every remaining abstraction predicate is part of the coarse A0
        // set: type/site predicates, program variables, and the
        // relevance-directing predicates.
        let var_names: Vec<&str> = v.var_preds.keys().map(String::as_str).collect();
        for p in v.table.abstraction_preds() {
            let name = v.table.name(p);
            assert!(
                name.starts_with("type$")
                    || name.starts_with("site$")
                    || name == "relevant"
                    || name == "nearChosen"
                    || var_names.contains(&name),
                "unexpected abstraction predicate {name}"
            );
        }
        // The fine predicates (boolean/typestate fields, chosen) are
        // demoted into the relevance mask (relevant, P), P in id order.
        let relevant = v.relevant.unwrap();
        let (c, masked) = v.table.relevance_mask().expect("heterogeneous sets a mask");
        assert_eq!(c, relevant);
        assert!(masked.windows(2).all(|w| w[0] < w[1]), "P in ascending id order");
        let closed = v.table.lookup("Connection.closed").unwrap();
        let chosen = v.chosen.unwrap();
        assert!(masked.contains(&closed) && masked.contains(&chosen));
        for &p in masked {
            assert!(!v.table.flags(p).abstraction, "{} stays demoted", v.table.name(p));
        }
        // No stored conjunction predicates: the mask replaces them.
        assert!(v.table.iter().all(|p| !v.table.name(p).starts_with("pr$")));
        // The homogeneous vocabulary sets no mask and keeps the fine set.
        let homo = setup(false);
        assert!(homo.table.relevance_mask().is_none());
        assert!(homo.table.flags(closed).abstraction);
    }

    #[test]
    fn derived_updates_in_dependency_order() {
        let v = setup(true);
        let derived = v.derived_updates();
        let names: Vec<&str> = derived
            .iter()
            .map(|u| v.table.name(u.pred))
            .collect();
        let chosen_ix = names.iter().position(|n| *n == "chosen").unwrap();
        let relevant_ix = names.iter().position(|n| *n == "relevant").unwrap();
        assert!(chosen_ix < relevant_ix);
        // No update maintains a stored p ∧ relevant, and no coerce rule
        // checks one: `chosen` is the only defined predicate.
        assert!(names.iter().all(|n| !n.starts_with("pr$")));
        let defined: Vec<&str> = v
            .table
            .instrumentation_preds()
            .into_iter()
            .map(|p| v.table.name(p))
            .collect();
        assert_eq!(defined, ["chosen"]);
        // Forgetting is the mask (relevant, F), F the sorted boolean-field
        // and site predicates; no derived update rewrites one of them.
        let mask = v.forget_mask().expect("heterogeneous sets a forget mask");
        assert_eq!(mask.c, v.relevant.unwrap());
        let mut forgettable: Vec<PredId> =
            v.bool_fields.values().chain(v.site_preds.values()).copied().collect();
        forgettable.sort_unstable();
        assert_eq!(mask.preds, forgettable);
        assert!(mask.preds.contains(&v.table.lookup("Connection.closed").unwrap()));
        assert!(derived.iter().all(|u| !mask.preds.contains(&u.pred)));
        // The homogeneous vocabulary forgets nothing.
        assert!(setup(false).forget_mask().is_none());
    }
}
