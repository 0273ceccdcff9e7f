//! Instrumentation plans.
//!
//! A strategy stage is realized by instrumenting the analysis vocabulary with
//! the predicates of paper Table 2: `chosen[x]` per choice operation,
//! `wasChosen[x]()` for `choose some` operations, the aggregate `chosen`, and
//! the abstraction-directing `relevant`. The [`InstrumentPlan`] is the
//! declarative description of that instrumentation; the verification engine
//! (`hetsep-core`) registers the predicates and wires the constructor-entry
//! choice logic from it.

use crate::ast::{AtomicStrategy, ChoiceMode, ChoiceOp};

/// Plan for one choice operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoicePlan {
    /// The underlying choice operation.
    pub op: ChoiceOp,
    /// Name of the `chosen[x]` unary predicate.
    pub chosen_pred: String,
    /// Name of the `wasChosen[x]` nullary predicate (only for `choose some`).
    pub was_chosen_pred: Option<String>,
    /// Equations resolved to `(constructor parameter index, earlier choice
    /// index)` pairs.
    pub resolved_equations: Vec<(usize, usize)>,
}

/// Plan for one atomic strategy stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrumentPlan {
    /// Per-choice plans, in binding order.
    pub choices: Vec<ChoicePlan>,
}

impl InstrumentPlan {
    /// Builds the plan for a stage.
    ///
    /// # Panics
    ///
    /// Panics if the stage's equations are unresolvable — impossible for
    /// strategies produced by [`crate::parse_strategy`], which validates
    /// them.
    pub fn for_stage(stage: &AtomicStrategy) -> InstrumentPlan {
        let mut choices: Vec<ChoicePlan> = Vec::new();
        for op in &stage.choices {
            let resolved_equations = op
                .equations
                .iter()
                .map(|(param, zvar)| {
                    let pix = op
                        .params
                        .iter()
                        .position(|p| p == param)
                        .expect("validated: equation lhs is a parameter");
                    let zix = stage
                        .choices
                        .iter()
                        .position(|c| &c.var == zvar)
                        .expect("validated: equation rhs is an earlier choice");
                    (pix, zix)
                })
                .collect();
            choices.push(ChoicePlan {
                chosen_pred: format!("chosen[{}]", op.var),
                was_chosen_pred: (op.mode == ChoiceMode::Some)
                    .then(|| format!("wasChosen[{}]", op.var)),
                resolved_equations,
                op: op.clone(),
            });
        }
        InstrumentPlan { choices }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_strategy;

    #[test]
    fn plan_names_predicates_like_the_paper() {
        let s = parse_strategy(
            r#"
strategy Single {
    choose some c : Connection();
    choose all s : Statement(x) / x == c;
    choose all r : ResultSet(y) / y == s;
}
"#,
        )
        .unwrap();
        let plan = InstrumentPlan::for_stage(&s.stages[0]);
        assert_eq!(plan.choices[0].chosen_pred, "chosen[c]");
        assert_eq!(
            plan.choices[0].was_chosen_pred.as_deref(),
            Some("wasChosen[c]")
        );
        assert_eq!(plan.choices[1].chosen_pred, "chosen[s]");
        assert_eq!(plan.choices[1].was_chosen_pred, None, "`all` needs no wasChosen");
        assert_eq!(plan.choices[1].resolved_equations, vec![(0, 0)]);
        assert_eq!(plan.choices[2].resolved_equations, vec![(0, 1)]);
    }
}
