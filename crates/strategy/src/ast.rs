//! Abstract syntax of separation strategies.

use std::fmt;

/// Whether a choice operation selects one or all eligible objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoiceMode {
    /// `choose some` — non-deterministically select at most one eligible
    /// object over the whole execution.
    Some,
    /// `choose all` — select every eligible object.
    All,
}

impl fmt::Display for ChoiceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChoiceMode::Some => write!(f, "some"),
            ChoiceMode::All => write!(f, "all"),
        }
    }
}

/// One choice operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceOp {
    /// Selection mode.
    pub mode: ChoiceMode,
    /// Restrict eligibility to objects allocated at sites that failed the
    /// previous stage of an incremental strategy (`choose some failing x`).
    pub failing: bool,
    /// The strategy variable bound by this operation.
    pub var: String,
    /// The constructor (class) the operation watches.
    pub class: String,
    /// Names of the constructor's parameters usable in the condition.
    pub params: Vec<String>,
    /// Condition: a conjunction of equations `param == strategy-var`, where
    /// the strategy variable was bound by an earlier choice operation.
    pub equations: Vec<(String, String)>,
}

impl fmt::Display for ChoiceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "choose {} ", self.mode)?;
        if self.failing {
            write!(f, "failing ")?;
        }
        write!(f, "{} : {}({})", self.var, self.class, self.params.join(", "))?;
        if !self.equations.is_empty() {
            let eqs: Vec<String> = self
                .equations
                .iter()
                .map(|(p, z)| format!("{p} == {z}"))
                .collect();
            write!(f, " / {}", eqs.join(" && "))?;
        }
        Ok(())
    }
}

/// A sequence of choice operations forming one decomposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtomicStrategy {
    /// Choice operations in binding order.
    pub choices: Vec<ChoiceOp>,
}

impl AtomicStrategy {
    /// Looks up a choice operation by its bound variable.
    pub fn choice(&self, var: &str) -> Option<&ChoiceOp> {
        self.choices.iter().find(|c| c.var == var)
    }
}

/// A (possibly incremental) separation strategy: a sequence of atomic
/// strategies tried until one fully verifies the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strategy {
    /// Strategy name.
    pub name: String,
    /// Stages in trial order; a single stage means a plain atomic strategy.
    pub stages: Vec<AtomicStrategy>,
}

impl Strategy {
    /// Whether this is an incremental strategy (more than one stage).
    pub fn is_incremental(&self) -> bool {
        self.stages.len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrips_shape() {
        let op = ChoiceOp {
            mode: ChoiceMode::All,
            failing: false,
            var: "s".into(),
            class: "Statement".into(),
            params: vec!["x".into()],
            equations: vec![("x".into(), "c".into())],
        };
        assert_eq!(op.to_string(), "choose all s : Statement(x) / x == c");
        let some = ChoiceOp {
            mode: ChoiceMode::Some,
            failing: true,
            var: "r".into(),
            class: "ResultSet".into(),
            params: vec!["y".into()],
            equations: vec![],
        };
        assert_eq!(some.to_string(), "choose some failing r : ResultSet(y)");
    }

    #[test]
    fn atomic_lookups() {
        let a = AtomicStrategy {
            choices: vec![ChoiceOp {
                mode: ChoiceMode::Some,
                failing: false,
                var: "c".into(),
                class: "Connection".into(),
                params: vec![],
                equations: vec![],
            }],
        };
        assert!(a.choice("c").is_some());
        assert!(a.choice("z").is_none());
    }
}
