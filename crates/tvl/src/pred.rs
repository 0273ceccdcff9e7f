//! Predicate registry.
//!
//! A verification problem instance fixes a vocabulary of predicates over
//! heap-allocated individuals (paper Tables 1 and 2): nullary predicates model
//! boolean program variables, unary predicates model reference variables,
//! boolean fields and object properties (`chosen`, `relevant`, ...), and
//! binary predicates model reference fields.
//!
//! Every structure in this crate is interpreted against a [`PredTable`].
//! The table also records *semantic attributes* of predicates that drive
//! canonical abstraction ([`PredFlags::abstraction`] and the table's
//! [relevance mask](PredTable::set_relevance_mask)) and the coerce
//! constraints ([`PredFlags::unique`], [`PredFlags::function`]).

use std::collections::HashMap;
use std::fmt;

use crate::formula::Formula;

/// Identifier of a predicate registered in a [`PredTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub(crate) u32);

impl PredId {
    /// Raw index of this predicate in its table (registration order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A set of predicates of one table, or the set of every predicate.
///
/// Coerce uses it to name the predicates in which a structure may differ
/// from a coerce fixpoint (see [`crate::coerce::coerce_dirty`]).
#[derive(Debug, Clone, Default)]
pub struct PredSet {
    all: bool,
    /// Bit `i % 64` of word `i / 64` is set iff the predicate with index `i`
    /// is a member.
    words: Vec<u64>,
}

impl PredSet {
    /// The empty set.
    pub fn empty() -> PredSet {
        PredSet::default()
    }

    /// The set of every predicate of every table.
    pub fn all() -> PredSet {
        PredSet { all: true, words: Vec::new() }
    }

    /// Adds `p`.
    pub fn insert(&mut self, p: PredId) {
        if self.all {
            return;
        }
        let (w, b) = (p.index() / 64, p.index() % 64);
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }

    /// Whether `p` is a member.
    pub fn contains(&self, p: PredId) -> bool {
        let (w, b) = (p.index() / 64, p.index() % 64);
        self.all || self.words.get(w).is_some_and(|&word| (word >> b) & 1 != 0)
    }
}

/// Number of individual arguments a predicate takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arity {
    /// Properties of the global state (boolean variables).
    Nullary,
    /// Properties of one individual (reference variables, boolean fields).
    Unary,
    /// Relations between two individuals (reference fields).
    Binary,
}

/// Semantic attributes of a predicate.
///
/// The defaults (`PredFlags::default()`) describe an ordinary core predicate
/// that does not participate in abstraction and carries no integrity
/// constraints.
#[derive(Debug, Default, Clone)]
pub struct PredFlags {
    /// Unary predicates only: participates in canonical abstraction —
    /// individuals are merged iff they agree on all abstraction predicates.
    pub abstraction: bool,
    /// Unary predicates only: holds for at most one individual in any concrete
    /// state (e.g. a reference variable points to at most one object).
    /// Exploited by [`crate::coerce()`].
    pub unique: bool,
    /// Binary predicates only: relates each source individual to at most one
    /// target (e.g. a reference field). Exploited by [`crate::coerce()`].
    pub function: bool,
    /// Defining formula for an *instrumentation* predicate. Coerce uses it as
    /// a consistency constraint; `None` marks a core predicate.
    pub defining: Option<Formula>,
}

impl PredFlags {
    /// Flags for a reference program variable: unique and abstraction-relevant.
    pub fn reference_variable() -> PredFlags {
        PredFlags {
            abstraction: true,
            unique: true,
            ..PredFlags::default()
        }
    }

    /// Flags for a reference field: a partial function between individuals.
    pub fn reference_field() -> PredFlags {
        PredFlags {
            function: true,
            ..PredFlags::default()
        }
    }

    /// Flags for a boolean field tracked as an abstraction predicate
    /// (typestate bits such as `closed`).
    pub fn boolean_field() -> PredFlags {
        PredFlags {
            abstraction: true,
            ..PredFlags::default()
        }
    }

    /// Flags for a type/allocation-site predicate: immutable per individual,
    /// participates in abstraction.
    pub fn site() -> PredFlags {
        PredFlags {
            abstraction: true,
            ..PredFlags::default()
        }
    }
}

#[derive(Debug, Clone)]
struct PredInfo {
    name: String,
    arity: Arity,
    flags: PredFlags,
    /// Slot within the per-arity storage of a [`crate::Structure`].
    slot: u32,
}

/// Registry of the predicate vocabulary of an analysis instance.
///
/// # Example
///
/// ```
/// use hetsep_tvl::{PredTable, PredFlags, Arity};
/// let mut t = PredTable::new();
/// let x = t.add_unary("x", PredFlags::reference_variable());
/// let f = t.add_binary("f", PredFlags::reference_field());
/// assert_eq!(t.name(x), "x");
/// assert_eq!(t.arity(f), Arity::Binary);
/// assert_eq!(t.lookup("x"), Some(x));
/// ```
#[derive(Debug, Default, Clone)]
pub struct PredTable {
    preds: Vec<PredInfo>,
    by_name: HashMap<String, PredId>,
    nullary_count: u32,
    unary_count: u32,
    binary_count: u32,
    /// The built-in summary predicate `sm`.
    sm: Option<PredId>,
    /// The built-in allocation marker predicate `isnew`.
    isnew: Option<PredId>,
    /// The relevance mask `(c, P)` of heterogeneous abstraction, `P` in
    /// ascending id order.
    mask: Option<(PredId, Vec<PredId>)>,
}

impl PredTable {
    /// Creates an empty table and registers the built-in predicates `sm`
    /// (summary) and `isnew` (allocation marker); both are unary and
    /// non-abstraction.
    pub fn new() -> PredTable {
        let mut t = PredTable::default();
        let sm = t.add_unary("sm", PredFlags::default());
        t.sm = Some(sm);
        let isnew = t.add_unary("isnew", PredFlags::default());
        t.isnew = Some(isnew);
        t
    }

    fn add(&mut self, name: &str, arity: Arity, flags: PredFlags) -> PredId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate predicate name {name:?}"
        );
        if flags.abstraction || flags.unique {
            assert_eq!(arity, Arity::Unary, "{name}: abstraction/unique predicates must be unary");
        }
        if flags.function {
            assert_eq!(arity, Arity::Binary, "{name}: functional predicates must be binary");
        }
        let slot = match arity {
            Arity::Nullary => {
                self.nullary_count += 1;
                self.nullary_count - 1
            }
            Arity::Unary => {
                self.unary_count += 1;
                self.unary_count - 1
            }
            Arity::Binary => {
                self.binary_count += 1;
                self.binary_count - 1
            }
        };
        let id = PredId(self.preds.len() as u32);
        self.preds.push(PredInfo {
            name: name.to_owned(),
            arity,
            flags,
            slot,
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Registers a nullary predicate.
    ///
    /// # Panics
    ///
    /// Panics when the name is already registered or flags are inconsistent
    /// with the arity.
    pub fn add_nullary(&mut self, name: &str, flags: PredFlags) -> PredId {
        self.add(name, Arity::Nullary, flags)
    }

    /// Registers a unary predicate.
    ///
    /// # Panics
    ///
    /// Panics when the name is already registered or flags are inconsistent
    /// with the arity.
    pub fn add_unary(&mut self, name: &str, flags: PredFlags) -> PredId {
        self.add(name, Arity::Unary, flags)
    }

    /// Registers a binary predicate.
    ///
    /// # Panics
    ///
    /// Panics when the name is already registered or flags are inconsistent
    /// with the arity.
    pub fn add_binary(&mut self, name: &str, flags: PredFlags) -> PredId {
        self.add(name, Arity::Binary, flags)
    }

    /// The built-in summary predicate `sm`: `sm(u) = 1/2` marks a summary
    /// node that may represent several concrete individuals.
    pub fn sm(&self) -> PredId {
        self.sm.expect("PredTable::new registers sm")
    }

    /// The built-in allocation marker `isnew`: during the update phase of an
    /// allocating action it holds exactly for the freshly created individual,
    /// and is reset to `False` afterwards (see [`crate::action::Action`]).
    pub fn isnew(&self) -> PredId {
        self.isnew.expect("PredTable::new registers isnew")
    }

    /// Looks up a predicate by name.
    pub fn lookup(&self, name: &str) -> Option<PredId> {
        self.by_name.get(name).copied()
    }

    /// Name the predicate was registered under.
    pub fn name(&self, id: PredId) -> &str {
        &self.preds[id.index()].name
    }

    /// Arity of the predicate.
    pub fn arity(&self, id: PredId) -> Arity {
        self.preds[id.index()].arity
    }

    /// Semantic attributes of the predicate.
    pub fn flags(&self, id: PredId) -> &PredFlags {
        &self.preds[id.index()].flags
    }

    /// Replaces the semantic attributes of a predicate.
    ///
    /// Used by higher layers to toggle the abstraction-predicate set, e.g.
    /// when switching between homogeneous and heterogeneous abstraction.
    ///
    /// # Panics
    ///
    /// Panics if the new flags are inconsistent with the predicate's arity.
    pub fn set_flags(&mut self, id: PredId, flags: PredFlags) {
        let arity = self.arity(id);
        if flags.abstraction || flags.unique {
            assert_eq!(arity, Arity::Unary);
        }
        if flags.function {
            assert_eq!(arity, Arity::Binary);
        }
        self.preds[id.index()].flags = flags;
    }

    /// Sets the relevance mask `(c, P)` of heterogeneous abstraction (paper
    /// §5): canonical abstraction keys every `p ∈ P` on the Kleene
    /// conjunction `p ∧ c` in addition to the abstraction predicates, so
    /// `P` separates individuals only where `c` is not false (see
    /// [`crate::canon::name_columns`]). `P` is stored in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `c` or a member of `P` is not unary.
    pub fn set_relevance_mask(&mut self, c: PredId, mut preds: Vec<PredId>) {
        for &p in preds.iter().chain([&c]) {
            let name = self.name(p);
            assert_eq!(self.arity(p), Arity::Unary, "{name}: masked predicates must be unary");
        }
        preds.sort_unstable();
        self.mask = Some((c, preds));
    }

    /// The relevance mask `(c, P)`, if one is set.
    pub fn relevance_mask(&self) -> Option<(PredId, &[PredId])> {
        self.mask.as_ref().map(|(c, preds)| (*c, preds.as_slice()))
    }

    /// Storage slot of the predicate within its arity class.
    pub(crate) fn slot(&self, id: PredId) -> usize {
        self.preds[id.index()].slot as usize
    }

    /// Number of registered nullary predicates.
    pub fn nullary_count(&self) -> usize {
        self.nullary_count as usize
    }

    /// Number of registered unary predicates (including `sm`).
    pub fn unary_count(&self) -> usize {
        self.unary_count as usize
    }

    /// Number of registered binary predicates.
    pub fn binary_count(&self) -> usize {
        self.binary_count as usize
    }

    /// Total number of registered predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether no predicate has been registered (never true: `sm` is built in).
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Iterates over all predicate ids in registration order.
    pub fn iter(&self) -> impl Iterator<Item = PredId> + '_ {
        (0..self.preds.len() as u32).map(PredId)
    }

    /// Iterates over predicates of the given arity.
    pub fn iter_arity(&self, arity: Arity) -> impl Iterator<Item = PredId> + '_ {
        self.iter().filter(move |&p| self.arity(p) == arity)
    }

    /// Unary predicates that currently participate in canonical abstraction.
    pub fn abstraction_preds(&self) -> Vec<PredId> {
        self.iter()
            .filter(|&p| self.flags(p).abstraction)
            .collect()
    }

    /// Unary predicates marked `unique`.
    pub fn unique_preds(&self) -> Vec<PredId> {
        self.iter().filter(|&p| self.flags(p).unique).collect()
    }

    /// Binary predicates marked `function`.
    pub fn function_preds(&self) -> Vec<PredId> {
        self.iter().filter(|&p| self.flags(p).function).collect()
    }

    /// Predicates that carry a defining formula (instrumentation predicates).
    pub fn instrumentation_preds(&self) -> Vec<PredId> {
        self.iter()
            .filter(|&p| self.flags(p).defining.is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_and_lookup() {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let n = t.add_binary("next", PredFlags::reference_field());
        let b = t.add_nullary("flag", PredFlags::default());
        assert_eq!(t.lookup("x"), Some(x));
        assert_eq!(t.lookup("next"), Some(n));
        assert_eq!(t.lookup("flag"), Some(b));
        assert_eq!(t.lookup("missing"), None);
        assert_eq!(t.arity(x), Arity::Unary);
        assert_eq!(t.arity(n), Arity::Binary);
        assert_eq!(t.arity(b), Arity::Nullary);
        assert_eq!(t.name(x), "x");
    }

    #[test]
    fn sm_is_builtin() {
        let t = PredTable::new();
        let sm = t.sm();
        assert_eq!(t.name(sm), "sm");
        assert_eq!(t.arity(sm), Arity::Unary);
        assert!(!t.flags(sm).abstraction);
    }

    #[test]
    fn slots_are_per_arity() {
        let mut t = PredTable::new();
        let a = t.add_unary("a", PredFlags::default());
        let f = t.add_binary("f", PredFlags::default());
        let g = t.add_binary("g", PredFlags::default());
        let b = t.add_unary("b", PredFlags::default());
        // sm occupies unary slot 0, isnew slot 1.
        assert_eq!(t.slot(a), 2);
        assert_eq!(t.slot(b), 3);
        assert_eq!(t.slot(f), 0);
        assert_eq!(t.slot(g), 1);
        assert_eq!(t.unary_count(), 4);
        assert_eq!(t.binary_count(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate predicate name")]
    fn duplicate_names_rejected() {
        let mut t = PredTable::new();
        t.add_unary("x", PredFlags::default());
        t.add_unary("x", PredFlags::default());
    }

    #[test]
    #[should_panic(expected = "must be unary")]
    fn abstraction_requires_unary() {
        let mut t = PredTable::new();
        t.add_binary(
            "f",
            PredFlags {
                abstraction: true,
                ..PredFlags::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "must be binary")]
    fn function_requires_binary() {
        let mut t = PredTable::new();
        t.add_unary(
            "x",
            PredFlags {
                function: true,
                ..PredFlags::default()
            },
        );
    }

    #[test]
    fn categorized_iterators() {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let f = t.add_binary("f", PredFlags::reference_field());
        let c = t.add_unary("closed", PredFlags::boolean_field());
        assert_eq!(t.unique_preds(), vec![x]);
        assert_eq!(t.function_preds(), vec![f]);
        assert_eq!(t.abstraction_preds(), vec![x, c]);
        assert_eq!(t.iter_arity(Arity::Binary).count(), 1);
    }

    #[test]
    fn set_flags_toggles_abstraction() {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::default());
        assert!(t.abstraction_preds().is_empty());
        t.set_flags(
            x,
            PredFlags {
                abstraction: true,
                ..PredFlags::default()
            },
        );
        assert_eq!(t.abstraction_preds(), vec![x]);
    }

    #[test]
    fn relevance_mask_is_sorted() {
        let mut t = PredTable::new();
        let a = t.add_unary("a", PredFlags::default());
        let b = t.add_unary("b", PredFlags::default());
        let c = t.add_unary("c", PredFlags::default());
        assert_eq!(t.relevance_mask(), None);
        t.set_relevance_mask(c, vec![b, a]);
        assert_eq!(t.relevance_mask(), Some((c, &[a, b][..])));
    }

    #[test]
    #[should_panic(expected = "must be unary")]
    fn relevance_mask_requires_unary() {
        let mut t = PredTable::new();
        let c = t.add_unary("c", PredFlags::default());
        let f = t.add_binary("f", PredFlags::default());
        t.set_relevance_mask(c, vec![f]);
    }
}
