//! Three-valued evaluation of formulas over structures.
//!
//! Evaluation follows the standard 3-valued Kleene semantics of the
//! parametric framework: quantifiers fold their connective over the universe,
//! equality on a summary node yields `1/2`, and transitive closure is computed
//! as a relational fixpoint. The result is a *conservative* approximation: if
//! the structure embeds a concrete state, the concrete truth value is always
//! `⊑`-below the abstract one (soundness — see the embedding tests in
//! [`crate::embed`]).
//!
//! # Word-parallel kernels
//!
//! An open formula is evaluated at *every* binding of one variable at once
//! ([`Evaluator::planes`]). The result is a pair of *threshold planes* of
//! `stride` words each, one bit per node: `t` holds the lanes whose value is
//! `1`, `m` the lanes whose value is `≥ 1/2` (so `t ⊆ m`, and a lane in
//! `m \ t` is `1/2`). Kleene logic is monotone in both thresholds, so every
//! connective is a word-wise boolean operation on 64 lanes at a time:
//!
//! * `∧` / `∨` are word-wise and / or of both planes;
//! * `¬` swaps the planes and complements them within the valid-lane mask;
//! * a unary atom `p(x)` is its slot's planes `(t, t | h)`; a binary atom is
//!   a plane row when its source is bound, and a row of the predicate's
//!   transpose when its target is (built once per [`Evaluator`], on the
//!   first such read); equality is the diagonal, with summary nodes at
//!   `1/2`;
//! * `∃w` / `∀w` over a body that mentions the swept variable `x` is a
//!   *relational product*: the body's operands free of `x` form a selector
//!   `φ(w)`, swept once over `w`, and the rest `ρ(w, x)` is swept over `x`
//!   once per selected lane `w` and or-ed (`∃`) or and-ed (`∀`) into the
//!   result. `∃w. φ(w) ∧ R(w, x)` is thus a word-or of `R`'s rows over
//!   `φ`'s set bits;
//! * a subformula whose only free variable is the one it is swept over is
//!   *hoisted*: its plane is computed once per [`Evaluator`] and reused by
//!   every lane and every later sweep, which keeps `∃z. (∃x. p(x) ∧
//!   f(x, z)) ∧ g(z, u)` quadratic instead of cubic in the universe size;
//! * **transitive closure** decomposes into two *boolean* closures: a path
//!   is `True` iff some path uses only `True` edges, and `≠ False` iff some
//!   path uses only `≠ False` edges. Each boolean closure is a bit-matrix
//!   Warshall pass whose inner step or-s whole 64-lane words, dropping the
//!   fixpoint from O(n³) element steps to O(n³/64) word steps. A closure
//!   whose step relation depends only on its own two variables is computed
//!   once per [`Evaluator`].
//!
//! Scalar evaluation ([`eval`], [`eval_closed`]) is the same evaluator: a
//! quantifier folds the plane of its body (any `t` bit / any `m` bit, or
//! dually any valid zero), so the only per-node loops left are the diagonals
//! (`f(x, x)`, `x = x`) and the lane-by-lane fallback for a closure whose
//! step relation mentions the swept variable (a subformula with more than
//! two free variables).
//!
//! Planes live on a word stack in a [`Scratch`] that callers reuse across
//! sweeps, so a sweep allocates nothing per node or per subformula.

use crate::bits;
use crate::formula::{Formula, Var};
use crate::kleene::Kleene;
use crate::pred::{Arity, PredTable};
use crate::structure::{NodeId, Structure};

/// A partial assignment of individuals to logical variables.
#[derive(Debug, Default, Clone)]
pub struct Assignment {
    slots: Vec<Option<NodeId>>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// Creates an assignment binding each `(var, node)` pair.
    pub fn of(bindings: impl IntoIterator<Item = (Var, NodeId)>) -> Assignment {
        let mut a = Assignment::new();
        for (v, n) in bindings {
            a.bind(v, n);
        }
        a
    }

    /// Binds `v` to `node`, growing the assignment as needed.
    pub fn bind(&mut self, v: Var, node: NodeId) {
        let ix = v.0 as usize;
        if self.slots.len() <= ix {
            self.slots.resize(ix + 1, None);
        }
        self.slots[ix] = Some(node);
    }

    /// Removes the binding of `v`, if any.
    pub fn unbind(&mut self, v: Var) {
        if let Some(slot) = self.slots.get_mut(v.0 as usize) {
            *slot = None;
        }
    }

    /// Current binding of `v`.
    pub fn get(&self, v: Var) -> Option<NodeId> {
        self.slots.get(v.0 as usize).copied().flatten()
    }

    /// Resolves a variable that the evaluator requires to be bound.
    ///
    /// Every caller either binds the variable itself (quantifiers, `Tc`) or
    /// documents that free variables of the formula must be bound, so a miss
    /// here is a caller contract violation, not a recoverable state — hence
    /// `unreachable!`, with the offending subformula for context.
    fn lookup(&self, v: Var, ctx: &Formula) -> NodeId {
        self.get(v).unwrap_or_else(|| {
            unreachable!(
                "unbound variable {v} while evaluating {ctx} — \
                 callers must bind every free variable before evaluation"
            )
        })
    }

    /// Restores `v` to a binding saved with [`Assignment::get`].
    fn restore(&mut self, v: Var, saved: Option<NodeId>) {
        match saved {
            Some(node) => self.bind(v, node),
            None => self.unbind(v),
        }
    }
}

/// A transitive-closure matrix in threshold form: `t` holds the lanes whose
/// closure value is `True`, `m` the lanes whose value is `≠ False`. Rows are
/// `stride` words.
#[derive(Debug)]
struct TcBits {
    t: Vec<u64>,
    m: Vec<u64>,
    /// The transposes of `t` and `m`, built on the first column read.
    cols: Option<(Vec<u64>, Vec<u64>)>,
}

/// How a swept quantifier node `∃w. body` / `∀w. body` is evaluated.
#[derive(Debug, Clone, Copy)]
enum Split {
    /// The node does not mention the swept variable: one scalar value.
    Closed,
    /// A relational product whose selector is every lane of `w`.
    Whole,
    /// A relational product whose selector is the left operand of the
    /// body's `∧` (under `∃`) or `∨` (under `∀`), free of the swept
    /// variable; the right operand is the relation.
    Left,
    /// As [`Split::Left`], with the operands' roles swapped.
    Right,
}

/// A quantifier node's sweep entry, decided on first use.
#[derive(Debug, Clone, Copy)]
struct Sweep {
    /// Address of the quantifier node.
    key: usize,
    /// The swept variable.
    var: Var,
    split: Split,
    held: Held,
}

/// Whether a swept quantifier node's plane is hoisted.
#[derive(Debug, Clone, Copy)]
enum Held {
    /// The node has free variables besides the swept one.
    No,
    /// Hoisted; the plane is computed on first use into the reserved
    /// `held` slot at this offset.
    Pending(usize),
    /// Hoisted and computed at this offset of `held`.
    Ready(usize),
}

/// Reusable buffers of an [`Evaluator`]: the plane stack and the per-
/// structure caches (quantifier sweep entries, hoisted planes, closures).
///
/// Keep one `Scratch` per sweeping loop; each [`Evaluator::new`] empties the
/// caches, so a scratch carries no state from one structure to the next.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Plane frames, `2 · stride` words each (`t` then `m`).
    stack: Vec<u64>,
    /// Quantifier sweep entries.
    sweeps: Vec<Sweep>,
    /// Hoisted planes, `2 · stride` words each.
    held: Vec<u64>,
    /// Closure matrices keyed by `Tc` body address: cached ones (bodies free
    /// only in their own two variables) stay for the evaluator's lifetime.
    closures: Vec<(usize, TcBits)>,
    /// Transposed `(t, h)` planes of the binary slots read by column, keyed
    /// by slot.
    transposes: Vec<(usize, Vec<u64>, Vec<u64>)>,
}

/// Evaluates formulas over one structure, one variable's bindings at a time.
///
/// The caches in the [`Scratch`] are keyed by subformula address and hold
/// values computed over the structure, so the evaluator borrows both the
/// structure and every formula it is given for its whole lifetime: the
/// caches stay exact without any invalidation. A caller that mutates the
/// structure drops the evaluator first and makes a new one afterwards.
pub struct Evaluator<'a> {
    s: &'a Structure,
    table: &'a PredTable,
    n: usize,
    stride: usize,
    buf: &'a mut Scratch,
}

impl<'a> Evaluator<'a> {
    /// An evaluator over `s`, using (and emptying) `buf`.
    pub fn new(s: &'a Structure, table: &'a PredTable, buf: &'a mut Scratch) -> Evaluator<'a> {
        buf.stack.clear();
        buf.sweeps.clear();
        buf.held.clear();
        buf.closures.clear();
        buf.transposes.clear();
        Evaluator { s, table, n: s.node_count(), stride: s.stride_words(), buf }
    }

    /// Evaluates `f` at every binding of `var` (its other free variables are
    /// read from `asg`) and returns the threshold planes `(t, m)`: lane `u`
    /// of `t` is set iff `f[var ↦ u] = 1`, of `m` iff `f[var ↦ u] ≥ 1/2`.
    /// Padding lanes past the universe are zero.
    ///
    /// # Panics
    ///
    /// Panics if a free variable other than `var` is unbound in `asg`, or if
    /// a predicate is applied at the wrong arity.
    pub fn planes(&mut self, f: &'a Formula, var: Var, asg: &mut Assignment) -> (&[u64], &[u64]) {
        self.buf.stack.clear();
        let at = self.push();
        self.fill(f, var, asg, at);
        self.buf.stack.split_at(self.stride)
    }

    /// Evaluates `f` under `asg`.
    ///
    /// # Panics
    ///
    /// Panics if a free variable of `f` is unbound in `asg`, or if a
    /// predicate is applied at the wrong arity.
    pub fn eval(&mut self, f: &'a Formula, asg: &mut Assignment) -> Kleene {
        let (s, table) = (self.s, self.table);
        match f {
            Formula::Const(k) => *k,
            Formula::Nullary(p) => s.nullary(table, *p),
            Formula::Unary(p, v) => s.unary(table, *p, asg.lookup(*v, f)),
            Formula::Binary(p, a, b) => s.binary(table, *p, asg.lookup(*a, f), asg.lookup(*b, f)),
            Formula::Eq(a, b) => {
                let (u, v) = (asg.lookup(*a, f), asg.lookup(*b, f));
                if u != v {
                    Kleene::False
                } else if s.is_summary(table, u) {
                    // A summary node may represent several distinct individuals.
                    Kleene::Unknown
                } else {
                    Kleene::True
                }
            }
            Formula::Not(g) => !self.eval(g, asg),
            Formula::And(l, r) => {
                let lv = self.eval(l, asg);
                if lv == Kleene::False {
                    return Kleene::False;
                }
                lv & self.eval(r, asg)
            }
            Formula::Or(l, r) => {
                let lv = self.eval(l, asg);
                if lv == Kleene::True {
                    return Kleene::True;
                }
                lv | self.eval(r, asg)
            }
            Formula::Exists(v, body) | Formula::Forall(v, body) => {
                let at = self.push();
                self.fill(body, *v, asg, at);
                let val = self.fold(at, matches!(f, Formula::Exists(..)));
                self.buf.stack.truncate(at);
                val
            }
            Formula::Tc { lhs, rhs, a, b, body } => {
                let (u, v) = (asg.lookup(*lhs, f), asg.lookup(*rhs, f));
                let (ix, temporary) = self.closure(*a, *b, body, asg);
                let tc = &self.buf.closures[ix].1;
                let val = lane_of(&tc.t, &tc.m, u.index() * self.stride, v.index());
                if temporary {
                    self.buf.closures.pop();
                }
                val
            }
        }
    }

    /// Pushes a zeroed frame and returns its offset.
    fn push(&mut self) -> usize {
        let at = self.buf.stack.len();
        self.buf.stack.resize(at + 2 * self.stride, 0);
        at
    }

    /// Mask of the valid lanes of plane word `w`.
    #[inline]
    fn valid(&self, w: usize) -> u64 {
        bits::word_mask(self.n, w)
    }

    /// Sets every lane of frame `at` to `k`.
    fn broadcast(&mut self, at: usize, k: Kleene) {
        let (tb, mb) = (k == Kleene::True, k != Kleene::False);
        for w in 0..self.stride {
            let valid = self.valid(w);
            self.buf.stack[at + w] = if tb { valid } else { 0 };
            self.buf.stack[at + self.stride + w] = if mb { valid } else { 0 };
        }
    }

    /// Sets lane `u` of frame `at` (whose lane is still zero) to `k`.
    #[inline]
    fn set(&mut self, at: usize, u: usize, k: Kleene) {
        let (w, b) = bits::lane(u);
        self.buf.stack[at + w] |= u64::from(k == Kleene::True) << b;
        self.buf.stack[at + self.stride + w] |= u64::from(k != Kleene::False) << b;
    }

    /// Folds frame `at` under `∃` (`exists`) or `∀`. An empty universe
    /// folds to the connective's unit.
    fn fold(&self, at: usize, exists: bool) -> Kleene {
        let frame = &self.buf.stack[at..at + 2 * self.stride];
        let (t, m) = frame.split_at(self.stride);
        if exists {
            if bits::any_set(t) {
                Kleene::True
            } else if bits::any_set(m) {
                Kleene::Unknown
            } else {
                Kleene::False
            }
        } else if bits::any_false(m, m, self.n) {
            Kleene::False
        } else if bits::any_false(t, t, self.n) {
            Kleene::Unknown
        } else {
            Kleene::True
        }
    }

    /// Writes the planes of `f` swept over `x` into the zeroed frame `at`,
    /// which is the top of the stack; frames pushed above it are popped
    /// before returning.
    fn fill(&mut self, f: &'a Formula, x: Var, asg: &mut Assignment, at: usize) {
        let (s, table, st) = (self.s, self.table, self.stride);
        match f {
            Formula::Unary(p, v) if *v == x => {
                assert_eq!(table.arity(*p), Arity::Unary);
                let (t, h) = s.unary_planes(table.slot(*p));
                copy_row(&mut self.buf.stack[at..at + 2 * st], t, h);
            }
            Formula::Binary(p, a, b) if *a == x || *b == x => {
                assert_eq!(table.arity(*p), Arity::Binary);
                let slot = table.slot(*p);
                if *a != x {
                    let (t, h) = s.binary_row(slot, asg.lookup(*a, f).index());
                    copy_row(&mut self.buf.stack[at..at + 2 * st], t, h);
                } else if *b != x {
                    // A column probe `f(x, w)`: row `w` of the transpose.
                    let col = asg.lookup(*b, f).index() * st;
                    let ix = self.transposed(slot);
                    let Scratch { stack, transposes, .. } = &mut *self.buf;
                    let (_, t, h) = &transposes[ix];
                    copy_row(&mut stack[at..at + 2 * st], &t[col..col + st], &h[col..col + st]);
                } else {
                    // The diagonal `f(x, x)`: one bit per row.
                    for u in 0..self.n {
                        let k = s.get_b(slot, u, u);
                        self.set(at, u, k);
                    }
                }
            }
            Formula::Eq(a, b) if *a == x || *b == x => {
                let (_, sm) = s.unary_planes(table.slot(table.sm()));
                if *a == x && *b == x {
                    for (w, sm) in sm.iter().enumerate() {
                        let valid = self.valid(w);
                        self.buf.stack[at + w] = valid & !sm;
                        self.buf.stack[at + st + w] = valid;
                    }
                } else {
                    let other = asg.lookup(if *a == x { *b } else { *a }, f);
                    let k = if s.is_summary(table, other) { Kleene::Unknown } else { Kleene::True };
                    self.set(at, other.index(), k);
                }
            }
            Formula::Const(_)
            | Formula::Nullary(_)
            | Formula::Unary(..)
            | Formula::Binary(..)
            | Formula::Eq(..) => {
                let k = self.eval(f, asg);
                self.broadcast(at, k);
            }
            Formula::Not(g) => {
                self.fill(g, x, asg, at);
                for w in 0..st {
                    let valid = self.valid(w);
                    let (t, m) = (self.buf.stack[at + w], self.buf.stack[at + st + w]);
                    self.buf.stack[at + w] = valid & !m;
                    self.buf.stack[at + st + w] = valid & !t;
                }
            }
            Formula::And(l, r) | Formula::Or(l, r) => {
                let and = matches!(f, Formula::And(..));
                self.fill(l, x, asg, at);
                // Short-circuit on a decided left operand: all lanes `0`
                // under `∧`, all lanes `1` under `∨`.
                let decided = if and {
                    !bits::any_set(&self.buf.stack[at + st..at + 2 * st])
                } else {
                    !bits::any_false(&self.buf.stack[at..at + st], &self.buf.stack[at..at + st], self.n)
                };
                if decided {
                    return;
                }
                let rat = self.push();
                self.fill(r, x, asg, rat);
                let (lo, hi) = self.buf.stack.split_at_mut(rat);
                combine(&mut lo[at..], hi, and);
                self.buf.stack.truncate(rat);
            }
            Formula::Exists(w, _) | Formula::Forall(w, _) => {
                if *w == x {
                    // The quantifier rebinds `x`: the node does not mention it.
                    let k = self.eval(f, asg);
                    self.broadcast(at, k);
                    return;
                }
                let ix = self.sweep_of(f, x);
                let Sweep { split, held, .. } = self.buf.sweeps[ix];
                if let Held::Ready(off) = held {
                    let Scratch { stack, held, .. } = &mut *self.buf;
                    stack[at..at + 2 * st].copy_from_slice(&held[off..off + 2 * st]);
                    return;
                }
                if let Split::Closed = split {
                    let k = self.eval(f, asg);
                    self.broadcast(at, k);
                } else {
                    self.product(f, split, x, asg, at);
                }
                if let Held::Pending(off) = held {
                    let Scratch { stack, held, sweeps, .. } = &mut *self.buf;
                    held[off..off + 2 * st].copy_from_slice(&stack[at..at + 2 * st]);
                    sweeps[ix].held = Held::Ready(off);
                }
            }
            Formula::Tc { lhs, rhs, a, b, body } => {
                let body_mentions_x = *a != x && *b != x && mentions(body, x);
                if body_mentions_x {
                    // The step relation depends on the swept variable: one
                    // closure per lane.
                    let saved = asg.get(x);
                    for u in 0..self.n {
                        asg.bind(x, NodeId::from_index(u));
                        let k = self.eval(f, asg);
                        self.set(at, u, k);
                    }
                    asg.restore(x, saved);
                } else if *lhs != x && *rhs != x {
                    let k = self.eval(f, asg);
                    self.broadcast(at, k);
                } else {
                    let src = (*lhs != x).then(|| asg.lookup(*lhs, f).index());
                    let dst = (*rhs != x).then(|| asg.lookup(*rhs, f).index());
                    let (ix, temporary) = self.closure(*a, *b, body, asg);
                    let n = self.n;
                    let Scratch { stack, closures, .. } = &mut *self.buf;
                    let tc = &mut closures[ix].1;
                    let (t, m) = stack[at..at + 2 * st].split_at_mut(st);
                    match (src, dst) {
                        (Some(row), _) => {
                            t.copy_from_slice(&tc.t[row * st..(row + 1) * st]);
                            m.copy_from_slice(&tc.m[row * st..(row + 1) * st]);
                        }
                        (None, Some(col)) => {
                            // A column read: a row of the transpose.
                            let (ct, cm) = tc
                                .cols
                                .get_or_insert_with(|| (transpose(&tc.t, n, st), transpose(&tc.m, n, st)));
                            t.copy_from_slice(&ct[col * st..(col + 1) * st]);
                            m.copy_from_slice(&cm[col * st..(col + 1) * st]);
                        }
                        (None, None) => {
                            // The diagonal: one bit per row.
                            for u in 0..n {
                                let k = lane_of(&tc.t, &tc.m, u * st, u);
                                let (w, bit) = bits::lane(u);
                                t[w] |= u64::from(k == Kleene::True) << bit;
                                m[w] |= u64::from(k != Kleene::False) << bit;
                            }
                        }
                    }
                    if temporary {
                        closures.pop();
                    }
                }
            }
        }
    }

    /// Writes the quantifier node `f`, `∃w. φ(w) ∧ ρ(w, x)` or
    /// `∀w. φ(w) ∨ ρ(w, x)` with its operands picked by `split`, swept over
    /// `x`, into the zeroed frame `at` as a relational product: `φ`'s plane
    /// over `w` selects the lanes `w` whose plane of `ρ` over `x` is or-ed
    /// (`∃`) or and-ed (`∀`) into the frame. Under [`Split::Whole`] the body
    /// is `ρ` and every lane of `w` is selected.
    ///
    /// Per threshold: `∃` is `1` at `x` iff some `w` has `φ = 1` and
    /// `ρ = 1`, and `≥ 1/2` iff some `w` has both `≥ 1/2`, so the `t` plane
    /// folds the rows of `φ`'s `t` lanes and the `m` plane those of its `m`
    /// lanes. Dually `∀` is `1` iff every `w` with `φ < 1` has `ρ = 1`, and
    /// `≥ 1/2` iff every `w` with `φ = 0` has `ρ ≥ 1/2`. Either way the
    /// lanes of one threshold contain those of the other, so `ρ` is swept
    /// once per lane of the wider set.
    fn product(&mut self, f: &'a Formula, split: Split, x: Var, asg: &mut Assignment, at: usize) {
        let (exists, w, body) = match f {
            Formula::Exists(w, body) => (true, *w, &**body),
            Formula::Forall(w, body) => (false, *w, &**body),
            _ => unreachable!("relational products are made for quantifier nodes"),
        };
        let (phi, rho) = match (split, body) {
            (Split::Left, Formula::And(l, r) | Formula::Or(l, r)) => (Some(&**l), &**r),
            (Split::Right, Formula::And(l, r) | Formula::Or(l, r)) => (Some(&**r), &**l),
            _ => (None, body),
        };
        let st = self.stride;
        let sel = self.push();
        match phi {
            Some(phi) => self.fill(phi, w, asg, sel),
            // The unit of the body's connective selects every lane.
            None => self.broadcast(sel, Kleene::from_bool(exists)),
        }
        if !exists {
            // `∀` folds the lanes where `φ` misses a threshold, starting
            // from all lanes true.
            for i in 0..st {
                let valid = self.valid(i);
                let stack = &mut self.buf.stack;
                stack[sel + i] = valid & !stack[sel + i];
                stack[sel + st + i] = valid & !stack[sel + st + i];
                stack[at + i] = valid;
                stack[at + st + i] = valid;
            }
        }
        let wide = if exists { sel + st } else { sel };
        let saved = asg.get(w);
        for i in 0..st {
            let mut word = self.buf.stack[wide + i];
            while word != 0 {
                let bit = word.trailing_zeros();
                word &= word - 1;
                asg.bind(w, NodeId::from_index(i * bits::WORD_BITS + bit as usize));
                let rat = self.push();
                self.fill(rho, x, asg, rat);
                let (lo, hi) = self.buf.stack.split_at_mut(rat);
                for plane in [0, st] {
                    if (lo[sel + plane + i] >> bit) & 1 != 0 {
                        combine(&mut lo[at + plane..at + plane + st], &hi[plane..plane + st], !exists);
                    }
                }
                self.buf.stack.truncate(rat);
            }
        }
        asg.restore(w, saved);
        self.buf.stack.truncate(sel);
    }

    /// Index in `sweeps` of the entry for quantifier node `f` swept over
    /// `x`, made on first use.
    fn sweep_of(&mut self, f: &'a Formula, x: Var) -> usize {
        let key = f as *const Formula as usize;
        if let Some(ix) = self.buf.sweeps.iter().position(|e| e.key == key && e.var == x) {
            return ix;
        }
        let split = match f {
            _ if !mentions(f, x) => Split::Closed,
            Formula::Exists(_, body) | Formula::Forall(_, body) => match &**body {
                Formula::And(l, r) | Formula::Or(l, r)
                    if matches!(**body, Formula::And(..)) == matches!(f, Formula::Exists(..)) =>
                {
                    if !mentions(l, x) {
                        Split::Left
                    } else if !mentions(r, x) {
                        Split::Right
                    } else {
                        Split::Whole
                    }
                }
                _ => Split::Whole,
            },
            _ => unreachable!("sweep entries are made for quantifier nodes"),
        };
        // Free only in `x`: the plane is a function of the structure alone.
        let held = if free_within(f, x, &Bound::Nil) {
            let off = self.buf.held.len();
            self.buf.held.resize(off + 2 * self.stride, 0);
            Held::Pending(off)
        } else {
            Held::No
        };
        self.buf.sweeps.push(Sweep { key, var: x, split, held });
        self.buf.sweeps.len() - 1
    }

    /// Index in `transposes` of binary slot `slot`'s transpose, built on the
    /// first column read.
    fn transposed(&mut self, slot: usize) -> usize {
        if let Some(ix) = self.buf.transposes.iter().position(|(k, ..)| *k == slot) {
            return ix;
        }
        let (t, h) = self.s.binary_slot_planes(slot);
        let (tt, th) = (transpose(t, self.n, self.stride), transpose(h, self.n, self.stride));
        self.buf.transposes.push((slot, tt, th));
        self.buf.transposes.len() - 1
    }

    /// Index in `closures` of the closure of `body(a, b)` under `asg`, and
    /// whether it is temporary (the caller pops it after reading). A body
    /// free only in `a` and `b` is closed once per evaluator.
    fn closure(&mut self, a: Var, b: Var, body: &'a Formula, asg: &mut Assignment) -> (usize, bool) {
        let key = body as *const Formula as usize;
        if let Some(ix) = self.buf.closures.iter().position(|(k, _)| *k == key) {
            return (ix, false);
        }
        let tc = self.tc_closure(a, b, body, asg);
        let temporary = !free_within(body, a, &Bound::Cons(b, &Bound::Nil));
        self.buf.closures.push((if temporary { 0 } else { key }, tc));
        (self.buf.closures.len() - 1, temporary)
    }

    /// Computes the 3-valued transitive closure matrix of the step relation
    /// `body(a, b)` under the current outer assignment.
    ///
    /// Paths of length ≥ 1 are considered; traversal *through* a summary
    /// node is handled implicitly (a step into and out of the same summary
    /// node composes its possibly-many members).
    ///
    /// The Kleene closure (max-min path semiring over `0 < 1/2 < 1`)
    /// decomposes into two boolean closures: a pair is `True` iff connected
    /// through `True` edges only, and `≠ False` iff connected through
    /// `≠ False` edges. The step matrix is one plane sweep of `body` over
    /// `b` per binding of `a`, and both closures run as bit-matrix Warshall
    /// passes over whole words.
    fn tc_closure(&mut self, a: Var, b: Var, body: &'a Formula, asg: &mut Assignment) -> TcBits {
        let (n, st) = (self.n, self.stride);
        let mut step_t = vec![0u64; n * st];
        let mut step_m = vec![0u64; n * st];
        let saved = asg.get(a);
        for u in 0..n {
            asg.bind(a, NodeId::from_index(u));
            let at = self.push();
            self.fill(body, b, asg, at);
            step_t[u * st..(u + 1) * st].copy_from_slice(&self.buf.stack[at..at + st]);
            step_m[u * st..(u + 1) * st].copy_from_slice(&self.buf.stack[at + st..at + 2 * st]);
            self.buf.stack.truncate(at);
        }
        asg.restore(a, saved);
        bool_closure(&mut step_t, n, st);
        bool_closure(&mut step_m, n, st);
        TcBits { t: step_t, m: step_m, cols: None }
    }
}

/// Copies a structure row `(t, h)` into a plane frame as `(t, t | h)`.
fn copy_row(frame: &mut [u64], t: &[u64], h: &[u64]) {
    let (ft, fm) = frame.split_at_mut(t.len());
    for w in 0..t.len() {
        ft[w] = t[w];
        fm[w] = t[w] | h[w];
    }
}

/// And-s (`and`) or or-s `src` into `dst`, word by word.
fn combine(dst: &mut [u64], src: &[u64], and: bool) {
    for (d, s) in dst.iter_mut().zip(src) {
        if and {
            *d &= *s;
        } else {
            *d |= *s;
        }
    }
}

/// The transpose of an `n × n` bit matrix with `stride`-word rows: bit `v`
/// of row `u` becomes bit `u` of row `v`, one write per set bit.
fn transpose(rows: &[u64], n: usize, stride: usize) -> Vec<u64> {
    let mut out = vec![0u64; n * stride];
    for u in 0..n {
        let (w, b) = bits::lane(u);
        bits::for_each_set(&rows[u * stride..(u + 1) * stride], |v| out[v * stride + w] |= 1 << b);
    }
    out
}

/// Reads lane `j` of the threshold row starting at word `row`.
#[inline]
fn lane_of(t: &[u64], m: &[u64], row: usize, j: usize) -> Kleene {
    let (w, b) = bits::lane(j);
    let tb = (t[row + w] >> b) & 1 != 0;
    let mb = (m[row + w] >> b) & 1 != 0;
    Kleene::from_bits(tb, mb && !tb)
}

/// Whether `x` occurs free in `f`.
fn mentions(f: &Formula, x: Var) -> bool {
    match f {
        Formula::Const(_) | Formula::Nullary(_) => false,
        Formula::Unary(_, v) => *v == x,
        Formula::Binary(_, a, b) | Formula::Eq(a, b) => *a == x || *b == x,
        Formula::Not(g) => mentions(g, x),
        Formula::And(l, r) | Formula::Or(l, r) => mentions(l, x) || mentions(r, x),
        Formula::Exists(w, g) | Formula::Forall(w, g) => *w != x && mentions(g, x),
        Formula::Tc { lhs, rhs, a, b, body } => {
            *lhs == x || *rhs == x || (*a != x && *b != x && mentions(body, x))
        }
    }
}

/// Variables bound by the quantifiers enclosing a subformula, as a list on
/// the call stack.
enum Bound<'b> {
    Nil,
    Cons(Var, &'b Bound<'b>),
}

impl Bound<'_> {
    fn contains(&self, v: Var) -> bool {
        match self {
            Bound::Nil => false,
            Bound::Cons(w, rest) => *w == v || rest.contains(v),
        }
    }
}

/// Whether every free variable of `f` is `x` or bound by `bound`.
fn free_within(f: &Formula, x: Var, bound: &Bound) -> bool {
    let ok = |v: &Var| *v == x || bound.contains(*v);
    match f {
        Formula::Const(_) | Formula::Nullary(_) => true,
        Formula::Unary(_, v) => ok(v),
        Formula::Binary(_, a, b) | Formula::Eq(a, b) => ok(a) && ok(b),
        Formula::Not(g) => free_within(g, x, bound),
        Formula::And(l, r) | Formula::Or(l, r) => {
            free_within(l, x, bound) && free_within(r, x, bound)
        }
        Formula::Exists(w, g) | Formula::Forall(w, g) => {
            free_within(g, x, &Bound::Cons(*w, bound))
        }
        Formula::Tc { lhs, rhs, a, b, body } => {
            ok(lhs) && ok(rhs) && free_within(body, x, &Bound::Cons(*a, &Bound::Cons(*b, bound)))
        }
    }
}

/// In-place boolean transitive closure (paths of length ≥ 1) of an `n × n`
/// bit adjacency matrix with `stride`-word rows: Warshall's algorithm with
/// the inner union taken a wide-lane block at a time ([`bits::or_into`]).
fn bool_closure(adj: &mut [u64], n: usize, stride: usize) {
    let mut krow = vec![0u64; stride];
    for k in 0..n {
        let (kw, kb) = (k >> 6, (k & 63) as u32);
        krow.copy_from_slice(&adj[k * stride..(k + 1) * stride]);
        for row in adj.chunks_exact_mut(stride).take(n) {
            if (row[kw] >> kb) & 1 != 0 {
                bits::or_into(row, &krow);
            }
        }
    }
}

/// Evaluates `formula` over `s` under `asg`.
///
/// # Panics
///
/// Panics if a free variable of `formula` is unbound in `asg`, or if a
/// predicate is applied at the wrong arity.
pub fn eval(s: &Structure, table: &PredTable, formula: &Formula, asg: &mut Assignment) -> Kleene {
    Evaluator::new(s, table, &mut Scratch::default()).eval(formula, asg)
}

/// Evaluates a closed formula (no free variables).
///
/// # Panics
///
/// Panics if the formula has free variables.
pub fn eval_closed(s: &Structure, table: &PredTable, formula: &Formula) -> Kleene {
    debug_assert!(
        formula.free_vars().is_empty(),
        "eval_closed on open formula {formula}"
    );
    eval(s, table, formula, &mut Assignment::new())
}

/// Evaluates a formula with exactly one free variable at each node, returning
/// the vector of values indexed by node.
pub fn eval_unary_at_all(
    s: &Structure,
    table: &PredTable,
    formula: &Formula,
    var: Var,
) -> Vec<Kleene> {
    let mut buf = Scratch::default();
    let mut ev = Evaluator::new(s, table, &mut buf);
    let (t, m) = ev.planes(formula, var, &mut Assignment::new());
    (0..s.node_count()).map(|u| lane_of(t, m, 0, u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{PredFlags, PredId};

    fn setup() -> (PredTable, PredId, PredId, PredId) {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let f = t.add_binary("f", PredFlags::reference_field());
        let g = t.add_nullary("g", PredFlags::default());
        (t, x, f, g)
    }

    /// x → u0 → u1 → u2 (chain via f), x(u0)=1.
    fn chain(t: &PredTable, x: PredId, f: PredId) -> Structure {
        let mut s = Structure::new(t);
        let nodes: Vec<NodeId> = (0..3).map(|_| s.add_node(t)).collect();
        s.set_unary(t, x, nodes[0], Kleene::True);
        s.set_binary(t, f, nodes[0], nodes[1], Kleene::True);
        s.set_binary(t, f, nodes[1], nodes[2], Kleene::True);
        s
    }

    #[test]
    fn atoms_and_connectives() {
        let (t, x, f, g) = setup();
        let s = chain(&t, x, f);
        let (v0, v1) = (Var(0), Var(1));
        let mut asg = Assignment::of([(v0, NodeId(0)), (v1, NodeId(1))]);
        assert_eq!(eval(&s, &t, &Formula::unary(x, v0), &mut asg), Kleene::True);
        assert_eq!(eval(&s, &t, &Formula::unary(x, v1), &mut asg), Kleene::False);
        assert_eq!(eval(&s, &t, &Formula::binary(f, v0, v1), &mut asg), Kleene::True);
        assert_eq!(eval(&s, &t, &Formula::nullary(g), &mut asg), Kleene::False);
        assert_eq!(
            eval(&s, &t, &Formula::unary(x, v0).and(Formula::unary(x, v1).not()), &mut asg),
            Kleene::True
        );
    }

    #[test]
    fn equality_on_summary_is_unknown() {
        let (t, x, f, _g) = setup();
        let mut s = chain(&t, x, f);
        let v0 = Var(0);
        let mut asg = Assignment::of([(v0, NodeId(1)), (Var(1), NodeId(1))]);
        assert_eq!(eval(&s, &t, &Formula::eq(v0, Var(1)), &mut asg), Kleene::True);
        s.set_summary(&t, NodeId(1), true);
        assert_eq!(eval(&s, &t, &Formula::eq(v0, Var(1)), &mut asg), Kleene::Unknown);
        let mut asg2 = Assignment::of([(v0, NodeId(0)), (Var(1), NodeId(1))]);
        assert_eq!(eval(&s, &t, &Formula::eq(v0, Var(1)), &mut asg2), Kleene::False);
    }

    #[test]
    fn quantifiers() {
        let (t, x, f, _g) = setup();
        let s = chain(&t, x, f);
        let v = Var(0);
        // ∃v. x(v) = 1; ∀v. x(v) = 0
        assert_eq!(
            eval_closed(&s, &t, &Formula::exists(v, Formula::unary(x, v))),
            Kleene::True
        );
        assert_eq!(
            eval_closed(&s, &t, &Formula::forall(v, Formula::unary(x, v))),
            Kleene::False
        );
    }

    #[test]
    fn quantifier_over_unknown_value() {
        let (t, x, _f, _g) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::Unknown);
        let v = Var(0);
        assert_eq!(
            eval_closed(&s, &t, &Formula::exists(v, Formula::unary(x, v))),
            Kleene::Unknown
        );
        assert_eq!(
            eval_closed(&s, &t, &Formula::forall(v, Formula::unary(x, v))),
            Kleene::Unknown
        );
    }

    #[test]
    fn quantifier_fold_matches_loop_on_all_shapes() {
        // Pin the plane folds of ∃/∀ over p(v), ¬p(v), f(u,v) and f(v,u)
        // (row, column probe and their negations) against the same bodies
        // under a double negation, which takes the complement path twice.
        let (t, x, f, _g) = setup();
        let mut s = Structure::new(&t);
        let nodes: Vec<NodeId> = (0..5).map(|_| s.add_node(&t)).collect();
        s.set_unary(&t, x, nodes[1], Kleene::Unknown);
        s.set_unary(&t, x, nodes[3], Kleene::True);
        s.set_binary(&t, f, nodes[0], nodes[2], Kleene::Unknown);
        s.set_binary(&t, f, nodes[2], nodes[4], Kleene::True);
        s.set_binary(&t, f, nodes[4], nodes[0], Kleene::Unknown);
        let v = Var(0);
        let u = Var(1);
        let atoms = || -> Vec<Formula> {
            vec![
                Formula::unary(x, v),
                Formula::unary(x, v).not(),
                Formula::binary(f, u, v),
                Formula::binary(f, v, u),
                Formula::binary(f, u, v).not(),
                Formula::binary(f, v, u).not(),
            ]
        };
        for src in &nodes {
            for exists in [true, false] {
                for (fast_body, slow_body) in atoms().into_iter().zip(
                    atoms().into_iter().map(|a| a.not().not()),
                ) {
                    let (fast, slow) = if exists {
                        (Formula::exists(v, fast_body), Formula::exists(v, slow_body))
                    } else {
                        (Formula::forall(v, fast_body), Formula::forall(v, slow_body))
                    };
                    let mut asg = Assignment::of([(u, *src)]);
                    let got = eval(&s, &t, &fast, &mut asg.clone());
                    let want = eval(&s, &t, &slow, &mut asg);
                    assert_eq!(got, want, "src={src} formula={fast}");
                }
            }
        }
    }

    #[test]
    fn transitive_closure_on_chain() {
        let (t, x, f, _g) = setup();
        let s = chain(&t, x, f);
        let (l, r, a, b) = (Var(0), Var(1), Var(2), Var(3));
        let tc = Formula::tc(l, r, a, b, Formula::binary(f, a, b));
        let mut asg = Assignment::of([(l, NodeId(0)), (r, NodeId(2))]);
        assert_eq!(eval(&s, &t, &tc, &mut asg), Kleene::True);
        // No backward path.
        let mut asg_back = Assignment::of([(l, NodeId(2)), (r, NodeId(0))]);
        assert_eq!(eval(&s, &t, &tc, &mut asg_back), Kleene::False);
        // Non-reflexive: u0 to u0 has no cycle.
        let mut asg_self = Assignment::of([(l, NodeId(0)), (r, NodeId(0))]);
        assert_eq!(eval(&s, &t, &tc, &mut asg_self), Kleene::False);
    }

    #[test]
    fn transitive_closure_through_unknown_edge() {
        let (t, _x, f, _g) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let v = s.add_node(&t);
        let w = s.add_node(&t);
        s.set_binary(&t, f, u, v, Kleene::True);
        s.set_binary(&t, f, v, w, Kleene::Unknown);
        let (l, r, a, b) = (Var(0), Var(1), Var(2), Var(3));
        let tc = Formula::tc(l, r, a, b, Formula::binary(f, a, b));
        let mut asg = Assignment::of([(l, u), (r, w)]);
        assert_eq!(eval(&s, &t, &tc, &mut asg), Kleene::Unknown);
    }

    #[test]
    fn tc_cycle_terminates() {
        let (t, _x, f, _g) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let v = s.add_node(&t);
        s.set_binary(&t, f, u, v, Kleene::True);
        s.set_binary(&t, f, v, u, Kleene::True);
        let (l, r, a, b) = (Var(0), Var(1), Var(2), Var(3));
        let tc = Formula::tc(l, r, a, b, Formula::binary(f, a, b));
        let mut asg = Assignment::of([(l, u), (r, u)]);
        assert_eq!(eval(&s, &t, &tc, &mut asg), Kleene::True);
    }

    #[test]
    fn tc_direct_and_general_bodies_agree() {
        // A closure over the bare relation f(a,b) must equal the closure
        // over ¬¬f(a,b), whose step rows come through the negation path.
        let (t, _x, f, _g) = setup();
        let mut s = Structure::new(&t);
        let nodes: Vec<NodeId> = (0..4).map(|_| s.add_node(&t)).collect();
        s.set_binary(&t, f, nodes[0], nodes[1], Kleene::True);
        s.set_binary(&t, f, nodes[1], nodes[2], Kleene::Unknown);
        s.set_binary(&t, f, nodes[2], nodes[0], Kleene::True);
        s.set_binary(&t, f, nodes[3], nodes[3], Kleene::Unknown);
        let (l, r, a, b) = (Var(0), Var(1), Var(2), Var(3));
        let direct = Formula::tc(l, r, a, b, Formula::binary(f, a, b));
        let general = Formula::tc(l, r, a, b, Formula::binary(f, a, b).not().not());
        for &u in &nodes {
            for &v in &nodes {
                let mut asg = Assignment::of([(l, u), (r, v)]);
                assert_eq!(
                    eval(&s, &t, &direct, &mut asg.clone()),
                    eval(&s, &t, &general, &mut asg),
                    "tc({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn ite_desugaring_behaves() {
        let (t, x, _f, g) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::True);
        s.set_nullary(&t, g, Kleene::True);
        let phi = Formula::ite(Formula::nullary(g), Formula::unary(x, Var(0)), Formula::ff());
        let mut asg = Assignment::of([(Var(0), u)]);
        assert_eq!(eval(&s, &t, &phi, &mut asg), Kleene::True);
    }

    #[test]
    fn eval_unary_at_all_nodes() {
        let (t, x, f, _g) = setup();
        let s = chain(&t, x, f);
        let vals = eval_unary_at_all(&s, &t, &Formula::unary(x, Var(0)), Var(0));
        assert_eq!(vals, vec![Kleene::True, Kleene::False, Kleene::False]);
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn unbound_variable_panics() {
        let (t, x, _f, _g) = setup();
        let mut s = Structure::new(&t);
        s.add_node(&t);
        let _ = eval(&s, &t, &Formula::unary(x, Var(0)), &mut Assignment::new());
    }
}
