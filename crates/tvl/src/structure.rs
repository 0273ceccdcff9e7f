//! Three-valued logical structures.
//!
//! A [`Structure`] is the pair `⟨U, ι⟩` of paper Definitions 1 and 2: a
//! universe of individuals (each modelling one or more heap objects) plus an
//! interpretation mapping each predicate of a [`PredTable`] to a truth-valued
//! function over individuals. Two-valued (concrete) structures are the special
//! case in which every predicate value is definite and `sm` is `False`
//! everywhere.
//!
//! Structures are plain values: transformers produce new structures rather
//! than mutating shared state, which keeps the abstract-interpretation engine
//! simple and makes structures usable as hash keys via
//! [`crate::canon::canonical_key`].
//!
//! # Data layout
//!
//! Predicate values are stored as two bitplanes per slot (see [`crate::bits`]
//! for the lane encoding): a `true`-plane and a `half`-plane, one bit per
//! node (unary) or node pair (binary), packed into `u64` words. Rows are
//! padded to a whole-word *stride* of `words_for(n)` words:
//!
//! ```text
//! unary_t / unary_h:    [slot * stride + word]             (one row per slot)
//! binary_t / binary_h:  [(slot * n + src) * stride + word] (one row per src)
//! ```
//!
//! Invariants:
//!
//! * `t & h == 0` in every word (a lane is never both `True` and `Unknown`);
//! * every bit past lane `n` of a row is zero (the *padding invariant*), so
//!   the derived `Eq`/`Hash` and the word-folded [`Structure::fingerprint`]
//!   agree with value-wise semantics.
//!
//! All mutation goes through the checked accessors (`set_unary`/`set_binary`)
//! or through kernels that mask with [`crate::bits::word_mask`], so both
//! invariants hold by construction.

use std::fmt;

use crate::bits;
use crate::kleene::Kleene;
use crate::pred::{Arity, PredId, PredTable};

/// Number of independent FNV lanes of [`Structure::fingerprint`].
pub const FINGERPRINT_LANES: usize = 4;

/// Index of an individual in a structure's universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index of the node within its structure.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a node id from a raw index.
    ///
    /// Callers must ensure the index is within the universe of the structure
    /// the id will be used with; out-of-range ids cause panics on access.
    pub fn from_index(ix: usize) -> NodeId {
        NodeId(ix as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A three-valued logical structure.
///
/// # Example
///
/// ```
/// use hetsep_tvl::{PredTable, PredFlags, Structure, Kleene};
/// let mut t = PredTable::new();
/// let x = t.add_unary("x", PredFlags::reference_variable());
/// let f = t.add_binary("f", PredFlags::reference_field());
/// let mut s = Structure::new(&t);
/// let a = s.add_node(&t);
/// let b = s.add_node(&t);
/// s.set_unary(&t, x, a, Kleene::True);
/// s.set_binary(&t, f, a, b, Kleene::True);
/// assert_eq!(s.unary(&t, x, a), Kleene::True);
/// assert_eq!(s.binary(&t, f, a, b), Kleene::True);
/// assert_eq!(s.binary(&t, f, b, a), Kleene::False);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Structure {
    n: u32,
    /// Words per row: `bits::words_for(n)`, cached.
    stride: u32,
    /// Number of unary predicate slots (fixed by the table).
    u_slots: u32,
    /// Number of binary predicate slots (fixed by the table).
    b_slots: u32,
    nullary: Vec<Kleene>,
    /// `true`-plane of unary slots: `[slot * stride + word]`.
    unary_t: Vec<u64>,
    /// `half`-plane of unary slots, same layout as `unary_t`.
    unary_h: Vec<u64>,
    /// `true`-plane of binary slots: `[(slot * n + src) * stride + word]`.
    binary_t: Vec<u64>,
    /// `half`-plane of binary slots, same layout as `binary_t`.
    binary_h: Vec<u64>,
}

/// Re-grids a plane from `(rows_per_slot, old_stride)` geometry to
/// `(new_rows, new_stride)`, in place when capacity allows.
///
/// Rows are moved back-to-front so sources are never clobbered before they
/// are read; fresh rows and newly exposed padding words are zeroed. Performs
/// at most one allocation (the `resize`), and none after `Vec::reserve`.
fn regrow_plane(
    v: &mut Vec<u64>,
    slots: usize,
    old_rows: usize,
    new_rows: usize,
    old_stride: usize,
    new_stride: usize,
) {
    debug_assert!(new_rows >= old_rows && new_stride >= old_stride);
    v.resize(slots * new_rows * new_stride, 0);
    if old_rows == new_rows && old_stride == new_stride {
        return;
    }
    for slot in (0..slots).rev() {
        let base = slot * new_rows * new_stride;
        // Zero fresh rows first: their region sits above every target of this
        // slot's moved rows and below any not-yet-moved row of later slots
        // (already processed) or earlier slots (strictly below `base`).
        for row in old_rows..new_rows {
            let p = base + row * new_stride;
            v[p..p + new_stride].fill(0);
        }
        for row in (0..old_rows).rev() {
            let old_pos = (slot * old_rows + row) * old_stride;
            let new_pos = base + row * new_stride;
            if new_pos != old_pos {
                v.copy_within(old_pos..old_pos + old_stride, new_pos);
            }
            for w in old_stride..new_stride {
                v[new_pos + w] = 0;
            }
        }
    }
}

impl Structure {
    /// Creates a structure with an empty universe; all nullary predicates are
    /// `False`.
    pub fn new(table: &PredTable) -> Structure {
        Structure {
            n: 0,
            stride: 0,
            u_slots: table.unary_count() as u32,
            b_slots: table.binary_count() as u32,
            nullary: vec![Kleene::False; table.nullary_count()],
            unary_t: Vec::new(),
            unary_h: Vec::new(),
            binary_t: Vec::new(),
            binary_h: Vec::new(),
        }
    }

    /// Number of individuals in the universe.
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterates over all individuals.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId)
    }

    /// Adds a fresh individual with all predicate values `False` and returns
    /// its id. Equivalent to `add_nodes(table, 1)`; callers growing by more
    /// than one node should prefer the bulk call.
    pub fn add_node(&mut self, table: &PredTable) -> NodeId {
        self.add_nodes(table, 1)
    }

    /// Adds `k` fresh individuals (all predicate values `False`) and returns
    /// the id of the first; the new ids are contiguous. The whole grow is a
    /// single re-grid of each plane — at most one allocation per plane
    /// vector, and none at all after a sufficient [`Structure::reserve_nodes`]
    /// — instead of `k` quadratic re-copies.
    pub fn add_nodes(&mut self, table: &PredTable, k: usize) -> NodeId {
        debug_assert_eq!(self.u_slots as usize, table.unary_count());
        debug_assert_eq!(self.b_slots as usize, table.binary_count());
        let first = NodeId(self.n);
        if k == 0 {
            return first;
        }
        let old_n = self.n as usize;
        let new_n = old_n + k;
        let old_stride = self.stride as usize;
        let new_stride = bits::words_for(new_n);
        let us = self.u_slots as usize;
        let bs = self.b_slots as usize;
        regrow_plane(&mut self.unary_t, us, 1, 1, old_stride, new_stride);
        regrow_plane(&mut self.unary_h, us, 1, 1, old_stride, new_stride);
        regrow_plane(&mut self.binary_t, bs, old_n, new_n, old_stride, new_stride);
        regrow_plane(&mut self.binary_h, bs, old_n, new_n, old_stride, new_stride);
        self.n = new_n as u32;
        self.stride = new_stride as u32;
        first
    }

    /// Reserves capacity so that growing by up to `extra` nodes (via
    /// [`Structure::add_nodes`] or repeated [`Structure::add_node`] /
    /// [`Structure::duplicate_node`] calls) performs no further allocation.
    pub fn reserve_nodes(&mut self, table: &PredTable, extra: usize) {
        debug_assert_eq!(self.u_slots as usize, table.unary_count());
        let new_n = self.n as usize + extra;
        let ns = bits::words_for(new_n);
        let u_len = self.u_slots as usize * ns;
        let b_len = self.b_slots as usize * new_n * ns;
        self.unary_t.reserve(u_len.saturating_sub(self.unary_t.len()));
        self.unary_h.reserve(u_len.saturating_sub(self.unary_h.len()));
        self.binary_t.reserve(b_len.saturating_sub(self.binary_t.len()));
        self.binary_h.reserve(b_len.saturating_sub(self.binary_h.len()));
    }

    #[inline]
    fn check_node(&self, u: NodeId) {
        assert!(u.0 < self.n, "node {u} out of range (n={})", self.n);
    }

    /// Words per plane row (`bits::words_for(n)`).
    #[inline]
    pub(crate) fn stride_words(&self) -> usize {
        self.stride as usize
    }

    /// Both planes of one unary slot, `stride` words each.
    #[inline]
    pub(crate) fn unary_planes(&self, slot: usize) -> (&[u64], &[u64]) {
        let st = self.stride as usize;
        let base = slot * st;
        (&self.unary_t[base..base + st], &self.unary_h[base..base + st])
    }

    /// Both planes of the consecutive unary slots `slots`, `stride` words
    /// per slot.
    #[inline]
    pub(crate) fn unary_slot_planes(&self, slots: std::ops::Range<usize>) -> (&[u64], &[u64]) {
        let st = self.stride as usize;
        let span = slots.start * st..slots.end * st;
        (&self.unary_t[span.clone()], &self.unary_h[span])
    }

    /// Mutable planes of one unary slot. Callers must preserve the `t & h`
    /// and padding invariants.
    #[inline]
    pub(crate) fn unary_planes_mut(&mut self, slot: usize) -> (&mut [u64], &mut [u64]) {
        let st = self.stride as usize;
        let base = slot * st;
        (
            &mut self.unary_t[base..base + st],
            &mut self.unary_h[base..base + st],
        )
    }

    /// Both planes of one source row of a binary slot, `stride` words each.
    #[inline]
    pub(crate) fn binary_row(&self, slot: usize, src: usize) -> (&[u64], &[u64]) {
        let st = self.stride as usize;
        let base = (slot * self.n as usize + src) * st;
        (&self.binary_t[base..base + st], &self.binary_h[base..base + st])
    }

    /// Mutable planes of one source row of a binary slot. Callers must
    /// preserve the `t & h` and padding invariants.
    #[inline]
    pub(crate) fn binary_row_mut(&mut self, slot: usize, src: usize) -> (&mut [u64], &mut [u64]) {
        let st = self.stride as usize;
        let base = (slot * self.n as usize + src) * st;
        (
            &mut self.binary_t[base..base + st],
            &mut self.binary_h[base..base + st],
        )
    }

    /// Both planes of a whole binary slot (`n` rows of `stride` words).
    #[inline]
    pub(crate) fn binary_slot_planes(&self, slot: usize) -> (&[u64], &[u64]) {
        let st = self.stride as usize;
        let rows = self.n as usize * st;
        let base = slot * rows;
        (
            &self.binary_t[base..base + rows],
            &self.binary_h[base..base + rows],
        )
    }

    /// Raw unary read by slot index (no arity/table checks).
    #[inline]
    pub(crate) fn get_u(&self, slot: usize, u: usize) -> Kleene {
        let w = slot * self.stride as usize + (u >> 6);
        let b = (u & 63) as u32;
        Kleene::from_bits(
            (self.unary_t[w] >> b) & 1 != 0,
            (self.unary_h[w] >> b) & 1 != 0,
        )
    }

    /// Raw unary write by slot index (no arity/table checks).
    #[inline]
    pub(crate) fn set_u(&mut self, slot: usize, u: usize, v: Kleene) {
        let w = slot * self.stride as usize + (u >> 6);
        let bit = 1u64 << (u & 63);
        let (tb, hb) = v.to_bits();
        if tb {
            self.unary_t[w] |= bit;
        } else {
            self.unary_t[w] &= !bit;
        }
        if hb {
            self.unary_h[w] |= bit;
        } else {
            self.unary_h[w] &= !bit;
        }
    }

    /// Raw binary read by slot index (no arity/table checks).
    #[inline]
    pub(crate) fn get_b(&self, slot: usize, src: usize, dst: usize) -> Kleene {
        let w = (slot * self.n as usize + src) * self.stride as usize + (dst >> 6);
        let b = (dst & 63) as u32;
        Kleene::from_bits(
            (self.binary_t[w] >> b) & 1 != 0,
            (self.binary_h[w] >> b) & 1 != 0,
        )
    }

    /// Raw binary write by slot index (no arity/table checks).
    #[inline]
    pub(crate) fn set_b(&mut self, slot: usize, src: usize, dst: usize, v: Kleene) {
        let w = (slot * self.n as usize + src) * self.stride as usize + (dst >> 6);
        let bit = 1u64 << (dst & 63);
        let (tb, hb) = v.to_bits();
        if tb {
            self.binary_t[w] |= bit;
        } else {
            self.binary_t[w] &= !bit;
        }
        if hb {
            self.binary_h[w] |= bit;
        } else {
            self.binary_h[w] &= !bit;
        }
    }

    /// A 64-bit fingerprint of the structure's full contents: FNV-1a over
    /// the universe size, the nullary values and every plane word, run in
    /// [`FINGERPRINT_LANES`] independent lanes and folded together at the
    /// end.
    ///
    /// Each plane is cut into chunks of `FINGERPRINT_LANES` words; word `i`
    /// of a chunk goes to lane `i`, and the plane's remainder words go to
    /// lanes `0..r`. The lanes' multiply chains do not depend on each
    /// other, so they overlap in the pipeline instead of waiting on one
    /// another. A change to a single word changes its lane's hash (each
    /// FNV step is a bijection of the running hash), hence the fingerprint.
    ///
    /// Equal structures always have equal fingerprints; distinct structures
    /// collide with probability ~2⁻⁶⁴. Callers that use fingerprints as map
    /// keys (e.g. the interner) must verify candidates with full `==`. The
    /// value is in-memory only: nothing persists it.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        #[inline]
        fn mix(h: u64, word: u64) -> u64 {
            (h ^ word).wrapping_mul(PRIME)
        }
        let mut lanes = [OFFSET; FINGERPRINT_LANES];
        lanes[0] = mix(lanes[0], self.n as u64);
        for &v in &self.nullary {
            lanes[0] = mix(lanes[0], v as u64);
        }
        // Plane boundaries are implied by `n` and the (fixed) predicate
        // table, so no separators are needed between slots; padding bits are
        // zero by invariant, so equal structures hash equal per-word.
        for plane in [&self.unary_t, &self.unary_h, &self.binary_t, &self.binary_h] {
            let chunks = plane.chunks_exact(FINGERPRINT_LANES);
            let rest = chunks.remainder();
            for chunk in chunks {
                for (lane, &w) in lanes.iter_mut().zip(chunk) {
                    *lane = mix(*lane, w);
                }
            }
            for (lane, &w) in lanes.iter_mut().zip(rest) {
                *lane = mix(*lane, w);
            }
        }
        lanes.into_iter().fold(OFFSET, mix)
    }

    /// Serializes the structure to a flat word vector.
    ///
    /// The encoding is `[n, packed nullary…, unary_t…, unary_h…, binary_t…,
    /// binary_h…]`: nullary values are packed two bits per predicate
    /// (32 per word, via [`Kleene::to_bits`]), plane words are copied
    /// verbatim. All lengths are implied by `n` and the predicate table, so
    /// no geometry metadata is stored; because padding bits are zero by
    /// invariant, equal structures encode to equal word vectors and vice
    /// versa — the encoding is a value-exact key for cross-job caches.
    pub fn to_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.write_words(&mut out);
        out
    }

    /// Appends the [`Structure::to_words`] encoding to `out` (no
    /// intermediate vector, for callers that pack many encodings into one).
    pub fn write_words(&self, out: &mut Vec<u64>) {
        let nw = Self::nullary_words(self.nullary.len());
        out.reserve(
            1 + nw
                + self.unary_t.len()
                + self.unary_h.len()
                + self.binary_t.len()
                + self.binary_h.len(),
        );
        out.push(self.n as u64);
        let packed = out.len();
        out.resize(packed + nw, 0);
        for (ix, &v) in self.nullary.iter().enumerate() {
            let (t, h) = v.to_bits();
            let bits = (t as u64) << 1 | (h as u64);
            out[packed + ix / 32] |= bits << ((ix % 32) * 2);
        }
        out.extend_from_slice(&self.unary_t);
        out.extend_from_slice(&self.unary_h);
        out.extend_from_slice(&self.binary_t);
        out.extend_from_slice(&self.binary_h);
    }

    /// Decodes a structure previously encoded by [`Structure::to_words`]
    /// against the *same* predicate table.
    ///
    /// Returns `None` — never a malformed structure — if the words do not
    /// describe a structure for `table`: wrong total length, a nullary value
    /// with both bits set (`11` is not a [`Kleene`]), a word with `t & h !=
    /// 0`, or a non-zero padding bit. Accepting only invariant-clean input
    /// keeps the derived `Eq`/`Hash`/[`Structure::fingerprint`] semantics
    /// intact for decoded structures, which is what makes a persisted cache
    /// safe to trust after collision verification.
    pub fn from_words(table: &PredTable, words: &[u64]) -> Option<Structure> {
        let &n64 = words.first()?;
        if n64 > u32::MAX as u64 {
            return None;
        }
        let n = n64 as usize;
        let stride = if n == 0 { 0 } else { bits::words_for(n) };
        let us = table.unary_count();
        let bs = table.binary_count();
        let nc = table.nullary_count();
        let nw = Self::nullary_words(nc);
        let u_len = us * stride;
        let b_len = bs * n * stride;
        if words.len() != 1 + nw + 2 * u_len + 2 * b_len {
            return None;
        }
        let mut nullary = Vec::with_capacity(nc);
        let packed = &words[1..1 + nw];
        for (ix, &p) in packed.iter().enumerate() {
            let lanes = (nc - ix * 32).min(32);
            // Bits past the last packed nullary must be zero.
            if lanes < 32 && p >> (lanes * 2) != 0 {
                return None;
            }
            for lane in 0..lanes {
                let bits = (p >> (lane * 2)) & 0b11;
                if bits == 0b11 {
                    return None;
                }
                nullary.push(Kleene::from_bits(bits & 0b10 != 0, bits & 0b01 != 0));
            }
        }
        let mut at = 1 + nw;
        let mut take = |len: usize| {
            let s = words[at..at + len].to_vec();
            at += len;
            s
        };
        let unary_t = take(u_len);
        let unary_h = take(u_len);
        let binary_t = take(b_len);
        let binary_h = take(b_len);
        let planes_ok = |t: &[u64], h: &[u64]| {
            t.iter().zip(h).all(|(&tw, &hw)| tw & hw == 0)
                && t.chunks_exact(stride.max(1))
                    .chain(h.chunks_exact(stride.max(1)))
                    .all(|row| {
                        row.iter()
                            .enumerate()
                            .all(|(w, &word)| word & !bits::word_mask(n, w) == 0)
                    })
        };
        if stride > 0 && (!planes_ok(&unary_t, &unary_h) || !planes_ok(&binary_t, &binary_h)) {
            return None;
        }
        Some(Structure {
            n: n as u32,
            stride: stride as u32,
            u_slots: us as u32,
            b_slots: bs as u32,
            nullary,
            unary_t,
            unary_h,
            binary_t,
            binary_h,
        })
    }

    /// Words needed to pack `count` nullary values at two bits each.
    fn nullary_words(count: usize) -> usize {
        count.div_ceil(32)
    }

    /// Value of a nullary predicate.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not nullary.
    pub fn nullary(&self, table: &PredTable, p: PredId) -> Kleene {
        assert_eq!(table.arity(p), Arity::Nullary);
        self.nullary[table.slot(p)]
    }

    /// Sets a nullary predicate.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not nullary.
    pub fn set_nullary(&mut self, table: &PredTable, p: PredId, v: Kleene) {
        assert_eq!(table.arity(p), Arity::Nullary);
        let slot = table.slot(p);
        self.nullary[slot] = v;
    }

    /// Value of a unary predicate on an individual.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not unary or `u` is out of range.
    pub fn unary(&self, table: &PredTable, p: PredId, u: NodeId) -> Kleene {
        assert_eq!(table.arity(p), Arity::Unary);
        self.check_node(u);
        self.get_u(table.slot(p), u.index())
    }

    /// Sets a unary predicate on an individual.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not unary or `u` is out of range.
    pub fn set_unary(&mut self, table: &PredTable, p: PredId, u: NodeId, v: Kleene) {
        assert_eq!(table.arity(p), Arity::Unary);
        self.check_node(u);
        self.set_u(table.slot(p), u.index(), v);
    }

    /// Value of a binary predicate on a pair of individuals.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not binary or a node is out of range.
    pub fn binary(&self, table: &PredTable, p: PredId, src: NodeId, dst: NodeId) -> Kleene {
        assert_eq!(table.arity(p), Arity::Binary);
        self.check_node(src);
        self.check_node(dst);
        self.get_b(table.slot(p), src.index(), dst.index())
    }

    /// Sets a binary predicate on a pair of individuals.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not binary or a node is out of range.
    pub fn set_binary(&mut self, table: &PredTable, p: PredId, src: NodeId, dst: NodeId, v: Kleene) {
        assert_eq!(table.arity(p), Arity::Binary);
        self.check_node(src);
        self.check_node(dst);
        self.set_b(table.slot(p), src.index(), dst.index(), v);
    }

    /// Sets a unary predicate to `v` on **every** individual with one masked
    /// word sweep per plane row.
    pub fn fill_unary(&mut self, table: &PredTable, p: PredId, v: Kleene) {
        assert_eq!(table.arity(p), Arity::Unary);
        let n = self.n as usize;
        let slot = table.slot(p);
        let (tb, hb) = v.to_bits();
        let (t, h) = self.unary_planes_mut(slot);
        for (w, tw) in t.iter_mut().enumerate() {
            *tw = if tb { bits::word_mask(n, w) } else { 0 };
        }
        for (w, hw) in h.iter_mut().enumerate() {
            *hw = if hb { bits::word_mask(n, w) } else { 0 };
        }
    }

    /// Whether `u` is a summary node (`sm(u) = 1/2`), i.e. may represent more
    /// than one concrete individual.
    pub fn is_summary(&self, table: &PredTable, u: NodeId) -> bool {
        self.unary(table, table.sm(), u) == Kleene::Unknown
    }

    /// Marks or unmarks `u` as a summary node.
    pub fn set_summary(&mut self, table: &PredTable, u: NodeId, summary: bool) {
        let v = if summary { Kleene::Unknown } else { Kleene::False };
        self.set_unary(table, table.sm(), u, v);
    }

    /// Individuals on which unary predicate `p` may hold (value `≠ False`),
    /// found by a `trailing_zeros` scan of the or-ed planes.
    pub fn nodes_where(&self, table: &PredTable, p: PredId) -> Vec<NodeId> {
        assert_eq!(table.arity(p), Arity::Unary);
        let (t, h) = self.unary_planes(table.slot(p));
        let mut out = Vec::new();
        for (wi, (&tw, &hw)) in t.iter().zip(h).enumerate() {
            let mut m = tw | hw;
            while m != 0 {
                let b = m.trailing_zeros();
                out.push(NodeId((wi * bits::WORD_BITS) as u32 + b));
                m &= m - 1;
            }
        }
        out
    }

    /// Whether some individual carries both `p` and `q` possibly true
    /// (value `≠ False` for each).
    ///
    /// One AND of the two predicates' maybe-masks (`t | h`) per wide-lane
    /// block ([`bits::overlap_any`]), short-circuiting on the first hit.
    pub fn maybe_overlap(&self, table: &PredTable, p: PredId, q: PredId) -> bool {
        assert_eq!(table.arity(p), Arity::Unary);
        assert_eq!(table.arity(q), Arity::Unary);
        let (tp, hp) = self.unary_planes(table.slot(p));
        let (tq, hq) = self.unary_planes(table.slot(q));
        bits::overlap_any(tp, hp, tq, hq)
    }

    /// The single individual on which `p` definitely holds, if there is
    /// exactly one candidate and its value is `True`.
    ///
    /// This is the common lookup for reference-variable predicates.
    pub fn definite_node(&self, table: &PredTable, p: PredId) -> Option<NodeId> {
        assert_eq!(table.arity(p), Arity::Unary);
        let (t, h) = self.unary_planes(table.slot(p));
        let mut cands = 0u32;
        let mut hit: Option<NodeId> = None;
        for (wi, (&tw, &hw)) in t.iter().zip(h).enumerate() {
            let m = tw | hw;
            cands += m.count_ones();
            if cands > 1 {
                return None;
            }
            if m != 0 && hit.is_none() {
                let b = m.trailing_zeros();
                if (tw >> b) & 1 == 0 {
                    return None; // sole candidate is only Unknown
                }
                hit = Some(NodeId((wi * bits::WORD_BITS) as u32 + b));
            }
        }
        hit
    }

    /// First individual on which `p` is `Unknown`, by index order.
    pub(crate) fn first_unknown_unary(&self, slot: usize) -> Option<NodeId> {
        let (_, h) = self.unary_planes(slot);
        bits::first_set(h).map(NodeId::from_index)
    }

    /// First destination for which `p(src, ·)` is `Unknown`, by index order.
    pub(crate) fn first_unknown_in_row(&self, slot: usize, src: usize) -> Option<NodeId> {
        let (_, h) = self.binary_row(slot, src);
        bits::first_set(h).map(NodeId::from_index)
    }

    /// An all-`False` structure with the same table geometry and nullary
    /// values as `self`, over a universe of `m` nodes.
    fn empty_resized(&self, m: usize) -> Structure {
        let st = bits::words_for(m);
        Structure {
            n: m as u32,
            stride: st as u32,
            u_slots: self.u_slots,
            b_slots: self.b_slots,
            nullary: self.nullary.clone(),
            unary_t: vec![0; self.u_slots as usize * st],
            unary_h: vec![0; self.u_slots as usize * st],
            binary_t: vec![0; self.b_slots as usize * m * st],
            binary_h: vec![0; self.b_slots as usize * m * st],
        }
    }

    /// Reorders the universe according to `perm`, where `perm[new] = old`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of the universe.
    pub fn permute(&self, perm: &[NodeId]) -> Structure {
        let n = self.n as usize;
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut inv = vec![NodeId(u32::MAX); n];
        for (new_ix, old) in perm.iter().enumerate() {
            assert!(inv[old.index()].0 == u32::MAX, "not a permutation");
            inv[old.index()] = NodeId::from_index(new_ix);
        }
        self.scatter(&inv, n)
    }

    /// The image of `self` under `map` (`map[old] = new`, onto `0..m`): every
    /// set bit of every plane lands on the lane of its node's image, and row
    /// `src` of a binary slot lands on row `map[src]`. Lanes and rows whose
    /// preimages coincide receive the OR of them, plane by plane, so for a
    /// bijective `map` this is the permuted structure; where nodes merge the
    /// result may break `t & h == 0` and [`crate::canon::blur_by`] repairs
    /// those blocks. Nullary values carry over.
    pub(crate) fn scatter(&self, map: &[NodeId], m: usize) -> Structure {
        let n = self.n as usize;
        debug_assert_eq!(map.len(), n);
        let mut out = self.empty_resized(m);
        let (st, out_st) = (self.stride as usize, out.stride as usize);
        let lanes = |src: &[u64], dst: &mut [u64]| {
            bits::for_each_set(src, |u| {
                let (w, b) = bits::lane(map[u].index());
                dst[w] |= 1 << b;
            })
        };
        for (src, dst) in [(&self.unary_t, &mut out.unary_t), (&self.unary_h, &mut out.unary_h)] {
            for (row, out_row) in src.chunks_exact(st.max(1)).zip(dst.chunks_exact_mut(out_st.max(1))) {
                lanes(row, out_row);
            }
        }
        for (src, dst) in [(&self.binary_t, &mut out.binary_t), (&self.binary_h, &mut out.binary_h)] {
            for (ix, row) in src.chunks_exact(st.max(1)).enumerate() {
                let (slot, old_src) = (ix / n, ix % n);
                let base = (slot * m + map[old_src].index()) * out_st;
                lanes(row, &mut dst[base..base + out_st]);
            }
        }
        out
    }

    /// Duplicates node `u` (including its unary values and all incident binary
    /// edges, and the self-loop pattern) and returns the new node's id.
    ///
    /// Used by [`crate::focus()`] when bifurcating a summary node.
    pub fn duplicate_node(&mut self, table: &PredTable, u: NodeId) -> NodeId {
        self.check_node(u);
        let v = self.add_nodes(table, 1);
        let n = self.n as usize;
        let st = self.stride as usize;
        let (ui, vi) = (u.index(), v.index());
        for slot in 0..self.u_slots as usize {
            let val = self.get_u(slot, ui);
            if val != Kleene::False {
                self.set_u(slot, vi, val);
            }
        }
        for slot in 0..self.b_slots as usize {
            // Row copy: v's row := u's row, one word move per plane. This
            // also lands u's self loop at (v, u); the column copy below then
            // fills (s, v) := (s, u) for every s — including s ∈ {u, v},
            // which distributes the self loop over all four pairs of {u, v}.
            let u_base = (slot * n + ui) * st;
            let v_base = (slot * n + vi) * st;
            self.binary_t.copy_within(u_base..u_base + st, v_base);
            self.binary_h.copy_within(u_base..u_base + st, v_base);
            for s in 0..n {
                let val = self.get_b(slot, s, ui);
                if val != Kleene::False {
                    self.set_b(slot, s, vi, val);
                }
            }
        }
        v
    }

    /// Returns `true` when every predicate value is definite and no node is a
    /// summary node — i.e. the structure is a concrete (2-valued) state.
    ///
    /// With two-plane storage this is one `half`-plane emptiness scan: a
    /// structure is concrete iff no `h` bit is set anywhere.
    pub fn is_concrete(&self) -> bool {
        self.nullary.iter().all(|v| v.is_definite())
            && !bits::any_set(&self.unary_h)
            && !bits::any_set(&self.binary_h)
    }

    /// Checks the `t & h` and padding invariants on every plane row
    /// (debug builds only); used by tests and kernel entry points.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_check_invariants(&self) {
        let n = self.n as usize;
        let st = self.stride as usize;
        let check_row = |t: &[u64], h: &[u64]| {
            for w in 0..st {
                debug_assert_eq!(t[w] & h[w], 0, "t/h invariant violated");
                let mask = bits::word_mask(n, w);
                debug_assert_eq!(t[w] & !mask, 0, "padding bits set in t plane");
                debug_assert_eq!(h[w] & !mask, 0, "padding bits set in h plane");
            }
        };
        for slot in 0..self.u_slots as usize {
            let (t, h) = self.unary_planes(slot);
            check_row(t, h);
        }
        for slot in 0..self.b_slots as usize {
            for src in 0..n {
                let (t, h) = self.binary_row(slot, src);
                check_row(t, h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::PredFlags;

    fn setup() -> (PredTable, PredId, PredId, PredId) {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let f = t.add_binary("f", PredFlags::reference_field());
        let b = t.add_nullary("b", PredFlags::default());
        (t, x, f, b)
    }

    #[test]
    fn empty_structure() {
        let (t, ..) = setup();
        let s = Structure::new(&t);
        assert_eq!(s.node_count(), 0);
        assert!(s.is_empty());
        assert!(s.is_concrete());
    }

    #[test]
    fn add_node_defaults_false() {
        let (t, x, f, b) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let v = s.add_node(&t);
        assert_eq!(s.node_count(), 2);
        assert_eq!(s.unary(&t, x, u), Kleene::False);
        assert_eq!(s.binary(&t, f, u, v), Kleene::False);
        assert_eq!(s.nullary(&t, b), Kleene::False);
        assert!(!s.is_summary(&t, u));
    }

    #[test]
    fn binary_matrix_survives_growth() {
        let (t, _x, f, _b) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let v = s.add_node(&t);
        s.set_binary(&t, f, u, v, Kleene::True);
        s.set_binary(&t, f, v, u, Kleene::Unknown);
        let w = s.add_node(&t);
        assert_eq!(s.binary(&t, f, u, v), Kleene::True);
        assert_eq!(s.binary(&t, f, v, u), Kleene::Unknown);
        assert_eq!(s.binary(&t, f, u, w), Kleene::False);
        assert_eq!(s.binary(&t, f, w, v), Kleene::False);
    }

    #[test]
    fn bulk_add_nodes_matches_repeated_add_node() {
        let (t, x, f, _b) = setup();
        let mut bulk = Structure::new(&t);
        let u = bulk.add_node(&t);
        bulk.set_unary(&t, x, u, Kleene::True);
        bulk.set_binary(&t, f, u, u, Kleene::Unknown);
        let mut single = bulk.clone();
        let first = bulk.add_nodes(&t, 70); // crosses the one-word boundary
        for _ in 0..70 {
            single.add_node(&t);
        }
        assert_eq!(first, NodeId(1));
        assert_eq!(bulk, single);
        assert_eq!(bulk.node_count(), 71);
        assert_eq!(bulk.unary(&t, x, u), Kleene::True);
        assert_eq!(bulk.binary(&t, f, u, u), Kleene::Unknown);
        assert_eq!(bulk.binary(&t, f, first, u), Kleene::False);
        #[cfg(debug_assertions)]
        bulk.debug_check_invariants();
    }

    #[test]
    fn add_nodes_zero_is_noop() {
        let (t, ..) = setup();
        let mut s = Structure::new(&t);
        s.add_node(&t);
        let before = s.clone();
        let first = s.add_nodes(&t, 0);
        assert_eq!(first, NodeId(1));
        assert_eq!(s, before);
    }

    #[test]
    fn reserve_then_grow() {
        let (t, x, f, _b) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::Unknown);
        s.set_binary(&t, f, u, u, Kleene::True);
        s.reserve_nodes(&t, 200);
        let first = s.add_nodes(&t, 200);
        assert_eq!(s.node_count(), 201);
        assert_eq!(s.unary(&t, x, u), Kleene::Unknown);
        assert_eq!(s.binary(&t, f, u, u), Kleene::True);
        assert_eq!(s.binary(&t, f, first, first), Kleene::False);
    }

    #[test]
    fn fill_unary_sets_every_node() {
        let (t, x, ..) = setup();
        let mut s = Structure::new(&t);
        s.add_nodes(&t, 67);
        s.fill_unary(&t, x, Kleene::Unknown);
        for u in s.nodes() {
            assert_eq!(s.unary(&t, x, u), Kleene::Unknown);
        }
        s.fill_unary(&t, x, Kleene::False);
        for u in s.nodes() {
            assert_eq!(s.unary(&t, x, u), Kleene::False);
        }
        #[cfg(debug_assertions)]
        s.debug_check_invariants();
    }

    #[test]
    fn summary_marking() {
        let (t, ..) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_summary(&t, u, true);
        assert!(s.is_summary(&t, u));
        assert!(!s.is_concrete());
        s.set_summary(&t, u, false);
        assert!(!s.is_summary(&t, u));
    }

    #[test]
    fn definite_node_lookup() {
        let (t, x, ..) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let v = s.add_node(&t);
        assert_eq!(s.definite_node(&t, x), None);
        s.set_unary(&t, x, u, Kleene::True);
        assert_eq!(s.definite_node(&t, x), Some(u));
        s.set_unary(&t, x, v, Kleene::Unknown);
        assert_eq!(s.definite_node(&t, x), None); // ambiguous
    }

    #[test]
    fn definite_node_rejects_lone_unknown() {
        let (t, x, ..) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::Unknown);
        assert_eq!(s.definite_node(&t, x), None);
    }

    #[test]
    fn permute_roundtrip() {
        let (t, x, f, _b) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let v = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::True);
        s.set_binary(&t, f, u, v, Kleene::Unknown);
        let p = s.permute(&[v, u]);
        assert_eq!(p.unary(&t, x, NodeId(1)), Kleene::True);
        assert_eq!(p.binary(&t, f, NodeId(1), NodeId(0)), Kleene::Unknown);
        let back = p.permute(&[NodeId(1), NodeId(0)]);
        assert_eq!(back, s);
    }

    #[test]
    fn duplicate_node_copies_incident_edges() {
        let (t, x, f, _b) = setup();
        let mut s = Structure::new(&t);
        let a = s.add_node(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::Unknown);
        s.set_binary(&t, f, a, u, Kleene::Unknown);
        s.set_binary(&t, f, u, u, Kleene::Unknown);
        let v = s.duplicate_node(&t, u);
        assert_eq!(s.unary(&t, x, v), Kleene::Unknown);
        assert_eq!(s.binary(&t, f, a, v), Kleene::Unknown);
        // self loop distributes over all pairs
        assert_eq!(s.binary(&t, f, u, v), Kleene::Unknown);
        assert_eq!(s.binary(&t, f, v, u), Kleene::Unknown);
        assert_eq!(s.binary(&t, f, v, v), Kleene::Unknown);
    }

    #[test]
    fn fingerprint_distinguishes_and_agrees() {
        let (t, x, f, _b) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        let v = s.add_node(&t);
        s.set_binary(&t, f, u, v, Kleene::True);
        let clone = s.clone();
        assert_eq!(s.fingerprint(), clone.fingerprint());
        let mut other = s.clone();
        other.set_unary(&t, x, u, Kleene::Unknown);
        assert_ne!(s.fingerprint(), other.fingerprint());
        assert_ne!(s, other);
    }

    #[test]
    fn word_roundtrip_is_exact() {
        let (t, x, f, b) = setup();
        // Empty universe, nodes spanning multiple words, and mixed values.
        for n in [0usize, 1, 3, 64, 65, 130] {
            let mut s = Structure::new(&t);
            s.add_nodes(&t, n);
            s.set_nullary(&t, b, Kleene::Unknown);
            for ix in (0..n).step_by(3) {
                s.set_unary(&t, x, NodeId::from_index(ix), Kleene::Unknown);
                let dst = NodeId::from_index((ix * 7 + 1) % n.max(1));
                s.set_binary(&t, f, NodeId::from_index(ix), dst, Kleene::True);
            }
            let words = s.to_words();
            let back = Structure::from_words(&t, &words).expect("decodes");
            assert_eq!(s, back, "n={n}");
            assert_eq!(s.fingerprint(), back.fingerprint(), "n={n}");
        }
    }

    #[test]
    fn from_words_rejects_malformed_input() {
        let (t, x, _f, _b) = setup();
        let mut s = Structure::new(&t);
        let u = s.add_node(&t);
        s.set_unary(&t, x, u, Kleene::True);
        let words = s.to_words();
        // Truncated and over-long encodings.
        assert!(Structure::from_words(&t, &words[..words.len() - 1]).is_none());
        let mut long = words.clone();
        long.push(0);
        assert!(Structure::from_words(&t, &long).is_none());
        assert!(Structure::from_words(&t, &[]).is_none());
        // An `11` nullary bit pair is not a Kleene value.
        let mut bad_nullary = words.clone();
        bad_nullary[1] |= 0b11;
        assert!(Structure::from_words(&t, &bad_nullary).is_none());
        // Violating `t & h == 0` on a unary plane word.
        let mut bad_plane = words.clone();
        let u_base = 2; // [n, nullary, unary_t...]
        bad_plane[u_base] = 1;
        bad_plane[u_base + t.unary_count()] = 1;
        assert!(Structure::from_words(&t, &bad_plane).is_none());
        // A padding bit past lane `n`.
        let mut bad_pad = words;
        bad_pad[u_base] |= 1 << 1;
        assert!(Structure::from_words(&t, &bad_pad).is_none());
    }
}
