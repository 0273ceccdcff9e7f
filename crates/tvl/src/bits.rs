//! Word-parallel Kleene bitplane primitives.
//!
//! A vector of [`Kleene`] values is stored as *two bitplanes*:
//! a `true`-plane `t` and a `half`-plane `h`, one bit per element, packed
//! into `u64` words. The encoding per lane is
//!
//! | value     | `t` | `h` |
//! |-----------|-----|-----|
//! | `False`   | 0   | 0   |
//! | `Unknown` | 0   | 1   |
//! | `True`    | 1   | 0   |
//!
//! with the invariant `t & h == 0` (a lane is never both). Under this
//! encoding a Kleene test becomes a constant number of boolean word
//! operations applied to 64 lanes at once: for example `a ⊑ b` fails on
//! exactly the lanes of `!(eq | hb)` ([`le_info_violations`]). The word identities
//! are checked exhaustively against the scalar [`Kleene`] operations — for
//! all 3×3 input pairs in all 64 lanes — by the property tests in
//! `tests/properties.rs` and the unit tests below.
//!
//! Rows longer than 64 lanes span multiple words ([`words_for`]); the bits of
//! the last word past the logical length are *padding* and must always be
//! zero (the stride/padding invariant). Producers that could set padding
//! bits mask with [`tail_mask`] / [`word_mask`].

use crate::kleene::Kleene;

/// Number of lanes per storage word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `n` lanes.
#[inline]
pub fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

/// Mask of the valid (non-padding) bits of the *last* word of an `n`-lane
/// row. All earlier words are fully valid (`!0`). `n` must not be zero
/// modulo full rows: for `n % 64 == 0` (including `n == 0`) every word is
/// full and the mask is `!0`.
#[inline]
pub fn tail_mask(n: usize) -> u64 {
    let rem = n % WORD_BITS;
    if rem == 0 {
        !0
    } else {
        (1u64 << rem) - 1
    }
}

/// Valid-lane mask of word `w` in an `n`-lane row of `words_for(n)` words.
#[inline]
pub fn word_mask(n: usize, w: usize) -> u64 {
    if (w + 1) * WORD_BITS <= n {
        !0
    } else {
        tail_mask(n)
    }
}

/// Splits a lane index into its word index and in-word bit offset.
#[inline]
pub fn lane(ix: usize) -> (usize, u32) {
    (ix / WORD_BITS, (ix % WORD_BITS) as u32)
}

/// Reads the Kleene value of one lane from a plane pair.
#[inline]
pub fn get_lane(t: &[u64], h: &[u64], ix: usize) -> Kleene {
    let (w, b) = lane(ix);
    Kleene::from_bits((t[w] >> b) & 1 != 0, (h[w] >> b) & 1 != 0)
}

/// Writes the Kleene value of one lane into a plane pair.
#[inline]
pub fn set_lane(t: &mut [u64], h: &mut [u64], ix: usize, v: Kleene) {
    let (w, b) = lane(ix);
    let bit = 1u64 << b;
    let (tb, hb) = v.to_bits();
    if tb {
        t[w] |= bit;
    } else {
        t[w] &= !bit;
    }
    if hb {
        h[w] |= bit;
    } else {
        h[w] &= !bit;
    }
}

/// Lanes of `valid` where `a ⊑ b` does **not** hold (`b` is neither equal to
/// `a` nor `Unknown`). A zero result on every word of a row means the whole
/// row is information-ordered.
#[inline]
pub fn le_info_violations(ta: u64, ha: u64, tb: u64, hb: u64, valid: u64) -> u64 {
    let eq = !(ta ^ tb) & !(ha ^ hb);
    valid & !(eq | hb)
}

/// Total number of set bits in a word slice.
#[inline]
pub fn count_set(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Whether any bit is set in a word slice.
#[inline]
pub fn any_set(words: &[u64]) -> bool {
    words.iter().any(|&w| w != 0)
}

/// Index of the lowest set bit across a word slice, if any.
#[inline]
pub fn first_set(words: &[u64]) -> Option<usize> {
    for (wi, &w) in words.iter().enumerate() {
        if w != 0 {
            return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Calls `f` with the index of every set bit, in ascending order
/// (`trailing_zeros` iteration).
#[inline]
pub fn for_each_set(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(wi * WORD_BITS + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Wide-lane block kernels.
//
// The row kernels below process whole *rows* (multi-word slices) in manually
// unrolled 4×`u64` blocks — 256 lanes per loop iteration — with a scalar
// remainder loop for the last `len % 4` words. Unrolling gives the optimizer
// four independent dependency chains per iteration. The property tests in
// `tests/properties.rs` check each kernel word for word against its scalar
// definition, including the stride-padding contract.

/// Words per unrolled block (4 × 64 = 256 lanes per iteration).
pub const BLOCK_WORDS: usize = 4;

/// Bitwise OR of `src` into `dst` (the Warshall closure inner union), block
/// at a time.
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(BLOCK_WORDS);
    let mut s = src.chunks_exact(BLOCK_WORDS);
    for (db, sb) in d.by_ref().zip(s.by_ref()) {
        db[0] |= sb[0];
        db[1] |= sb[1];
        db[2] |= sb[2];
        db[3] |= sb[3];
    }
    for (dw, &sw) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dw |= sw;
    }
}

/// Whether any valid lane of an `n`-lane row is definitely `False`
/// (`t = 0, h = 0`): the ∀-fold's counterexample probe.
#[inline]
pub fn any_false(t: &[u64], h: &[u64], n: usize) -> bool {
    assert_eq!(t.len(), h.len());
    let len = t.len();
    // Padding lanes read as False but are not valid: exclude the tail word
    // from the block sweep whenever it carries padding.
    let full = if len > 0 && tail_mask(n) == !0 { len } else { len.saturating_sub(1) };
    let mut tb = t[..full].chunks_exact(BLOCK_WORDS);
    let mut hb = h[..full].chunks_exact(BLOCK_WORDS);
    for (a, b) in tb.by_ref().zip(hb.by_ref()) {
        let mut acc = 0;
        for i in 0..BLOCK_WORDS {
            acc |= !(a[i] | b[i]);
        }
        if acc != 0 {
            return true;
        }
    }
    for (&a, &b) in tb.remainder().iter().zip(hb.remainder()) {
        if !(a | b) != 0 {
            return true;
        }
    }
    len > full && word_mask(n, len - 1) & !(t[len - 1] | h[len - 1]) != 0
}

/// Whether any valid lane of a whole plane slab (rows of `stride` words,
/// `n` valid lanes per row) violates `a ⊑ b` — the embedding check
/// [`le_info_violations`] applied block-wide.
#[inline]
pub fn le_info_any(ta: &[u64], ha: &[u64], tb: &[u64], hb: &[u64], n: usize, stride: usize) -> bool {
    let len = ta.len();
    assert!(ha.len() == len && tb.len() == len && hb.len() == len);
    if stride == 0 || len == 0 {
        return false;
    }
    debug_assert_eq!(len % stride, 0);
    if tail_mask(n) == !0 {
        // Every word fully valid: one unmasked sweep over the whole slab.
        let mut tab = ta.chunks_exact(BLOCK_WORDS);
        let mut hab = ha.chunks_exact(BLOCK_WORDS);
        let mut tbb = tb.chunks_exact(BLOCK_WORDS);
        let mut hbb = hb.chunks_exact(BLOCK_WORDS);
        for (a, b) in tab.by_ref().zip(hab.by_ref()) {
            let (c, d) = (tbb.next().unwrap(), hbb.next().unwrap());
            let mut acc = 0;
            for i in 0..BLOCK_WORDS {
                acc |= le_info_violations(a[i], b[i], c[i], d[i], !0);
            }
            if acc != 0 {
                return true;
            }
        }
        let (a, b) = (tab.remainder(), hab.remainder());
        let (c, d) = (tbb.remainder(), hbb.remainder());
        for i in 0..a.len() {
            if le_info_violations(a[i], b[i], c[i], d[i], !0) != 0 {
                return true;
            }
        }
        return false;
    }
    // Rows end in a padding tail: sweep each row's full words unmasked, then
    // mask its final word. Padding bits are zero on both sides by the stride
    // invariant, and (False ⊑ False) is never a violation, so the full-word
    // sweep could even tolerate them — the mask keeps the contract explicit.
    for row in 0..len / stride {
        let base = row * stride;
        for w in 0..stride - 1 {
            if le_info_violations(ta[base + w], ha[base + w], tb[base + w], hb[base + w], !0) != 0
            {
                return true;
            }
        }
        let w = base + stride - 1;
        if le_info_violations(ta[w], ha[w], tb[w], hb[w], tail_mask(n)) != 0 {
            return true;
        }
    }
    false
}

/// Whether any lane is possibly set (`≠ False`) in *both* plane pairs:
/// `(t1|h1) & (t2|h2)` over the row, block at a time (the failing-site and
/// overlap scans).
#[inline]
pub fn overlap_any(t1: &[u64], h1: &[u64], t2: &[u64], h2: &[u64]) -> bool {
    let len = t1.len();
    assert!(h1.len() == len && t2.len() == len && h2.len() == len);
    let mut t1b = t1.chunks_exact(BLOCK_WORDS);
    let mut h1b = h1.chunks_exact(BLOCK_WORDS);
    let mut t2b = t2.chunks_exact(BLOCK_WORDS);
    let mut h2b = h2.chunks_exact(BLOCK_WORDS);
    for (a, b) in t1b.by_ref().zip(h1b.by_ref()) {
        let (c, d) = (t2b.next().unwrap(), h2b.next().unwrap());
        let mut acc = 0;
        for i in 0..BLOCK_WORDS {
            acc |= (a[i] | b[i]) & (c[i] | d[i]);
        }
        if acc != 0 {
            return true;
        }
    }
    let (a, b) = (t1b.remainder(), h1b.remainder());
    let (c, d) = (t2b.remainder(), h2b.remainder());
    for i in 0..a.len() {
        if (a[i] | b[i]) & (c[i] | d[i]) != 0 {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a single-word plane pair holding `v` in lane `b`.
    fn lane_planes(v: Kleene, b: u32) -> (u64, u64) {
        let (t, h) = v.to_bits();
        ((t as u64) << b, (h as u64) << b)
    }

    #[test]
    fn le_info_violation_lanes_match_scalar() {
        for b in 0..64u32 {
            for a in Kleene::ALL {
                for c in Kleene::ALL {
                    let (ta, ha) = lane_planes(a, b);
                    let (tb, hb) = lane_planes(c, b);
                    let bad = le_info_violations(ta, ha, tb, hb, !0);
                    assert_eq!(
                        (bad >> b) & 1 != 0,
                        !a.le_info(c),
                        "le_info lane {b}: {a} ⊑ {c}"
                    );
                    // Other lanes encode (False ⊑ False): never a violation.
                    assert_eq!(bad & !(1 << b), 0);
                }
            }
        }
    }

    #[test]
    fn geometry_helpers() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(0), !0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(word_mask(65, 0), !0);
        assert_eq!(word_mask(65, 1), 1);
        assert_eq!(lane(65), (1, 1));
    }

    #[test]
    fn scan_helpers() {
        let words = [0b1010u64, 0, 1 << 63];
        assert_eq!(count_set(&words), 3);
        assert!(any_set(&words));
        assert_eq!(first_set(&words), Some(1));
        let mut seen = Vec::new();
        for_each_set(&words, |ix| seen.push(ix));
        assert_eq!(seen, vec![1, 3, 191]);
        assert_eq!(first_set(&[0, 0]), None);
        assert!(!any_set(&[0, 0]));
    }

    #[test]
    fn lane_roundtrip() {
        let mut t = vec![0u64; 2];
        let mut h = vec![0u64; 2];
        for (ix, v) in [(0, Kleene::True), (63, Kleene::Unknown), (64, Kleene::True)] {
            set_lane(&mut t, &mut h, ix, v);
            assert_eq!(get_lane(&t, &h, ix), v);
        }
        set_lane(&mut t, &mut h, 0, Kleene::False);
        assert_eq!(get_lane(&t, &h, 0), Kleene::False);
        assert_eq!(get_lane(&t, &h, 63), Kleene::Unknown);
    }
}
