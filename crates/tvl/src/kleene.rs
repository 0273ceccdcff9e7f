//! Kleene three-valued truth values.
//!
//! The third value [`Kleene::Unknown`] (written `1/2` in the paper) denotes a
//! value that may be either `0` or `1`. Logical connectives follow Kleene's
//! strong three-valued semantics; the *information order* (`0 ⊑ 1/2`,
//! `1 ⊑ 1/2`) is exposed through [`Kleene::join`] and [`Kleene::le_info`].

use std::fmt;
use std::ops::{BitAnd, BitOr, Not};

/// A truth value of Kleene's strong three-valued logic.
///
/// `False` and `True` are the *definite* values; `Unknown` (the paper's `1/2`)
/// subsumes both in the information order.
///
/// # Example
///
/// ```
/// use hetsep_tvl::Kleene;
/// assert_eq!(Kleene::True & Kleene::Unknown, Kleene::Unknown);
/// assert_eq!(Kleene::False & Kleene::Unknown, Kleene::False);
/// assert_eq!(!Kleene::Unknown, Kleene::Unknown);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kleene {
    /// Definitely false (`0`).
    #[default]
    False,
    /// May be false or true (`1/2`).
    Unknown,
    /// Definitely true (`1`).
    True,
}

impl Kleene {
    /// All three truth values, in `False < Unknown < True` order.
    pub const ALL: [Kleene; 3] = [Kleene::False, Kleene::Unknown, Kleene::True];

    /// Converts a two-valued boolean into a definite truth value.
    #[inline]
    pub fn from_bool(b: bool) -> Kleene {
        if b {
            Kleene::True
        } else {
            Kleene::False
        }
    }

    /// Decodes the two-plane bit encoding used by [`crate::bits`]:
    /// `(t, h)` = `(false, false)` → `False`, `(false, true)` → `Unknown`,
    /// `(true, _)` → `True`.
    ///
    /// The planes maintain `t & h == 0`, so the `(true, true)` case cannot
    /// arise from well-formed storage; it decodes to `True` (the `t` plane
    /// wins) to keep the function total.
    #[inline]
    pub fn from_bits(t: bool, h: bool) -> Kleene {
        if t {
            Kleene::True
        } else if h {
            Kleene::Unknown
        } else {
            Kleene::False
        }
    }

    /// Encodes the value for two-plane bit storage; inverse of
    /// [`Kleene::from_bits`]. The returned pair never has both bits set.
    #[inline]
    pub fn to_bits(self) -> (bool, bool) {
        match self {
            Kleene::False => (false, false),
            Kleene::Unknown => (false, true),
            Kleene::True => (true, false),
        }
    }

    /// Returns `true` when the value is `False` or `True` (not `1/2`).
    #[inline]
    pub fn is_definite(self) -> bool {
        self != Kleene::Unknown
    }

    /// Returns `true` when the value *may* be true (`True` or `Unknown`).
    #[inline]
    pub fn maybe_true(self) -> bool {
        self != Kleene::False
    }

    /// Returns `true` when the value *may* be false (`False` or `Unknown`).
    #[inline]
    pub fn maybe_false(self) -> bool {
        self != Kleene::True
    }

    /// Kleene conjunction (minimum in the truth order `0 < 1/2 < 1`).
    #[inline]
    pub fn and(self, other: Kleene) -> Kleene {
        self.min(other)
    }

    /// Kleene disjunction (maximum in the truth order).
    #[inline]
    pub fn or(self, other: Kleene) -> Kleene {
        self.max(other)
    }

    /// Kleene negation: swaps `False`/`True`, fixes `Unknown`.
    #[inline]
    pub fn negate(self) -> Kleene {
        match self {
            Kleene::False => Kleene::True,
            Kleene::Unknown => Kleene::Unknown,
            Kleene::True => Kleene::False,
        }
    }

    /// Least upper bound in the *information order*: `x ⊔ x = x`, and the
    /// join of two distinct values is `Unknown`.
    ///
    /// This is the operation used when blur merges individuals.
    #[inline]
    pub fn join(self, other: Kleene) -> Kleene {
        if self == other {
            self
        } else {
            Kleene::Unknown
        }
    }

    /// Information order: `a ⊑ b` iff `b` conservatively approximates `a`
    /// (`b == a` or `b == Unknown`).
    #[inline]
    pub fn le_info(self, other: Kleene) -> bool {
        self == other || other == Kleene::Unknown
    }
}

impl From<bool> for Kleene {
    fn from(b: bool) -> Kleene {
        Kleene::from_bool(b)
    }
}

impl BitAnd for Kleene {
    type Output = Kleene;
    fn bitand(self, rhs: Kleene) -> Kleene {
        self.and(rhs)
    }
}

impl BitOr for Kleene {
    type Output = Kleene;
    fn bitor(self, rhs: Kleene) -> Kleene {
        self.or(rhs)
    }
}

impl Not for Kleene {
    type Output = Kleene;
    fn not(self) -> Kleene {
        self.negate()
    }
}

impl fmt::Display for Kleene {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kleene::False => write!(f, "0"),
            Kleene::Unknown => write!(f, "1/2"),
            Kleene::True => write!(f, "1"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables_and() {
        use Kleene::*;
        assert_eq!(True & True, True);
        assert_eq!(True & False, False);
        assert_eq!(True & Unknown, Unknown);
        assert_eq!(False & Unknown, False);
        assert_eq!(Unknown & Unknown, Unknown);
    }

    #[test]
    fn truth_tables_or() {
        use Kleene::*;
        assert_eq!(False | False, False);
        assert_eq!(False | True, True);
        assert_eq!(False | Unknown, Unknown);
        assert_eq!(True | Unknown, True);
        assert_eq!(Unknown | Unknown, Unknown);
    }

    #[test]
    fn negation_is_involutive() {
        for v in Kleene::ALL {
            assert_eq!(!!v, v);
        }
    }

    #[test]
    fn de_morgan() {
        for a in Kleene::ALL {
            for b in Kleene::ALL {
                assert_eq!(!(a & b), !a | !b);
                assert_eq!(!(a | b), !a & !b);
            }
        }
    }

    #[test]
    fn join_is_commutative_idempotent() {
        for a in Kleene::ALL {
            assert_eq!(a.join(a), a);
            for b in Kleene::ALL {
                assert_eq!(a.join(b), b.join(a));
                assert!(a.le_info(a.join(b)));
                assert!(b.le_info(a.join(b)));
            }
        }
    }

    #[test]
    fn info_order_top_is_unknown() {
        for a in Kleene::ALL {
            assert!(a.le_info(Kleene::Unknown));
        }
        assert!(!Kleene::Unknown.le_info(Kleene::True));
        assert!(!Kleene::True.le_info(Kleene::False));
    }

    #[test]
    fn connectives_monotone_in_info_order() {
        // If a ⊑ a' and b ⊑ b' then (a op b) ⊑ (a' op b').
        for a in Kleene::ALL {
            for ap in Kleene::ALL {
                if !a.le_info(ap) {
                    continue;
                }
                for b in Kleene::ALL {
                    for bp in Kleene::ALL {
                        if !b.le_info(bp) {
                            continue;
                        }
                        assert!((a & b).le_info(ap & bp));
                        assert!((a | b).le_info(ap | bp));
                    }
                }
                assert!((!a).le_info(!ap));
            }
        }
    }

    #[test]
    fn from_bool_roundtrip() {
        assert_eq!(Kleene::from(true), Kleene::True);
        assert_eq!(Kleene::from(false), Kleene::False);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Kleene::False.to_string(), "0");
        assert_eq!(Kleene::Unknown.to_string(), "1/2");
        assert_eq!(Kleene::True.to_string(), "1");
    }

    #[test]
    fn bit_encoding_roundtrips_and_orders() {
        for v in Kleene::ALL {
            let (t, h) = v.to_bits();
            assert!(!(t && h), "t/h planes are mutually exclusive");
            assert_eq!(Kleene::from_bits(t, h), v);
            // The 2-bit code (t << 1) | h preserves the truth order
            // False < Unknown < True, which canonical-name packing relies on.
            let code = ((t as u8) << 1) | h as u8;
            assert_eq!(code, v as u8);
        }
    }

    #[test]
    fn maybe_predicates() {
        assert!(Kleene::Unknown.maybe_true());
        assert!(Kleene::Unknown.maybe_false());
        assert!(!Kleene::False.maybe_true());
        assert!(!Kleene::True.maybe_false());
        assert!(Kleene::True.is_definite());
        assert!(!Kleene::Unknown.is_definite());
    }
}
