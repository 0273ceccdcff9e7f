//! Hash-consing: one [`Pool`] keeps each distinct value once.
//!
//! A [`Pool`] holds its items in insertion order and hands out each item's
//! position as a compact [`PoolId`]. Lookup is keyed by a caller-given
//! 64-bit fingerprint. Fingerprints can collide, so each fingerprint maps
//! to a list of candidate ids and every candidate is confirmed by full
//! equality before its id is reused: a collision costs one comparison,
//! never a wrong answer. Equal values therefore always receive the same
//! id, so id equality is value equality.
//!
//! Every hash-consing site of hetsep is a pool: the engine's
//! [`StructureInterner`] over canonical [`Structure`]s, the cross-run
//! transfer store's contexts, keys and word-encoded structures, and the
//! daemon workspace's artifact registries. Each picks its own fingerprint:
//! [`Structure::fingerprint`] here, [`crate::structure::lane_fingerprint`]
//! of the words in the store, and the wire fingerprint of an artifact's
//! source text in the workspace. Ids are insertion positions, so nothing
//! about a pool's ids or order depends on the fingerprint's value.
//!
//! The engine keeps every canonical structure it has seen in per-location
//! sets and its worklist. Cloning whole [`Structure`] values into each of
//! those containers — and hashing the full predicate interpretation on
//! every map probe — dominates analysis time on the larger benchmarks, so
//! containers key on a 4-byte copyable [`StructureId`] instead. With the
//! bit-packed two-plane [`Structure`] layout both halves of a probe are
//! word-parallel: the fingerprint mixes one `u64` plane word (64 truth
//! values) per FNV round, in four independent lanes folded together at the
//! end, and the verifying `==` is a derived slice compare over the plane
//! vectors — the stride-padding invariant (bits past the universe size are
//! always zero) is what makes both value-exact.
//!
//! Each interned structure also carries a *settled* bit (see
//! [`StructureInterner::is_settled`]): a fact about the structure that the
//! engine proves while producing it and that lets later transfers skip
//! coerce and canonical-abstraction steps that would return their input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::structure::Structure;

/// A multiply-rotate hasher (the FxHash step) for maps keyed by ids and by
/// unkeyed content fingerprints. Keys chosen to collide, say from a daemon
/// client's sources, would already collide in the fingerprint, and a
/// [`Pool`] bucket survives that with full comparisons; SipHash's
/// resistance to chosen keys buys nothing there.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the high bits best mixed; hash tables index
        // by the low ones.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Position of an item in its [`Pool`]. Equal ids ⇔ equal items (within
/// one pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(u32);

impl PoolId {
    /// The item's insertion position.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw value, for serialization.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from [`PoolId::raw`]. Validity (the id being below
    /// the pool's [`Pool::len`]) is the caller's concern.
    pub fn from_raw(raw: u32) -> PoolId {
        PoolId(raw)
    }
}

/// A hash-consing arena: each distinct item once, in insertion order,
/// indexed by a caller-given fingerprint.
///
/// # Example
///
/// ```
/// use hetsep_tvl::intern::Pool;
/// let mut pool = Pool::new();
/// let (a, found) = pool.find_or_insert(7, "x".to_string());
/// assert!(!found);
/// // Another value under the same fingerprint gets its own id.
/// let (b, _) = pool.find_or_insert(7, "y".to_string());
/// assert_ne!(a, b);
/// assert_eq!(pool.find_or_insert(7, "x".to_string()), (a, true));
/// assert_eq!(pool.find(7, |s| s == "y"), Some(b));
/// assert_eq!(pool.get(b), "y");
/// ```
#[derive(Debug, Clone)]
pub struct Pool<T> {
    items: Vec<T>,
    /// Fingerprint → ids of the items with that fingerprint.
    buckets: IdMap<u64, Vec<PoolId>>,
}

impl<T> Default for Pool<T> {
    fn default() -> Pool<T> {
        Pool {
            items: Vec::new(),
            buckets: IdMap::default(),
        }
    }
}

impl<T> Pool<T> {
    /// Creates an empty pool.
    pub fn new() -> Pool<T> {
        Pool::default()
    }

    /// The id of the item with fingerprint `fp` that `is` accepts. `is`
    /// must be full equality with the value sought, as it is in
    /// [`Pool::find_or_insert`].
    pub fn find(&self, fp: u64, mut is: impl FnMut(&T) -> bool) -> Option<PoolId> {
        self.buckets
            .get(&fp)?
            .iter()
            .copied()
            .find(|&id| is(&self.items[id.index()]))
    }

    /// The id of the item equal to `item` (whose fingerprint is `fp`),
    /// appending `item` when there is none, and whether it was there
    /// already. One map probe either way.
    pub fn find_or_insert(&mut self, fp: u64, item: T) -> (PoolId, bool)
    where
        T: Eq,
    {
        let bucket = self.buckets.entry(fp).or_default();
        if let Some(&id) = bucket.iter().find(|&&id| self.items[id.index()] == item) {
            return (id, true);
        }
        let id = PoolId(u32::try_from(self.items.len()).expect("pool overflow"));
        self.items.push(item);
        bucket.push(id);
        (id, false)
    }

    /// The item an id refers to.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`Pool::len`].
    pub fn get(&self, id: PoolId) -> &T {
        &self.items[id.index()]
    }

    /// Number of distinct items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Every item with its id, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (PoolId, &T)> {
        self.items
            .iter()
            .enumerate()
            .map(|(ix, item)| (PoolId(ix as u32), item))
    }
}

/// Arena index of an interned structure. Equal ids ⇔ equal structures
/// (within one interner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StructureId(PoolId);

impl StructureId {
    /// Raw arena index.
    pub fn index(self) -> usize {
        self.0.index()
    }
}

/// A hash-consing arena for [`Structure`]s: a [`Pool`] under
/// [`Structure::fingerprint`], with a settled bit per entry and probe
/// counts.
///
/// # Example
///
/// ```
/// use hetsep_tvl::{PredTable, Structure};
/// use hetsep_tvl::intern::StructureInterner;
/// let t = PredTable::new();
/// let mut interner = StructureInterner::new();
/// let a = interner.intern(Structure::new(&t));
/// let b = interner.intern(Structure::new(&t));
/// assert_eq!(a, b, "equal structures intern to the same id");
/// assert_eq!(interner.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct StructureInterner {
    pool: Pool<Structure>,
    /// The settled bit of each pool entry.
    settled: Vec<bool>,
    /// Probes answered from the pool (structure already interned).
    hits: u64,
    /// Probes that materialized a new pool entry.
    misses: u64,
}

impl StructureInterner {
    /// Creates an empty interner.
    pub fn new() -> StructureInterner {
        StructureInterner::default()
    }

    /// Interns a structure, returning the id of the pool copy equal to it.
    ///
    /// Structures should already be in canonical node order (the engine
    /// interns [`crate::canon::canonical_key`] outputs); the interner itself
    /// only requires `==`-equality, so order-sensitive callers get exact
    /// behavior either way.
    pub fn intern(&mut self, s: Structure) -> StructureId {
        let (id, found) = self.pool.find_or_insert(s.fingerprint(), s);
        if found {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.settled.push(false);
        }
        StructureId(id)
    }

    /// Marks `id` settled: its structure is a coerce fixpoint (coerce
    /// returns it unchanged and feasible) and canonical abstraction returns
    /// it unchanged (its canonical names are sorted and unique). Callers
    /// that skip work on the bit rely on both, so only a structure proven to
    /// have them may be marked (see [`crate::canon::blur_post`]). Both are
    /// properties of the structure alone, so an entry may be marked at any
    /// time; entries start unsettled.
    pub fn settle(&mut self, id: StructureId) {
        self.settled[id.index()] = true;
    }

    /// Whether `id` was marked by [`StructureInterner::settle`].
    pub fn is_settled(&self, id: StructureId) -> bool {
        self.settled[id.index()]
    }

    /// The structure an id refers to.
    pub fn resolve(&self, id: StructureId) -> &Structure {
        self.pool.get(id.0)
    }

    /// Number of distinct structures interned.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Probes answered by an existing pool entry (hash-consing savings).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probes that materialized a new pool entry (`misses() == len()`).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kleene::Kleene;
    use crate::pred::{PredFlags, PredTable};
    use crate::structure::lane_fingerprint;

    fn vocab() -> PredTable {
        let mut t = PredTable::new();
        t.add_unary("x", PredFlags::reference_variable());
        t
    }

    #[test]
    fn equal_structures_share_an_id() {
        let t = vocab();
        let mut interner = StructureInterner::new();
        let mut a = Structure::new(&t);
        a.add_node(&t);
        let ida = interner.intern(a.clone());
        let idb = interner.intern(a.clone());
        assert_eq!(ida, idb);
        assert_eq!(interner.len(), 1);
        assert_eq!(interner.resolve(ida), &a);
    }

    #[test]
    fn distinct_structures_get_distinct_ids() {
        let t = vocab();
        let x = t.lookup("x").unwrap();
        let mut interner = StructureInterner::new();
        let mut a = Structure::new(&t);
        let u = a.add_node(&t);
        let ida = interner.intern(a.clone());
        a.set_unary(&t, x, u, Kleene::True);
        let idb = interner.intern(a);
        assert_ne!(ida, idb);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn hit_and_miss_counters_track_probes() {
        let t = vocab();
        let mut interner = StructureInterner::new();
        let mut a = Structure::new(&t);
        a.add_node(&t);
        interner.intern(a.clone());
        interner.intern(a.clone());
        interner.intern(Structure::new(&t));
        assert_eq!(interner.hits(), 1);
        assert_eq!(interner.misses(), 2);
        assert_eq!(interner.misses(), interner.len() as u64);
    }

    #[test]
    fn fingerprint_is_content_based() {
        let t = vocab();
        let mut a = Structure::new(&t);
        a.add_node(&t);
        let b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let empty = Structure::new(&t);
        assert_ne!(a.fingerprint(), empty.fingerprint());
    }

    #[test]
    fn survives_fingerprint_collisions() {
        // Every value goes into one bucket: distinct values must still get
        // distinct ids, equal values the same one.
        const FP: u64 = 42;
        let mut pool = Pool::new();
        let values: Vec<Vec<u64>> = (0..40u64).map(|i| vec![i; 1 + (i % 3) as usize]).collect();
        let ids: Vec<PoolId> = values
            .iter()
            .map(|v| {
                let (id, found) = pool.find_or_insert(FP, v.clone());
                assert!(!found, "a distinct value is new");
                id
            })
            .collect();
        let mut deduped = ids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), ids.len(), "distinct values, distinct ids");
        assert_eq!(pool.len(), values.len());
        for (v, &id) in values.iter().zip(&ids) {
            assert_eq!(pool.find_or_insert(FP, v.clone()), (id, true));
            assert_eq!(pool.find(FP, |w| w == v), Some(id));
            assert_eq!(pool.get(id), v);
        }
        assert_eq!(pool.len(), values.len(), "equal values add nothing");
        let listed: Vec<(PoolId, &Vec<u64>)> = pool.iter().collect();
        let expected: Vec<(PoolId, &Vec<u64>)> = ids.iter().copied().zip(&values).collect();
        assert_eq!(listed, expected, "iter lists each value under its id");
        assert_eq!(pool.find(FP, |w| w == &vec![99]), None);
        assert_eq!(pool.find(FP + 1, |w| w == &values[0]), None, "wrong bucket");
    }

    /// Interns a word vector under its lane fingerprint, as the transfer
    /// store does.
    fn pool_words(pool: &mut Pool<Box<[u64]>>, words: &[u64]) -> PoolId {
        let fp = lane_fingerprint([words.len() as u64], [words]);
        pool.find_or_insert(fp, words.into()).0
    }

    #[test]
    fn word_pool_interns_exactly() {
        let mut pool = Pool::new();
        let a = pool_words(&mut pool, &[1, 2, 3]);
        let b = pool_words(&mut pool, &[1, 2, 3]);
        let c = pool_words(&mut pool, &[1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
        assert_eq!(&**pool.get(a), &[1, 2, 3]);
        let find = |w: &[u64]| {
            let fp = lane_fingerprint([w.len() as u64], [w]);
            pool.find(fp, |x| **x == *w)
        };
        assert_eq!(find(&[1, 2, 4]), Some(c));
        assert_eq!(find(&[9]), None);
        assert_eq!(PoolId::from_raw(c.raw()), c);
    }

    #[test]
    fn word_pool_iterates_in_insertion_order() {
        let mut pool = Pool::new();
        let ids: Vec<PoolId> = (0..200u64)
            .map(|i| pool_words(&mut pool, &[i, i * 31]))
            .collect();
        assert_eq!(pool.len(), 200);
        // Every id resolves to its own entry, and iteration visits every
        // entry exactly once, in insertion order.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(&**pool.get(*id), &[i as u64, i as u64 * 31]);
        }
        let order: Vec<PoolId> = pool.iter().map(|(id, _)| id).collect();
        assert_eq!(order, ids);
    }

    #[test]
    fn merging_a_pool_gives_the_ids_of_interning_its_entries() {
        let mut base = Pool::new();
        for i in 0..40u64 {
            pool_words(&mut base, &[i, 1]);
        }
        let seen: Vec<[u64; 2]> = (20..90u64).map(|i| [i, 1]).collect();
        let mut other = Pool::new();
        let ids: Vec<PoolId> = seen.iter().map(|w| pool_words(&mut other, w)).collect();
        let mut direct = base.clone();
        let want: Vec<PoolId> = seen.iter().map(|w| pool_words(&mut direct, w)).collect();
        // Merge as the transfer store does: intern `other`'s items in
        // order, mapping its ids through a `Vec`.
        let map: Vec<PoolId> = other
            .iter()
            .map(|(_, w)| pool_words(&mut base, w))
            .collect();
        let got: Vec<PoolId> = ids.iter().map(|&id| map[id.index()]).collect();
        assert_eq!(got, want);
        assert_eq!(base.len(), direct.len());
        let order =
            |p: &Pool<Box<[u64]>>| p.iter().map(|(id, w)| (id, w.to_vec())).collect::<Vec<_>>();
        assert_eq!(order(&base), order(&direct));
    }

    #[test]
    fn word_pool_ids_distinguish_distinct_vectors() {
        // Length is mixed into the fingerprint: a prefix never aliases.
        let mut pool = Pool::new();
        let short = pool_words(&mut pool, &[7]);
        let long = pool_words(&mut pool, &[7, 0]);
        assert_ne!(short, long);
        assert_eq!(&**pool.get(short), &[7]);
        assert_eq!(&**pool.get(long), &[7, 0]);
        assert_ne!(
            lane_fingerprint([1], [&[7u64][..]]),
            lane_fingerprint([2], [&[7u64, 0][..]])
        );
    }
}
