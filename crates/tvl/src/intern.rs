//! Hash-consing of canonically-ordered structures.
//!
//! The abstract-interpretation engine keeps every canonical structure it has
//! seen in per-location sets and its worklist. Cloning whole [`Structure`]
//! values into each of those containers — and hashing the full predicate
//! interpretation on every map probe — dominates analysis time on the larger
//! benchmarks. A [`StructureInterner`] stores each distinct structure once in
//! an arena and hands out a compact [`StructureId`]; equal structures always
//! receive the same id, so id equality is structure equality and containers
//! can key on a 4-byte copyable value.
//!
//! Lookup is keyed by the structure's 64-bit [`Structure::fingerprint`].
//! Fingerprints can collide, so each fingerprint bucket holds a list of
//! candidate ids and interning verifies candidates with full `==` before
//! reusing an id — a collision costs one structure comparison, never a wrong
//! answer.
//!
//! Each id also carries a *settled* bit (see
//! [`StructureInterner::is_settled`]): a fact about the structure that the
//! engine proves while producing it and that lets later transfers skip
//! coerce and canonical-abstraction steps that would return their input.
//!
//! With the bit-packed two-plane [`Structure`] layout both halves of a probe
//! are word-parallel: the fingerprint mixes one `u64` plane word (64 truth
//! values) per FNV round, in four independent lanes folded together at the
//! end, and the verifying `==` is a derived slice compare over the plane
//! vectors — the stride-padding invariant (bits past the universe size are
//! always zero) is what makes both value-exact.
//!
//! The lane fingerprint is in-memory only: the interner's buckets and
//! [`crate::canon::CanonicalKey::fingerprint`] read it, nothing persists it,
//! so its value may change between builds. [`WordPool`]'s fingerprint is
//! different: it fixes each entry's shard, hence its [`PoolId`], and the
//! order of the pool's (serialized) entries, so it stays the single-chain
//! FNV-1a it is, and a persisted cache keeps its bytes.

use std::collections::HashMap;

use crate::structure::Structure;

/// Arena index of an interned structure. Equal ids ⇔ equal structures
/// (within one interner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StructureId(u32);

impl StructureId {
    /// Raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hash-consing arena for [`Structure`]s.
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
    arena: Vec<Structure>,
    /// The settled bit of each arena entry.
    settled: Vec<bool>,
    /// fingerprint → candidate ids with that fingerprint.
    buckets: HashMap<u64, Vec<StructureId>>,
    /// Probes answered from the arena (structure already interned).
    hits: u64,
    /// Probes that materialized a new arena entry.
    misses: u64,
}

impl StructureInterner {
    /// Creates an empty interner.
    pub fn new() -> StructureInterner {
        StructureInterner::default()
    }

    /// Interns a structure, returning the id of the arena copy equal to it.
    ///
    /// Structures should already be in canonical node order (the engine
    /// interns [`crate::canon::canonical_key`] outputs); the interner itself
    /// only requires `==`-equality, so order-sensitive callers get exact
    /// behavior either way.
    pub fn intern(&mut self, s: Structure) -> StructureId {
        let fp = s.fingerprint();
        let bucket = self.buckets.entry(fp).or_default();
        for &id in bucket.iter() {
            if self.arena[id.index()] == s {
                self.hits += 1;
                return id;
            }
        }
        self.misses += 1;
        let id = StructureId(u32::try_from(self.arena.len()).expect("interner overflow"));
        self.arena.push(s);
        self.settled.push(false);
        bucket.push(id);
        id
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
        &self.arena[id.index()]
    }

    /// Number of distinct structures interned.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Probes answered by an existing arena entry (hash-consing savings).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probes that materialized a new arena entry (`misses() == len()`).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }
}

/// Number of shards in a [`WordPool`] (a power of two; the shard of an entry
/// is the low bits of its fingerprint).
pub const WORD_POOL_SHARDS: usize = 16;

/// Pool handle of a word-encoded structure. Equal ids ⇔ equal word vectors
/// (within one pool). The shard lives in the low 4 bits, the in-shard index
/// in the upper 28.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(u32);

impl PoolId {
    fn new(shard: usize, ix: usize) -> PoolId {
        let packed = (ix as u32) << 4 | shard as u32;
        assert!(packed >> 4 == ix as u32, "word pool shard overflow");
        PoolId(packed)
    }

    fn shard(self) -> usize {
        (self.0 & 0xf) as usize
    }

    fn index(self) -> usize {
        (self.0 >> 4) as usize
    }

    /// Raw packed value, for serialization.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from [`PoolId::raw`]. Validity (the id resolving in a
    /// given pool) is the caller's concern — see [`WordPool::contains`].
    pub fn from_raw(raw: u32) -> PoolId {
        PoolId(raw)
    }
}

#[derive(Debug, Default, Clone)]
struct WordShard {
    arena: Vec<Box<[u64]>>,
    /// fingerprint → in-shard candidate indices with that fingerprint.
    buckets: HashMap<u64, Vec<u32>>,
}

/// A sharded hash-consing pool for *word-encoded* structures
/// (`Structure::to_words` outputs), shared across verification jobs.
///
/// Same discipline as [`StructureInterner`] — fingerprint bucket, then full
/// slice equality before reusing an id, so a collision costs one comparison
/// and never a wrong answer — but over plain word vectors, which keeps the
/// pool independent of any predicate table and lets one pool back jobs with
/// different vocabularies. Sharding by fingerprint bits keeps individual
/// hash maps small at corpus scale; lookups stay single-threaded and
/// deterministic (the job scheduler merges per-job additions in job order,
/// the same discipline the subproblem scheduler uses for site results).
#[derive(Debug, Clone)]
pub struct WordPool {
    shards: Vec<WordShard>,
    len: usize,
}

impl Default for WordPool {
    fn default() -> WordPool {
        WordPool {
            shards: vec![WordShard::default(); WORD_POOL_SHARDS],
            len: 0,
        }
    }
}

impl WordPool {
    /// Creates an empty pool.
    pub fn new() -> WordPool {
        WordPool::default()
    }

    /// FNV-1a over the length and the words. It fixes shards, ids and the
    /// serialized entry order, so its value must not change.
    fn fingerprint(words: &[u64]) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        h = (h ^ words.len() as u64).wrapping_mul(PRIME);
        for &w in words {
            h = (h ^ w).wrapping_mul(PRIME);
        }
        h
    }

    /// Interns a word vector, returning the id of the pool copy equal to it.
    pub fn intern(&mut self, words: &[u64]) -> PoolId {
        let fp = Self::fingerprint(words);
        let shard_ix = (fp as usize) % WORD_POOL_SHARDS;
        let shard = &mut self.shards[shard_ix];
        let bucket = shard.buckets.entry(fp).or_default();
        for &ix in bucket.iter() {
            if &*shard.arena[ix as usize] == words {
                return PoolId::new(shard_ix, ix as usize);
            }
        }
        let ix = shard.arena.len();
        shard.arena.push(words.into());
        bucket.push(ix as u32);
        self.len += 1;
        PoolId::new(shard_ix, ix)
    }

    /// Read-only probe: the id of an equal entry, if one exists.
    pub fn get(&self, words: &[u64]) -> Option<PoolId> {
        let fp = Self::fingerprint(words);
        let shard_ix = (fp as usize) % WORD_POOL_SHARDS;
        let shard = &self.shards[shard_ix];
        let bucket = shard.buckets.get(&fp)?;
        bucket
            .iter()
            .find(|&&ix| &*shard.arena[ix as usize] == words)
            .map(|&ix| PoolId::new(shard_ix, ix as usize))
    }

    /// The word vector an id refers to.
    ///
    /// # Panics
    ///
    /// Panics if the id did not come from this pool (or
    /// [`WordPool::contains`] is false for it).
    pub fn resolve(&self, id: PoolId) -> &[u64] {
        &self.shards[id.shard()].arena[id.index()]
    }

    /// Whether `id` resolves in this pool (used to validate deserialized
    /// ids).
    pub fn contains(&self, id: PoolId) -> bool {
        id.shard() < self.shards.len() && id.index() < self.shards[id.shard()].arena.len()
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Interns every entry of `other` here, shard by shard in in-shard
    /// order, and returns the id each of `other`'s ids now has.
    ///
    /// An entry's shard is fixed by its fingerprint, so the entries new to
    /// this pool are appended to each shard in the order `other` holds them.
    /// For an `other` grown from empty, that is the order in which `other`
    /// first met them: merging gives the ids that interning everything
    /// `other` interned, in the same order, straight into this pool would
    /// have given.
    pub fn merge(&mut self, other: &WordPool) -> PoolMap {
        PoolMap(
            other
                .shards
                .iter()
                .map(|shard| shard.arena.iter().map(|words| self.intern(words)).collect())
                .collect(),
        )
    }

    /// All entries in deterministic (shard-major, insertion) order, for
    /// serialization.
    pub fn iter(&self) -> impl Iterator<Item = (PoolId, &[u64])> {
        self.shards.iter().enumerate().flat_map(|(s, shard)| {
            shard
                .arena
                .iter()
                .enumerate()
                .map(move |(ix, words)| (PoolId::new(s, ix), &**words))
        })
    }
}

/// Where [`WordPool::merge`] put each id of the merged pool.
#[derive(Debug, Clone)]
pub struct PoolMap(Vec<Vec<PoolId>>);

impl PoolMap {
    /// The id in the merged-into pool of `id`, an id of the merged pool.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from the merged pool.
    pub fn get(&self, id: PoolId) -> PoolId {
        self.0[id.shard()][id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kleene::Kleene;
    use crate::pred::{PredFlags, PredTable};

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
        // Force every structure into one bucket by construction: intern many
        // distinct structures and check ids stay exact even when we simulate
        // bucket sharing through repeated interning.
        let t = vocab();
        let x = t.lookup("x").unwrap();
        let mut interner = StructureInterner::new();
        let mut ids = Vec::new();
        for i in 0..16 {
            let mut s = Structure::new(&t);
            for _ in 0..=i {
                s.add_node(&t);
            }
            let u = s.nodes().next().unwrap();
            s.set_unary(&t, x, u, Kleene::Unknown);
            ids.push(interner.intern(s.clone()));
            assert_eq!(*ids.last().unwrap(), interner.intern(s));
        }
        let mut deduped = ids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), ids.len(), "distinct structures, distinct ids");
    }

    #[test]
    fn word_pool_interns_exactly() {
        let mut pool = WordPool::new();
        let a = pool.intern(&[1, 2, 3]);
        let b = pool.intern(&[1, 2, 3]);
        let c = pool.intern(&[1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.resolve(a), &[1, 2, 3]);
        assert_eq!(pool.get(&[1, 2, 4]), Some(c));
        assert_eq!(pool.get(&[9]), None);
        assert!(pool.contains(PoolId::from_raw(c.raw())));
    }

    #[test]
    fn word_pool_distributes_and_iterates_deterministically() {
        let mut pool = WordPool::new();
        let ids: Vec<PoolId> = (0..200u64).map(|i| pool.intern(&[i, i * 31])).collect();
        assert_eq!(pool.len(), 200);
        // Every id resolves to its own entry.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(pool.resolve(*id), &[i as u64, i as u64 * 31]);
        }
        // More than one shard is populated, and iteration visits every
        // entry exactly once in a reproducible order.
        let shards: std::collections::HashSet<usize> =
            ids.iter().map(|id| (id.raw() & 0xf) as usize).collect();
        assert!(shards.len() > 1, "fingerprint sharding distributes");
        let order1: Vec<u32> = pool.iter().map(|(id, _)| id.raw()).collect();
        let order2: Vec<u32> = pool.iter().map(|(id, _)| id.raw()).collect();
        assert_eq!(order1.len(), 200);
        assert_eq!(order1, order2);
    }

    #[test]
    fn merging_a_pool_gives_the_ids_of_interning_its_entries() {
        let mut base = WordPool::new();
        for i in 0..40u64 {
            base.intern(&[i, 1]);
        }
        let seen: Vec<[u64; 2]> = (20..90u64).map(|i| [i, 1]).collect();
        let mut other = WordPool::new();
        let ids: Vec<PoolId> = seen.iter().map(|w| other.intern(w)).collect();
        let mut direct = base.clone();
        let want: Vec<PoolId> = seen.iter().map(|w| direct.intern(w)).collect();
        let map = base.merge(&other);
        let got: Vec<PoolId> = ids.iter().map(|&id| map.get(id)).collect();
        assert_eq!(got, want);
        assert_eq!(base.len(), direct.len());
        let order = |p: &WordPool| p.iter().map(|(id, w)| (id, w.to_vec())).collect::<Vec<_>>();
        assert_eq!(order(&base), order(&direct));
    }

    #[test]
    fn word_pool_ids_distinguish_distinct_vectors() {
        // Length is mixed into the fingerprint: a prefix never aliases.
        let mut pool = WordPool::new();
        let short = pool.intern(&[7]);
        let long = pool.intern(&[7, 0]);
        assert_ne!(short, long);
        assert_eq!(pool.resolve(short), &[7]);
        assert_eq!(pool.resolve(long), &[7, 0]);
    }
}
