//! The cross-run transfer store: content-keyed, persistent, exact
//! memoization.
//!
//! Inside a run the engine names a transfer (the focus → coerce → update →
//! canon pipeline) by `(action content id, interned pre-structure id)`.
//! Both halves of that name are run-local, so every job of a corpus would
//! re-pay every transfer from scratch. This module keys transfers by
//! **content** so that a computed one outlives its run, its job, and
//! (serialized to disk) its process. Call regions are drained like the rest
//! of the CFG, so a warm run replays them transfer by transfer from the
//! same store:
//!
//! * the *context* of an entry is the full predicate-table content (name,
//!   arity, and flags — including defining formulas — of every predicate, in
//!   registration order, and the relevance mask) plus the focus limit
//!   ([`context_content`]). The transfer pipeline is a pure function of
//!   `(table, focus_limit, action, input structure)`: coerce constraints
//!   are compiled from the table, canonicalization reads only abstraction
//!   flags and the relevance mask, and focus is bounded by the limit. Two
//!   runs with equal context strings therefore agree on every memoized
//!   output;
//! * a *key* is an action's full `Debug` rendering within a context
//!   ([`action_content`]). Predicate ids in formulas are table-relative,
//!   which is exactly what scoping by context makes unambiguous;
//! * *input and output structures* are keyed by their
//!   [`Structure::to_words`] encoding, so outputs shared between entries
//!   are stored once.
//!
//! Contexts, keys and structures are each hash-consed in an
//! [`intern::Pool`](Pool), the interner's discipline: fingerprint-indexed
//! for speed, full content comparison before reuse — a collision costs one
//! comparison, never a wrong answer. An id is the item's insertion
//! position, so ids and the file's order depend only on the order in which
//! the store first met its items, never on a hash value. Entries replay the exact canonical
//! outputs and the violations the computation would have produced, so warm
//! and cold corpus runs are observation-equivalent (verdicts, reported
//! errors, visit counts); only the cache counters and wall-clock differ.
//!
//! # Concurrency model (snapshot + delta)
//!
//! The job scheduler freezes a [`TransferStore`] snapshot before a batch:
//! jobs *probe* the snapshot read-only and *record* their misses into
//! per-job [`SharedTransferSession`] deltas. As each job-order prefix of the
//! batch completes, the scheduler absorbs its deltas, in job order, into a
//! batch-level store that started empty ([`TransferStore::absorb`]), and
//! after the batch folds that store into the snapshot
//! ([`TransferStore::merge`]), which gives exactly the ids and bytes
//! absorbing every delta into the snapshot would. A delta is hash-consed per
//! run (see [`Delta`]): it holds each distinct structure the run recorded
//! once, in an order that leaves the merged store's bytes as they would be
//! without the deduplication. Per-job results and counters therefore depend
//! only on the snapshot — not on the worker count or on which jobs happened
//! to finish first — which is what keeps corpus output byte-identical
//! across schedules (the same determinism discipline the subproblem
//! scheduler uses for site results).
//!
//! # On-disk format
//!
//! The cache file is the store's own bytes: the magic `HSEPTC02`, the
//! context strings, the `(context id, content)` keys, the pool's
//! `(id, words)` structures in first-met order, and the entries in sorted
//! key order, each as key id, input id, output ids, violations and peak
//! post universe.
//! Integers are little-endian, counts and string lengths `u32`. Anything
//! with another magic is rejected as bad magic. Decoding never trusts a
//! length it has not checked against the bytes that remain, so a corrupt
//! file is an error, never an abort.

use std::collections::hash_map::Entry as MapEntry;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::{Arc, Mutex};

use hetsep_tvl::intern::{IdHasher, IdMap, Pool, PoolId, StructureId, StructureInterner};
use hetsep_tvl::structure::lane_fingerprint;
use hetsep_tvl::{PredTable, Structure};

/// The content string identifying a memo context: the full predicate table
/// plus the focus limit. Runs with equal context strings compute identical
/// transfer functions.
pub fn context_content(table: &PredTable, focus_limit: usize) -> String {
    let mut s = String::new();
    let _ = write!(s, "focus_limit={focus_limit};");
    for p in table.iter() {
        let _ = write!(
            s,
            "{}:{:?}:{:?};",
            table.name(p),
            table.arity(p),
            table.flags(p)
        );
    }
    if let Some((c, preds)) = table.relevance_mask() {
        let _ = write!(s, "mask={c}:{preds:?};");
    }
    s
}

/// The content string identifying an action within a context (its full
/// `Debug` rendering; predicate ids are table-relative, hence the scoping).
pub fn action_content(action: &hetsep_tvl::action::Action) -> String {
    format!("{action:?}")
}

/// Magic prefix of a serialized [`TransferStore`], the cache file format.
/// `HSEPTC01` files wrote the pool in an order fixed by a word hash; they
/// are refused as bad magic.
const MAGIC: &[u8] = b"HSEPTC02";

/// What a memoized transfer replays beside its output structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferMemo {
    /// Check violations to replay: `(label, definite?)`.
    pub violations: Vec<(String, bool)>,
    /// Largest post universe before canonicalization (exact `peak_nodes`
    /// accounting on replay).
    pub peak_post_nodes: u32,
}

impl TransferMemo {
    fn write(&self, out: &mut Vec<u8>) {
        push_u32(out, self.violations.len() as u32);
        for (label, definite) in &self.violations {
            push_str(out, label);
            out.push(*definite as u8);
        }
        push_u32(out, self.peak_post_nodes);
    }

    fn read(r: &mut Reader<'_>) -> Result<TransferMemo, String> {
        let n = r.count(5)?;
        let mut violations = Vec::with_capacity(n);
        for _ in 0..n {
            violations.push((r.string()?, r.byte()? != 0));
        }
        Ok(TransferMemo {
            violations,
            peak_post_nodes: r.u32()?,
        })
    }
}

/// One memoized transfer: output structures as pool ids, plus the payload.
#[derive(Debug, Clone)]
struct Entry {
    outputs: Vec<PoolId>,
    memo: TransferMemo,
}

/// The index hash of a context (`seed` 0) or of a key (`seed` its context
/// id) string, 8 bytes at a time. Pools keyed by it are rebuilt on load,
/// so it is not part of the file format.
fn content_hash(seed: u32, content: &str) -> u64 {
    let bytes = content.as_bytes();
    let mut h = IdHasher::default();
    h.write_u32(seed);
    h.write_u64(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h.write_u64(u64::from_le_bytes(
            chunk.try_into().expect("chunks of 8 bytes"),
        ));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h.write_u64(u64::from_le_bytes(tail));
    h.finish()
}

/// The pool fingerprint of a word-encoded structure: its length and words
/// through the lane FNV of [`Structure::fingerprint`].
fn words_hash(words: &[u64]) -> u64 {
    lane_fingerprint([words.len() as u64], [words])
}

/// A persistent cross-run memo store: pools of contexts, keys and
/// word-encoded structures, and the entry map.
#[derive(Debug, Clone, Default)]
pub struct TransferStore {
    contexts: Pool<String>,
    /// `(context id, key content)`.
    keys: Pool<(PoolId, String)>,
    pool: Pool<Box<[u64]>>,
    /// `(key id, input pool id)` → memoized output.
    entries: IdMap<(PoolId, PoolId), Entry>,
}

impl TransferStore {
    /// Creates an empty store.
    pub fn new() -> TransferStore {
        TransferStore::default()
    }

    /// Number of memoized entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct structures in the pool.
    pub fn structure_count(&self) -> usize {
        self.pool.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the store holds nothing at all (no entries, and no contexts,
    /// keys or structures either).
    fn is_blank(&self) -> bool {
        self.contexts.is_empty()
            && self.keys.is_empty()
            && self.pool.is_empty()
            && self.entries.is_empty()
    }

    fn lookup(&self, key: PoolId, input_words: &[u64]) -> Option<&Entry> {
        let input = self
            .pool
            .find(words_hash(input_words), |words| **words == *input_words)?;
        self.entries.get(&(key, input))
    }

    /// Merges per-run session deltas into the store, in the order given;
    /// first write wins for duplicate keys (all writers computed the same
    /// pure function, so the choice is cosmetic). Each delta's structures
    /// are interned once, in local-id order, which is the order a walk over
    /// its records meets them first.
    pub fn absorb(&mut self, deltas: Vec<Delta>) {
        for delta in deltas {
            let Delta {
                context,
                keys,
                words,
                ends,
                records,
                outputs,
            } = delta;
            let (ctx, _) = self
                .contexts
                .find_or_insert(content_hash(0, &context), context.to_string());
            let mut start = 0;
            let pooled: Vec<PoolId> = ends
                .iter()
                .map(|&end| {
                    let structure = &words[start..end];
                    start = end;
                    self.pool
                        .find_or_insert(words_hash(structure), structure.into())
                        .0
                })
                .collect();
            // Resolve key contents lazily: only keys that actually produced
            // records enter the store.
            let mut key_ids: Vec<Option<PoolId>> = vec![None; keys.len()];
            let mut start = 0;
            for rec in records {
                let outs = &outputs[start..rec.outputs_end];
                start = rec.outputs_end;
                let ix = rec.key as usize;
                let key = *key_ids[ix].get_or_insert_with(|| {
                    let fp = content_hash(ctx.raw(), &keys[ix]);
                    self.keys.find_or_insert(fp, (ctx, keys[ix].clone())).0
                });
                let input = pooled[rec.input as usize];
                if let MapEntry::Vacant(slot) = self.entries.entry((key, input)) {
                    slot.insert(Entry {
                        outputs: outs.iter().map(|&o| pooled[o as usize]).collect(),
                        memo: rec.memo,
                    });
                }
            }
        }
    }

    /// Folds `other`, a store grown from empty by [`TransferStore::absorb`], into
    /// this one: the result has exactly the ids (and bytes) that absorbing
    /// the same deltas here, in the same order, would have given.
    ///
    /// Contexts, keys and structures are folded in id order — the order
    /// `other` first met them — so what is new here is appended as absorbing
    /// would have appended it, and each of `other`'s ids maps to its id here
    /// through a `Vec`. Entries already here win, as earlier writes do in
    /// [`TransferStore::absorb`]. Into a blank store the merge is a move.
    pub fn merge(&mut self, other: TransferStore) {
        if self.is_blank() {
            *self = other;
            return;
        }
        let contexts: Vec<PoolId> = other
            .contexts
            .iter()
            .map(|(_, c)| {
                self.contexts
                    .find_or_insert(content_hash(0, c), c.clone())
                    .0
            })
            .collect();
        let keys: Vec<PoolId> = other
            .keys
            .iter()
            .map(|(_, (ctx, content))| {
                let ctx = contexts[ctx.index()];
                let fp = content_hash(ctx.raw(), content);
                self.keys.find_or_insert(fp, (ctx, content.clone())).0
            })
            .collect();
        let pool: Vec<PoolId> = other
            .pool
            .iter()
            .map(|(_, words)| self.pool.find_or_insert(words_hash(words), words.clone()).0)
            .collect();
        for ((key, input), mut entry) in other.entries {
            if let MapEntry::Vacant(slot) =
                self.entries.entry((keys[key.index()], pool[input.index()]))
            {
                for p in &mut entry.outputs {
                    *p = pool[p.index()];
                }
                slot.insert(entry);
            }
        }
    }

    /// Serializes the store to a deterministic byte vector (given the same
    /// insertion history, the bytes are identical; entries are emitted in
    /// sorted key order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        let out = &mut bytes;
        push_u32(out, self.contexts.len() as u32);
        for (_, c) in self.contexts.iter() {
            push_str(out, c);
        }
        push_u32(out, self.keys.len() as u32);
        for (_, (ctx, content)) in self.keys.iter() {
            push_u32(out, ctx.raw());
            push_str(out, content);
        }
        push_u32(out, self.pool.len() as u32);
        for (id, words) in self.pool.iter() {
            push_u32(out, id.raw());
            push_u32(out, words.len() as u32);
            for &w in words {
                push_u64(out, w);
            }
        }
        let mut keys: Vec<&(PoolId, PoolId)> = self.entries.keys().collect();
        keys.sort();
        push_u32(out, keys.len() as u32);
        for key in keys {
            let entry = &self.entries[key];
            push_u32(out, key.0.raw());
            push_u32(out, key.1.raw());
            push_u32(out, entry.outputs.len() as u32);
            for p in &entry.outputs {
                push_u32(out, p.raw());
            }
            entry.memo.write(out);
        }
        bytes
    }

    /// The exact length of [`TransferStore::to_bytes`], computed without
    /// building the bytes (payloads are encoded one at a time into a reused
    /// buffer).
    pub fn encoded_len(&self) -> usize {
        let contexts: usize = self.contexts.iter().map(|(_, c)| 4 + c.len()).sum();
        let keys: usize = self.keys.iter().map(|(_, (_, c))| 8 + c.len()).sum();
        let pool: usize = self.pool.iter().map(|(_, w)| 8 + 8 * w.len()).sum();
        let mut buf = Vec::new();
        let entries: usize = self
            .entries
            .values()
            .map(|e| {
                buf.clear();
                e.memo.write(&mut buf);
                12 + 4 * e.outputs.len() + buf.len()
            })
            .sum();
        MAGIC.len() + 16 + contexts + keys + pool + entries
    }

    /// Deserializes a store written by [`TransferStore::to_bytes`].
    ///
    /// Validates structurally: magic, id ranges, no repeated context or
    /// key, and that re-pooling the structure words reproduces the recorded
    /// pool ids. A corrupt or
    /// foreign file yields an error, never a store that would replay wrong
    /// results (structure words are additionally invariant-checked at decode
    /// time by [`Structure::from_words`] on every probe).
    ///
    /// # Errors
    ///
    /// Bad magic, truncation, trailing bytes, or an inconsistent store.
    pub fn from_bytes(bytes: &[u8]) -> Result<TransferStore, String> {
        let r = &mut Reader { bytes, at: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err("not a hetsep cache file (bad magic)".into());
        }
        let mut store = TransferStore::new();
        for _ in 0..r.count(4)? {
            let c = r.string()?;
            if store.contexts.find_or_insert(content_hash(0, &c), c).1 {
                return Err("duplicate context".into());
            }
        }
        for _ in 0..r.count(8)? {
            let ctx = r.u32()?;
            if ctx as usize >= store.contexts.len() {
                return Err(format!("key references unknown context {ctx}"));
            }
            let content = r.string()?;
            let fp = content_hash(ctx, &content);
            let key = (PoolId::from_raw(ctx), content);
            if store.keys.find_or_insert(fp, key).1 {
                return Err("duplicate key".into());
            }
        }
        for _ in 0..r.count(8)? {
            let raw = r.u32()?;
            let len = r.count(8)?;
            let mut words = Vec::with_capacity(len);
            for _ in 0..len {
                words.push(r.u64()?);
            }
            let (id, _) = store.pool.find_or_insert(words_hash(&words), words.into());
            if id.raw() != raw {
                return Err(format!(
                    "pool id mismatch (recorded {raw}, re-pooled {})",
                    id.raw()
                ));
            }
        }
        let pooled = |raw: u32| (raw < store.pool.len() as u32).then_some(PoolId::from_raw(raw));
        for _ in 0..r.count(12)? {
            let key = r.u32()?;
            if key as usize >= store.keys.len() {
                return Err(format!("entry references unknown key {key}"));
            }
            let input = pooled(r.u32()?).ok_or("entry input id out of range")?;
            let n_outputs = r.count(4)?;
            let mut outputs = Vec::with_capacity(n_outputs);
            for _ in 0..n_outputs {
                outputs.push(pooled(r.u32()?).ok_or("entry output id out of range")?);
            }
            let memo = TransferMemo::read(r)?;
            let key = PoolId::from_raw(key);
            store.entries.insert((key, input), Entry { outputs, memo });
        }
        if r.at != bytes.len() {
            return Err("trailing bytes after cache file".into());
        }
        Ok(store)
    }

    /// The store's sizes as one line of text:
    /// `<n> transfer(s), <n> structure(s)`.
    pub fn sizes(&self) -> String {
        format!(
            "{} transfer(s), {} structure(s)",
            self.entry_count(),
            self.structure_count()
        )
    }

    /// Writes the store to a file, the cache file format.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }
}

/// The on-disk cache file: the cross-job transfer store, serialized as its
/// own bytes ([`TransferStore::to_bytes`]).
#[derive(Debug, Default, Clone)]
pub struct CacheFile {
    /// Cross-job transfer memoization.
    pub transfers: TransferStore,
    /// Ignored and never written: an empty stand-in kept so that the
    /// `perfbench/` harness, which still names it, keeps compiling.
    #[doc(hidden)]
    pub summaries: SummaryStore,
}

impl CacheFile {
    /// Creates an empty cache.
    pub fn new() -> CacheFile {
        CacheFile::default()
    }

    /// The file's bytes: the transfer store's.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.transfers.to_bytes()
    }

    /// Deserializes a cache file.
    ///
    /// # Errors
    ///
    /// What [`TransferStore::from_bytes`] rejects: bad magic (a file in an
    /// older cache format included), truncation, trailing bytes or an
    /// inconsistent store.
    pub fn from_bytes(bytes: &[u8]) -> Result<CacheFile, String> {
        Ok(CacheFile {
            transfers: TransferStore::from_bytes(bytes)?,
            summaries: SummaryStore,
        })
    }

    /// See [`TransferStore::save`].
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.transfers.save(path)
    }

    /// Reads a cache file.
    ///
    /// # Errors
    ///
    /// I/O failures, or bytes [`CacheFile::from_bytes`] rejects.
    pub fn load(path: &Path) -> Result<CacheFile, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        CacheFile::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Inert: procedure summaries are gone (a call region is drained, and the
/// transfer store replays it). Kept, with [`SharedSummarySession`], only so
/// that the `perfbench/` harness keeps compiling.
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy)]
pub struct SummaryStore;

impl SummaryStore {
    /// An empty stand-in.
    pub fn new() -> SummaryStore {
        SummaryStore
    }

    /// Always 0.
    pub fn entry_count(&self) -> usize {
        0
    }
}

/// Inert; see [`SummaryStore`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct SharedSummarySession<'a>(PhantomData<&'a SummaryStore>);

impl<'a> SharedSummarySession<'a> {
    /// An inert stand-in.
    pub fn new(_store: &'a SummaryStore) -> SharedSummarySession<'a> {
        SharedSummarySession(PhantomData)
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over serialized cache bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// The next `len` bytes.
    fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or("truncated store")?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// No bytes remain.
    fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fewer than 4 bytes remain.
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fewer than 8 bytes remain.
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` element count, checked against the remaining bytes: `count`
    /// elements of at least `min_size` bytes each must still fit, so a
    /// caller may reserve `count` slots without trusting the file.
    ///
    /// # Errors
    ///
    /// The count cannot fit in the remaining bytes.
    fn count(&mut self, min_size: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_size) > self.bytes.len() - self.at {
            return Err("truncated store".into());
        }
        Ok(n)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Truncation or invalid UTF-8.
    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| format!("bad utf8: {e}"))
    }
}

/// The cross-job side of one verification job: a read-only store snapshot
/// to probe plus the deltas of what this job computed.
///
/// The deltas sit behind a mutex only because one job may fan its
/// subproblems across threads; each engine run batches its additions in a
/// private [`RunScope`] and pushes them once at the end. For deterministic
/// *store files* the scheduler runs jobs with one engine thread each, making
/// the delta's run order (and hence [`TransferStore::absorb`]'s insertion
/// order) schedule-independent; per-run results are exact either way.
#[derive(Debug)]
pub struct SharedTransferSession<'a> {
    snapshot: &'a TransferStore,
    deltas: Mutex<Vec<Delta>>,
}

/// The entries one engine run computed, in content form (self-contained:
/// context and key strings plus word-encoded structures).
///
/// Structures are hash-consed per run: each distinct one is encoded once
/// into the flat `words`, and records refer to it by local id. Local ids
/// are handed out in first-appearance order (input, then outputs, record
/// by record), so [`TransferStore::absorb`] interns a delta's structures in the
/// order it would meet them walking the records, and the store's pool ids
/// do not depend on the delta being deduplicated. Structures and output
/// lists are packed into one vector each, so a delta is a handful of
/// allocations whatever its size.
#[derive(Debug)]
pub struct Delta {
    context: Arc<str>,
    keys: Arc<[String]>,
    /// The run's distinct recorded structures, concatenated in local-id
    /// order.
    words: Vec<u64>,
    /// End offset in `words` of each structure, by local id.
    ends: Vec<usize>,
    records: Vec<Record>,
    /// Every record's output local ids, concatenated in record order.
    outputs: Vec<u32>,
}

impl Delta {
    /// The encoding of the structure with local id `local`.
    #[cfg(test)]
    fn structure(&self, local: usize) -> &[u64] {
        let start = if local == 0 { 0 } else { self.ends[local - 1] };
        &self.words[start..self.ends[local]]
    }
}

#[derive(Debug)]
struct Record {
    /// Index into [`Delta::keys`].
    key: u32,
    /// Local id of the input structure.
    input: u32,
    /// End offset in [`Delta::outputs`] of this record's output local ids
    /// (they start where the previous record's end).
    outputs_end: usize,
    memo: TransferMemo,
}

impl<'a> SharedTransferSession<'a> {
    /// Creates a session probing `snapshot` (pass an empty store for a cold
    /// run that should still record what it computes).
    pub fn new(snapshot: &'a TransferStore) -> SharedTransferSession<'a> {
        SharedTransferSession {
            snapshot,
            deltas: Mutex::new(Vec::new()),
        }
    }

    /// Consumes the session, returning the per-run deltas for
    /// [`TransferStore::absorb`].
    pub fn into_deltas(self) -> Vec<Delta> {
        self.deltas.into_inner().unwrap()
    }

    /// Opens the per-engine-run scope: resolves the run's context (a
    /// [`context_content`] string) and key contents against the snapshot
    /// once, so per-evaluation probes are id lookups. `keys` is the engine's
    /// content-deduplicated key list; run-local key ids index into it. Both
    /// are shared, not copied, into the run's delta.
    pub fn run_scope(&'a self, context: Arc<str>, keys: Arc<[String]>) -> RunScope<'a> {
        let snapshot = self.snapshot;
        let ctx = snapshot
            .contexts
            .find(content_hash(0, &context), |c| **c == *context);
        let slots = keys
            .iter()
            .map(|content| {
                let ctx = ctx?;
                snapshot
                    .keys
                    .find(content_hash(ctx.raw(), content), |(c, k)| {
                        *c == ctx && k == content
                    })
            })
            .collect();
        RunScope {
            session: self,
            slots,
            local: Vec::new(),
            probed: None,
            delta: Delta {
                context,
                keys,
                words: Vec::new(),
                ends: Vec::new(),
                records: Vec::new(),
                outputs: Vec::new(),
            },
        }
    }
}

/// [`RunScope::local`] entry of a structure not yet in the delta's pool.
const UNPOOLED: u32 = u32::MAX;

/// Per-engine-run view of a [`SharedTransferSession`]: probe before
/// computing, record after, finish once.
pub struct RunScope<'a> {
    session: &'a SharedTransferSession<'a>,
    /// Store key id per run-local key id; `None` when the snapshot does not
    /// know the key, so every probe misses.
    slots: Vec<Option<PoolId>>,
    /// Delta-local id per interned structure (indexed by
    /// [`StructureId::index`]; interner ids are dense), [`UNPOOLED`] until
    /// the structure is first recorded.
    local: Vec<u32>,
    /// The encoding made for the last probe that missed, kept for the
    /// record that follows the computation.
    probed: Option<(StructureId, Vec<u64>)>,
    delta: Delta,
}

impl RunScope<'_> {
    /// Probes the snapshot for `(key, input)`; `key` is the run-local
    /// content id. The input is encoded only when the snapshot knows the
    /// key, and a miss keeps that encoding for [`RunScope::record`]. A hit
    /// returns the decoded output structures, ready to intern locally, and
    /// the payload. A decode failure (corrupt pool entry) degrades to a
    /// miss, never to a wrong replay.
    pub fn probe(
        &mut self,
        key: u32,
        input: StructureId,
        interner: &StructureInterner,
        table: &PredTable,
    ) -> Option<(Vec<Structure>, TransferMemo)> {
        let gid = self.slots[key as usize]?;
        let words = interner.resolve(input).to_words();
        let snapshot = self.session.snapshot;
        let hit = snapshot.lookup(gid, &words).and_then(|entry| {
            let outputs = entry
                .outputs
                .iter()
                .map(|&p| Structure::from_words(table, snapshot.pool.get(p)))
                .collect::<Option<Vec<_>>>()?;
            Some((outputs, entry.memo.clone()))
        });
        if hit.is_none() {
            self.probed = Some((input, words));
        }
        hit
    }

    /// Records a computed entry for future jobs. `key` is the run-local
    /// content id (also its index in the delta's key list); structures are
    /// encoded into the delta only the first time the run records them.
    pub fn record(
        &mut self,
        key: u32,
        input: StructureId,
        outputs: &[StructureId],
        memo: TransferMemo,
        interner: &StructureInterner,
    ) {
        let probed = self
            .probed
            .take()
            .filter(|&(id, _)| id == input)
            .map(|(_, words)| words);
        let input = self.pool(input, probed, interner);
        for &id in outputs {
            let local = self.pool(id, None, interner);
            self.delta.outputs.push(local);
        }
        self.delta.records.push(Record {
            key,
            input,
            outputs_end: self.delta.outputs.len(),
            memo,
        });
    }

    /// The delta-local id of `id`, encoding it into the delta's words (or
    /// copying in `words`, its encoding from a probe) on first sight.
    fn pool(
        &mut self,
        id: StructureId,
        words: Option<Vec<u64>>,
        interner: &StructureInterner,
    ) -> u32 {
        let ix = id.index();
        if ix >= self.local.len() {
            self.local.resize(ix + 1, UNPOOLED);
        }
        if self.local[ix] == UNPOOLED {
            self.local[ix] = u32::try_from(self.delta.ends.len()).expect("delta pool overflow");
            match words {
                Some(words) => self.delta.words.extend_from_slice(&words),
                None => interner.resolve(id).write_words(&mut self.delta.words),
            }
            self.delta.ends.push(self.delta.words.len());
        }
        self.local[ix]
    }

    /// Pushes this run's delta into the session. Call once, at run end.
    pub fn finish(self) {
        if self.delta.records.is_empty() {
            return;
        }
        self.session.deltas.lock().unwrap().push(self.delta);
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    /// Direct pool access, for building stores by hand.
    impl TransferStore {
        fn context(&mut self, content: &str) -> PoolId {
            let fp = content_hash(0, content);
            self.contexts.find_or_insert(fp, content.into()).0
        }

        fn key(&mut self, ctx: PoolId, content: &str) -> PoolId {
            let fp = content_hash(ctx.raw(), content);
            self.keys.find_or_insert(fp, (ctx, content.into())).0
        }

        fn structure(&mut self, s: &Structure) -> PoolId {
            let words = s.to_words();
            self.pool.find_or_insert(words_hash(&words), words.into()).0
        }
    }

    /// The structure of `n` nodes over the empty table.
    fn nodes(n: usize) -> Structure {
        let table = PredTable::new();
        let mut s = Structure::new(&table);
        s.add_nodes(&table, n);
        s
    }

    fn memo(i: usize) -> TransferMemo {
        TransferMemo {
            violations: (0..i % 3).map(|v| (format!("check{v}"), v == 0)).collect(),
            peak_post_nodes: i as u32,
        }
    }

    /// `(key, input, outputs)` with structures named by node count: 40
    /// structures over 60 transfers, outputs shared between transfers and
    /// inputs reappearing as outputs.
    fn transfers() -> Vec<(u32, usize, Vec<usize>)> {
        (0..60)
            .map(|i| ((i % 3) as u32, (i * 7) % 40, vec![(i + 1) % 40, (i * 3) % 40, 5]))
            .collect()
    }

    #[test]
    fn delta_holds_each_structure_once_and_absorbs_to_the_same_bytes() {
        let keys: Arc<[String]> = ["a", "b", "c"].map(String::from).into();
        let context = "ctx";
        let mut interner = StructureInterner::new();
        let ids: Vec<StructureId> = (0..40).map(|n| interner.intern(nodes(n))).collect();
        // A snapshot that knows key "b" (through an unrelated input), so its
        // probes encode and keep the input for the record.
        let mut warm = TransferStore::new();
        let ctx = warm.context(context);
        let b = warm.key(ctx, "b");
        let other = warm.structure(&nodes(99));
        warm.entries.insert((b, other), Entry { outputs: vec![], memo: memo(0) });

        let table = PredTable::new();
        let session = SharedTransferSession::new(&warm);
        let mut scope = session.run_scope(context.into(), Arc::clone(&keys));
        for (i, (key, input, outputs)) in transfers().into_iter().enumerate() {
            assert!(scope.probe(key, ids[input], &interner, &table).is_none());
            assert_eq!(scope.probed.is_some(), &*keys[key as usize] == "b");
            let outputs: Vec<StructureId> = outputs.iter().map(|&o| ids[o]).collect();
            scope.record(key, ids[input], &outputs, memo(i), &interner);
            assert!(scope.probed.is_none(), "the probe's encoding moves into the record");
        }
        scope.finish();
        let deltas = session.into_deltas();

        // Each distinct structure once, in first-appearance order.
        let mut first_seen: Vec<usize> = Vec::new();
        for (_, input, outputs) in transfers() {
            for n in std::iter::once(input).chain(outputs) {
                if !first_seen.contains(&n) {
                    first_seen.push(n);
                }
            }
        }
        let expected: Vec<Vec<u64>> = first_seen.iter().map(|&n| nodes(n).to_words()).collect();
        let pooled: Vec<Vec<u64>> = (0..deltas[0].ends.len())
            .map(|l| deltas[0].structure(l).to_vec())
            .collect();
        assert_eq!(pooled, expected);

        // The reference interns every record's encodings, record by record.
        let mut reference = TransferStore::new();
        let ctx = reference.context(context);
        for (i, (key, input, outputs)) in transfers().into_iter().enumerate() {
            let key = reference.key(ctx, &keys[key as usize]);
            let input = reference.structure(&nodes(input));
            let outputs = outputs
                .iter()
                .map(|&o| reference.structure(&nodes(o)))
                .collect();
            reference
                .entries
                .entry((key, input))
                .or_insert(Entry { outputs, memo: memo(i) });
        }
        let mut store = TransferStore::new();
        store.absorb(deltas);
        assert_eq!(store.structure_count(), 40);
        assert_eq!(store.to_bytes(), reference.to_bytes());
    }

    /// One recorded row: `(context, key, input, outputs, memo seed)`, with
    /// structures named by node count.
    type Row = (&'static str, &'static str, usize, Vec<usize>, usize);

    /// Records rows, one run per `runs` element, through a session over an
    /// empty store.
    fn deltas(runs: &[Vec<Row>]) -> Vec<Delta> {
        let empty = TransferStore::new();
        let session = SharedTransferSession::new(&empty);
        let mut interner = StructureInterner::new();
        let ids: Vec<StructureId> = (0..120).map(|n| interner.intern(nodes(n))).collect();
        for run in runs {
            let keys: Vec<String> = ["a", "b", "c", "d", "z"].map(String::from).to_vec();
            let mut scope = session.run_scope(run[0].0.into(), keys.clone().into());
            for (_, key, input, outputs, seed) in run {
                let key = keys.iter().position(|k| k == key).unwrap() as u32;
                let outputs: Vec<StructureId> = outputs.iter().map(|&o| ids[o]).collect();
                scope.record(key, ids[*input], &outputs, memo(*seed), &interner);
            }
            scope.finish();
        }
        session.into_deltas()
    }

    /// A batch of six runs over two contexts and four keys, sharing 60
    /// structures; `(key, input)` pairs recur across runs with different
    /// payloads, so first-write-wins decides.
    fn batch_runs() -> Vec<Vec<Row>> {
        (0..6)
            .map(|run| {
                let context = if run % 3 == 2 { "ctx2" } else { "ctx" };
                (0..25)
                    .map(|i| {
                        let n = run * 25 + i;
                        let key = ["a", "b", "c", "d"][n % 4];
                        (
                            context,
                            key,
                            (n * 7) % 60,
                            vec![(n + 1) % 60, (n * 3) % 60],
                            n,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// A snapshot that shares context `ctx`, keys `b` and `c`, structures
    /// and some `(key, input)` pairs with [`batch_runs`], and holds a
    /// context, a key and structures of its own ahead of them.
    fn warm_runs() -> Vec<Vec<Row>> {
        vec![
            (0..8)
                .map(|i| ("ctx0", "z", 100 + i, vec![101 + i, 3 * i], 1000 + i))
                .collect(),
            [1, 2, 5, 6, 9, 10, 13, 14]
                .map(|n| {
                    (
                        "ctx",
                        ["a", "b", "c", "d"][n % 4],
                        (n * 7) % 60,
                        vec![80 + n],
                        2000 + n,
                    )
                })
                .to_vec(),
        ]
    }

    #[test]
    fn merge_equals_absorb() {
        let mut absorbed = TransferStore::new();
        absorbed.absorb(deltas(&warm_runs()));
        let warm_bytes = absorbed.to_bytes();
        absorbed.absorb(deltas(&batch_runs()));

        let mut warm = TransferStore::from_bytes(&warm_bytes).unwrap();
        let mut batch = TransferStore::new();
        batch.absorb(deltas(&batch_runs()));
        let batch_bytes = batch.to_bytes();
        assert!(
            absorbed.entry_count() < warm.entry_count() + batch.entry_count(),
            "the snapshot already holds some of the batch's (key, input) pairs"
        );
        warm.merge(batch);
        assert_eq!(
            warm.to_bytes(),
            absorbed.to_bytes(),
            "merge into a warm store"
        );

        // Two batches in turn, each merged into the grown store.
        let runs = batch_runs();
        let mut twice = TransferStore::from_bytes(&warm_bytes).unwrap();
        for half in runs.chunks(3) {
            let mut batch = TransferStore::new();
            batch.absorb(deltas(half));
            twice.merge(batch);
        }
        assert_eq!(
            twice.to_bytes(),
            absorbed.to_bytes(),
            "merge batch by batch"
        );

        let mut empty = TransferStore::new();
        let mut batch = TransferStore::new();
        batch.absorb(deltas(&batch_runs()));
        empty.merge(batch);
        assert_eq!(empty.to_bytes(), batch_bytes, "merge into an empty store");
    }

    /// `(key, input, outputs, memo)`, structures named by node count.
    type Rec = (u32, usize, Vec<usize>, TransferMemo);

    /// Records `records` against `keys` through a session over an empty
    /// store (context: the empty table at focus limit 8) and absorbs them.
    fn absorb(store: &mut TransferStore, keys: &[&str], records: Vec<Rec>) {
        let empty = TransferStore::new();
        let session = SharedTransferSession::new(&empty);
        let keys = keys.iter().map(|k| k.to_string()).collect();
        let context = context_content(&PredTable::new(), 8);
        let mut scope = session.run_scope(context.into(), keys);
        let mut interner = StructureInterner::new();
        for (key, input, outputs, memo) in records {
            let input = interner.intern(nodes(input));
            let outputs: Vec<StructureId> =
                outputs.into_iter().map(|n| interner.intern(nodes(n))).collect();
            scope.record(key, input, &outputs, memo, &interner);
        }
        scope.finish();
        store.absorb(session.into_deltas());
    }

    /// Two transfers under two actions, sharing an output structure.
    fn sample_store() -> TransferStore {
        let mut store = TransferStore::new();
        absorb(
            &mut store,
            &["Action", "Other"],
            vec![(0, 1, vec![2, 3], memo(4)), (1, 4, vec![3], memo(3))],
        );
        store
    }

    #[test]
    fn absorb_is_first_write_wins_and_dedups_structures() {
        let mut store = sample_store();
        assert_eq!(store.entry_count(), 2);
        assert_eq!(store.structure_count(), 4, "the shared output is pooled once");
        let before = store.to_bytes();
        absorb(&mut store, &["Action"], vec![(0, 1, vec![], memo(99))]);
        assert_eq!(store.to_bytes(), before, "duplicate keys keep the first write");
    }

    #[test]
    fn store_roundtrips_through_bytes() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let back = TransferStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.entry_count(), store.entry_count());
        assert_eq!(back.structure_count(), store.structure_count());
        assert_eq!(back.to_bytes(), bytes, "serialization is canonical");
    }

    #[test]
    fn corrupt_store_bytes_are_rejected() {
        let store = sample_store();
        let mut bytes = store.to_bytes();
        assert!(TransferStore::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            TransferStore::from_bytes(&trailing).unwrap_err(),
            "trailing bytes after cache file"
        );
        bytes[0] ^= 0xff;
        assert!(TransferStore::from_bytes(&bytes).is_err());
        assert!(TransferStore::from_bytes(MAGIC).is_err());

        // A repeated context or key would pool to an earlier id and shift
        // every later one, so a key would land in another context.
        let file = |contexts: &[&str], keys: &[(u32, &str)]| {
            let mut bytes = MAGIC.to_vec();
            push_u32(&mut bytes, contexts.len() as u32);
            for c in contexts {
                push_str(&mut bytes, c);
            }
            push_u32(&mut bytes, keys.len() as u32);
            for (ctx, content) in keys {
                push_u32(&mut bytes, *ctx);
                push_str(&mut bytes, content);
            }
            bytes.extend_from_slice(&[0; 8]);
            TransferStore::from_bytes(&bytes).map(|store| store.to_bytes())
        };
        assert!(file(&["A", "B"], &[(1, "k"), (0, "k")]).is_ok());
        assert_eq!(file(&["A", "A", "B"], &[(1, "k")]).unwrap_err(), "duplicate context");
        assert_eq!(file(&["A"], &[(0, "k"), (0, "k")]).unwrap_err(), "duplicate key");
    }

    #[test]
    fn cache_file_is_the_transfer_store_and_rejects_other_magic() {
        let file = CacheFile {
            transfers: sample_store(),
            summaries: SummaryStore::new(),
        };
        let bytes = file.to_bytes();
        assert_eq!(bytes, file.transfers.to_bytes(), "the file is the store's bytes");
        let back = CacheFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.transfers.to_bytes(), bytes);
        assert_eq!(back.transfers.sizes(), "2 transfer(s), 4 structure(s)");

        // Any other magic — an older multi-section container, a store whose
        // pool was written in hash order, a section of another payload — is
        // bad magic.
        let mut other = bytes.clone();
        other[4..8].copy_from_slice(b"WS02");
        for bad in [&other[..], b"HSEPTC01", b"HSEPSM01", b"GARBAGE!"] {
            assert_eq!(
                CacheFile::from_bytes(bad).unwrap_err(),
                "not a hetsep cache file (bad magic)"
            );
        }
    }

    #[test]
    fn session_probe_hits_only_matching_context_and_key() {
        let table = PredTable::new();
        let action = || vec!["Action".to_string()];

        let mut store = TransferStore::new();
        absorb(&mut store, &["Action"], vec![(0, 0, vec![0], memo(4))]);

        let mut interner = StructureInterner::new();
        let input = interner.intern(nodes(0));
        let other_input = interner.intern(nodes(1));
        let session = SharedTransferSession::new(&store);
        let mut scope = session.run_scope(context_content(&table, 8).into(), action().into());
        let (outputs, hit) = scope
            .probe(0, input, &interner, &table)
            .expect("same context and key");
        assert_eq!(outputs.len(), 1);
        assert_eq!(hit, memo(4));
        assert!(scope.probe(0, other_input, &interner, &table).is_none(), "other input");
        // Another focus limit is another context; another action another key.
        let mut scope = session.run_scope(context_content(&table, 9).into(), action().into());
        assert!(scope.probe(0, input, &interner, &table).is_none());
        let other = vec!["Other".to_string()];
        let mut scope = session.run_scope(context_content(&table, 8).into(), other.into());
        assert!(scope.probe(0, input, &interner, &table).is_none());
    }

    #[test]
    fn encoded_len_is_the_length_of_the_bytes() {
        let empty = TransferStore::new();
        assert_eq!(empty.encoded_len(), empty.to_bytes().len());
        let mut interner = StructureInterner::new();
        let ids: Vec<StructureId> = (0..40).map(|n| interner.intern(nodes(n))).collect();
        let session = SharedTransferSession::new(&empty);
        let keys: Arc<[String]> = ["a", "b", "c"].map(String::from).into();
        let mut scope = session.run_scope("ctx".into(), keys);
        for (i, (key, input, outputs)) in transfers().into_iter().enumerate() {
            let outputs: Vec<StructureId> = outputs.iter().map(|&o| ids[o]).collect();
            scope.record(key, ids[input], &outputs, memo(i), &interner);
        }
        scope.finish();
        let mut store = TransferStore::new();
        store.absorb(session.into_deltas());
        assert!(store.entry_count() > 0);
        assert_eq!(store.encoded_len(), store.to_bytes().len());
    }

    #[test]
    fn declared_lengths_never_outrun_the_bytes() {
        // A 28-byte store declaring one structure of u32::MAX words
        // (0 contexts, 0 keys, 1 structure: id 0, u32::MAX words).
        let mut bytes = MAGIC.to_vec();
        for n in [0, 0, 1, 0, u32::MAX] {
            push_u32(&mut bytes, n);
        }
        assert_eq!(bytes.len(), 28);
        assert_eq!(CacheFile::from_bytes(&bytes).unwrap_err(), "truncated store");
    }
}
