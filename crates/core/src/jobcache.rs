//! The cross-run store: content-keyed, persistent, exact memoization.
//!
//! The engine memoizes two pure functions within one run: single transfers
//! (the focus → coerce → update → canon pipeline, keyed by `(action content
//! id, interned pre-structure id)`) and whole call-region drains (procedure
//! summaries, keyed by `(region content id, interned entry structure id)`;
//! see [`crate::summary`]). Both halves of either key are run-local, so
//! every job of a corpus would re-pay every memo from scratch. This module
//! re-keys the memoization by **content** so it can outlive a run, a job,
//! and (serialized to disk) a process. One generic [`Store`] serves both
//! memos; only the payload replayed beside the output structures differs
//! ([`Memo`]: [`TransferMemo`] or [`crate::summary::SummaryMemo`]):
//!
//! * the *context* of an entry is the full predicate-table content (name,
//!   arity, and flags — including defining formulas — of every predicate, in
//!   registration order) plus the focus limit ([`context_content`]). The
//!   transfer pipeline and the nested region drain are pure functions of
//!   `(table, focus_limit, actions, input structure)`: coerce constraints
//!   are compiled from the table, canonicalization reads only abstraction
//!   flags, and focus is bounded by the limit. Two runs with equal context
//!   strings therefore agree on every memoized output;
//! * a *key* is a content string within a context: an action's full `Debug`
//!   rendering ([`action_content`]) or a call region's
//!   ([`crate::summary::region_content`]). Predicate ids in formulas are
//!   table-relative, which is exactly what scoping by context makes
//!   unambiguous;
//! * *input and output structures* are keyed by their
//!   [`Structure::to_words`] encoding, hash-consed in a sharded
//!   [`WordPool`] so outputs shared between entries are stored once.
//!
//! Every layer follows the interner discipline: fingerprint-style indexing
//! for speed, full content comparison before reuse — a collision costs one
//! comparison, never a wrong answer. Entries replay the exact canonical
//! outputs and the payload the computation would have produced, so warm and
//! cold corpus runs are observation-equivalent (verdicts, reported errors,
//! visit counts); only the cache counters and wall-clock differ.
//!
//! # Concurrency model (snapshot + delta)
//!
//! The job scheduler freezes a [`Store`] snapshot before a batch: jobs
//! *probe* the snapshot read-only and *record* their misses into per-job
//! [`SharedSession`] deltas, which the scheduler merges back in job order
//! after the batch ([`Store::absorb`]). Per-job results and counters
//! therefore depend only on the snapshot — not on the worker count or on
//! which jobs happened to finish first — which is what keeps corpus output
//! byte-identical across schedules (the same determinism discipline the
//! subproblem scheduler uses for site results).
//!
//! # On-disk format
//!
//! A store serializes as one section: the payload's magic (`HSEPTC01` for
//! transfers, `HSEPSM01` for summaries), the context strings, the
//! `(context id, content)` keys, the pool's `(id, words)` structures, and
//! the entries in sorted key order, each as key id, input id, output ids and
//! payload. Integers are little-endian, counts and string lengths `u32`.
//! [`CacheFile`] frames the transfer and summary sections in one container
//! (`HSEPWS02`: two `u64`-length-prefixed sections), the one on-disk cache
//! format. Decoding never trusts a length it has not checked against the
//! bytes that remain, so a corrupt file is an error, never an abort.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

use hetsep_tvl::intern::{PoolId, WordPool};
use hetsep_tvl::{PredTable, Structure};

use crate::summary::SummaryStore;

/// The content string identifying a memo context: the full predicate table
/// plus the focus limit. Runs with equal context strings compute identical
/// transfer functions and region drains.
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
    s
}

/// The content string identifying an action within a context (its full
/// `Debug` rendering; predicate ids are table-relative, hence the scoping).
pub fn action_content(action: &hetsep_tvl::action::Action) -> String {
    format!("{action:?}")
}

/// The payload a [`Store`] replays beside an entry's output structures,
/// with its section codec.
pub trait Memo: Clone {
    /// Magic prefix of the store's section.
    const MAGIC: &'static [u8];
    /// What the store memoizes, for error messages.
    const NAME: &'static str;
    /// Appends the payload's encoding to `out`.
    fn write(&self, out: &mut Vec<u8>);
    /// Decodes a payload written by [`Memo::write`].
    ///
    /// # Errors
    ///
    /// Truncated or malformed bytes.
    fn read(r: &mut Reader<'_>) -> Result<Self, String>;
}

/// The payload of a memoized transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferMemo {
    /// Check violations to replay: `(label, definite?)`.
    pub violations: Vec<(String, bool)>,
    /// Largest post universe before canonicalization (exact `peak_nodes`
    /// accounting on replay).
    pub peak_post_nodes: u32,
}

impl Memo for TransferMemo {
    const MAGIC: &'static [u8] = b"HSEPTC01";
    const NAME: &'static str = "transfer";

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

/// The cross-run transfer store.
pub type TransferStore = Store<TransferMemo>;

/// A job's session over a [`TransferStore`] snapshot.
pub type SharedTransferSession<'a> = SharedSession<'a, TransferMemo>;

/// One memoized output: structures as pool ids, plus the payload.
#[derive(Debug, Clone)]
struct Entry<M> {
    outputs: Vec<PoolId>,
    memo: M,
}

/// A persistent cross-run memo store: context and key content pools, a
/// sharded structure [`WordPool`], and the entry map.
#[derive(Debug, Clone)]
pub struct Store<M> {
    contexts: Vec<String>,
    context_ix: HashMap<String, u32>,
    /// `(context id, key content)` per key id, in registration order.
    keys: Vec<(u32, String)>,
    key_ix: HashMap<(u32, String), u32>,
    pool: WordPool,
    /// `(key id, input pool id)` → memoized output.
    entries: HashMap<(u32, PoolId), Entry<M>>,
}

impl<M> Default for Store<M> {
    fn default() -> Store<M> {
        Store {
            contexts: Vec::new(),
            context_ix: HashMap::new(),
            keys: Vec::new(),
            key_ix: HashMap::new(),
            pool: WordPool::new(),
            entries: HashMap::new(),
        }
    }
}

impl<M: Memo> Store<M> {
    /// Creates an empty store.
    pub fn new() -> Store<M> {
        Store::default()
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

    fn context_id(&self, content: &str) -> Option<u32> {
        self.context_ix.get(content).copied()
    }

    fn key_id(&self, context: u32, content: &str) -> Option<u32> {
        self.key_ix.get(&(context, content.to_string())).copied()
    }

    fn ensure_context(&mut self, content: &str) -> u32 {
        if let Some(id) = self.context_ix.get(content) {
            return *id;
        }
        let id = u32::try_from(self.contexts.len()).expect("context overflow");
        self.contexts.push(content.to_string());
        self.context_ix.insert(content.to_string(), id);
        id
    }

    fn ensure_key(&mut self, context: u32, content: &str) -> u32 {
        let key = (context, content.to_string());
        if let Some(id) = self.key_ix.get(&key) {
            return *id;
        }
        let id = u32::try_from(self.keys.len()).expect("key overflow");
        self.keys.push(key.clone());
        self.key_ix.insert(key, id);
        id
    }

    fn lookup(&self, key: u32, input_words: &[u64]) -> Option<&Entry<M>> {
        let input = self.pool.get(input_words)?;
        self.entries.get(&(key, input))
    }

    /// Merges per-run session deltas into the store, in the order given;
    /// first write wins for duplicate keys (all writers computed the same
    /// pure function, so the choice is cosmetic).
    pub fn absorb(&mut self, deltas: Vec<Delta<M>>) {
        for delta in deltas {
            let ctx = self.ensure_context(&delta.context);
            // Resolve key contents lazily: only keys that actually produced
            // records enter the store.
            let mut key_ids: Vec<Option<u32>> = vec![None; delta.keys.len()];
            for rec in delta.records {
                let ix = rec.key as usize;
                let key = match key_ids[ix] {
                    Some(id) => id,
                    None => {
                        let id = self.ensure_key(ctx, &delta.keys[ix]);
                        key_ids[ix] = Some(id);
                        id
                    }
                };
                let input = self.pool.intern(&rec.input);
                let outputs = rec.outputs.iter().map(|w| self.pool.intern(w)).collect();
                self.entries.entry((key, input)).or_insert(Entry {
                    outputs,
                    memo: rec.memo,
                });
            }
        }
    }

    /// Serializes the store to a deterministic byte vector (given the same
    /// insertion history, the bytes are identical; entries are emitted in
    /// sorted key order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(M::MAGIC);
        push_u32(&mut out, self.contexts.len() as u32);
        for c in &self.contexts {
            push_str(&mut out, c);
        }
        push_u32(&mut out, self.keys.len() as u32);
        for (ctx, content) in &self.keys {
            push_u32(&mut out, *ctx);
            push_str(&mut out, content);
        }
        push_u32(&mut out, self.pool.len() as u32);
        for (id, words) in self.pool.iter() {
            push_u32(&mut out, id.raw());
            push_u32(&mut out, words.len() as u32);
            for &w in words {
                push_u64(&mut out, w);
            }
        }
        let mut keys: Vec<&(u32, PoolId)> = self.entries.keys().collect();
        keys.sort();
        push_u32(&mut out, keys.len() as u32);
        for key in keys {
            let entry = &self.entries[key];
            push_u32(&mut out, key.0);
            push_u32(&mut out, key.1.raw());
            push_u32(&mut out, entry.outputs.len() as u32);
            for p in &entry.outputs {
                push_u32(&mut out, p.raw());
            }
            entry.memo.write(&mut out);
        }
        out
    }

    /// Deserializes a store written by [`Store::to_bytes`].
    ///
    /// Validates structurally: magic, id ranges, and that re-pooling the
    /// structure words reproduces the recorded pool ids. A corrupt or
    /// foreign file yields an error, never a store that would replay wrong
    /// results (structure words are additionally invariant-checked at decode
    /// time by [`Structure::from_words`] on every probe).
    ///
    /// # Errors
    ///
    /// Bad magic, truncation, trailing bytes, or an inconsistent section.
    pub fn from_bytes(bytes: &[u8]) -> Result<Store<M>, String> {
        let r = &mut Reader { bytes, at: 0 };
        if r.take(M::MAGIC.len())? != M::MAGIC {
            return Err(format!("not a hetsep {} store (bad magic)", M::NAME));
        }
        let mut store = Store::new();
        for _ in 0..r.count(4)? {
            let c = r.string()?;
            store.ensure_context(&c);
        }
        for _ in 0..r.count(8)? {
            let ctx = r.u32()?;
            if ctx as usize >= store.contexts.len() {
                return Err(format!("key references unknown context {ctx}"));
            }
            let content = r.string()?;
            store.ensure_key(ctx, &content);
        }
        for _ in 0..r.count(8)? {
            let raw = r.u32()?;
            let len = r.count(8)?;
            let mut words = Vec::with_capacity(len);
            for _ in 0..len {
                words.push(r.u64()?);
            }
            let id = store.pool.intern(&words);
            if id.raw() != raw {
                return Err(format!(
                    "pool id mismatch (recorded {raw}, re-pooled {})",
                    id.raw()
                ));
            }
        }
        for _ in 0..r.count(12)? {
            let key = r.u32()?;
            if key as usize >= store.keys.len() {
                return Err(format!("entry references unknown key {key}"));
            }
            let input = PoolId::from_raw(r.u32()?);
            if !store.pool.contains(input) {
                return Err("entry input id out of range".into());
            }
            let n_outputs = r.count(4)?;
            let mut outputs = Vec::with_capacity(n_outputs);
            for _ in 0..n_outputs {
                let p = PoolId::from_raw(r.u32()?);
                if !store.pool.contains(p) {
                    return Err("entry output id out of range".into());
                }
                outputs.push(p);
            }
            let memo = M::read(r)?;
            store.entries.insert((key, input), Entry { outputs, memo });
        }
        if r.at != bytes.len() {
            return Err(format!("trailing bytes after {} store", M::NAME));
        }
        Ok(store)
    }
}

/// The combined on-disk cache container: the transfer store and the summary
/// store as two length-prefixed sections under one magic (`HSEPWS02`).
#[derive(Debug, Default, Clone)]
pub struct CacheFile {
    /// Cross-job transfer memoization.
    pub transfers: TransferStore,
    /// Cross-job per-procedure summaries (see [`crate::summary`]).
    pub summaries: SummaryStore,
}

const WS_MAGIC: &[u8] = b"HSEPWS02";

impl CacheFile {
    /// Creates an empty container.
    pub fn new() -> CacheFile {
        CacheFile::default()
    }

    /// The container's sizes as one line of text:
    /// `<n> transfer(s), <n> structure(s), <n> summar(ies)`.
    pub fn sizes(&self) -> String {
        format!(
            "{} transfer(s), {} structure(s), {} summar(ies)",
            self.transfers.entry_count(),
            self.transfers.structure_count(),
            self.summaries.entry_count()
        )
    }

    /// Serializes both sections deterministically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(WS_MAGIC);
        for section in [self.transfers.to_bytes(), self.summaries.to_bytes()] {
            push_u64(&mut out, section.len() as u64);
            out.extend_from_slice(&section);
        }
        out
    }

    /// Deserializes a container. Anything else, a bare transfer store
    /// included, is a bad-magic error.
    ///
    /// # Errors
    ///
    /// Bad magic, truncation, trailing bytes, or a corrupt section.
    pub fn from_bytes(bytes: &[u8]) -> Result<CacheFile, String> {
        let mut r = Reader { bytes, at: 0 };
        if r.take(WS_MAGIC.len())? != WS_MAGIC {
            return Err("not a hetsep cache file (bad magic)".into());
        }
        let transfers = TransferStore::from_bytes(r.section()?)?;
        let summaries = SummaryStore::from_bytes(r.section()?)?;
        if r.at != bytes.len() {
            return Err("trailing bytes after cache file".into());
        }
        Ok(CacheFile {
            transfers,
            summaries,
        })
    }

    /// Writes the container to a file.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a container from a file.
    ///
    /// # Errors
    ///
    /// I/O failures, or bytes [`CacheFile::from_bytes`] rejects.
    pub fn load(path: &Path) -> Result<CacheFile, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        CacheFile::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over serialized cache bytes, shared by every
/// section codec.
pub struct Reader<'a> {
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
    pub fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` element count, checked against the remaining bytes: `count`
    /// elements of at least `min_size` bytes each must still fit, so a
    /// caller may reserve `count` slots without trusting the file.
    ///
    /// # Errors
    ///
    /// The count cannot fit in the remaining bytes.
    pub fn count(&mut self, min_size: usize) -> Result<usize, String> {
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
    pub fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| format!("bad utf8: {e}"))
    }

    /// A `u64`-length-prefixed section.
    fn section(&mut self) -> Result<&'a [u8], String> {
        let len = usize::try_from(self.u64()?).map_err(|_| "oversized section")?;
        self.take(len)
    }
}

/// The cross-job side of one verification job: a read-only store snapshot
/// to probe plus the deltas of what this job computed.
///
/// The deltas sit behind a mutex only because one job may fan its
/// subproblems across threads; each engine run batches its additions in a
/// private [`RunScope`] and pushes them once at the end. For deterministic
/// *store files* the scheduler runs jobs with one engine thread each, making
/// the delta's run order (and hence [`Store::absorb`]'s insertion order)
/// schedule-independent; per-run results are exact either way.
#[derive(Debug)]
pub struct SharedSession<'a, M> {
    snapshot: &'a Store<M>,
    deltas: Mutex<Vec<Delta<M>>>,
}

/// The entries one engine run computed, in content form (self-contained:
/// context and key strings plus word-encoded structures).
#[derive(Debug)]
pub struct Delta<M> {
    context: String,
    keys: Vec<String>,
    records: Vec<Record<M>>,
}

#[derive(Debug)]
struct Record<M> {
    /// Index into [`Delta::keys`].
    key: u32,
    input: Vec<u64>,
    outputs: Vec<Vec<u64>>,
    memo: M,
}

impl<'a, M: Memo> SharedSession<'a, M> {
    /// Creates a session probing `snapshot` (pass an empty store for a cold
    /// run that should still record what it computes).
    pub fn new(snapshot: &'a Store<M>) -> SharedSession<'a, M> {
        SharedSession {
            snapshot,
            deltas: Mutex::new(Vec::new()),
        }
    }

    /// Consumes the session, returning the per-run deltas for
    /// [`Store::absorb`].
    pub fn into_deltas(self) -> Vec<Delta<M>> {
        self.deltas.into_inner().unwrap()
    }

    /// Opens the per-engine-run scope: resolves the run's context and key
    /// contents against the snapshot once, so per-evaluation probes are id
    /// lookups. `keys` is the engine's content-deduplicated key list;
    /// run-local key ids index into it.
    pub fn run_scope(
        &'a self,
        table: &PredTable,
        focus_limit: usize,
        keys: Vec<String>,
    ) -> RunScope<'a, M> {
        let context = context_content(table, focus_limit);
        let snapshot_ctx = self.snapshot.context_id(&context);
        let slots = keys
            .iter()
            .map(|content| snapshot_ctx.and_then(|ctx| self.snapshot.key_id(ctx, content)))
            .collect();
        RunScope {
            session: self,
            slots,
            delta: Delta {
                context,
                keys,
                records: Vec::new(),
            },
        }
    }
}

/// Per-engine-run view of a [`SharedSession`]: probe before computing,
/// record after, finish once.
pub struct RunScope<'a, M> {
    session: &'a SharedSession<'a, M>,
    /// Store key id per run-local key id; `None` when the snapshot does not
    /// know the key, so every probe misses.
    slots: Vec<Option<u32>>,
    delta: Delta<M>,
}

impl<M: Memo> RunScope<'_, M> {
    /// Probes the snapshot for `(key, input)`; `key` is the run-local
    /// content id, `input_words` the encoded input structure. A hit returns
    /// the decoded output structures, ready to intern locally, and the
    /// payload. A decode failure (corrupt pool entry) degrades to a miss,
    /// never to a wrong replay.
    pub fn probe(
        &self,
        key: u32,
        input_words: &[u64],
        table: &PredTable,
    ) -> Option<(Vec<Structure>, M)> {
        let gid = self.slots[key as usize]?;
        let snapshot = self.session.snapshot;
        let entry = snapshot.lookup(gid, input_words)?;
        let mut outputs = Vec::with_capacity(entry.outputs.len());
        for &p in &entry.outputs {
            outputs.push(Structure::from_words(table, snapshot.pool.resolve(p))?);
        }
        Some((outputs, entry.memo.clone()))
    }

    /// Membership-only probe: whether [`RunScope::probe`] would find an
    /// entry for `(key, input)`, without decoding the outputs. Used by the
    /// engine's speculative batch classification, where a cheap prediction
    /// is enough (a decode failure downgrades the later full probe to a
    /// miss, which the engine handles by computing inline).
    pub fn contains(&self, key: u32, input_words: &[u64]) -> bool {
        self.slots[key as usize]
            .is_some_and(|gid| self.session.snapshot.lookup(gid, input_words).is_some())
    }

    /// Records a computed entry for future jobs. `key` is the run-local
    /// content id (also its index in the delta's key list).
    pub fn record(&mut self, key: u32, input_words: Vec<u64>, outputs: Vec<Vec<u64>>, memo: M) {
        self.delta.records.push(Record {
            key,
            input: input_words,
            outputs,
            memo,
        });
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

    #[test]
    fn declared_lengths_never_outrun_the_bytes() {
        // A transfer section declaring one structure of u32::MAX words
        // (0 contexts, 0 keys, 1 structure: id 0, u32::MAX words), framed
        // in a 44-byte container.
        let mut section = TransferMemo::MAGIC.to_vec();
        for n in [0, 0, 1, 0, u32::MAX] {
            push_u32(&mut section, n);
        }
        let mut bytes = WS_MAGIC.to_vec();
        push_u64(&mut bytes, section.len() as u64);
        bytes.extend_from_slice(&section);
        assert_eq!(bytes.len(), 44);
        assert_eq!(CacheFile::from_bytes(&bytes).unwrap_err(), "truncated store");

        // A section length of u64::MAX.
        let mut bytes = WS_MAGIC.to_vec();
        push_u64(&mut bytes, u64::MAX);
        assert_eq!(CacheFile::from_bytes(&bytes).unwrap_err(), "truncated store");
    }
}
