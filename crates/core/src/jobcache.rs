//! Cross-job transfer cache: content-keyed, persistent, exact.
//!
//! The per-run transfer cache (`EngineConfig::transfer_cache`) memoizes the
//! focus → coerce → update → canon pipeline within *one* engine run, keyed
//! by `(action content id, interned pre-structure id)`. Both halves of that
//! key are run-local, so every job of a corpus re-pays every transfer from
//! scratch. This module re-keys the same memoization by **content** so it
//! can outlive a run, a job, and (serialized to disk) a process:
//!
//! * the *context* of an entry is the full predicate-table content (name,
//!   arity, and flags — including defining formulas — of every predicate, in
//!   registration order) plus the focus limit. The transfer pipeline is a
//!   pure function of `(table, focus_limit, action, input structure)`:
//!   coerce constraints are compiled from the table, canonicalization reads
//!   only abstraction flags, and focus is bounded by the limit. Two runs
//!   with equal context strings therefore agree on every transfer output;
//! * *actions* are keyed by their full `Debug` rendering within a context
//!   (predicate ids in formulas are table-relative, which is exactly what
//!   scoping by context makes unambiguous);
//! * *input and post structures* are keyed by their
//!   [`Structure::to_words`] encoding, hash-consed in a sharded
//!   [`WordPool`] so posts shared between entries are stored once.
//!
//! Every layer follows the interner discipline: fingerprint-style indexing
//! for speed, full content comparison before reuse — a collision costs one
//! comparison, never a wrong answer. Entries replay the exact canonical
//! posts, check violations, and peak universe size the pipeline would have
//! produced, so warm and cold corpus runs are observation-equivalent
//! (verdicts, reported errors, visit counts); only the cache counters and
//! wall-clock differ.
//!
//! # Concurrency model (snapshot + delta)
//!
//! The job scheduler freezes a [`TransferStore`] snapshot before a batch:
//! jobs *probe* the snapshot read-only and *record* their misses into
//! per-job [`SharedTransferSession`] deltas, which the scheduler merges
//! back in job order after the batch ([`TransferStore::absorb`]). Per-job
//! results and counters therefore depend only on the snapshot — not on the
//! worker count or on which jobs happened to finish first — which is what
//! keeps corpus output byte-identical across schedules (the same
//! determinism discipline the subproblem scheduler uses for site results).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use hetsep_tvl::intern::{PoolId, WordPool};
use hetsep_tvl::{PredTable, Structure};

/// One memoized transfer output, with structures stored as pool ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredTransfer {
    /// Canonical post-structures (pool ids of their word encodings).
    pub posts: Vec<PoolId>,
    /// Check violations to replay: `(label, definite?)`.
    pub violations: Vec<(String, bool)>,
    /// Largest post universe before canonicalization (exact `peak_nodes`
    /// accounting on replay).
    pub peak_post_nodes: u32,
}

/// The content string identifying a transfer context: the full predicate
/// table plus the focus limit. Runs with equal context strings compute
/// identical transfer functions.
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

/// A persistent cross-job transfer store: context and action content pools,
/// a sharded structure [`WordPool`], and the entry map.
#[derive(Debug, Default, Clone)]
pub struct TransferStore {
    contexts: Vec<String>,
    context_ix: HashMap<String, u32>,
    /// `(context id, action content)` per action id, in registration order.
    actions: Vec<(u32, String)>,
    action_ix: HashMap<(u32, String), u32>,
    pool: WordPool,
    /// `(action id, input pool id)` → memoized output.
    entries: HashMap<(u32, PoolId), StoredTransfer>,
}

impl TransferStore {
    /// Creates an empty store.
    pub fn new() -> TransferStore {
        TransferStore::default()
    }

    /// Number of memoized transfer entries.
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

    fn action_id(&self, context: u32, content: &str) -> Option<u32> {
        // Keyed lookups clone nothing: the map key is owned but `get` takes
        // a borrowed pair via a transient owned key only on insert paths.
        self.action_ix.get(&(context, content.to_string())).copied()
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

    fn ensure_action(&mut self, context: u32, content: &str) -> u32 {
        let key = (context, content.to_string());
        if let Some(id) = self.action_ix.get(&key) {
            return *id;
        }
        let id = u32::try_from(self.actions.len()).expect("action overflow");
        self.actions.push(key.clone());
        self.action_ix.insert(key, id);
        id
    }

    fn lookup(&self, action: u32, input_words: &[u64]) -> Option<&StoredTransfer> {
        let input = self.pool.get(input_words)?;
        self.entries.get(&(action, input))
    }

    /// Merges per-job session deltas into the store. The scheduler calls
    /// this in job order after a batch; first write wins for duplicate keys
    /// (all writers computed the same pure function, so the choice is
    /// cosmetic).
    pub fn absorb(&mut self, deltas: Vec<RunDelta>) {
        for delta in deltas {
            let ctx = self.ensure_context(&delta.context);
            // Resolve action contents lazily: only actions that actually
            // produced records enter the store.
            let mut action_ids: Vec<Option<u32>> = vec![None; delta.actions.len()];
            for rec in delta.records {
                let action = match action_ids[rec.action as usize] {
                    Some(id) => id,
                    None => {
                        let id = self.ensure_action(ctx, &delta.actions[rec.action as usize]);
                        action_ids[rec.action as usize] = Some(id);
                        id
                    }
                };
                let input = self.pool.intern(&rec.input);
                let posts = rec.posts.iter().map(|p| self.pool.intern(p)).collect();
                self.entries
                    .entry((action, input))
                    .or_insert(StoredTransfer {
                        posts,
                        violations: rec.violations,
                        peak_post_nodes: rec.peak_post_nodes,
                    });
            }
        }
    }

    /// Serializes the store to a deterministic byte vector (given the same
    /// insertion history, the bytes are identical; entries are emitted in
    /// sorted key order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        push_u32(&mut out, self.contexts.len() as u32);
        for c in &self.contexts {
            push_str(&mut out, c);
        }
        push_u32(&mut out, self.actions.len() as u32);
        for (ctx, content) in &self.actions {
            push_u32(&mut out, *ctx);
            push_str(&mut out, content);
        }
        push_u32(&mut out, self.pool.len() as u32);
        for (id, words) in self.pool.iter() {
            push_u32(&mut out, id.raw());
            push_u32(&mut out, words.len() as u32);
            for &w in words {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        let mut keys: Vec<&(u32, PoolId)> = self.entries.keys().collect();
        keys.sort();
        push_u32(&mut out, keys.len() as u32);
        for key in keys {
            let entry = &self.entries[key];
            push_u32(&mut out, key.0);
            push_u32(&mut out, key.1.raw());
            push_u32(&mut out, entry.posts.len() as u32);
            for p in &entry.posts {
                push_u32(&mut out, p.raw());
            }
            push_u32(&mut out, entry.violations.len() as u32);
            for (label, definite) in &entry.violations {
                push_str(&mut out, label);
                out.push(*definite as u8);
            }
            push_u32(&mut out, entry.peak_post_nodes);
        }
        out
    }

    /// Deserializes a store written by [`TransferStore::to_bytes`].
    ///
    /// Validates structurally: magic/version, id ranges, and that re-pooling
    /// the structure words reproduces the recorded pool ids. A corrupt or
    /// foreign file yields an error, never a store that would replay wrong
    /// results (structure words are additionally invariant-checked at decode
    /// time by [`Structure::from_words`] on every probe).
    pub fn from_bytes(bytes: &[u8]) -> Result<TransferStore, String> {
        let mut r = Reader { bytes, at: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err("not a hetsep transfer store (bad magic)".into());
        }
        let mut store = TransferStore::new();
        let n_contexts = r.u32()? as usize;
        for _ in 0..n_contexts {
            let c = r.string()?;
            store.ensure_context(&c);
        }
        let n_actions = r.u32()? as usize;
        for _ in 0..n_actions {
            let ctx = r.u32()?;
            if ctx as usize >= store.contexts.len() {
                return Err(format!("action references unknown context {ctx}"));
            }
            let content = r.string()?;
            store.ensure_action(ctx, &content);
        }
        let n_structs = r.u32()? as usize;
        for _ in 0..n_structs {
            let raw = r.u32()?;
            let len = r.u32()? as usize;
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
        let n_entries = r.u32()? as usize;
        for _ in 0..n_entries {
            let action = r.u32()?;
            if action as usize >= store.actions.len() {
                return Err(format!("entry references unknown action {action}"));
            }
            let input = PoolId::from_raw(r.u32()?);
            if !store.pool.contains(input) {
                return Err("entry input id out of range".into());
            }
            let n_posts = r.u32()? as usize;
            let mut posts = Vec::with_capacity(n_posts);
            for _ in 0..n_posts {
                let p = PoolId::from_raw(r.u32()?);
                if !store.pool.contains(p) {
                    return Err("entry post id out of range".into());
                }
                posts.push(p);
            }
            let n_violations = r.u32()? as usize;
            let mut violations = Vec::with_capacity(n_violations);
            for _ in 0..n_violations {
                let label = r.string()?;
                let definite = r.byte()? != 0;
                violations.push((label, definite));
            }
            let peak_post_nodes = r.u32()?;
            store.entries.insert(
                (action, input),
                StoredTransfer {
                    posts,
                    violations,
                    peak_post_nodes,
                },
            );
        }
        if r.at != bytes.len() {
            return Err("trailing bytes after store".into());
        }
        Ok(store)
    }
}

/// Magic prefix of a serialized transfer store (the transfer section of a
/// [`crate::summary::CacheFile`]).
const MAGIC: &[u8] = b"HSEPTC01";

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

pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        if self.at + len > self.bytes.len() {
            return Err("truncated store".into());
        }
        let s = &self.bytes[self.at..self.at + len];
        self.at += len;
        Ok(s)
    }

    pub(crate) fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| format!("bad utf8: {e}"))
    }
}

/// The cross-job side of one verification job: a read-only store snapshot
/// to probe plus a delta accumulating this job's computed transfers.
///
/// The delta sits behind a mutex only because one job may fan its
/// subproblems across threads; each engine run batches its additions in a
/// private [`RunScope`] and pushes them once at the end. For deterministic
/// *store files* the scheduler runs jobs with one engine thread each, making
/// the delta's run order (and hence [`TransferStore::absorb`]'s insertion
/// order) schedule-independent; per-run results are exact either way.
#[derive(Debug)]
pub struct SharedTransferSession<'a> {
    snapshot: &'a TransferStore,
    deltas: Mutex<Vec<RunDelta>>,
}

/// The transfers one engine run computed, in content form (self-contained:
/// context and action strings plus word-encoded structures).
#[derive(Debug)]
pub struct RunDelta {
    context: String,
    actions: Vec<String>,
    records: Vec<DeltaRecord>,
}

#[derive(Debug)]
struct DeltaRecord {
    /// Index into [`RunDelta::actions`].
    action: u32,
    input: Vec<u64>,
    posts: Vec<Vec<u64>>,
    violations: Vec<(String, bool)>,
    peak_post_nodes: u32,
}

/// A replayed shared-cache hit: exact canonical posts, violations, and peak
/// universe size.
pub struct SharedHit {
    /// Decoded canonical post-structures, ready to intern locally.
    pub posts: Vec<Structure>,
    /// Check violations to replay: `(label, definite?)`.
    pub violations: Vec<(String, bool)>,
    /// Largest post universe before canonicalization.
    pub peak_post_nodes: usize,
}

impl<'a> SharedTransferSession<'a> {
    /// Creates a session probing `snapshot` (pass an empty store for a cold
    /// run that should still record its transfers).
    pub fn new(snapshot: &'a TransferStore) -> SharedTransferSession<'a> {
        SharedTransferSession {
            snapshot,
            deltas: Mutex::new(Vec::new()),
        }
    }

    /// Consumes the session, returning the per-run deltas for
    /// [`TransferStore::absorb`].
    pub fn into_deltas(self) -> Vec<RunDelta> {
        self.deltas.into_inner().unwrap()
    }

    /// Opens the per-engine-run scope: resolves the run's context and action
    /// contents against the snapshot once, so per-application probes are id
    /// lookups. `actions` is the engine's content-deduplicated action list;
    /// run-local action ids index into it.
    pub fn run_scope(
        &'a self,
        table: &PredTable,
        focus_limit: usize,
        actions: &[&hetsep_tvl::action::Action],
    ) -> RunScope<'a> {
        let context = context_content(table, focus_limit);
        let snapshot_ctx = self.snapshot.context_id(&context);
        let mut contents = Vec::with_capacity(actions.len());
        let slots = actions
            .iter()
            .map(|a| {
                let content = action_content(a);
                let slot = snapshot_ctx
                    .and_then(|ctx| self.snapshot.action_id(ctx, &content))
                    .map_or(ActionSlot::New, ActionSlot::Warm);
                contents.push(content);
                slot
            })
            .collect();
        RunScope {
            session: self,
            slots,
            delta: RunDelta {
                context,
                actions: contents,
                records: Vec::new(),
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum ActionSlot {
    /// Resolved in the snapshot (store action id): probes may hit.
    Warm(u32),
    /// Unknown to the snapshot: every probe misses.
    New,
}

/// Per-engine-run view of a [`SharedTransferSession`]: probe before
/// computing, record after, finish once.
pub struct RunScope<'a> {
    session: &'a SharedTransferSession<'a>,
    /// Per run-local action content id (the engine's `uniq_actions` index).
    slots: Vec<ActionSlot>,
    delta: RunDelta,
}

impl RunScope<'_> {
    /// Probes the snapshot for `(action, input)`; `action` is the run-local
    /// content id, `input_words` the encoded pre-structure. A decode failure
    /// (corrupt pool entry) degrades to a miss, never to a wrong replay.
    pub fn probe(&self, action: u32, input_words: &[u64], table: &PredTable) -> Option<SharedHit> {
        let ActionSlot::Warm(gid) = self.slots[action as usize] else {
            return None;
        };
        let snapshot = self.session.snapshot;
        let entry = snapshot.lookup(gid, input_words)?;
        let mut posts = Vec::with_capacity(entry.posts.len());
        for &p in &entry.posts {
            posts.push(Structure::from_words(table, snapshot.pool.resolve(p))?);
        }
        Some(SharedHit {
            posts,
            violations: entry.violations.clone(),
            peak_post_nodes: entry.peak_post_nodes as usize,
        })
    }

    /// Membership-only probe: whether [`RunScope::probe`] would find an
    /// entry for `(action, input)`, without decoding the posts. Used by the
    /// engine's speculative batch classification, where a cheap prediction
    /// is enough (a decode failure downgrades the later full probe to a
    /// miss, which the engine handles by computing inline).
    pub fn contains(&self, action: u32, input_words: &[u64]) -> bool {
        let ActionSlot::Warm(gid) = self.slots[action as usize] else {
            return false;
        };
        self.session.snapshot.lookup(gid, input_words).is_some()
    }

    /// Records a computed transfer for future jobs. `action` is the
    /// run-local content id (also its index in the delta's action list).
    pub fn record(
        &mut self,
        action: u32,
        input_words: Vec<u64>,
        posts: Vec<Vec<u64>>,
        violations: Vec<(String, bool)>,
        peak_post_nodes: usize,
    ) {
        self.delta.records.push(DeltaRecord {
            action,
            input: input_words,
            posts,
            violations,
            peak_post_nodes: u32::try_from(peak_post_nodes).unwrap_or(u32::MAX),
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
