//! Cross-job per-procedure summary store: content-keyed, persistent, exact.
//!
//! The engine evaluates every spliced call region as a nested subproblem
//! (see [`crate::engine`]) and memoizes the result per run, keyed by
//! `(region content, interned input structure at the call boundary)`. This
//! module re-keys that memoization by **content** — the same one-level-up
//! move [`crate::jobcache`] makes for single transfers — so procedure
//! summaries outlive a run, a job, and (serialized to disk) a process:
//!
//! * the *context* is the full predicate-table content plus the focus limit
//!   ([`context_content`]), exactly as for transfers: the nested drain is a
//!   pure function of `(table, focus_limit, region actions, input)`;
//! * a *region* is keyed by its content string ([`region_content`]): every
//!   interior edge's splice-relative endpoints, source line, and the full
//!   `Debug` rendering of its translated actions. Two splices of one
//!   procedure produce byte-identical content (splice-stable `{proc}::`
//!   naming), so call sites share summaries; site-instrumented splices
//!   differ in their action renderings and correctly do not;
//! * *input and exit structures* are hash-consed in a sharded [`WordPool`];
//! * an entry replays the exact exit structures, `(line, label, definite)`
//!   violations, failing-site predicate ids, and the visit/peak accounting
//!   of the nested drain it replaces, so warm and cold runs are
//!   observation-equivalent — verdicts, errors, `visits`, `structures` —
//!   and only the summary counters and wall-clock differ.
//!
//! Failing sites are stored as *predicate ids* (`SiteId`s are edge indices,
//! private to one instance; the site predicate's table id is what the
//! context scopes), mapped back through the instance's `site_preds` on
//! replay.
//!
//! Concurrency follows the jobcache snapshot + delta discipline: runs probe
//! a frozen [`SummaryStore`] snapshot through a [`SharedSummarySession`] and
//! record their misses into per-run deltas, absorbed in job order
//! ([`SummaryStore::absorb`], first write wins).
//!
//! [`CacheFile`] bundles this store with the transfer store in one on-disk
//! container (`HSEPWS02`: two length-prefixed sections), the one on-disk
//! cache format.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

use hetsep_ir::cfg::{CallRegion, Cfg};
use hetsep_tvl::intern::{PoolId, WordPool};
use hetsep_tvl::{PredTable, Structure};

use crate::jobcache::{
    context_content, push_str, push_u32, push_u64, Reader, TransferStore,
};

/// One memoized call-region evaluation, with structures as pool ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredSummary {
    /// Canonical structures arriving at the region exit, in first-arrival
    /// order (pool ids of their word encodings).
    pub exits: Vec<PoolId>,
    /// Violations raised inside the region: `(line, label, definite?)`,
    /// sorted by `(line, label)`.
    pub violations: Vec<(u32, String, bool)>,
    /// Table predicate ids of allocation sites flagged as failing inside
    /// the region, sorted.
    pub failing_preds: Vec<u32>,
    /// Action applications the nested drain performed (replayed into
    /// `visits` so budget accounting is exact).
    pub visits: u64,
    /// Peak number of region-local structures live during the drain, above
    /// the caller's live count at entry.
    pub peak_extra: u32,
    /// Largest universe size among structures visited inside the region.
    pub peak_nodes: u32,
}

/// The content string identifying a call region within a context: each
/// interior edge's splice-relative endpoints and line, plus the full
/// `Debug` rendering of its translated actions (predicate ids are
/// table-relative, which scoping by context makes unambiguous).
pub fn region_content(region: &CallRegion, cfg: &Cfg, actions: &[Vec<hetsep_tvl::action::Action>]) -> String {
    let base = region.nodes().start;
    let mut s = String::new();
    for e in region.edges() {
        let edge = &cfg.edges()[e];
        let _ = write!(s, "{}>{}@{}:", edge.from - base, edge.to - base, edge.line);
        for a in &actions[e] {
            let _ = write!(s, "{a:?}|");
        }
        s.push(';');
    }
    s
}

/// A persistent cross-job summary store: context and region content pools,
/// a sharded structure [`WordPool`], and the entry map.
#[derive(Debug, Default, Clone)]
pub struct SummaryStore {
    contexts: Vec<String>,
    context_ix: HashMap<String, u32>,
    /// `(context id, region content)` per region id, in registration order.
    regions: Vec<(u32, String)>,
    region_ix: HashMap<(u32, String), u32>,
    pool: WordPool,
    /// `(region id, input pool id)` → memoized summary.
    entries: HashMap<(u32, PoolId), StoredSummary>,
}

impl SummaryStore {
    /// Creates an empty store.
    pub fn new() -> SummaryStore {
        SummaryStore::default()
    }

    /// Number of memoized summaries.
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

    fn region_id(&self, context: u32, content: &str) -> Option<u32> {
        self.region_ix.get(&(context, content.to_string())).copied()
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

    fn ensure_region(&mut self, context: u32, content: &str) -> u32 {
        let key = (context, content.to_string());
        if let Some(id) = self.region_ix.get(&key) {
            return *id;
        }
        let id = u32::try_from(self.regions.len()).expect("region overflow");
        self.regions.push(key.clone());
        self.region_ix.insert(key, id);
        id
    }

    fn lookup(&self, region: u32, input_words: &[u64]) -> Option<&StoredSummary> {
        let input = self.pool.get(input_words)?;
        self.entries.get(&(region, input))
    }

    /// Merges per-run session deltas into the store, in the order given;
    /// first write wins for duplicate keys (all writers computed the same
    /// pure function, so the choice is cosmetic).
    pub fn absorb(&mut self, deltas: Vec<SummaryDelta>) {
        for delta in deltas {
            let ctx = self.ensure_context(&delta.context);
            let mut region_ids: Vec<Option<u32>> = vec![None; delta.regions.len()];
            for rec in delta.records {
                let region = match region_ids[rec.region as usize] {
                    Some(id) => id,
                    None => {
                        let id = self.ensure_region(ctx, &delta.regions[rec.region as usize]);
                        region_ids[rec.region as usize] = Some(id);
                        id
                    }
                };
                let input = self.pool.intern(&rec.input);
                let exits = rec.exits.iter().map(|w| self.pool.intern(w)).collect();
                self.entries.entry((region, input)).or_insert(StoredSummary {
                    exits,
                    violations: rec.violations,
                    failing_preds: rec.failing_preds,
                    visits: rec.visits,
                    peak_extra: rec.peak_extra,
                    peak_nodes: rec.peak_nodes,
                });
            }
        }
    }

    /// Serializes the store to a deterministic byte vector (entries in
    /// sorted key order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        push_u32(&mut out, self.contexts.len() as u32);
        for c in &self.contexts {
            push_str(&mut out, c);
        }
        push_u32(&mut out, self.regions.len() as u32);
        for (ctx, content) in &self.regions {
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
            push_u32(&mut out, entry.exits.len() as u32);
            for x in &entry.exits {
                push_u32(&mut out, x.raw());
            }
            push_u32(&mut out, entry.violations.len() as u32);
            for (line, label, definite) in &entry.violations {
                push_u32(&mut out, *line);
                push_str(&mut out, label);
                out.push(*definite as u8);
            }
            push_u32(&mut out, entry.failing_preds.len() as u32);
            for &p in &entry.failing_preds {
                push_u32(&mut out, p);
            }
            push_u64(&mut out, entry.visits);
            push_u32(&mut out, entry.peak_extra);
            push_u32(&mut out, entry.peak_nodes);
        }
        out
    }

    /// Deserializes a store written by [`SummaryStore::to_bytes`], with the
    /// same structural validation as the transfer store (magic, id ranges,
    /// pool-id reproduction).
    pub fn from_bytes(bytes: &[u8]) -> Result<SummaryStore, String> {
        let mut r = Reader { bytes, at: 0 };
        let store = SummaryStore::read(&mut r)?;
        if r.at != bytes.len() {
            return Err("trailing bytes after summary store".into());
        }
        Ok(store)
    }

    fn read(r: &mut Reader<'_>) -> Result<SummaryStore, String> {
        if r.take(MAGIC.len())? != MAGIC {
            return Err("not a hetsep summary store (bad magic)".into());
        }
        let mut store = SummaryStore::new();
        let n_contexts = r.u32()? as usize;
        for _ in 0..n_contexts {
            let c = r.string()?;
            store.ensure_context(&c);
        }
        let n_regions = r.u32()? as usize;
        for _ in 0..n_regions {
            let ctx = r.u32()?;
            if ctx as usize >= store.contexts.len() {
                return Err(format!("region references unknown context {ctx}"));
            }
            let content = r.string()?;
            store.ensure_region(ctx, &content);
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
            let region = r.u32()?;
            if region as usize >= store.regions.len() {
                return Err(format!("entry references unknown region {region}"));
            }
            let input = PoolId::from_raw(r.u32()?);
            if !store.pool.contains(input) {
                return Err("entry input id out of range".into());
            }
            let n_exits = r.u32()? as usize;
            let mut exits = Vec::with_capacity(n_exits);
            for _ in 0..n_exits {
                let x = PoolId::from_raw(r.u32()?);
                if !store.pool.contains(x) {
                    return Err("entry exit id out of range".into());
                }
                exits.push(x);
            }
            let n_violations = r.u32()? as usize;
            let mut violations = Vec::with_capacity(n_violations);
            for _ in 0..n_violations {
                let line = r.u32()?;
                let label = r.string()?;
                let definite = r.byte()? != 0;
                violations.push((line, label, definite));
            }
            let n_preds = r.u32()? as usize;
            let mut failing_preds = Vec::with_capacity(n_preds);
            for _ in 0..n_preds {
                failing_preds.push(r.u32()?);
            }
            let visits = r.u64()?;
            let peak_extra = r.u32()?;
            let peak_nodes = r.u32()?;
            store.entries.insert(
                (region, input),
                StoredSummary {
                    exits,
                    violations,
                    failing_preds,
                    visits,
                    peak_extra,
                    peak_nodes,
                },
            );
        }
        Ok(store)
    }
}

const MAGIC: &[u8] = b"HSEPSM01";

/// The combined on-disk cache container: the transfer store and the summary
/// store as two length-prefixed sections under one magic (`HSEPWS02`).
#[derive(Debug, Default, Clone)]
pub struct CacheFile {
    /// Cross-job transfer memoization (see [`crate::jobcache`]).
    pub transfers: TransferStore,
    /// Cross-job per-procedure summaries.
    pub summaries: SummaryStore,
}

const WS_MAGIC: &[u8] = b"HSEPWS02";

impl CacheFile {
    /// Creates an empty container.
    pub fn new() -> CacheFile {
        CacheFile::default()
    }

    /// Serializes both sections deterministically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(WS_MAGIC);
        let tc = self.transfers.to_bytes();
        push_u64(&mut out, tc.len() as u64);
        out.extend_from_slice(&tc);
        let sm = self.summaries.to_bytes();
        push_u64(&mut out, sm.len() as u64);
        out.extend_from_slice(&sm);
        out
    }

    /// Deserializes a container. Anything else, a bare transfer store
    /// included, is a bad-magic error.
    pub fn from_bytes(bytes: &[u8]) -> Result<CacheFile, String> {
        let mut r = Reader { bytes, at: 0 };
        if r.take(WS_MAGIC.len())? != WS_MAGIC {
            return Err("not a hetsep cache file (bad magic)".into());
        }
        let tc_len = usize::try_from(r.u64()?).map_err(|_| "oversized section")?;
        let transfers = TransferStore::from_bytes(r.take(tc_len)?)?;
        let sm_len = usize::try_from(r.u64()?).map_err(|_| "oversized section")?;
        let summaries = SummaryStore::from_bytes(r.take(sm_len)?)?;
        if r.at != bytes.len() {
            return Err("trailing bytes after cache file".into());
        }
        Ok(CacheFile {
            transfers,
            summaries,
        })
    }

    /// Writes the container to a file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a container from a file.
    pub fn load(path: &Path) -> Result<CacheFile, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        CacheFile::from_bytes(&bytes)
    }
}

/// The cross-job summary side of one verification job: a read-only store
/// snapshot to probe plus a delta accumulating this job's computed
/// summaries (same snapshot + delta discipline as
/// [`crate::jobcache::SharedTransferSession`]).
#[derive(Debug)]
pub struct SharedSummarySession<'a> {
    snapshot: &'a SummaryStore,
    deltas: Mutex<Vec<SummaryDelta>>,
}

/// The summaries one engine run computed, in content form.
#[derive(Debug)]
pub struct SummaryDelta {
    context: String,
    regions: Vec<String>,
    records: Vec<DeltaRecord>,
}

#[derive(Debug)]
struct DeltaRecord {
    /// Index into [`SummaryDelta::regions`].
    region: u32,
    input: Vec<u64>,
    exits: Vec<Vec<u64>>,
    violations: Vec<(u32, String, bool)>,
    failing_preds: Vec<u32>,
    visits: u64,
    peak_extra: u32,
    peak_nodes: u32,
}

/// A replayed shared summary hit: exact exit structures plus the recorded
/// violation, failing-site, and accounting data.
pub struct SummaryHit {
    /// Decoded exit structures, ready to intern locally.
    pub exits: Vec<Structure>,
    /// Violations to replay: `(line, label, definite?)`.
    pub violations: Vec<(u32, String, bool)>,
    /// Table predicate ids of failing sites to replay.
    pub failing_preds: Vec<u32>,
    /// Action applications of the original nested drain.
    pub visits: u64,
    /// Peak region-local structures above the caller's live count.
    pub peak_extra: usize,
    /// Largest universe size inside the region.
    pub peak_nodes: usize,
}

impl<'a> SharedSummarySession<'a> {
    /// Creates a session probing `snapshot` (pass an empty store for a cold
    /// run that should still record its summaries).
    pub fn new(snapshot: &'a SummaryStore) -> SharedSummarySession<'a> {
        SharedSummarySession {
            snapshot,
            deltas: Mutex::new(Vec::new()),
        }
    }

    /// Consumes the session, returning the per-run deltas for
    /// [`SummaryStore::absorb`].
    pub fn into_deltas(self) -> Vec<SummaryDelta> {
        self.deltas.into_inner().unwrap()
    }

    /// Opens the per-engine-run scope: resolves the run's context and the
    /// content of every distinct call region against the snapshot once, so
    /// per-evaluation probes are id lookups. `regions` is the engine's
    /// content-deduplicated region list; run-local region ids index into it.
    pub fn run_scope(
        &'a self,
        table: &PredTable,
        focus_limit: usize,
        regions: &[String],
    ) -> SummaryRunScope<'a> {
        let context = context_content(table, focus_limit);
        let snapshot_ctx = self.snapshot.context_id(&context);
        let slots = regions
            .iter()
            .map(|content| {
                snapshot_ctx
                    .and_then(|ctx| self.snapshot.region_id(ctx, content))
                    .map_or(RegionSlot::New, RegionSlot::Warm)
            })
            .collect();
        SummaryRunScope {
            session: self,
            slots,
            delta: SummaryDelta {
                context,
                regions: regions.to_vec(),
                records: Vec::new(),
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum RegionSlot {
    /// Resolved in the snapshot (store region id): probes may hit.
    Warm(u32),
    /// Unknown to the snapshot: every probe misses.
    New,
}

/// Per-engine-run view of a [`SharedSummarySession`]: probe before
/// computing, record after, finish once.
pub struct SummaryRunScope<'a> {
    session: &'a SharedSummarySession<'a>,
    /// Per run-local region content id.
    slots: Vec<RegionSlot>,
    delta: SummaryDelta,
}

impl SummaryRunScope<'_> {
    /// Probes the snapshot for `(region, input)`; `region` is the run-local
    /// content id, `input_words` the encoded boundary structure. A decode
    /// failure degrades to a miss, never to a wrong replay.
    pub fn probe(&self, region: u32, input_words: &[u64], table: &PredTable) -> Option<SummaryHit> {
        let RegionSlot::Warm(gid) = self.slots[region as usize] else {
            return None;
        };
        let snapshot = self.session.snapshot;
        let entry = snapshot.lookup(gid, input_words)?;
        let mut exits = Vec::with_capacity(entry.exits.len());
        for &x in &entry.exits {
            exits.push(Structure::from_words(table, snapshot.pool.resolve(x))?);
        }
        Some(SummaryHit {
            exits,
            violations: entry.violations.clone(),
            failing_preds: entry.failing_preds.clone(),
            visits: entry.visits,
            peak_extra: entry.peak_extra as usize,
            peak_nodes: entry.peak_nodes as usize,
        })
    }

    /// Records a computed summary for future jobs. `region` is the
    /// run-local content id (also its index in the delta's region list).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        region: u32,
        input_words: Vec<u64>,
        exits: Vec<Vec<u64>>,
        violations: Vec<(u32, String, bool)>,
        failing_preds: Vec<u32>,
        visits: u64,
        peak_extra: usize,
        peak_nodes: usize,
    ) {
        self.delta.records.push(DeltaRecord {
            region,
            input: input_words,
            exits,
            violations,
            failing_preds,
            visits,
            peak_extra: u32::try_from(peak_extra).unwrap_or(u32::MAX),
            peak_nodes: u32::try_from(peak_nodes).unwrap_or(u32::MAX),
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

    fn sample_store() -> SummaryStore {
        let mut store = SummaryStore::new();
        let delta = SummaryDelta {
            context: "focus_limit=8;p:Unary:flags;".into(),
            regions: vec!["0>1@3:Action|;".into(), "0>2@4:Other|;".into()],
            records: vec![
                DeltaRecord {
                    region: 0,
                    input: vec![1, 2, 3],
                    exits: vec![vec![4, 5], vec![6]],
                    violations: vec![(3, "read".into(), true)],
                    failing_preds: vec![7, 9],
                    visits: 12,
                    peak_extra: 5,
                    peak_nodes: 4,
                },
                DeltaRecord {
                    region: 1,
                    input: vec![9],
                    exits: vec![],
                    violations: vec![],
                    failing_preds: vec![],
                    visits: 2,
                    peak_extra: 0,
                    peak_nodes: 1,
                },
            ],
        };
        store.absorb(vec![delta]);
        store
    }

    #[test]
    fn absorb_is_first_write_wins_and_dedups_structures() {
        let mut store = sample_store();
        assert_eq!(store.entry_count(), 2);
        let before = store.entries.clone();
        store.absorb(vec![SummaryDelta {
            context: "focus_limit=8;p:Unary:flags;".into(),
            regions: vec!["0>1@3:Action|;".into()],
            records: vec![DeltaRecord {
                region: 0,
                input: vec![1, 2, 3],
                exits: vec![],
                violations: vec![],
                failing_preds: vec![],
                visits: 99,
                peak_extra: 99,
                peak_nodes: 99,
            }],
        }]);
        assert_eq!(store.entries, before, "duplicate keys keep the first write");
    }

    #[test]
    fn summary_store_roundtrips_through_bytes() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let back = SummaryStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.entry_count(), store.entry_count());
        assert_eq!(back.structure_count(), store.structure_count());
        assert_eq!(back.to_bytes(), bytes, "serialization is canonical");
    }

    #[test]
    fn corrupt_summary_bytes_are_rejected() {
        let store = sample_store();
        let mut bytes = store.to_bytes();
        assert!(SummaryStore::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        bytes[0] ^= 0xff;
        assert!(SummaryStore::from_bytes(&bytes).is_err());
        assert!(SummaryStore::from_bytes(b"HSEPSM01").is_err());
    }

    #[test]
    fn cache_file_roundtrips_and_rejects_legacy_transfer_stores() {
        let file = CacheFile {
            transfers: TransferStore::new(),
            summaries: sample_store(),
        };
        let bytes = file.to_bytes();
        let back = CacheFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.summaries.entry_count(), 2);
        assert!(back.transfers.is_empty());

        // A bare transfer store is a section, not a cache file.
        let legacy = TransferStore::new().to_bytes();
        assert_eq!(
            CacheFile::from_bytes(&legacy).unwrap_err(),
            "not a hetsep cache file (bad magic)"
        );

        assert!(CacheFile::from_bytes(b"garbage").is_err());
    }

    #[test]
    fn session_probe_hits_only_matching_context_and_region() {
        let store = sample_store();
        let session = SharedSummarySession::new(&store);
        // Scope resolution happens against raw content strings, so a
        // mismatched context yields all-New slots without a table in play.
        let table = hetsep_tvl::PredTable::new();
        let scope = session.run_scope(&table, 8, &["0>1@3:Action|;".to_string()]);
        // The real context string of an empty table differs from the stored
        // one, so every probe misses.
        assert!(scope.probe(0, &[1, 2, 3], &table).is_none());
    }
}
