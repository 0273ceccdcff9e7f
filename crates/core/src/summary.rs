//! Per-procedure summaries: the summary payload of the cross-run store.
//!
//! The engine evaluates every spliced call region as a nested subproblem
//! (see [`crate::engine`]) and memoizes the result per run, keyed by
//! `(region content, interned input structure at the call boundary)`. The
//! generic store of [`crate::jobcache`] keeps the same memo across runs —
//! one level up from single transfers — under two summary-specific pieces:
//!
//! * a *region* is keyed by its content string ([`region_content`]): every
//!   interior edge's splice-relative endpoints, source line, and the full
//!   `Debug` rendering of its translated actions. Two splices of one
//!   procedure produce byte-identical content (splice-stable `{proc}::`
//!   naming), so call sites share summaries; site-instrumented splices
//!   differ in their action renderings and correctly do not;
//! * an entry's outputs are the region's exit structures, and its payload
//!   ([`SummaryMemo`]) replays the `(line, label, definite)` violations,
//!   failing-site predicate ids, and the visit/peak accounting of the
//!   nested drain it replaces, so warm and cold runs are
//!   observation-equivalent — verdicts, errors, `visits`, `structures` —
//!   and only the summary counters and wall-clock differ.
//!
//! Failing sites are stored as *predicate ids* (`SiteId`s are edge indices,
//! private to one instance; the site predicate's table id is what the
//! context scopes), mapped back through the instance's `site_preds` on
//! replay.

use std::fmt::Write as _;

use hetsep_ir::cfg::{CallRegion, Cfg};

use crate::jobcache::{push_str, push_u32, push_u64, Memo, Reader, SharedSession, Store};

/// The payload of a memoized call-region evaluation (its exit structures
/// are the entry's outputs, in first-arrival order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryMemo {
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

impl Memo for SummaryMemo {
    const MAGIC: &'static [u8] = b"HSEPSM01";
    const NAME: &'static str = "summary";

    fn write(&self, out: &mut Vec<u8>) {
        push_u32(out, self.violations.len() as u32);
        for (line, label, definite) in &self.violations {
            push_u32(out, *line);
            push_str(out, label);
            out.push(*definite as u8);
        }
        push_u32(out, self.failing_preds.len() as u32);
        for &p in &self.failing_preds {
            push_u32(out, p);
        }
        push_u64(out, self.visits);
        push_u32(out, self.peak_extra);
        push_u32(out, self.peak_nodes);
    }

    fn read(r: &mut Reader<'_>) -> Result<SummaryMemo, String> {
        let n = r.count(9)?;
        let mut violations = Vec::with_capacity(n);
        for _ in 0..n {
            violations.push((r.u32()?, r.string()?, r.byte()? != 0));
        }
        let n = r.count(4)?;
        let mut failing_preds = Vec::with_capacity(n);
        for _ in 0..n {
            failing_preds.push(r.u32()?);
        }
        Ok(SummaryMemo {
            violations,
            failing_preds,
            visits: r.u64()?,
            peak_extra: r.u32()?,
            peak_nodes: r.u32()?,
        })
    }
}

/// The cross-run summary store.
pub type SummaryStore = Store<SummaryMemo>;

/// A job's session over a [`SummaryStore`] snapshot.
pub type SharedSummarySession<'a> = SharedSession<'a, SummaryMemo>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobcache::{CacheFile, TransferStore};

    type Rec = (u32, Vec<u64>, Vec<Vec<u64>>, SummaryMemo);

    /// Records `records` against `keys` through a session over an empty
    /// store (context: the empty table at focus limit 8) and absorbs them.
    fn absorb(store: &mut SummaryStore, keys: &[&str], records: Vec<Rec>) {
        let empty = SummaryStore::new();
        let session = SharedSummarySession::new(&empty);
        let keys = keys.iter().map(|k| k.to_string()).collect();
        let mut scope = session.run_scope(&hetsep_tvl::PredTable::new(), 8, keys);
        for (key, input, outputs, memo) in records {
            scope.record(key, input, outputs, memo);
        }
        scope.finish();
        store.absorb(session.into_deltas());
    }

    fn memo(visits: u64) -> SummaryMemo {
        SummaryMemo {
            violations: vec![(3, "read".into(), true)],
            failing_preds: vec![7, 9],
            visits,
            peak_extra: 5,
            peak_nodes: 4,
        }
    }

    fn sample_store() -> SummaryStore {
        let mut store = SummaryStore::new();
        let quiet = SummaryMemo {
            violations: vec![],
            failing_preds: vec![],
            visits: 2,
            peak_extra: 0,
            peak_nodes: 1,
        };
        absorb(
            &mut store,
            &["0>1@3:Action|;", "0>2@4:Other|;"],
            vec![
                (0, vec![1, 2, 3], vec![vec![4, 5], vec![6]], memo(12)),
                (1, vec![9], vec![vec![6]], quiet),
            ],
        );
        store
    }

    #[test]
    fn absorb_is_first_write_wins_and_dedups_structures() {
        let mut store = sample_store();
        assert_eq!(store.entry_count(), 2);
        assert_eq!(store.structure_count(), 4, "the shared exit is pooled once");
        let before = store.to_bytes();
        absorb(
            &mut store,
            &["0>1@3:Action|;"],
            vec![(0, vec![1, 2, 3], vec![], memo(99))],
        );
        assert_eq!(store.to_bytes(), before, "duplicate keys keep the first write");
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
        assert_eq!(back.sizes(), "0 transfer(s), 0 structure(s), 2 summar(ies)");

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
        let table = hetsep_tvl::PredTable::new();
        let words = hetsep_tvl::Structure::new(&table).to_words();
        let region = || vec!["0>1@3:Action|;".to_string()];

        let mut store = SummaryStore::new();
        absorb(
            &mut store,
            &["0>1@3:Action|;"],
            vec![(0, words.clone(), vec![words.clone()], memo(12))],
        );

        let session = SharedSummarySession::new(&store);
        let scope = session.run_scope(&table, 8, region());
        assert!(scope.contains(0, &words));
        let (exits, hit) = scope.probe(0, &words, &table).expect("same context and region");
        assert_eq!(exits.len(), 1);
        assert_eq!(hit, memo(12));
        assert!(scope.probe(0, &[words[0] + 1], &table).is_none(), "other input");
        // Another focus limit is another context; another region another key.
        let scope = session.run_scope(&table, 9, region());
        assert!(scope.probe(0, &words, &table).is_none());
        let scope = session.run_scope(&table, 8, vec!["0>2@4:Other|;".into()]);
        assert!(scope.probe(0, &words, &table).is_none());
    }
}
