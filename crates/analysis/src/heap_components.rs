//! May-share heap components and structure-count cost estimation.
//!
//! The flow analysis ([`crate::points_to_flow`]) emits an undirected
//! may-point heap graph over allocation sites. Its weakly-connected
//! components are the program's **may-share partition**: two sites in
//! different components can never reach a common object, so a separation
//! subproblem tracking one of them owes nothing to the other — this is the
//! same separation the paper's strategies exploit, recovered statically.
//!
//! The partition serves two consumers:
//!
//! * **Pruning soundness** — a possibly-failing check implicates not just
//!   the sites bound at the check but everything they may share structure
//!   with; [`HeapSummary::suspects_closed`] closes the raw suspect seeds
//!   over their components, exactly as the baseline pre-pass closes over
//!   its (coarser) heap graph.
//! * **Cost prediction** — [`HeapSummary::estimate`] bounds the number of
//!   distinct abstract structures a subproblem on a site's component can
//!   visit: `locations × ∏ 2^b` over singleton sites and `3^b` over summary
//!   sites of the component (`b` = boolean fields of the site's class; a
//!   singleton's fields are definite, a summary node's may also be ½).
//!   The bound feeds `RunStats` counters, report rows, and the serve
//!   protocol so clients — and the future auto-strategy planner (ROADMAP
//!   item 5) — can see predicted cost before a run.

use std::collections::{BTreeMap, BTreeSet};

use hetsep_easl::ast::{FieldKind, Spec};
use hetsep_ir::Cfg;

use crate::points_to_flow::{FlowVerdicts, Site};

/// May-share partition of allocation sites plus per-component structure
/// bounds, derived from one [`FlowVerdicts`].
#[derive(Debug, Clone, Default)]
pub struct HeapSummary {
    /// Component index per site (dense, in ascending order of each
    /// component's smallest site).
    comp_of: BTreeMap<Site, usize>,
    /// Sites per component.
    components: Vec<BTreeSet<Site>>,
    /// Structure-count estimate per component (not a bound; see
    /// [`HeapSummary::estimate`]).
    estimates: Vec<u64>,
    /// Suspect seeds closed over their components.
    suspects_closed: BTreeSet<Site>,
}

impl HeapSummary {
    /// Number of may-share components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Component index of `site`, if the site exists.
    #[must_use]
    pub fn component_of(&self, site: Site) -> Option<usize> {
        self.comp_of.get(&site).copied()
    }

    /// Suspect sites after closure over may-share components: a site in the
    /// same component as a raw suspect may share structure with it, so its
    /// subproblem cannot be pruned.
    #[must_use]
    pub fn suspects_closed(&self) -> &BTreeSet<Site> {
        &self.suspects_closed
    }

    /// Structure-count estimate for the component containing `site`
    /// (0 for an unknown site). A ranking heuristic, not a bound: it counts
    /// only boolean fields, not node multiplicity or binary relations, and
    /// measured peaks exceed it by two orders of magnitude (InputStream5
    /// single: 57 estimated, 6 011 measured; InputStream6 single: 69
    /// against 14 570).
    #[must_use]
    pub fn estimate(&self, site: Site) -> u64 {
        self.component_of(site)
            .map(|c| self.estimates[c])
            .unwrap_or(0)
    }
}

/// Builds the may-share partition and cost bounds from the flow analysis's
/// verdicts.
#[must_use]
pub fn summarize(cfg: &Cfg, spec: &Spec, verdicts: &FlowVerdicts) -> HeapSummary {
    // Union-find over sites, seeded singleton and merged along heap edges.
    let sites: Vec<Site> = verdicts.site_class.keys().copied().collect();
    let index: BTreeMap<Site, usize> = sites.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut parent: Vec<usize> = (0..sites.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(a, b) in &verdicts.heap_edges {
        if let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) {
            let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
            // Root at the smaller index for deterministic numbering.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi] = lo;
        }
    }

    let mut by_root: BTreeMap<usize, BTreeSet<Site>> = BTreeMap::new();
    for (i, &s) in sites.iter().enumerate() {
        let r = find(&mut parent, i);
        by_root.entry(r).or_default().insert(s);
    }
    let components: Vec<BTreeSet<Site>> = by_root.into_values().collect();
    let mut comp_of = BTreeMap::new();
    for (c, members) in components.iter().enumerate() {
        for &s in members {
            comp_of.insert(s, c);
        }
    }

    let locations = cfg.node_count().max(1) as u64;
    let estimates: Vec<u64> = components
        .iter()
        .map(|members| {
            members
                .iter()
                .map(|&s| {
                    let bools = verdicts
                        .site_class
                        .get(&s)
                        .and_then(|cls| spec.class(cls))
                        .map(|c| {
                            c.fields
                                .iter()
                                .filter(|(_, k)| matches!(k, FieldKind::Bool))
                                .count() as u32
                        })
                        .unwrap_or(0);
                    let base: u64 = if verdicts.singleton.contains(&s) { 2 } else { 3 };
                    base.checked_pow(bools).unwrap_or(u64::MAX)
                })
                .fold(locations, u64::saturating_mul)
        })
        .collect();

    let suspects_closed = components
        .iter()
        .filter(|members| !members.is_disjoint(&verdicts.suspects))
        .flat_map(|members| members.iter().copied())
        .collect();

    HeapSummary {
        comp_of,
        components,
        estimates,
        suspects_closed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points_to_flow::analyze_flow;
    use hetsep_easl::builtin;
    use hetsep_ir::parse_program;

    fn summary(src: &str, spec: &Spec) -> (HeapSummary, FlowVerdicts) {
        let program = parse_program(src).unwrap();
        let cfg = Cfg::build(&program, "main").unwrap();
        let v = analyze_flow(&cfg, spec).unwrap();
        (summarize(&cfg, spec, &v), v)
    }

    #[test]
    fn unrelated_sites_form_separate_components() {
        let (s, v) = summary(
            "program P uses IOStreams; void main() {\n\
             InputStream a = new InputStream();\n\
             InputStream b = new InputStream();\n\
             a.read(); a.close();\n\
             b.read(); b.close();\n\
             }",
            &builtin::iostreams(),
        );
        assert_eq!(v.site_class.len(), 2);
        assert_eq!(s.component_count(), 2);
        let sites: Vec<_> = v.site_class.keys().copied().collect();
        assert_ne!(s.component_of(sites[0]), s.component_of(sites[1]));
    }

    #[test]
    fn jdbc_ownership_links_sites_into_one_component() {
        // The JDBC spec wires connection → statement → result-set
        // ownership through reference fields: one may-share component.
        let (s, v) = summary(
            "program P uses JDBC; void main() {\n\
             ConnectionManager cm = new ConnectionManager();\n\
             Connection con = cm.getConnection();\n\
             Statement st = cm.createStatement(con);\n\
             ResultSet rs = st.executeQuery(\"q\");\n\
             rs.close();\n\
             }",
            &builtin::jdbc(),
        );
        assert!(v.site_class.len() > 1);
        let linked: BTreeSet<usize> = v
            .heap_edges
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .filter_map(|x| s.component_of(x))
            .collect();
        assert_eq!(linked.len(), 1, "heap-linked sites share a component");
        assert!(s.component_count() < v.site_class.len());
    }

    #[test]
    fn suspect_closure_poisons_whole_component_only() {
        // `con` is left open (suspect); the statement shares its component,
        // but the independent second connection manager chain does not.
        let (s, v) = summary(
            "program P uses IOStreams; void main() {\n\
             InputStream bad = new InputStream();\n\
             bad.close();\n\
             bad.read();\n\
             InputStream good = new InputStream();\n\
             good.read();\n\
             good.close();\n\
             }",
            &builtin::iostreams(),
        );
        assert!(!v.suspects.is_empty());
        assert!(!s.suspects_closed().is_empty());
        assert!(
            s.suspects_closed().len() < v.site_class.len(),
            "the clean component stays unsuspect: {s:?}"
        );
    }

    #[test]
    fn estimates_scale_with_fields_and_multiplicity() {
        let single = "program P uses IOStreams; void main() {\n\
                      InputStream f = new InputStream();\n\
                      f.read(); f.close();\n\
                      }";
        let looped = "program P uses IOStreams; void main() {\n\
                      while (?) {\n\
                      InputStream f = new InputStream();\n\
                      f.read(); f.close();\n\
                      }\n\
                      }";
        let spec = builtin::iostreams();
        let (s1, v1) = summary(single, &spec);
        let (s2, v2) = summary(looped, &spec);
        let site1 = *v1.site_class.keys().next().unwrap();
        let site2 = *v2.site_class.keys().next().unwrap();
        let per_loc1 = s1.estimate(site1) / Cfg::build(&parse_program(single).unwrap(), "main")
            .unwrap()
            .node_count() as u64;
        let per_loc2 = s2.estimate(site2) / Cfg::build(&parse_program(looped).unwrap(), "main")
            .unwrap()
            .node_count() as u64;
        assert!(per_loc2 > per_loc1, "summary site admits the ½ value");
    }

    #[test]
    fn unknown_site_estimates_zero() {
        let (s, _) = summary(
            "program P uses IOStreams; void main() {\n\
             InputStream f = new InputStream();\n\
             f.read(); f.close();\n\
             }",
            &builtin::iostreams(),
        );
        assert_eq!(s.estimate(9999), 0);
        assert_eq!(s.component_of(9999), None);
    }
}
