//! # hetsep-bench
//!
//! Binaries regenerating the paper's evaluation:
//!
//! * `table3` — every benchmark × mode row of Table 3,
//! * `fig2` — the separated/heterogeneous abstract states of Fig. 2
//!   (with the concrete states of Fig. 5 as panels a/b),
//! * `fig3` — the file-in-a-loop comparison against the ESP-style baseline,
//! * `fig7` — the heterogeneous abstract configuration of Fig. 7,
//! * `ablation` — design-choice ablations (heterogeneous abstraction on/off,
//!   transitive relevance, merge policies) over scaled JDBC workloads.
//!
//! Run e.g. `cargo run -p hetsep-bench --bin table3 --release`.

/// Re-export for the binaries.
pub use hetsep;
