//! Experiment harness for the GVE-Leiden reproduction.
//!
//! One binary per table/figure of the paper's evaluation section (see
//! DESIGN.md §4 for the full index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table2_datasets` | Table 2 (dataset statistics + `\|Γ\|`) |
//! | `fig1_2_refinement` | Figures 1–2 (greedy vs random × variants) |
//! | `fig3_4_labeling` | Figures 3–4 (move- vs refine-based labeling) |
//! | `fig6_compare` | Figure 6(a–d) + Table 1 (implementation matrix) |
//! | `fig7_splits` | Figure 7 (phase and pass splits) |
//! | `fig8_rate` | Figure 8 (runtime /\|E\| factor) |
//! | `fig9_scaling` | Figure 9 (strong scaling with phase splits) |
//! | `ablation` | §4.1 optimization claims (pruning, hashtable, tolerances) |
//!
//! Every binary accepts `--scale <f>` (dataset size multiplier),
//! `--reps <n>` (timing repetitions, paper uses 5), `--seed <n>`, and
//! `--csv <path>` (also emit CSV). Output is a markdown table whose rows
//! mirror the series of the corresponding figure.

#![warn(missing_docs)]

pub mod args;
pub mod chart;
pub mod report;
pub mod runner;

pub use args::BenchArgs;
pub use chart::BarChart;
pub use report::Table;
pub use runner::{implementations, measure, Implementation, Measured};
