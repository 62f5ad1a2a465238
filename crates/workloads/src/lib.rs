//! Synthetic SPEC CPU2000-like workload models.
//!
//! The paper evaluates on eleven benchmark/input pairs (ammp, bzip2/graphic,
//! bzip2/program, galgel, gcc/166, gcc/scilab, gzip/graphic, gzip/program,
//! mcf, perl/diffmail, perl/splitmail) run under SimpleScalar. We do not
//! have SPEC or its reference inputs, so this crate builds the closest
//! synthetic equivalent (see DESIGN.md §2): each benchmark is modeled as a
//! set of code [`Region`]s — loop nests with basic blocks at fixed PCs,
//! characteristic memory access streams, and branch behaviour — driven by a
//! hierarchical [`ScriptNode`] phase script that reproduces the benchmark's
//! *documented phase structure*:
//!
//! | model | structural property reproduced (paper's characterization) |
//! |---|---|
//! | `ammp` | few long stable phases |
//! | `bzip2/g`, `bzip2/p` | "complex hierarchical phase patterns" |
//! | `galgel` | hardest to classify: many similar-but-distinct FP phases |
//! | `gcc/1`, `gcc/s` | many short phases, frequent transitions; scilab transitions ~30% of intervals at min-count 8 |
//! | `gzip/g` | few exceptionally long stable phases (~40% of changes into long runs) |
//! | `gzip/p` | hierarchical compress/flush pattern |
//! | `mcf` | pointer-chasing, many cache misses; same code with different data footprints (benefits from tighter thresholds) |
//! | `perl/d` | short program, few exceptionally long phases |
//! | `perl/s` | same-code/different-data modes (benefits from dynamic thresholds) |
//!
//! Execution drives the `tpcp-uarch` memory hierarchy and branch predictor
//! block by block, so per-interval CPI *emerges* from the code's locality
//! and predictability rather than being injected.
//!
//! # Example
//!
//! ```
//! use tpcp_trace::IntervalSource;
//! use tpcp_workloads::{BenchmarkKind, WorkloadParams};
//!
//! // A scaled-down run of the mcf model.
//! let params = WorkloadParams { length_scale: 0.02, ..Default::default() };
//! let mut sim = BenchmarkKind::Mcf.build(&params).simulate(&params);
//! let summaries = sim.drain_summaries();
//! assert!(summaries.len() > 10);
//! // mcf is memory bound: CPI is well above the machine's ideal.
//! let avg: f64 = summaries.iter().map(|s| s.cpi()).sum::<f64>() / summaries.len() as f64;
//! assert!(avg > 1.0, "mcf-like CPI was {avg}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod models;
mod region;
mod script;
mod sim;

pub use models::{BenchmarkKind, ParseBenchmarkError, MODEL_VERSION};
pub use region::{Block, Region, StreamSpec};
pub use script::{ScriptIter, ScriptNode};
pub use sim::{Benchmark, OpenInterval, WorkloadParams, WorkloadSim};
