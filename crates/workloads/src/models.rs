//! The eleven benchmark/input models of the paper's methodology
//! (Section 3), rebuilt as synthetic equivalents.
//!
//! Each model reproduces the *structural* properties the paper documents
//! for its benchmark — phase count, run lengths, hierarchy, transition
//! noisiness, and data-dependent behaviour — because those structures are
//! what every figure in the evaluation measures. See the crate docs and
//! DESIGN.md §2 for the property-by-property mapping.

use crate::region::{Block, Region, StreamSpec};
use crate::script::ScriptNode;
use crate::sim::{Benchmark, WorkloadParams};

/// One million instructions — one interval at the default
/// [`WorkloadParams::interval_size`]. Script durations below are written in
/// these units so "`80 * M`" reads as "approximately 80 intervals".
const M: u64 = 1_000_000;

/// Bumped whenever any benchmark model changes, so downstream trace caches
/// (keyed on parameters + this version) never serve stale simulations.
pub const MODEL_VERSION: u32 = 2;

/// The benchmark/input pairs of the paper's Section 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum BenchmarkKind {
    Ammp,
    Bzip2Graphic,
    Bzip2Program,
    Galgel,
    Gcc166,
    GccScilab,
    GzipGraphic,
    GzipProgram,
    Mcf,
    PerlDiffmail,
    PerlSplitmail,
}

impl BenchmarkKind {
    /// All eleven benchmarks in the paper's plotting order.
    pub const ALL: [BenchmarkKind; 11] = [
        BenchmarkKind::Ammp,
        BenchmarkKind::Bzip2Graphic,
        BenchmarkKind::Bzip2Program,
        BenchmarkKind::Galgel,
        BenchmarkKind::Gcc166,
        BenchmarkKind::GccScilab,
        BenchmarkKind::GzipGraphic,
        BenchmarkKind::GzipProgram,
        BenchmarkKind::Mcf,
        BenchmarkKind::PerlDiffmail,
        BenchmarkKind::PerlSplitmail,
    ];

    /// The paper's abbreviated label (e.g. `"bzip2/g"`).
    pub fn label(self) -> &'static str {
        match self {
            BenchmarkKind::Ammp => "ammp",
            BenchmarkKind::Bzip2Graphic => "bzip2/g",
            BenchmarkKind::Bzip2Program => "bzip2/p",
            BenchmarkKind::Galgel => "galgel",
            BenchmarkKind::Gcc166 => "gcc/1",
            BenchmarkKind::GccScilab => "gcc/s",
            BenchmarkKind::GzipGraphic => "gzip/g",
            BenchmarkKind::GzipProgram => "gzip/p",
            BenchmarkKind::Mcf => "mcf",
            BenchmarkKind::PerlDiffmail => "perl/d",
            BenchmarkKind::PerlSplitmail => "perl/s",
        }
    }

    /// Builds the benchmark model. `params` supplies the model seed (the
    /// durations themselves are fixed; scale at simulation time with
    /// [`WorkloadParams::length_scale`]).
    pub fn build(self, params: &WorkloadParams) -> Benchmark {
        let _ = params; // models are deterministic; seed applies at simulate()
        match self {
            BenchmarkKind::Ammp => ammp(),
            BenchmarkKind::Bzip2Graphic => bzip2(true),
            BenchmarkKind::Bzip2Program => bzip2(false),
            BenchmarkKind::Galgel => galgel(),
            BenchmarkKind::Gcc166 => gcc(true),
            BenchmarkKind::GccScilab => gcc(false),
            BenchmarkKind::GzipGraphic => gzip(true),
            BenchmarkKind::GzipProgram => gzip(false),
            BenchmarkKind::Mcf => mcf(),
            BenchmarkKind::PerlDiffmail => perl_diffmail(),
            BenchmarkKind::PerlSplitmail => perl_splitmail(),
        }
    }
}

impl core::fmt::Display for BenchmarkKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error parsing a benchmark label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchmarkError {
    label: String,
}

impl core::fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "unknown benchmark '{}' (expected one of: {})",
            self.label,
            BenchmarkKind::ALL
                .iter()
                .map(|k| k.label())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl std::str::FromStr for BenchmarkKind {
    type Err = ParseBenchmarkError;

    /// Parses the paper's abbreviated label (e.g. `"bzip2/g"`).
    ///
    /// # Errors
    ///
    /// Returns [`ParseBenchmarkError`] for unknown labels.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BenchmarkKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| ParseBenchmarkError {
                label: s.to_owned(),
            })
    }
}

/// Builds a code-sharing variant of `base`: same blocks (optionally with a
/// few appended) over a different data stream — the "same code, different
/// data" situation that motivates adaptive thresholds (mcf, perl/s).
fn variant_of(base: &Region, name: &str, extra_blocks: usize, stream: StreamSpec) -> Region {
    let mut r = base.clone();
    r.name = name.to_owned();
    r.stream = stream;
    let last_pc = r.blocks.last().expect("regions are non-empty").pc;
    for i in 0..extra_blocks as u64 {
        r.blocks.push(Block {
            pc: last_pc + 0x80 * (i + 1),
            insns: 180,
            taken_bias: 0.8,
        });
    }
    r
}

/// `ammp`: a molecular-dynamics FP code with a few long, very stable
/// phases (force computation dominates; neighbor-list rebuilds and
/// integration punctuate it).
fn ammp() -> Benchmark {
    let force = Region::loop_nest(
        "force",
        0x0040_0000,
        8,
        240,
        StreamSpec::Strided {
            stride: 24,
            working_set: 192 * 1024, // spills L2 lightly
        },
    )
    .with_loads_per_insn(0.34);
    let neighbor = Region::loop_nest(
        "neighbor",
        0x0050_0000,
        6,
        200,
        StreamSpec::Random {
            working_set: 2 * 1024 * 1024,
        },
    )
    .with_loads_per_insn(0.30)
    .with_branch_noise(0.15);
    let integrate = Region::loop_nest(
        "integrate",
        0x0060_0000,
        4,
        220,
        StreamSpec::Strided {
            stride: 8,
            working_set: 48 * 1024,
        },
    );
    Benchmark::new(
        "ammp",
        vec![force, neighbor, integrate],
        ScriptNode::repeat(
            25,
            ScriptNode::Seq(vec![
                ScriptNode::run(0, 60 * M),
                ScriptNode::run(1, 8 * M),
                ScriptNode::run(2, 12 * M),
            ]),
        ),
    )
}

/// `bzip2`: "complex hierarchical phase patterns" — a per-input-block
/// sort → MTF → Huffman pipeline nested inside a file loop. The two inputs
/// differ in block sizes and rhythm.
fn bzip2(graphic: bool) -> Benchmark {
    let io = Region::loop_nest(
        "io",
        0x0040_0000,
        3,
        160,
        StreamSpec::Strided {
            stride: 64,
            working_set: 512 * 1024,
        },
    );
    let sort = Region::loop_nest(
        "sort",
        0x0048_0000,
        10,
        200,
        StreamSpec::Random {
            working_set: 900 * 1024,
        },
    )
    .with_loads_per_insn(0.36)
    .with_branch_noise(0.25);
    let mtf = Region::loop_nest(
        "mtf",
        0x0052_0000,
        5,
        180,
        StreamSpec::Strided {
            stride: 4,
            working_set: 64 * 1024,
        },
    );
    let huffman = Region::loop_nest(
        "huffman",
        0x005A_0000,
        6,
        170,
        StreamSpec::Strided {
            stride: 16,
            working_set: 128 * 1024,
        },
    )
    .with_branch_noise(0.20);

    let (name, files, blocks_per_file, sort_lo, sort_hi, mtf_len, huff_len) = if graphic {
        ("bzip2/g", 14, 3, 15 * M, 25 * M, 6 * M, 5 * M)
    } else {
        ("bzip2/p", 20, 2, 10 * M, 18 * M, 5 * M, 4 * M)
    };
    Benchmark::new(
        name,
        vec![io, sort, mtf, huffman],
        ScriptNode::repeat(
            files,
            ScriptNode::Seq(vec![
                ScriptNode::run(0, 2 * M),
                ScriptNode::repeat(
                    blocks_per_file,
                    ScriptNode::Seq(vec![
                        ScriptNode::run_var(1, sort_lo, sort_hi),
                        ScriptNode::run(2, mtf_len),
                        ScriptNode::run(3, huff_len),
                    ]),
                ),
            ]),
        ),
    )
}

/// `galgel`: the hardest FP benchmark to classify — several solver phases
/// whose code partially *overlaps* (shared kernels), yielding signatures
/// that sit near the similarity threshold.
fn galgel() -> Benchmark {
    // A shared bank of FP kernels plus per-phase private blocks.
    let shared_base = 0x0040_0000u64;
    let make_phase = |i: u64, ws: u64| -> Region {
        let mut blocks = Vec::new();
        // 5 shared kernel blocks (same PCs in every phase).
        for s in 0..5u64 {
            blocks.push(Block {
                pc: shared_base + s * 0x80,
                insns: 220,
                taken_bias: 0.85,
            });
        }
        // 5 private blocks for this phase.
        for p in 0..5u64 {
            blocks.push(Block {
                pc: 0x0050_0000 + i * 0x4000 + p * 0x80,
                insns: 200,
                taken_bias: 0.85,
            });
        }
        Region {
            name: format!("solve{i}"),
            blocks,
            stream: StreamSpec::Strided {
                stride: 8,
                working_set: ws,
            },
            loads_per_insn: 0.33,
            branches_per_insn: 0.12,
            branch_noise: 0.05,
            data_base: 0x2000_0000 + i * 0x0100_0000,
        }
    };
    let regions: Vec<Region> = (0..6)
        .map(|i| make_phase(i, (32 * 1024) << i)) // 32K .. 1M working sets
        .collect();
    let options: Vec<(ScriptNode, f64)> = (0..6)
        .map(|i| (ScriptNode::run_var(i, 5 * M, 20 * M), 1.0))
        .collect();
    Benchmark::new(
        "galgel",
        regions,
        ScriptNode::repeat(120, ScriptNode::Choose(options)),
    )
}

/// `gcc`: many short phases and frequent transitions; per-function
/// processing makes run lengths irregular. The scilab input is even
/// choppier, with many behaviours that never recur often enough to become
/// stable phases (~30% transition time at min-count 8).
fn gcc(input_166: bool) -> Benchmark {
    let names = [
        "lex", "parse", "tree", "rtlgen", "jump", "cse", "loop", "sched", "regalloc", "reload",
        "final", "emit", "dataflow", "gcse", "peephole", "debugout",
    ];
    let regions: Vec<Region> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Region::loop_nest(
                name,
                0x0040_0000 + (i as u64) * 0x2_0000,
                6 + i % 4,
                150 + (i as u32 % 5) * 30,
                StreamSpec::Random {
                    working_set: (96 + 64 * (i as u64 % 7)) * 1024,
                },
            )
            .with_branch_noise(0.30)
            .with_loads_per_insn(0.30)
        })
        .collect();

    let (name, reps, lo, hi, n_opts) = if input_166 {
        ("gcc/1", 260, 2 * M, 7 * M, 10)
    } else {
        ("gcc/s", 340, M, 4 * M, 16)
    };
    let options: Vec<(ScriptNode, f64)> = (0..n_opts)
        .map(|i| {
            // Each "function" is a short pipeline of 1-2 pass regions.
            let node = if i % 3 == 0 {
                ScriptNode::Seq(vec![
                    ScriptNode::run_var(i, lo, hi),
                    ScriptNode::run_var((i + 1) % n_opts, lo, hi / 2),
                ])
            } else {
                ScriptNode::run_var(i, lo, hi)
            };
            (node, 1.0 + (i % 4) as f64)
        })
        .collect();
    Benchmark::new(
        name,
        regions,
        ScriptNode::repeat(reps, ScriptNode::Choose(options)),
    )
}

/// `gzip`: long stable deflate stretches; the graphic input has a few
/// exceptionally long phases (~40% of changes land in long runs).
fn gzip(graphic: bool) -> Benchmark {
    let deflate = Region::loop_nest(
        "deflate",
        0x0040_0000,
        9,
        210,
        StreamSpec::Strided {
            stride: 32,
            working_set: 320 * 1024,
        },
    )
    .with_loads_per_insn(0.32);
    let inflate = Region::loop_nest(
        "inflate",
        0x004A_0000,
        7,
        190,
        StreamSpec::Strided {
            stride: 16,
            working_set: 128 * 1024,
        },
    );
    let crc = Region::loop_nest(
        "crc",
        0x0052_0000,
        2,
        240,
        StreamSpec::Strided {
            stride: 8,
            working_set: 16 * 1024,
        },
    );

    if graphic {
        Benchmark::new(
            "gzip/g",
            vec![deflate, inflate, crc],
            ScriptNode::repeat(
                3,
                ScriptNode::Seq(vec![
                    ScriptNode::run(0, 200 * M),
                    ScriptNode::run(2, 3 * M),
                    ScriptNode::run(1, 50 * M),
                    ScriptNode::run(2, 3 * M),
                ]),
            ),
        )
    } else {
        Benchmark::new(
            "gzip/p",
            vec![deflate, inflate, crc],
            ScriptNode::repeat(
                12,
                ScriptNode::Seq(vec![
                    ScriptNode::run(0, 60 * M),
                    ScriptNode::run(2, 2 * M),
                    ScriptNode::run(1, 25 * M),
                    ScriptNode::run(2, 2 * M),
                    ScriptNode::run_var(0, 5 * M, 12 * M),
                ]),
            ),
        )
    }
}

/// `mcf`: pointer-chasing network simplex with a large miss rate. The
/// solver runs the *same code* over growing data footprints — signatures
/// stay within the default 25% similarity threshold while CPI diverges,
/// which is exactly the case the paper's adaptive threshold splits.
fn mcf() -> Benchmark {
    let simplex_small = Region::loop_nest(
        "simplex-small",
        0x0040_0000,
        10,
        190,
        StreamSpec::PointerChase {
            nodes: 4 * 1024, // 256KB of 64B nodes: mostly L2-resident
            node_bytes: 64,
        },
    )
    .with_loads_per_insn(0.30)
    .with_branch_noise(0.20);
    let simplex_large = variant_of(
        &simplex_small,
        "simplex-large",
        2,
        StreamSpec::PointerChase {
            nodes: 64 * 1024, // 4MB: chase steps miss to memory
            node_bytes: 64,
        },
    );
    let refactor = Region::loop_nest(
        "refactor",
        0x0050_0000,
        5,
        210,
        StreamSpec::Strided {
            stride: 64,
            working_set: 1024 * 1024,
        },
    );
    Benchmark::new(
        "mcf",
        vec![simplex_small, simplex_large, refactor],
        ScriptNode::repeat(
            10,
            ScriptNode::Seq(vec![
                ScriptNode::run(0, 50 * M),
                ScriptNode::run(1, 70 * M),
                ScriptNode::run(2, 18 * M),
            ]),
        ),
    )
}

/// `perl/diffmail`: a comparatively short run dominated by a few very long
/// interpreter phases (the paper singles it out for exceptionally high
/// average phase lengths).
fn perl_diffmail() -> Benchmark {
    let interp = Region::loop_nest(
        "interp",
        0x0040_0000,
        12,
        180,
        StreamSpec::Random {
            working_set: 384 * 1024,
        },
    )
    .with_branch_noise(0.15);
    let regex = Region::loop_nest(
        "regex",
        0x004C_0000,
        6,
        200,
        StreamSpec::Strided {
            stride: 4,
            working_set: 96 * 1024,
        },
    );
    let gc = Region::loop_nest(
        "gc",
        0x0054_0000,
        4,
        190,
        StreamSpec::Random {
            working_set: 1536 * 1024,
        },
    );
    Benchmark::new(
        "perl/d",
        vec![interp, regex, gc],
        ScriptNode::Seq(vec![
            ScriptNode::run(0, 300 * M),
            ScriptNode::run(1, 60 * M),
            ScriptNode::run(0, 120 * M),
            ScriptNode::run(2, 10 * M),
        ]),
    )
}

/// `perl/splitmail`: interpreter phases that run the same code over two
/// very different mailbox footprints — the second benchmark the paper
/// calls out as benefiting from dynamic threshold tightening.
fn perl_splitmail() -> Benchmark {
    let interp_small = Region::loop_nest(
        "interp-small",
        0x0040_0000,
        12,
        180,
        StreamSpec::Random {
            working_set: 192 * 1024,
        },
    )
    .with_branch_noise(0.15);
    let interp_large = variant_of(
        &interp_small,
        "interp-large",
        1,
        StreamSpec::Random {
            working_set: 6 * 1024 * 1024,
        },
    );
    let regex = Region::loop_nest(
        "regex",
        0x004C_0000,
        6,
        200,
        StreamSpec::Strided {
            stride: 4,
            working_set: 96 * 1024,
        },
    );
    let io = Region::loop_nest(
        "io",
        0x0054_0000,
        3,
        170,
        StreamSpec::Strided {
            stride: 64,
            working_set: 256 * 1024,
        },
    );
    Benchmark::new(
        "perl/s",
        vec![interp_small, interp_large, regex, io],
        ScriptNode::repeat(
            8,
            ScriptNode::Seq(vec![
                ScriptNode::run(0, 60 * M),
                ScriptNode::run_var(2, 5 * M, 10 * M),
                ScriptNode::run(1, 50 * M),
                ScriptNode::run(3, 5 * M),
            ]),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eleven_models_build() {
        let params = WorkloadParams::default();
        for kind in BenchmarkKind::ALL {
            let b = kind.build(&params);
            assert_eq!(b.name, kind.label());
            assert!(!b.regions.is_empty());
            assert!(b.expected_instructions(&params) > 0.0);
        }
    }

    #[test]
    fn labels_match_paper_abbreviations() {
        let labels: Vec<_> = BenchmarkKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec![
                "ammp", "bzip2/g", "bzip2/p", "galgel", "gcc/1", "gcc/s", "gzip/g", "gzip/p",
                "mcf", "perl/d", "perl/s"
            ]
        );
    }

    #[test]
    fn expected_lengths_are_plausible() {
        // Full-scale programs should span hundreds to a few thousand
        // 1M-instruction intervals — comparable in structure to the paper's
        // interval counts.
        let params = WorkloadParams::default();
        for kind in BenchmarkKind::ALL {
            let b = kind.build(&params);
            let intervals = b.expected_instructions(&params) / params.interval_size as f64;
            assert!(
                (300.0..4000.0).contains(&intervals),
                "{}: {intervals:.0} intervals",
                kind.label()
            );
        }
    }

    #[test]
    fn labels_parse_back() {
        for kind in BenchmarkKind::ALL {
            assert_eq!(kind.label().parse::<BenchmarkKind>(), Ok(kind));
        }
        let err = "nonsense".parse::<BenchmarkKind>().unwrap_err();
        assert!(err.to_string().contains("nonsense"));
        assert!(err.to_string().contains("bzip2/g"));
    }

    #[test]
    fn perl_d_is_among_the_shortest() {
        let params = WorkloadParams::default();
        let perl_d = BenchmarkKind::PerlDiffmail
            .build(&params)
            .expected_instructions(&params);
        for kind in [
            BenchmarkKind::Ammp,
            BenchmarkKind::Mcf,
            BenchmarkKind::Gcc166,
        ] {
            assert!(perl_d < kind.build(&params).expected_instructions(&params));
        }
    }

    #[test]
    fn mcf_solver_variants_share_code() {
        let params = WorkloadParams::default();
        let mcf = BenchmarkKind::Mcf.build(&params);
        let small = &mcf.regions[0];
        let large = &mcf.regions[1];
        // All of the small solver's blocks appear in the large variant.
        for b in &small.blocks {
            assert!(large.blocks.contains(b), "shared code block {b:?}");
        }
        assert_ne!(small.stream, large.stream, "different data footprints");
    }

    #[test]
    fn galgel_phases_share_kernel_blocks() {
        let params = WorkloadParams::default();
        let galgel = BenchmarkKind::Galgel.build(&params);
        let shared: Vec<_> = galgel.regions[0].blocks[..5].to_vec();
        for region in &galgel.regions[1..] {
            assert_eq!(&region.blocks[..5], &shared[..], "shared FP kernels");
        }
    }

    #[test]
    fn gcc_scilab_is_choppier_than_166() {
        // gcc/s: more repetitions of shorter runs.
        let params = WorkloadParams::default();
        let g1 = BenchmarkKind::Gcc166.build(&params);
        let gs = BenchmarkKind::GccScilab.build(&params);
        // Average run length estimate = expected instructions / repetitions.
        let avg = |b: &Benchmark, reps: f64| b.expected_instructions(&params) / reps;
        assert!(avg(&gs, 340.0) < avg(&g1, 260.0));
    }
}
