//! Hierarchical phase scripts: the long-run structure of a benchmark.

use tpcp_uarch::stream::SplitMix64;

/// A node of a benchmark's phase script.
///
/// Scripts compose runs of regions into the hierarchical, repetitive
/// structures real programs exhibit: bzip2's per-input-block
/// sort→mtf→huffman pipeline nested in a file loop, gcc's irregular
/// per-function alternation, gzip's long deflate stretches.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptNode {
    /// Execute region `region` for exactly `instructions` instructions.
    Run {
        /// Region index into the benchmark's region list.
        region: usize,
        /// Duration in instructions.
        instructions: u64,
    },
    /// Execute region `region` for a seeded-uniform duration in
    /// `[min_instructions, max_instructions]`.
    RunVar {
        /// Region index.
        region: usize,
        /// Minimum duration in instructions.
        min_instructions: u64,
        /// Maximum duration in instructions.
        max_instructions: u64,
    },
    /// Execute children in order.
    Seq(Vec<ScriptNode>),
    /// Execute the body `times` times.
    Repeat {
        /// Repetition count.
        times: u64,
        /// The repeated body.
        body: Box<ScriptNode>,
    },
    /// Pick one child at random (seeded) with the given weights, each time
    /// this node is reached.
    Choose(Vec<(ScriptNode, f64)>),
}

impl ScriptNode {
    /// Convenience constructor for [`ScriptNode::Run`].
    pub fn run(region: usize, instructions: u64) -> Self {
        ScriptNode::Run {
            region,
            instructions,
        }
    }

    /// Convenience constructor for [`ScriptNode::RunVar`].
    pub fn run_var(region: usize, min_instructions: u64, max_instructions: u64) -> Self {
        assert!(
            min_instructions <= max_instructions,
            "min duration must not exceed max"
        );
        ScriptNode::RunVar {
            region,
            min_instructions,
            max_instructions,
        }
    }

    /// Convenience constructor for [`ScriptNode::Repeat`].
    pub fn repeat(times: u64, body: ScriptNode) -> Self {
        ScriptNode::Repeat {
            times,
            body: Box::new(body),
        }
    }

    /// Total instructions this script expands to, using the midpoint for
    /// variable runs and the weighted mean for choices (an estimate for
    /// sizing experiments).
    pub fn expected_instructions(&self) -> f64 {
        match self {
            ScriptNode::Run { instructions, .. } => *instructions as f64,
            ScriptNode::RunVar {
                min_instructions,
                max_instructions,
                ..
            } => (*min_instructions + *max_instructions) as f64 / 2.0,
            ScriptNode::Seq(children) => {
                children.iter().map(ScriptNode::expected_instructions).sum()
            }
            ScriptNode::Repeat { times, body } => *times as f64 * body.expected_instructions(),
            ScriptNode::Choose(options) => {
                let total_w: f64 = options.iter().map(|(_, w)| w).sum();
                if total_w <= 0.0 {
                    return 0.0;
                }
                options
                    .iter()
                    .map(|(n, w)| n.expected_instructions() * w / total_w)
                    .sum()
            }
        }
    }

    /// Scales every duration in the script by `factor` (used to produce
    /// reduced-length runs for tests and quick experiments). Durations are
    /// floored at one instruction; repeat counts are preserved.
    pub fn scaled(&self, factor: f64) -> ScriptNode {
        assert!(factor > 0.0, "scale factor must be positive");
        let s = |v: u64| ((v as f64 * factor).round() as u64).max(1);
        match self {
            ScriptNode::Run {
                region,
                instructions,
            } => ScriptNode::Run {
                region: *region,
                instructions: s(*instructions),
            },
            ScriptNode::RunVar {
                region,
                min_instructions,
                max_instructions,
            } => ScriptNode::RunVar {
                region: *region,
                min_instructions: s(*min_instructions),
                max_instructions: s(*max_instructions),
            },
            ScriptNode::Seq(children) => {
                ScriptNode::Seq(children.iter().map(|c| c.scaled(factor)).collect())
            }
            ScriptNode::Repeat { times, body } => ScriptNode::Repeat {
                times: *times,
                body: Box::new(body.scaled(factor)),
            },
            ScriptNode::Choose(options) => ScriptNode::Choose(
                options
                    .iter()
                    .map(|(n, w)| (n.scaled(factor), *w))
                    .collect(),
            ),
        }
    }

    /// Largest region index referenced by the script.
    pub fn max_region(&self) -> usize {
        match self {
            ScriptNode::Run { region, .. } | ScriptNode::RunVar { region, .. } => *region,
            ScriptNode::Seq(children) => children
                .iter()
                .map(ScriptNode::max_region)
                .max()
                .unwrap_or(0),
            ScriptNode::Repeat { body, .. } => body.max_region(),
            ScriptNode::Choose(options) => options
                .iter()
                .map(|(n, _)| n.max_region())
                .max()
                .unwrap_or(0),
        }
    }
}

/// Lazily flattens a [`ScriptNode`] into a stream of `(region,
/// instructions)` runs.
///
/// # Example
///
/// ```
/// use tpcp_workloads::{ScriptIter, ScriptNode};
///
/// let script = ScriptNode::repeat(2, ScriptNode::Seq(vec![
///     ScriptNode::run(0, 100),
///     ScriptNode::run(1, 50),
/// ]));
/// let runs: Vec<_> = ScriptIter::new(&script, 42).collect();
/// assert_eq!(runs, vec![(0, 100), (1, 50), (0, 100), (1, 50)]);
/// ```
#[derive(Debug, Clone)]
pub struct ScriptIter<'a> {
    stack: Vec<Frame<'a>>,
    rng: SplitMix64,
}

#[derive(Debug, Clone)]
enum Frame<'a> {
    Node(&'a ScriptNode),
    RepeatRest {
        remaining: u64,
        body: &'a ScriptNode,
    },
}

impl<'a> ScriptIter<'a> {
    /// Creates an iterator over `script` with the given seed driving
    /// `RunVar` durations and `Choose` selections.
    pub fn new(script: &'a ScriptNode, seed: u64) -> Self {
        Self {
            stack: vec![Frame::Node(script)],
            rng: SplitMix64::new(seed),
        }
    }
}

impl Iterator for ScriptIter<'_> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(frame) = self.stack.pop() {
            match frame {
                Frame::Node(node) => match node {
                    ScriptNode::Run {
                        region,
                        instructions,
                    } => return Some((*region, *instructions)),
                    ScriptNode::RunVar {
                        region,
                        min_instructions,
                        max_instructions,
                    } => {
                        let span = max_instructions - min_instructions;
                        let len = min_instructions
                            + if span == 0 {
                                0
                            } else {
                                self.rng.below(span + 1)
                            };
                        return Some((*region, len));
                    }
                    ScriptNode::Seq(children) => {
                        for child in children.iter().rev() {
                            self.stack.push(Frame::Node(child));
                        }
                    }
                    ScriptNode::Repeat { times, body } => {
                        if *times > 0 {
                            self.stack.push(Frame::RepeatRest {
                                remaining: times - 1,
                                body,
                            });
                            self.stack.push(Frame::Node(body));
                        }
                    }
                    ScriptNode::Choose(options) => {
                        if !options.is_empty() {
                            let total: f64 = options.iter().map(|(_, w)| w).sum();
                            let mut pick = self.rng.unit_f64() * total;
                            let mut chosen = &options[options.len() - 1].0;
                            for (node, w) in options {
                                if pick < *w {
                                    chosen = node;
                                    break;
                                }
                                pick -= w;
                            }
                            self.stack.push(Frame::Node(chosen));
                        }
                    }
                },
                Frame::RepeatRest { remaining, body } => {
                    if remaining > 0 {
                        self.stack.push(Frame::RepeatRest {
                            remaining: remaining - 1,
                            body,
                        });
                        self.stack.push(Frame::Node(body));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_preserves_order() {
        let script = ScriptNode::Seq(vec![
            ScriptNode::run(0, 10),
            ScriptNode::run(1, 20),
            ScriptNode::run(2, 30),
        ]);
        let runs: Vec<_> = ScriptIter::new(&script, 0).collect();
        assert_eq!(runs, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn nested_repeat_expands_fully() {
        let script = ScriptNode::repeat(
            3,
            ScriptNode::Seq(vec![
                ScriptNode::run(0, 1),
                ScriptNode::repeat(2, ScriptNode::run(1, 2)),
            ]),
        );
        let runs: Vec<_> = ScriptIter::new(&script, 0).collect();
        assert_eq!(runs.len(), 9);
        assert_eq!(runs[0], (0, 1));
        assert_eq!(runs[1], (1, 2));
        assert_eq!(runs[2], (1, 2));
        assert_eq!(runs[3], (0, 1));
    }

    #[test]
    fn run_var_stays_in_bounds_and_is_seeded() {
        let script = ScriptNode::repeat(50, ScriptNode::run_var(0, 10, 20));
        let a: Vec<_> = ScriptIter::new(&script, 7).collect();
        let b: Vec<_> = ScriptIter::new(&script, 7).collect();
        assert_eq!(a, b, "same seed, same durations");
        assert!(a.iter().all(|&(_, n)| (10..=20).contains(&n)));
        let distinct: std::collections::BTreeSet<u64> = a.iter().map(|&(_, n)| n).collect();
        assert!(distinct.len() > 3, "durations vary");
    }

    #[test]
    fn choose_respects_weights() {
        let script = ScriptNode::repeat(
            1000,
            ScriptNode::Choose(vec![
                (ScriptNode::run(0, 1), 0.9),
                (ScriptNode::run(1, 1), 0.1),
            ]),
        );
        let runs: Vec<_> = ScriptIter::new(&script, 3).collect();
        let zeros = runs.iter().filter(|&&(r, _)| r == 0).count();
        assert!((800..=980).contains(&zeros), "got {zeros} zeros");
    }

    #[test]
    fn expected_instructions_estimates() {
        let script = ScriptNode::repeat(
            10,
            ScriptNode::Seq(vec![
                ScriptNode::run(0, 100),
                ScriptNode::run_var(1, 0, 100),
            ]),
        );
        assert!((script.expected_instructions() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_shrinks_durations_not_structure() {
        let script = ScriptNode::repeat(4, ScriptNode::run(0, 1000));
        let scaled = script.scaled(0.1);
        let runs: Vec<_> = ScriptIter::new(&scaled, 0).collect();
        assert_eq!(runs, vec![(0, 100); 4]);
    }

    #[test]
    fn scaled_floors_at_one_instruction() {
        let script = ScriptNode::run(0, 5);
        if let ScriptNode::Run { instructions, .. } = script.scaled(0.0001) {
            assert_eq!(instructions, 1);
        } else {
            panic!("scaling preserves node type");
        }
    }

    #[test]
    fn max_region_finds_deepest_reference() {
        let script = ScriptNode::Seq(vec![
            ScriptNode::run(1, 1),
            ScriptNode::repeat(2, ScriptNode::Choose(vec![(ScriptNode::run(7, 1), 1.0)])),
        ]);
        assert_eq!(script.max_region(), 7);
    }
}
