//! Execution trace primitives for phase classification.
//!
//! This crate defines the data that flows between the simulation substrate
//! (`tpcp-uarch`/`tpcp-workloads`) and the phase classification
//! architecture (`tpcp-core`): committed-branch events, fixed-length
//! execution intervals, and basic block vectors (BBVs).
//!
//! The hardware architecture in the paper observes exactly two things about
//! the running program:
//!
//! 1. the program counter of every committed branch, together with the number
//!    of instructions committed since the previous branch
//!    ([`BranchEvent`]), and
//! 2. a per-interval performance metric (cycles per instruction), used only
//!    for *evaluating* classifications and for the adaptive-threshold
//!    feedback ([`IntervalSummary`]).
//!
//! # Example
//!
//! ```
//! use tpcp_trace::{BranchEvent, IntervalCutter, IntervalSource};
//!
//! // A toy "program": alternate between two branches, 100 instructions each,
//! // 2 cycles per instruction.
//! let events = (0..1000u64).map(|i| {
//!     let pc = if i % 2 == 0 { 0x400_000 } else { 0x400_100 };
//!     (BranchEvent::new(pc, 100), 200u64)
//! });
//! let mut source = IntervalCutter::from_iter(10_000, events);
//!
//! let mut n_events = 0usize;
//! let summary = source
//!     .next_interval(&mut |_ev| n_events += 1)
//!     .expect("stream has at least one interval");
//! assert_eq!(n_events, 100);                    // 100 events * 100 insns
//! assert_eq!(summary.instructions, 10_000);
//! assert!((summary.cpi() - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbv;
mod codec;
mod event;
mod frame;
mod index;
mod interval;
mod metrics;
mod recorded;
mod sink;
mod stats;
mod synthetic;

pub use bbv::{Bbv, BbvBuilder, BbvSink, BbvTrace};
pub use codec::{
    decode_trace, encode_trace, encode_trace_with_index, validate_trace, CodecError,
    StreamingDecoder, TRACE_FORMAT,
};
pub use event::BranchEvent;
pub use frame::{wire, FrameDecoder, FrameError, FrameReader, FrameWriter, FRAME_MAX};
pub use index::{IndexError, IntervalCheckpoint, PlannedReplay, ReplayPlan, SkipStats, TraceIndex};
pub use interval::{Frame, IntervalCutter, IntervalSource, IntervalSummary, TimedEvent};
pub use metrics::MetricCounts;
pub use recorded::{RecordedInterval, RecordedTrace, ReplaySource};
pub use sink::{drive, IntervalSink};
pub use stats::TraceStats;
pub use synthetic::{PhaseSpec, SyntheticTrace};
