//! Online phase classification (the paper's Sections 4.1–4.6).
//!
//! This crate implements the dynamic phase classification architecture of
//! Sherwood et al. (ISCA'03) together with every improvement introduced by
//! *Lau, Schoenmackers, Calder, "Transition Phase Classification and
//! Prediction" (HPCA 2005)*:
//!
//! - an [`AccumulatorTable`] of saturating counters indexed by a hash of
//!   each committed branch PC, incremented by the dynamic basic block's
//!   instruction count (Section 4.1, steps 1–2);
//! - [`Signature`] formation with *dynamic bit selection* — the bits copied
//!   out of each 24-bit accumulator are chosen from the current average
//!   counter value, keeping two bits of headroom and saturating when a
//!   counter exceeds the representable range (Section 4.2);
//! - a [`SignatureTable`] with LRU replacement, Manhattan-distance
//!   similarity search, and *best-match* (not first-match) selection
//!   (Sections 4.1 step 3 and 4.3);
//! - the **transition phase**: a per-entry Min Counter classifies
//!   rarely-seen signatures into a single shared phase ID
//!   ([`PhaseId::TRANSITION`]) until they prove stable (Section 4.4);
//! - **adaptive per-phase similarity thresholds**, tightened when the CPI
//!   of intervals classified into a phase deviates from the phase's running
//!   average by more than a performance deviation threshold (Section 4.6).
//!
//! # Example
//!
//! ```
//! use tpcp_core::{ClassifierConfig, PhaseClassifier};
//! use tpcp_trace::BranchEvent;
//!
//! let mut classifier = PhaseClassifier::new(ClassifierConfig::hpca2005());
//!
//! // Phase A: loop over one set of branches. Classify 12 identical
//! // intervals; after the min-count threshold (8) the phase becomes stable.
//! let mut last = None;
//! for _ in 0..12 {
//!     for i in 0..100u64 {
//!         classifier.observe(BranchEvent::new(0x1000 + (i % 4) * 0x40, 25));
//!     }
//!     last = Some(classifier.end_interval(1.0));
//! }
//! let id = last.unwrap();
//! assert!(!id.is_transition(), "a recurring signature earns a real phase ID");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
mod classifier;
mod config;
mod cost;
mod extractor;
mod observer;
mod phase_id;
mod signature;
mod snapshot;
mod table;

pub use accumulator::AccumulatorTable;
pub use classifier::{Classification, PhaseClassifier};
pub use config::{AdaptiveConfig, BitSelectionMode, ClassifierConfig, ClassifierConfigBuilder};
pub use cost::HardwareCost;
pub use extractor::{
    AnyExtractor, BbvExtractor, BranchMixExtractor, ExtractorKind, FeatureExtractor,
    WorkingSetExtractor, REGION_BYTES,
};
pub use observer::PhaseObserver;
pub use phase_id::PhaseId;

// Re-exported so observer implementors downstream (predictors, metrics)
// can name the interval types without depending on `tpcp-trace` directly.
pub use signature::{BitSelection, Signature};
pub use snapshot::SnapshotError;
pub use table::{MatchOutcome, SignatureTable, TableEntry};
pub use tpcp_trace::{BranchEvent, IntervalSummary, MetricCounts};
