//! `tpcp-serve`: a robust online phase-classification service.
//!
//! The crate wraps the workspace's [`PhaseClassifier`](tpcp_core) and
//! predictors in a long-running server that speaks length-prefixed
//! frames of the varint codec over TCP and Unix sockets. Each client
//! session owns its own classifier (any extractor back-end) and can ask
//! for the current phase, the predicted next phase, and the predicted
//! run-length class, with a confidence flag on each answer.
//!
//! Robustness is the design driver, not an afterthought:
//!
//! - **Scalability** — each of a small pool of workers runs its own
//!   `poll(2)` readiness loop over the connections it accepts
//!   ([`server`]), so a fleet of N clients costs N fds rather than N
//!   threads.
//! - **Sharding** — session state lives in a [`ShardedStore`]: the
//!   session id hashes to one of `shards` independently locked
//!   [`SessionStore`]s, each a bounded LRU with its own parked tier, so
//!   unrelated sessions never contend on one mutex.
//! - **Deadlines** — every connection has a read deadline and an idle
//!   timeout; a stalled or silent peer is disconnected without touching
//!   its siblings, and each listener retries failed accepts behind its
//!   own exponential-backoff gate (a failing TCP listener never stalls
//!   the Unix listener, or vice versa).
//! - **Backpressure** — responses flow through a bounded per-connection
//!   queue, so one slow reader blocks only its own session.
//! - **Eviction** — under pressure the coldest session in a shard is
//!   parked as a `TPCPSNP2` snapshot and restored bit-identically on its
//!   next frame.
//! - **Malformed-frame tolerance** — every decode error maps to a
//!   structured error response, and an `EndInterval` carrying a
//!   non-finite or negative CPI is rejected without touching session
//!   state; the connection survives everything except an unrecoverable
//!   stream offset (oversized frame).
//! - **Observability** — hot paths bump [`ServeCounters`]; snapshots
//!   freeze periodically while running (when a telemetry interval is
//!   configured) and finally at drain, including per-shard occupancy.
//! - **Graceful drain** — on request (SIGTERM in the binary) the server
//!   stops accepting, lets in-flight sessions finish against a deadline,
//!   and freezes a final [`ServeTelemetry`] snapshot.
//!
//! The [`client`] module doubles as the chaos harness: deterministic
//! per-session scripts plus client-side transport faults (truncated
//! frames, garbage prefixes, mid-frame stalls, disconnects) from the
//! `fault-inject` `FaultPlan`,
//! used to pin survivor sessions bit-identical to a fault-free run.

#![deny(unsafe_code)] // one audited FFI call in `poll`; everything else forbidden
#![warn(missing_docs)]

pub mod client;
pub mod poll;
mod pool;
pub mod protocol;
pub mod server;
pub mod session;
pub mod telemetry;

pub use client::{
    drive_fleet, drive_sessions, run_session, FleetRun, FleetScript, SessionScript, Transcript,
    TransportAction,
};
pub use protocol::{
    decode_request_into, DecodeFailure, ErrorCode, FastRequest, QueryKind, Request, Response,
    WireEvent, WireExtractor,
};
pub use server::{AcceptFaults, ServeConfig, Server, ServerHandle};
pub use session::{Session, SessionStore, ShardedStore, StoreCounters, StoreError};
pub use telemetry::{ServeCounters, ServeTelemetry};
