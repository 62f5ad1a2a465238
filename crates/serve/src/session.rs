//! Per-session classifier state with a bounded live set, LRU eviction to
//! snapshots, and deterministic re-admission.
//!
//! Each session owns a [`PhaseClassifier`] plus a next-phase and a
//! run-length predictor. The store keeps at most `max_live` sessions
//! materialized; the least-recently-used session beyond that is *parked*:
//! its classifier is serialized to the `TPCPSNP2` snapshot format (a few
//! hundred bytes instead of a full accumulator + signature table) and its
//! predictors — already small — move aside as-is. Touching a parked
//! session restores the classifier from its snapshot, which is
//! bit-identical by the core crate's snapshot guarantee, so an evicted
//! session's future classifications match a never-evicted twin exactly.
//!
//! The parked set is bounded too (`max_parked`): beyond it the oldest
//! parked session is dropped and counted — the one deliberately lossy
//! edge of the memory-pressure ladder, visible in telemetry rather than
//! as an OOM.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use tpcp_core::{BranchEvent, ClassifierConfig, PhaseClassifier, PhaseId, SnapshotError};
use tpcp_predict::{LengthClassPredictor, NextPhasePredictor, PredictorKind};

use crate::protocol::{QueryKind, WireExtractor};

/// A live session: materialized classifier plus predictors.
#[derive(Debug)]
pub struct Session {
    classifier: PhaseClassifier,
    next: NextPhasePredictor,
    length: LengthClassPredictor,
    last_phase: Option<PhaseId>,
    intervals: u64,
    stamp: u64,
}

/// One classified interval, as reported to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classified {
    /// The phase id the interval landed in.
    pub phase: u64,
    /// Whether that is the transition phase.
    pub transition: bool,
    /// Total intervals this session has classified.
    pub intervals: u64,
}

impl Session {
    fn new(extractor: WireExtractor) -> Self {
        Self {
            classifier: PhaseClassifier::new(
                ClassifierConfig::builder()
                    .extractor(extractor.kind())
                    .build(),
            ),
            next: NextPhasePredictor::new(PredictorKind::rle(2)),
            length: LengthClassPredictor::new(32, 4),
            last_phase: None,
            intervals: 0,
            stamp: 0,
        }
    }

    /// Feeds events into the current interval.
    pub fn observe(&mut self, events: impl IntoIterator<Item = BranchEvent>) {
        for ev in events {
            self.classifier.observe(ev);
        }
    }

    /// Feeds one decoded frame's event batch into the current interval —
    /// the serve hot path: one call per frame, no per-event dispatch
    /// through the store.
    pub fn observe_batch(&mut self, events: &[BranchEvent]) {
        for &ev in events {
            self.classifier.observe(ev);
        }
    }

    /// Closes the current interval, feeding the phase into both
    /// predictors.
    pub fn end_interval(&mut self, cpi: f64) -> Classified {
        let result = self.classifier.end_interval_detailed(cpi);
        self.next.observe(result.phase_id);
        self.length.observe(result.phase_id);
        self.last_phase = Some(result.phase_id);
        self.intervals += 1;
        Classified {
            phase: u64::from(result.phase_id.value()),
            transition: result.phase_id.is_transition(),
            intervals: self.intervals,
        }
    }

    /// Answers a query: `(value, confident)` or `None` when the session
    /// has no answer yet.
    pub fn query(&self, kind: QueryKind) -> Option<(u64, bool)> {
        match kind {
            QueryKind::Phase => self.last_phase.map(|id| (u64::from(id.value()), true)),
            QueryKind::NextPhase => self
                .next
                .current_prediction()
                .map(|(id, confident)| (u64::from(id.value()), confident)),
            QueryKind::RunLength => self
                .length
                .current_prediction()
                .map(|class| (class as u64, true)),
        }
    }
}

/// A parked (evicted) session: the classifier as snapshot bytes, the
/// predictors moved aside intact.
#[derive(Debug)]
struct ParkedSession {
    snapshot: Vec<u8>,
    next: NextPhasePredictor,
    length: LengthClassPredictor,
    last_phase: Option<PhaseId>,
    intervals: u64,
    stamp: u64,
}

/// Counters the store bumps; folded into serve telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Sessions created by `Hello`.
    pub created: u64,
    /// Live sessions evicted (snapshotted and parked).
    pub evictions: u64,
    /// Parked sessions restored back to live.
    pub restores: u64,
    /// Parked sessions dropped because the parked set overflowed.
    pub parked_drops: u64,
    /// Sessions retired by `Close`.
    pub closed: u64,
}

/// Errors the store reports to the protocol layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The session id is neither live nor parked.
    UnknownSession,
    /// A `Hello` re-used an id that is still live or parked.
    SessionExists,
    /// A parked snapshot failed to restore. Unreachable for snapshots the
    /// store wrote itself; kept as an error so a future bug degrades one
    /// session instead of the process.
    Restore(SnapshotError),
}

/// Bounded two-tier session table: `max_live` materialized sessions with
/// LRU eviction into at most `max_parked` snapshots.
#[derive(Debug)]
pub struct SessionStore {
    live: HashMap<u64, Session>,
    parked: HashMap<u64, ParkedSession>,
    max_live: usize,
    max_parked: usize,
    clock: u64,
    counters: StoreCounters,
}

impl SessionStore {
    /// An empty store bounded to `max_live` materialized sessions and
    /// `max_parked` parked snapshots (both clamped to at least 1).
    pub fn new(max_live: usize, max_parked: usize) -> Self {
        Self {
            live: HashMap::new(),
            parked: HashMap::new(),
            max_live: max_live.max(1),
            max_parked: max_parked.max(1),
            clock: 0,
            counters: StoreCounters::default(),
        }
    }

    /// The store's counters so far.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Live and parked session counts.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.live.len(), self.parked.len())
    }

    /// Creates a session, evicting the LRU live session if the live set
    /// is full.
    pub fn open(&mut self, id: u64, extractor: WireExtractor) -> Result<(), StoreError> {
        if self.live.contains_key(&id) || self.parked.contains_key(&id) {
            return Err(StoreError::SessionExists);
        }
        self.make_room();
        let mut session = Session::new(extractor);
        self.clock += 1;
        session.stamp = self.clock;
        self.live.insert(id, session);
        self.counters.created += 1;
        Ok(())
    }

    /// Retires a session (live or parked).
    pub fn close(&mut self, id: u64) -> Result<(), StoreError> {
        if self.live.remove(&id).is_some() || self.parked.remove(&id).is_some() {
            self.counters.closed += 1;
            Ok(())
        } else {
            Err(StoreError::UnknownSession)
        }
    }

    /// Looks up a session for work, restoring it from its parked
    /// snapshot if it was evicted, and refreshing its LRU stamp.
    pub fn touch(&mut self, id: u64) -> Result<&mut Session, StoreError> {
        if !self.live.contains_key(&id) {
            let parked = self.parked.remove(&id).ok_or(StoreError::UnknownSession)?;
            let classifier = match PhaseClassifier::from_snapshot(&parked.snapshot) {
                Ok(c) => c,
                Err(e) => return Err(StoreError::Restore(e)),
            };
            self.make_room();
            self.live.insert(
                id,
                Session {
                    classifier,
                    next: parked.next,
                    length: parked.length,
                    last_phase: parked.last_phase,
                    intervals: parked.intervals,
                    stamp: parked.stamp,
                },
            );
            self.counters.restores += 1;
        }
        self.clock += 1;
        let clock = self.clock;
        // The entry is present: either it was live above, or the parked
        // branch just inserted it.
        #[allow(clippy::expect_used)]
        let session = self.live.get_mut(&id).expect("session inserted above");
        session.stamp = clock;
        Ok(session)
    }

    /// Evicts the LRU live session into the parked set if the live set is
    /// at capacity, dropping the oldest parked session if *that* set is at
    /// capacity — bounded memory at every tier.
    fn make_room(&mut self) {
        while self.live.len() >= self.max_live {
            let Some(victim) = self
                .live
                .iter()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(&id, _)| id)
            else {
                return;
            };
            // Present by construction: `victim` came out of the map.
            #[allow(clippy::expect_used)]
            let session = self.live.remove(&victim).expect("victim is live");
            while self.parked.len() >= self.max_parked {
                let Some(oldest) = self
                    .parked
                    .iter()
                    .min_by_key(|(_, p)| p.stamp)
                    .map(|(&id, _)| id)
                else {
                    break;
                };
                self.parked.remove(&oldest);
                self.counters.parked_drops += 1;
            }
            self.parked.insert(
                victim,
                ParkedSession {
                    snapshot: session.classifier.snapshot(),
                    next: session.next,
                    length: session.length,
                    last_phase: session.last_phase,
                    intervals: session.intervals,
                    stamp: session.stamp,
                },
            );
            self.counters.evictions += 1;
        }
    }
}

/// [`SessionStore`] sharded by session-id hash: each shard is an
/// independently locked two-tier LRU, so sessions that hash to different
/// shards never contend on a lock and never share an eviction clock.
///
/// Sharding changes *which* sessions are evicted under pressure (each
/// shard runs its own LRU over roughly `1/shards` of the capacity) but
/// never *what* an evicted session computes: eviction goes through the
/// same `TPCPSNP2` snapshot, so a session's classifications are
/// bit-identical under any shard count — pinned by the shard-equivalence
/// test against the single-lock store.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Mutex<SessionStore>>,
}

impl ShardedStore {
    /// A sharded store with `shards` shards (clamped to at least 1)
    /// splitting `max_live` / `max_parked` capacity evenly, rounding up
    /// so total capacity never shrinks below the configured bounds.
    pub fn new(shards: usize, max_live: usize, max_parked: usize) -> Self {
        let shards = shards.max(1);
        let live_per = max_live.div_ceil(shards).max(1);
        let parked_per = max_parked.div_ceil(shards).max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(SessionStore::new(live_per, parked_per)))
                .collect(),
        }
    }

    /// How many shards this store runs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `session` lives in.
    pub fn shard_index(&self, session: u64) -> usize {
        // splitmix64 finalizer: session ids are often sequential, and a
        // plain modulo would put ids 0..k in the first k shards.
        let mut z = session.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % self.shards.len() as u64) as usize
    }

    /// Locks the shard owning `session`. All store operations for the
    /// session run under this one mutex.
    pub fn lock(&self, session: u64) -> MutexGuard<'_, SessionStore> {
        lock_ignore_poison(&self.shards[self.shard_index(session)])
    }

    /// Store counters summed across shards.
    pub fn counters(&self) -> StoreCounters {
        let mut total = StoreCounters::default();
        for shard in &self.shards {
            let c = lock_ignore_poison(shard).counters();
            total.created += c.created;
            total.evictions += c.evictions;
            total.restores += c.restores;
            total.parked_drops += c.parked_drops;
            total.closed += c.closed;
        }
        total
    }

    /// `(live, parked)` occupancy per shard, in shard order.
    pub fn occupancy(&self) -> Vec<(usize, usize)> {
        self.shards
            .iter()
            .map(|s| lock_ignore_poison(s).occupancy())
            .collect()
    }
}

/// Locks `m`, recovering the guard if a panic poisoned it. The worker
/// that panicked drops only its own connection; the shard (or job queue)
/// it held stays in service for every other connection, since a map or
/// channel left mid-request is still well-formed.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_intervals(session: &mut Session, seed: u64, intervals: u64) -> Vec<Classified> {
        let mut out = Vec::new();
        for i in 0..intervals {
            let base = 0x1000 + (seed.wrapping_add(i) % 5) * 0x11_0000;
            session.observe((0..16).map(|j| BranchEvent::new(base + j * 0x40, 30)));
            out.push(session.end_interval(1.0 + ((seed + i) % 7) as f64 * 0.25));
        }
        out
    }

    /// Satellite: evict → snapshot → re-admit must be bit-identical to a
    /// never-evicted session, for every extractor back-end.
    #[test]
    fn evicted_and_readmitted_session_matches_unevicted_twin() {
        for extractor in WireExtractor::ALL {
            // Store A: session 1 never evicted (big live set).
            let mut a = SessionStore::new(8, 8);
            // Store B: session 1 evicted by filling a 1-slot live set.
            let mut b = SessionStore::new(1, 8);
            a.open(1, extractor).unwrap();
            b.open(1, extractor).unwrap();

            let warm_a = drive_intervals(a.touch(1).unwrap(), 3, 10);
            let warm_b = drive_intervals(b.touch(1).unwrap(), 3, 10);
            assert_eq!(warm_a, warm_b);

            // Evict session 1 from B by opening session 2.
            b.open(2, extractor).unwrap();
            assert_eq!(b.counters().evictions, 1, "{extractor:?}");
            assert_eq!(b.occupancy(), (1, 1));

            // Touch re-admits deterministically; subsequent streams and
            // queries must match the unevicted twin exactly.
            let cold = drive_intervals(b.touch(1).unwrap(), 11, 20);
            assert_eq!(b.counters().restores, 1);
            let warm = drive_intervals(a.touch(1).unwrap(), 11, 20);
            assert_eq!(warm, cold, "{extractor:?} diverged after re-admission");
            for kind in QueryKind::ALL {
                assert_eq!(
                    a.touch(1).unwrap().query(kind),
                    b.touch(1).unwrap().query(kind),
                    "{extractor:?} {kind:?} query diverged"
                );
            }
        }
    }

    #[test]
    fn parked_overflow_drops_oldest_and_counts_it() {
        let mut store = SessionStore::new(1, 2);
        for id in 1..=4 {
            store.open(id, WireExtractor::Bbv).unwrap();
        }
        // Live holds 4; parked held 1,2 then dropped 1 to park 3.
        assert_eq!(store.counters().evictions, 3);
        assert_eq!(store.counters().parked_drops, 1);
        assert_eq!(store.occupancy(), (1, 2));
        assert!(matches!(store.touch(1), Err(StoreError::UnknownSession)));
        assert!(store.touch(2).is_ok());
    }

    #[test]
    fn duplicate_open_and_unknown_close_are_structured_errors() {
        let mut store = SessionStore::new(4, 4);
        store.open(1, WireExtractor::Bbv).unwrap();
        assert!(matches!(
            store.open(1, WireExtractor::Bbv),
            Err(StoreError::SessionExists)
        ));
        assert!(matches!(store.close(9), Err(StoreError::UnknownSession)));
        store.close(1).unwrap();
        assert!(matches!(store.touch(1), Err(StoreError::UnknownSession)));
    }

    /// Satellite: the sharded store must be bit-identical to the
    /// single-lock store for every session's outputs, across all three
    /// extractors, while both stores churn through evictions.
    #[test]
    fn sharded_store_matches_single_lock_store_under_eviction_churn() {
        const SESSIONS: u64 = 12;
        const ROUNDS: u64 = 6;
        // Live capacity small enough that both stores evict constantly;
        // parked capacity large enough that nothing is dropped (a
        // dropped session is gone, not comparable).
        let sharded = ShardedStore::new(4, 4, 64);
        let mut single = SessionStore::new(4, 64);
        for id in 1..=SESSIONS {
            let extractor = WireExtractor::ALL[(id % 3) as usize];
            sharded.lock(id).open(id, extractor).unwrap();
            single.open(id, extractor).unwrap();
        }
        for round in 0..ROUNDS {
            for id in 1..=SESSIONS {
                // Interleave sessions so LRU order differs between the
                // sharded and single stores — outputs must not care.
                let seed = id.wrapping_mul(41) + round;
                let base = 0x2000 + (seed % 5) * 0x21_0000;
                let events: Vec<BranchEvent> = (0..16)
                    .map(|j| BranchEvent::new(base + j * 0x40, 25))
                    .collect();
                let cpi = 0.9 + ((seed % 9) as f64) * 0.3;
                let from_sharded = {
                    let mut shard = sharded.lock(id);
                    let live = shard.touch(id).unwrap();
                    live.observe_batch(&events);
                    live.end_interval(cpi)
                };
                let from_single = {
                    let live = single.touch(id).unwrap();
                    live.observe(events.iter().copied());
                    live.end_interval(cpi)
                };
                assert_eq!(
                    from_sharded, from_single,
                    "session {id} round {round} diverged"
                );
                for kind in QueryKind::ALL {
                    let a = sharded.lock(id).touch(id).unwrap().query(kind);
                    let b = single.touch(id).unwrap().query(kind);
                    assert_eq!(a, b, "session {id} round {round} {kind:?} diverged");
                }
            }
        }
        let totals = sharded.counters();
        assert!(totals.evictions > 0, "sharded store never evicted");
        assert!(
            single.counters().evictions > 0,
            "single store never evicted"
        );
        assert_eq!(totals.created, SESSIONS);
        // Shard capacity splits evenly and every shard stays bounded.
        for (live, parked) in sharded.occupancy() {
            assert!(live <= 1, "per-shard live cap exceeded: {live}");
            assert!(parked <= 16, "per-shard parked cap exceeded: {parked}");
        }
        assert_eq!(totals.parked_drops, 0, "a comparison session was dropped");
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let store = ShardedStore::new(8, 64, 64);
        for id in 0..1024u64 {
            let idx = store.shard_index(id);
            assert!(idx < 8);
            assert_eq!(idx, store.shard_index(id), "shard index must be stable");
        }
        // The hash must actually spread sequential ids.
        let hit: std::collections::HashSet<usize> =
            (0..1024u64).map(|id| store.shard_index(id)).collect();
        assert_eq!(hit.len(), 8, "sequential ids landed in only {hit:?}");
    }

    #[test]
    fn sharded_store_with_one_shard_keeps_full_capacity() {
        let store = ShardedStore::new(1, 3, 3);
        for id in 1..=3 {
            store.lock(id).open(id, WireExtractor::Bbv).unwrap();
        }
        assert_eq!(store.counters().evictions, 0);
        assert_eq!(store.occupancy(), vec![(3, 0)]);
    }

    #[test]
    fn close_reaches_parked_sessions_too() {
        let mut store = SessionStore::new(1, 4);
        store.open(1, WireExtractor::Bbv).unwrap();
        store.open(2, WireExtractor::Bbv).unwrap();
        assert_eq!(store.occupancy(), (1, 1));
        store.close(1).unwrap();
        assert_eq!(store.occupancy(), (1, 0));
    }
}
