//! Per-trace interval index: the seek substrate for sampled replay.
//!
//! An encoded trace ([`encode_trace`](crate::encode_trace)) is a purely
//! sequential format — variable-length frames mean interval *i*'s byte
//! position depends on every frame before it. That is fine for full
//! replay, but a sampled replay that wants intervals `{17, 903, 2044}`
//! should not have to decode the 2041 intervals it is skipping.
//!
//! [`TraceIndex`] fixes that with one checkpoint per interval *boundary*
//! (`n_intervals + 1` of them): the byte offset where the interval's frame
//! starts, plus running event / instruction / cycle totals up to that
//! boundary. Because every interval frame carries its own pair table and
//! restarts its PC deltas, a frame boundary is a self-contained decode
//! entry point — [`StreamingDecoder::seek_to_interval`] just moves the
//! cursor and resumes zero-copy decode, bit-identical to having streamed
//! there.
//!
//! The running totals make the index useful beyond seeking: whole-run and
//! per-interval CPI fall out of checkpoint differences without touching
//! the payload, which is what the stratified replay planner feeds on.
//!
//! The index is written as a *versioned sidecar* (magic `TPCPIDX1`) next
//! to the cached payload. A sidecar is only trusted after
//! [`TraceIndex::validate`] ties it to the exact payload bytes via length
//! and checksum; anything structurally off decodes to
//! [`IndexError::CorruptIndex`] — never a panic — so a torn write or a
//! flipped byte degrades to a cache re-simulation, not a crash.
//!
//! Sidecar format (all integers little-endian):
//!
//! ```text
//! magic  b"TPCPIDX1"                      8 bytes
//! payload_len: u64
//! payload_checksum: u64
//! n_intervals: u64
//! per boundary i in 0..=n_intervals:
//!   byte_offset: u64   // start of interval i's frame; end of payload for i == n
//!   events: u64        // events decoded before this boundary
//!   instructions: u64  // instructions committed before this boundary
//!   cycles: u64        // cycles charged before this boundary
//! index_checksum: u64  // over every byte after the magic, trailer excluded
//! ```
//!
//! The trailing self-checksum means a byte flip *anywhere* in the sidecar
//! surfaces as [`IndexError::CorruptIndex`] at decode time; the payload
//! checksum in the header ties an intact sidecar to its exact payload
//! bytes.

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{CodecError, StreamingDecoder};
use crate::event::BranchEvent;
use crate::interval::{Frame, IntervalSource, IntervalSummary};

pub(crate) const INDEX_MAGIC: &[u8; 8] = b"TPCPIDX1";
/// magic + payload_len + payload_checksum + n_intervals.
const INDEX_HEADER_BYTES: usize = 8 + 8 + 8 + 8;
/// Fixed encoded size of one [`IntervalCheckpoint`].
const CHECKPOINT_BYTES: usize = 32;
/// Byte offset of the first interval frame in an encoded trace payload
/// (trace magic + interval count).
const PAYLOAD_HEADER_BYTES: u64 = 16;

/// Errors produced when decoding, validating, or seeking with an interval
/// index sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The sidecar bytes are not a well-formed index: wrong magic,
    /// truncated, trailing garbage, or internally inconsistent
    /// checkpoints. The payload may still be fine — rebuild the index
    /// from it, or quarantine both if provenance is in doubt.
    CorruptIndex,
    /// The sidecar is well-formed but does not describe this payload
    /// (length, checksum, or interval count disagree).
    PayloadMismatch,
    /// A seek or plan referenced an interval beyond the end of the trace.
    SeekOutOfRange,
}

impl core::fmt::Display for IndexError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IndexError::CorruptIndex => write!(f, "interval index sidecar is corrupt"),
            IndexError::PayloadMismatch => {
                write!(f, "interval index does not match the trace payload")
            }
            IndexError::SeekOutOfRange => {
                write!(f, "seek target is beyond the end of the trace")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// Checksum tying a sidecar to its payload bytes: an FNV-style mix over
/// 8-byte words (fast enough to be cheaper than re-walking every frame,
/// which is the point of having a sidecar at all), folded with the length
/// so truncation to a word boundary still changes the digest.
pub(crate) fn payload_checksum(buf: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = buf.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ buf.len() as u64
}

/// Running totals at one interval boundary. Checkpoint `i` describes the
/// state *before* interval `i` decodes; checkpoint `n_intervals` is the
/// end-of-trace total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalCheckpoint {
    /// Byte offset of interval `i`'s frame in the payload (end of the last
    /// frame for the final checkpoint).
    pub byte_offset: u64,
    /// Branch events decoded before this boundary.
    pub events: u64,
    /// Instructions committed before this boundary.
    pub instructions: u64,
    /// Cycles charged before this boundary.
    pub cycles: u64,
}

/// A per-trace interval index: byte offsets and running CPI-metric totals
/// at every interval boundary, persisted as a versioned sidecar.
///
/// Built once per trace (during encode, or by re-walking a payload) and
/// validated against the exact payload bytes before any seek trusts it.
///
/// # Example
///
/// ```
/// use tpcp_trace::{encode_trace_with_index, RecordedTrace, TraceIndex};
/// # use tpcp_trace::{BranchEvent, IntervalCutter};
///
/// # let events = (0..40u64).map(|i| (BranchEvent::new(i % 2, 10), 10u64));
/// # let trace = RecordedTrace::record(IntervalCutter::from_iter(100, events));
/// let (payload, index) = encode_trace_with_index(&trace);
/// index.validate(&payload)?;
/// let reloaded = TraceIndex::decode(&index.encode())?;
/// assert_eq!(index, reloaded);
/// # Ok::<(), tpcp_trace::IndexError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceIndex {
    pub(crate) payload_len: u64,
    pub(crate) payload_checksum: u64,
    /// `n_intervals + 1` entries; entry `i` is the boundary before
    /// interval `i`.
    pub(crate) checkpoints: Vec<IntervalCheckpoint>,
}

impl TraceIndex {
    /// Builds the index by streaming over an encoded trace payload.
    ///
    /// This walks every frame, so it doubles as full payload validation:
    /// a buffer this accepts is exactly a buffer
    /// [`validate_trace`](crate::validate_trace) accepts.
    ///
    /// # Errors
    ///
    /// Returns the [`CodecError`] of the first malformed frame.
    pub fn build(payload: &[u8]) -> Result<Self, CodecError> {
        let mut decoder = StreamingDecoder::new(payload)?;
        // Bounded by `StreamingDecoder::new`'s plausibility check.
        let mut checkpoints = Vec::with_capacity(decoder.n_intervals() as usize + 1);
        let mut events = 0u64;
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        loop {
            checkpoints.push(IntervalCheckpoint {
                byte_offset: decoder.position() as u64,
                events,
                instructions,
                cycles,
            });
            match decoder.read_frame()? {
                Some((summary, ids)) => {
                    events += ids.len() as u64;
                    instructions += summary.instructions;
                    cycles += summary.cycles;
                }
                None => break,
            }
        }
        Ok(Self {
            payload_len: payload.len() as u64,
            payload_checksum: payload_checksum(payload),
            checkpoints,
        })
    }

    /// Number of intervals in the indexed trace.
    pub fn n_intervals(&self) -> u64 {
        self.checkpoints.len() as u64 - 1
    }

    /// All `n_intervals + 1` boundary checkpoints.
    pub fn checkpoints(&self) -> &[IntervalCheckpoint] {
        &self.checkpoints
    }

    /// The checkpoint at boundary `i` (`i == n_intervals` is the
    /// end-of-trace total), or `None` past that.
    pub fn checkpoint(&self, i: u64) -> Option<&IntervalCheckpoint> {
        usize::try_from(i)
            .ok()
            .and_then(|i| self.checkpoints.get(i))
    }

    /// Length of the payload this index describes, in bytes.
    pub fn payload_len(&self) -> u64 {
        self.payload_len
    }

    /// Total instructions across the whole trace, straight off the final
    /// checkpoint — no payload access.
    pub fn total_instructions(&self) -> u64 {
        self.checkpoints[self.checkpoints.len() - 1].instructions
    }

    /// Total cycles across the whole trace.
    pub fn total_cycles(&self) -> u64 {
        self.checkpoints[self.checkpoints.len() - 1].cycles
    }

    /// Whole-run cycles per instruction (0.0 for an empty trace), from
    /// checkpoint totals alone.
    pub fn true_cpi(&self) -> f64 {
        let insns = self.total_instructions();
        if insns == 0 {
            0.0
        } else {
            self.total_cycles() as f64 / insns as f64
        }
    }

    /// CPI of interval `i` from adjacent checkpoint differences, without
    /// decoding the payload. `None` past the last interval; `0.0` for an
    /// empty interval.
    pub fn interval_cpi(&self, i: u64) -> Option<f64> {
        let lo = self.checkpoint(i)?;
        let hi = self.checkpoint(i + 1)?;
        let insns = hi.instructions - lo.instructions;
        Some(if insns == 0 {
            0.0
        } else {
            (hi.cycles - lo.cycles) as f64 / insns as f64
        })
    }

    /// Encoded byte length of interval `i`'s frame, or `None` past the
    /// last interval.
    pub fn interval_bytes(&self, i: u64) -> Option<u64> {
        let lo = self.checkpoint(i)?;
        let hi = self.checkpoint(i + 1)?;
        Some(hi.byte_offset - lo.byte_offset)
    }

    /// Serializes the index into its sidecar byte format, self-checksum
    /// trailer included.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(
            INDEX_HEADER_BYTES + self.checkpoints.len() * CHECKPOINT_BYTES + 8,
        );
        buf.put_slice(INDEX_MAGIC);
        buf.put_u64_le(self.payload_len);
        buf.put_u64_le(self.payload_checksum);
        buf.put_u64_le(self.n_intervals());
        for cp in &self.checkpoints {
            buf.put_u64_le(cp.byte_offset);
            buf.put_u64_le(cp.events);
            buf.put_u64_le(cp.instructions);
            buf.put_u64_le(cp.cycles);
        }
        let trailer = payload_checksum(&buf.as_slice()[INDEX_MAGIC.len()..]);
        buf.put_u64_le(trailer);
        buf.freeze()
    }

    /// Deserializes a sidecar buffer, checking structural integrity only
    /// (magic, exact length, monotonic checkpoints). Pair with
    /// [`validate`](Self::validate) before trusting it against a payload.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] for anything malformed —
    /// truncated buffers and flipped bytes are expected inputs here (torn
    /// cache writes), never a reason to panic.
    pub fn decode(buf: &[u8]) -> Result<Self, IndexError> {
        let magic = buf
            .get(..INDEX_MAGIC.len())
            .ok_or(IndexError::CorruptIndex)?;
        if magic != INDEX_MAGIC {
            return Err(IndexError::CorruptIndex);
        }
        // Self-checksum trailer first: any flipped or missing byte after
        // the magic — header fields and checkpoints alike — fails here
        // before any field is interpreted.
        let trailer_at = buf
            .len()
            .checked_sub(8)
            .filter(|&at| at >= INDEX_HEADER_BYTES)
            .ok_or(IndexError::CorruptIndex)?;
        let mut trailer_pos = trailer_at;
        let declared_sum = read_u64(buf, &mut trailer_pos)?;
        if payload_checksum(&buf[INDEX_MAGIC.len()..trailer_at]) != declared_sum {
            return Err(IndexError::CorruptIndex);
        }
        let buf = &buf[..trailer_at];
        let mut pos = INDEX_MAGIC.len();
        let payload_len = read_u64(buf, &mut pos)?;
        let payload_checksum = read_u64(buf, &mut pos)?;
        let n_intervals = read_u64(buf, &mut pos)?;
        let body = buf.len() - pos;
        // Exact-size check: rejects truncation *and* trailing garbage, and
        // bounds the allocation below against the actual buffer.
        let n_checkpoints = n_intervals
            .checked_add(1)
            .filter(|&n| {
                n == (body / CHECKPOINT_BYTES) as u64 && body.is_multiple_of(CHECKPOINT_BYTES)
            })
            .ok_or(IndexError::CorruptIndex)? as usize;
        let mut checkpoints = Vec::with_capacity(n_checkpoints);
        let mut prev = IntervalCheckpoint::default();
        for i in 0..n_checkpoints {
            let cp = IntervalCheckpoint {
                byte_offset: read_u64(buf, &mut pos)?,
                events: read_u64(buf, &mut pos)?,
                instructions: read_u64(buf, &mut pos)?,
                cycles: read_u64(buf, &mut pos)?,
            };
            let monotonic = cp.byte_offset >= prev.byte_offset
                && cp.events >= prev.events
                && cp.instructions >= prev.instructions
                && cp.cycles >= prev.cycles;
            // The first checkpoint must sit right after the payload
            // header; every offset must stay inside the payload.
            let anchored = if i == 0 {
                cp.byte_offset == PAYLOAD_HEADER_BYTES.min(payload_len)
            } else {
                monotonic
            };
            if !anchored || cp.byte_offset > payload_len {
                return Err(IndexError::CorruptIndex);
            }
            prev = cp;
            checkpoints.push(cp);
        }
        Ok(Self {
            payload_len,
            payload_checksum,
            checkpoints,
        })
    }

    /// Ties this index to a payload: length, checksum, and the payload
    /// header's declared interval count must all agree. A sidecar passing
    /// this is byte-for-byte the one built from exactly these payload
    /// bytes, so cached hits can skip the full frame re-walk.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::PayloadMismatch`] on any disagreement.
    pub fn validate(&self, payload: &[u8]) -> Result<(), IndexError> {
        if payload.len() as u64 != self.payload_len
            || payload_checksum(payload) != self.payload_checksum
        {
            return Err(IndexError::PayloadMismatch);
        }
        // Cross-check the payload header's interval count (bytes 8..16)
        // against ours — catches an index transplanted from a same-length
        // payload faster than the checksum would in the common case.
        let declared = payload
            .get(8..16)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")));
        if declared != Some(self.n_intervals()) {
            return Err(IndexError::PayloadMismatch);
        }
        Ok(())
    }
}

#[inline]
fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, IndexError> {
    let end = pos.checked_add(8).ok_or(IndexError::CorruptIndex)?;
    let bytes = buf.get(*pos..end).ok_or(IndexError::CorruptIndex)?;
    *pos = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
}

/// Which intervals of a trace a replay should decode: everything, or a
/// normalized set of half-open `[start, end)` interval ranges.
///
/// Constructed ranges are sorted, overlap-merged, and adjacent-merged, so
/// downstream consumers can assume each range is preceded by a real gap.
/// [`PlannedReplay`] treats the full plan as the single range `[0, n)`
/// of an `n`-interval trace, so it never seeks and delivers the same
/// stream as a plain [`StreamingDecoder`] replay.
///
/// # Example
///
/// ```
/// use tpcp_trace::ReplayPlan;
///
/// let plan = ReplayPlan::from_ranges([(7, 9), (2, 4), (4, 6)]);
/// assert_eq!(plan.ranges(), Some(&[(2, 6), (7, 9)][..]));
/// assert_eq!(plan.intervals_planned(100), 6);
/// assert!(ReplayPlan::full().is_full());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayPlan {
    /// `None` = full replay; `Some` = sorted disjoint ranges.
    ranges: Option<Vec<(u64, u64)>>,
}

impl Default for ReplayPlan {
    fn default() -> Self {
        Self::full()
    }
}

impl ReplayPlan {
    /// The plan that replays every interval, whatever the trace length.
    pub fn full() -> Self {
        Self { ranges: None }
    }

    /// A sampled plan from half-open `[start, end)` interval ranges, in
    /// any order. Empty ranges are dropped; overlapping and adjacent
    /// ranges merge.
    pub fn from_ranges<I: IntoIterator<Item = (u64, u64)>>(ranges: I) -> Self {
        let mut sorted: Vec<(u64, u64)> = ranges.into_iter().filter(|r| r.0 < r.1).collect();
        sorted.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
        for (start, end) in sorted {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        Self {
            ranges: Some(merged),
        }
    }

    /// A sampled plan from individual interval indices (runs of
    /// consecutive indices merge into ranges).
    pub fn from_intervals<I: IntoIterator<Item = u64>>(intervals: I) -> Self {
        Self::from_ranges(intervals.into_iter().map(|i| (i, i + 1)))
    }

    /// `true` for the full-replay plan.
    pub fn is_full(&self) -> bool {
        self.ranges.is_none()
    }

    /// The normalized ranges of a sampled plan; `None` for a full plan.
    pub fn ranges(&self) -> Option<&[(u64, u64)]> {
        self.ranges.as_deref()
    }

    /// How many intervals of an `n_intervals`-long trace this plan
    /// decodes (ranges clamped to the trace length).
    pub fn intervals_planned(&self, n_intervals: u64) -> u64 {
        match &self.ranges {
            None => n_intervals,
            Some(ranges) => ranges
                .iter()
                .map(|&(s, e)| e.min(n_intervals).saturating_sub(s))
                .sum(),
        }
    }

    /// The end of the last planned range (`None` for full or empty plans).
    pub fn max_interval(&self) -> Option<u64> {
        self.ranges.as_ref().and_then(|r| r.last()).map(|&(_, e)| e)
    }
}

/// What a planned replay skipped, for telemetry: whole-plan totals
/// computed against the index at construction time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Intervals the plan leaves undecoded.
    pub intervals_skipped: u64,
    /// Payload bytes the plan never touches (gap frames).
    pub bytes_skipped: u64,
    /// Seeks a full run of the plan performs (gaps entered).
    pub seeks: u64,
}

/// An [`IntervalSource`] that decodes only the intervals of a
/// [`ReplayPlan`], seeking across the gaps via a validated [`TraceIndex`].
///
/// Consumers downstream of [`drive`](crate::drive) see a *gap-free*
/// stream of the planned intervals: each delivered interval is
/// bit-identical (summary and events, or summary and counted
/// [`Frame`]) to what a full streaming replay would have delivered for
/// that interval, and skipped intervals simply never appear. Interval summaries keep their original `index`, so
/// position-aware sinks still know where each interval came from.
///
/// A decode error mid-plan ends the stream and is reported by
/// [`error`](Self::error), mirroring [`StreamingDecoder`]'s
/// `IntervalSource` contract.
///
/// # Example
///
/// ```
/// use tpcp_trace::{
///     encode_trace_with_index, IntervalSource, PlannedReplay, RecordedTrace, ReplayPlan,
///     StreamingDecoder,
/// };
/// # use tpcp_trace::{BranchEvent, IntervalCutter};
///
/// # let events = (0..400u64).map(|i| (BranchEvent::new(i % 5, 10), 10u64));
/// # let trace = RecordedTrace::record(IntervalCutter::from_iter(100, events));
/// let (payload, index) = encode_trace_with_index(&trace);
/// let plan = ReplayPlan::from_ranges([(1, 2), (3, 4)]);
/// let decoder = StreamingDecoder::new(&payload)?;
/// let mut replay = PlannedReplay::new(decoder, &index, &plan)?;
/// let decoded: Vec<u64> = std::iter::from_fn(|| replay.next_interval(&mut |_| {}))
///     .map(|s| s.index)
///     .collect();
/// assert_eq!(decoded, vec![1, 3]);
/// assert_eq!(replay.error(), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PlannedReplay<'a> {
    decoder: StreamingDecoder<'a>,
    index: &'a TraceIndex,
    /// Normalized ranges clamped-checked against the trace at
    /// construction; `[(0, n)]` for a fully-sampled plan.
    ranges: Vec<(u64, u64)>,
    cur: usize,
    stats: SkipStats,
    error: Option<CodecError>,
}

impl<'a> PlannedReplay<'a> {
    /// Wraps a freshly opened decoder with a plan and its trace's index.
    ///
    /// # Errors
    ///
    /// [`IndexError::PayloadMismatch`] when the index and decoder disagree
    /// on the interval count (the index belongs to different bytes), and
    /// [`IndexError::SeekOutOfRange`] when the plan references intervals
    /// past the end of the trace — a plan built for a different trace
    /// should fail loudly, not silently truncate.
    pub fn new(
        decoder: StreamingDecoder<'a>,
        index: &'a TraceIndex,
        plan: &ReplayPlan,
    ) -> Result<Self, IndexError> {
        let n = decoder.n_intervals();
        if index.n_intervals() != n {
            return Err(IndexError::PayloadMismatch);
        }
        let ranges: Vec<(u64, u64)> = match plan.ranges() {
            None => vec![(0, n)],
            Some(r) => r.to_vec(),
        };
        if plan.max_interval().is_some_and(|end| end > n) {
            return Err(IndexError::SeekOutOfRange);
        }
        // Whole-plan skip totals from checkpoint differences. The
        // unwraps-by-index are safe: every range end is <= n, and the
        // index has n + 1 checkpoints.
        let mut stats = SkipStats::default();
        let mut cursor = 0u64; // next un-accounted interval
        for &(start, end) in &ranges {
            if start > cursor {
                stats.seeks += 1;
                stats.intervals_skipped += start - cursor;
                let lo = index.checkpoints[cursor as usize].byte_offset;
                let hi = index.checkpoints[start as usize].byte_offset;
                stats.bytes_skipped += hi - lo;
            }
            cursor = end;
        }
        if cursor < n {
            stats.intervals_skipped += n - cursor;
            let lo = index.checkpoints[cursor as usize].byte_offset;
            let hi = index.checkpoints[n as usize].byte_offset;
            stats.bytes_skipped += hi - lo;
        }
        Ok(Self {
            decoder,
            index,
            ranges,
            cur: 0,
            stats,
            error: None,
        })
    }

    /// The decode error that ended the replay early, if any.
    pub fn error(&self) -> Option<CodecError> {
        self.error.clone()
    }

    /// Whole-plan skip totals (computed up front, independent of how far
    /// the replay has progressed).
    pub fn skip_stats(&self) -> SkipStats {
        self.stats
    }

    /// Intervals this plan decodes in total.
    pub fn intervals_planned(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }
}

impl<'a> PlannedReplay<'a> {
    /// One planned step: seeks across the gap before the next planned
    /// interval if there is one, then decodes that interval with `decode`.
    fn advance<T>(
        &mut self,
        decode: impl FnOnce(&mut StreamingDecoder<'a>) -> Result<Option<T>, CodecError>,
    ) -> Option<T> {
        if self.error.is_some() {
            return None;
        }
        let &(start, end) = self.ranges.get(self.cur)?;
        if self.decoder.intervals_decoded() < start {
            // Construction validated every range against this exact
            // index/decoder pair, so the seek cannot fail; treat a
            // disagreement as end-of-stream rather than panicking.
            if self.decoder.seek_to_interval(self.index, start).is_err() {
                return None;
            }
        }
        match decode(&mut self.decoder) {
            Ok(Some(decoded)) => {
                if self.decoder.intervals_decoded() >= end {
                    self.cur += 1;
                }
                Some(decoded)
            }
            Ok(None) => None,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

impl IntervalSource for PlannedReplay<'_> {
    fn next_interval(&mut self, on_event: &mut dyn FnMut(BranchEvent)) -> Option<IntervalSummary> {
        self.advance(|d| d.try_next_interval(on_event))
    }

    fn next_frame(&mut self) -> Option<(Frame<'_>, IntervalSummary)> {
        let (summary, ids) = self.advance(StreamingDecoder::read_frame)?;
        Some((self.decoder.counted(ids), summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_trace, encode_trace_with_index};
    use crate::interval::IntervalCutter;
    use crate::recorded::RecordedTrace;

    fn sample(n_events: u64) -> RecordedTrace {
        let events = (0..n_events).map(|i| {
            let pc = 0x0040_0000 + (i % 11) * 4;
            (BranchEvent::new(pc, (i % 13 + 1) as u32), (i % 7) + 1)
        });
        RecordedTrace::record(IntervalCutter::from_iter(64, events))
    }

    #[test]
    fn build_matches_encode_time_index() {
        let trace = sample(500);
        let (payload, index) = encode_trace_with_index(&trace);
        let rebuilt = TraceIndex::build(&payload).unwrap();
        assert_eq!(index, rebuilt);
        assert_eq!(index.n_intervals(), trace.len() as u64);
    }

    #[test]
    fn index_round_trips_and_validates() {
        let (payload, index) = encode_trace_with_index(&sample(300));
        let decoded = TraceIndex::decode(&index.encode()).unwrap();
        assert_eq!(index, decoded);
        decoded.validate(&payload).unwrap();
    }

    #[test]
    fn checkpoints_agree_with_streamed_totals() {
        let trace = sample(400);
        let (payload, index) = encode_trace_with_index(&trace);
        let mut decoder = StreamingDecoder::new(&payload).unwrap();
        let (mut events, mut insns, mut cycles) = (0u64, 0u64, 0u64);
        let mut i = 0u64;
        loop {
            let cp = index.checkpoint(i).unwrap();
            assert_eq!(cp.byte_offset as usize, decoder.position());
            assert_eq!(
                (cp.events, cp.instructions, cp.cycles),
                (events, insns, cycles)
            );
            match decoder
                .try_next_interval_with(&mut |_| events += 1)
                .unwrap()
            {
                Some(s) => {
                    insns += s.instructions;
                    cycles += s.cycles;
                }
                None => break,
            }
            i += 1;
        }
        assert_eq!(index.total_instructions(), insns);
        assert_eq!(index.total_cycles(), cycles);
        assert_eq!(
            index.checkpoint(i).unwrap().byte_offset as usize,
            payload.len()
        );
    }

    #[test]
    fn interval_cpi_matches_summaries() {
        let trace = sample(350);
        let (_, index) = encode_trace_with_index(&trace);
        for (i, interval) in trace.intervals.iter().enumerate() {
            let cpi = index.interval_cpi(i as u64).unwrap();
            assert!((cpi - interval.summary.cpi()).abs() < 1e-12);
        }
        assert_eq!(index.interval_cpi(trace.len() as u64), None);
    }

    #[test]
    fn truncated_sidecar_is_corrupt_not_panic() {
        let (_, index) = encode_trace_with_index(&sample(200));
        let encoded = index.encode();
        for cut in 0..encoded.len() {
            assert_eq!(
                TraceIndex::decode(&encoded[..cut]),
                Err(IndexError::CorruptIndex),
                "cut at {cut}"
            );
        }
        // Trailing garbage is equally rejected.
        let mut long = encoded.to_vec();
        long.push(0);
        assert_eq!(TraceIndex::decode(&long), Err(IndexError::CorruptIndex));
    }

    #[test]
    fn mismatched_payload_rejected() {
        let (payload_a, index_a) = encode_trace_with_index(&sample(300));
        let (payload_b, index_b) = encode_trace_with_index(&sample(301));
        index_a.validate(&payload_a).unwrap();
        assert_eq!(
            index_a.validate(&payload_b),
            Err(IndexError::PayloadMismatch)
        );
        assert_eq!(
            index_b.validate(&payload_a),
            Err(IndexError::PayloadMismatch)
        );
        // A payload edit (flip one event byte) breaks the checksum tie.
        let mut edited = payload_a.to_vec();
        let last = edited.len() - 1;
        edited[last] ^= 0x01;
        assert_eq!(index_a.validate(&edited), Err(IndexError::PayloadMismatch));
    }

    #[test]
    fn plan_normalizes_ranges() {
        let plan = ReplayPlan::from_ranges([(5, 5), (8, 10), (0, 2), (2, 4), (9, 12)]);
        assert_eq!(plan.ranges(), Some(&[(0, 4), (8, 12)][..]));
        assert_eq!(plan.intervals_planned(100), 8);
        assert_eq!(plan.intervals_planned(10), 6); // clamped tail
        assert_eq!(plan.max_interval(), Some(12));

        let from_points = ReplayPlan::from_intervals([3, 1, 2, 7]);
        assert_eq!(from_points.ranges(), Some(&[(1, 4), (7, 8)][..]));
    }

    #[test]
    fn planned_replay_skips_and_counts() {
        let trace = sample(1000);
        let (payload, index) = encode_trace_with_index(&trace);
        let n = index.n_intervals();
        assert!(n >= 6, "need enough intervals, got {n}");
        let plan = ReplayPlan::from_ranges([(1, 2), (4, 6)]);
        let decoder = StreamingDecoder::new(&payload).unwrap();
        let mut replay = PlannedReplay::new(decoder, &index, &plan).unwrap();
        let stats = replay.skip_stats();
        assert_eq!(stats.seeks, 2);
        assert_eq!(stats.intervals_skipped, n - 3);
        let payload_body = payload.len() as u64 - index.checkpoints[0].byte_offset;
        let planned_bytes: u64 = [1u64, 4, 5]
            .iter()
            .map(|&i| index.interval_bytes(i).unwrap())
            .sum();
        assert_eq!(stats.bytes_skipped, payload_body - planned_bytes);

        let mut seen = Vec::new();
        while let Some(s) = replay.next_interval(&mut |_| {}) {
            seen.push(s.index);
        }
        assert_eq!(seen, vec![1, 4, 5]);
        assert_eq!(replay.error(), None);
    }

    #[test]
    fn fully_sampled_plan_is_bit_identical_to_streaming() {
        let trace = sample(800);
        let (payload, index) = encode_trace_with_index(&trace);
        let n = index.n_intervals();

        let mut streamed: Vec<(IntervalSummary, Vec<BranchEvent>)> = Vec::new();
        let mut decoder = StreamingDecoder::new(&payload).unwrap();
        let mut events = Vec::new();
        while let Some(s) = decoder.next_interval(&mut |ev| events.push(ev)) {
            streamed.push((s, std::mem::take(&mut events)));
        }

        for plan in [ReplayPlan::full(), ReplayPlan::from_ranges([(0, n)])] {
            let decoder = StreamingDecoder::new(&payload).unwrap();
            let mut replay = PlannedReplay::new(decoder, &index, &plan).unwrap();
            let mut sampled = Vec::new();
            let mut events = Vec::new();
            while let Some(s) = replay.next_interval(&mut |ev| events.push(ev)) {
                sampled.push((s, std::mem::take(&mut events)));
            }
            assert_eq!(streamed, sampled);
            assert_eq!(replay.skip_stats(), SkipStats::default());
        }
    }

    #[test]
    fn out_of_range_plan_fails_loudly() {
        let (payload, index) = encode_trace_with_index(&sample(300));
        let n = index.n_intervals();
        let plan = ReplayPlan::from_ranges([(0, n + 1)]);
        let decoder = StreamingDecoder::new(&payload).unwrap();
        assert_eq!(
            PlannedReplay::new(decoder, &index, &plan).err(),
            Some(IndexError::SeekOutOfRange)
        );
    }

    #[test]
    fn foreign_index_rejected_at_construction() {
        let (payload, _) = encode_trace_with_index(&sample(300));
        let (_, other) = encode_trace_with_index(&sample(700));
        let decoder = StreamingDecoder::new(&payload).unwrap();
        assert_eq!(
            PlannedReplay::new(decoder, &other, &ReplayPlan::full()).err(),
            Some(IndexError::PayloadMismatch)
        );
    }

    #[test]
    fn plain_encode_matches_indexed_encode() {
        let trace = sample(600);
        let (payload, _) = encode_trace_with_index(&trace);
        assert_eq!(encode_trace(&trace), payload);
    }
}
