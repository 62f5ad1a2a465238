//! Compact binary encoding of recorded traces.
//!
//! A [`RecordedTrace`] at 10M-instruction granularity can hold tens of
//! millions of events; a generic self-describing encoding is wasteful for
//! archival. This module provides a dense little-endian framing built on
//! [`bytes`]. An interval re-executes a small set of basic blocks, so each
//! frame stores its distinct `(pc, insns)` pairs once, PC-delta encoded
//! (branch PCs cluster tightly in the address space, so deltas are small),
//! and every event as an index into that table.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic  b"TPCPTRC3"                      8 bytes
//! n_intervals: u64
//! per interval:
//!   index: u64, instructions: u64, cycles: u64
//!   metrics: 5 x varint (il1, dl1, l2, tlb misses, branch mispredictions)
//!   n_events: u64
//!   n_distinct: varint                    distinct (pc, insns) pairs
//!   per pair, in order of first appearance:
//!     pc_delta_zigzag: varint             from the previous pair, 0 first
//!     insns: varint
//!   per event: id                         index into the pairs:
//!     u8 if n_distinct <= 256, u16 if <= 65,536, u32 otherwise
//! ```
//!
//! PC deltas restart at every frame, so each frame decodes on its own.
//!
//! Two decoders share one frame reader:
//!
//! - [`decode_trace`] materializes the whole buffer into a
//!   [`RecordedTrace`] (archival, tooling, tests).
//! - [`StreamingDecoder`] yields one interval at a time straight off the
//!   borrowed buffer — into the caller's callback, into one buffer reused
//!   across intervals, or as a counted [`Frame`]: the frame's pair table,
//!   each pair's occurrence count and the id run — and implements
//!   [`IntervalSource`](crate::IntervalSource), so a trace replays through
//!   [`drive`](crate::drive) frame by frame without ever being
//!   materialized. This is the hot path of the experiment engine.

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};

use crate::event::BranchEvent;
use crate::index::{IndexError, IntervalCheckpoint, TraceIndex};
use crate::interval::{Frame, IntervalSource, IntervalSummary};
use crate::recorded::{RecordedInterval, RecordedTrace};

/// The trace format this crate writes and reads: the magic that opens
/// every encoded buffer. On-disk caches put it in their entry names, so
/// an entry written in another format is never opened.
pub const TRACE_FORMAT: &str = "TPCPTRC3";

const MAGIC: &[u8] = TRACE_FORMAT.as_bytes();

/// Minimum encoded size of one interval: 3 fixed u64s, five 1-byte
/// varints, the 8-byte event count and a 1-byte pair count. Used to bound
/// a declared `n_intervals` against the remaining buffer before
/// allocating.
const MIN_INTERVAL_BYTES: usize = 24 + 5 + 8 + 1;

/// Errors produced when decoding a trace buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the trace magic bytes.
    BadMagic,
    /// The buffer ended before the declared contents were read.
    Truncated,
    /// A varint ran past its maximum width.
    MalformedVarint,
    /// A declared count (`n_intervals`, `n_events` or `n_distinct`) is
    /// larger than the remaining buffer could possibly hold, or a frame
    /// declares more distinct pairs than events. Rejected before any
    /// allocation, so a corrupt header cannot trigger an OOM-sized
    /// `Vec::with_capacity`.
    ImplausibleLength,
    /// An event id names a pair past the end of its frame's pair table.
    EventIdOutOfRange,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "buffer is not a TPCP trace (bad magic)"),
            CodecError::Truncated => write!(f, "trace buffer ended prematurely"),
            CodecError::MalformedVarint => write!(f, "malformed varint in trace buffer"),
            CodecError::ImplausibleLength => {
                write!(f, "declared element count exceeds remaining buffer")
            }
            CodecError::EventIdOutOfRange => {
                write!(f, "event id beyond its interval's pair table")
            }
        }
    }
}

impl std::error::Error for CodecError {}

pub(crate) fn zigzag_encode(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

pub(crate) fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a little-endian u64 at `*pos`, advancing it.
#[inline]
fn read_u64_le(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let end = pos.checked_add(8).ok_or(CodecError::Truncated)?;
    let bytes = buf.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
}

/// Decodes a varint at `*pos` in place, advancing it.
#[inline]
pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    // One- and two-byte fast paths: PC deltas, instruction counts and
    // wire-protocol fields almost always fit in 14 bits.
    let p = *pos;
    if let Some(&b0) = buf.get(p) {
        if b0 < 0x80 {
            *pos = p + 1;
            return Ok(u64::from(b0));
        }
        if let Some(&b1) = buf.get(p + 1) {
            if b1 < 0x80 {
                *pos = p + 2;
                return Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
            }
        }
    }
    read_varint_general(buf, pos)
}

/// The general varint loop: any length up to ten bytes, shared by the
/// fast-path fallthrough (including its truncated/overlong cases).
fn read_varint_general(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut out = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
    }
    Err(CodecError::MalformedVarint)
}

/// Bytes per event id in a frame with `n_distinct` pairs.
fn id_width(n_distinct: u64) -> usize {
    if n_distinct <= 1 << 8 {
        1
    } else if n_distinct <= 1 << 16 {
        2
    } else {
        4
    }
}

/// Encodes a recorded trace into a compact binary buffer.
///
/// # Example
///
/// ```
/// use tpcp_trace::{decode_trace, encode_trace, RecordedTrace};
///
/// let trace = RecordedTrace::default();
/// let bytes = encode_trace(&trace);
/// let back = decode_trace(bytes)?;
/// assert_eq!(trace, back);
/// # Ok::<(), tpcp_trace::CodecError>(())
/// ```
pub fn encode_trace(trace: &RecordedTrace) -> Bytes {
    encode_frames(trace).0.freeze()
}

/// Encodes a recorded trace and builds its [`TraceIndex`] in the same
/// pass: frame offsets are recorded as the frames are written, so the
/// sidecar costs one checksum sweep instead of a full decode re-walk.
///
/// The payload is byte-identical to [`encode_trace`]'s, and the index is
/// identical to [`TraceIndex::build`] run over that payload (pinned by
/// tests).
pub fn encode_trace_with_index(trace: &RecordedTrace) -> (Bytes, TraceIndex) {
    let (buf, offsets) = encode_frames(trace);
    let mut checkpoints = Vec::with_capacity(offsets.len() + 1);
    let mut totals = IntervalCheckpoint::default();
    for (interval, &byte_offset) in trace.intervals.iter().zip(&offsets) {
        checkpoints.push(IntervalCheckpoint {
            byte_offset,
            ..totals
        });
        totals.events += interval.events.len() as u64;
        totals.instructions += interval.summary.instructions;
        totals.cycles += interval.summary.cycles;
    }
    checkpoints.push(IntervalCheckpoint {
        byte_offset: buf.len() as u64,
        ..totals
    });
    let payload = buf.freeze();
    let index = TraceIndex {
        payload_len: payload.len() as u64,
        payload_checksum: crate::index::payload_checksum(&payload),
        checkpoints,
    };
    (payload, index)
}

/// The shared encode loop behind [`encode_trace`] and
/// [`encode_trace_with_index`]. Returns the buffer and the byte offset at
/// which each interval's frame starts.
fn encode_frames(trace: &RecordedTrace) -> (BytesMut, Vec<u64>) {
    let mut buf = BytesMut::with_capacity(64 + trace.intervals.len() * 64);
    buf.put_slice(MAGIC);
    buf.put_u64_le(trace.intervals.len() as u64);
    let mut offsets = Vec::with_capacity(trace.intervals.len());
    // Per-frame scratch, reused: each distinct pair's id, the pairs in
    // first-appearance order, and every event's id.
    let mut id_of: HashMap<BranchEvent, u32> = HashMap::new();
    let mut pairs: Vec<BranchEvent> = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    for interval in &trace.intervals {
        offsets.push(buf.len() as u64);
        buf.put_u64_le(interval.summary.index);
        buf.put_u64_le(interval.summary.instructions);
        buf.put_u64_le(interval.summary.cycles);
        for m in interval.summary.metrics.as_array() {
            put_varint(&mut buf, m);
        }
        buf.put_u64_le(interval.events.len() as u64);
        id_of.clear();
        pairs.clear();
        ids.clear();
        for &ev in &interval.events {
            let id = *id_of.entry(ev).or_insert_with(|| {
                pairs.push(ev);
                u32::try_from(pairs.len() - 1).expect("fewer than 2^32 distinct pairs")
            });
            ids.push(id);
        }
        put_varint(&mut buf, pairs.len() as u64);
        let mut prev_pc = 0i64;
        for ev in &pairs {
            let delta = (ev.pc as i64).wrapping_sub(prev_pc);
            prev_pc = ev.pc as i64;
            put_varint(&mut buf, zigzag_encode(delta));
            put_varint(&mut buf, u64::from(ev.insns));
        }
        match id_width(pairs.len() as u64) {
            1 => ids.iter().for_each(|&id| buf.put_u8(id as u8)),
            2 => ids
                .iter()
                .for_each(|&id| buf.put_slice(&(id as u16).to_le_bytes())),
            _ => ids.iter().for_each(|&id| buf.put_slice(&id.to_le_bytes())),
        }
    }
    (buf, offsets)
}

/// Decodes a buffer produced by [`encode_trace`] into a fully materialized
/// [`RecordedTrace`].
///
/// Replay-only consumers should prefer [`StreamingDecoder`], which walks
/// the same format without building per-interval event vectors.
///
/// # Errors
///
/// Returns [`CodecError`] if the buffer is not a trace, is truncated, or
/// contains a malformed varint, an implausible count or an out-of-range
/// event id.
pub fn decode_trace(buf: Bytes) -> Result<RecordedTrace, CodecError> {
    let mut decoder = StreamingDecoder::new(&buf)?;
    // Safe to allocate: `StreamingDecoder::new` bounded `n_intervals`
    // against the buffer length.
    let mut intervals = Vec::with_capacity(decoder.n_intervals() as usize);
    loop {
        let mut events = Vec::new();
        let Some(summary) = decoder.try_next_interval_into(&mut events)? else {
            break;
        };
        intervals.push(RecordedInterval { events, summary });
    }
    Ok(RecordedTrace { intervals })
}

/// Validates an encoded trace buffer without materializing anything.
///
/// Walks every interval frame, checking magic, bounds, varint
/// well-formedness and every event id against its frame's pair table.
/// Returns the interval count on success. This is what cache readers run
/// before streaming a buffer into live consumers: it costs one
/// allocation-free pass and guarantees the subsequent replay cannot fail
/// half-way through.
pub fn validate_trace(buf: &[u8]) -> Result<u64, CodecError> {
    let mut decoder = StreamingDecoder::new(buf)?;
    while decoder.read_frame()?.is_some() {}
    Ok(decoder.intervals_decoded())
}

/// One frame's event ids, every one already checked against the frame's
/// pair count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameIds<'a> {
    bytes: &'a [u8],
    /// Bytes per id: 1, 2 or 4.
    width: usize,
}

impl FrameIds<'_> {
    /// Number of events in the frame.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len() / self.width
    }

    /// Calls `f` with each id, in program order.
    #[inline]
    pub(crate) fn for_each(self, mut f: impl FnMut(usize)) {
        match self.width {
            1 => self.bytes.iter().for_each(|&id| f(usize::from(id))),
            2 => self
                .bytes
                .chunks_exact(2)
                .for_each(|c| f(usize::from(u16::from_le_bytes([c[0], c[1]])))),
            _ => self
                .bytes
                .chunks_exact(4)
                .for_each(|c| f(u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as usize)),
        }
    }
}

/// A streaming, zero-copy decoder over an encoded trace buffer.
///
/// Yields one interval at a time straight off the borrowed bytes: each
/// frame's pair table is decoded into scratch reused across intervals,
/// and every event id is looked up in it and handed to the caller's event
/// callback, so replaying a multi-gigabyte trace needs no heap
/// proportional to the trace. An optional scratch buffer
/// ([`next_interval_buffered`](Self::next_interval_buffered)) is reused
/// across intervals for callers that want a slice view, and
/// [`try_next_frame`](Self::try_next_frame) yields the frame itself, its
/// ids counted per pair into scratch that is also reused.
///
/// `StreamingDecoder` implements [`IntervalSource`], so it can be driven
/// through [`drive`](crate::drive) like any replay, one [`Frame`] per
/// interval. Because
/// `IntervalSource` cannot surface errors, a decode error in that mode
/// ends the stream early and is reported by [`error`](Self::error);
/// callers replaying untrusted bytes should run [`validate_trace`] first
/// (or use [`try_next_interval`](Self::try_next_interval)).
///
/// # Example
///
/// ```
/// use tpcp_trace::{encode_trace, IntervalSource, RecordedTrace, StreamingDecoder};
/// # use tpcp_trace::{BranchEvent, IntervalCutter};
///
/// # let events = (0..40u64).map(|i| (BranchEvent::new(i % 2, 10), 10u64));
/// # let trace = RecordedTrace::record(IntervalCutter::from_iter(100, events));
/// let bytes = encode_trace(&trace);
/// let mut decoder = StreamingDecoder::new(&bytes)?;
/// let mut n = 0;
/// while decoder.next_interval(&mut |_ev| n += 1).is_some() {}
/// assert_eq!(decoder.error(), None);
/// assert_eq!(decoder.intervals_decoded(), trace.len() as u64);
/// # Ok::<(), tpcp_trace::CodecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    n_intervals: u64,
    decoded: u64,
    /// The current frame's distinct `(pc, insns)` pairs.
    pairs: Vec<BranchEvent>,
    /// Occurrences of each of `pairs` in the current frame's id run
    /// (filled on the frame path only).
    counts: Vec<u64>,
    scratch: Vec<BranchEvent>,
    error: Option<CodecError>,
}

impl<'a> StreamingDecoder<'a> {
    /// Opens a decoder over `buf`, validating the magic and header.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadMagic`] for a non-trace buffer (including
    /// one in an older trace format), [`CodecError::Truncated`] for a
    /// short header, and [`CodecError::ImplausibleLength`] when the
    /// declared interval count cannot fit in the remaining bytes.
    pub fn new(buf: &'a [u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        let magic = buf.get(..MAGIC.len()).ok_or(CodecError::Truncated)?;
        if magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        pos += MAGIC.len();
        let n_intervals = read_u64_le(buf, &mut pos)?;
        let remaining = buf.len() - pos;
        if n_intervals > (remaining / MIN_INTERVAL_BYTES) as u64 {
            return Err(CodecError::ImplausibleLength);
        }
        Ok(Self {
            buf,
            pos,
            n_intervals,
            decoded: 0,
            pairs: Vec::new(),
            counts: Vec::new(),
            scratch: Vec::new(),
            error: None,
        })
    }

    /// Total intervals the header declares.
    pub fn n_intervals(&self) -> u64 {
        self.n_intervals
    }

    /// Intervals decoded so far. After a
    /// [`seek_to_interval`](Self::seek_to_interval) this is the seek
    /// target — i.e. it is always the index of the *next* interval the
    /// decoder will yield.
    pub fn intervals_decoded(&self) -> u64 {
        self.decoded
    }

    /// Current byte position of the decode cursor within the buffer.
    /// Frame-aligned between intervals, which is what
    /// [`TraceIndex::build`] records as checkpoint offsets.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to the start of `interval`'s frame via its index
    /// checkpoint and resumes zero-copy decode there: the next
    /// [`try_next_interval`](Self::try_next_interval) yields interval
    /// `interval`, bit-identical to having streamed to it. Seeking to
    /// `n_intervals` positions at end-of-trace (the next call returns
    /// `None`). Clears any sticky `IntervalSource`-mode error.
    ///
    /// Every frame carries its own pair table and restarts its PC deltas
    /// from zero, so no decode state from the skipped intervals is needed
    /// — a checkpoint is a complete resume point.
    ///
    /// # Errors
    ///
    /// [`IndexError::PayloadMismatch`] when `index` disagrees with this
    /// buffer (wrong interval count or an offset outside the buffer), and
    /// [`IndexError::SeekOutOfRange`] when `interval > n_intervals`.
    /// The cursor is unchanged on error.
    pub fn seek_to_interval(
        &mut self,
        index: &TraceIndex,
        interval: u64,
    ) -> Result<(), IndexError> {
        if index.n_intervals() != self.n_intervals {
            return Err(IndexError::PayloadMismatch);
        }
        let cp = index
            .checkpoint(interval)
            .ok_or(IndexError::SeekOutOfRange)?;
        if cp.byte_offset as usize > self.buf.len() {
            return Err(IndexError::PayloadMismatch);
        }
        self.pos = cp.byte_offset as usize;
        self.decoded = interval;
        self.error = None;
        Ok(())
    }

    /// The decode error that ended an [`IntervalSource`]-mode replay, if
    /// any. `None` means every interval delivered so far decoded cleanly.
    pub fn error(&self) -> Option<CodecError> {
        self.error.clone()
    }

    /// Reads the next frame: its summary, its pair table (into
    /// `self.pairs`) and its event ids, each checked against the pair
    /// count, so a frame that fails delivers no event. `Ok(None)` once
    /// every declared interval has been read.
    pub(crate) fn read_frame(
        &mut self,
    ) -> Result<Option<(IntervalSummary, FrameIds<'a>)>, CodecError> {
        if self.decoded >= self.n_intervals {
            return Ok(None);
        }
        let buf = self.buf;
        let mut pos = self.pos;
        let index = read_u64_le(buf, &mut pos)?;
        let instructions = read_u64_le(buf, &mut pos)?;
        let cycles = read_u64_le(buf, &mut pos)?;
        let metrics = crate::metrics::MetricCounts {
            il1_misses: read_varint(buf, &mut pos)?,
            dl1_misses: read_varint(buf, &mut pos)?,
            l2_misses: read_varint(buf, &mut pos)?,
            tlb_misses: read_varint(buf, &mut pos)?,
            branch_mispredictions: read_varint(buf, &mut pos)?,
        };
        let n_events = read_u64_le(buf, &mut pos)?;
        let n_distinct = read_varint(buf, &mut pos)?;
        // Every event id takes at least one byte and every pair at least
        // two, and each pair is some event's.
        let remaining = (buf.len() - pos) as u64;
        if n_distinct > n_events || n_events > remaining || n_distinct > (remaining - n_events) / 2
        {
            return Err(CodecError::ImplausibleLength);
        }
        self.pairs.clear();
        self.pairs.reserve(n_distinct as usize);
        let mut prev_pc = 0i64;
        for _ in 0..n_distinct {
            let delta = zigzag_decode(read_varint(buf, &mut pos)?);
            let insns = read_varint(buf, &mut pos)?;
            prev_pc = prev_pc.wrapping_add(delta);
            self.pairs
                .push(BranchEvent::new(prev_pc as u64, insns as u32));
        }
        let width = id_width(n_distinct);
        let end = (n_events as usize)
            .checked_mul(width)
            .and_then(|len| len.checked_add(pos))
            .ok_or(CodecError::Truncated)?;
        let bytes = buf.get(pos..end).ok_or(CodecError::Truncated)?;
        let max_id = match width {
            1 => bytes.iter().copied().max().map(u64::from),
            2 => bytes
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .max()
                .map(u64::from),
            _ => bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .max()
                .map(u64::from),
        };
        if max_id.is_some_and(|id| id >= n_distinct) {
            return Err(CodecError::EventIdOutOfRange);
        }
        self.pos = end;
        self.decoded += 1;
        let summary = IntervalSummary::new(index, instructions, cycles).with_metrics(metrics);
        Ok(Some((summary, FrameIds { bytes, width })))
    }

    /// Decodes the next interval, delivering each event to `on_event` in
    /// program order, then returns the interval summary. `Ok(None)` means
    /// every declared interval has been decoded.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated or malformed frame. The whole
    /// frame is checked before its first event is delivered, so a failing
    /// interval delivers no events.
    pub fn try_next_interval(
        &mut self,
        on_event: &mut dyn FnMut(BranchEvent),
    ) -> Result<Option<IntervalSummary>, CodecError> {
        self.try_next_interval_with(&mut |ev| on_event(ev))
    }

    /// [`try_next_interval`](Self::try_next_interval) with a statically
    /// dispatched callback. Single-consumer hot loops (the perf harness)
    /// get the event delivery inlined; the `dyn` wrapper above serves
    /// [`IntervalSource::next_interval`] callers.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated or malformed frame, exactly
    /// as [`try_next_interval`](Self::try_next_interval).
    #[inline]
    pub fn try_next_interval_with<F: FnMut(BranchEvent)>(
        &mut self,
        on_event: &mut F,
    ) -> Result<Option<IntervalSummary>, CodecError> {
        let Some((summary, ids)) = self.read_frame()? else {
            return Ok(None);
        };
        let pairs = &self.pairs;
        ids.for_each(|id| on_event(pairs[id]));
        Ok(Some(summary))
    }

    /// Decodes the next interval as a [`Frame`]: its pair table, each
    /// pair's occurrence count in the id run, and the id run itself, which
    /// [`Frame::for_each_event`] walks in program order. The counts go into
    /// scratch reused across intervals. `Ok(None)` means every declared
    /// interval has been decoded.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated or malformed frame. The whole
    /// frame is checked before it is counted, so a failing interval yields
    /// no frame.
    #[allow(clippy::type_complexity)]
    pub fn try_next_frame(&mut self) -> Result<Option<(Frame<'_>, IntervalSummary)>, CodecError> {
        let Some((summary, ids)) = self.read_frame()? else {
            return Ok(None);
        };
        Ok(Some((self.counted(ids), summary)))
    }

    /// Counts each pair's occurrences in `ids`, the id run [`read_frame`]
    /// just checked, and returns the frame over the pair table.
    ///
    /// [`read_frame`]: Self::read_frame
    pub(crate) fn counted(&mut self, ids: FrameIds<'a>) -> Frame<'_> {
        let counts = &mut self.counts;
        counts.clear();
        counts.resize(self.pairs.len(), 0);
        ids.for_each(|id| counts[id] += 1);
        Frame::dictionary(&self.pairs, &self.counts, ids)
    }

    /// Decodes the next interval into `events` (cleared first) with one
    /// exact-size extend: the buffer-filling decode behind
    /// [`decode_trace`] and
    /// [`next_interval_buffered`](Self::next_interval_buffered). It does
    /// not count ids. The per-event callback above gathers on its own:
    /// routing it through a buffer costs a store and a load per event.
    pub(crate) fn try_next_interval_into(
        &mut self,
        events: &mut Vec<BranchEvent>,
    ) -> Result<Option<IntervalSummary>, CodecError> {
        events.clear();
        let Some((summary, ids)) = self.read_frame()? else {
            return Ok(None);
        };
        let pairs = &self.pairs;
        match ids.width {
            1 => events.extend(ids.bytes.iter().map(|&id| pairs[usize::from(id)])),
            2 => events.extend(
                ids.bytes
                    .chunks_exact(2)
                    .map(|c| pairs[usize::from(u16::from_le_bytes([c[0], c[1]]))]),
            ),
            _ => events.extend(
                ids.bytes
                    .chunks_exact(4)
                    .map(|c| pairs[u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as usize]),
            ),
        }
        Ok(Some(summary))
    }

    /// Decodes the next interval into an internal scratch buffer that is
    /// reused across calls, returning the events as a slice alongside the
    /// summary. One allocation amortized over the whole trace, regardless
    /// of interval count.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated or malformed frame.
    #[allow(clippy::type_complexity)]
    pub fn next_interval_buffered(
        &mut self,
    ) -> Result<Option<(&[BranchEvent], IntervalSummary)>, CodecError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.try_next_interval_into(&mut scratch);
        self.scratch = scratch;
        Ok(result?.map(|summary| (self.scratch.as_slice(), summary)))
    }

    /// One [`IntervalSource`]-mode step: a stored decode error ends the
    /// stream, and a new one is stored instead of returned.
    fn sticky<T>(
        &mut self,
        step: impl FnOnce(&mut Self) -> Result<Option<T>, CodecError>,
    ) -> Option<T> {
        if self.error.is_some() {
            return None;
        }
        step(self).unwrap_or_else(|e| {
            self.error = Some(e);
            None
        })
    }
}

impl IntervalSource for StreamingDecoder<'_> {
    fn next_interval(&mut self, on_event: &mut dyn FnMut(BranchEvent)) -> Option<IntervalSummary> {
        self.sticky(|d| d.try_next_interval(on_event))
    }

    fn next_frame(&mut self) -> Option<(Frame<'_>, IntervalSummary)> {
        let (summary, ids) = self.sticky(Self::read_frame)?;
        Some((self.counted(ids), summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{IntervalCutter, IntervalSummary};

    fn sample() -> RecordedTrace {
        let events = (0..200u64).map(|i| {
            let pc = 0x0040_0000 + (i % 7) * 4;
            (BranchEvent::new(pc, (i % 13 + 1) as u32), i)
        });
        RecordedTrace::record(IntervalCutter::from_iter(100, events))
    }

    #[test]
    fn round_trip_preserves_trace() {
        let trace = sample();
        let decoded = decode_trace(encode_trace(&trace)).unwrap();
        assert_eq!(trace, decoded);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = encode_trace(&sample()).to_vec();
        data[0] = b'X';
        assert_eq!(decode_trace(Bytes::from(data)), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let data = encode_trace(&sample());
        for cut in [0, 4, 8, 12, 20, data.len() - 1] {
            let sliced = data.slice(..cut);
            assert!(
                decode_trace(sliced).is_err(),
                "cut at {cut} should fail to decode"
            );
        }
    }

    #[test]
    fn truncation_detected_at_every_byte_boundary() {
        // Exhaustive: a cut anywhere strictly inside the buffer must fail
        // both the eager and the streaming decoder — no frame boundary is
        // silently tolerated as end-of-trace.
        let data = encode_trace(&sample());
        for cut in 0..data.len() {
            let sliced = &data[..cut];
            assert!(
                validate_trace(sliced).is_err(),
                "streaming validate of cut at {cut} should fail"
            );
            assert!(
                decode_trace(data.slice(..cut)).is_err(),
                "eager decode of cut at {cut} should fail"
            );
        }
        assert!(validate_trace(&data).is_ok());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = BytesMut::new();
        let values = [0u64, 1, 127, 128, 16383, 16384, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let bytes = buf.freeze();
        let mut pos = 0usize;
        for &v in &values {
            assert_eq!(read_varint(&bytes, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn malformed_varint_rejected() {
        // 10 continuation bytes exceed the maximum 64-bit varint width.
        let overlong = [0xffu8; 10];
        let mut pos = 0usize;
        assert_eq!(
            read_varint(&overlong, &mut pos),
            Err(CodecError::MalformedVarint)
        );

        // The same overlong varint planted in a real frame (first metric
        // varint of the first interval) surfaces through both decoders.
        let mut data = encode_trace(&sample()).to_vec();
        let metrics_offset = 8 + 8 + 24; // magic + n_intervals + fixed summary
        data.splice(metrics_offset..metrics_offset + 1, [0xff; 10]);
        assert_eq!(
            validate_trace(&data),
            Err(CodecError::MalformedVarint),
            "streaming decoder must reject an overlong varint"
        );
        assert_eq!(
            decode_trace(Bytes::from(data)),
            Err(CodecError::MalformedVarint)
        );
    }

    #[test]
    fn implausible_interval_count_rejected_before_allocating() {
        // A corrupt header declaring u64::MAX intervals must fail fast
        // with ImplausibleLength, not attempt a giant Vec::with_capacity.
        let mut data = encode_trace(&sample()).to_vec();
        data[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode_trace(Bytes::from(data.clone())),
            Err(CodecError::ImplausibleLength)
        );
        assert_eq!(
            StreamingDecoder::new(&data).err(),
            Some(CodecError::ImplausibleLength)
        );
    }

    #[test]
    fn implausible_event_count_rejected_before_allocating() {
        // Corrupt the first interval's n_events field (fixed offset:
        // magic + n_intervals + 24-byte summary + five 1-byte varints —
        // the sample's metrics are all zero).
        let mut data = encode_trace(&sample()).to_vec();
        let n_events_offset = 8 + 8 + 24 + 5;
        data[n_events_offset..n_events_offset + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert_eq!(
            decode_trace(Bytes::from(data.clone())),
            Err(CodecError::ImplausibleLength)
        );
        assert_eq!(validate_trace(&data), Err(CodecError::ImplausibleLength));
    }

    #[test]
    fn streaming_decode_matches_eager_decode() {
        let trace = sample();
        let bytes = encode_trace(&trace);
        let eager = decode_trace(bytes.clone()).unwrap();

        let mut decoder = StreamingDecoder::new(&bytes).unwrap();
        let mut streamed = Vec::new();
        let mut events = Vec::new();
        while let Some(summary) = decoder
            .try_next_interval(&mut |ev| events.push(ev))
            .unwrap()
        {
            streamed.push(RecordedInterval {
                events: std::mem::take(&mut events),
                summary,
            });
        }
        assert_eq!(eager.intervals, streamed);
        assert_eq!(decoder.intervals_decoded(), trace.len() as u64);
    }

    #[test]
    fn streaming_buffered_reuses_scratch() {
        let trace = sample();
        let bytes = encode_trace(&trace);
        let mut decoder = StreamingDecoder::new(&bytes).unwrap();
        let mut i = 0;
        while let Some((events, summary)) = decoder.next_interval_buffered().unwrap() {
            assert_eq!(events, &trace.intervals[i].events[..]);
            assert_eq!(summary, trace.intervals[i].summary);
            i += 1;
        }
        assert_eq!(i, trace.len());
    }

    #[test]
    fn streaming_decoder_is_an_interval_source() {
        let trace = sample();
        let bytes = encode_trace(&trace);
        let mut decoder = StreamingDecoder::new(&bytes).unwrap();
        let replayed = RecordedTrace::record(&mut decoder);
        assert_eq!(replayed, trace);
        assert_eq!(decoder.error(), None);
    }

    #[test]
    fn interval_source_mode_reports_error_and_stops() {
        let trace = sample();
        let data = encode_trace(&trace);
        let cut = &data[..data.len() - 1];
        let mut decoder = StreamingDecoder::new(cut).unwrap();
        let mut n = 0usize;
        while decoder.next_interval(&mut |_| {}).is_some() {
            n += 1;
        }
        assert!(n < trace.len(), "truncated stream must end early");
        assert_eq!(decoder.error(), Some(CodecError::Truncated));
        // Stays finished: repeated polls keep returning None.
        assert!(decoder.next_interval(&mut |_| {}).is_none());
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = RecordedTrace::default();
        assert_eq!(decode_trace(encode_trace(&trace)).unwrap(), trace);
        assert_eq!(validate_trace(&encode_trace(&trace)).unwrap(), 0);
    }

    #[test]
    fn summary_fields_survive() {
        let trace = RecordedTrace {
            intervals: vec![RecordedInterval {
                events: vec![],
                summary: IntervalSummary::new(7, 10_000_000, 23_456_789),
            }],
        };
        let decoded = decode_trace(encode_trace(&trace)).unwrap();
        assert_eq!(decoded.intervals[0].summary.cycles, 23_456_789);
    }

    #[test]
    fn metric_counts_survive() {
        let metrics = crate::metrics::MetricCounts {
            il1_misses: 12,
            dl1_misses: 3_456,
            l2_misses: 789,
            tlb_misses: 0,
            branch_mispredictions: u64::from(u32::MAX) + 5,
        };
        let trace = RecordedTrace {
            intervals: vec![RecordedInterval {
                events: vec![BranchEvent::new(0x40, 10)],
                summary: IntervalSummary::new(0, 10, 20).with_metrics(metrics),
            }],
        };
        let decoded = decode_trace(encode_trace(&trace)).unwrap();
        assert_eq!(decoded.intervals[0].summary.metrics, metrics);
    }

    /// Everything a decode delivered before it stopped: events and
    /// summaries, or the error that stopped it.
    type Decoded = Result<(Vec<BranchEvent>, Vec<IntervalSummary>), CodecError>;

    fn flatten(trace: &RecordedTrace) -> (Vec<BranchEvent>, Vec<IntervalSummary>) {
        let events = trace
            .intervals
            .iter()
            .flat_map(|iv| iv.events.iter().copied())
            .collect();
        let summaries = trace.intervals.iter().map(|iv| iv.summary).collect();
        (events, summaries)
    }

    /// Decodes `data` through the callback, frame, buffered and eager
    /// paths, asserts that they and [`validate_trace`] agree, and returns
    /// the shared result. Each frame's counts must be its ids' occurrences.
    fn decode_all_paths(data: &[u8]) -> Decoded {
        let streamed = StreamingDecoder::new(data).and_then(|mut decoder| {
            let (mut events, mut summaries) = (Vec::new(), Vec::new());
            while let Some(s) = decoder.try_next_interval(&mut |ev| events.push(ev))? {
                summaries.push(s);
            }
            Ok((events, summaries))
        });
        let framed = StreamingDecoder::new(data).and_then(|mut decoder| {
            let (mut events, mut summaries) = (Vec::new(), Vec::new());
            while let Some((frame, s)) = decoder.try_next_frame()? {
                let mut occurrences = vec![0u64; frame.pairs().len()];
                frame.for_each_id(|id| occurrences[id] += 1);
                assert_eq!(frame.counts(), &occurrences[..], "counts of {s:?}");
                frame.for_each_event(|ev| events.push(ev));
                summaries.push(s);
            }
            Ok((events, summaries))
        });
        let buffered = StreamingDecoder::new(data).and_then(|mut decoder| {
            let (mut events, mut summaries) = (Vec::new(), Vec::new());
            while let Some((evs, s)) = decoder.next_interval_buffered()? {
                events.extend_from_slice(evs);
                summaries.push(s);
            }
            Ok((events, summaries))
        });
        let eager = decode_trace(Bytes::from(data.to_vec())).map(|t| flatten(&t));
        assert_eq!(streamed, framed, "callback and frame decode disagree");
        assert_eq!(streamed, buffered, "callback and buffered decode disagree");
        assert_eq!(streamed, eager, "streaming and eager decode disagree");
        assert_eq!(
            validate_trace(data),
            streamed
                .as_ref()
                .map(|(_, s)| s.len() as u64)
                .map_err(Clone::clone),
            "validate_trace disagrees with decode"
        );
        streamed
    }

    /// One interval whose events cycle twice through `n_distinct`
    /// distinct `(pc, insns)` pairs.
    fn one_interval(n_distinct: u64) -> RecordedTrace {
        let events = (0..2 * n_distinct)
            .map(|i| {
                let k = i % n_distinct;
                BranchEvent::new(0x40_0000 + k * 0x80, (k % 300 + 1) as u32)
            })
            .collect();
        RecordedTrace {
            intervals: vec![RecordedInterval {
                events,
                summary: IntervalSummary::new(0, 1_000, 2_000),
            }],
        }
    }

    /// Byte offset of the first interval's `n_distinct` varint when its
    /// metrics are all zero: magic, count, summary, metrics, n_events.
    const FIRST_N_DISTINCT: usize = 8 + 8 + 24 + 5 + 8;

    #[test]
    fn dict_round_trip_at_every_id_width() {
        for (n_distinct, width) in [(0, 1), (1, 1), (256, 1), (257, 2), (65_536, 2), (65_537, 4)] {
            let trace = one_interval(n_distinct);
            let data = encode_trace(&trace);
            assert_eq!(
                decode_all_paths(&data),
                Ok(flatten(&trace)),
                "{n_distinct} pairs"
            );
            // The id run closes the frame: ids 0..n, twice, `width` bytes
            // each.
            let ids: Vec<u64> = data[data.len() - 2 * n_distinct as usize * width..]
                .chunks_exact(width)
                .map(|c| c.iter().rev().fold(0, |id, &b| id << 8 | u64::from(b)))
                .collect();
            let want: Vec<u64> = (0..n_distinct).chain(0..n_distinct).collect();
            assert_eq!(ids, want, "{n_distinct} pairs: ids of width {width}");
        }
    }

    #[test]
    fn dict_counts_match_occurrences_at_every_id_width() {
        for n_distinct in [0, 1, 256, 257, 65_536, 65_537] {
            let trace = one_interval(n_distinct);
            let events = &trace.intervals[0].events;
            let mut occurrences: HashMap<BranchEvent, u64> = HashMap::new();
            for &ev in events {
                *occurrences.entry(ev).or_default() += 1;
            }
            let data = encode_trace(&trace);
            let mut decoder = StreamingDecoder::new(&data).unwrap();
            let (frame, summary) = decoder.try_next_frame().unwrap().unwrap();
            assert_eq!(summary, trace.intervals[0].summary);
            assert_eq!(frame.len(), events.len(), "{n_distinct} pairs");
            assert_eq!(frame.pairs().len(), occurrences.len(), "pairs are distinct");
            assert_eq!(frame.counts().iter().sum::<u64>(), events.len() as u64);
            for (pair, &count) in frame.pairs().iter().zip(frame.counts()) {
                assert_eq!(occurrences[pair], count, "{n_distinct} pairs: {pair}");
            }
            assert_eq!(frame.weighted().count(), occurrences.len());
            let mut walked = Vec::with_capacity(events.len());
            frame.for_each_event(|ev| walked.push(ev));
            assert_eq!(&walked, events, "{n_distinct} pairs: program order");
            assert!(decoder.try_next_frame().unwrap().is_none());
        }
    }

    /// Counts every call a sink gets.
    #[derive(Debug, Default, PartialEq)]
    struct Calls {
        observes: u64,
        frames: u64,
        frame_events: u64,
        intervals: u64,
    }

    impl crate::IntervalSink for Calls {
        fn observe(&mut self, _ev: &BranchEvent) {
            self.observes += 1;
        }

        fn observe_frame(&mut self, frame: &Frame<'_>) {
            self.frames += 1;
            self.frame_events += frame.len() as u64;
        }

        fn end_interval(&mut self, _summary: &IntervalSummary) {
            self.intervals += 1;
        }
    }

    #[test]
    fn dict_event_id_out_of_range_reaches_no_sink() {
        use crate::index::{PlannedReplay, ReplayPlan};
        let trace = sample();
        let (clean, index) = crate::encode_trace_with_index(&trace);
        let last = trace.intervals.last().expect("sample has intervals");
        let mut data = clean.to_vec();
        // The last event's id is the buffer's last byte; one past the
        // frame's pair count is out of range.
        *data.last_mut().expect("non-empty") = u8::MAX;
        let want = Calls {
            observes: 0,
            frames: trace.len() as u64 - 1,
            frame_events: flatten(&trace).0.len() as u64 - last.events.len() as u64,
            intervals: trace.len() as u64 - 1,
        };

        let mut decoder = StreamingDecoder::new(&data).unwrap();
        let mut calls = Calls::default();
        assert_eq!(
            crate::drive(&mut decoder, &mut [&mut calls]),
            trace.len() - 1
        );
        assert_eq!(calls, want);
        assert_eq!(decoder.error(), Some(CodecError::EventIdOutOfRange));

        let decoder = StreamingDecoder::new(&data).unwrap();
        let mut planned = PlannedReplay::new(decoder, &index, &ReplayPlan::full()).unwrap();
        let mut calls = Calls::default();
        assert_eq!(
            crate::drive(&mut planned, &mut [&mut calls]),
            trace.len() - 1
        );
        assert_eq!(calls, want);
        assert_eq!(planned.error(), Some(CodecError::EventIdOutOfRange));
    }

    #[test]
    fn dict_pair_no_id_names_counts_zero_and_touches_nothing() {
        let (a, b, unused) = (
            BranchEvent::new(0x40_0000, 30),
            BranchEvent::new(0x40_0080, 50),
            BranchEvent::new(0x7f_0000, 70),
        );
        let trace = RecordedTrace {
            intervals: vec![RecordedInterval {
                events: vec![a, b, unused, a],
                summary: IntervalSummary::new(0, 180, 360),
            }],
        };
        let mut data = encode_trace(&trace).to_vec();
        // The id run closes the buffer, one byte per event: point the
        // third event at pair 0, so no id names pair 2.
        let third = data.len() - 2;
        assert_eq!(data[third], 2);
        data[third] = 0;
        let mut decoder = StreamingDecoder::new(&data).unwrap();
        let (frame, _) = decoder.try_next_frame().unwrap().unwrap();
        assert_eq!(frame.pairs(), &[a, b, unused]);
        assert_eq!(frame.counts(), &[3, 1, 0]);
        assert_eq!(frame.weighted().collect::<Vec<_>>(), [(a, 3), (b, 1)]);

        // The BBV sink, fed the frame, holds no component for the unused
        // pair, not even a zero-weight one: it equals the per-event walk.
        let mut sink = crate::BbvSink::new();
        let mut decoder = StreamingDecoder::new(&data).unwrap();
        assert_eq!(crate::drive(&mut decoder, &mut [&mut sink]), 1);
        let bbv = &sink.into_trace().vectors[0];
        let mut builder = crate::BbvBuilder::new();
        for ev in [a, b, a, a] {
            builder.observe(ev);
        }
        assert_eq!(bbv, &builder.finish());
        assert_eq!(bbv.len(), 2);
        let mut builder = crate::BbvBuilder::new();
        builder.observe_weighted(unused, 0);
        assert!(builder.finish().is_empty());
    }

    /// A trace exercising every varint width: tiny PC deltas (1-byte),
    /// the dominant 2-byte zigzag deltas, huge forward/backward jumps
    /// (up to 10-byte varints), and insns counts from 1 to u32::MAX.
    fn mixed_width_trace() -> RecordedTrace {
        let pcs = [
            0x40u64,
            0x44,
            0x45,
            0x80_0000,
            0x40,
            u64::MAX - 4,
            3,
            1 << 62,
            0x1000,
            0x1001,
            0x1002,
            0x1003,
            0x1004,
            0x1042,
            0x10_0042,
            0x42,
        ];
        let events = (0..160u64).map(|i| {
            let pc = pcs[(i % 16) as usize].wrapping_add(i / 16);
            let insns = match i % 5 {
                0 => 1,
                1 => 100,
                2 => 16_000,
                3 => 2_000_000,
                _ => u32::MAX,
            };
            (BranchEvent::new(pc, insns), u64::from(insns))
        });
        RecordedTrace::record(IntervalCutter::from_iter(1_000_000, events))
    }

    #[test]
    fn dict_mixed_varint_widths_round_trip() {
        let trace = mixed_width_trace();
        assert_eq!(decode_all_paths(&encode_trace(&trace)), Ok(flatten(&trace)));
    }

    #[test]
    fn dict_truncation_at_every_byte_agrees() {
        // A cut anywhere strictly inside the buffer fails every decode
        // path with the same error, in both 1- and 2-byte id frames.
        for trace in [mixed_width_trace(), one_interval(257)] {
            let data = encode_trace(&trace);
            for cut in 0..data.len() {
                assert!(decode_all_paths(&data[..cut]).is_err(), "cut at {cut}");
            }
            assert!(decode_all_paths(&data).is_ok());
        }
    }

    #[test]
    fn dict_event_id_out_of_range_is_rejected_before_delivery() {
        let trace = sample();
        let last = trace.intervals.last().expect("sample has intervals");
        let mut pairs: Vec<BranchEvent> = last.events.clone();
        pairs.sort_unstable();
        pairs.dedup();
        let n_distinct = pairs.len();
        assert!(n_distinct < 256, "sample frames use 1-byte ids");
        let delivered_before = flatten(&trace).0.len() - last.events.len();
        for bad in [n_distinct as u8, u8::MAX] {
            // The last event's id is the buffer's last byte.
            let mut data = encode_trace(&trace).to_vec();
            *data.last_mut().expect("non-empty") = bad;
            assert_eq!(decode_all_paths(&data), Err(CodecError::EventIdOutOfRange));
            // No event of the failing interval reaches the callback.
            let mut decoder = StreamingDecoder::new(&data).unwrap();
            let mut delivered = 0usize;
            while let Ok(Some(_)) = decoder.try_next_interval(&mut |_| delivered += 1) {}
            assert_eq!(delivered, delivered_before);
        }
    }

    #[test]
    fn dict_more_pairs_than_events_is_implausible() {
        // 6 events over 3 pairs; a declared pair count past the event
        // count, or past what the buffer could hold, is rejected before
        // the pair table is allocated.
        let data = encode_trace(&one_interval(3));
        assert_eq!(data[FIRST_N_DISTINCT], 3);
        for n_distinct in [7u64, u64::MAX] {
            let mut bad = data[..FIRST_N_DISTINCT].to_vec();
            let mut varint = BytesMut::new();
            put_varint(&mut varint, n_distinct);
            bad.extend_from_slice(varint.as_slice());
            bad.extend_from_slice(&data[FIRST_N_DISTINCT + 1..]);
            assert_eq!(
                decode_all_paths(&bad),
                Err(CodecError::ImplausibleLength),
                "n_distinct {n_distinct}"
            );
        }
    }

    #[test]
    fn dict_overlong_varint_in_pair_table_rejected() {
        // An overlong varint planted as the first pair's PC delta must
        // surface as MalformedVarint from every decode path.
        let mut data = encode_trace(&sample()).to_vec();
        let first_pair = FIRST_N_DISTINCT + 1;
        data.splice(first_pair..first_pair + 1, [0xff; 10]);
        assert_eq!(decode_all_paths(&data), Err(CodecError::MalformedVarint));
    }

    #[test]
    fn dict_byte_flips_never_panic() {
        // Any single flipped byte decodes or fails with a structured
        // error, the same on every path.
        let data = encode_trace(&sample());
        for i in 0..data.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut flipped = data.to_vec();
                flipped[i] ^= mask;
                let _ = decode_all_paths(&flipped);
            }
        }
    }

    #[test]
    fn v1_buffers_are_rejected_cleanly() {
        // An older-format buffer (TPCPTRC1 or TPCPTRC2) must fail with
        // BadMagic (callers re-simulate) rather than mis-decode.
        for version in [b'1', b'2'] {
            let mut data = encode_trace(&sample()).to_vec();
            data[7] = version;
            assert_eq!(decode_all_paths(&data), Err(CodecError::BadMagic));
        }
    }
}
