//! Compact binary encoding of recorded traces.
//!
//! A [`RecordedTrace`] at 10M-instruction granularity can hold tens of
//! millions of events; a generic self-describing encoding is wasteful for
//! archival. This module provides a dense little-endian framing built on
//! [`bytes`], with delta-encoded PCs within each interval (branch PCs
//! cluster tightly in the address space, so deltas are small).
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic  b"TPCPTRC2"                      8 bytes
//! n_intervals: u64
//! per interval:
//!   index: u64, instructions: u64, cycles: u64
//!   metrics: 5 x varint (il1, dl1, l2, tlb misses, branch mispredictions)
//!   n_events: u64
//!   per event: pc_delta_zigzag: varint, insns: varint
//! ```
//!
//! Two decoders share one decode loop:
//!
//! - [`decode_trace`] materializes the whole buffer into a
//!   [`RecordedTrace`] (archival, tooling, tests).
//! - [`StreamingDecoder`] yields one interval at a time straight off the
//!   borrowed buffer — no per-interval `Vec` is built unless the caller
//!   asks for one — and implements
//!   [`IntervalSource`](crate::IntervalSource), so a trace replays through
//!   [`drive`](crate::drive) without ever being materialized. This is the
//!   hot path of the experiment engine.

use bytes::{BufMut, Bytes, BytesMut};

use crate::event::BranchEvent;
use crate::index::{IndexError, TraceIndex};
use crate::interval::{IntervalSource, IntervalSummary};
use crate::recorded::{RecordedInterval, RecordedTrace};

const MAGIC: &[u8; 8] = b"TPCPTRC2";

/// Minimum encoded size of one interval: 3 fixed u64s, five 1-byte
/// varints, and the 8-byte event count. Used to bound a declared
/// `n_intervals` against the remaining buffer before allocating.
const MIN_INTERVAL_BYTES: usize = 24 + 5 + 8;

/// Minimum encoded size of one event (two 1-byte varints). Used to bound a
/// declared `n_events` against the remaining buffer before allocating.
const MIN_EVENT_BYTES: usize = 2;

/// Errors produced when decoding a trace buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the trace magic bytes.
    BadMagic,
    /// The buffer ended before the declared contents were read.
    Truncated,
    /// A varint ran past its maximum width.
    MalformedVarint,
    /// A declared count (`n_intervals` or `n_events`) is larger than the
    /// remaining buffer could possibly hold. Rejected before any
    /// allocation, so a corrupt header cannot trigger an OOM-sized
    /// `Vec::with_capacity`.
    ImplausibleLength,
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
    // One- and two-byte fast paths: per-event PC deltas and instruction
    // counts almost always fit in 14 bits, and this function dominates
    // decode time.
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

/// Decodes `n_events` delta/insns varint pairs starting at `*pos`,
/// reconstructing absolute PCs and delivering each event. The scalar
/// reference kernel: one bounds-checked varint at a time.
///
/// Plausibility of `n_events` against the remaining buffer is the
/// *caller's* responsibility ([`StreamingDecoder::try_next_interval_with`]
/// checks it before dispatching to either kernel).
#[inline]
fn decode_events_scalar<F: FnMut(BranchEvent)>(
    buf: &[u8],
    pos: &mut usize,
    n_events: u64,
    on_event: &mut F,
) -> Result<(), CodecError> {
    let mut prev_pc = 0i64;
    for _ in 0..n_events {
        let delta = zigzag_decode(read_varint(buf, pos)?);
        let insns = read_varint(buf, pos)?;
        prev_pc = prev_pc.wrapping_add(delta);
        on_event(BranchEvent::new(prev_pc as u64, insns as u32));
    }
    Ok(())
}

/// Batched SWAR twin of [`decode_events_scalar`]: loads the stream in
/// 8-byte register windows and decodes runs of short varints without
/// per-byte bounds checks or value branches.
///
/// The dispatch key is the window's continuation-bit mask
/// (`word & 0x8080…80`). Trace streams are overwhelmingly *periodic* —
/// a phase's PC deltas and instruction counts keep the same byte widths
/// for long runs — so a handful of mask values cover nearly every window,
/// and each gets straight-line code with **constant** shifts and a
/// **constant** byte-count advance. That constant advance is the point:
/// the next window's address never waits on decoded lengths, so loads for
/// window *n+1* issue while window *n* is still being unpacked (the
/// variable-shift variant of this kernel measured slower than scalar for
/// exactly that reason — conditional moves serialized what speculation
/// had parallelized).
///
/// * mask all-clear — eight 1-byte varints: four events, consume 8;
/// * mask `0x…0080_0000_8000_0080` — the dominant (2-byte delta, 1-byte
///   insns) run. Its period is 3 bytes, so 24 bytes = three u64 words =
///   exactly 8 events: when the next two words confirm the pattern (three
///   per-word masks, one per phase of the cycle), a tight run loop decodes
///   8 events per 24-byte super-block until a mask breaks, amortizing
///   dispatch entirely. A lone matching window decodes two events and
///   consumes 6 (re-aligned, so the next window repeats the same mask);
/// * mask `0x…0080_0080_0080_0080` — (2-byte delta, 2-byte insns): two
///   events, consume 8;
/// * any other mask with no two adjacent continuation bits — mixed 1-/2-
///   byte varints, peeled one field at a time from the register;
/// * anything else — a varint of three or more bytes, or fewer than 8
///   bytes left in the buffer — falls back to the scalar kernel for *one*
///   event and re-enters the windowed loop.
///
/// The fast paths only ever consume complete, well-formed varints that
/// are fully in bounds, so every `Truncated`/`MalformedVarint` case is
/// reported by the same scalar code path, at the same position.
fn decode_events_swar<F: FnMut(BranchEvent)>(
    buf: &[u8],
    pos: &mut usize,
    n_events: u64,
    on_event: &mut F,
) -> Result<(), CodecError> {
    /// Continuation bit of every byte in a u64 window.
    const CONT: u64 = 0x8080_8080_8080_8080;
    /// Continuation bits of a window holding `[2-byte delta][1-byte insns]`
    /// events back to back: set on bytes 0, 3, and 6.
    const MASK_D2_I1: u64 = 0x0080_0000_8000_0080;
    /// The same periodic (2-byte delta, 1-byte insns) run, continued into
    /// the second and third 8-byte words of a 24-byte super-block. The
    /// pattern's period is 3 bytes, so 24 bytes hold exactly 8 events and
    /// the per-word masks cycle through three phases.
    const MASK_D2_I1_B: u64 = 0x8000_0080_0000_8000;
    const MASK_D2_I1_C: u64 = 0x0000_8000_0080_0000;
    /// Continuation bits of `[2-byte delta][2-byte insns]` events: set on
    /// bytes 0, 2, 4, and 6.
    const MASK_D2_I2: u64 = 0x0080_0080_0080_0080;

    /// Two low 7-bit groups of `word` starting at bit `shift`, joined as a
    /// 2-byte varint value (continuation bits masked off).
    #[inline(always)]
    fn pair(word: u64, shift: u32) -> u64 {
        ((word >> shift) & 0x7f) | ((word >> (shift + 1)) & 0x3f80)
    }

    let mut prev_pc = 0i64;
    let mut remaining = n_events;
    while remaining > 0 {
        let p = *pos;
        let Some(window) = buf.get(p..p + 8) else {
            // Near the end of the buffer: finish through the scalar loop.
            break;
        };
        let word = u64::from_le_bytes(window.try_into().expect("8-byte slice"));
        let cont = word & CONT;

        if cont == MASK_D2_I1 && remaining >= 2 {
            // The dominant periodic layout. While the stream keeps the
            // pattern, decode a 24-byte super-block — exactly 8 events in
            // three constant-offset word loads (the pattern's 3-byte
            // period divides 24). No load address depends on a decoded
            // length, so the loads pipeline across iterations, and the
            // three mask equalities prove every fixed shift below lands on
            // the field it assumes.
            if remaining >= 8 {
                if let (Some(wb1), Some(wb2)) = (buf.get(p + 8..p + 16), buf.get(p + 16..p + 24)) {
                    let mut w0 = word;
                    let mut w1 = u64::from_le_bytes(wb1.try_into().expect("8-byte slice"));
                    let mut w2 = u64::from_le_bytes(wb2.try_into().expect("8-byte slice"));
                    if w1 & CONT == MASK_D2_I1_B && w2 & CONT == MASK_D2_I1_C {
                        // Stay in a tight run loop for as long as the
                        // stream keeps the pattern: each iteration's block
                        // address is q + 24, so decode, mask checks and
                        // the next three loads all overlap.
                        let mut q = p;
                        loop {
                            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(w0, 0)));
                            on_event(BranchEvent::new(prev_pc as u64, (w0 >> 16) as u32 & 0x7f));
                            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(w0, 24)));
                            on_event(BranchEvent::new(prev_pc as u64, (w0 >> 40) as u32 & 0x7f));
                            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(w0, 48)));
                            on_event(BranchEvent::new(prev_pc as u64, w1 as u32 & 0x7f));
                            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(w1, 8)));
                            on_event(BranchEvent::new(prev_pc as u64, (w1 >> 24) as u32 & 0x7f));
                            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(w1, 32)));
                            on_event(BranchEvent::new(prev_pc as u64, (w1 >> 48) as u32 & 0x7f));
                            // The only field that straddles a word
                            // boundary: delta low byte 15 (end of w1),
                            // high byte 16 (start of w2).
                            let raw = ((w1 >> 56) & 0x7f) | ((w2 & 0x7f) << 7);
                            prev_pc = prev_pc.wrapping_add(zigzag_decode(raw));
                            on_event(BranchEvent::new(prev_pc as u64, (w2 >> 8) as u32 & 0x7f));
                            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(w2, 16)));
                            on_event(BranchEvent::new(prev_pc as u64, (w2 >> 32) as u32 & 0x7f));
                            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(w2, 40)));
                            on_event(BranchEvent::new(prev_pc as u64, (w2 >> 56) as u32 & 0x7f));
                            q += 24;
                            remaining -= 8;
                            if remaining < 8 {
                                break;
                            }
                            let Some(nb) = buf.get(q..q + 24) else { break };
                            let n0 = u64::from_le_bytes(nb[0..8].try_into().expect("8-byte slice"));
                            let n1 =
                                u64::from_le_bytes(nb[8..16].try_into().expect("8-byte slice"));
                            let n2 =
                                u64::from_le_bytes(nb[16..24].try_into().expect("8-byte slice"));
                            if n0 & CONT != MASK_D2_I1
                                || n1 & CONT != MASK_D2_I1_B
                                || n2 & CONT != MASK_D2_I1_C
                            {
                                break;
                            }
                            w0 = n0;
                            w1 = n1;
                            w2 = n2;
                        }
                        *pos = q;
                        continue;
                    }
                }
            }
            // Two (2-byte delta, 1-byte insns) events; bytes 6-7 start the
            // next event and are left for the next window.
            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(word, 0)));
            on_event(BranchEvent::new(prev_pc as u64, (word >> 16) as u32 & 0x7f));
            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(word, 24)));
            on_event(BranchEvent::new(prev_pc as u64, (word >> 40) as u32 & 0x7f));
            *pos = p + 6;
            remaining -= 2;
            continue;
        }

        if cont == 0 && remaining >= 4 {
            // Eight 1-byte varints: four complete events in one load.
            let b = word.to_le_bytes();
            for k in 0..4 {
                prev_pc = prev_pc.wrapping_add(zigzag_decode(u64::from(b[2 * k])));
                on_event(BranchEvent::new(prev_pc as u64, u32::from(b[2 * k + 1])));
            }
            *pos = p + 8;
            remaining -= 4;
            continue;
        }

        if cont == MASK_D2_I2 && remaining >= 2 {
            // Two (2-byte delta, 2-byte insns) events filling the window.
            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(word, 0)));
            on_event(BranchEvent::new(prev_pc as u64, pair(word, 16) as u32));
            prev_pc = prev_pc.wrapping_add(zigzag_decode(pair(word, 32)));
            on_event(BranchEvent::new(prev_pc as u64, pair(word, 48) as u32));
            *pos = p + 8;
            remaining -= 2;
            continue;
        }

        if cont & (cont >> 8) != 0 {
            // Two adjacent continuation bits: a varint of three or more
            // bytes somewhere in the window. Decode one event through the
            // general path (same error positions as the scalar kernel),
            // then resume windowed decode.
            let delta = zigzag_decode(read_varint(buf, pos)?);
            let insns = read_varint(buf, pos)?;
            prev_pc = prev_pc.wrapping_add(delta);
            on_event(BranchEvent::new(prev_pc as u64, insns as u32));
            remaining -= 1;
            continue;
        }

        // Aperiodic mix of 1-/2-byte varints: peel fields one at a time
        // from the register while a max-size (2+2-byte) event still fits.
        // A field at `off <= 6` may read one byte past itself (masked off
        // for 1-byte varints), never past the window.
        let mut off = 0usize;
        loop {
            let c0 = (word >> (8 * off + 7)) & 1;
            let d_len = 1 + c0 as usize;
            let raw_delta = ((word >> (8 * off)) & 0x7f)
                | (((word >> (8 * off + 8)) & 0x7f) << 7) & 0u64.wrapping_sub(c0);
            let o1 = off + d_len;
            let c1 = (word >> (8 * o1 + 7)) & 1;
            let insns = ((word >> (8 * o1)) & 0x7f)
                | (((word >> (8 * o1 + 8)) & 0x7f) << 7) & 0u64.wrapping_sub(c1);
            prev_pc = prev_pc.wrapping_add(zigzag_decode(raw_delta));
            on_event(BranchEvent::new(prev_pc as u64, insns as u32));
            off = o1 + 1 + c1 as usize;
            remaining -= 1;
            if off > 4 || remaining == 0 {
                break;
            }
        }
        *pos = p + off;
    }
    // Buffer tail (or an early bail above): scalar, continuing from the
    // running PC.
    for _ in 0..remaining {
        let delta = zigzag_decode(read_varint(buf, pos)?);
        let insns = read_varint(buf, pos)?;
        prev_pc = prev_pc.wrapping_add(delta);
        on_event(BranchEvent::new(prev_pc as u64, insns as u32));
    }
    Ok(())
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
    encode_frames(trace).freeze()
}

/// Encodes a recorded trace and builds its [`TraceIndex`] in the same
/// pass: frame offsets are captured as they are written, so the sidecar
/// costs one checksum sweep instead of a full decode re-walk.
///
/// The payload is byte-identical to [`encode_trace`]'s, and the index is
/// identical to [`TraceIndex::build`] run over that payload (pinned by
/// tests).
pub fn encode_trace_with_index(trace: &RecordedTrace) -> (Bytes, TraceIndex) {
    let buf = encode_frames(trace);
    let mut checkpoints = Vec::with_capacity(trace.intervals.len() + 1);
    let mut offset = 16u64; // magic + n_intervals
    let (mut events, mut instructions, mut cycles) = (0u64, 0u64, 0u64);
    for interval in &trace.intervals {
        checkpoints.push(crate::index::IntervalCheckpoint {
            byte_offset: offset,
            events,
            instructions,
            cycles,
        });
        offset += frame_len(interval);
        events += interval.events.len() as u64;
        instructions += interval.summary.instructions;
        cycles += interval.summary.cycles;
    }
    checkpoints.push(crate::index::IntervalCheckpoint {
        byte_offset: offset,
        events,
        instructions,
        cycles,
    });
    debug_assert_eq!(offset as usize, buf.len());
    let payload = buf.freeze();
    let index = TraceIndex {
        payload_len: payload.len() as u64,
        payload_checksum: crate::index::payload_checksum(&payload),
        checkpoints,
    };
    (payload, index)
}

/// The shared encode loop behind [`encode_trace`] and
/// [`encode_trace_with_index`].
fn encode_frames(trace: &RecordedTrace) -> BytesMut {
    let mut buf = BytesMut::with_capacity(64 + trace.intervals.len() * 64);
    buf.put_slice(MAGIC);
    buf.put_u64_le(trace.intervals.len() as u64);
    for interval in &trace.intervals {
        buf.put_u64_le(interval.summary.index);
        buf.put_u64_le(interval.summary.instructions);
        buf.put_u64_le(interval.summary.cycles);
        for m in interval.summary.metrics.as_array() {
            put_varint(&mut buf, m);
        }
        buf.put_u64_le(interval.events.len() as u64);
        let mut prev_pc = 0i64;
        for ev in &interval.events {
            let delta = (ev.pc as i64).wrapping_sub(prev_pc);
            prev_pc = ev.pc as i64;
            put_varint(&mut buf, zigzag_encode(delta));
            put_varint(&mut buf, u64::from(ev.insns));
        }
    }
    buf
}

/// Encoded byte length of one interval frame, mirroring the writes in
/// [`encode_frames`] without buffering.
fn frame_len(interval: &RecordedInterval) -> u64 {
    let mut len = (24 + 8) as u64; // fixed summary + event count
    for m in interval.summary.metrics.as_array() {
        len += varint_len(m);
    }
    let mut prev_pc = 0i64;
    for ev in &interval.events {
        let delta = (ev.pc as i64).wrapping_sub(prev_pc);
        prev_pc = ev.pc as i64;
        len += varint_len(zigzag_encode(delta)) + varint_len(u64::from(ev.insns));
    }
    len
}

/// Bytes [`put_varint`] emits for `v`.
#[inline]
fn varint_len(v: u64) -> u64 {
    (64 - v.max(1).leading_zeros() as u64).div_ceil(7)
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
/// contains a malformed varint.
pub fn decode_trace(buf: Bytes) -> Result<RecordedTrace, CodecError> {
    let mut decoder = StreamingDecoder::new(&buf)?;
    // Safe to allocate: `StreamingDecoder::new` bounded `n_intervals`
    // against the buffer length.
    let mut intervals = Vec::with_capacity(decoder.n_intervals() as usize);
    let mut events: Vec<BranchEvent> = Vec::new();
    while let Some(summary) = decoder.try_next_interval_with(&mut |ev| events.push(ev))? {
        let hint = events.len();
        intervals.push(RecordedInterval {
            events: std::mem::take(&mut events),
            summary,
        });
        // Intervals of a trace are similar in size: sizing each fresh
        // vector off its predecessor avoids regrowing from empty.
        events.reserve(hint);
    }
    Ok(RecordedTrace { intervals })
}

/// Validates an encoded trace buffer without materializing anything.
///
/// Walks every interval and event frame, checking magic, bounds, and
/// varint well-formedness. Returns the interval count on success. This is
/// what cache readers run before streaming a buffer into live consumers:
/// it costs one allocation-free pass and guarantees the subsequent replay
/// cannot fail half-way through.
pub fn validate_trace(buf: &[u8]) -> Result<u64, CodecError> {
    let mut decoder = StreamingDecoder::new(buf)?;
    while decoder.try_next_interval_with(&mut |_| {})?.is_some() {}
    Ok(decoder.intervals_decoded())
}

/// A streaming, zero-copy decoder over an encoded trace buffer.
///
/// Yields one interval at a time straight off the borrowed bytes: PC
/// deltas and instruction counts are zigzag/varint-decoded in place and
/// handed to the caller's event callback, so replaying a multi-gigabyte
/// trace needs no heap proportional to the trace. An optional scratch
/// buffer ([`next_interval_buffered`](Self::next_interval_buffered)) is
/// reused across intervals for callers that want a slice view.
///
/// `StreamingDecoder` implements [`IntervalSource`], so it can be driven
/// through [`drive`](crate::drive) like any replay. Because
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
    scratch: Vec<BranchEvent>,
    error: Option<CodecError>,
    /// Route event decode through the scalar reference kernel instead of
    /// the SWAR one (perf comparison lanes, equivalence tests).
    force_scalar: bool,
}

impl<'a> StreamingDecoder<'a> {
    /// Opens a decoder over `buf`, validating the magic and header.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadMagic`] for a non-trace buffer,
    /// [`CodecError::Truncated`] for a short header, and
    /// [`CodecError::ImplausibleLength`] when the declared interval count
    /// cannot fit in the remaining bytes.
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
            scratch: Vec::new(),
            error: None,
            force_scalar: false,
        })
    }

    /// Forces the scalar event-decode kernel in place of the SWAR one. The
    /// two kernels are bit-identical in output and error behavior; this
    /// knob exists so benchmarks and equivalence tests can time or compare
    /// both in one binary.
    pub fn force_scalar(&mut self, scalar: bool) {
        self.force_scalar = scalar;
    }

    /// Whether the batched SWAR kernel will be used for event decode (not
    /// overridden by [`force_scalar`](Self::force_scalar)).
    pub fn uses_simd(&self) -> bool {
        !self.force_scalar
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
    /// PC deltas restart from zero at every frame, so no decode state
    /// from the skipped intervals is needed — a checkpoint is a complete
    /// resume point.
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

    /// Decodes the next interval, delivering each event to `on_event` in
    /// program order, then returns the interval summary. `Ok(None)` means
    /// every declared interval has been decoded.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a truncated or malformed frame. Events
    /// already delivered for the failing interval are not recalled, so
    /// callers feeding live consumers should pre-validate untrusted
    /// buffers with [`validate_trace`].
    pub fn try_next_interval(
        &mut self,
        on_event: &mut dyn FnMut(BranchEvent),
    ) -> Result<Option<IntervalSummary>, CodecError> {
        self.try_next_interval_with(&mut |ev| on_event(ev))
    }

    /// [`try_next_interval`](Self::try_next_interval) with a statically
    /// dispatched callback. Single-consumer hot loops (the perf harness,
    /// eager decode) get the event delivery inlined; multi-sink fan-out
    /// goes through the `dyn` wrapper above.
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
        if self.decoded >= self.n_intervals {
            return Ok(None);
        }
        let buf = self.buf;
        let pos = &mut self.pos;
        let index = read_u64_le(buf, pos)?;
        let instructions = read_u64_le(buf, pos)?;
        let cycles = read_u64_le(buf, pos)?;
        let metrics = crate::metrics::MetricCounts {
            il1_misses: read_varint(buf, pos)?,
            dl1_misses: read_varint(buf, pos)?,
            l2_misses: read_varint(buf, pos)?,
            tlb_misses: read_varint(buf, pos)?,
            branch_mispredictions: read_varint(buf, pos)?,
        };
        let n_events = read_u64_le(buf, pos)?;
        if n_events > ((buf.len() - *pos) / MIN_EVENT_BYTES) as u64 {
            return Err(CodecError::ImplausibleLength);
        }
        if self.force_scalar {
            decode_events_scalar(buf, pos, n_events, on_event)?;
        } else {
            decode_events_swar(buf, pos, n_events, on_event)?;
        }
        self.decoded += 1;
        Ok(Some(
            IntervalSummary::new(index, instructions, cycles).with_metrics(metrics),
        ))
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
        scratch.clear();
        let result = self.try_next_interval(&mut |ev| scratch.push(ev));
        self.scratch = scratch;
        match result {
            Ok(Some(summary)) => Ok(Some((&self.scratch, summary))),
            Ok(None) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl IntervalSource for StreamingDecoder<'_> {
    fn next_interval(&mut self, on_event: &mut dyn FnMut(BranchEvent)) -> Option<IntervalSummary> {
        if self.error.is_some() {
            return None;
        }
        match self.try_next_interval(on_event) {
            Ok(summary) => summary,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
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

    /// Streams a buffer through both event-decode kernels, returning
    /// `(events, summaries)` per kernel, or the first decode error.
    #[allow(clippy::type_complexity)]
    fn stream_both_kernels(
        data: &[u8],
    ) -> [Result<(Vec<BranchEvent>, Vec<IntervalSummary>), CodecError>; 2] {
        [false, true].map(|scalar| {
            let mut decoder = StreamingDecoder::new(data)?;
            decoder.force_scalar(scalar);
            let mut events = Vec::new();
            let mut summaries = Vec::new();
            while let Some(summary) = decoder.try_next_interval(&mut |ev| events.push(ev))? {
                summaries.push(summary);
            }
            Ok((events, summaries))
        })
    }

    #[test]
    fn simd_swar_decode_matches_scalar_on_sample() {
        let data = encode_trace(&sample());
        let [swar, scalar] = stream_both_kernels(&data);
        assert_eq!(swar, scalar);
        assert!(swar.is_ok());
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
    fn simd_swar_decode_matches_scalar_on_mixed_varint_widths() {
        let trace = mixed_width_trace();
        let data = encode_trace(&trace);
        let [swar, scalar] = stream_both_kernels(&data);
        assert_eq!(swar, scalar);
        let (events, _) = swar.unwrap();
        let want: Vec<_> = trace
            .intervals
            .iter()
            .flat_map(|iv| iv.events.iter().copied())
            .collect();
        assert_eq!(events, want);
    }

    #[test]
    fn simd_swar_decode_agrees_with_scalar_at_every_truncation_boundary() {
        // Both kernels must report the *same* error for a cut anywhere in
        // the buffer: the SWAR windows only consume complete in-bounds
        // varints, so every truncation funnels into the shared scalar
        // error path.
        let data = encode_trace(&mixed_width_trace());
        for cut in 0..data.len() {
            let [swar, scalar] = stream_both_kernels(&data[..cut]);
            assert_eq!(swar, scalar, "kernels disagree at cut {cut}");
            assert!(swar.is_err(), "cut at {cut} must fail");
        }
        let [swar, scalar] = stream_both_kernels(&data);
        assert_eq!(swar, scalar);
        assert!(swar.is_ok());
    }

    #[test]
    fn simd_swar_decode_rejects_overlong_varints_like_scalar() {
        // An overlong varint planted mid-event-stream must surface as
        // MalformedVarint from both kernels. Plant it as the first event's
        // delta varint of the first interval of the sample trace.
        let mut data = encode_trace(&sample()).to_vec();
        let first_event = 8 + 8 + 24 + 5 + 8; // magic, count, summary, metrics, n_events
        data.splice(first_event..first_event + 1, [0xff; 10]);
        let [swar, scalar] = stream_both_kernels(&data);
        assert_eq!(swar, scalar);
        assert_eq!(swar.unwrap_err(), CodecError::MalformedVarint);
    }

    #[test]
    fn v1_buffers_are_rejected_cleanly() {
        // An old-format buffer must fail with BadMagic (callers re-simulate)
        // rather than mis-decode.
        let mut data = encode_trace(&sample()).to_vec();
        data[7] = b'1'; // TPCPTRC2 -> TPCPTRC1
        assert_eq!(decode_trace(Bytes::from(data)), Err(CodecError::BadMagic));
    }
}
