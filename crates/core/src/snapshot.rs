//! Versioned binary snapshots of classifier state.
//!
//! A [`PhaseClassifier`](crate::PhaseClassifier) can be captured with
//! [`snapshot`](crate::PhaseClassifier::snapshot) and rebuilt with
//! [`from_snapshot`](crate::PhaseClassifier::from_snapshot); the restored
//! classifier continues **bit-identically** — same phase IDs, same LRU
//! eviction order, same adaptive-threshold decisions. This is what lets
//! the serve binary evict an idle session's tables under memory pressure
//! and re-admit it later without the client observing a difference.
//!
//! The format is hand-rolled (magic `TPCPSNP2`, varints, f64 bit
//! patterns) because snapshots cross process boundaries and may be fed
//! back corrupted: every declared count is bounded against the remaining
//! input before allocation (the same OOM-guard idiom as the trace codec),
//! every restored invariant the constructors would assert is re-checked as
//! an error, and redundant derived state (signature weights, region
//! counts, index masks) is recomputed rather than trusted.

use std::fmt;

/// Leading magic of every classifier snapshot.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"TPCPSNP2";

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot does not start with the `TPCPSNP2` magic.
    BadMagic,
    /// The snapshot ended before a declared field.
    Truncated,
    /// A decoded field violates a classifier invariant.
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a TPCPSNP2 classifier snapshot"),
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Appends a varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends an `f64` as its little-endian bit pattern (restores bit-exact).
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Bounded reader over snapshot bytes.
pub(crate) struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed — the bound for declared-count checks.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        let byte = *self.buf.get(self.pos).ok_or(SnapshotError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    pub(crate) fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut out = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = *self.buf.get(self.pos).ok_or(SnapshotError::Truncated)?;
            self.pos += 1;
            let payload = u64::from(byte & 0x7f);
            if shift == 63 && payload > 1 {
                return Err(SnapshotError::Malformed("overlong varint"));
            }
            out |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
        }
        Err(SnapshotError::Malformed("overlong varint"))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Truncated)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Truncated)?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a declared element count and bounds it: each element costs at
    /// least `min_bytes` of input still unread, so a count that cannot fit
    /// is rejected *before* anything is allocated.
    pub(crate) fn bounded_count(&mut self, min_bytes: usize) -> Result<usize, SnapshotError> {
        let declared = self.varint()?;
        let max = (self.remaining() / min_bytes.max(1)) as u64;
        if declared > max {
            return Err(SnapshotError::Malformed("implausible element count"));
        }
        Ok(declared as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut r = SnapReader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut r = SnapReader::new(&buf);
        assert!(matches!(r.varint(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn f64_round_trips_bit_exact() {
        for v in [0.0f64, -0.0, 0.25, f64::MAX, f64::MIN_POSITIVE] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut r = SnapReader::new(&buf);
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn bounded_count_rejects_implausible_declarations() {
        // Declares 1000 elements with only 2 bytes of payload behind it.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1000);
        buf.extend_from_slice(&[0, 0]);
        let mut r = SnapReader::new(&buf);
        assert!(matches!(
            r.bounded_count(1),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_reads_report_truncated() {
        let mut r = SnapReader::new(&[0x80]);
        assert_eq!(r.varint(), Err(SnapshotError::Truncated));
        let mut r = SnapReader::new(&[1, 2, 3]);
        assert_eq!(r.f64().unwrap_err(), SnapshotError::Truncated);
        let mut r = SnapReader::new(&[]);
        assert_eq!(r.u8().unwrap_err(), SnapshotError::Truncated);
        let mut r = SnapReader::new(&[1]);
        assert_eq!(r.bytes(2).unwrap_err(), SnapshotError::Truncated);
    }
}
