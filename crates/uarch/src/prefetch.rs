//! A simple stream/stride prefetcher (an opt-in extension).
//!
//! The paper's Table 1 machine has no prefetcher (SimpleScalar's default),
//! so [`MachineConfig::hpca2005`](crate::MachineConfig::hpca2005) leaves
//! this off (`prefetch_degree = 0`). Enabling it is useful for studying
//! how phase classification interacts with a memory system whose behaviour
//! changes under the same code — e.g. CPI compression between phases.

/// Detects constant-stride miss streams and suggests prefetch addresses.
///
/// The detector watches the data-miss address stream: once two consecutive
/// miss deltas agree, it emits `degree` prefetch addresses ahead of each
/// stride-conforming miss.
///
/// # Example
///
/// ```
/// use tpcp_uarch::StridePrefetcher;
///
/// let mut p = StridePrefetcher::new(2);
/// assert!(p.on_miss(0x1000).is_empty());  // first miss: no pattern yet
/// assert!(p.on_miss(0x1040).is_empty());  // stride seen once
/// let prefetches = p.on_miss(0x1080);     // stride confirmed
/// assert_eq!(prefetches, vec![0x10c0, 0x1100]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridePrefetcher {
    degree: usize,
    last_miss: Option<u64>,
    stride: i64,
    confirmed: bool,
}

impl StridePrefetcher {
    /// Creates a prefetcher issuing up to `degree` prefetches per miss.
    /// `degree == 0` disables it (every call returns no addresses).
    pub fn new(degree: usize) -> Self {
        Self {
            degree,
            last_miss: None,
            stride: 0,
            confirmed: false,
        }
    }

    /// Prefetch degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Observes a demand miss at `addr`; returns the addresses to prefetch.
    pub fn on_miss(&mut self, addr: u64) -> Vec<u64> {
        if self.degree == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        if let Some(last) = self.last_miss {
            let delta = addr.wrapping_sub(last) as i64;
            if delta != 0 && delta == self.stride {
                self.confirmed = true;
                for i in 1..=self.degree as i64 {
                    out.push(addr.wrapping_add((self.stride * i) as u64));
                }
            } else {
                self.stride = delta;
                self.confirmed = false;
            }
        }
        self.last_miss = Some(addr);
        out
    }

    /// Resets the detector (e.g. at a context switch).
    pub fn reset(&mut self) {
        self.last_miss = None;
        self.stride = 0;
        self.confirmed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_zero_is_inert() {
        let mut p = StridePrefetcher::new(0);
        for a in [0u64, 64, 128, 192] {
            assert!(p.on_miss(a).is_empty());
        }
    }

    #[test]
    fn learns_positive_and_negative_strides() {
        let mut p = StridePrefetcher::new(1);
        p.on_miss(0x2000);
        p.on_miss(0x1fc0); // delta -64
        assert_eq!(p.on_miss(0x1f80), vec![0x1f40]);
    }

    #[test]
    fn random_misses_never_confirm() {
        let mut p = StridePrefetcher::new(4);
        let mut issued = 0;
        let mut x = 7u64;
        for _ in 0..100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            issued += p.on_miss(x & 0xFFFF_FFC0).len();
        }
        assert!(issued < 20, "random stream should rarely trigger: {issued}");
    }

    #[test]
    fn stride_change_retrains() {
        let mut p = StridePrefetcher::new(1);
        p.on_miss(0);
        p.on_miss(64);
        // Stride switches from 64 to 128: nothing issued while retraining.
        assert!(p.on_miss(64 + 128).is_empty());
        assert_eq!(p.on_miss(64 + 256), vec![64 + 384]);
    }

    #[test]
    fn reset_clears_training() {
        let mut p = StridePrefetcher::new(1);
        p.on_miss(0);
        p.on_miss(64);
        p.reset();
        assert!(p.on_miss(128).is_empty());
        assert!(p.on_miss(192).is_empty());
    }
}
